#include "svc/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>
#include <vector>

#include "common/sock.h"
#include "common/timer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/net.h"
#include "svc/protocol.h"

namespace ecl::svc {

namespace {

/// Per-op latency sink; one switch so every op keeps its own cached
/// function-local static histogram reference.
void record_op_latency(MsgType type, std::uint64_t us) {
  const auto bounds = [] { return obs::Histogram::pow2_bounds(22); };
  switch (type) {
    case MsgType::kPing:
      ECL_OBS_HISTOGRAM_RECORD("ecl.svc.op_us.ping", bounds(), us);
      break;
    case MsgType::kIngest:
      ECL_OBS_HISTOGRAM_RECORD("ecl.svc.op_us.ingest", bounds(), us);
      break;
    case MsgType::kConnected:
      ECL_OBS_HISTOGRAM_RECORD("ecl.svc.op_us.connected", bounds(), us);
      break;
    case MsgType::kComponentOf:
      ECL_OBS_HISTOGRAM_RECORD("ecl.svc.op_us.component_of", bounds(), us);
      break;
    case MsgType::kComponentCount:
      ECL_OBS_HISTOGRAM_RECORD("ecl.svc.op_us.component_count", bounds(), us);
      break;
    case MsgType::kStats:
      ECL_OBS_HISTOGRAM_RECORD("ecl.svc.op_us.stats", bounds(), us);
      break;
    case MsgType::kFetchCkpt:
      ECL_OBS_HISTOGRAM_RECORD("ecl.svc.op_us.fetch_ckpt", bounds(), us);
      break;
    case MsgType::kFetchWal:
      ECL_OBS_HISTOGRAM_RECORD("ecl.svc.op_us.fetch_wal", bounds(), us);
      break;
    case MsgType::kPromote:
      ECL_OBS_HISTOGRAM_RECORD("ecl.svc.op_us.promote", bounds(), us);
      break;
    case MsgType::kShutdown:
      break;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Server::Server(ConnectivityService& service, ServerOptions opts)
    : service_(service), opts_(std::move(opts)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* err) {
  if (started_.load()) return true;
  if (!opts_.unix_path.empty()) {
    listen_fd_ = net::listen_unix(opts_.unix_path, opts_.backlog, err);
  } else {
    listen_fd_ = listen_tcp(opts_.host, opts_.port, opts_.backlog, &bound_port_, err);
  }
  if (listen_fd_ < 0) return false;
  set_nonblocking(listen_fd_);
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  pool_ = std::make_unique<exec::EventLoopPool>(opts_.io_threads);
  // Registered before start(): the listener lives on loop 0.
  if (!pool_->at(0).watch(listen_fd_, [this](std::uint32_t) { on_accept_ready(); })) {
    if (err != nullptr) *err = "epoll registration of the listener failed";
    ::close(listen_fd_);
    listen_fd_ = -1;
    pool_.reset();
    return false;
  }
  if (!pool_->start(err)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    pool_.reset();
    return false;
  }
  started_.store(true);
  return true;
}

void Server::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  // Async-signal-safe: an atomic store plus one eventfd write per loop.
  if (pool_) pool_->request_stop();
}

std::size_t Server::active_connections() const {
  if (!pool_) return 0;
  return static_cast<std::size_t>(
      pool_->counters().open_conns.load(std::memory_order_relaxed));
}

void Server::add_conn_stats(ServiceStats& s) const {
  s.requests_served = requests_served();
  s.accept_shed_fds = accept_shed_.load(std::memory_order_relaxed);
  if (!pool_) return;
  const auto& c = pool_->counters();
  s.open_connections = c.open_conns.load(std::memory_order_relaxed);
  s.epoll_wakeups = c.wakeups.load(std::memory_order_relaxed);
  s.write_buf_hwm_bytes = c.write_buf_hwm.load(std::memory_order_relaxed);
  s.evicted_idle = c.evicted_idle.load(std::memory_order_relaxed);
  s.evicted_slow = c.evicted_frame.load(std::memory_order_relaxed);
  s.evicted_backpressure = c.evicted_stall.load(std::memory_order_relaxed) +
                           c.evicted_overflow.load(std::memory_order_relaxed);
}

ServiceStats Server::conn_stats() const {
  ServiceStats s;
  add_conn_stats(s);
  return s;
}

ServiceStats Server::stats() const {
  ServiceStats s = service_.stats();
  add_conn_stats(s);
  return s;
}

void Server::on_accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // FD exhaustion: shed the pending connection cleanly (briefly give
        // back the spare fd so accept() can succeed, then close the peer)
        // and pause the listener instead of spinning on a ready backlog.
        accept_shed_.fetch_add(1, std::memory_order_relaxed);
        ECL_OBS_COUNTER_ADD("ecl.svc.accept.shed_fds", 1);
        if (spare_fd_ >= 0) {
          ::close(spare_fd_);
          spare_fd_ = -1;
          const int shed = ::accept(listen_fd_, nullptr, nullptr);
          if (shed >= 0) ::close(shed);
          spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        }
        auto& loop0 = pool_->at(0);
        loop0.unwatch(listen_fd_);
        loop0.post_after(opts_.accept_backoff_ms, [this] { rearm_accept(); });
        return;
      }
      continue;  // ECONNABORTED and friends: transient, try the next one
    }
    // Consistent client-socket tuning: TCP_NODELAY (no-op on Unix sockets)
    // mirrors net.cpp's connect-side setting, and an optional small SO_SNDBUF
    // lets tests drive the backpressure ladder with little data.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opts_.sndbuf_bytes > 0) {
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.sndbuf_bytes,
                         sizeof(opts_.sndbuf_bytes));
    }
    ECL_OBS_COUNTER_ADD("ecl.svc.server.connections", 1);
    exec::EventLoop& loop = pool_->next();
    loop.post([this, &loop, fd] { adopt_connection(loop, fd); });
  }
}

void Server::rearm_accept() {
  if (shutdown_requested_.load(std::memory_order_acquire) || listen_fd_ < 0) return;
  (void)pool_->at(0).watch(listen_fd_, [this](std::uint32_t) { on_accept_ready(); });
}

void Server::adopt_connection(exec::EventLoop& loop, int fd) {
  exec::ConnCallbacks cbs;
  cbs.on_frame = [this](exec::Conn& c, std::span<const std::uint8_t> p) { on_frame(c, p); };
  cbs.on_close = [this](exec::Conn& c, exec::CloseReason r) { on_close(c, r); };
  exec::ConnOptions copts;
  copts.max_frame_bytes = kMaxFrameBytes;
  copts.write_buffer_limit = opts_.write_buffer_limit;
  copts.write_buffer_pause = opts_.write_buffer_pause;
  copts.idle_timeout_ms = opts_.idle_timeout_ms;
  copts.frame_timeout_ms = opts_.frame_timeout_ms;
  copts.write_stall_timeout_ms = opts_.send_timeout_ms;
  (void)loop.adopt(fd, std::move(cbs), copts);
}

void Server::on_close(exec::Conn&, exec::CloseReason reason) {
  switch (reason) {
    case exec::CloseReason::kIdleTimeout:
      ECL_OBS_COUNTER_ADD("ecl.svc.server.evicted_idle", 1);
      break;
    case exec::CloseReason::kFrameTimeout:
      ECL_OBS_COUNTER_ADD("ecl.svc.server.evicted_slow", 1);
      break;
    case exec::CloseReason::kWriteStall:
    case exec::CloseReason::kWriteOverflow:
      ECL_OBS_COUNTER_ADD("ecl.svc.server.evicted_backpressure", 1);
      break;
    default:
      break;
  }
}

void Server::on_frame(exec::Conn& conn, std::span<const std::uint8_t> payload) {
  const double start_us = obs::Tracer::now_us();
  Timer total;
  Timer phase;
  Request req;
  Response resp;
  bool decoded = false;
  std::uint64_t decode_us = 0;
  std::uint64_t execute_us = 0;
  std::uint64_t encode_us = 0;
  std::uint64_t write_us = 0;
  // Reused across requests on this I/O thread (on_frame never nests).
  thread_local std::vector<std::uint8_t> reply;
  try {
    decoded = decode_request(payload, req);
    decode_us = static_cast<std::uint64_t>(phase.micros());
    if (decoded) {
      phase.reset();
      resp = dispatch(req);
      execute_us = static_cast<std::uint64_t>(phase.micros());
    }
  } catch (...) {
    // One bad request (e.g. an allocation failure while decoding) must
    // never take the I/O thread or the daemon down.
    ECL_OBS_COUNTER_ADD("ecl.svc.server.handler_errors", 1);
    conn.close(exec::CloseReason::kProtocolError);
    return;
  }
  if (!decoded) {
    resp.status = Status::kInvalid;
    ECL_OBS_COUNTER_ADD("ecl.svc.server.malformed", 1);
    reply.clear();
    encode_response(resp, reply);
    conn.send(reply.data(), reply.size());
    conn.close(exec::CloseReason::kProtocolError);  // framing is untrustworthy now
    return;
  }
  reply.clear();
  phase.reset();
  encode_response(resp, reply);  // appends the complete frame, prefix included
  encode_us = static_cast<std::uint64_t>(phase.micros());
  phase.reset();
  conn.send(reply.data(), reply.size());
  write_us = static_cast<std::uint64_t>(phase.micros());
  if (conn.closing()) return;  // the send tripped the overflow eviction
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  const auto total_us = static_cast<std::uint64_t>(total.micros());
  record_op_latency(req.type, total_us);
  finish_request(req, resp, start_us, total_us, decode_us, execute_us, encode_us,
                 write_us);
  if (req.type == MsgType::kShutdown) {
    // Close first (flushes the ack best-effort), then stop the loops.
    conn.close(exec::CloseReason::kAppClose);
    request_shutdown();
  }
}

void Server::finish_request(const Request& req, const Response& resp, double start_us,
                            std::uint64_t total_us, std::uint64_t decode_us,
                            std::uint64_t execute_us, std::uint64_t encode_us,
                            std::uint64_t write_us) {
  auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    // Recorded post-hoc (not via Span) so the event carries the measured
    // phase breakdown and covers exactly decode..write.
    obs::TraceEvent ev;
    ev.name = "svc.request";
    ev.category = "svc";
    ev.ts_us = start_us;
    ev.dur_us = static_cast<double>(total_us);
    ev.tid = static_cast<std::uint32_t>(obs::detail::thread_index());
    ev.args.reserve(7);
    ev.args.emplace_back("request_id", std::to_string(req.id));
    ev.args.emplace_back("op", '"' + std::string(msg_type_name(req.type)) + '"');
    ev.args.emplace_back("status", '"' + std::string(status_name(resp.status)) + '"');
    ev.args.emplace_back("decode_us", std::to_string(decode_us));
    ev.args.emplace_back("execute_us", std::to_string(execute_us));
    ev.args.emplace_back("encode_us", std::to_string(encode_us));
    ev.args.emplace_back("write_us", std::to_string(write_us));
    tracer.record(std::move(ev));
  }
  if (opts_.slow_log != nullptr && opts_.slow_log->enabled()) {
    obs::RequestLogRecord rec;
    rec.request_id = req.id;
    rec.op = msg_type_name(req.type);
    rec.status = status_name(resp.status);
    rec.queue_depth = service_.queue_depth();
    rec.total_us = total_us;
    rec.decode_us = decode_us;
    rec.queue_us = 0;  // requests dispatch inline on the I/O thread
    rec.execute_us = execute_us;
    rec.encode_us = encode_us;
    rec.write_us = write_us;  // buffer append; the loop flushes asynchronously
    if (opts_.slow_log->log(rec)) {
      ECL_OBS_COUNTER_ADD("ecl.svc.server.slow_requests", 1);
    }
  }
}

Response Server::dispatch(const Request& req) {
  Response resp;
  resp.type = req.type;
  resp.id = req.id;
  switch (req.type) {
    case MsgType::kPing:
    case MsgType::kShutdown:
      break;
    case MsgType::kIngest:
      if (service_.is_replica()) {
        // A definitive verdict, not kShed: retrying a write against a
        // replica can never succeed — the client must redirect.
        resp.status = Status::kNotPrimary;
        break;
      }
      switch (service_.submit(req.edges)) {
        case Admission::kAccepted:
          break;
        case Admission::kShed:
          resp.status = Status::kShed;
          break;
        case Admission::kClosed:
          resp.status = Status::kClosed;
          break;
      }
      break;
    case MsgType::kConnected:
      if (req.u >= service_.num_vertices() || req.v >= service_.num_vertices()) {
        resp.status = Status::kInvalid;
      } else {
        resp.value = service_.connected(req.u, req.v, req.mode) ? 1 : 0;
      }
      break;
    case MsgType::kComponentOf: {
      const vertex_t label = service_.component_of(req.v, req.mode);
      if (label == kInvalidVertex) {
        resp.status = Status::kInvalid;
      } else {
        resp.value = label;
      }
      break;
    }
    case MsgType::kComponentCount:
      resp.value = service_.component_count();
      break;
    case MsgType::kStats:
      resp.stats = stats();
      ECL_OBS_GAUGE_SET("ecl.svc.conn.open",
                        static_cast<double>(resp.stats.open_connections));
      ECL_OBS_GAUGE_SET("ecl.svc.conn.write_buf_hwm_bytes",
                        static_cast<double>(resp.stats.write_buf_hwm_bytes));
      break;
    case MsgType::kFetchCkpt: {
      if (service_.is_replica()) {
        resp.status = Status::kNotPrimary;  // replicas don't chain (yet)
        break;
      }
      resp.ckpt = service_.fetch_checkpoint_image();
      // The image travels in one frame; a checkpoint too large for it
      // (≈64 MiB of labels) is a config error surfaced as kError, never a
      // torn frame the peer would close the connection over.
      if (resp.ckpt.image.size() > kMaxFrameBytes - 64) {
        resp.ckpt = CkptImage{};
        resp.status = Status::kError;
      }
      break;
    }
    case MsgType::kFetchWal: {
      if (service_.is_replica()) {
        resp.status = Status::kNotPrimary;
        break;
      }
      const std::uint32_t capped = std::min(req.max_bytes, kMaxWalChunkBytes);
      resp.wal = service_.fetch_wal_chunk(req.replica_id, req.seq, req.offset, capped);
      if (!resp.wal.ok) {
        resp.wal = WalChunk{};
        resp.status = Status::kError;
      }
      break;
    }
    case MsgType::kPromote: {
      // Routed through the daemon's hook when set (it stops the Replicator
      // before flipping the service); in-process tests promote directly.
      const bool ok = opts_.promote ? opts_.promote() : service_.promote();
      if (!ok) resp.status = Status::kError;
      break;
    }
  }
  return resp;
}

void Server::wait() {
  if (!started_.load()) return;
  pool_->wait();
}

void Server::stop() {
  if (!started_.load() || stopped_) return;
  request_shutdown();
  pool_->stop();
  stopped_ = true;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!opts_.unix_path.empty()) ::unlink(opts_.unix_path.c_str());
  if (spare_fd_ >= 0) {
    ::close(spare_fd_);
    spare_fd_ = -1;
  }
}

}  // namespace ecl::svc
