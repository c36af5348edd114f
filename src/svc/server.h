// Socket front end for ConnectivityService: accepts TCP or Unix-domain
// connections, speaks the length-prefixed protocol (svc/protocol.h), and
// maps the service's admission verdicts onto response status bytes — a full
// ingest queue becomes an explicit kShed response, never a stalled socket.
//
// Threading model (docs/EXECUTOR.md): a small pool of ecl::exec event-loop
// threads multiplexes every connection via level-triggered epoll, so the
// connection count is bounded by file descriptors, not threads. Requests
// are decoded and dispatched inline on the I/O thread (every service call
// is non-blocking: bounded-queue admission or lock-free snapshot reads),
// and a connection may pipeline many requests on the wire — responses come
// back in request order. Slow or hostile peers are evicted by the loop's
// idle / mid-frame deadlines and by the per-connection write
// buffer's backpressure ladder: above write_buffer_pause the server stops
// reading from the peer; a peer that also stops draining its responses is
// evicted after send_timeout_ms (write stall) or when the buffer would
// exceed write_buffer_limit.
//
// Shutdown is race-free: request_shutdown() only sets an atomic flag and
// writes one eventfd byte per loop, so it is safe from I/O threads and
// signal handlers alike; each loop notices, closes its connections, and
// exits. accept() is hardened against fd exhaustion: EMFILE/ENFILE sheds
// the pending connection (counted in ecl_svc_accept_shed_fds_total) and
// pauses the listener briefly instead of spinning hot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "exec/event_loop.h"
#include "svc/protocol.h"
#include "svc/service.h"

namespace ecl::obs {
class RequestLog;
}  // namespace ecl::obs

namespace ecl::svc {

struct ServerOptions {
  /// Non-empty: serve on a Unix-domain socket at this path (and ignore
  /// host/port). Empty: serve on TCP host:port.
  std::string unix_path;
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see port() after start()).
  int port = 0;
  /// listen(2) backlog: deep enough for a C10K connect burst to queue
  /// before the accept loop runs.
  int backlog = 256;
  /// A client that starts a frame must deliver the rest within this bound,
  /// or it is evicted (counted in ecl_svc_evicted_slow_total) — one stuck
  /// or malicious peer must never pin an I/O thread's attention forever.
  /// 0 disables.
  int frame_timeout_ms = 10000;
  /// Evict connections with no traffic at all for this long. 0 (default)
  /// lets idle-but-healthy clients stay connected indefinitely.
  int idle_timeout_ms = 0;
  /// Write-stall eviction bound: a peer with buffered responses whose
  /// socket accepts no bytes for this long is evicted (counted in
  /// ecl_svc_evicted_backpressure_total). 0 disables.
  int send_timeout_ms = 10000;
  /// Event-loop (I/O) threads multiplexing the connections.
  int io_threads = 2;
  /// Stop reading more requests from a connection while more than this
  /// many unsent response bytes are buffered for it (resume at half).
  std::size_t write_buffer_pause = 1u << 20;
  /// Evict a connection whose buffered responses would exceed this.
  std::size_t write_buffer_limit = 64u << 20;
  /// Test hook: shrink SO_SNDBUF on accepted sockets (0 = OS default) so
  /// write-buffer backpressure triggers with small payloads.
  int sndbuf_bytes = 0;
  /// Slow-request sink (owned by the caller, must outlive the server). Every
  /// served request is offered with its per-phase latency breakdown; the log
  /// applies its own threshold. Null disables.
  obs::RequestLog* slow_log = nullptr;
  /// kPromote handler. The daemon sets this to a hook that stops its
  /// Replicator *before* calling ConnectivityService::promote() (the
  /// service assumes no replicated record is logged once promoted).
  /// Unset, kPromote calls service.promote() directly — fine for in-process
  /// tests that own no Replicator. Runs inline on an I/O thread; promotion
  /// is rare and bounded (one tail truncate + WAL open), so briefly
  /// occupying one loop is acceptable.
  std::function<bool()> promote;
};

class Server {
 public:
  /// The service must outlive the server. The server does not stop() the
  /// service; the owner decides when to drain it (tools/ecl_ccd does so
  /// after wait() returns).
  Server(ConnectivityService& service, ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the I/O loops. False (with the reason in
  /// *err) if the endpoint could not be created.
  [[nodiscard]] bool start(std::string* err = nullptr);

  /// Bound TCP port (meaningful after start() on a TCP endpoint).
  [[nodiscard]] int port() const { return bound_port_; }

  /// Begins shutdown. Async-signal-safe: only an atomic store and one
  /// eventfd write(2) per I/O loop.
  void request_shutdown();

  /// Blocks until every I/O loop has exited (all connections closed).
  void wait();

  /// request_shutdown() + wait() + join. Idempotent.
  void stop();

  /// Number of requests served so far (all connections).
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// The server's own rows only: requests_served and the connection fields
  /// (open_connections .. accept_shed_fds); every service row is zero.
  [[nodiscard]] ServiceStats conn_stats() const;

  /// The full sample: ConnectivityService::stats() plus conn_stats()' rows.
  /// kStats answers with it and ecl_ccd's /metrics collector renders it.
  [[nodiscard]] ServiceStats stats() const;

 private:
  void on_accept_ready();
  void rearm_accept();
  void adopt_connection(exec::EventLoop& loop, int fd);
  void on_frame(exec::Conn& conn, std::span<const std::uint8_t> payload);
  Response dispatch(const Request& req);
  /// Fills the server's rows of `s` (see conn_stats()).
  void add_conn_stats(ServiceStats& s) const;
  /// Post-write bookkeeping for one served request: the per-request trace
  /// event (when the tracer is on) and the slow-request log offer.
  void finish_request(const Request& req, const Response& resp, double start_us,
                      std::uint64_t total_us, std::uint64_t decode_us,
                      std::uint64_t execute_us, std::uint64_t encode_us,
                      std::uint64_t write_us);

  ConnectivityService& service_;
  const ServerOptions opts_;

  int listen_fd_ = -1;
  int bound_port_ = 0;
  int spare_fd_ = -1;  // sacrificial fd slot for shedding under EMFILE
  std::unique_ptr<exec::EventLoopPool> pool_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> started_{false};
  bool stopped_ = false;

  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> accept_shed_{0};
};

}  // namespace ecl::svc
