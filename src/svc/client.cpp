#include "svc/client.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/sock.h"
#include "obs/metrics.h"

namespace ecl::svc {

Client::Client(int fd, ClientOptions opts, bool is_unix, std::string host_or_path,
               int port)
    : fd_(fd),
      opts_(opts),
      is_unix_(is_unix),
      host_or_path_(std::move(host_or_path)),
      port_(port),
      jitter_(opts.backoff_seed) {
  set_io_timeouts(fd_, opts_.op_timeout_ms, opts_.op_timeout_ms);
  // Seed != default: start the id sequence at a seed-derived 64-bit base
  // (splitmix64 finalizer) so concurrent clients — loadgen workers already
  // scramble their seeds — stamp distinguishable ids into the slow log.
  if (opts_.backoff_seed != ClientOptions{}.backoff_seed) {
    std::uint64_t z = opts_.backoff_seed + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    next_id_ = (z ^ (z >> 31)) | 1;
  }
}

std::unique_ptr<Client> Client::connect_tcp(const std::string& host, int port,
                                            std::string* err, ClientOptions opts) {
  const int fd = net::connect_tcp(host, port, err, opts.connect_timeout_ms);
  if (fd < 0) return nullptr;
  return std::unique_ptr<Client>(new Client(fd, opts, false, host, port));
}

std::unique_ptr<Client> Client::connect_unix(const std::string& path, std::string* err,
                                             ClientOptions opts) {
  const int fd = net::connect_unix(path, err, opts.connect_timeout_ms);
  if (fd < 0) return nullptr;
  return std::unique_ptr<Client>(new Client(fd, opts, true, path, 0));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::reconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const int fd = is_unix_
                     ? net::connect_unix(host_or_path_, nullptr, opts_.connect_timeout_ms)
                     : net::connect_tcp(host_or_path_, port_, nullptr,
                                        opts_.connect_timeout_ms);
  if (fd < 0) return false;
  fd_ = fd;
  set_io_timeouts(fd_, opts_.op_timeout_ms, opts_.op_timeout_ms);
  ++reconnects_;
  ECL_OBS_COUNTER_ADD("ecl.svc.client.reconnects", 1);
  return true;
}

void Client::backoff_sleep(int attempt) {
  const std::uint64_t shift = static_cast<std::uint64_t>(std::min(attempt, 20));
  const std::uint64_t cap = static_cast<std::uint64_t>(std::max(1, opts_.backoff_max_ms));
  const std::uint64_t base =
      std::min(cap, static_cast<std::uint64_t>(std::max(1, opts_.backoff_base_ms)) << shift);
  // Jitter in [0.5, 1.0): desynchronizes retry storms across clients without
  // ever collapsing the wait to zero.
  const double scaled = static_cast<double>(base) * (0.5 + 0.5 * jitter_.uniform());
  const auto sleep_ms = static_cast<std::uint64_t>(scaled);
  ECL_OBS_COUNTER_ADD("ecl.svc.client.backoff_ms", sleep_ms);
  ECL_OBS_HISTOGRAM_RECORD("ecl.svc.client.backoff_ms_hist",
                           ::ecl::obs::Histogram::pow2_bounds(16), sleep_ms);
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

bool Client::round_trip(Request& req, Response& resp) {
  req.id = next_id_++;
  scratch_.clear();
  encode_request(req, scratch_);
  if (!net::write_frame(fd_, scratch_)) return false;
  if (!net::read_frame(fd_, scratch_)) return false;
  if (!decode_response(scratch_, resp)) return false;
  // A response for a different request or op means the stream is skewed.
  return resp.id == req.id && resp.type == req.type;
}

bool Client::call(Request& req, Response& resp) {
  for (int attempt = 0;; ++attempt) {
    const bool transported = fd_ >= 0 && round_trip(req, resp);
    if (transported && resp.status != Status::kShed) return true;
    if (attempt >= opts_.max_retries) {
      // Out of attempts. A shed verdict is still a valid response; report
      // it rather than masking it as a transport error.
      return transported;
    }
    ++retries_;
    ECL_OBS_COUNTER_ADD("ecl.svc.client.retries", 1);
    backoff_sleep(attempt);
    if (!transported) {
      // The stream may be skewed (torn frame) — never reuse it. If the
      // endpoint refuses right now, the next loop iteration's fd_ < 0 check
      // fails fast into the following backoff.
      (void)reconnect();
    }
  }
}

bool Client::ping() {
  Request req;
  req.type = MsgType::kPing;
  Response resp;
  return call(req, resp) && resp.status == Status::kOk;
}

Status Client::ingest(const std::vector<Edge>& edges) {
  // Oversized batches would exceed kMaxFrameBytes; the server answers those
  // by dropping the connection, which the caller would only see as kError.
  // Fail definitively here instead, before touching the socket.
  if (edges.size() > kMaxIngestEdges) return Status::kInvalid;
  Request req;
  req.type = MsgType::kIngest;
  req.edges = edges;
  Response resp;
  if (!call(req, resp)) return Status::kError;
  return resp.status;
}

bool Client::connected(vertex_t u, vertex_t v, ReadMode, Status* status) {
  Request req;
  req.type = MsgType::kConnected;
  req.u = u;
  req.v = v;
  Response resp;
  if (!call(req, resp)) {
    if (status != nullptr) *status = Status::kError;
    return false;
  }
  if (status != nullptr) *status = resp.status;
  return resp.status == Status::kOk && resp.value != 0;
}

vertex_t Client::component_of(vertex_t v, Status* status) {
  Request req;
  req.type = MsgType::kComponentOf;
  req.v = v;
  Response resp;
  if (!call(req, resp)) {
    if (status != nullptr) *status = Status::kError;
    return kInvalidVertex;
  }
  if (status != nullptr) *status = resp.status;
  return resp.status == Status::kOk ? static_cast<vertex_t>(resp.value) : kInvalidVertex;
}

bool Client::component_count(std::uint64_t& count) {
  Request req;
  req.type = MsgType::kComponentCount;
  Response resp;
  if (!call(req, resp) || resp.status != Status::kOk) return false;
  count = resp.value;
  return true;
}

bool Client::stats(ServiceStats& out) {
  Request req;
  req.type = MsgType::kStats;
  Response resp;
  if (!call(req, resp) || resp.status != Status::kOk) return false;
  out = resp.stats;
  return true;
}

bool Client::fetch_ckpt(CkptImage& out, Status* status) {
  Request req;
  req.type = MsgType::kFetchCkpt;
  Response resp;
  if (!call(req, resp)) {
    if (status != nullptr) *status = Status::kError;
    return false;
  }
  if (status != nullptr) *status = resp.status;
  if (resp.status != Status::kOk) return false;
  out = std::move(resp.ckpt);
  return true;
}

bool Client::fetch_wal(std::uint64_t replica_id, std::uint64_t seq,
                       std::uint64_t offset, std::uint32_t max_bytes, WalChunk& out,
                       Status* status) {
  Request req;
  req.type = MsgType::kFetchWal;
  req.replica_id = replica_id;
  req.seq = seq;
  req.offset = offset;
  req.max_bytes = max_bytes;
  Response resp;
  if (!call(req, resp)) {
    if (status != nullptr) *status = Status::kError;
    return false;
  }
  if (status != nullptr) *status = resp.status;
  if (resp.status != Status::kOk) return false;
  out = std::move(resp.wal);
  return true;
}

bool Client::promote(Status* status) {
  Request req;
  req.type = MsgType::kPromote;
  Response resp;
  if (!call(req, resp)) {
    if (status != nullptr) *status = Status::kError;
    return false;
  }
  if (status != nullptr) *status = resp.status;
  return resp.status == Status::kOk;
}

bool Client::shutdown_server() {
  Request req;
  req.type = MsgType::kShutdown;
  Response resp;
  return round_trip(req, resp) && resp.status == Status::kOk;
}

}  // namespace ecl::svc
