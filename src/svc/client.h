// Blocking client for the ecl::svc protocol, used by tools/ecl_cc_client,
// tools/ecl_cc_top, bench/svc_loadgen, the replica's Replicator
// (svc/replica.h) and the service benchmark (benchmark/). One request in
// flight per client; not thread-safe
// (load generators open one client per worker thread, which also gives the
// kernel one socket per connection to spread accept/wakeup costs).
//
// Robustness (docs/ROBUSTNESS.md "Client retry policy"): every operation is
// bounded by a per-attempt deadline (SO_RCVTIMEO/SO_SNDTIMEO at
// op_timeout_ms) and, unless retries are disabled, survives transient
// failure transparently:
//
//   kShed             retried after exponential backoff with jitter — the
//                     server is telling us to come back later.
//   transport error   the connection is torn down and re-established, then
//                     the request is retried. Safe for every op in this
//                     protocol: queries are read-only and edge re-insertion
//                     into the union-find is idempotent.
//   kInvalid/kClosed  terminal; returned to the caller immediately.
//
// Backoff for attempt k sleeps min(backoff_max_ms, backoff_base_ms << k),
// scaled by a uniform jitter factor in [0.5, 1.0) drawn from a seeded
// xoshiro256** stream (deterministic under test). Retries, backoff sleep
// time, and reconnects are counted in ecl::obs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "svc/net.h"
#include "svc/protocol.h"

namespace ecl::svc {

struct ClientOptions {
  /// Bound on establishing (or re-establishing) the connection.
  int connect_timeout_ms = net::kDefaultConnectTimeoutMs;
  /// Per-attempt socket deadline for each send/recv of an operation.
  int op_timeout_ms = 10000;
  /// Extra attempts after the first (0 disables retries entirely).
  int max_retries = 4;
  int backoff_base_ms = 10;
  int backoff_max_ms = 1000;
  /// Seed for the jitter stream; fixed default keeps tests deterministic,
  /// long-lived callers should scramble it (e.g. with their worker index).
  std::uint64_t backoff_seed = 1;
};

class Client {
 public:
  /// Connects over TCP (numeric IPv4 host). Null on failure, reason in *err.
  [[nodiscard]] static std::unique_ptr<Client> connect_tcp(const std::string& host,
                                                           int port,
                                                           std::string* err = nullptr,
                                                           ClientOptions opts = {});

  /// Connects to a Unix-domain socket. Null on failure, reason in *err.
  [[nodiscard]] static std::unique_ptr<Client> connect_unix(const std::string& path,
                                                            std::string* err = nullptr,
                                                            ClientOptions opts = {});

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Round-trips an empty request. False on transport failure.
  [[nodiscard]] bool ping();

  /// Submits an edge batch; the returned status is the server's admission
  /// verdict (kOk / kShed / kClosed), or kError on transport failure.
  /// kShed and transport errors are retried per ClientOptions before being
  /// reported. Batches larger than kMaxIngestEdges (one frame's worth) come
  /// back as kInvalid without touching the socket — split them first.
  [[nodiscard]] Status ingest(const std::vector<Edge>& edges);

  /// Snapshot connectivity query. Transport/protocol failures surface as
  /// kError in *status (when provided) with a false result.
  [[nodiscard]] bool connected(vertex_t u, vertex_t v, ReadMode = ReadMode::kSnapshot,
                               Status* status = nullptr);

  /// Canonical (minimum-ID) snapshot label of v's component. kInvalidVertex
  /// on invalid v or failure.
  [[nodiscard]] vertex_t component_of(vertex_t v, Status* status = nullptr);

  /// Snapshot component count. False on failure.
  [[nodiscard]] bool component_count(std::uint64_t& count);

  /// Full service stats sample: every ECL_SVC_STATS_FIELDS row the
  /// server sent. False on failure.
  [[nodiscard]] bool stats(ServiceStats& out);

  /// Asks the daemon to shut down gracefully. True if acknowledged. Never
  /// retried: re-sending shutdown to a dying server is noise.
  [[nodiscard]] bool shutdown_server();

  // --- replication (docs/REPLICATION.md) -----------------------------------

  /// Fetches the primary's newest checkpoint image (kFetchCkpt). True on a
  /// kOk round trip — check out.has for whether a checkpoint existed.
  [[nodiscard]] bool fetch_ckpt(CkptImage& out, Status* status = nullptr);

  /// Fetches up to max_bytes of WAL segment `seq` starting at `offset`
  /// (kFetchWal). replica_id != 0 registers the caller in the primary's
  /// retention registry. Read-only and idempotent, so retries are safe.
  [[nodiscard]] bool fetch_wal(std::uint64_t replica_id, std::uint64_t seq,
                               std::uint64_t offset, std::uint32_t max_bytes,
                               WalChunk& out, Status* status = nullptr);

  /// Promotes a replica to a writable primary (kPromote). True on kOk;
  /// idempotent on the server, so transport retries are safe.
  [[nodiscard]] bool promote(Status* status = nullptr);

  /// Cumulative retry attempts made by this client (for tests/loadgen).
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Cumulative successful reconnects after transport failures.
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }

  /// The request id stamped on the most recent attempt (each retry re-sends
  /// under a fresh id). The server echoes this id in its response and in the
  /// slow-request log, so a caller that just observed a slow op can look the
  /// server-side breakdown up by id (docs/OBSERVABILITY.md "Slow-request
  /// log"). 0 before the first request.
  [[nodiscard]] std::uint64_t last_request_id() const { return next_id_ - 1; }

 private:
  Client(int fd, ClientOptions opts, bool is_unix, std::string host_or_path, int port);

  /// Sends `req` (stamping a fresh id) and reads the matching response.
  [[nodiscard]] bool round_trip(Request& req, Response& resp);

  /// round_trip plus the retry policy described in the header comment.
  /// Returns false only when every attempt failed at the transport layer;
  /// a terminal (or retries-exhausted kShed) status returns true with the
  /// status in `resp`.
  [[nodiscard]] bool call(Request& req, Response& resp);

  /// Tears down and re-establishes the connection. False if the endpoint
  /// refused within connect_timeout_ms.
  [[nodiscard]] bool reconnect();

  void backoff_sleep(int attempt);

  int fd_;
  const ClientOptions opts_;
  const bool is_unix_;
  const std::string host_or_path_;  // reconnect target
  const int port_;
  // Ids count up from a per-client base derived from backoff_seed (see the
  // constructor), so ids from different clients of one daemon rarely collide
  // and the slow-request log stays attributable. The default seed keeps the
  // classic 1, 2, 3, ... sequence for deterministic tests.
  std::uint64_t next_id_ = 1;
  std::uint64_t retries_ = 0;
  std::uint64_t reconnects_ = 0;
  Xoshiro256 jitter_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace ecl::svc
