// ecl::svc::Replicator — the replica side of WAL-shipping replication
// (docs/REPLICATION.md).
//
// Topology: one primary, N read replicas. Each replica runs a full
// ConnectivityService in replica mode (submit() sheds, checkpoints off)
// plus one Replicator, which drives the whole lifecycle. The service is
// built from local state alone, exactly like a primary restarting (empty
// on first start), and the Replicator streams from where its log ends:
//
//   stream      The Replicator's thread fetches bounded chunks of the
//               primary's WAL segments (kFetchWal), decodes whole records
//               out of them with the same WalDecoder replay uses, and hands
//               each to ConnectivityService::apply_replicated, which logs it
//               through the service's own WAL (the one writer of segment
//               files) before applying it. A re-encoded record is the
//               primary's byte for byte, so the local log is the primary's,
//               cut at a record boundary: a restart replays it natively and
//               promotion appends to it as it is. A record partly fetched
//               stays in the decoder. Positions are (segment seq, byte
//               offset); a sealed segment consumed to its end makes the
//               service seal its copy and advances to seq + 1.
//
//   rebootstrap If the primary answers `retired` (a fresh replica of a
//               primary that has retired segment 1, or a replica that fell
//               behind the retention floor — e.g. it was dead past the
//               primary's replica_hold_ms), the Replicator fetches the
//               primary's newest checkpoint (kFetchCkpt) and hands it to
//               the service, which installs it into its own checkpoint
//               chain, unites it into the live state and resets its WAL
//               past it (rebase_to_image); the Replicator resumes
//               streaming past the new checkpoint's covered segment. Union-
//               find only ever joins sets, so this is safe from any state.
//
// Every (re)connect first reads the primary's kStats: a primary with
// another vertex count is refused (logged once, counted as a connect
// error), since streaming it would drop every edge past this universe.
//
// Lag is observable, not bounded by backpressure: after every fetch round
// the Replicator pushes (lag_seq, lag_ms) into the service, which surfaces
// them through kStats (tags 35-36) and the Prometheus exporter. Failover
// loses at most the un-shipped tail — the chaos harness freezes its acked
// set and waits for replica wal_bytes to cover it before killing the
// primary, proving zero loss for everything the barrier covered.
//
// Threading: the Replicator owns one thread, which alone touches the
// streaming state between start() and the join in stop(). It runs a fetch
// tick at once, then one tick per fetch_interval_ms, each interval counted
// from the end of the previous tick (fixed delay: a slow tick never queues
// a burst of catch-up ticks). A degraded service (say, after a failed WAL
// append) stops the fetching until restart. stop() wakes the interval wait
// and joins the thread, after which no more records are logged — the
// precondition for promote().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.h"
#include "svc/service.h"

namespace ecl::svc {

struct ReplicatorOptions {
  /// Primary endpoint: non-empty unix_path wins, else TCP host:port.
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;
  /// Pause between the end of one fetch tick and the start of the next.
  /// Lag in steady state is bounded by roughly one interval plus one
  /// chunk's transfer time.
  int fetch_interval_ms = 150;
  /// Bytes requested per kFetchWal (server clamps to kMaxWalChunkBytes).
  std::uint32_t fetch_max_bytes = 1u << 20;
  /// Identity in the primary's retention registry. 0 derives one from the
  /// pid so two replicas on one host don't alias.
  std::uint64_t replica_id = 0;
};

class Replicator {
 public:
  /// The service must be constructed in replica mode with a WAL and a
  /// checkpoint path, and must outlive this object.
  Replicator(ConnectivityService& service, ReplicatorOptions opts);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Resumes streaming where the service's log ends (wal_end()) and starts
  /// the fetch thread, whose first tick runs at once. False after stop(),
  /// and for a service without a WAL.
  [[nodiscard]] bool start(std::string* err = nullptr);

  /// Wakes the fetch thread out of its interval wait and joins it. After
  /// stop() returns no more records are logged — call this before
  /// promoting the service. Idempotent and *terminal*: start() refuses
  /// afterwards, so resuming the stream means constructing a fresh
  /// Replicator (which resumes where the local WAL ends, exactly like a
  /// process restart).
  void stop();

  /// Counters for tests and the daemon's exit log.
  [[nodiscard]] std::uint64_t fetch_rounds() const {
    return fetch_rounds_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fetch_errors() const {
    return fetch_errors_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rebootstraps() const {
    return rebootstraps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t applied_records() const {
    return applied_records_.load(std::memory_order_relaxed);
  }

 private:
  /// The fetch thread: fetch_tick(), then wait one interval, until stop().
  void run();
  /// One tick: loops fetch_once() until caught up (or no progress).
  void fetch_tick();
  /// One kFetchWal round trip: parse records, log and apply each, advance
  /// the (seq, offset) position. Returns false when the tick should stop
  /// looping (caught up, transport error, degraded, or rebootstrap).
  [[nodiscard]] bool fetch_once();
  /// Ensures the fetch client exists (reconnecting lazily after failures)
  /// and that its primary has this service's vertex count.
  [[nodiscard]] bool ensure_client();
  /// Fell behind retention: fetch a fresh checkpoint, rebase the service
  /// (which resets its WAL), reset the position past the checkpoint.
  [[nodiscard]] bool rebootstrap();
  /// Publishes (lag_seq, lag_ms) into the service.
  void publish_lag(std::uint64_t active_seq, bool caught_up);

  ConnectivityService& service_;
  ReplicatorOptions opts_;  // replica_id may be derived in the constructor

  // Streaming state, owned by the fetch thread while it runs.
  std::unique_ptr<Client> client_;
  std::uint64_t cur_seq_ = 1;     // segment currently being streamed
  std::uint64_t file_bytes_ = 0;  // bytes of it fetched (the next offset)
  /// Decodes the stream of cur_seq_; holds at most one partial record (or
  /// the partial magic) between fetches.
  WalDecoder decoder_;
  std::uint64_t caught_up_at_ms_ = 0;  // mono_ms() of last full catch-up
  bool refused_logged_ = false;        // a primary's size mismatch was logged

  std::atomic<std::uint64_t> fetch_rounds_{0};
  std::atomic<std::uint64_t> fetch_errors_{0};
  std::atomic<std::uint64_t> rebootstraps_{0};
  std::atomic<std::uint64_t> applied_records_{0};

  std::mutex stop_mu_;  // serializes start() and stop()
  std::mutex wake_mu_;  // guards the interval wait on wake_cv_
  std::condition_variable wake_cv_;
  std::atomic<bool> stopping_{false};  // set under wake_mu_
  std::thread thread_;
};

}  // namespace ecl::svc
