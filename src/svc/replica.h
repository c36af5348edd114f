// ecl::svc::Replicator — the replica side of WAL-shipping replication
// (docs/REPLICATION.md).
//
// Topology: one primary, N read replicas. Each replica runs a full
// ConnectivityService in replica mode (submit() sheds, checkpoints off)
// plus one Replicator, which drives the whole lifecycle:
//
//   bootstrap   Before the service is constructed: if the local checkpoint
//               or WAL mirror already holds state, resume from it; else
//               fetch the primary's newest checkpoint image (kFetchCkpt)
//               and install it crash-atomically into the local checkpoint
//               directory. The service ctor then recovers from it exactly
//               like a primary restarting.
//
//   stream      A periodic executor task fetches bounded chunks of the
//               primary's WAL segments (kFetchWal), mirrors the raw bytes
//               into identically-numbered local segment files (so a
//               replica restart — or promotion — replays them natively),
//               parses complete records out of the mirrored stream, and
//               applies each through ConnectivityService::apply_replicated.
//               Positions are (segment seq, byte offset); a sealed segment
//               consumed to its end advances to seq + 1.
//
//   rebootstrap If the primary answers `retired` (this replica fell behind
//               the retention floor — e.g. it was dead past the primary's
//               replica_hold_ms), the Replicator fetches a fresh
//               checkpoint, rebases the live service onto it
//               (rebase_to_checkpoint), wipes the stale mirror, and resumes
//               streaming past the new checkpoint's covered segment.
//
// Lag is observable, not bounded by backpressure: after every fetch round
// the Replicator pushes (lag_seq, lag_ms) into the service, which surfaces
// them through kStats (tags 35-36) and the Prometheus exporter. Failover
// loses at most the un-shipped tail — the chaos harness freezes its acked
// set and waits for replica wal_bytes to cover it before killing the
// primary, proving zero loss for everything the barrier covered.
//
// Threading: all streaming state is owned by the fetch task, which runs on
// the Replicator's own single-worker executor under a try_lock guard (the
// executor's fixed-rate periodic can overlap a slow run; overlapping runs
// skip). stop() cancels the task and drains the executor, after which no
// more bytes land in the mirror — the precondition for promote().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "svc/client.h"
#include "svc/service.h"

namespace ecl::svc {

struct ReplicatorOptions {
  /// Primary endpoint: non-empty unix_path wins, else TCP host:port.
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;
  /// Local WAL mirror base and checkpoint base. Both required — they are
  /// the replica's durable identity across restarts and after promotion.
  std::string wal_path;
  std::string checkpoint_path;
  /// Fetch cadence. Lag in steady state is bounded by roughly one interval
  /// plus one chunk's transfer time.
  int fetch_interval_ms = 150;
  /// Bytes requested per kFetchWal (server clamps to kMaxWalChunkBytes).
  std::uint32_t fetch_max_bytes = 1u << 20;
  /// Identity in the primary's retention registry. 0 derives one from the
  /// pid so two replicas on one host don't alias.
  std::uint64_t replica_id = 0;
  /// Transport policy for the fetch client. Retries stay modest: the
  /// periodic task itself is the outer retry loop.
  ClientOptions client;
};

class Replicator {
 public:
  /// One-time, *pre-service* bootstrap: ensures the local checkpoint/WAL
  /// state is good enough to construct the replica's ConnectivityService.
  /// Resumes from existing local state when present; otherwise fetches the
  /// primary's newest checkpoint image and installs it crash-atomically
  /// (tmp -> fsync -> rename -> dir-fsync). A primary with no checkpoint is
  /// fine — the replica streams the WAL from segment 1. False only when
  /// the primary is unreachable (or serves an unusable image) *and* there
  /// is no local state to fall back on.
  [[nodiscard]] static bool bootstrap(const ReplicatorOptions& opts, std::string* err);

  /// The service must be constructed in replica mode over the same
  /// wal_path/checkpoint_path that bootstrap() prepared, and must outlive
  /// this object.
  Replicator(ConnectivityService& service, ReplicatorOptions opts);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Resumes the stream position from local disk and starts the periodic
  /// fetch task. False if the executor refused the task.
  [[nodiscard]] bool start(std::string* err = nullptr);

  /// Cancels the fetch task and drains the executor. After stop() returns
  /// no more bytes land in the WAL mirror — call this before promoting the
  /// service. Idempotent and *terminal*: the drained executor refuses new
  /// tasks, so resuming the stream means constructing a fresh Replicator
  /// (which resumes from the on-disk mirror, exactly like a process
  /// restart).
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
  /// One periodic firing: loops fetch_once() until caught up (or no
  /// progress), then publishes lag. Guarded by try_lock against overlap.
  void fetch_tick();
  /// One kFetchWal round trip: mirror bytes, parse records, apply edges,
  /// advance the (seq, offset) position. Returns false when the tick
  /// should stop looping (caught up, transport error, or rebootstrap).
  [[nodiscard]] bool fetch_once();
  /// Ensures the fetch client exists (reconnecting lazily after failures).
  [[nodiscard]] bool ensure_client();
  /// Parses complete records out of parse_buf_ and applies them. False on
  /// a framing/CRC mismatch (the mirror is diverged: rebootstrap).
  [[nodiscard]] bool drain_parse_buf();
  /// Fell behind retention: fetch a fresh checkpoint, rebase the service,
  /// wipe the mirror, reset the position past the checkpoint.
  [[nodiscard]] bool rebootstrap();
  /// Closes and fsyncs the current mirror segment fd, if open.
  void close_segment(bool fsync_it);
  /// Recomputes local mirror geometry and pushes it into the service.
  void publish_wal_stats();
  /// Publishes (lag_seq, lag_ms) into the service.
  void publish_lag(std::uint64_t active_seq, bool caught_up);

  ConnectivityService& service_;
  ReplicatorOptions opts_;  // replica_id may be derived in the constructor

  std::mutex tick_mu_;  // overlap guard; all state below is tick-owned
  std::unique_ptr<Client> client_;
  std::uint64_t cur_seq_ = 1;     // segment currently being mirrored
  std::uint64_t file_bytes_ = 0;  // bytes of it already on local disk
  int seg_fd_ = -1;               // local mirror fd (append-only)
  /// Unparsed tail of the mirrored stream (bytes past the last complete
  /// record — at most one partial record plus maybe the 8-byte magic).
  std::vector<std::uint8_t> parse_buf_;
  bool magic_checked_ = false;  // consumed cur_seq_'s 8-byte header yet?
  std::uint64_t caught_up_at_ms_ = 0;  // mono_ms() of last full catch-up

  std::atomic<std::uint64_t> fetch_rounds_{0};
  std::atomic<std::uint64_t> fetch_errors_{0};
  std::atomic<std::uint64_t> rebootstraps_{0};
  std::atomic<std::uint64_t> applied_records_{0};

  std::uint64_t task_id_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::mutex stop_mu_;

  exec::Executor exec_{exec::ExecutorOptions{.num_workers = 1}};
};

}  // namespace ecl::svc
