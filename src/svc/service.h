// ConnectivityService — the transport-agnostic core of the batched
// connectivity query service (docs/SERVICE.md).
//
// The design is the static/incremental split that streaming-connectivity
// systems converge on (Hong, Dhulipala & Shun, arXiv:2008.11839), built
// from the two halves this repo already has:
//
//   writer side   Edge batches are admitted through a bounded queue
//                 (explicit shed on overflow — see svc/queue.h) and applied
//                 by a single ingest worker to a private union-find — the
//                 paper's serial hooking phase, no atomics, kept live.
//
//   reader side   Queries are answered against an immutable epoch Snapshot:
//                 the canonical labels of exactly the first `watermark`
//                 applied edges. A compaction thread remaps the previous
//                 snapshot through the roots the worker hooked since, and
//                 atomically swaps it in; readers take one atomic shared_ptr
//                 load and never block writers (double buffering falls out
//                 of shared_ptr lifetime: the old epoch stays alive until its
//                 last reader drops it).
//
// Every read is a snapshot read: epoch-consistent, pure array reads, no
// synchronization with writers. submit() acks before the worker applies a
// batch, so an acked edge is visible once ingest_lag_batches and
// staleness_edges are both 0 (flush() then compact_now() in process).
//
// Everything is observable through ecl::obs: ingest/shed counters, queue
// depth and epoch-staleness gauges, batch-apply and compaction latency
// histograms, and trace spans per batch and per compaction.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/page_array.h"
#include "common/types.h"
#include "dsu/hook.h"
#include "graph/graph.h"
#include "svc/checkpoint.h"
#include "svc/queue.h"
#include "svc/snapshot.h"
#include "svc/wal.h"

namespace ecl::svc {

struct ServiceOptions {
  /// Maximum number of *batches* admitted but not yet applied. A full queue
  /// sheds (Admission::kShed) instead of blocking.
  std::size_t queue_capacity = 64;
  /// The compaction thread sleeps until an applied batch brings at least
  /// this many edges past the published snapshot's watermark (forced
  /// compactions, checkpoints and stop() wake it regardless).
  std::uint64_t compact_min_new_edges = 1;
  /// Write-ahead log base path; empty disables the WAL. When set, the
  /// constructor replays the segment chain (`<path>.000001, ...`,
  /// truncating any torn tail in the final segment), folds the recovered
  /// edges into the live structure and initial snapshot, and appends every
  /// subsequently accepted batch before acking it (docs/ROBUSTNESS.md
  /// "Crash recovery").
  std::string wal_path;
  /// Durability policy for the WAL (ignored when wal_path is empty).
  WalOptions wal;
  /// Rotate WAL segments once the active one reaches this size. 0 keeps a
  /// single segment (rotation still happens at every checkpoint cut).
  std::uint64_t wal_segment_bytes = 64ull << 20;
  /// Checkpoint base path; empty disables checkpoints. When set, the
  /// compaction thread persists the snapshot's label array every
  /// checkpoint_interval_ms and retires WAL segments the checkpoint chain
  /// covers — bounding restart time and disk by the tail instead of
  /// lifetime ingest (docs/ROBUSTNESS.md "Checkpoints").
  std::string checkpoint_path;
  /// Minimum period between automatic checkpoints (0 = only explicit
  /// checkpoint_now() / the final checkpoint on clean stop()).
  int checkpoint_interval_ms = 5000;
  /// Replica mode (docs/REPLICATION.md): recover from the local checkpoint
  /// and WAL exactly like a primary, log the replication stream through the
  /// same WAL (rotating only where the primary's segments end, never on
  /// size), never write checkpoints, and shed submit() until promote().
  bool replica = false;
  /// Primary side: a registered replica unseen for longer than this stops
  /// holding the WAL retention floor (a dead replica must not wedge
  /// segment retirement forever). It re-bootstraps from a checkpoint when
  /// it comes back.
  int replica_hold_ms = 10000;
};

/// The one read semantics (docs/SERVICE.md "Consistency model"): reads are
/// answered from the published snapshot, epoch-consistent and possibly
/// stale. It survives only as the parameter that connected()'s existing
/// callers pass.
enum class ReadMode : std::uint8_t {
  kSnapshot = 0,
};

/// Every service quantity, one row each:
///   X(wire tag, ServiceStats member, Prometheus family, Prometheus type)
/// The ServiceStats struct, the tagged kStats body (svc/protocol.cpp), the
/// /metrics families (render_prometheus) and the `ecl_cc_client stats`
/// listing are all expanded from this table. Tags are wire protocol: never
/// renumber or reuse one, only append. Flags travel as 0/1.
#define ECL_SVC_STATS_FIELDS(X)                                                      \
  X(1, epoch, "ecl_svc_epoch", "gauge")                                              \
  X(2, watermark, "ecl_svc_watermark", "gauge")  /* edges in the snapshot */         \
  X(3, applied_edges, "ecl_svc_applied_edges_total", "counter")  /* to live DSU */   \
  X(4, accepted_batches, "ecl_svc_accepted_batches_total", "counter")                \
  X(5, applied_batches, "ecl_svc_applied_batches_total", "counter")                  \
  X(6, shed_batches, "ecl_svc_shed_batches_total", "counter")                        \
  X(7, queue_depth, "ecl_svc_queue_depth", "gauge")                                  \
  X(8, num_components, "ecl_svc_num_components", "gauge")  /* of the snapshot */     \
  X(9, num_vertices, "ecl_svc_num_vertices", "gauge")                                \
  X(10, checkpoints, "ecl_ckpt_written_total", "counter")  /* by this process */     \
  X(11, last_checkpoint_epoch, "ecl_ckpt_last_epoch", "gauge")  /* written/loaded */ \
  X(12, wal_segments, "ecl_wal_segments", "gauge")  /* retained, active incl. */     \
  X(13, wal_bytes, "ecl_wal_bytes", "gauge")  /* on disk across them */              \
  X(14, degraded, "ecl_svc_degraded", "gauge")  /* read-only mode */                 \
  X(15, uptime_ms, "ecl_svc_uptime_ms", "gauge")                                     \
  X(16, replayed_edges, "ecl_wal_replayed_edges", "gauge")  /* at startup */         \
  X(17, requests_served, "ecl_svc_requests_served_total", "counter")                 \
  X(18, open_connections, "ecl_svc_open_connections", "gauge")                       \
  X(19, epoll_wakeups, "ecl_svc_epoll_wakeups_total", "counter")  /* all loops */    \
  X(20, write_buf_hwm_bytes, "ecl_svc_write_buf_hwm_bytes", "gauge")                 \
  X(21, evicted_idle, "ecl_svc_evicted_idle_total", "counter")                       \
  X(22, evicted_slow, "ecl_svc_evicted_slow_total", "counter")  /* mid-frame */      \
  X(23, evicted_backpressure, "ecl_svc_evicted_backpressure_total", "counter")       \
  X(24, accept_shed_fds, "ecl_svc_accept_shed_fds_total", "counter")  /* EMFILE */   \
  X(25, ingest_worker_alive, "ecl_svc_ingest_worker_alive", "gauge")                 \
  X(26, wal_enabled, "ecl_wal_enabled", "gauge")                                     \
  X(27, wal_healthy, "ecl_wal_healthy", "gauge")  /* 0 after a WAL I/O failure */    \
  X(28, staleness_edges, "ecl_svc_staleness_edges", "gauge")  /* not in snapshot */  \
  X(29, ingest_lag_batches, "ecl_svc_ingest_lag_batches", "gauge")  /* unapplied */  \
  X(30, wal_records, "ecl_wal_records_total", "counter")  /* this process */         \
  X(31, degraded_entries, "ecl_svc_degraded_entries_total", "counter")               \
  X(32, checkpoint_enabled, "ecl_ckpt_enabled", "gauge")                             \
  X(33, last_checkpoint_age_ms, "ecl_ckpt_age_ms", "gauge")  /* 0 if none */         \
  X(34, replica, "ecl_svc_role", "gauge")  /* 0 primary, 1 replica */                \
  X(35, replica_lag_seq, "ecl_svc_replica_lag_seq", "gauge")  /* segments */         \
  X(36, replica_lag_ms, "ecl_svc_replica_lag_ms", "gauge")  /* since caught up */    \
  X(37, replicas_connected, "ecl_svc_replicas_connected", "gauge")  /* primary */

/// One sample of every service quantity (ECL_SVC_STATS_FIELDS). The service
/// fills everything except requests_served and the connection fields
/// (open_connections .. accept_shed_fds), which Server::stats() adds.
struct ServiceStats {
#define ECL_SVC_STATS_MEMBER(tag, member, family, type) std::uint64_t member = 0;
  ECL_SVC_STATS_FIELDS(ECL_SVC_STATS_MEMBER)
#undef ECL_SVC_STATS_MEMBER
};

/// Appends one Prometheus family per table row ("# TYPE" line + value),
/// preceded by the constant `ecl_svc_up 1`.
void render_prometheus(const ServiceStats& s, std::string& out);

class ConnectivityService {
 public:
  using EdgeBatch = std::vector<Edge>;

  /// A universe of n vertices, all singletons (or the recovered state); the
  /// first snapshot is published (synchronously) before the constructor
  /// returns.
  explicit ConnectivityService(vertex_t n, ServiceOptions opts = {});

  /// Seeds the service with an existing graph: the seed's edges count as
  /// applied (watermark > 0) and epoch 0 reflects its components, which
  /// ecl_cc_omp finds. A valid checkpoint whose watermark covers the seed's
  /// edges supersedes it, and the seed is then not solved at all.
  explicit ConnectivityService(const Graph& seed, ServiceOptions opts = {});

  /// Drains and stops (see stop()).
  ~ConnectivityService();

  ConnectivityService(const ConnectivityService&) = delete;
  ConnectivityService& operator=(const ConnectivityService&) = delete;

  // --- writer side ---------------------------------------------------------

  /// Admits a batch of undirected edges. kAccepted means the batch *will*
  /// be applied (even if stop() is called right after) and — when a WAL is
  /// configured — has been durably logged per the fsync policy; kShed means
  /// the queue was full (or the service is degraded) and the caller should
  /// retry later; kClosed means the service is draining. Edges with
  /// endpoints >= num_vertices() are dropped before the batch is logged
  /// (counted in ecl.svc.ingest.invalid_edges).
  [[nodiscard]] Admission submit(EdgeBatch batch);

  /// Blocks until every batch accepted so far has been applied to the live
  /// structure (not necessarily compacted into a snapshot). Returns early
  /// (possibly with batches unapplied) if the ingest worker has died.
  void flush();

  /// flush(), then forces a compaction whose watermark covers every edge
  /// applied at call time, and waits for it. Returns the new epoch, or the
  /// current one if the compaction thread has died.
  std::uint64_t compact_now();

  /// Cuts the WAL on the calling thread and waits until the compaction
  /// thread has written the snapshot at that cut (or a newer one). Returns
  /// true if such a checkpoint was durably written; false when checkpoints
  /// are disabled, on a replica, when the service stopped, a worker died, or
  /// the write failed (counted in ecl.svc.ckpt.write_errors).
  [[nodiscard]] bool checkpoint_now();

  /// Graceful drain-and-shutdown: refuses new batches, applies everything
  /// already admitted, runs a final compaction (so the last snapshot
  /// reflects all accepted edges), and joins both background threads.
  /// Idempotent; called by the destructor.
  void stop();

  // --- reader side ---------------------------------------------------------

  /// True if u and v are connected in the published snapshot. Out-of-range
  /// vertices return false.
  [[nodiscard]] bool connected(vertex_t u, vertex_t v, ReadMode = ReadMode::kSnapshot);

  /// The snapshot's canonical (minimum-ID) label of v's component;
  /// kInvalidVertex if v is out of range.
  [[nodiscard]] vertex_t component_of(vertex_t v);

  /// Component count of the published snapshot.
  [[nodiscard]] vertex_t component_count() const;

  /// The current snapshot (never null after construction). Holding the
  /// returned pointer pins that epoch; queries against it are wait-free.
  [[nodiscard]] SnapshotPtr snapshot() const;

  [[nodiscard]] vertex_t num_vertices() const { return num_vertices_; }

  /// The one service sampler: every table row except the server's fields.
  /// All reads are lock-free except the queue depth's.
  [[nodiscard]] ServiceStats stats() const;

  /// Exists only for a benchmark call site that is kept unchanged
  /// (benchmark/driver/service_bench.cpp); use stats().
  [[nodiscard]] ServiceStats health() const { return stats(); }

  /// Current ingest-queue depth (admitted, not yet applied batches). Cheap
  /// enough for per-request logging, unlike a full stats() sample.
  [[nodiscard]] std::uint64_t queue_depth() const { return queue_.size(); }

  // --- robustness ----------------------------------------------------------

  /// True once the service has dropped to read-only degraded mode (the
  /// ingest or compaction thread died, or the WAL hit an I/O error).
  /// Queries keep serving from the last published epoch; submit() sheds.
  /// There is no way back up short of a restart.
  [[nodiscard]] bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Edges recovered from the WAL by this constructor (0 without a WAL).
  [[nodiscard]] std::uint64_t replayed_edges() const { return replayed_edges_; }

  // --- replication (docs/REPLICATION.md) -----------------------------------

  /// True while serving as a read-only replica (submit() sheds; the server
  /// maps writes to Status::kNotPrimary before even calling submit()).
  [[nodiscard]] bool is_replica() const {
    return replica_.load(std::memory_order_acquire);
  }

  /// Replica -> primary failover: reopens the WAL with size rotation (the
  /// replica's log holds whole records only, so it takes appends as it is)
  /// and starts accepting submit(). Checkpointing (and with it local segment
  /// retirement) resumes on the next compaction cycle. The caller must stop
  /// the Replicator first, so no replicated record is logged after this.
  /// Idempotent: true immediately on an already-primary service.
  [[nodiscard]] bool promote(std::string* err = nullptr);

  /// Replica side: logs one primary WAL record through this service's WAL
  /// under wal_mu_ (re-encoded, so byte for byte the primary's), then
  /// applies its edges through the ingest worker's apply path, so
  /// compaction, staleness, and health arithmetic hold unchanged. False,
  /// applying nothing, when the append fails: the service degrades until
  /// restart, as a primary does.
  bool apply_replicated(EdgeBatch batch);

  /// Replica side: the Replicator has consumed a sealed primary segment;
  /// seals the local one too and opens the next, so segment numbers and
  /// contents stay the primary's. A failed rotation degrades the service.
  void seal_replicated_segment();

  /// Replica side: lag sample pushed by the Replicator after each fetch
  /// round (surfaced through stats() and the Prometheus exporter).
  void set_replication_lag(std::uint64_t lag_seq, std::uint64_t lag_ms);

  /// Replica side: rebases onto a newer checkpoint fetched from the primary
  /// after falling behind retention. Unites every vertex with its label in
  /// the live structure (monotone-safe: connectivity only grows — and the
  /// compaction remaps the previous snapshot through the hooks this logs,
  /// so the array cannot simply be replaced) and raises applied edges to
  /// at least the checkpoint's watermark; the compaction publishes any
  /// change at once, even when the watermark did not rise. Runs on the
  /// Replicator's thread, the replica's one hooker. False, changing
  /// nothing, when not a replica, on a vertex-count mismatch, or for a
  /// checkpoint older than the last one written, loaded or rebased onto.
  [[nodiscard]] bool rebase_to_checkpoint(const CheckpointData& data);

  /// Replica side of a rebootstrap: installs a fetched checkpoint image
  /// (CkptImage::image) into this service's own checkpoint chain, then
  /// rebase_to_checkpoint()s onto it and resets the WAL to one empty
  /// segment, the checkpoint's wal_seq + 1, where the stream resumes. The
  /// image is renamed into the chain only once it validates and
  /// rebase_to_checkpoint() would accept it. False, with *err set,
  /// otherwise; nothing changes then. A failed WAL reset degrades.
  [[nodiscard]] bool rebase_to_image(std::span<const std::uint8_t> image,
                                     std::string* err = nullptr);

  /// wal_seq covered by the checkpoint this service recovered from or
  /// rebased onto (0 when none); a rebootstrap resumes streaming at the
  /// next segment.
  [[nodiscard]] std::uint64_t checkpoint_covered_wal_seq();

  /// Where the local log ends: the active WAL segment's seq and byte size,
  /// read under wal_mu_ ({0, 0} without a WAL). Records are logged whole,
  /// so the size is a record boundary; the Replicator resumes there.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> wal_end();

  /// Primary serving side of kFetchCkpt: CheckpointStore::read_newest_image
  /// on this service's chain. has == false when checkpoints are disabled,
  /// none exists yet, or every file failed validation (a rebootstrapping
  /// replica retries on its next tick).
  [[nodiscard]] CkptImage fetch_checkpoint_image() const;

  /// Primary serving side of kFetchWal: registers/refreshes the replica in
  /// the retention registry, then reads up to max_bytes of the segment with
  /// read_wal_segment against the writer's active seq. replica_id 0 reads
  /// without registering.
  [[nodiscard]] WalChunk fetch_wal_chunk(std::uint64_t replica_id, std::uint64_t seq,
                                         std::uint64_t offset, std::uint32_t max_bytes);

 private:
  void ingest_loop();
  void compact_loop();
  /// Runs a loop on its thread; an exception clears `alive` and degrades (`death`).
  void run_loop(void (ConnectivityService::*loop)(), std::atomic<bool>& alive,
                const char* death);
  /// The one apply path, shared by the ingest worker and apply_replicated():
  /// drops out-of-range edges, hooks the rest into live_, then hands their
  /// hooks over with applied_edges_ and counts the batch as applied.
  void apply_batch(EdgeBatch& batch);
  /// Moves batch_hooks_ to pending_hooks_. Caller holds progress_mu_ (or is
  /// the constructor) and advances applied_edges_ in the same section.
  void hand_over_hooks();
  /// A checkpoint cut: WAL segments <= seq hold exactly `edges` edges. Once
  /// applied_edges_ is there, `hooks` pending_hooks_ entries precede it.
  struct Cut {
    std::uint64_t ticket = 0;  // cuts taken so far, this one included
    std::uint64_t seq = 0;
    std::uint64_t edges = 0;
    std::optional<std::size_t> hooks;
  };
  /// Seals the active WAL segment at the logged edge count and hands that
  /// cut to the compaction, replacing a pending one. Returns its ticket.
  std::uint64_t cut_wal();
  /// A reached cut, a forced target or enough new edges; progress_mu_ held.
  [[nodiscard]] bool compaction_due() const;
  /// A primary with a checkpoint path has applied edges past its last
  /// checkpoint (or has none): what a checkpoint on exit needs.
  [[nodiscard]] bool checkpoint_progressed() const;
  /// Compaction thread: when the next interval checkpoint comes due, or
  /// none if none can (an interval, progress, no pending cut). It is one
  /// interval after the later of the last checkpoint and `cut_ms`, this
  /// thread's last interval cut, so a failed write is retried an interval on.
  [[nodiscard]] std::optional<std::uint64_t> checkpoint_deadline(bool cut_pending,
                                                                 std::uint64_t cut_ms) const;
  /// Publishes the next epoch: takes the pending hooks and the applied edge
  /// count (the watermark) in one critical section and remaps the previous
  /// snapshot's labels through those hooks, exactly `watermark` edges. It
  /// stops at a reached cut and returns it, its epoch published.
  std::optional<Cut> run_compaction();
  /// What recovery knows before the live union-find exists: the opened
  /// checkpoint chain and, when usable, its newest valid checkpoint.
  struct Recovered {
    vertex_t n = 0;
    const Graph* seed = nullptr;
    std::uint64_t seed_edges = 0;  // the seed's edges, applied before any WAL
    CheckpointStore store;
    std::optional<CheckpointData> ckpt;
  };
  /// Ctor-only: opens the checkpoint chain and loads its newest valid
  /// checkpoint, unless it predates the seed graph. Throws
  /// std::runtime_error on a vertex-count mismatch.
  [[nodiscard]] static Recovered recover_checkpoint(vertex_t n, const Graph* seed,
                                                    const ServiceOptions& opts);
  /// Both public constructors: live_ starts from a copy-on-write mapping of
  /// the checkpoint's labels (no copy, no unions, no ECL-CC run), else from
  /// ecl_cc_omp's labels of the seed graph, else as singletons.
  ConnectivityService(Recovered rec, ServiceOptions opts);
  /// Ctor-only recovery: publish the checkpoint's read-only mapping (moved,
  /// not copied) as the initial snapshot, then replay only the WAL tail
  /// segments past it, remapping the snapshot through the tail's hooks, and
  /// open the WAL for appending. Without a checkpoint the live union-find,
  /// after the seed graph and the whole WAL, is flattened in place and
  /// copied once into the first snapshot. Throws std::runtime_error on an
  /// unusable WAL state.
  void init_durability(std::optional<CheckpointData> ckpt);
  /// Ctor (no thread running yet) and promote() (under wal_mu_): counts
  /// every applied edge as logged and, with a WAL path, opens the WAL for
  /// appends after the checkpoint's segment `covered_seq`, rotating at
  /// `segment_bytes` (0: only when asked). False, with `err` set, if the
  /// WAL cannot be opened.
  [[nodiscard]] bool open_wal_for_appends(std::uint64_t covered_seq,
                                          std::uint64_t segment_bytes, std::string* err);
  /// Under wal_mu_: appends `batch` and publishes the log's size; a failed
  /// append degrades the service. True without a WAL, and for an empty
  /// batch (as submitted, or emptied by drop_out_of_universe), which writes
  /// no record and so is not counted in wal_records.
  [[nodiscard]] bool log_batch(const EdgeBatch& batch);
  /// Under wal_mu_: seals the active segment, if the WAL is open, and
  /// publishes the log's size; a failed rotation degrades the service.
  void rotate_wal();
  /// Compaction thread: persists the snapshot published at `cut`, retires
  /// covered WAL segments and settles the cut for checkpoint_now().
  void write_checkpoint(const Cut& cut, const Snapshot& snap);
  /// Milliseconds since service construction (steady clock).
  [[nodiscard]] std::uint64_t now_ms() const;
  /// One-way transition into read-only mode; logs and counts the entry.
  void enter_degraded(const char* reason);

  const vertex_t num_vertices_;
  const ServiceOptions opts_;

  // The live union-find's parent array (parent[v] <= v). One thread at a
  // time touches it, and logs its hooks in batch_hooks_: the constructor's
  // WAL replay, then the ingest worker on a primary, or the Replicator's
  // thread (apply_replicated, rebase_to_checkpoint) on a replica, whose
  // queue stays empty (promote() follows Replicator::stop()). No read
  // touches it, so its finds and hooks are the paper's serial port.
  PageArray live_;
  BoundedQueue<EdgeBatch> queue_;
  HookLog batch_hooks_;
  // rebase_to_checkpoint()'s precondition: a replica, the same vertex
  // count, and no older than the last checkpoint loaded or rebased onto.
  [[nodiscard]] bool may_rebase_to(const CheckpointData& data) const;
  // wal_seq of the newest checkpoint loaded, written or rebased onto.
  std::atomic<std::uint64_t> ckpt_covered_seq_{0};

  std::atomic<SnapshotPtr> snapshot_;

  // Progress accounting, guarded by progress_mu_ for the cv waits; the
  // atomics are also read lock-free by stats().
  std::mutex progress_mu_;
  std::condition_variable progress_cv_;   // applied_batches_ advanced
  std::condition_variable compact_cv_;    // compaction wanted / published
  std::atomic<std::uint64_t> accepted_batches_{0};
  std::atomic<std::uint64_t> applied_batches_{0};
  std::atomic<std::uint64_t> shed_batches_{0};
  std::atomic<std::uint64_t> applied_edges_{0};  // advanced after the hooks
  // The hooks from the last snapshot taken to applied_edges_, in order, and
  // the components left after them (one fewer per hook).
  std::vector<Hook> pending_hooks_;
  vertex_t live_components_ = 0;
  // What a forced compaction (compact_now(), a rebase) must reach.
  std::uint64_t force_watermark_ = 0;
  vertex_t force_components_ = kInvalidVertex;
  // The pending cut, the cuts taken so far, and the newest tickets settled
  // (written, or dropped by a failed write) and written.
  std::optional<Cut> cut_;
  std::uint64_t cuts_ = 0;
  std::uint64_t cuts_settled_ = 0;
  std::uint64_t cuts_written_ = 0;
  bool stopping_ = false;

  std::mutex stop_mu_;  // serializes stop(): only one caller runs the drain
  std::atomic<bool> stopped_{false};

  // Robustness state. wal_mu_ serializes appends from concurrent submit()
  // callers or the Replicator's thread (and the checkpoint cut's
  // rotation/retirement against them); the flags are read lock-free by
  // stats() and submit().
  std::mutex wal_mu_;
  SegmentedWal wal_;
  std::uint64_t logged_edges_ = 0;  // a cut's count: applied at open + accepted since
  std::uint64_t replayed_edges_ = 0;
  std::atomic<std::uint64_t> wal_records_{0};
  std::atomic<bool> wal_healthy_{true};
  std::atomic<bool> degraded_{false};
  std::atomic<bool> ingest_alive_{true};
  std::atomic<bool> compact_alive_{true};
  std::atomic<std::uint64_t> degraded_entries_{0};

  // Checkpoint state. The store is used by the ctor, then by the compaction
  // thread while primary and by the Replicator's thread (rebase_to_image)
  // while replica — never both, since promote() follows Replicator::stop().
  // The atomics are read lock-free by stats().
  CheckpointStore ckpt_store_;
  std::chrono::steady_clock::time_point start_tp_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> ckpt_written_{0};
  std::atomic<std::uint64_t> last_ckpt_epoch_{0};
  std::atomic<std::uint64_t> last_ckpt_watermark_{0};
  std::atomic<std::uint64_t> last_ckpt_ms_{0};    // now_ms() of write/load
  std::atomic<bool> has_ckpt_{false};             // written or loaded one
  std::atomic<std::uint64_t> wal_segments_{0};
  std::atomic<std::uint64_t> wal_bytes_{0};

  // Replication state. replica_ flips exactly once (promote, serialized by
  // promote_mu_); the registry is primary-side bookkeeping mapping each
  // replica id to the segment it is currently fetching, so retention never
  // retires a segment a live replica still needs.
  std::atomic<bool> replica_{false};
  std::mutex promote_mu_;
  std::atomic<std::uint64_t> repl_lag_seq_{0};
  std::atomic<std::uint64_t> repl_lag_ms_{0};
  std::atomic<std::uint64_t> replicas_connected_{0};
  struct ReplicaPeer {
    std::uint64_t fetch_seq = 0;     // segment it last asked for
    std::uint64_t last_seen_ms = 0;  // now_ms() of that request
  };
  std::mutex replicas_mu_;
  std::unordered_map<std::uint64_t, ReplicaPeer> replicas_;
  /// Prunes peers unseen for replica_hold_ms and returns the highest seq
  /// retirable without cutting a live replica off (~0 when none are live).
  [[nodiscard]] std::uint64_t replica_fetch_floor();
  /// Drops peers unseen for replica_hold_ms and republishes the connected
  /// count. Caller holds replicas_mu_.
  void prune_replicas();

  // The two background loops, started by the ctor and joined by stop().
  std::thread ingest_thread_;
  std::thread compact_thread_;
};

}  // namespace ecl::svc
