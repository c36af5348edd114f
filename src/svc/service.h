// ConnectivityService — the transport-agnostic core of the batched
// connectivity query service (docs/SERVICE.md).
//
// The design is the static/incremental split that streaming-connectivity
// systems converge on (Hong, Dhulipala & Shun, arXiv:2008.11839), built
// from the two halves this repo already has:
//
//   writer side   Edge batches are admitted through a bounded queue
//                 (explicit shed on overflow — see svc/queue.h) and applied
//                 by a single ingest worker to the lock-free IncrementalCC
//                 union-find — the paper's hooking phase, kept live.
//
//   reader side   Queries are answered against an immutable epoch Snapshot:
//                 a canonical label array produced by the paper's
//                 finalization phase (Fini) on a copy of that union-find.
//                 A background compaction thread takes the copy between
//                 batches and atomically swaps the snapshot; readers take
//                 one atomic shared_ptr load and never block writers
//                 (double buffering falls out of shared_ptr lifetime: the
//                 old epoch stays alive until its last reader drops it).
//
// Two read modes are exposed: kSnapshot (stale but epoch-consistent, pure
// array reads, no synchronization with writers) and kFresh (reads the live
// union-find — sees edges the moment the worker applies them, at the cost
// of pointer chasing against concurrent hooks).
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
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/incremental.h"
#include "exec/executor.h"
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
  /// Longest wait before new edges are compacted into a snapshot. Applied
  /// batches wake the compaction sooner once four times the previous
  /// compaction's duration has passed since it ended (compact_now(),
  /// checkpoints and stop() compact at once).
  int compact_interval_ms = 20;
  /// Skip a compaction cycle unless at least this many edges arrived since
  /// the published snapshot's watermark (forced compactions ignore it).
  std::uint64_t compact_min_new_edges = 1;
  /// Test hook: artificial delay (microseconds) per applied batch, to make
  /// backpressure reproducible in unit tests. 0 in production.
  int ingest_delay_us = 0;
  /// Write-ahead log base path; empty disables the WAL. When set, the
  /// constructor replays the segment chain (`<path>.000001, ...`,
  /// truncating any torn tail in the final segment), folds the recovered
  /// edges into the live structure and initial snapshot, and appends every
  /// subsequently accepted batch before acking it (docs/ROBUSTNESS.md
  /// "Crash recovery"). A pre-segmentation single-file WAL at `path` is
  /// adopted as segment 1 on first open.
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
  /// and WAL mirror exactly like a primary, but never open the WAL for
  /// appending (a Replicator streams the primary's segment bytes into it),
  /// never write checkpoints, and shed submit() until promote().
  bool replica = false;
  /// Primary side: a registered replica unseen for longer than this stops
  /// holding the WAL retention floor (a dead replica must not wedge
  /// segment retirement forever). It re-bootstraps from a checkpoint when
  /// it comes back.
  int replica_hold_ms = 10000;
};

/// Which consistency a read wants (docs/SERVICE.md "Consistency model").
enum class ReadMode : std::uint8_t {
  kSnapshot = 0,  // epoch-consistent, possibly stale
  kFresh = 1,     // sees applied edges immediately; not epoch-consistent
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

/// kFetchCkpt payload: the primary's newest valid checkpoint as a raw file
/// image, plus where it sits in the checkpoint/WAL chains. `has == false`
/// (and empty image) when the primary has no valid checkpoint — the replica
/// then streams the WAL from segment 1, which is complete because a primary
/// that never checkpointed never retired anything.
struct CkptImage {
  bool has = false;
  std::uint64_t seq = 0;      // checkpoint file sequence number
  std::uint64_t wal_seq = 0;  // WAL segments <= this are covered by it
  std::vector<std::uint8_t> image;
};

/// kFetchWal payload: one bounded chunk of raw segment bytes. `retired`
/// means the requested segment is gone on the primary (the replica fell
/// behind retention and must re-bootstrap from a checkpoint); `sealed`
/// means no more bytes will ever appear in this segment, so a reader that
/// has consumed segment_bytes of it advances to seq + 1. `ok` is the
/// serving side's I/O verdict and never travels on the wire — the server
/// answers !ok with Status::kError.
struct WalChunk {
  bool ok = false;
  bool retired = false;
  bool sealed = false;
  std::uint64_t seq = 0;            // echoed segment sequence
  std::uint64_t offset = 0;         // echoed start offset
  std::uint64_t segment_bytes = 0;  // size of that segment at read time
  std::uint64_t active_seq = 0;     // primary's active (highest) segment
  std::vector<std::uint8_t> data;
};

class ConnectivityService {
 public:
  using EdgeBatch = std::vector<Edge>;

  /// A universe of n vertices, all singletons (or the recovered state); the
  /// first snapshot is published (synchronously) before the constructor
  /// returns.
  explicit ConnectivityService(vertex_t n, ServiceOptions opts = {});

  /// Seeds the service with an existing graph: the seed's edges count as
  /// applied (watermark > 0) and epoch 0 reflects its components. A valid
  /// checkpoint whose watermark covers the seed's edges supersedes it.
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
  /// endpoints >= num_vertices() are dropped at apply time (counted in
  /// ecl.svc.ingest.invalid_edges).
  [[nodiscard]] Admission submit(EdgeBatch batch);

  /// Blocks until every batch accepted so far has been applied to the live
  /// structure (not necessarily compacted into a snapshot). Returns early
  /// (possibly with batches unapplied) if the ingest worker has died.
  void flush();

  /// flush(), then forces a compaction whose watermark covers every edge
  /// applied at call time, and waits for it. Returns the new epoch.
  std::uint64_t compact_now();

  /// Forces the compaction thread to write a checkpoint now and waits for
  /// the attempt to finish. Returns true if a checkpoint was durably
  /// written; false when checkpoints are disabled, the service is stopped,
  /// or the write failed (counted in ecl.svc.ckpt.write_errors).
  [[nodiscard]] bool checkpoint_now();

  /// Graceful drain-and-shutdown: refuses new batches, applies everything
  /// already admitted, runs a final compaction (so the last snapshot
  /// reflects all accepted edges), and joins both background threads.
  /// Idempotent; called by the destructor.
  void stop();

  // --- reader side ---------------------------------------------------------

  /// True if u and v are connected. kSnapshot answers from the published
  /// epoch; kFresh consults the live union-find. Out-of-range vertices
  /// return false.
  [[nodiscard]] bool connected(vertex_t u, vertex_t v, ReadMode mode = ReadMode::kSnapshot);

  /// Component representative of v. Under kSnapshot this is the canonical
  /// (minimum-ID) label; under kFresh it is the current DSU representative,
  /// which is *not* canonical until the next compaction. kInvalidVertex if
  /// v is out of range.
  [[nodiscard]] vertex_t component_of(vertex_t v, ReadMode mode = ReadMode::kSnapshot);

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

  /// True once the service has dropped to read-only degraded mode (ingest
  /// worker died, or the WAL hit an I/O error). Queries keep serving;
  /// submit() sheds. There is no way back up short of a restart.
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

  /// Replica -> primary failover: truncates any half-fetched record off the
  /// mirrored WAL tail (those bytes were never parsed, so nothing applied is
  /// lost), opens the WAL for appending at that tail, and starts accepting
  /// submit(). Checkpointing (and with it local segment retirement) resumes
  /// on the next compaction cycle. The caller must stop the Replicator
  /// first — promote() assumes no more bytes are landing in the mirror.
  /// Idempotent: true immediately on an already-primary service.
  [[nodiscard]] bool promote(std::string* err = nullptr);

  /// Replica side: applies one primary WAL record's edges (the Replicator
  /// calls this after mirroring the bytes locally) through the ingest
  /// worker's apply path, so compaction, staleness, and health arithmetic
  /// hold unchanged.
  void apply_replicated(EdgeBatch batch);

  /// Replica side: lag sample pushed by the Replicator after each fetch
  /// round (surfaced through stats() and the Prometheus exporter).
  void set_replication_lag(std::uint64_t lag_seq, std::uint64_t lag_ms);

  /// Replica side: local WAL mirror geometry pushed by the Replicator, so
  /// stats() wal_segments/wal_bytes stay meaningful on replicas.
  void set_replica_wal_stats(std::uint64_t segments, std::uint64_t bytes);

  /// Replica side: rebases onto a newer checkpoint fetched from the primary
  /// after falling behind retention. Unites every vertex with its label in
  /// the live structure (monotone-safe: connectivity only grows — the live
  /// structure keeps taking reads, so its array cannot simply be replaced)
  /// and raises applied edges to at least the checkpoint's watermark; the
  /// compaction publishes the result at once, even when the watermark did
  /// not rise.
  /// False, changing nothing, when not a replica, on a vertex-count
  /// mismatch, or for a checkpoint older than the last one written, loaded
  /// or rebased onto.
  [[nodiscard]] bool rebase_to_checkpoint(const CheckpointData& data);

  /// wal_seq covered by the checkpoint this service recovered from (0 when
  /// none); the Replicator resumes streaming at the next segment.
  [[nodiscard]] std::uint64_t checkpoint_covered_wal_seq();

  /// Primary serving side of kFetchCkpt: the newest valid checkpoint as a
  /// raw file image. Reads by name with retry, so the compaction thread
  /// rotating checkpoints concurrently is harmless. has == false when
  /// checkpoints are disabled, none exists yet, or every file failed
  /// validation (the replica streams from segment 1 then).
  [[nodiscard]] CkptImage fetch_checkpoint_image() const;

  /// Primary serving side of kFetchWal: registers/refreshes the replica in
  /// the retention registry, then reads up to max_bytes of the segment via
  /// WalSegmentReader (rotation/retirement safe). replica_id 0 reads
  /// without registering.
  [[nodiscard]] WalChunk fetch_wal_chunk(std::uint64_t replica_id, std::uint64_t seq,
                                         std::uint64_t offset, std::uint32_t max_bytes);

 private:
  void start_threads();
  void ingest_loop();
  void ingest_loop_body();
  void compact_loop();
  /// The one apply path, shared by the ingest worker and apply_replicated():
  /// drops out-of-range edges, hooks the rest into live_ and advances
  /// applied_edges_ under apply_mu_, then counts the batch as applied.
  void apply_batch(EdgeBatch& batch);
  /// Publishes the next epoch: copies live_'s parent array and the applied
  /// edge count under apply_mu_ — between batches, so the copy holds
  /// exactly the first `watermark` applied edges — then runs Fini on the
  /// copy outside it. The first call (no snapshot yet) publishes epoch 0.
  void run_compaction();
  /// Ctor-only recovery: load the newest valid checkpoint and install its
  /// labels both as the live union-find's parent array and as the initial
  /// snapshot — no unions, no ECL-CC run — then replay only the WAL tail
  /// segments past it and open the WAL for appending. Without a checkpoint
  /// the first snapshot is the copy + Fini of the live union-find (the
  /// seed graph's components, or all singletons).
  /// Throws std::runtime_error on an unusable WAL/checkpoint state.
  void init_durability();
  /// Compaction-thread: writes a checkpoint when forced, due by interval,
  /// or on the final drain — see do_checkpoint().
  void maybe_checkpoint(bool force, bool exiting);
  /// The checkpoint cut: rotate the WAL, wait for every batch accepted at
  /// the cut to be applied, compact, persist the snapshot's labels, retire
  /// covered WAL segments.
  bool do_checkpoint();
  /// Milliseconds since service construction (steady clock).
  [[nodiscard]] std::uint64_t now_ms() const;
  /// One-way transition into read-only mode; logs and counts the entry.
  void enter_degraded(const char* reason);

  const vertex_t num_vertices_;
  const ServiceOptions opts_;

  IncrementalCC live_;
  BoundedQueue<EdgeBatch> queue_;

  // The apply mutex: every hook into live_ (apply_batch, the replica's
  // rebase) and the applied_edges_ advance that counts it happen under it,
  // and so does the compaction's parent-array copy. A copy overlapping a
  // hook could split a component; kFresh finds need no lock.
  std::mutex apply_mu_;
  // rebase_to_checkpoint() calls, counted under apply_mu_, and the count the
  // published snapshot's copy saw: a rebase can add unions without raising
  // applied_edges_, so the compaction loop publishes while they differ.
  std::atomic<std::uint64_t> rebases_{0};
  std::atomic<std::uint64_t> published_rebases_{0};
  [[nodiscard]] bool rebase_pending() const {
    return rebases_.load(std::memory_order_acquire) >
           published_rebases_.load(std::memory_order_acquire);
  }
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
  std::atomic<std::uint64_t> applied_edges_{0};  // advanced under apply_mu_
  std::uint64_t force_watermark_ = 0;  // compaction must reach this
  bool force_checkpoint_ = false;      // checkpoint_now() pending
  bool stopping_ = false;

  // Both background loops run as long-lived tasks on the executor (one
  // worker each); the done flags — guarded by progress_mu_, signaled on
  // their cvs — replace thread joins so stop() keeps its exact ordering.
  bool ingest_done_ = false;   // ingest task exited (drained or died)
  bool compact_done_ = false;  // compact task exited
  std::mutex stop_mu_;  // serializes stop(): only one caller runs the drain
  std::atomic<bool> stopped_{false};

  // Robustness state. wal_mu_ serializes appends from concurrent submit()
  // callers (and the checkpoint cut's rotation/retirement against them);
  // the flags are read lock-free by stats() and submit().
  std::mutex wal_mu_;
  SegmentedWal wal_;
  std::uint64_t replayed_edges_ = 0;
  std::atomic<std::uint64_t> wal_records_{0};
  std::atomic<bool> wal_healthy_{true};
  std::atomic<bool> degraded_{false};
  std::atomic<bool> ingest_alive_{true};
  std::atomic<std::uint64_t> degraded_entries_{0};

  // Checkpoint state. The store is compaction-thread-only (plus ctor); the
  // atomics are read lock-free by stats().
  CheckpointStore ckpt_store_;
  std::chrono::steady_clock::time_point start_tp_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> ckpt_written_{0};
  std::atomic<std::uint64_t> ckpt_attempts_{0};   // writes tried (ok or not)
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

  // Declared last so it is destroyed first: ~Executor drains, so no task
  // can still be touching the members above while they are torn down.
  exec::Executor exec_{exec::ExecutorOptions{.num_workers = 2}};
};

}  // namespace ecl::svc
