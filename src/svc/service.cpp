#include "svc/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "core/ecl_cc.h"
#include "dsu/find.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ecl::svc {

namespace {

/// The paper's Fini pass, in place, over a forest with parent[v] <= v: in
/// ascending order each vertex reads only a parent it has already pointed
/// at its root, and a root maps to itself, as in the serial ECL-CC.
void finalize(PageArray& parents) {
  for (vertex_t& p : parents) p = parents[p];
}

/// Unites u and v in the union-find `parent` with the paper's serial find
/// and hook: one thread owns it, so no atomics and no retry loop. A `log`
/// gets the hook, if one happens.
void unite(PageArray& parent, vertex_t u, vertex_t v, HookLog* log) {
  SerialParentOps ops(parent.data());
  const vertex_t u_root = find_intermediate(u, ops);
  hook_representatives(u_root, find_intermediate(v, ops), ops, log);
}

/// The parent array of n singletons.
PageArray singletons(vertex_t n) {
  PageArray parent = PageArray::uninitialized(n);
  std::iota(parent.begin(), parent.end(), vertex_t{0});
  return parent;
}

/// The canonical labels `prev` after `hooks`, applied in order to the
/// union-find whose labels `prev` were, by the paper's finalization and no
/// map. `prev` is canonical: prev[v] is the minimum of v's component, so
/// prev[v] <= v, and prev[r] == r for every root r. Every hook links a root
/// under a smaller root, and both were roots at `prev`, because a root is
/// hooked at most once and never becomes a root again. Walked last to
/// first, every later hook of a parent p has been written when hook (c, p)
/// is visited, so labels[p] is p's final root; after the walk labels[r] is
/// final for every root r of `prev`, and labels[x] <= x everywhere, so the
/// Fini pass finishes the job.
PageArray remap_labels(const PageArray& prev, const std::vector<Hook>& hooks) {
  PageArray labels(prev);
  for (auto h = hooks.rbegin(); h != hooks.rend(); ++h) labels[h->child] = labels[h->parent];
  finalize(labels);
  return labels;
}

/// Drops the edges with an endpoint outside [0, n), counted in
/// ecl.svc.ingest.invalid_edges.
void drop_out_of_universe(std::vector<Edge>& edges, vertex_t n) {
  const std::size_t dropped =
      std::erase_if(edges, [n](const Edge& e) { return e.first >= n || e.second >= n; });
  if (dropped > 0) ECL_OBS_COUNTER_ADD("ecl.svc.ingest.invalid_edges", dropped);
}

}  // namespace

ConnectivityService::ConnectivityService(vertex_t n, ServiceOptions opts)
    : ConnectivityService(recover_checkpoint(n, nullptr, opts), opts) {}

ConnectivityService::ConnectivityService(const Graph& seed, ServiceOptions opts)
    : ConnectivityService(recover_checkpoint(seed.num_vertices(), &seed, opts), opts) {}

ConnectivityService::ConnectivityService(Recovered rec, ServiceOptions opts)
    : num_vertices_(rec.n),
      opts_(opts),
      live_(rec.ckpt ? rec.ckpt->labels.writable_copy()
            : rec.seed != nullptr ? PageArray(ecl_cc_omp(*rec.seed))
                                  : singletons(rec.n)),
      queue_(opts.queue_capacity),
      ckpt_store_(std::move(rec.store)) {
  replica_.store(opts_.replica, std::memory_order_release);
  applied_edges_.store(rec.seed_edges);
  init_durability(std::move(rec.ckpt));
  ingest_thread_ = std::thread([this] {
    run_loop(&ConnectivityService::ingest_loop, ingest_alive_, "ingest worker died");
  });
  try {
    compact_thread_ = std::thread([this] {
      run_loop(&ConnectivityService::compact_loop, compact_alive_, "compaction worker died");
    });
  } catch (...) {
    queue_.close();  // the ingest thread exits; join it before members die
    ingest_thread_.join();
    throw;
  }
}

ConnectivityService::Recovered ConnectivityService::recover_checkpoint(
    vertex_t n, const Graph* seed, const ServiceOptions& opts) {
  Recovered rec;
  rec.n = n;
  rec.seed = seed;
  if (seed != nullptr) {
    for (vertex_t v = 0; v < n; ++v) {
      for (const vertex_t u : seed->neighbors(v)) rec.seed_edges += u < v ? 1 : 0;
    }
  }
  if (opts.checkpoint_path.empty()) return rec;
  rec.store.open(opts.checkpoint_path);
  auto load = rec.store.load_latest_valid();
  if (load.found_any && !load.ok) {
    std::fprintf(stderr,
                 "[ecl::svc] no valid checkpoint (%s); falling back to full WAL replay\n",
                 load.error.c_str());
  }
  if (!load.ok) return rec;
  if (load.data.n != n) {
    throw std::runtime_error("ecl::svc checkpoint vertex count mismatch: checkpoint has " +
                             std::to_string(load.data.n) + ", service has " +
                             std::to_string(n));
  }
  if (load.data.watermark < rec.seed_edges) {
    // Predates the seed graph this ctor was given: installing it would
    // drop seed edges from the watermark accounting. Start from the seed.
    std::fprintf(stderr, "[ecl::svc] ignoring checkpoint older than the seed graph\n");
    return rec;
  }
  rec.ckpt = std::move(load.data);
  return rec;
}

std::uint64_t ConnectivityService::now_ms() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now() - start_tp_)
                                        .count());
}

void ConnectivityService::init_durability(std::optional<CheckpointData> ckpt) {
  std::uint64_t covered_seq = 0;  // WAL segments <= this are in the checkpoint
  if (ckpt) {
    covered_seq = ckpt->wal_seq;
    // read_file() has checked that the labels are a canonical forest — the
    // paper's Fini output, every vertex pointing straight at its
    // component's minimum — and counted its roots. live_ adopted a
    // copy-on-write mapping of them (superseding the seed graph, if any);
    // the checked read-only mapping itself becomes the first snapshot.
    // Restart cost is one validation pass over page-cache pages, plus a
    // 4 KiB page copy per page the hooks first write, independent of
    // lifetime ingest.
    auto snap = std::make_shared<Snapshot>();
    snap->epoch = ckpt->epoch;
    snap->watermark = ckpt->watermark;
    snap->labels = std::move(ckpt->labels);
    snap->num_components = ckpt->components;
    applied_edges_.store(snap->watermark, std::memory_order_release);
    live_components_ = snap->num_components;
    record_checkpoint(*ckpt);
    ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.loads", 1);
    ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.loaded_edges", snap->watermark);
    snapshot_.store(std::move(snap));
  }

  if (!opts_.wal_path.empty()) {
    auto rep = SegmentedWal::replay(opts_.wal_path, covered_seq);
    if (!rep.ok || rep.truncate_failed) {
      // truncate_failed: the recovered edges are fine but the tail segment
      // still ends in garbage a future append would land after — refuse to
      // reopen it for writing rather than strand those future records.
      throw std::runtime_error("ecl::svc WAL replay failed: " + rep.error);
    }
    drop_out_of_universe(rep.edges, num_vertices_);
    replayed_edges_ = rep.edges.size();
    HookLog* log = ckpt ? &batch_hooks_ : nullptr;
    for (const auto& [u, v] : rep.edges) unite(live_, u, v, log);
    applied_edges_.fetch_add(rep.edges.size(), std::memory_order_release);
  }
  // The first snapshot reflects everything recovered, built before any thread
  // runs: the live union-find itself (seed graph, whole WAL, or singletons),
  // flattened in place, or the checkpoint's labels remapped through the
  // tail's hooks.
  if (!ckpt) {
    auto snap = std::make_shared<Snapshot>();
    snap->watermark = applied_edges_.load(std::memory_order_relaxed);
    finalize(live_);
    snap->labels = live_;
    for (vertex_t v = 0; v < num_vertices_; ++v) snap->num_components += live_[v] == v ? 1 : 0;
    live_components_ = snap->num_components;
    snapshot_.store(std::move(snap));
  } else if (replayed_edges_ > 0) {
    hand_over_hooks();
    (void)run_compaction();
  }

  // Every applied edge is logged. Appends go after the checkpoint's
  // segments, on a primary and a replica alike: only a cut ends a segment.
  logged_edges_ = applied_edges_.load(std::memory_order_acquire);
  if (opts_.wal_path.empty()) return;
  std::string err;
  if (!wal_.open(opts_.wal_path, {.wal = opts_.wal}, covered_seq + 1, &err)) {
    throw std::runtime_error("ecl::svc WAL open failed: " + err);
  }
}

bool ConnectivityService::log_batch(const EdgeBatch& batch) {
  if (opts_.wal_path.empty() || batch.empty()) return true;
  if (!wal_.append(batch)) {
    wal_healthy_.store(false, std::memory_order_release);
    enter_degraded("WAL append/fsync failed");
    return false;
  }
  wal_records_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ConnectivityService::rotate_wal() {
  std::string err;
  if (wal_.is_open() && !wal_.rotate(&err)) {
    wal_healthy_.store(false, std::memory_order_release);
    enter_degraded(("WAL rotate failed: " + err).c_str());
  }
}

void ConnectivityService::record_checkpoint(const CheckpointHeader& header) {
  ckpt_covered_seq_.store(header.wal_seq, std::memory_order_relaxed);
  last_ckpt_epoch_.store(header.epoch, std::memory_order_relaxed);
  last_ckpt_watermark_.store(header.watermark, std::memory_order_relaxed);
  last_ckpt_ms_.store(now_ms(), std::memory_order_relaxed);
  has_ckpt_.store(true, std::memory_order_release);
}

void ConnectivityService::enter_degraded(const char* reason) {
  if (!degraded_.exchange(true, std::memory_order_acq_rel)) {
    degraded_entries_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "[ecl::svc] entering read-only degraded mode: %s\n", reason);
  }
}

ConnectivityService::~ConnectivityService() { stop(); }

Admission ConnectivityService::submit(EdgeBatch batch) {
  if (stopped_.load(std::memory_order_acquire)) return Admission::kClosed;
  if (degraded_.load(std::memory_order_acquire) || replica_.load(std::memory_order_acquire)) {
    // Read-only mode sheds writes it can neither durably log nor (if the
    // worker died) ever apply. A replica takes writes only from the
    // replication stream; the server answers kNotPrimary before submit().
    shed_batches_.fetch_add(1, std::memory_order_relaxed);
    return Admission::kShed;
  }
  // A record holds exactly the edges the ingest thread will apply.
  drop_out_of_universe(batch, num_vertices_);
  Admission verdict = Admission::kShed;
  {
    // Log before enqueue: a batch reaches the worker (and with it snapshots
    // and checkpoints) only once its record is written, and a failed append
    // queues nothing. Every push and count happens under wal_mu_, so the
    // room checked here is still there at the push, and a cut, which reads
    // logged_edges_ and rotates under wal_mu_, counts exactly the edges of
    // the records it seals. A stop() racing the append answers kClosed and
    // leaves an unacked, uncounted record.
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (queue_.closed()) {
      verdict = Admission::kClosed;
    } else if (queue_.size() < queue_.capacity() && log_batch(batch)) {
      const std::size_t edges = batch.size();
      verdict = queue_.try_push(std::move(batch));
      if (verdict == Admission::kAccepted) {
        logged_edges_ += edges;
        accepted_batches_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (verdict == Admission::kShed) shed_batches_.fetch_add(1, std::memory_order_relaxed);
  return verdict;
}

void ConnectivityService::run_loop(void (ConnectivityService::*loop)(),
                                   std::atomic<bool>& alive, const char* death) {
  try {
    (this->*loop)();
  } catch (const std::exception& e) {
    // A failure (e.g. allocation) must not crash the process: degrade, and
    // keep serving reads from the last published epoch.
    std::fprintf(stderr, "[ecl::svc] %s: %s\n", death, e.what());
    {
      // Under the mutex, so a flush(), compact_now() or checkpoint_now()
      // waiter cannot check its predicate between the store and the notify.
      std::lock_guard<std::mutex> lock(progress_mu_);
      alive.store(false, std::memory_order_release);
    }
    enter_degraded(death);
    progress_cv_.notify_all();
    compact_cv_.notify_all();
  }
}

void ConnectivityService::ingest_loop() {
  EdgeBatch batch;
  while (queue_.pop(batch)) {
    const fault::Outcome fault = ECL_FAULT_POINT("svc.ingest.worker");
    if (fault.fired() && fault.action != fault::Action::kDelay) {
      throw std::runtime_error("injected fault: svc.ingest.worker");
    }
    ECL_OBS_SPAN(span, "svc.batch", "svc");
    Timer t;
    fault::apply_delay(fault);
    apply_batch(batch);
    ECL_OBS_COUNTER_ADD("ecl.svc.ingest.edges", batch.size());
    ECL_OBS_HISTOGRAM_RECORD("ecl.svc.batch_apply_us",
                             ::ecl::obs::Histogram::pow2_bounds(22),
                             static_cast<std::uint64_t>(t.micros()));
    span.arg("edges", static_cast<std::uint64_t>(batch.size()));
  }
}

void ConnectivityService::apply_batch(EdgeBatch& batch) {
  // Replicated records may come from a log written before submit() filtered.
  drop_out_of_universe(batch, num_vertices_);
  for (const auto& [u, v] : batch) unite(live_, u, v, &batch_hooks_);
  {
    // The batch's hooks and its edges reach the compaction together, and a
    // cut is crossed on this batch boundary.
    std::lock_guard<std::mutex> lock(progress_mu_);
    hand_over_hooks();
    const std::uint64_t applied =
        applied_edges_.fetch_add(batch.size(), std::memory_order_release) + batch.size();
    applied_batches_.fetch_add(1, std::memory_order_release);
    if (cut_ && !cut_->hooks && cut_->edges == applied) cut_->hooks = pending_hooks_.size();
  }
  progress_cv_.notify_all();
  compact_cv_.notify_all();
}

void ConnectivityService::hand_over_hooks() {
  pending_hooks_.insert(pending_hooks_.end(), batch_hooks_.hooks.begin(),
                        batch_hooks_.hooks.end());
  live_components_ -= static_cast<vertex_t>(batch_hooks_.hooks.size());
  batch_hooks_.hooks.clear();
}

void ConnectivityService::compact_loop() {
  const auto due = [this] {
    std::lock_guard<std::mutex> lock(progress_mu_);
    return compaction_due();
  };
  std::uint64_t cut_ms = 0;  // when this thread last cut for an interval checkpoint
  for (;;) {
    bool exiting = false;
    bool ckpt_due = false;
    {
      // Whatever makes a compaction due notifies compact_cv_; only an
      // interval checkpoint comes due with the clock, so the wait is timed
      // only while one can, and the deadline is recomputed on every wake.
      std::unique_lock<std::mutex> lock(progress_mu_);
      for (;;) {
        exiting = stopping_;
        const auto ckpt_at = checkpoint_deadline(cut_.has_value(), cut_ms);
        ckpt_due = ckpt_at && now_ms() >= *ckpt_at;
        if (exiting || ckpt_due || compaction_due()) break;
        if (ckpt_at) {
          compact_cv_.wait_until(lock, start_tp_ + std::chrono::milliseconds(*ckpt_at));
        } else {
          compact_cv_.wait(lock);
        }
      }
    }
    if (ECL_FAULT_POINT("svc.compact.worker").fired()) {
      throw std::runtime_error("injected fault: svc.compact.worker");
    }
    // On exit the ingest thread has applied every logged edge, so the final
    // cut is reached at once: a clean stop leaves a checkpoint covering
    // everything, making the next boot instant.
    if (exiting ? checkpoint_progressed() : ckpt_due) {
      cut_ms = now_ms();
      (void)cut_wal();
    }
    // A compaction that reaches a cut is followed by one catching up past
    // it before the write, so readers do not wait out its fsync. A newer cut
    // reached by the second replaces the first.
    std::optional<Cut> cut;
    SnapshotPtr at_cut;
    for (int pass = 0; pass < (cut ? 2 : 1) && due(); ++pass) {
      if (auto reached = run_compaction()) {
        cut = reached;
        at_cut = snapshot_.load(std::memory_order_acquire);
      }
    }
    if (cut) write_checkpoint(*cut, *at_cut);
    if (exiting) return;
  }
}

bool ConnectivityService::compaction_due() const {
  const SnapshotPtr snap = snapshot_.load(std::memory_order_acquire);
  const std::uint64_t applied = applied_edges_.load(std::memory_order_relaxed);
  return (cut_ && cut_->hooks) || force_watermark_ > snap->watermark ||
         force_components_ < snap->num_components ||
         (applied > snap->watermark &&
          (stopping_ || applied - snap->watermark >= opts_.compact_min_new_edges));
}

bool ConnectivityService::checkpoint_progressed() const {
  // Replicas never cut: their WAL rotates only where the primary's segments
  // end, and their checkpoints are the primary's images. After promote()
  // the compaction thread cuts again.
  if (opts_.checkpoint_path.empty() || replica_.load(std::memory_order_acquire)) return false;
  return !has_ckpt_.load(std::memory_order_acquire) ||
         applied_edges_.load(std::memory_order_acquire) >
             last_ckpt_watermark_.load(std::memory_order_relaxed);
}

std::optional<std::uint64_t> ConnectivityService::checkpoint_deadline(
    bool cut_pending, std::uint64_t cut_ms) const {
  if (cut_pending || opts_.checkpoint_interval_ms <= 0 ||
      applied_edges_.load(std::memory_order_acquire) == 0 || !checkpoint_progressed()) {
    return std::nullopt;
  }
  // From the last checkpoint, or from the last cut if its write failed.
  return std::max(last_ckpt_ms_.load(std::memory_order_relaxed), cut_ms) +
         static_cast<std::uint64_t>(opts_.checkpoint_interval_ms);
}

std::uint64_t ConnectivityService::cut_wal() {
  std::lock_guard<std::mutex> wal_lock(wal_mu_);
  Cut cut{.seq = wal_.active_seq(), .edges = logged_edges_, .hooks = {}};
  // A failed rotation leaves the segments <= seq intact and holding exactly
  // `edges`: the cut stands, and the closed log takes no record past it.
  rotate_wal();
  {
    // Nothing logged past the cut is queued before wal_mu_ is released, so
    // the ingest thread is at or before it.
    std::lock_guard<std::mutex> lock(progress_mu_);
    cut.ticket = ++cuts_;
    if (applied_edges_.load(std::memory_order_relaxed) == cut.edges) {
      cut.hooks = pending_hooks_.size();
    }
    cut_ = cut;  // covers more than a pending older cut
  }
  compact_cv_.notify_all();
  return cut.ticket;
}

void ConnectivityService::write_checkpoint(const Cut& cut, const Snapshot& snap) {
  ECL_OBS_SPAN(span, "svc.checkpoint", "svc");
  Timer t;
  const CheckpointHeader header{.n = static_cast<std::uint32_t>(num_vertices_),
                                .watermark = snap.watermark,
                                .epoch = snap.epoch,
                                .wal_seq = cut.seq};
  const auto wr = ckpt_store_.write(header, snap.labels);
  if (wr.ok) {
    record_checkpoint(header);
    ckpt_written_.fetch_add(1, std::memory_order_release);
    ECL_OBS_HISTOGRAM_RECORD("ecl.svc.ckpt_ms", ::ecl::obs::Histogram::pow2_bounds(16),
                             static_cast<std::uint64_t>(t.millis()));
    // Retire the segments the *oldest retained* checkpoint covers, so a
    // fallback load never misses one, and none a live replica still fetches
    // (one unseen past replica_hold_ms re-bootstraps instead).
    const std::uint64_t floor =
        std::min(ckpt_store_.retention_floor_wal_seq(), replica_fetch_floor());
    if (floor > 0 && floor != UINT64_MAX) {
      std::lock_guard<std::mutex> lock(wal_mu_);
      (void)wal_.retire_through(floor);
    }
    span.arg("epoch", snap.epoch);
    span.arg("watermark", snap.watermark);
    span.arg("bytes", wr.bytes);
  } else {
    std::fprintf(stderr, "[ecl::svc] checkpoint write failed: %s\n", wr.error.c_str());
  }
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    cuts_settled_ = cut.ticket;
    if (wr.ok) cuts_written_ = cut.ticket;
  }
  compact_cv_.notify_all();
}

bool ConnectivityService::checkpoint_now() {
  if (opts_.checkpoint_path.empty() || stopped_.load(std::memory_order_acquire) ||
      replica_.load(std::memory_order_acquire)) {
    return false;
  }
  const std::uint64_t ticket = cut_wal();
  std::unique_lock<std::mutex> lock(progress_mu_);
  compact_cv_.wait(lock, [&] {
    return cuts_settled_ >= ticket || !compact_alive_.load(std::memory_order_acquire) ||
           !ingest_alive_.load(std::memory_order_acquire) ||
           stopped_.load(std::memory_order_acquire);
  });
  return cuts_written_ >= ticket;
}

std::optional<ConnectivityService::Cut> ConnectivityService::run_compaction() {
  ECL_OBS_SPAN(span, "svc.compact", "svc");
  Timer t;
  auto snap = std::make_shared<Snapshot>();
  std::vector<Hook> hooks;
  std::optional<Cut> cut;
  {
    // The hooks and the watermark describe the same batch boundary: a
    // reached cut's, or else the last applied batch's.
    std::lock_guard<std::mutex> lock(progress_mu_);
    hooks.swap(pending_hooks_);
    snap->watermark = applied_edges_.load(std::memory_order_relaxed);
    if (cut_ && cut_->hooks) {
      cut.swap(cut_);
      pending_hooks_.assign(hooks.begin() + *cut->hooks, hooks.end());
      hooks.resize(*cut->hooks);
      snap->watermark = cut->edges;
    }
  }
  // Only this thread (or the constructor) publishes: the hooks start at prev.
  const SnapshotPtr prev = snapshot_.load(std::memory_order_acquire);
  if (cut && prev->watermark == cut->edges) return cut;  // already published
  snap->epoch = prev->epoch + 1;
  snap->labels = remap_labels(prev->labels, hooks);
  snap->num_components = prev->num_components - static_cast<vertex_t>(hooks.size());
  snap->build_ms = t.millis();

  span.arg("epoch", snap->epoch);
  span.arg("watermark", snap->watermark);
  span.arg("hooks", static_cast<std::uint64_t>(hooks.size()));
  span.arg("components", static_cast<std::uint64_t>(snap->num_components));
  snapshot_.store(snap, std::memory_order_release);

  ECL_OBS_COUNTER_ADD("ecl.svc.compactions", 1);
  ECL_OBS_HISTOGRAM_RECORD("ecl.svc.compact_ms",
                           ::ecl::obs::Histogram::pow2_bounds(16),
                           static_cast<std::uint64_t>(snap->build_ms));
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
  }
  compact_cv_.notify_all();
  return cut;
}

void ConnectivityService::flush() {
  const std::uint64_t target = accepted_batches_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> lock(progress_mu_);
  progress_cv_.wait(lock, [&] {
    return applied_batches_.load(std::memory_order_acquire) >= target ||
           !ingest_alive_.load(std::memory_order_acquire);
  });
}

std::uint64_t ConnectivityService::compact_now() {
  flush();
  std::unique_lock<std::mutex> lock(progress_mu_);
  const std::uint64_t target = applied_edges_.load(std::memory_order_relaxed);
  const vertex_t target_components = live_components_;
  force_watermark_ = std::max(force_watermark_, target);
  force_components_ = std::min(force_components_, target_components);
  compact_cv_.notify_all();
  compact_cv_.wait(lock, [&] {
    const SnapshotPtr snap = snapshot_.load(std::memory_order_acquire);
    return (snap->watermark >= target && snap->num_components <= target_components) ||
           !compact_alive_.load(std::memory_order_acquire) ||
           stopped_.load(std::memory_order_acquire);
  });
  return snapshot_.load(std::memory_order_acquire)->epoch;
}

void ConnectivityService::stop() {
  // Serializes concurrent stop() calls (and the destructor after an explicit
  // stop()): exactly one caller joins the threads, and later/losing callers
  // block here until the drain has fully completed — concurrent join() on
  // one std::thread would be a data race.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_.load(std::memory_order_acquire)) return;
  stopped_.store(true, std::memory_order_release);
  queue_.close();
  ingest_thread_.join();  // every admitted batch is applied (or the worker died)
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    stopping_ = true;
  }
  // The compaction thread runs the final compaction and checkpoint.
  compact_cv_.notify_all();
  compact_thread_.join();
  // Wake flush()/compact_now()/checkpoint_now() callers: they see stopped_.
  progress_cv_.notify_all();
  compact_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    wal_.close();  // fsyncs any unsynced tail (per policy) before closing
  }
}

bool ConnectivityService::connected(vertex_t u, vertex_t v, ReadMode) {
  if (u >= num_vertices_ || v >= num_vertices_) return false;
  ECL_OBS_COUNTER_ADD("ecl.svc.reads.connected", 1);
  const auto snap = snapshot_.load(std::memory_order_acquire);
  return snap->connected(u, v);
}

vertex_t ConnectivityService::component_of(vertex_t v) {
  if (v >= num_vertices_) return kInvalidVertex;
  ECL_OBS_COUNTER_ADD("ecl.svc.reads.component_of", 1);
  const auto snap = snapshot_.load(std::memory_order_acquire);
  return snap->labels[v];
}

vertex_t ConnectivityService::component_count() const {
  return snapshot_.load(std::memory_order_acquire)->num_components;
}

SnapshotPtr ConnectivityService::snapshot() const {
  return snapshot_.load(std::memory_order_acquire);
}

ServiceStats ConnectivityService::stats() const {
  const auto snap = snapshot_.load(std::memory_order_acquire);
  const std::uint64_t applied = applied_edges_.load(std::memory_order_acquire);
  ServiceStats s;
  s.epoch = snap->epoch;
  s.watermark = snap->watermark;
  s.applied_edges = applied;
  s.accepted_batches = accepted_batches_.load(std::memory_order_relaxed);
  s.applied_batches = applied_batches_.load(std::memory_order_relaxed);
  s.shed_batches = shed_batches_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  s.num_components = snap->num_components;
  s.num_vertices = num_vertices_;
  s.checkpoints = ckpt_written_.load(std::memory_order_relaxed);
  s.last_checkpoint_epoch = last_ckpt_epoch_.load(std::memory_order_relaxed);
  s.wal_segments = wal_.segment_count();
  s.wal_bytes = wal_.total_bytes();
  s.degraded = degraded_.load(std::memory_order_acquire) ? 1 : 0;
  s.uptime_ms = now_ms();
  s.replayed_edges = replayed_edges_;
  s.ingest_worker_alive = ingest_alive_.load(std::memory_order_acquire) ? 1 : 0;
  s.wal_enabled = opts_.wal_path.empty() ? 0 : 1;
  s.wal_healthy = wal_healthy_.load(std::memory_order_acquire) ? 1 : 0;
  s.staleness_edges = applied > snap->watermark ? applied - snap->watermark : 0;
  s.ingest_lag_batches =
      s.accepted_batches > s.applied_batches ? s.accepted_batches - s.applied_batches : 0;
  s.wal_records = wal_records_.load(std::memory_order_relaxed);
  s.degraded_entries = degraded_entries_.load(std::memory_order_relaxed);
  s.checkpoint_enabled = opts_.checkpoint_path.empty() ? 0 : 1;
  const std::uint64_t ckpt_at = last_ckpt_ms_.load(std::memory_order_relaxed);
  s.last_checkpoint_age_ms =
      has_ckpt_.load(std::memory_order_acquire) && s.uptime_ms > ckpt_at
          ? s.uptime_ms - ckpt_at
          : 0;
  s.replica = replica_.load(std::memory_order_acquire) ? 1 : 0;
  s.replica_lag_seq = repl_lag_seq_.load(std::memory_order_relaxed);
  s.replica_lag_ms = repl_lag_ms_.load(std::memory_order_relaxed);
  s.replicas_connected = replicas_connected_.load(std::memory_order_relaxed);
  return s;
}

void render_prometheus(const ServiceStats& s, std::string& out) {
  out += "# TYPE ecl_svc_up gauge\necl_svc_up 1\n";
  char value[24];
#define ECL_SVC_RENDER_ROW(tag, member, family, type)                                    \
  std::snprintf(value, sizeof value, "%llu", static_cast<unsigned long long>(s.member)); \
  out += "# TYPE " family " " type "\n" family " ";                                      \
  out += value;                                                                          \
  out += '\n';
  ECL_SVC_STATS_FIELDS(ECL_SVC_RENDER_ROW)
#undef ECL_SVC_RENDER_ROW
}

// ------------------------------------------------------- replication ----

bool ConnectivityService::apply_replicated(EdgeBatch batch) {
  {
    // Log before apply, as submit() does, so a replica crash replays every
    // record it applied. The record is logged whole, out-of-universe edges
    // included, so this log stays the primary's byte for byte.
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (!log_batch(batch)) return false;
  }
  accepted_batches_.fetch_add(1, std::memory_order_relaxed);
  apply_batch(batch);
  ECL_OBS_COUNTER_ADD("ecl.svc.replica.applied_edges", batch.size());
  return true;
}

void ConnectivityService::seal_replicated_segment() {
  std::lock_guard<std::mutex> lock(wal_mu_);
  rotate_wal();
}

void ConnectivityService::set_replication_lag(std::uint64_t lag_seq,
                                              std::uint64_t lag_ms) {
  repl_lag_seq_.store(lag_seq, std::memory_order_relaxed);
  repl_lag_ms_.store(lag_ms, std::memory_order_relaxed);
}

bool ConnectivityService::may_rebase_to(const CheckpointData& data) const {
  // Runs only on the Replicator's thread, as does apply_replicated(), the
  // replica's only other writer of these fields: check-then-update is safe.
  return replica_.load(std::memory_order_acquire) && data.n == num_vertices_ &&
         !(has_ckpt_.load(std::memory_order_acquire) &&
           data.watermark < last_ckpt_watermark_.load(std::memory_order_relaxed));
}

bool ConnectivityService::rebase_to_image(std::span<const std::uint8_t> image,
                                          std::string* err) {
  if (opts_.checkpoint_path.empty()) {
    if (err != nullptr) *err = "rebase: the service has no checkpoint path";
    return false;
  }
  // The image joins this service's own chain (its next number, keep-2
  // retention), so a later restart, promoted or not, finds it in order.
  CheckpointData data;
  const auto wr = ckpt_store_.install(
      image, &data, [this](const CheckpointData& d) { return may_rebase_to(d); });
  if (!wr.ok) {
    if (err != nullptr) *err = wr.error;
    return false;
  }
  if (!rebase_to_checkpoint(data)) return false;
  // The log behind the new base goes, and the stream resumes in an empty
  // segment past it, so a restart replays only what streams after it.
  std::lock_guard<std::mutex> lock(wal_mu_);
  std::string werr;
  if (wal_.is_open() && !wal_.reset(data.wal_seq + 1, &werr)) {
    wal_healthy_.store(false, std::memory_order_release);
    enter_degraded(("WAL reset failed: " + werr).c_str());
  }
  return true;
}

bool ConnectivityService::rebase_to_checkpoint(const CheckpointData& data) {
  if (!may_rebase_to(data)) return false;
  // Uniting each vertex with its label is safe even where the live
  // structure already has the component: unions are idempotent, and
  // connectivity on a replica only ever grows. The labels' edges count as
  // applied, so the watermark covers a superset of them from here on.
  for (vertex_t v = 0; v < num_vertices_; ++v) {
    if (data.labels[v] != v) unite(live_, v, data.labels[v], &batch_hooks_);
  }
  {
    // Handed over like a batch's hooks, and published at once whatever
    // compact_min_new_edges says (as a new epoch: publishing the
    // checkpoint's own could move the epoch backwards for readers).
    std::lock_guard<std::mutex> lock(progress_mu_);
    hand_over_hooks();
    const std::uint64_t applied =
        std::max(applied_edges_.load(std::memory_order_relaxed), data.watermark);
    applied_edges_.store(applied, std::memory_order_release);
    force_watermark_ = std::max(force_watermark_, applied);
    force_components_ = std::min(force_components_, live_components_);
  }
  compact_cv_.notify_all();
  record_checkpoint(data);
  ECL_OBS_COUNTER_ADD("ecl.svc.replica.rebases", 1);
  return true;
}

std::uint64_t ConnectivityService::checkpoint_covered_wal_seq() {
  return ckpt_covered_seq_.load(std::memory_order_relaxed);
}

std::pair<std::uint64_t, std::uint64_t> ConnectivityService::wal_end() {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return {wal_.active_seq(), wal_.active_bytes()};
}

void ConnectivityService::prune_replicas() {
  const std::uint64_t now = now_ms();
  const auto hold = static_cast<std::uint64_t>(std::max(0, opts_.replica_hold_ms));
  std::erase_if(replicas_, [&](const auto& peer) {
    return now - peer.second.last_seen_ms > hold;  // dead: stop holding retention
  });
  replicas_connected_.store(replicas_.size(), std::memory_order_relaxed);
}

std::uint64_t ConnectivityService::replica_fetch_floor() {
  std::uint64_t floor = UINT64_MAX;
  std::lock_guard<std::mutex> lock(replicas_mu_);
  prune_replicas();
  for (const auto& [id, peer] : replicas_) {
    floor = std::min(floor, peer.fetch_seq > 0 ? peer.fetch_seq - 1 : 0);
  }
  return floor;
}

CkptImage ConnectivityService::fetch_checkpoint_image() const {
  if (opts_.checkpoint_path.empty()) return {};
  return CheckpointStore::read_newest_image(opts_.checkpoint_path);
}

WalChunk ConnectivityService::fetch_wal_chunk(std::uint64_t replica_id,
                                              std::uint64_t seq, std::uint64_t offset,
                                              std::uint32_t max_bytes) {
  if (opts_.wal_path.empty() || seq == 0) return {};
  std::uint64_t active = 0;
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    active = wal_.active_seq();
  }
  if (replica_id != 0) {
    // Register/refresh before reading: retention must know about this
    // replica before the next checkpoint's retirement pass runs. Stale
    // peers are pruned here too (not just on the checkpoint path) so the
    // connected count stays honest on a primary that never checkpoints.
    std::lock_guard<std::mutex> lock(replicas_mu_);
    replicas_[replica_id] = ReplicaPeer{.fetch_seq = seq, .last_seen_ms = now_ms()};
    prune_replicas();
  }
  // File I/O deliberately outside wal_mu_: a slow disk serving a replica
  // must not stall ingest appends. The reader classifies a missing segment
  // against `active`, read before it. (SegmentedWal::reset() unlinks every
  // segment, but it runs only on a replica, and the server answers a
  // replica's kFetchWal with kNotPrimary.)
  WalChunk out = read_wal_segment(opts_.wal_path, seq, offset, max_bytes, active);
  ECL_OBS_COUNTER_ADD("ecl.svc.replica.wal_bytes_served", out.data.size());
  return out;
}

bool ConnectivityService::promote(std::string* err) {
  std::lock_guard<std::mutex> promote_lock(promote_mu_);
  if (!replica_.load(std::memory_order_acquire)) return true;  // idempotent
  if (stopped_.load(std::memory_order_acquire)) {
    if (err != nullptr) *err = "promote: service is stopped";
    return false;
  }
  std::uint64_t tail_seq = 0;
  {
    // The log stays open as it is: it holds whole records and ends its
    // segments where the primary's end. The next cut counts every edge
    // applied so far as logged.
    std::lock_guard<std::mutex> lock(wal_mu_);
    logged_edges_ = applied_edges_.load(std::memory_order_acquire);
    tail_seq = wal_.active_seq();
  }
  {
    // Under the mutex, so the compaction thread cannot read the role between
    // its deadline check and its wait and miss the notify below.
    std::lock_guard<std::mutex> lock(progress_mu_);
    replica_.store(false, std::memory_order_release);
  }
  set_replication_lag(0, 0);
  ECL_OBS_COUNTER_ADD("ecl.svc.replica.promotions", 1);
  std::fprintf(stderr, "[ecl::svc] promoted to primary (wal tail seq %llu)\n",
               static_cast<unsigned long long>(tail_seq));
  // Wake the compaction thread: checkpointing (disabled while a replica)
  // resumes with a new deadline.
  compact_cv_.notify_all();
  return true;
}

}  // namespace ecl::svc
