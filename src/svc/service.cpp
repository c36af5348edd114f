#include "svc/service.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ecl::svc {

namespace {

/// The paper's finalization phase (Fini) on a parent forest with
/// parent[v] <= v: ascending, every parent is final before its children
/// read it, so one pass points each vertex at its root, the minimum ID of
/// its tree. Returns the number of roots (components).
vertex_t finalize(std::vector<vertex_t>& labels) {
  vertex_t components = 0;
  for (vertex_t v = 0; v < static_cast<vertex_t>(labels.size()); ++v) {
    labels[v] = labels[labels[v]];
    if (labels[v] == v) ++components;
  }
  return components;
}

vertex_t count_roots(const std::vector<vertex_t>& labels) {
  vertex_t components = 0;
  for (vertex_t v = 0; v < static_cast<vertex_t>(labels.size()); ++v) {
    if (labels[v] == v) ++components;
  }
  return components;
}

}  // namespace

ConnectivityService::ConnectivityService(vertex_t n, ServiceOptions opts)
    : num_vertices_(n), opts_(opts), live_(n), queue_(opts.queue_capacity) {
  replica_.store(opts_.replica, std::memory_order_release);
  init_durability();
  start_threads();
}

ConnectivityService::ConnectivityService(const Graph& seed, ServiceOptions opts)
    : num_vertices_(seed.num_vertices()),
      opts_(opts),
      live_(seed),
      queue_(opts.queue_capacity) {
  replica_.store(opts_.replica, std::memory_order_release);
  // live_ already holds the seed's components; count its edges as applied.
  std::uint64_t edges = 0;
  for (vertex_t v = 0; v < num_vertices_; ++v) {
    for (const vertex_t u : seed.neighbors(v)) edges += u < v ? 1 : 0;
  }
  applied_edges_.store(edges);
  init_durability();
  start_threads();
}

std::uint64_t ConnectivityService::now_ms() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now() - start_tp_)
                                        .count());
}

void ConnectivityService::init_durability() {
  std::uint64_t covered_seq = 0;  // WAL segments <= this are in the checkpoint
  if (!opts_.checkpoint_path.empty()) {
    ckpt_store_.open(opts_.checkpoint_path);
    auto load = ckpt_store_.load_latest_valid();
    if (load.found_any && !load.ok) {
      std::fprintf(stderr,
                   "[ecl::svc] no valid checkpoint (%s); falling back to full WAL replay\n",
                   load.error.c_str());
    }
    if (load.ok && load.data.n != num_vertices_) {
      throw std::runtime_error(
          "ecl::svc checkpoint vertex count mismatch: checkpoint has " +
          std::to_string(load.data.n) + ", service has " +
          std::to_string(num_vertices_));
    }
    if (load.ok && load.data.watermark < applied_edges_.load(std::memory_order_acquire)) {
      // Predates the seed graph this ctor was given: installing it would
      // drop seed edges from the watermark accounting. Start from the seed.
      std::fprintf(stderr,
                   "[ecl::svc] ignoring checkpoint older than the seed graph\n");
    } else if (load.ok) {
      covered_seq = load.data.wal_seq;
      // read_file() has checked that the labels are a canonical forest —
      // the paper's Fini output, every vertex pointing straight at its
      // component's minimum. That is already a valid flat parent array, so
      // it is installed as the live union-find with one copy and no unions
      // (superseding the seed graph, if any), and published as the first
      // snapshot. Restart cost is read + CRC + validate + copy, independent
      // of lifetime ingest.
      auto snap = std::make_shared<Snapshot>();
      snap->epoch = load.data.epoch;
      snap->watermark = load.data.watermark;
      snap->labels = std::move(load.data.labels);
      snap->num_components = count_roots(snap->labels);
      live_.assign_labels(snap->labels);
      applied_edges_.store(snap->watermark, std::memory_order_release);
      has_ckpt_.store(true, std::memory_order_release);
      last_ckpt_epoch_.store(snap->epoch, std::memory_order_relaxed);
      last_ckpt_watermark_.store(snap->watermark, std::memory_order_relaxed);
      last_ckpt_ms_.store(now_ms(), std::memory_order_relaxed);
      ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.loads", 1);
      ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.loaded_edges", snap->watermark);
      snapshot_.store(std::move(snap));
    }
  }
  if (snapshot_.load(std::memory_order_relaxed) == nullptr) run_compaction();
  ckpt_covered_seq_.store(covered_seq, std::memory_order_relaxed);

  if (opts_.wal_path.empty()) return;
  std::string err;
  if (!SegmentedWal::adopt_legacy(opts_.wal_path, &err)) {
    throw std::runtime_error("ecl::svc WAL adopt failed: " + err);
  }
  auto rep = SegmentedWal::replay(opts_.wal_path, covered_seq);
  if (!rep.ok || rep.truncate_failed) {
    // truncate_failed: the recovered edges are fine but the tail segment
    // still ends in garbage a future append would land after — refuse to
    // reopen it for writing rather than strand those future records.
    throw std::runtime_error("ecl::svc WAL replay failed: " + rep.error);
  }
  if (!rep.edges.empty()) {
    std::erase_if(rep.edges, [this](const Edge& e) {
      return e.first >= num_vertices_ || e.second >= num_vertices_;
    });
    // Ctor: no other thread runs yet, so no apply_mu_.
    live_.add_edges(rep.edges.data(), rep.edges.size());
    applied_edges_.fetch_add(rep.edges.size(), std::memory_order_release);
    replayed_edges_ = rep.edges.size();
    // Synchronous: threads are not running yet, and the first published
    // snapshot must already reflect everything the WAL recovered.
    run_compaction();
  }
  if (opts_.replica) {
    // A replica never appends: the Replicator mirrors the primary's raw
    // segment bytes into these same files, and opening one for writing
    // here would stamp a header into (or fsync-race) the mirror. Recovery
    // above already replayed everything; just surface the mirror geometry.
    std::uint64_t segs = 0;
    std::uint64_t bytes = 0;
    for (const auto& f : list_numbered_files(opts_.wal_path)) {
      ++segs;
      bytes += f.bytes;
    }
    wal_segments_.store(segs, std::memory_order_relaxed);
    wal_bytes_.store(bytes, std::memory_order_relaxed);
    return;
  }
  SegmentedWalOptions sopts;
  sopts.wal = opts_.wal;
  sopts.segment_bytes = opts_.wal_segment_bytes;
  if (!wal_.open(opts_.wal_path, sopts, covered_seq + 1, &err)) {
    throw std::runtime_error("ecl::svc WAL open failed: " + err);
  }
  wal_segments_.store(wal_.segment_count(), std::memory_order_relaxed);
  wal_bytes_.store(wal_.total_bytes(), std::memory_order_relaxed);
}

void ConnectivityService::enter_degraded(const char* reason) {
  if (!degraded_.exchange(true, std::memory_order_acq_rel)) {
    degraded_entries_.fetch_add(1, std::memory_order_relaxed);
    ECL_OBS_COUNTER_ADD("ecl.svc.degraded.entries", 1);
    std::fprintf(stderr, "[ecl::svc] entering read-only degraded mode: %s\n", reason);
  }
}

ConnectivityService::~ConnectivityService() { stop(); }

void ConnectivityService::start_threads() {
  // Two long-lived tasks park on the executor's two workers for the
  // service's whole lifetime. The done flags stand in for thread joins:
  // stop() waits on them (under progress_mu_) instead of calling join(),
  // and only then drains the executor.
  const bool ingest_ok = exec_.submit([this] {
    ingest_loop();
    {
      std::lock_guard<std::mutex> lock(progress_mu_);
      ingest_done_ = true;
    }
    progress_cv_.notify_all();
    compact_cv_.notify_all();
  });
  const bool compact_ok = exec_.submit([this] {
    try {
      compact_loop();
    } catch (const std::exception& e) {
      // A compaction failure (e.g. allocation) must not strand stop()
      // waiters or crash the process; degrade and keep serving reads.
      std::fprintf(stderr, "[ecl::svc] compaction worker died: %s\n", e.what());
      enter_degraded("compaction worker died");
    }
    {
      std::lock_guard<std::mutex> lock(progress_mu_);
      compact_done_ = true;
    }
    progress_cv_.notify_all();
    compact_cv_.notify_all();
  });
  if (!ingest_ok || !compact_ok) {
    throw std::runtime_error("ecl::svc executor rejected a background loop");
  }
}

Admission ConnectivityService::submit(EdgeBatch batch) {
  if (stopped_.load(std::memory_order_acquire)) return Admission::kClosed;
  if (degraded_.load(std::memory_order_acquire)) {
    // Read-only mode: shed instead of accepting writes we can neither
    // durably log nor (if the worker died) ever apply.
    shed_batches_.fetch_add(1, std::memory_order_relaxed);
    ECL_OBS_COUNTER_ADD("ecl.svc.ingest.shed", 1);
    return Admission::kShed;
  }
  if (replica_.load(std::memory_order_acquire)) {
    // Replicas take writes only from the replication stream. The server
    // maps this to Status::kNotPrimary before even calling submit(); this
    // guard covers in-process callers.
    shed_batches_.fetch_add(1, std::memory_order_relaxed);
    ECL_OBS_COUNTER_ADD("ecl.svc.ingest.shed", 1);
    return Admission::kShed;
  }
  const bool wal_on = wal_healthy_.load(std::memory_order_acquire) && !opts_.wal_path.empty();
  EdgeBatch wal_copy;
  if (wal_on) wal_copy = batch;
  const Admission verdict = queue_.try_push(std::move(batch));
  switch (verdict) {
    case Admission::kAccepted:
      accepted_batches_.fetch_add(1, std::memory_order_relaxed);
      ECL_OBS_COUNTER_ADD("ecl.svc.ingest.batches", 1);
      break;
    case Admission::kShed:
      shed_batches_.fetch_add(1, std::memory_order_relaxed);
      ECL_OBS_COUNTER_ADD("ecl.svc.ingest.shed", 1);
      break;
    case Admission::kClosed:
      break;
  }
  ECL_OBS_GAUGE_SET("ecl.svc.queue.depth", static_cast<double>(queue_.size()));
  if (verdict == Admission::kAccepted && wal_on) {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (!wal_.append(wal_copy)) {
      wal_healthy_.store(false, std::memory_order_release);
      enter_degraded("WAL append/fsync failed");
      // The batch is already queued and will be applied, but durability was
      // not achieved: answer kShed so the caller does not treat it as acked.
      return Admission::kShed;
    }
    wal_records_.fetch_add(1, std::memory_order_relaxed);
    wal_segments_.store(wal_.segment_count(), std::memory_order_relaxed);
    wal_bytes_.store(wal_.total_bytes(), std::memory_order_relaxed);
  }
  return verdict;
}

void ConnectivityService::ingest_loop() {
  try {
    ingest_loop_body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[ecl::svc] ingest worker died: %s\n", e.what());
    ingest_alive_.store(false, std::memory_order_release);
    enter_degraded("ingest worker died");
    // Wake flush()/compact_now() waiters — progress will never advance, and
    // their predicates check ingest_alive_ precisely so they don't hang.
    progress_cv_.notify_all();
    compact_cv_.notify_all();
  }
}

void ConnectivityService::ingest_loop_body() {
  EdgeBatch batch;
  while (queue_.pop(batch)) {
    if (ECL_FAULT_POINT("svc.ingest.worker").fired()) {
      throw std::runtime_error("injected fault: svc.ingest.worker");
    }
    ECL_OBS_SPAN(span, "svc.batch", "svc");
    Timer t;
    if (opts_.ingest_delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(opts_.ingest_delay_us));
    }
    apply_batch(batch);
    ECL_OBS_COUNTER_ADD("ecl.svc.ingest.edges", batch.size());
    ECL_OBS_HISTOGRAM_RECORD("ecl.svc.batch_apply_us",
                             ::ecl::obs::Histogram::pow2_bounds(22),
                             static_cast<std::uint64_t>(t.micros()));
    ECL_OBS_GAUGE_SET("ecl.svc.queue.depth", static_cast<double>(queue_.size()));
    span.arg("edges", static_cast<std::uint64_t>(batch.size()));
  }
}

void ConnectivityService::apply_batch(EdgeBatch& batch) {
  // Drop edges outside the vertex universe; everything else is applied.
  const std::size_t before = batch.size();
  std::erase_if(batch, [this](const Edge& e) {
    return e.first >= num_vertices_ || e.second >= num_vertices_;
  });
  if (const std::size_t invalid = before - batch.size(); invalid > 0) {
    ECL_OBS_COUNTER_ADD("ecl.svc.ingest.invalid_edges", invalid);
  }
  {
    // The count advances with the hooks, under the lock the compaction's
    // copy takes, so every snapshot's watermark is exactly the edges its
    // labels reflect — and never exceeds applied_edges_, which the unsigned
    // staleness arithmetic depends on.
    std::lock_guard<std::mutex> lock(apply_mu_);
    live_.add_edges(batch.data(), batch.size());
    applied_edges_.fetch_add(batch.size(), std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    applied_batches_.fetch_add(1, std::memory_order_release);
  }
  progress_cv_.notify_all();
  compact_cv_.notify_all();
}

void ConnectivityService::compact_loop() {
  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::milliseconds(
      std::max(1, opts_.compact_interval_ms));
  // An unforced compaction starts no sooner than kCooldownFactor times the
  // previous one's duration after it ended, and never later than the
  // interval. Each copy blocks the apply path, so on a large universe
  // (copies of milliseconds) they run about once per interval, while on a
  // small one (copies of microseconds) each applied batch wakes one.
  constexpr int kCooldownFactor = 4;
  Clock::time_point ready_at = Clock::now();
  for (;;) {
    bool exiting = false;
    bool want_ckpt = false;
    {
      std::unique_lock<std::mutex> lock(progress_mu_);
      const Clock::time_point deadline = Clock::now() + interval;
      for (;;) {
        if (stopping_ || force_checkpoint_ || rebase_pending()) break;
        const std::uint64_t watermark = snapshot_.load(std::memory_order_acquire)->watermark;
        const std::uint64_t applied = applied_edges_.load(std::memory_order_acquire);
        if (force_watermark_ > watermark) break;
        const bool enough =
            applied > watermark && applied - watermark >= opts_.compact_min_new_edges;
        const Clock::time_point now = Clock::now();
        if (now >= deadline || (enough && now >= ready_at)) break;
        compact_cv_.wait_until(lock, enough ? ready_at : deadline);
      }
      exiting = stopping_;
      want_ckpt = force_checkpoint_;
      force_checkpoint_ = false;
    }
    const auto snap = snapshot_.load(std::memory_order_acquire);
    const std::uint64_t applied = applied_edges_.load(std::memory_order_acquire);
    bool forced = false;
    {
      std::lock_guard<std::mutex> lock(progress_mu_);
      forced = force_watermark_ > snap->watermark;
    }
    const bool pending = applied > snap->watermark;
    if (rebase_pending() ||
        (pending && (forced || exiting ||
                     applied - snap->watermark >= opts_.compact_min_new_edges))) {
      const auto start = Clock::now();
      run_compaction();
      const auto end = Clock::now();
      ready_at = end + std::min<Clock::duration>(interval, kCooldownFactor * (end - start));
    }
    // Checkpoint after compaction so the drained/exit path persists the
    // final snapshot: a clean stop leaves a checkpoint covering everything,
    // making the *next* boot instant.
    maybe_checkpoint(want_ckpt, exiting);
    if (exiting) return;
  }
}

void ConnectivityService::maybe_checkpoint(bool force, bool exiting) {
  if (opts_.checkpoint_path.empty()) return;
  // Replicas never checkpoint: their durable state is the mirrored WAL +
  // the bootstrap checkpoint, and a checkpoint cut would rotate a WAL this
  // service does not own. Promotion flips replica_ and the next compaction
  // cycle resumes checkpointing naturally.
  if (replica_.load(std::memory_order_acquire)) return;
  const std::uint64_t applied = applied_edges_.load(std::memory_order_acquire);
  const bool progressed =
      !has_ckpt_.load(std::memory_order_acquire) ||
      applied > last_ckpt_watermark_.load(std::memory_order_relaxed);
  bool due = force;
  if (!due && exiting) due = progressed;
  if (!due && opts_.checkpoint_interval_ms > 0 && progressed && applied > 0) {
    due = now_ms() - last_ckpt_ms_.load(std::memory_order_relaxed) >=
          static_cast<std::uint64_t>(opts_.checkpoint_interval_ms);
  }
  if (due) (void)do_checkpoint();
}

bool ConnectivityService::do_checkpoint() {
  ECL_OBS_SPAN(span, "svc.checkpoint", "svc");
  Timer t;

  // The cut. Rotating under wal_mu_ seals every record appended so far;
  // reading accepted_batches_ inside the same critical section means every
  // batch whose record landed in a sealed segment is counted (submit()
  // increments before it appends, and its wal_mu_ release happens-before
  // our acquire). Waiting for applied >= that count below therefore
  // guarantees the compacted snapshot covers all sealed segments.
  std::uint64_t cut_seq = 0;
  std::uint64_t accepted_at_cut = 0;
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    cut_seq = wal_.active_seq();
    if (wal_.is_open()) {
      std::string err;
      if (!wal_.rotate(&err)) {
        wal_healthy_.store(false, std::memory_order_release);
        enter_degraded(("WAL rotate failed: " + err).c_str());
        // The sealed segments (<= cut_seq) are still intact on disk; the
        // checkpoint below remains correct and worth writing.
      }
    }
    accepted_at_cut = accepted_batches_.load(std::memory_order_acquire);
  }
  {
    std::unique_lock<std::mutex> lock(progress_mu_);
    progress_cv_.wait(lock, [&] {
      return applied_batches_.load(std::memory_order_acquire) >= accepted_at_cut ||
             !ingest_alive_.load(std::memory_order_acquire) || stopping_;
    });
    if (applied_batches_.load(std::memory_order_acquire) < accepted_at_cut) {
      // Worker died (or we are draining) with batches unapplied: a
      // checkpoint here could cover sealed records that were never folded
      // in. Skip; the WAL still has everything.
      ckpt_attempts_.fetch_add(1, std::memory_order_release);
      compact_cv_.notify_all();
      return false;
    }
  }
  run_compaction();
  const auto snap = snapshot_.load(std::memory_order_acquire);

  CheckpointHeader header;
  header.n = static_cast<std::uint32_t>(num_vertices_);
  header.watermark = snap->watermark;
  header.epoch = snap->epoch;
  header.wal_seq = cut_seq;
  auto wr = ckpt_store_.write(header, snap->labels);
  if (!wr.ok) {
    std::fprintf(stderr, "[ecl::svc] checkpoint write failed: %s\n", wr.error.c_str());
    ckpt_attempts_.fetch_add(1, std::memory_order_release);
    compact_cv_.notify_all();
    return false;
  }

  ckpt_covered_seq_.store(cut_seq, std::memory_order_relaxed);
  has_ckpt_.store(true, std::memory_order_release);
  ckpt_written_.fetch_add(1, std::memory_order_release);
  last_ckpt_epoch_.store(snap->epoch, std::memory_order_relaxed);
  last_ckpt_watermark_.store(snap->watermark, std::memory_order_relaxed);
  last_ckpt_ms_.store(now_ms(), std::memory_order_relaxed);
  ECL_OBS_GAUGE_SET("ecl.svc.ckpt.last_epoch", static_cast<double>(snap->epoch));
  ECL_OBS_HISTOGRAM_RECORD("ecl.svc.ckpt_ms", ::ecl::obs::Histogram::pow2_bounds(16),
                           static_cast<std::uint64_t>(t.millis()));

  // Retention: retire segments the *oldest retained* checkpoint covers, so
  // a fallback load (corrupt newest checkpoint) never misses a segment —
  // further lowered to the slowest live replica's fetch position, so a
  // lagging replica is never cut off mid-stream (a replica unseen past
  // replica_hold_ms stops holding the floor and re-bootstraps instead).
  const std::uint64_t floor =
      std::min(ckpt_store_.retention_floor_wal_seq(), replica_fetch_floor());
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (floor > 0 && floor != UINT64_MAX) (void)wal_.retire_through(floor);
    wal_segments_.store(wal_.segment_count(), std::memory_order_relaxed);
    wal_bytes_.store(wal_.total_bytes(), std::memory_order_relaxed);
  }
  span.arg("epoch", snap->epoch);
  span.arg("watermark", snap->watermark);
  span.arg("bytes", wr.bytes);
  ckpt_attempts_.fetch_add(1, std::memory_order_release);
  compact_cv_.notify_all();
  return true;
}

bool ConnectivityService::checkpoint_now() {
  if (opts_.checkpoint_path.empty() || stopped_.load(std::memory_order_acquire)) {
    return false;
  }
  const std::uint64_t written_before = ckpt_written_.load(std::memory_order_acquire);
  const std::uint64_t target = ckpt_attempts_.load(std::memory_order_acquire) + 1;
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    force_checkpoint_ = true;
  }
  compact_cv_.notify_all();
  std::unique_lock<std::mutex> lock(progress_mu_);
  compact_cv_.wait(lock, [&] {
    return ckpt_attempts_.load(std::memory_order_acquire) >= target ||
           stopped_.load(std::memory_order_acquire);
  });
  return ckpt_written_.load(std::memory_order_acquire) > written_before;
}

void ConnectivityService::run_compaction() {
  ECL_OBS_SPAN(span, "svc.compact", "svc");
  Timer t;
  auto snap = std::make_shared<Snapshot>();
  const SnapshotPtr prev = snapshot_.load(std::memory_order_acquire);
  snap->epoch = prev ? prev->epoch + 1 : 0;
  // Sized (and its pages faulted in) before the lock: the critical section
  // is the copy alone.
  snap->labels.resize(num_vertices_);
  std::uint64_t rebases = 0;
  {
    std::lock_guard<std::mutex> lock(apply_mu_);
    live_.copy_parents(snap->labels);
    snap->watermark = applied_edges_.load(std::memory_order_relaxed);
    rebases = rebases_.load(std::memory_order_relaxed);
  }
  snap->num_components = finalize(snap->labels);
  snap->build_ms = t.millis();

  span.arg("epoch", snap->epoch);
  span.arg("watermark", snap->watermark);
  span.arg("components", static_cast<std::uint64_t>(snap->num_components));
  snapshot_.store(snap, std::memory_order_release);
  published_rebases_.store(rebases, std::memory_order_release);

  ECL_OBS_COUNTER_ADD("ecl.svc.compactions", 1);
  ECL_OBS_GAUGE_SET("ecl.svc.epoch", static_cast<double>(snap->epoch));
  const std::uint64_t applied_now = applied_edges_.load(std::memory_order_acquire);
  ECL_OBS_GAUGE_SET("ecl.svc.staleness_edges",
                    static_cast<double>(
                        applied_now > snap->watermark ? applied_now - snap->watermark : 0));
  ECL_OBS_HISTOGRAM_RECORD("ecl.svc.compact_ms",
                           ::ecl::obs::Histogram::pow2_bounds(16),
                           static_cast<std::uint64_t>(snap->build_ms));
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
  }
  compact_cv_.notify_all();
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
  const std::uint64_t target = applied_edges_.load(std::memory_order_acquire);
  const std::uint64_t target_rebases = rebases_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    force_watermark_ = std::max(force_watermark_, target);
  }
  compact_cv_.notify_all();
  std::unique_lock<std::mutex> lock(progress_mu_);
  compact_cv_.wait(lock, [&] {
    return (snapshot_.load(std::memory_order_acquire)->watermark >= target &&
            published_rebases_.load(std::memory_order_acquire) >= target_rebases) ||
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
  {
    std::unique_lock<std::mutex> lock(progress_mu_);
    progress_cv_.wait(lock, [&] { return ingest_done_; });
    stopping_ = true;
  }
  // Both cvs, *before* the wait: the compaction task may be blocked in
  // do_checkpoint()'s progress_cv_ wait, whose predicate reads stopping_.
  compact_cv_.notify_all();
  progress_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(progress_mu_);
    compact_cv_.wait(lock, [&] { return compact_done_; });
  }
  progress_cv_.notify_all();
  compact_cv_.notify_all();
  exec_.drain();
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    wal_.close();  // fsyncs any unsynced tail (per policy) before closing
  }
}

bool ConnectivityService::connected(vertex_t u, vertex_t v, ReadMode mode) {
  if (u >= num_vertices_ || v >= num_vertices_) return false;
  ECL_OBS_COUNTER_ADD("ecl.svc.reads.connected", 1);
  if (mode == ReadMode::kFresh) return live_.connected(u, v);
  const auto snap = snapshot_.load(std::memory_order_acquire);
  return snap->connected(u, v);
}

vertex_t ConnectivityService::component_of(vertex_t v, ReadMode mode) {
  if (v >= num_vertices_) return kInvalidVertex;
  ECL_OBS_COUNTER_ADD("ecl.svc.reads.component_of", 1);
  if (mode == ReadMode::kFresh) return live_.component_of(v);
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
  s.wal_segments = wal_segments_.load(std::memory_order_relaxed);
  s.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
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

void ConnectivityService::apply_replicated(EdgeBatch batch) {
  accepted_batches_.fetch_add(1, std::memory_order_relaxed);
  apply_batch(batch);
  wal_records_.fetch_add(1, std::memory_order_relaxed);
  ECL_OBS_COUNTER_ADD("ecl.svc.replica.applied_edges", batch.size());
}

void ConnectivityService::set_replication_lag(std::uint64_t lag_seq,
                                              std::uint64_t lag_ms) {
  repl_lag_seq_.store(lag_seq, std::memory_order_relaxed);
  repl_lag_ms_.store(lag_ms, std::memory_order_relaxed);
  ECL_OBS_GAUGE_SET("ecl.svc.replica.lag_seq", static_cast<double>(lag_seq));
  ECL_OBS_GAUGE_SET("ecl.svc.replica.lag_ms", static_cast<double>(lag_ms));
}

void ConnectivityService::set_replica_wal_stats(std::uint64_t segments,
                                                std::uint64_t bytes) {
  wal_segments_.store(segments, std::memory_order_relaxed);
  wal_bytes_.store(bytes, std::memory_order_relaxed);
}

bool ConnectivityService::rebase_to_checkpoint(const CheckpointData& data) {
  if (!replica_.load(std::memory_order_acquire)) return false;
  if (data.n != num_vertices_) return false;
  {
    std::lock_guard<std::mutex> lock(apply_mu_);
    if (has_ckpt_.load(std::memory_order_acquire) &&
        data.watermark < last_ckpt_watermark_.load(std::memory_order_relaxed)) {
      return false;
    }
    // Uniting each vertex with its label is safe even where the live
    // structure already has the component: unions are idempotent, and
    // connectivity on a replica only ever grows. The labels' edges count as
    // applied, so the watermark covers a superset of them from here on.
    for (vertex_t v = 0; v < num_vertices_; ++v) {
      if (data.labels[v] != v) live_.add_edge(v, data.labels[v]);
    }
    const std::uint64_t applied = applied_edges_.load(std::memory_order_relaxed);
    applied_edges_.store(std::max(applied, data.watermark), std::memory_order_release);
    ckpt_covered_seq_.store(data.wal_seq, std::memory_order_relaxed);
    has_ckpt_.store(true, std::memory_order_release);
    last_ckpt_epoch_.store(data.epoch, std::memory_order_relaxed);
    last_ckpt_watermark_.store(data.watermark, std::memory_order_relaxed);
    last_ckpt_ms_.store(now_ms(), std::memory_order_relaxed);
    // Counted even when applied_edges_ did not rise: the compaction loop
    // publishes the rebased labels at once (as epoch + 1: publishing the
    // checkpoint's own epoch could move it backwards relative to what
    // readers already saw).
    rebases_.fetch_add(1, std::memory_order_release);
  }
  ECL_OBS_COUNTER_ADD("ecl.svc.replica.rebases", 1);
  {
    // Orders the count before the compaction loop's next predicate check.
    std::lock_guard<std::mutex> lock(progress_mu_);
  }
  compact_cv_.notify_all();
  return true;
}

std::uint64_t ConnectivityService::checkpoint_covered_wal_seq() {
  return ckpt_covered_seq_.load(std::memory_order_relaxed);
}

std::uint64_t ConnectivityService::replica_fetch_floor() {
  const std::uint64_t now = now_ms();
  const std::uint64_t hold =
      static_cast<std::uint64_t>(std::max(0, opts_.replica_hold_ms));
  std::uint64_t floor = UINT64_MAX;
  std::size_t live = 0;
  {
    std::lock_guard<std::mutex> lock(replicas_mu_);
    for (auto it = replicas_.begin(); it != replicas_.end();) {
      if (now - it->second.last_seen_ms > hold) {
        it = replicas_.erase(it);  // dead replica: stop holding retention
        continue;
      }
      ++live;
      const std::uint64_t need = it->second.fetch_seq;
      floor = std::min(floor, need > 0 ? need - 1 : 0);
      ++it;
    }
  }
  replicas_connected_.store(live, std::memory_order_relaxed);
  ECL_OBS_GAUGE_SET("ecl.svc.replica.connected", static_cast<double>(live));
  return floor;
}

CkptImage ConnectivityService::fetch_checkpoint_image() const {
  CkptImage out;
  if (opts_.checkpoint_path.empty()) return out;
  // Checkpoint files are written tmp -> rename and only ever unlinked, never
  // modified in place, so a successfully opened file is immutable. Retry by
  // listing again if the newest file vanishes under us (keep-2 rotation).
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto files = list_numbered_files(opts_.checkpoint_path);
    bool raced = false;
    for (auto it = files.rbegin(); it != files.rend(); ++it) {
      CheckpointData data;
      std::string err;
      if (!CheckpointStore::read_file(it->path, &data, &err)) {
        struct stat st{};
        if (::stat(it->path.c_str(), &st) != 0 && errno == ENOENT) {
          raced = true;
          break;  // rotation won; take a fresh listing
        }
        continue;  // genuinely invalid file: fall back to the next-newest
      }
      const int fd = ::open(it->path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        raced = errno == ENOENT;
        if (raced) break;
        continue;
      }
      struct stat st{};
      if (::fstat(fd, &st) != 0) {
        ::close(fd);
        continue;
      }
      std::vector<std::uint8_t> image(static_cast<std::size_t>(st.st_size));
      std::size_t done = 0;
      bool read_ok = true;
      while (done < image.size()) {
        const ssize_t r = ::read(fd, image.data() + done, image.size() - done);
        if (r < 0) {
          if (errno == EINTR) continue;
          read_ok = false;
          break;
        }
        if (r == 0) break;
        done += static_cast<std::size_t>(r);
      }
      ::close(fd);
      if (!read_ok || done != image.size()) continue;
      out.has = true;
      out.seq = it->seq;
      out.wal_seq = data.wal_seq;
      out.image = std::move(image);
      ECL_OBS_COUNTER_ADD("ecl.svc.replica.ckpt_serves", 1);
      return out;
    }
    if (!raced) break;
  }
  return out;
}

WalChunk ConnectivityService::fetch_wal_chunk(std::uint64_t replica_id,
                                              std::uint64_t seq, std::uint64_t offset,
                                              std::uint32_t max_bytes) {
  WalChunk out;
  out.seq = seq;
  out.offset = offset;
  if (opts_.wal_path.empty() || seq == 0) return out;
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
    const std::uint64_t now = now_ms();
    const auto hold = static_cast<std::uint64_t>(
        opts_.replica_hold_ms > 0 ? opts_.replica_hold_ms : 0);
    std::lock_guard<std::mutex> lock(replicas_mu_);
    auto& peer = replicas_[replica_id];
    peer.fetch_seq = seq;
    peer.last_seen_ms = now;
    for (auto it = replicas_.begin(); it != replicas_.end();) {
      if (now - it->second.last_seen_ms > hold) {
        it = replicas_.erase(it);
      } else {
        ++it;
      }
    }
    replicas_connected_.store(replicas_.size(), std::memory_order_release);
    ECL_OBS_GAUGE_SET("ecl.svc.replica.connected",
                      static_cast<double>(replicas_.size()));
  }
  // File I/O deliberately outside wal_mu_: a slow disk serving a replica
  // must not stall ingest appends. WalSegmentReader is rotation/retirement
  // safe on its own (satellite: open-by-name + ENOENT retry).
  auto chunk = WalSegmentReader::read(opts_.wal_path, seq, offset, max_bytes);
  if (!chunk.ok) return out;  // server answers kError
  out.ok = true;
  out.retired = chunk.retired;
  out.sealed = chunk.exists && seq < active;
  out.segment_bytes = chunk.segment_bytes;
  out.active_seq = active;
  out.data = std::move(chunk.data);
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
  const std::uint64_t covered = ckpt_covered_seq_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (!opts_.wal_path.empty()) {
      // The mirror's final segment may end mid-record (the Replicator was
      // stopped between chunks). Those bytes were never parsed or applied,
      // so cutting them loses nothing — and the WAL must end on a record
      // boundary before it can take appends again.
      const auto segments = list_numbered_files(opts_.wal_path);
      if (!segments.empty()) {
        auto rep = WriteAheadLog::replay_and_truncate(segments.back().path,
                                                      /*truncate_tail=*/true);
        if (!rep.ok || rep.truncate_failed) {
          if (err != nullptr) {
            *err = "promote: mirrored WAL tail unusable: " + rep.error;
          }
          return false;
        }
      }
      SegmentedWalOptions sopts;
      sopts.wal = opts_.wal;
      sopts.segment_bytes = opts_.wal_segment_bytes;
      std::string werr;
      if (!wal_.open(opts_.wal_path, sopts, covered + 1, &werr)) {
        if (err != nullptr) *err = "promote: WAL open failed: " + werr;
        return false;
      }
      wal_segments_.store(wal_.segment_count(), std::memory_order_relaxed);
      wal_bytes_.store(wal_.total_bytes(), std::memory_order_relaxed);
    }
  }
  replica_.store(false, std::memory_order_release);
  set_replication_lag(0, 0);
  ECL_OBS_COUNTER_ADD("ecl.svc.replica.promotions", 1);
  ECL_OBS_GAUGE_SET("ecl.svc.role", 0.0);
  std::fprintf(stderr, "[ecl::svc] promoted to primary (wal tail seq >= %llu)\n",
               static_cast<unsigned long long>(covered + 1));
  // Wake the compaction thread: checkpointing (disabled while a replica)
  // resumes on its next cycle.
  compact_cv_.notify_all();
  return true;
}

}  // namespace ecl::svc
