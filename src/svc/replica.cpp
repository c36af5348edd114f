#include "svc/replica.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "svc/wal.h"

namespace ecl::svc {

namespace {

std::uint64_t mono_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::unique_ptr<Client> connect_primary(const ReplicatorOptions& opts) {
  return opts.unix_path.empty() ? Client::connect_tcp(opts.host, opts.port)
                                : Client::connect_unix(opts.unix_path);
}

}  // namespace

Replicator::Replicator(ConnectivityService& service, ReplicatorOptions opts)
    : service_(service), opts_(std::move(opts)) {
  if (opts_.replica_id == 0) {
    // Stable enough for a retention-registry key: distinct per process,
    // and across quick restarts of the same pid slot.
    opts_.replica_id =
        (static_cast<std::uint64_t>(::getpid()) << 32) ^ mono_ms() ^ 1u;
  }
}

Replicator::~Replicator() { stop(); }

bool Replicator::start(std::string* err) {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (thread_.joinable()) return true;
  if (stopping_.load(std::memory_order_acquire)) {
    if (err != nullptr) *err = "replicator: stopped; start a fresh Replicator";
    return false;
  }
  // Resume where the local log ends. The service ctor replayed it and
  // opened its highest segment, whose size is a record boundary (records
  // are logged whole) with everything before it applied.
  std::tie(cur_seq_, file_bytes_) = service_.wal_end();
  if (cur_seq_ == 0) {
    if (err != nullptr) *err = "replicator: the service has no WAL";
    return false;
  }
  decoder_ = WalDecoder(file_bytes_);
  caught_up_at_ms_ = mono_ms();
  thread_ = std::thread([this] { run(); });
  return true;
}

void Replicator::stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  {
    std::lock_guard<std::mutex> wake(wake_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Replicator::run() {
  // The first tick runs at once, so a replica starts converging (and
  // registering for retention) without waiting out an interval.
  const auto interval = std::chrono::milliseconds(std::max(1, opts_.fetch_interval_ms));
  for (;;) {
    fetch_tick();
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (wake_cv_.wait_for(lock, interval,
                          [this] { return stopping_.load(std::memory_order_acquire); })) {
      return;
    }
  }
}

void Replicator::fetch_tick() {
  fetch_rounds_.fetch_add(1, std::memory_order_relaxed);
  // Drain until caught up (or stalled), bounded so one tick can't spin
  // forever against a primary ingesting faster than we parse. A degraded
  // service logs nothing more until restart, so it fetches nothing more.
  for (int i = 0; i < 256 && !stopping_.load(std::memory_order_acquire) &&
                  !service_.degraded();
       ++i) {
    if (!fetch_once()) break;
  }
}

bool Replicator::ensure_client() {
  if (client_ != nullptr) return true;
  client_ = connect_primary(opts_);
  ServiceStats primary;
  if (client_ != nullptr && client_->stats(primary)) {
    if (primary.num_vertices == service_.num_vertices()) return true;
    if (!std::exchange(refused_logged_, true)) {
      std::fprintf(stderr,
                   "[ecl::svc::replica] refusing a primary of %llu vertices: this "
                   "replica has %u\n",
                   static_cast<unsigned long long>(primary.num_vertices),
                   service_.num_vertices());
    }
  }
  client_.reset();
  ECL_OBS_COUNTER_ADD("ecl.svc.replica.connect_errors", 1);
  return false;
}

bool Replicator::fetch_once() {
  if (!ensure_client()) {
    fetch_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  WalChunk chunk;
  Status st = Status::kOk;
  if (!client_->fetch_wal(opts_.replica_id, cur_seq_, file_bytes_,
                          opts_.fetch_max_bytes, chunk, &st)) {
    fetch_errors_.fetch_add(1, std::memory_order_relaxed);
    ECL_OBS_COUNTER_ADD("ecl.svc.replica.fetch_errors", 1);
    if (st == Status::kError) client_.reset();  // transport: reconnect lazily
    return false;
  }
  if (chunk.retired) {
    // We fell behind the primary's retention floor (e.g. this replica was
    // dead past replica_hold_ms). Streaming can't resume from here.
    return rebootstrap() && false;
  }

  if (!chunk.data.empty()) {
    // A record partly fetched stays in the decoder, never in the local WAL:
    // apply_replicated() logs each whole record before applying it.
    file_bytes_ += chunk.data.size();
    decoder_.feed(chunk.data);
    std::vector<Edge> batch;
    auto verdict = WalDecoder::Status::kRecord;
    while ((verdict = decoder_.next(&batch)) == WalDecoder::Status::kRecord) {
      if (!service_.apply_replicated(std::exchange(batch, {}))) return false;  // degraded
      applied_records_.fetch_add(1, std::memory_order_relaxed);
    }
    if (verdict != WalDecoder::Status::kNeedMore) {
      // Framing/CRC mismatch: the stream diverged from the primary (disk
      // fault, or a primary that was itself replaced). Start over.
      ECL_OBS_COUNTER_ADD("ecl.svc.replica.parse_errors", 1);
      return rebootstrap() && false;
    }
  }

  if (chunk.sealed && file_bytes_ >= chunk.segment_bytes && decoder_.offset() > 0) {
    if (decoder_.pending() > 0) {
      // A sealed segment always ends on a record boundary on the primary;
      // leftover bytes mean our stream of it diverged.
      ECL_OBS_COUNTER_ADD("ecl.svc.replica.parse_errors", 1);
      return rebootstrap() && false;
    }
    service_.seal_replicated_segment();
    ++cur_seq_;
    file_bytes_ = 0;
    decoder_ = WalDecoder();
    publish_lag(chunk.active_seq, /*caught_up=*/false);
    return true;  // keep draining into the next segment
  }

  const bool caught_up = cur_seq_ >= chunk.active_seq &&
                         file_bytes_ >= chunk.segment_bytes;
  publish_lag(chunk.active_seq, caught_up);
  return !chunk.data.empty() && !caught_up;
}

bool Replicator::rebootstrap() {
  rebootstraps_.fetch_add(1, std::memory_order_relaxed);
  ECL_OBS_COUNTER_ADD("ecl.svc.replica.rebootstraps", 1);
  if (!ensure_client()) return false;
  CkptImage img;
  Status st = Status::kOk;
  if (!client_->fetch_ckpt(img, &st) || !img.has) {
    // A primary that retired our segment *must* have a checkpoint covering
    // it; failing to serve one is transient (or a config error) — retry on
    // the next tick.
    fetch_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::string err;
  if (!service_.rebase_to_image(img.image, &err)) {
    std::fprintf(stderr, "[ecl::svc::replica] rebootstrap: %s\n", err.c_str());
    return false;
  }
  // The service reset its WAL to the segment after the checkpoint's.
  cur_seq_ = service_.checkpoint_covered_wal_seq() + 1;
  file_bytes_ = 0;
  decoder_ = WalDecoder();
  std::fprintf(stderr,
               "[ecl::svc::replica] re-bootstrapped from the primary's checkpoint %llu "
               "(wal_seq %llu)\n",
               static_cast<unsigned long long>(img.seq),
               static_cast<unsigned long long>(cur_seq_ - 1));
  return true;
}

void Replicator::publish_lag(std::uint64_t active_seq, bool caught_up) {
  if (caught_up) {
    caught_up_at_ms_ = mono_ms();
    service_.set_replication_lag(0, 0);
    return;
  }
  const std::uint64_t lag_seq = active_seq > cur_seq_ ? active_seq - cur_seq_ : 0;
  service_.set_replication_lag(lag_seq, mono_ms() - caught_up_at_ms_);
}

}  // namespace ecl::svc
