// ecl::obs metrics — named counters, gauges, and fixed-bucket histograms.
//
// Design goals, in order:
//   1. Hot-path recording must be cheap enough to leave on in release builds:
//      counters are striped across cache-line-padded relaxed-atomic slots
//      (one stripe per thread, round-robin), so the OpenMP ports can count
//      CAS retries, hooks, and pointer-jump hops without a shared contended
//      cache line. Reads (value()/snapshot()) sum the stripes and are
//      allowed to be slow.
//   2. Everything compiles out: building with -DECL_OBS_DISABLED turns every
//      ECL_OBS_* record-site macro into `(void)0`. The classes themselves
//      keep a single, flag-independent definition (no ODR hazards when
//      instrumented and uninstrumented objects meet in one binary).
//   3. Metrics are identified by stable dotted names ("ecl.hook.cas_retries",
//      see docs/OBSERVABILITY.md for the naming scheme); the first lookup
//      registers, later lookups return the same instance, so record sites
//      can cache a reference in a function-local static.
//
// Snapshots are monotonic process-wide aggregates; callers that want
// per-run deltas diff two snapshots.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ecl::obs {

namespace detail {
/// Small dense id for the calling thread, assigned round-robin on first use;
/// used to pick a counter stripe and a trace tid.
std::size_t thread_index() noexcept;
}  // namespace detail

/// Monotonic counter. add() is wait-free and contention-free in the common
/// case (threads land on distinct cache lines); value() is O(stripes).
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;  // power of two

  void add(std::uint64_t delta = 1) noexcept {
    slots_[detail::thread_index() & (kStripes - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : slots_) sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (auto& s : slots_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Slot, kStripes> slots_;
};

/// Last-written double value (thread counts, configured scales, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram of non-negative integer samples. Bucket i counts
/// samples <= bounds[i] (first matching bucket); one implicit overflow
/// bucket catches the rest. Tracks exact count/sum/max alongside the
/// buckets, so aggregate statistics (e.g. the paper's Table 4 average and
/// maximum path lengths) are not quantized by the bucket bounds.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void record(std::uint64_t sample) noexcept {
    std::size_t i = 0;
    while (i < bounds_.size() && sample > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (sample > prev &&
           !max_.compare_exchange_weak(prev, sample, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double average() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Estimated q-quantile (q in [0, 1]) of the recorded samples, linearly
  /// interpolated within the containing bucket and clamped to the exact
  /// observed max, so the estimate never exceeds a real sample. Edge cases
  /// (empty, single sample, all samples in the overflow bucket) are defined
  /// by percentile_from_buckets below, which this delegates to. With
  /// concurrent recorders the result is a point-in-time approximation.
  [[nodiscard]] double percentile(double q) const noexcept;

  /// Upper bounds including the implicit overflow bucket (UINT64_MAX last).
  [[nodiscard]] std::vector<std::uint64_t> bounds() const;
  /// Per-bucket sample counts, parallel to bounds().
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  void reset() noexcept;

  /// {1, 2, 4, ..., 2^(n-1)}: geometric bounds suited to path lengths and
  /// other long-tailed integer samples.
  [[nodiscard]] static std::vector<std::uint64_t> pow2_bounds(unsigned n);

 private:
  std::vector<std::uint64_t> bounds_;               // ascending
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Estimated q-quantile over an explicit bucket array: `bounds` are the
/// ascending inclusive upper edges with the UINT64_MAX overflow sentinel
/// last (the shape Histogram::bounds() returns), `counts` the parallel
/// per-bucket sample counts. This is the one quantile implementation in the
/// repo — Histogram::percentile delegates here, so the edge cases are
/// defined once:
///
///   * no samples            -> 0.0 for every q (an empty histogram has no
///                              quantiles; 0 is the documented sentinel)
///   * q outside [0, 1]      -> clamped
///   * exactly one sample    -> that sample (the observed max) for every q
///   * samples only in the overflow bucket -> linear interpolation between
///     the largest finite bound and the observed max (the tightest correct
///     stand-in for the bucket's missing upper edge)
///   * every estimate is clamped to the observed max, so it never exceeds a
///     real sample
double percentile_from_buckets(const std::vector<std::uint64_t>& bounds,
                               const std::vector<std::uint64_t>& counts, double q,
                               std::uint64_t observed_max) noexcept;

/// One metric's state at snapshot time.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;  // counter value, or histogram sample count
  double value = 0.0;       // gauge value, or histogram average
  std::uint64_t sum = 0;    // histogram only
  std::uint64_t max = 0;    // histogram only
  double p50 = 0.0;         // histogram only: estimated quantiles
  double p95 = 0.0;
  double p99 = 0.0;
  // (upper_bound, count) pairs; the final pair's bound is UINT64_MAX.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/// Name -> metric map. Lookups take a mutex and may allocate; returned
/// references are stable for the registry's lifetime, so hot sites cache
/// them (the ECL_OBS_* macros below do this via a function-local static).
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is only consulted on first registration of `name`.
  Histogram& histogram(std::string_view name, std::vector<std::uint64_t> bounds);

  /// All metrics, sorted by name.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

 private:
  struct Impl;
  Impl& impl() const;
};

/// The process-wide registry every record site and exporter uses.
Registry& registry();

}  // namespace ecl::obs

// ---------------------------------------------------------------------------
// Record-site macros. These — not the classes — are the compile-out boundary:
// with ECL_OBS_DISABLED they expand to nothing, so instrumented headers add
// zero code to uninstrumented builds while the class definitions stay
// identical everywhere.
#if defined(ECL_OBS_DISABLED)

#define ECL_OBS_COUNTER_ADD(name_literal, delta) ((void)0)
#define ECL_OBS_GAUGE_SET(name_literal, v) ((void)0)
// Evaluates (and discards) the sample so locals feeding it stay used, but
// never touches the registry; `bounds` is not evaluated at all.
#define ECL_OBS_HISTOGRAM_RECORD(name_literal, bounds, sample) ((void)(sample))

#else

#define ECL_OBS_COUNTER_ADD(name_literal, delta)                  \
  do {                                                            \
    static ::ecl::obs::Counter& ecl_obs_counter_ =                \
        ::ecl::obs::registry().counter(name_literal);             \
    ecl_obs_counter_.add(delta);                                  \
  } while (0)

#define ECL_OBS_GAUGE_SET(name_literal, v)                        \
  do {                                                            \
    static ::ecl::obs::Gauge& ecl_obs_gauge_ =                    \
        ::ecl::obs::registry().gauge(name_literal);               \
    ecl_obs_gauge_.set(v);                                        \
  } while (0)

// `bounds` is only evaluated on the first execution (registration wins the
// bounds; later lookups ignore them — same registry rule as elsewhere).
#define ECL_OBS_HISTOGRAM_RECORD(name_literal, bounds, sample)    \
  do {                                                            \
    static ::ecl::obs::Histogram& ecl_obs_hist_ =                 \
        ::ecl::obs::registry().histogram(name_literal, bounds);   \
    ecl_obs_hist_.record(sample);                                 \
  } while (0)

#endif  // ECL_OBS_DISABLED
