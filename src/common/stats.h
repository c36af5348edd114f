// Summary statistics used by the benchmark harness (median-of-3 runtimes,
// geometric means of normalized ratios, etc.).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ecl {

/// Median of a sample (average of the two middle elements for even sizes).
/// Returns 0 for an empty sample.
[[nodiscard]] double median(std::span<const double> xs);

/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(std::span<const double> xs);

/// Geometric mean; 0 for an empty sample. All inputs must be > 0.
[[nodiscard]] double geometric_mean(std::span<const double> xs);

/// Smallest element; 0 for an empty sample.
[[nodiscard]] double minimum(std::span<const double> xs);

/// Largest element; 0 for an empty sample.
[[nodiscard]] double maximum(std::span<const double> xs);

/// Runs `fn` `repetitions` times, timing each run, and returns the median
/// elapsed milliseconds — the measurement protocol of the paper (§4:
/// "We repeated each experiment three times and report the median").
template <typename Fn>
[[nodiscard]] double median_runtime_ms(Fn&& fn, int repetitions = 3);

}  // namespace ecl

#include "common/timer.h"

namespace ecl {

template <typename Fn>
double median_runtime_ms(Fn&& fn, int repetitions) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(repetitions));
  for (int r = 0; r < repetitions; ++r) {
    Timer t;
    fn();
    times.push_back(t.millis());
  }
  return median(times);
}

}  // namespace ecl
