// Test helper: run code under a narrower CPU affinity mask.
#pragma once

#include <gtest/gtest.h>
#include <sched.h>

namespace ecl::testing {

/// Saves the calling thread's affinity mask and restores it when destroyed,
/// also when an assertion returns early. limit(k) narrows the thread to the
/// first k CPUs of the saved mask, for code whose worker count comes from
/// the mask (for_each_claimed and its callers).
class CpuMaskScope {
 public:
  CpuMaskScope() {
    CPU_ZERO(&saved_);
    EXPECT_EQ(::sched_getaffinity(0, sizeof(saved_), &saved_), 0);
  }
  ~CpuMaskScope() { EXPECT_EQ(::sched_setaffinity(0, sizeof(saved_), &saved_), 0); }
  CpuMaskScope(const CpuMaskScope&) = delete;
  CpuMaskScope& operator=(const CpuMaskScope&) = delete;

  /// The number of CPUs in the saved mask.
  [[nodiscard]] int cpus() const { return CPU_COUNT(&saved_); }

  /// Narrows the calling thread to the first k CPUs of the saved mask.
  [[nodiscard]] bool limit(int k) const {
    cpu_set_t some;
    CPU_ZERO(&some);
    for (int cpu = 0; cpu < CPU_SETSIZE && CPU_COUNT(&some) < k; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) CPU_SET(cpu, &some);
    }
    return ::sched_setaffinity(0, sizeof(some), &some) == 0;
  }

 private:
  cpu_set_t saved_;
};

}  // namespace ecl::testing
