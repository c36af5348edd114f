// Vectors for large arrays that are filled once, right after allocation.
//
// A fresh 16 MiB array takes ~4096 page faults on first touch with 4 KiB
// pages, which cost more than the fill itself; backed by 2 MiB transparent
// huge pages it takes a few dozen. Where the kernel's THP mode is
// `madvise`, that backing has to be asked for before the first touch.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ecl {

/// An empty vector with capacity for n elements whose buffer the kernel is
/// advised (MADV_HUGEPAGE) to back with transparent huge pages. Fill it
/// with resize() or assign(): that is the first touch of the buffer, so
/// the advice takes effect. No advice is given when the buffer holds no
/// whole 2 MiB region, and a refused madvise is ignored — it is only
/// advice, and the vector works either way.
template <class T>
[[nodiscard]] std::vector<T> huge_page_vector(std::size_t n) {
  constexpr std::uintptr_t kPageBytes = 4096;
  constexpr std::uintptr_t kHugePageBytes = std::uintptr_t{2} << 20;
  std::vector<T> v;
  v.reserve(n);
  const auto begin = reinterpret_cast<std::uintptr_t>(v.data());
  const std::uintptr_t end = begin + n * sizeof(T);
  const std::uintptr_t first_huge = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  if (n > 0 && first_huge + kHugePageBytes <= end) {
    const std::uintptr_t lo = (begin + kPageBytes - 1) & ~(kPageBytes - 1);
    const std::uintptr_t hi = end & ~(kPageBytes - 1);
    (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
  return v;
}

}  // namespace ecl
