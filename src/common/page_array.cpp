#include "common/page_array.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <system_error>

namespace ecl {

namespace {

constexpr std::uintptr_t kPageBytes = 4096;
constexpr std::uintptr_t kHugePageBytes = std::uintptr_t{2} << 20;

/// MADV_HUGEPAGE on the whole 4 KiB pages of [p, p + bytes), when they
/// contain a whole 2 MiB region.
void advise_huge_pages(const void* p, std::size_t bytes) {
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t end = begin + bytes;
  const std::uintptr_t first_huge = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  if (first_huge + kHugePageBytes > end) return;
  const std::uintptr_t lo = (begin + kPageBytes - 1) & ~(kPageBytes - 1);
  const std::uintptr_t hi = end & ~(kPageBytes - 1);
  (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
}

}  // namespace

PageArray::PageArray(std::span<const vertex_t> values)
    : PageArray(uninitialized(values.size())) {
  std::ranges::copy(values, data_);
}

PageArray PageArray::uninitialized(std::size_t n) {
  PageArray a;
  a.data_ = new vertex_t[n];  // default-initialized: no page is touched
  a.size_ = n;
  advise_huge_pages(a.data_, n * sizeof(vertex_t));
  return a;
}

std::optional<PageArray> PageArray::map_file(int fd, std::size_t offset, std::size_t n) {
  const std::size_t bytes = offset + n * sizeof(vertex_t);
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd, 0);
  if (map == MAP_FAILED) return std::nullopt;
  PageArray a;
  a.map_ = map;
  a.map_bytes_ = bytes;
  a.data_ = reinterpret_cast<vertex_t*>(static_cast<char*>(map) + offset);
  a.size_ = n;
  a.fd_ = ::fcntl(fd, F_DUPFD_CLOEXEC, 0);
  if (a.fd_ < 0) return std::nullopt;  // a's destructor unmaps; errno is dup's
  return a;
}

PageArray PageArray::writable_copy() const {
  // Only a read-only mapping still equals its file.
  if (fd_ < 0) return *this;
  // No MAP_POPULATE: populating a writable private mapping copies every page.
  void* map = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE, fd_, 0);
  if (map == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "PageArray mmap");
  }
  PageArray a;
  a.map_ = map;
  a.map_bytes_ = map_bytes_;
  a.data_ = reinterpret_cast<vertex_t*>(static_cast<char*>(map) +
                                        (reinterpret_cast<char*>(data_) -
                                         static_cast<char*>(map_)));
  a.size_ = size_;
  return a;
}

PageArray::~PageArray() {
  if (map_ != nullptr) {
    (void)::munmap(map_, map_bytes_);
  } else {
    delete[] data_;
  }
  if (fd_ >= 0) (void)::close(fd_);
}

}  // namespace ecl
