// Page-backed vertex arrays: the label and parent arrays of the service and
// of the concurrent union-find.
//
// Two kinds of backing:
// - Anonymous memory, for an array filled once right after allocation. A
//   fresh 16 MiB array takes ~4096 page faults on first touch with 4 KiB
//   pages, which cost more than the fill itself; backed by 2 MiB
//   transparent huge pages it takes a few dozen. Where the kernel's THP
//   mode is `madvise`, that backing has to be asked for before the first
//   touch, so it is.
// - A MAP_PRIVATE mapping of a file range, for a checkpoint's labels: read
//   straight from the page cache, with no fill and no copy. A read-only
//   mapping is populated at once; a writable one is copy-on-write, so the
//   kernel copies a 4 KiB page the first time it is written and the file
//   never changes. The file must not be modified or truncated in place
//   while it is mapped: an access past a truncated end raises SIGBUS.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace ecl {

class PageArray {
 public:
  using value_type = vertex_t;
  using iterator = vertex_t*;
  using const_iterator = const vertex_t*;

  PageArray() = default;

  /// An anonymous copy of `values`.
  explicit PageArray(std::span<const vertex_t> values);

  /// n anonymous elements, not yet written: the caller's first write is the
  /// first touch of each page, so the huge-page advice takes effect. No
  /// advice is given when the buffer holds no whole 2 MiB region, and a
  /// refused madvise is ignored — it is only advice.
  [[nodiscard]] static PageArray uninitialized(std::size_t n);

  /// The n elements that start `offset` bytes into the regular file open as
  /// `fd`, mapped read-only and populated from the page cache. The caller
  /// keeps `fd` (the array holds a duplicate, for writable_copy()).
  /// Preconditions: the file holds offset + n elements, and `offset` is a
  /// multiple of sizeof(vertex_t). nullopt, with errno set, when the
  /// mapping fails.
  [[nodiscard]] static std::optional<PageArray> map_file(int fd, std::size_t offset,
                                                         std::size_t n);

  /// A writable copy that never changes this array. A read-only file
  /// mapping gives a second, unpopulated MAP_PRIVATE mapping of the same
  /// range, whose pages the kernel copies on first write; any other array
  /// is deep-copied. Throws std::system_error when the mapping fails.
  [[nodiscard]] PageArray writable_copy() const;

  /// A copy is anonymous, whatever backs the original.
  PageArray(const PageArray& other) : PageArray(std::span<const vertex_t>(other)) {}
  PageArray(PageArray&& other) noexcept { swap(other); }
  PageArray& operator=(PageArray other) noexcept {
    swap(other);
    return *this;
  }
  ~PageArray();

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Writing through the non-const accessors is only allowed on anonymous
  /// arrays and writable_copy() results; a read-only mapping faults.
  [[nodiscard]] vertex_t* data() { return data_; }
  [[nodiscard]] const vertex_t* data() const { return data_; }
  vertex_t& operator[](std::size_t i) { return data_[i]; }
  const vertex_t& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }

  operator std::span<const vertex_t>() const { return {data_, size_}; }

  friend bool operator==(const PageArray& a, const PageArray& b) {
    return std::ranges::equal(a, b);
  }
  friend bool operator==(const PageArray& a, const std::vector<vertex_t>& b) {
    return std::ranges::equal(a, b);
  }

 private:
  void swap(PageArray& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(map_, other.map_);
    std::swap(map_bytes_, other.map_bytes_);
    std::swap(fd_, other.fd_);
  }

  vertex_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;        // the mapping's start; nullptr when anonymous
  std::size_t map_bytes_ = 0;  // its length
  int fd_ = -1;                // a read-only mapping's file, for writable_copy()
};

}  // namespace ecl
