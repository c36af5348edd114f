#include "svc/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "svc/wal.h"

namespace ecl::svc {

namespace {

// The label array moves between disk and memory as raw bytes, with no
// per-word encode or decode; that is only the documented little-endian
// layout on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "checkpoint labels are read and written as raw little-endian u32");

constexpr char kCkptMagic[8] = {'E', 'C', 'L', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kCkptVersion = 1;
// magic + crc + (version, n, watermark, epoch, wal_seq)
constexpr std::size_t kHeaderBytes = 8 + 4;
constexpr std::size_t kFixedPayloadBytes = 4 + 4 + 8 + 8 + 8;
// Everything before the label array (44 bytes).
constexpr std::size_t kImageHeaderBytes = kHeaderBytes + kFixedPayloadBytes;
// Label bytes read per syscall; small enough to checksum while in L2.
constexpr std::size_t kReadChunkBytes = std::size_t{1} << 20;

/// label[v] <= v and label[label[v]] == label[v] for every v: each vertex
/// points straight at a root that is its component's minimum ID.
bool is_canonical_forest(const std::vector<vertex_t>& labels) {
  for (vertex_t v = 0; v < static_cast<vertex_t>(labels.size()); ++v) {
    const vertex_t l = labels[v];
    if (l > v || labels[l] != l) return false;
  }
  return true;
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, p + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    done += static_cast<std::size_t>(r);
  }
  return true;
}

std::string errno_str(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

void CheckpointStore::open(std::string base, std::size_t keep) {
  base_ = std::move(base);
  keep_ = std::max<std::size_t>(keep, 1);
  entries_.clear();
  for (auto& f : list_numbered_files(base_)) {
    Entry e;
    e.seq = f.seq;
    e.path = std::move(f.path);
    entries_.push_back(std::move(e));
  }
}

std::uint64_t CheckpointStore::latest_seq() const {
  return entries_.empty() ? 0 : entries_.back().seq;
}

bool CheckpointStore::read_file(const std::string& path, CheckpointData* out,
                                std::string* err) {
  const auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = "ckpt " + path + ": " + what;
    return false;
  };
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (err != nullptr) *err = errno_str("ckpt open " + path);
    return false;
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  struct stat st{};
  std::array<std::uint8_t, kImageHeaderBytes> hdr{};
  if (::fstat(fd, &st) != 0 || static_cast<std::size_t>(st.st_size) < hdr.size() ||
      !read_exact(fd, hdr.data(), hdr.size())) {
    return fail("truncated header");
  }
  if (std::memcmp(hdr.data(), kCkptMagic, sizeof(kCkptMagic)) != 0) return fail("bad magic");
  const std::uint8_t* payload = hdr.data() + kHeaderBytes;
  CheckpointData data;
  data.n = get_u32(payload + 4);
  data.watermark = get_u64(payload + 8);
  data.epoch = get_u64(payload + 16);
  data.wal_seq = get_u64(payload + 24);
  // Checked against the file size before anything is allocated, so a torn
  // or corrupt n can never drive a huge resize.
  const std::size_t label_bytes = static_cast<std::size_t>(data.n) * sizeof(vertex_t);
  if (static_cast<std::size_t>(st.st_size) != hdr.size() + label_bytes) {
    return fail("label array length mismatch");
  }

  // Labels land in their final buffer in bounded chunks, each checksummed
  // while it is still in cache.
  data.labels.resize(data.n);
  std::uint32_t crc = crc32(payload, kFixedPayloadBytes);
  auto* dst = reinterpret_cast<std::uint8_t*>(data.labels.data());
  for (std::size_t done = 0; done < label_bytes;) {
    const std::size_t chunk = std::min(kReadChunkBytes, label_bytes - done);
    if (!read_exact(fd, dst + done, chunk)) {
      if (err != nullptr) *err = errno_str("ckpt read " + path);
      return false;
    }
    crc = crc32_update(crc, dst + done, chunk);
    done += chunk;
  }
  if (crc != get_u32(hdr.data() + 8)) return fail("CRC mismatch (torn or corrupt)");
  if (get_u32(payload) != kCkptVersion) return fail("unsupported version");
  if (!is_canonical_forest(data.labels)) return fail("labels are not a canonical forest");
  *out = std::move(data);
  return true;
}

CheckpointLoadResult CheckpointStore::load_latest_valid() const {
  CheckpointLoadResult out;
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    out.found_any = true;
    std::string err;
    if (read_file(it->path, &out.data, &err)) {
      out.ok = true;
      out.seq = it->seq;
      if (out.fallbacks > 0) {
        ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.load_fallbacks", out.fallbacks);
      }
      return out;
    }
    out.error = std::move(err);
    ++out.fallbacks;
  }
  if (out.fallbacks > 0) {
    ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.load_fallbacks", out.fallbacks);
  }
  return out;
}

CheckpointWriteResult CheckpointStore::write(const CheckpointHeader& header,
                                             std::span<const vertex_t> labels) {
  CheckpointWriteResult out;
  const std::uint64_t seq = latest_seq() + 1;
  const std::string final_path = numbered_path(base_, seq);
  const std::string tmp_path = base_ + ".tmp";
  const auto fail = [&](const std::string& what) {
    out.error = what;
    ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.write_errors", 1);
    return out;
  };
  if (labels.size() != header.n) return fail("ckpt write: label count differs from n");

  std::array<std::uint8_t, kImageHeaderBytes> hdr{};
  std::memcpy(hdr.data(), kCkptMagic, sizeof(kCkptMagic));
  std::uint8_t* payload = hdr.data() + kHeaderBytes;
  put_u32(payload, kCkptVersion);
  put_u32(payload + 4, header.n);
  put_u64(payload + 8, header.watermark);
  put_u64(payload + 16, header.epoch);
  put_u64(payload + 24, header.wal_seq);
  const std::size_t label_bytes = static_cast<std::size_t>(header.n) * sizeof(vertex_t);
  put_u32(hdr.data() + 8, crc32_update(crc32(payload, kFixedPayloadBytes),
                                       labels.data(), label_bytes));
  const std::size_t image_bytes = hdr.size() + label_bytes;

  // O_TRUNC: a leftover .tmp from a crashed writer is garbage by contract —
  // only the rename publishes a checkpoint.
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail(errno_str("ckpt create " + tmp_path));
  // The first `limit` bytes of the image: the header, then the labels
  // straight from the caller's buffer.
  const auto write_prefix = [&](std::size_t limit) {
    const std::size_t head = std::min(limit, hdr.size());
    return write_all(fd, hdr.data(), head) && write_all(fd, labels.data(), limit - head);
  };

  // Fault semantics mirror the WAL append: kShort leaves a truncated image
  // behind (what a mid-write crash leaves), kFail dies before bytes land.
  const auto outcome = ECL_FAULT_POINT("svc.ckpt.write");
  fault::apply_delay(outcome);
  bool write_fault = outcome.action == fault::Action::kFail ||
                     outcome.action == fault::Action::kOom ||
                     outcome.action == fault::Action::kKill;
  if (outcome.action == fault::Action::kShort) {
    (void)write_prefix(std::min<std::size_t>(outcome.arg, image_bytes));
    write_fault = true;
  }
  if (write_fault || !write_prefix(image_bytes)) {
    ::close(fd);
    return fail("ckpt write " + tmp_path + (write_fault ? ": injected fault"
                                                        : errno_str("")));
  }
  if (ECL_FAULT_POINT("svc.ckpt.fsync").fired() || ::fsync(fd) != 0) {
    ::close(fd);
    return fail(errno_str("ckpt fsync " + tmp_path));
  }
  ::close(fd);
  if (ECL_FAULT_POINT("svc.ckpt.rename").fired() ||
      ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return fail(errno_str("ckpt rename " + tmp_path + " -> " + final_path));
  }
  if (!fsync_parent_dir(final_path)) {
    return fail(errno_str("ckpt dir-sync " + final_path));
  }

  Entry e;
  e.seq = seq;
  e.path = final_path;
  e.wal_seq = header.wal_seq;
  e.wal_seq_known = true;
  entries_.push_back(std::move(e));

  // Retention: keep the newest keep_ checkpoints. Deletion failures are
  // disk-cost only; the entry stays listed and is retried next write.
  while (entries_.size() > keep_) {
    if (::unlink(entries_.front().path.c_str()) != 0 && errno != ENOENT) {
      ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.retire_errors", 1);
      break;
    }
    entries_.erase(entries_.begin());
  }

  out.ok = true;
  out.seq = seq;
  out.bytes = image_bytes;
  ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.writes", 1);
  ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.bytes", image_bytes);
  return out;
}

std::uint64_t CheckpointStore::retention_floor_wal_seq() const {
  if (entries_.size() < keep_) return 0;
  const Entry& oldest = entries_.front();
  if (oldest.wal_seq_known) return oldest.wal_seq;
  CheckpointData data;
  std::string err;
  if (!read_file(oldest.path, &data, &err)) return 0;
  return data.wal_seq;
}

}  // namespace ecl::svc
