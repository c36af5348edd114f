#include "svc/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>

#include "common/claim.h"
#include "common/page_array.h"
#include "common/timer.h"
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

void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

// Labels per unit of the validation pass: 1 MiB, small enough to stay in
// L2 while both of its checks run over it.
constexpr std::size_t kChunkLabels = (std::size_t{1} << 20) / sizeof(vertex_t);

/// Parses the image header `hdr` into *data (labels untouched). Checks the
/// magic and, before anything is mapped or allocated, that the image is
/// exactly the header plus n labels, so a torn or corrupt n can never drive
/// an access past the end of the file or a huge allocation. Returns why it
/// refuses, or nullptr.
const char* parse_header(const std::uint8_t* hdr, std::uint64_t image_bytes,
                         CheckpointData* data) {
  if (std::memcmp(hdr, kCkptMagic, sizeof(kCkptMagic)) != 0) return "bad magic";
  const std::uint8_t* payload = hdr + kHeaderBytes;
  data->n = get_u32(payload + 4);
  data->watermark = get_u64(payload + 8);
  data->epoch = get_u64(payload + 16);
  data->wal_seq = get_u64(payload + 24);
  if (image_bytes != kImageHeaderBytes + std::uint64_t{data->n} * sizeof(vertex_t)) {
    return "label array length mismatch";
  }
  return nullptr;
}

/// One chunk's share of the validation pass.
struct ChunkCheck {
  std::size_t bytes = 0;  // the chunk's length
  std::uint32_t crc = 0;  // crc32 of the chunk's bytes alone
  bool canonical = true;
  vertex_t roots = 0;
};

/// Checks chunk i of the n little-endian labels at `labels`: its CRC, then
/// the canonical-forest test label[v] <= v && label[label[v]] == label[v]
/// with the root count, while it is in cache.
ChunkCheck check_chunk(const std::uint8_t* labels, vertex_t n, std::size_t i) {
  const auto label = [labels](vertex_t v) {
    return get_u32(labels + std::size_t{v} * sizeof(vertex_t));
  };
  const auto lo = static_cast<vertex_t>(i * kChunkLabels);
  const auto hi = static_cast<vertex_t>(lo + std::min<std::size_t>(kChunkLabels, n - lo));
  ChunkCheck out;
  out.bytes = std::size_t{hi - lo} * sizeof(vertex_t);
  out.crc = crc32(labels + std::size_t{lo} * sizeof(vertex_t), out.bytes);
  for (vertex_t v = lo; v < hi; ++v) {
    const vertex_t l = label(v);
    // l > v first: label(l) of a corrupt l >= n would read past the
    // labels, off the end of a mapped file.
    if (l > v || label(l) != l) out.canonical = false;
    out.roots += l == v ? 1 : 0;
  }
  return out;
}

/// The one validation pass over the n labels (little-endian bytes) of the
/// image whose header is `hdr`, checked one 1 MiB chunk per claim by
/// for_each_claimed(). The chunks' CRCs fold in order onto the fixed
/// payload's, so the verdict is the sequential one and follows the format's
/// order (CRC, version, forest): why it refuses, or nullptr with the root
/// count in *roots.
const char* check_labels(const std::uint8_t* hdr, const std::uint8_t* labels, vertex_t n,
                         vertex_t* roots) {
  std::vector<ChunkCheck> chunks((std::size_t{n} + kChunkLabels - 1) / kChunkLabels);
  for_each_claimed(chunks.size(),
                   [&](std::size_t i) { chunks[i] = check_chunk(labels, n, i); });
  std::uint32_t crc = crc32(hdr + kHeaderBytes, kFixedPayloadBytes);
  bool canonical = true;
  vertex_t count = 0;
  for (const ChunkCheck& c : chunks) {
    crc = crc32_combine(crc, c.crc, c.bytes);
    canonical = canonical && c.canonical;
    count += c.roots;
  }
  if (crc != get_u32(hdr + 8)) return "CRC mismatch (torn or corrupt)";
  if (get_u32(hdr + kHeaderBytes) != kCkptVersion) return "unsupported version";
  if (!canonical) return "labels are not a canonical forest";
  *roots = count;
  return nullptr;
}

std::string errno_str(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

CheckpointWriteResult write_failed(std::string error) {
  ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.write_errors", 1);
  return {.error = std::move(error)};
}

/// read_file() without its timing: the checks, and the labels mapped.
bool map_checkpoint(const std::string& path, CheckpointData* out, std::string* err) {
  const auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = "ckpt " + path + ": " + what;
    return false;
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
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
      !read_upto(fd, hdr.data(), hdr.size())) {
    return fail("truncated header");
  }
  CheckpointData data;
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (const char* why = parse_header(hdr.data(), file_bytes, &data)) return fail(why);
  // The file is exactly the header and n labels, so the mapping covers
  // every label the check reads, and the labels are checked in place.
  auto labels = PageArray::map_file(fd, kImageHeaderBytes, data.n);
  if (!labels) {
    if (err != nullptr) *err = errno_str("ckpt mmap " + path);
    return false;
  }
  if (const char* why =
          check_labels(hdr.data(), reinterpret_cast<const std::uint8_t*>(labels->data()),
                       data.n, &data.components)) {
    return fail(why);
  }
  data.labels = std::move(*labels);
  *out = std::move(data);
  return true;
}

}  // namespace

void CheckpointStore::open(std::string base) {
  base_ = std::move(base);
  entries_.clear();
  for (auto& f : list_numbered_files(base_)) {
    Entry e;
    e.seq = f.seq;
    e.path = std::move(f.path);
    entries_.push_back(std::move(e));
  }
}

bool CheckpointStore::read_file(const std::string& path, CheckpointData* out,
                                std::string* err) {
  Timer t;
  const bool ok = map_checkpoint(path, out, err);
  ECL_OBS_HISTOGRAM_RECORD("ecl.svc.ckpt.load_us", ::ecl::obs::Histogram::pow2_bounds(22),
                           static_cast<std::uint64_t>(t.micros()));
  return ok;
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
  if (labels.size() != header.n) return write_failed("ckpt write: label count differs from n");
  std::array<std::uint8_t, kImageHeaderBytes> hdr{};
  std::memcpy(hdr.data(), kCkptMagic, sizeof(kCkptMagic));
  std::uint8_t* payload = hdr.data() + kHeaderBytes;
  put_u32(payload, kCkptVersion);
  put_u32(payload + 4, header.n);
  put_u64(payload + 8, header.watermark);
  put_u64(payload + 16, header.epoch);
  put_u64(payload + 24, header.wal_seq);
  // The labels are written straight from the caller's buffer.
  const std::span<const std::uint8_t> label_bytes(
      reinterpret_cast<const std::uint8_t*>(labels.data()), labels.size_bytes());
  put_u32(hdr.data() + 8, crc32_update(crc32(payload, kFixedPayloadBytes),
                                       label_bytes.data(), label_bytes.size()));
  std::string err;
  if (!stage(hdr, label_bytes, &err)) return write_failed(err);
  return publish(header.wal_seq, hdr.size() + label_bytes.size());
}

CheckpointWriteResult CheckpointStore::install(
    std::span<const std::uint8_t> image, CheckpointData* data,
    const std::function<bool(const CheckpointData&)>& accept) {
  std::string err;
  if (!stage(image, {}, &err)) return write_failed(err);
  if (!read_file(tmp_path(), data, &err) || (accept && !accept(*data))) {
    (void)::unlink(tmp_path().c_str());
    return write_failed(err.empty() ? "ckpt install: image refused" : err);
  }
  return publish(data->wal_seq, image.size());
}

bool CheckpointStore::stage(std::span<const std::uint8_t> head,
                            std::span<const std::uint8_t> tail, std::string* err) {
  const std::string tmp = tmp_path();
  const std::size_t image_bytes = head.size() + tail.size();
  // O_TRUNC: a leftover .tmp from a crashed writer is garbage by contract —
  // only the rename publishes a checkpoint.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    *err = errno_str("ckpt create " + tmp);
    return false;
  }
  // The first `limit` bytes of the image.
  const auto write_prefix = [&](std::size_t limit) {
    const std::size_t h = std::min(limit, head.size());
    return write_all(fd, head.data(), h) && write_all(fd, tail.data(), limit - h);
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
    *err = "ckpt write " + tmp + (write_fault ? ": injected fault" : errno_str(""));
    return false;
  }
  if (ECL_FAULT_POINT("svc.ckpt.fsync").fired() || ::fsync(fd) != 0) {
    ::close(fd);
    *err = errno_str("ckpt fsync " + tmp);
    return false;
  }
  ::close(fd);
  return true;
}

CheckpointWriteResult CheckpointStore::publish(std::uint64_t wal_seq,
                                               std::uint64_t image_bytes) {
  const std::uint64_t seq = (entries_.empty() ? 0 : entries_.back().seq) + 1;
  const std::string tmp = tmp_path();
  const std::string final_path = numbered_path(base_, seq);
  if (ECL_FAULT_POINT("svc.ckpt.rename").fired() ||
      ::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return write_failed(errno_str("ckpt rename " + tmp + " -> " + final_path));
  }
  if (!fsync_parent_dir(final_path)) {
    return write_failed(errno_str("ckpt dir-sync " + final_path));
  }

  Entry e;
  e.seq = seq;
  e.path = final_path;
  e.wal_seq = wal_seq;
  e.wal_seq_known = true;
  entries_.push_back(std::move(e));

  // Retention: keep the newest kKeep checkpoints. Deletion failures are
  // disk-cost only; the entry stays listed and is retried next write.
  while (entries_.size() > kKeep) {
    if (::unlink(entries_.front().path.c_str()) != 0 && errno != ENOENT) {
      ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.retire_errors", 1);
      break;
    }
    entries_.erase(entries_.begin());
  }

  ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.writes", 1);
  ECL_OBS_COUNTER_ADD("ecl.svc.ckpt.bytes", image_bytes);
  return {.ok = true, .error = {}, .seq = seq, .bytes = image_bytes};
}

std::uint64_t CheckpointStore::retention_floor_wal_seq() const {
  if (entries_.size() < kKeep) return 0;
  const Entry& oldest = entries_.front();
  if (oldest.wal_seq_known) return oldest.wal_seq;
  CheckpointData data;
  std::string err;
  if (!read_file(oldest.path, &data, &err)) return 0;
  return data.wal_seq;
}

CkptImage CheckpointStore::read_newest_image(const std::string& base) {
  CkptImage out;
  // Checkpoint files are written tmp -> rename and only ever unlinked, never
  // modified in place, so a file that validates is immutable. Retry by
  // listing again if the newest file vanishes under us (keep-2 rotation).
  for (int attempt = 0; attempt < 3; ++attempt) {
    bool raced = false;
    const auto files = list_numbered_files(base);
    for (auto it = files.rbegin(); it != files.rend() && !raced; ++it) {
      // One read of the whole file, validated in memory as read_file()
      // validates it from disk.
      const int fd = ::open(it->path.c_str(), O_RDONLY | O_CLOEXEC);
      struct stat st{};
      if (fd < 0 || ::fstat(fd, &st) != 0) {
        // Gone since the listing: rotation won, take a fresh one.
        raced = fd < 0 && errno == ENOENT;
        if (fd >= 0) ::close(fd);
        continue;
      }
      std::vector<std::uint8_t> image(static_cast<std::size_t>(st.st_size));
      const bool read_ok = read_upto(fd, image.data(), image.size());
      ::close(fd);
      CheckpointData data;
      if (!read_ok || image.size() < kImageHeaderBytes ||
          parse_header(image.data(), image.size(), &data) != nullptr) {
        continue;  // invalid: fall back to the next-newest
      }
      if (check_labels(image.data(), image.data() + kImageHeaderBytes, data.n,
                       &data.components) != nullptr) {
        continue;
      }
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

}  // namespace ecl::svc
