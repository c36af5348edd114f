#include "svc/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace ecl::svc {

namespace {

constexpr char kMagic[8] = {'E', 'C', 'L', 'W', 'A', 'L', '0', '1'};
constexpr std::size_t kRecordHeaderBytes = 8;  // u32 len + u32 crc
// The one record-size limit, equal to the wire's kMaxFrameBytes: a batch
// the protocol can carry always fits in one record.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 26;
// Replay reads a segment this many bytes at a time.
constexpr std::size_t kReplayChunkBytes = std::size_t{1} << 20;

void set_error(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what + ": " + std::strerror(errno);
}

}  // namespace

std::string numbered_path(const std::string& base, std::uint64_t seq) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".%06llu",
                static_cast<unsigned long long>(seq));
  return base + suffix;
}

std::vector<NumberedFile> list_numbered_files(const std::string& base) {
  std::vector<NumberedFile> out;
  const auto slash = base.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : base.substr(0, slash);
  const std::string stem =
      (slash == std::string::npos ? base : base.substr(slash + 1)) + ".";

  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() != stem.size() + 6 || name.compare(0, stem.size(), stem) != 0) {
      continue;
    }
    std::uint64_t seq = 0;
    bool numeric = true;
    for (std::size_t i = stem.size(); i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        numeric = false;
        break;
      }
      seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
    }
    if (!numeric || seq == 0) continue;
    NumberedFile f;
    f.seq = seq;
    f.path = (dir == "." && slash == std::string::npos ? name : dir + "/" + name);
    struct stat st{};
    if (::stat(f.path.c_str(), &st) == 0) f.bytes = static_cast<std::uint64_t>(st.st_size);
    out.push_back(std::move(f));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const NumberedFile& a, const NumberedFile& b) { return a.seq < b.seq; });
  return out;
}

bool fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
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

bool read_upto(int fd, void* buf, std::size_t n, std::size_t* got) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t done = 0;
  bool ok = true;
  while (done < n) {
    const ssize_t r = ::read(fd, p + done, n - done);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      ok = r == 0 && got != nullptr;  // EOF is only an error for exact reads
      break;
    }
    done += static_cast<std::size_t>(r);
  }
  if (got != nullptr) *got = done;
  return ok;
}

namespace {

// Slice-by-8 tables: t[0] is the classic byte table; t[k][b] is the CRC
// register after byte b is followed by k zero bytes, so eight table lookups
// advance the register by eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kCrcPoly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Advances the CRC register c over the 8 bytes at p.
inline std::uint32_t crc_step8(std::uint32_t c, const std::uint8_t* p) {
  const auto& t = kCrcTables;
  const std::uint32_t lo = c ^ get_u32(p);
  const std::uint32_t hi = get_u32(p + 4);
  return t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
         t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
         t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
}

// Four-lane CRC. The register update is linear over GF(2), so the register
// after lanes A|B|C|D is S(S(S(r_A) ^ r_B) ^ r_C) ^ r_D, where r_A starts
// from the incoming register, r_B..r_D start from 0, and S feeds a lane's
// worth of zero bytes: multiplication by x^(8 * kCrcLaneBytes) mod P (zlib's
// crc32_combine). The four lanes are independent dependency chains, so one
// loop over them runs about twice as fast as a single slice-by-8 chain,
// which waits on its own table lookups every 8 bytes.
constexpr std::size_t kCrcLaneBytes = kCrc32LaneThresholdBytes / 4;

/// a(x) * b(x) mod P in the reflected representation (bit 31 is x^0).
constexpr std::uint32_t crc_multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) p ^= b;
    b = (b & 1u) ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return p;
}

/// x^(8 * n) mod P by square-and-multiply: multiplying a register by it
/// feeds n zero bytes through the register.
constexpr std::uint32_t crc_zero_bytes_op(std::size_t n) {
  std::uint32_t op = 1u << 31;      // x^0
  std::uint32_t square = 1u << 23;  // x^8, one zero byte
  for (; n != 0; n >>= 1) {
    if ((n & 1u) != 0) op = crc_multmodp(op, square);
    square = crc_multmodp(square, square);
  }
  return op;
}

/// S as four byte tables: S(c) = t[0][c & 0xFF] ^ ... ^ t[3][c >> 24].
using CrcShiftTables = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr CrcShiftTables make_crc_lane_shift() {
  const std::uint32_t shift = crc_zero_bytes_op(kCrcLaneBytes);
  CrcShiftTables t{};
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) t[k][b] = crc_multmodp(shift, b << (8 * k));
  }
  return t;
}

constexpr CrcShiftTables kCrcLaneShift = make_crc_lane_shift();

inline std::uint32_t crc_lane_shift(std::uint32_t c) {
  const auto& t = kCrcLaneShift;
  return t[0][c & 0xFFu] ^ t[1][(c >> 8) & 0xFFu] ^ t[2][(c >> 16) & 0xFFu] ^ t[3][c >> 24];
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t n) {
  std::uint32_t c = ~crc;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (; n >= kCrc32LaneThresholdBytes;
       p += kCrc32LaneThresholdBytes, n -= kCrc32LaneThresholdBytes) {
    std::uint32_t c1 = 0;
    std::uint32_t c2 = 0;
    std::uint32_t c3 = 0;
    for (std::size_t i = 0; i < kCrcLaneBytes; i += 8) {
      c = crc_step8(c, p + i);
      c1 = crc_step8(c1, p + kCrcLaneBytes + i);
      c2 = crc_step8(c2, p + 2 * kCrcLaneBytes + i);
      c3 = crc_step8(c3, p + 3 * kCrcLaneBytes + i);
    }
    c = crc_lane_shift(crc_lane_shift(crc_lane_shift(c) ^ c1) ^ c2) ^ c3;
  }
  for (; n >= 8; p += 8, n -= 8) c = crc_step8(c, p);
  for (; n > 0; ++p, --n) c = kCrcTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

std::uint32_t crc32(const void* data, std::size_t n) { return crc32_update(0, data, n); }

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::size_t len_b) {
  return crc_multmodp(crc_zero_bytes_op(len_b), crc_a) ^ crc_b;
}

const char* to_string(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kBatch: return "batch";
    case FsyncPolicy::kAlways: return "always";
  }
  return "?";
}

bool parse_fsync_policy(std::string_view s, FsyncPolicy* out) {
  if (s == "none") { *out = FsyncPolicy::kNone; return true; }
  if (s == "batch") { *out = FsyncPolicy::kBatch; return true; }
  if (s == "always") { *out = FsyncPolicy::kAlways; return true; }
  return false;
}

std::size_t encode_wal_records(std::span<const Edge> batch, std::uint32_t max_payload_bytes,
                               std::vector<std::uint8_t>* out) {
  const std::size_t per_record = std::max<std::size_t>(max_payload_bytes / 8, 1);
  const std::size_t records = (batch.size() + per_record - 1) / per_record;
  out->resize(records * kRecordHeaderBytes + batch.size() * 8);
  std::uint8_t* rec = out->data();
  for (std::size_t first = 0; first < batch.size(); first += per_record) {
    const auto edges = batch.subspan(first, std::min(per_record, batch.size() - first));
    const auto payload_len = static_cast<std::uint32_t>(edges.size() * 8);
    std::uint8_t* payload = rec + kRecordHeaderBytes;
    std::uint8_t* p = payload;
    for (const auto& [u, v] : edges) {
      put_u32(p, u);
      put_u32(p + 4, v);
      p += 8;
    }
    put_u32(rec, payload_len);
    put_u32(rec + 4, crc32(payload, payload_len));
    rec = p;
  }
  return records;
}

void WalDecoder::feed(std::span<const std::uint8_t> bytes) {
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
  pos_ = 0;
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

WalDecoder::Status WalDecoder::next(std::vector<Edge>* edges) {
  if (offset_ == 0) {
    if (pending() < sizeof(kMagic)) return Status::kNeedMore;
    if (std::memcmp(buf_.data() + pos_, kMagic, sizeof(kMagic)) != 0) {
      return Status::kBadMagic;
    }
    pos_ += sizeof(kMagic);
    offset_ = sizeof(kMagic);
  }
  if (pending() < kRecordHeaderBytes) return Status::kNeedMore;
  const std::uint8_t* hdr = buf_.data() + pos_;
  const std::uint32_t len = get_u32(hdr);
  // Corrupt framing: nothing past here is trustworthy.
  if (len == 0 || len % 8 != 0 || len > kMaxPayloadBytes) return Status::kCorrupt;
  if (pending() < kRecordHeaderBytes + len) return Status::kNeedMore;
  const std::uint8_t* payload = hdr + kRecordHeaderBytes;
  if (crc32(payload, len) != get_u32(hdr + 4)) return Status::kCorrupt;
  if (edges->empty()) edges->reserve(len / 8);  // a fresh per-record batch
  for (std::uint32_t i = 0; i < len; i += 8) {
    edges->emplace_back(get_u32(payload + i), get_u32(payload + i + 4));
  }
  pos_ += kRecordHeaderBytes + len;
  offset_ += kRecordHeaderBytes + len;
  return Status::kRecord;
}

WalReplayResult SegmentedWal::replay_and_truncate(const std::string& path,
                                                  bool truncate_tail) {
  WalReplayResult out;
  const int fd = ::open(path.c_str(), truncate_tail ? O_RDWR : O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      out.ok = true;  // first boot: nothing to replay
      return out;
    }
    out.error = "wal replay open " + path + ": " + std::strerror(errno);
    return out;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    out.error = "wal replay fstat " + path + ": " + std::strerror(errno);
    ::close(fd);
    return out;
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);

  WalDecoder decoder;
  auto verdict = WalDecoder::Status::kNeedMore;
  std::vector<std::uint8_t> chunk(
      static_cast<std::size_t>(std::min<std::uint64_t>(file_size, kReplayChunkBytes)));
  while (verdict == WalDecoder::Status::kNeedMore) {
    std::size_t got = 0;
    if (!read_upto(fd, chunk.data(), chunk.size(), &got)) {
      out.error = "wal replay read " + path + ": " + std::strerror(errno);
      ::close(fd);
      return out;
    }
    if (got == 0) break;  // EOF
    decoder.feed({chunk.data(), got});
    while ((verdict = decoder.next(&out.edges)) == WalDecoder::Status::kRecord) {
      ++out.records;
    }
  }
  if (verdict == WalDecoder::Status::kBadMagic) {
    out.error = "wal replay " + path + ": not a WAL file (bad magic)";
    ::close(fd);
    return out;
  }

  // Whatever follows the last whole record is a torn or corrupt tail (or a
  // magic cut short while creating the file, before anything was acked).
  if (decoder.offset() < file_size) {
    out.truncated_bytes = file_size - decoder.offset();
    // Read-only validation (sealed segments) reports the damage, never cuts.
    // A truncate that silently fails leaves the corrupt tail in place, and
    // the next append would write *after* it — every record from then on
    // would be unreachable by replay. Surface the failure so the caller
    // refuses to reopen the file for appending.
    if (truncate_tail) {
      if (ECL_FAULT_POINT("svc.wal.truncate").fired() ||
          ::ftruncate(fd, static_cast<off_t>(decoder.offset())) != 0 ||
          ::fsync(fd) != 0) {
        out.truncate_failed = true;
        out.error = "wal truncate " + path + ": " + std::strerror(errno);
        ECL_OBS_COUNTER_ADD("ecl.svc.wal.truncate_errors", 1);
      }
      ECL_OBS_COUNTER_ADD("ecl.svc.wal.truncated_bytes", out.truncated_bytes);
    }
  }
  ::close(fd);
  out.ok = true;
  ECL_OBS_COUNTER_ADD("ecl.svc.wal.replayed_records", out.records);
  ECL_OBS_COUNTER_ADD("ecl.svc.wal.replayed_edges", out.edges.size());
  return out;
}

// ------------------------------------------------------- SegmentedWal ----

SegmentedWal::ReplayResult SegmentedWal::replay(const std::string& base,
                                                std::uint64_t after_seq) {
  ReplayResult out;
  const auto segments = list_numbered_files(base);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& seg = segments[i];
    if (seg.seq <= after_seq) continue;
    // Past the checkpoint (or from segment 1 without one) the chain must be
    // unbroken: a missing segment held acked edges nothing else covers.
    // (Below after_seq a hole is harmless: a failed unlink during retirement
    // can leave one.)
    if (const std::uint64_t want = after_seq + out.segments + 1; seg.seq != want) {
      out.error = "wal replay " + base + ": segment " + std::to_string(want) +
                  " is missing (checkpoint covers through " +
                  std::to_string(after_seq) + ")";
      return out;
    }
    const bool is_last = i + 1 == segments.size();
    // Sealed segments are validated read-only: damage there is refused
    // below, and truncating would destroy any acked records past the
    // damage point that a manual repair could still recover.
    auto rep = replay_and_truncate(seg.path, /*truncate_tail=*/is_last);
    if (!rep.ok) {
      out.error = rep.error;
      return out;
    }
    if (!is_last && (rep.truncated_bytes > 0 || rep.truncate_failed)) {
      // Only the active (final) segment can legally carry a torn tail — a
      // damaged record in a sealed segment means later segments hold acked
      // edges we can no longer order after the damage. Refuse rather than
      // silently dropping them.
      out.error = "wal replay " + seg.path +
                  ": corrupt record in a sealed (non-final) segment";
      return out;
    }
    out.edges.insert(out.edges.end(), rep.edges.begin(), rep.edges.end());
    out.records += rep.records;
    out.truncated_bytes += rep.truncated_bytes;
    out.truncate_failed = out.truncate_failed || rep.truncate_failed;
    if (rep.truncate_failed && !rep.error.empty()) out.error = rep.error;
    ++out.segments;
  }
  out.ok = true;
  return out;
}

SegmentedWal::~SegmentedWal() { close(); }

bool SegmentedWal::open_segment(std::uint64_t seq, std::string* err) {
  const std::string path = numbered_path(base_, seq);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    set_error(err, "wal open " + path);
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    set_error(err, "wal fstat " + path);
    ::close(fd);
    return false;
  }
  if (st.st_size == 0) {
    if (!write_all(fd, kMagic, sizeof(kMagic))) {
      set_error(err, "wal write header " + path);
      ::close(fd);
      return false;
    }
    // A brand-new (or just-headered) file: make the file itself and its
    // directory entry durable now. Without the directory fsync a crash
    // right after creation can lose the segment wholesale — and with it
    // every batch acked against it (docs/ROBUSTNESS.md).
    if (::fsync(fd) != 0 || !fsync_parent_dir(path)) {
      set_error(err, "wal create-sync " + path);
      ::close(fd);
      return false;
    }
  } else {
    char magic[sizeof(kMagic)] = {};
    if (st.st_size < static_cast<off_t>(sizeof(kMagic)) ||
        ::pread(fd, magic, sizeof(magic), 0) != static_cast<ssize_t>(sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
      if (err != nullptr) *err = "wal open " + path + ": not a WAL file (bad magic)";
      ::close(fd);
      return false;
    }
  }
  fd_ = fd;
  active_seq_ = seq;
  active_bytes_ = std::max<std::uint64_t>(static_cast<std::uint64_t>(st.st_size),
                                          sizeof(kMagic));
  unsynced_appends_ = 0;
  return true;
}

void SegmentedWal::publish_size() {
  segment_count_.store(sealed_.size() + 1, std::memory_order_relaxed);
  total_bytes_.store(sealed_bytes_ + active_bytes_, std::memory_order_relaxed);
}

bool SegmentedWal::open(const std::string& base, SegmentedWalOptions opts,
                        std::uint64_t first_seq, std::string* err) {
  close();
  base_ = base;
  opts_ = opts;
  sealed_.clear();
  sealed_bytes_ = 0;
  active_bytes_ = 0;

  auto segments = list_numbered_files(base);
  std::uint64_t open_seq = std::max<std::uint64_t>(first_seq, 1);
  if (!segments.empty()) {
    open_seq = std::max(open_seq, segments.back().seq);
    for (auto& seg : segments) {
      if (seg.seq == segments.back().seq) continue;
      sealed_bytes_ += seg.bytes;
      sealed_.push_back(std::move(seg));
    }
    if (open_seq != segments.back().seq) {
      // first_seq outran every existing file (checkpoint covers them all
      // but retention hasn't caught up): the highest file is still sealed.
      sealed_bytes_ += segments.back().bytes;
      sealed_.push_back(segments.back());
    }
  }
  const bool ok = open_segment(open_seq, err);
  publish_size();
  return ok;
}

bool SegmentedWal::append(const std::vector<Edge>& batch) {
  if (fd_ < 0) return false;
  if (batch.empty()) return true;
  // Every record must be one the decoder accepts, or a restart would cut
  // this acked batch off as a corrupt tail.
  std::vector<std::uint8_t> rec;
  encode_wal_records(batch, kMaxPayloadBytes, &rec);

  // Injected faults: kFail dies before any byte lands, kShort writes `arg`
  // bytes of the record first (the mid-record crash the torn-tail replay
  // must cut back off), kDelay just stalls the append.
  const auto outcome = ECL_FAULT_POINT("svc.wal.append");
  fault::apply_delay(outcome);
  if (outcome.action == fault::Action::kShort) {
    (void)write_all(fd_, rec.data(), std::min<std::size_t>(outcome.arg, rec.size()));
  }
  const bool written =
      (outcome.action == fault::Action::kNone || outcome.action == fault::Action::kDelay) &&
      write_all(fd_, rec.data(), rec.size());
  if (written) {
    active_bytes_ += rec.size();
    ++unsynced_appends_;
    ECL_OBS_COUNTER_ADD("ecl.svc.wal.appends", 1);
    ECL_OBS_COUNTER_ADD("ecl.svc.wal.appended_edges", batch.size());
  } else {
    // A record may have been half-written: exactly the torn tail replay
    // cuts off. It is on disk until then, so it counts.
    struct stat st{};
    if (::fstat(fd_, &st) == 0) active_bytes_ = static_cast<std::uint64_t>(st.st_size);
  }
  publish_size();

  const bool want_fsync = opts_.wal.fsync_policy == FsyncPolicy::kAlways ||
                          (opts_.wal.fsync_policy == FsyncPolicy::kBatch &&
                           unsynced_appends_ >= kBatchFsyncAppends);
  if (!written || (want_fsync && !sync())) {
    // A log that can no longer persist closes, so the service degrades.
    ECL_OBS_COUNTER_ADD("ecl.svc.wal.errors", 1);
    close();
    return false;
  }
  return true;
}

bool SegmentedWal::sync() {
  if (ECL_FAULT_POINT("svc.wal.fsync").fired()) return false;
  if (::fsync(fd_) != 0) return false;
  unsynced_appends_ = 0;
  ECL_OBS_COUNTER_ADD("ecl.svc.wal.fsyncs", 1);
  return true;
}

void SegmentedWal::close() {
  if (fd_ < 0) return;
  if (opts_.wal.fsync_policy != FsyncPolicy::kNone && unsynced_appends_ > 0) {
    (void)::fsync(fd_);
  }
  ::close(fd_);
  fd_ = -1;
}

bool SegmentedWal::reset(std::uint64_t first_seq, std::string* err) {
  close();
  for (const auto& seg : list_numbered_files(base_)) (void)::unlink(seg.path.c_str());
  return open(base_, opts_, first_seq, err);  // creating it fsyncs the directory
}

bool SegmentedWal::rotate(std::string* err) {
  if (fd_ < 0) {
    if (err != nullptr) *err = "wal rotate: log is closed";
    return false;
  }
  const auto outcome = ECL_FAULT_POINT("svc.wal.rotate");
  fault::apply_delay(outcome);
  if (outcome.action != fault::Action::kNone &&
      outcome.action != fault::Action::kDelay) {
    if (err != nullptr) *err = "wal rotate: injected fault";
    ECL_OBS_COUNTER_ADD("ecl.svc.wal.errors", 1);
    close();
    return false;
  }
  NumberedFile sealed;
  sealed.seq = active_seq_;
  sealed.path = numbered_path(base_, active_seq_);
  sealed.bytes = active_bytes_;
  close();  // fsyncs any unsynced tail per policy
  if (!open_segment(active_seq_ + 1, err)) {
    ECL_OBS_COUNTER_ADD("ecl.svc.wal.errors", 1);
    return false;
  }
  sealed_bytes_ += sealed.bytes;
  sealed_.push_back(std::move(sealed));
  publish_size();
  ECL_OBS_COUNTER_ADD("ecl.svc.wal.rotations", 1);
  return true;
}

// -------------------------------------------------- read_wal_segment ----

WalChunk read_wal_segment(const std::string& base, std::uint64_t seq, std::uint64_t offset,
                          std::uint32_t max_bytes, std::uint64_t active_seq) {
  WalChunk out;
  out.seq = seq;
  out.offset = offset;
  out.active_seq = active_seq;
  if (seq > active_seq) {  // not written yet
    out.ok = true;
    return out;
  }
  const int fd = ::open(numbered_path(base, seq).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    out.ok = out.retired = errno == ENOENT;
    return out;
  }
  struct stat st{};
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) {
    out.segment_bytes = static_cast<std::uint64_t>(st.st_size);
    if (offset < out.segment_bytes) {
      out.data.resize(static_cast<std::size_t>(
          std::min<std::uint64_t>(max_bytes, out.segment_bytes - offset)));
      std::size_t done = 0;
      ok = ::lseek(fd, static_cast<off_t>(offset), SEEK_SET) >= 0 &&
           read_upto(fd, out.data.data(), out.data.size(), &done);
      out.data.resize(ok ? done : 0);
    }
  }
  ::close(fd);
  out.ok = ok;
  out.sealed = ok && seq < active_seq;
  return out;
}

std::size_t SegmentedWal::retire_through(std::uint64_t upto) {
  std::size_t deleted = 0;
  auto it = sealed_.begin();
  while (it != sealed_.end() && it->seq <= upto) {
    if (ECL_FAULT_POINT("svc.wal.retire").fired() ||
        (::unlink(it->path.c_str()) != 0 && errno != ENOENT)) {
      ECL_OBS_COUNTER_ADD("ecl.svc.wal.retire_errors", 1);
      ++it;  // leave it for the next retention pass
      continue;
    }
    sealed_bytes_ -= std::min(sealed_bytes_, it->bytes);
    it = sealed_.erase(it);
    ++deleted;
  }
  publish_size();
  if (deleted > 0) {
    ECL_OBS_COUNTER_ADD("ecl.svc.wal.retired_segments", deleted);
    (void)fsync_parent_dir(base_);
  }
  return deleted;
}

}  // namespace ecl::svc
