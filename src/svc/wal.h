// Write-ahead edge log for ConnectivityService crash recovery
// (docs/ROBUSTNESS.md "WAL format").
//
// The service appends every accepted batch to this log *before* the submit
// call returns kAccepted, so an acked batch survives a crash of the daemon
// process: on restart, SegmentedWal::replay() returns every durably logged
// edge and the service re-inserts them into the union-find (idempotent, so
// a batch that was both logged and applied before the crash is harmless).
//
// On-disk layout of each segment file (little-endian throughout):
//
//   header   8 bytes   magic "ECLWAL01"
//   record   u32 payload_len | u32 crc32(payload) | payload
//   payload  payload_len/8 edges, each u32 u | u32 v
//
// This file owns that framing: encode_wal_records() (through
// SegmentedWal::append()) is its one writer and WalDecoder its one reader,
// and both hold records to the same 2^26-byte payload limit. Restart replay
// and the replica's stream (svc/replica.h) both feed bytes to a WalDecoder,
// so the two can never disagree on what a valid record is; a replica logs
// each decoded record through its own SegmentedWal, which re-encodes it
// byte for byte.
//
// A crash can tear the final record (partial write, or payload written but
// CRC not). Replay validates each record's CRC and, at the first torn or
// corrupt record, ftruncates the file back to the last good record so the
// next open() appends from a clean tail. CRC32 is the standard reflected
// polynomial 0xEDB88320 (same function zlib computes), implemented locally
// so the dependency stays zero.
//
// One class, SegmentedWal, is the log: a segment chain (`<base>.000001`,
// `<base>.000002`, ...) that only checkpoint cuts end, so that, together
// with durable checkpoints (svc/checkpoint.h), disk usage and recovery time
// are bounded by the un-checkpointed *tail* instead of lifetime ingest
// (docs/ROBUSTNESS.md "Segmented WAL + checkpoints"). It owns the active
// segment's fd, and reports its own segment count and bytes on disk.
//
// Durability is configurable per service (FsyncPolicy): kNone trusts the
// page cache, kBatch fsyncs every 16 appends (kBatchFsyncAppends), kAlways
// fsyncs each append before acking. Fault points: svc.wal.append,
// svc.wal.fsync, svc.wal.truncate, svc.wal.rotate, svc.wal.retire.
//
// The byte and fd helpers at the bottom (get_u32/put_u32, write_all,
// read_upto, numbered_path, fsync_parent_dir, crc32) are the shared file
// primitives of both on-disk formats; svc/checkpoint.cpp uses them too.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace ecl::svc {

/// When the WAL calls fsync (docs/ROBUSTNESS.md "Durability levels").
enum class FsyncPolicy : std::uint8_t {
  kNone = 0,    // never; page cache only — survives process death, not OS crash
  kBatch = 1,   // every kBatchFsyncAppends appends (and on close)
  kAlways = 2,  // every append, before the caller is acked
};

[[nodiscard]] const char* to_string(FsyncPolicy p);
/// Parses "none" | "batch" | "always". False (out unchanged) otherwise.
[[nodiscard]] bool parse_fsync_policy(std::string_view s, FsyncPolicy* out);

/// Under kBatch: the log fsyncs once per this many appends (and on close).
inline constexpr std::uint32_t kBatchFsyncAppends = 16;

struct WalOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kBatch;
};

/// What replay recovered. `ok == false` means the file exists but is not a
/// WAL (bad magic) or could not be read — the caller must not overwrite it.
struct WalReplayResult {
  bool ok = false;
  std::string error;
  std::vector<Edge> edges;           // every edge from intact records, in order
  std::uint64_t records = 0;         // intact records replayed
  std::uint64_t truncated_bytes = 0; // torn/corrupt tail removed, 0 if clean
  /// A torn tail was found but could not be cut off (ftruncate/fsync
  /// failed): the file still ends in garbage a future append would write
  /// after. The recovered edges are trustworthy, the file is NOT safe to
  /// append to. Counted in ecl.svc.wal.truncate_errors.
  bool truncate_failed = false;
};

/// Incremental reader of the WAL framing, the only code that parses it:
/// feed() takes chunks of any size, next() yields one whole record at a
/// time. A record is valid when 0 < len, len % 8 == 0, len <= 2^26 and its
/// CRC matches; nothing past an invalid one is trusted. kBadMagic and
/// kCorrupt are sticky.
class WalDecoder {
 public:
  enum class Status : std::uint8_t {
    kRecord,    // one record's edges were appended
    kNeedMore,  // the buffered bytes end inside the magic or a record
    kBadMagic,  // the stream does not start with "ECLWAL01"
    kCorrupt,   // invalid framing or CRC mismatch at offset()
  };

  /// `resume_at` is the segment offset the first fed byte sits at: 0 for a
  /// fresh segment (the magic comes first), or a record boundary past the
  /// magic (a replica's replayed log size).
  explicit WalDecoder(std::uint64_t resume_at = 0) : offset_(resume_at) {}

  /// Buffers `bytes` after any partial record left from earlier calls.
  void feed(std::span<const std::uint8_t> bytes);

  /// Decodes the next whole record, appending its edges to *edges.
  [[nodiscard]] Status next(std::vector<Edge>* edges);

  /// Segment offset just past the magic and the last whole record decoded:
  /// the length a torn file is cut back to (0 while the magic is partial).
  [[nodiscard]] std::uint64_t offset() const { return offset_; }
  /// Bytes fed but not yet decoded into a record.
  [[nodiscard]] std::size_t pending() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // first undecoded byte of buf_
  std::uint64_t offset_ = 0;
};

/// Frames `batch` as WAL records in order, each holding at most
/// `max_payload_bytes` (>= 8) of payload, into *out (replacing its
/// contents); returns the record count. SegmentedWal::append passes the
/// decoder's limit; a small limit splits small batches the same way.
std::size_t encode_wal_records(std::span<const Edge> batch, std::uint32_t max_payload_bytes,
                               std::vector<std::uint8_t>* out);

// ---------------------------------------------------------------------------
// Segmented WAL

/// One `<base>.NNNNNN` file (6-digit zero-padded sequence number).
struct NumberedFile {
  std::uint64_t seq = 0;
  std::string path;
  std::uint64_t bytes = 0;
};

/// `<base>.NNNNNN` for seq (shared naming scheme of WAL segments and
/// checkpoints).
[[nodiscard]] std::string numbered_path(const std::string& base, std::uint64_t seq);

/// Every existing `<base>.NNNNNN` file, ascending by sequence number.
[[nodiscard]] std::vector<NumberedFile> list_numbered_files(const std::string& base);

/// Fsyncs the directory containing `path`, making a just-created file (or a
/// just-completed rename) itself durable — without this, a crash right
/// after O_CREAT/rename can lose the *directory entry* even though the data
/// blocks were synced. Returns false on failure (errno preserved).
[[nodiscard]] bool fsync_parent_dir(const std::string& path);

/// A segment ends only at rotate() (a checkpoint cut, or a replica mirroring
/// the primary's), never on size, so the durability policy is the one
/// option. It stays a struct, not a bare WalOptions parameter, because the
/// service benchmark declares one and sets its `wal` member.
struct SegmentedWalOptions {
  WalOptions wal;  // per-segment durability policy
};

/// The write-ahead log, split across segment files. Appends go to the
/// highest-numbered (active) segment; rotate() seals it and opens the next.
/// Sealed segments are immutable and individually retirable once a durable
/// checkpoint covers them. Not thread-safe — the service serializes all
/// access under its WAL mutex — except segment_count() and total_bytes(),
/// which any thread may read at any time.
class SegmentedWal {
 public:
  SegmentedWal() = default;
  ~SegmentedWal();

  SegmentedWal(const SegmentedWal&) = delete;
  SegmentedWal& operator=(const SegmentedWal&) = delete;

  /// What replay() recovered across the segments.
  struct ReplayResult : WalReplayResult {
    std::uint64_t segments = 0;  // segments replayed
  };
  /// Replays every segment with seq > after_seq, in sequence order, each
  /// like replay_and_truncate(). A torn tail is only legal in the *final*
  /// segment (the only one a crash can tear); torn or corrupt records in an
  /// earlier segment fail the replay (ok == false) rather than silently
  /// dropping later acked edges. The segments past after_seq (a checkpoint
  /// covers those up to it; 0 when none does) must run after_seq + 1,
  /// after_seq + 2, ... with no hole: a missing segment fails the replay,
  /// naming its seq.
  [[nodiscard]] static ReplayResult replay(const std::string& base,
                                           std::uint64_t after_seq);

  /// Feeds the one segment file `path` to a WalDecoder in bounded chunks
  /// and truncates any torn tail in place, back to the decoder's offset(). A
  /// missing file is a clean empty result (ok, no edges) so first boot and
  /// restart share one code path.
  ///
  /// With `truncate_tail == false` the file is never modified: a torn tail
  /// is still reported via truncated_bytes, but left on disk. replay()
  /// validates *sealed* segments this way — damage there is refused, and
  /// cutting the file would destroy acked records past the damage point
  /// that a manual repair could still recover.
  [[nodiscard]] static WalReplayResult replay_and_truncate(const std::string& path,
                                                           bool truncate_tail = true);

  /// Opens the highest existing segment for appending, or creates segment
  /// max(first_seq, 1) when none exist (first_seq lets a checkpoint-led
  /// recovery keep sequence numbers monotonic after full retention). An
  /// existing segment must carry the WAL magic; replay it first — open()
  /// does not validate record bodies, only the header, and positions at
  /// end-of-file. A new (or empty) one gets the magic, fsynced with its
  /// directory entry. Returns false with *err filled in on failure.
  [[nodiscard]] bool open(const std::string& base, SegmentedWalOptions opts,
                          std::uint64_t first_seq, std::string* err);

  /// Appends one batch to the active segment, however large it grows, as
  /// CRC-framed records (one, unless the batch exceeds the decoder's
  /// 2^26-byte payload limit) with one write, and applies the fsync policy.
  /// False on any I/O failure (the log is closed: a WAL that can no longer
  /// persist must not pretend to — the service reacts by entering degraded
  /// mode); the bytes that did land count in total_bytes(). Empty batches
  /// are a no-op.
  [[nodiscard]] bool append(const std::vector<Edge>& batch);

  /// Seals the active segment and opens the next one (the checkpoint cut).
  /// Fault point svc.wal.rotate. On failure the log is closed and false is
  /// returned. Counted in ecl.svc.wal.rotations.
  [[nodiscard]] bool rotate(std::string* err);

  /// Deletes every segment, then opens an empty one numbered first_seq: a
  /// replica rebased onto a checkpoint covering first_seq - 1 drops the
  /// log behind it. False, with *err set, when the open fails.
  [[nodiscard]] bool reset(std::uint64_t first_seq, std::string* err);

  /// Deletes sealed segments with seq <= upto (never the active segment).
  /// Fault point svc.wal.retire. Returns the number of segments deleted;
  /// failures are counted (ecl.svc.wal.retire_errors) and skipped — a
  /// leftover segment costs disk, not correctness.
  std::size_t retire_through(std::uint64_t upto);

  /// Fsyncs (per policy) and closes the active segment. Idempotent.
  void close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  [[nodiscard]] std::uint64_t active_seq() const { return active_seq_; }
  /// On-disk size of the active segment: where the log ends.
  [[nodiscard]] std::uint64_t active_bytes() const { return active_bytes_; }
  /// Retained segments, active included (0 before the first open()).
  [[nodiscard]] std::uint64_t segment_count() const {
    return segment_count_.load(std::memory_order_relaxed);
  }
  /// Total on-disk bytes across retained segments, active included.
  [[nodiscard]] std::uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Opens (creating, with the magic) segment `seq` as the active one.
  [[nodiscard]] bool open_segment(std::uint64_t seq, std::string* err);
  /// Fsyncs the open active segment.
  [[nodiscard]] bool sync();
  /// Stores segment_count() and total_bytes() from the fields below.
  void publish_size();

  int fd_ = -1;  // the active segment
  std::string base_;
  SegmentedWalOptions opts_;
  std::uint64_t active_seq_ = 0;
  std::uint64_t active_bytes_ = 0;
  std::uint32_t unsynced_appends_ = 0;
  std::vector<NumberedFile> sealed_;  // ascending seq
  std::uint64_t sealed_bytes_ = 0;
  std::atomic<std::uint64_t> segment_count_{0};
  std::atomic<std::uint64_t> total_bytes_{0};
};

// ---------------------------------------------------------------------------
// Segment reader (replication serving side, docs/REPLICATION.md)

/// kFetchWal payload: one bounded chunk of raw segment bytes. `retired`
/// means the requested segment is gone (the replica fell behind retention
/// and must re-bootstrap from a checkpoint); `sealed` means no more bytes
/// will ever appear in it, so a reader that has consumed segment_bytes of it
/// advances to seq + 1. `ok` is the serving side's I/O verdict and never
/// travels on the wire — the server answers !ok with Status::kError.
struct WalChunk {
  bool ok = false;
  bool retired = false;
  bool sealed = false;
  std::uint64_t seq = 0;            // echoed segment sequence
  std::uint64_t offset = 0;         // echoed start offset
  std::uint64_t segment_bytes = 0;  // size of that segment at read time
  std::uint64_t active_seq = 0;     // the writer's active (highest) segment
  std::vector<std::uint8_t> data;
};

/// Reads up to max_bytes of segment `seq` of the log at `base`, from
/// `offset`, concurrently with its writer, whose active segment was
/// `active_seq` before the call. A segment past it is not written yet: the
/// answer is empty, and the disk is not touched. At or below it, a missing
/// file was retired: the writer creates a segment's file before the segment
/// becomes active, and unlinks only sealed segments below the active one.
/// The file is opened by name on every call and no fd is held across calls,
/// so a retirement between reads cannot strand the reader on an unlinked
/// file. Segments are append-only, so a bounded read of the active one
/// returns a stable prefix (at worst ending mid-record, which the consumer
/// buffers until the rest arrives).
[[nodiscard]] WalChunk read_wal_segment(const std::string& base, std::uint64_t seq,
                                        std::uint64_t offset, std::uint32_t max_bytes,
                                        std::uint64_t active_seq);

/// CRC32 (reflected 0xEDB88320, zlib-compatible), computed slice-by-8;
/// every whole kCrc32LaneThresholdBytes stripe of the input runs as four
/// interleaved lanes whose CRCs are then combined. Exposed for tests that
/// hand-craft torn or corrupt WAL images.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n);

/// Inputs shorter than this (a WAL record of a few hundred edges) take the
/// single-lane slice-by-8 loop only.
inline constexpr std::size_t kCrc32LaneThresholdBytes = 16 * 1024;

/// Extends a finished CRC32 over n more bytes, like zlib's crc32(crc, ...):
/// crc32_update(crc32(a), b) == crc32(a followed by b), and crc 0 starts a
/// fresh checksum. Lets a reader checksum a file chunk by chunk.
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t n);

/// The CRC32 of a followed by b from crc_a = crc32(a), crc_b = crc32(b) and
/// len_b = |b|, like zlib's crc32_combine: lets independently checksummed
/// pieces of one input be folded in order.
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                          std::size_t len_b);

/// Little-endian u32 at p (both on-disk formats are little-endian).
inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

/// Writes all n bytes, retrying short writes and EINTR. False on error
/// (errno preserved).
[[nodiscard]] bool write_all(int fd, const void* buf, std::size_t n);

/// Reads up to n bytes into buf, stopping early only at EOF; *got is the
/// count read. False on error (errno preserved) and, when `got` is null
/// (the caller needs exactly n bytes), on an early EOF too.
[[nodiscard]] bool read_upto(int fd, void* buf, std::size_t n,
                             std::size_t* got = nullptr);

}  // namespace ecl::svc
