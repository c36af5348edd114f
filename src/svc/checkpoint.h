// Durable label-array checkpoints for ConnectivityService
// (docs/ROBUSTNESS.md "Checkpoint format").
//
// A checkpoint persists the snapshot published exactly at a WAL cut: the
// canonical labels of exactly the first `watermark` edges, its epoch, and
// `wal_seq`, whose segments (seq <= wal_seq) hold exactly those edges. Once
// the checkpoint is durable they are redundant for recovery: restart becomes
// "load checkpoint + replay tail segments" instead of "replay lifetime
// ingest", which is what bounds recovery time and steady-state disk/memory
// (the static/incremental split of Hong, Dhulipala & Shun,
// arXiv:2008.11839 — the static snapshot makes history before its
// watermark redundant).
//
// On-disk layout (little-endian):
//
//   header   8 bytes   magic "ECLCKPT1"
//   crc      u32       crc32 of the payload that follows
//   payload  u32 version (=1) | u32 n | u64 watermark | u64 epoch |
//            u64 wal_seq | n x u32 labels
//
// The labels are the paper's finalized (Fini) output: every vertex points
// straight at its component's minimum ID, so label[v] <= v and
// label[label[v]] == label[v]. That makes the array a flat union-find parent
// array the service installs as-is on restart; a file whose labels are not
// such a canonical forest is rejected as corrupt even when its CRC matches.
// A restart maps the file instead of reading it: the checked read-only
// mapping is the first snapshot, and a copy-on-write mapping of the same
// range is the live union-find's parent array, so a restart is one
// validation pass over page-cache pages with no fill and no copy. The pass
// runs on every CPU the loading thread may use: it and one helper per
// other CPU in its affinity mask, each pinned to its CPU at creation, claim
// the labels' 1 MiB chunks, and each chunk's CRC folds into the file's in
// chunk order, so the verdict is that of one sequential pass.
//
// Checkpoints are numbered files `<base>.000001, <base>.000002, ...`
// (shared naming with WAL segments, svc/wal.h). CheckpointStore is the only
// code that names, writes, installs, lists, serves and retires them. A
// file lands crash-atomically: the image is written to `<base>.tmp`,
// fsynced, renamed over the final numbered name, and the parent directory
// fsynced — a crash at any point leaves either the previous checkpoint set
// intact or a complete new file. Both ways in share that sequence: write()
// (a snapshot this service compacted) and install() (an image fetched from
// a primary, validated before the rename). Either way the file takes the
// store's own next number, so a replica's numbers are local and need not
// match its primary's. The loader walks checkpoints newest-first and falls
// back past any torn or corrupt file (counted in
// ecl.svc.ckpt.load_fallbacks). Retention keeps the newest two, installs
// included, so that fallback always has somewhere to land. Files are only
// ever renamed into place and unlinked, never modified in place, which is
// what lets a mapping outlive its file's retirement.
//
// Fault points: svc.ckpt.write, svc.ckpt.fsync, svc.ckpt.rename.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/page_array.h"
#include "common/types.h"

namespace ecl::svc {

/// Everything in a checkpoint except its label array.
struct CheckpointHeader {
  std::uint32_t n = 0;            // label-array length (vertex universe)
  std::uint64_t watermark = 0;    // labels of exactly the first this-many edges
  std::uint64_t epoch = 0;        // snapshot epoch the labels came from
  std::uint64_t wal_seq = 0;      // WAL segments <= this hold exactly those edges
};

/// The logical content of one checkpoint.
struct CheckpointData : CheckpointHeader {
  /// Canonical (minimum-ID) component labels: label[v] <= v and
  /// label[label[v]] == label[v], so the array is also a flat union-find
  /// parent array. read_file() rejects any file whose labels are not, and
  /// leaves a read-only mapping of the file here.
  PageArray labels;
  /// Roots among the labels (components), counted by read_file()'s
  /// validation pass; not written.
  vertex_t components = 0;
};

struct CheckpointWriteResult {
  bool ok = false;
  std::string error;
  std::uint64_t seq = 0;    // sequence number of the new checkpoint file
  std::uint64_t bytes = 0;  // size of the written image
};

struct CheckpointLoadResult {
  bool ok = false;          // a valid checkpoint was loaded
  bool found_any = false;   // at least one checkpoint file existed
  std::string error;        // last failure when !ok && found_any
  std::uint64_t seq = 0;    // sequence number the data came from
  std::uint64_t fallbacks = 0;  // newer checkpoints skipped as torn/corrupt
  CheckpointData data;
};

/// kFetchCkpt payload: the primary's newest valid checkpoint as a raw file
/// image, plus where it sits in the checkpoint/WAL chains. `has == false`
/// (and empty image) when the primary has no valid checkpoint; a primary
/// that never checkpointed never retired a segment, so no replica needs one.
struct CkptImage {
  bool has = false;
  std::uint64_t seq = 0;      // the primary's file number (diagnostic only)
  std::uint64_t wal_seq = 0;  // WAL segments <= this are covered by it
  std::vector<std::uint8_t> image;
};

/// Owns the `<base>.NNNNNN` checkpoint chain: atomic writes, keep-newest-2
/// retention, fallback loading, and installs of fetched images. Not
/// thread-safe — a primary service calls it from the compaction thread
/// only, a replica from its Replicator's task only (plus the constructor,
/// pre-threads).
class CheckpointStore {
 public:
  /// Binds the store to `base` and scans for existing checkpoints. Never
  /// creates anything.
  void open(std::string base);

  /// Loads the newest checkpoint that validates, skipping (not deleting)
  /// torn/corrupt newer ones. `!found_any` on a fresh directory is not an
  /// error — the caller starts from scratch.
  [[nodiscard]] CheckpointLoadResult load_latest_valid() const;

  /// Writes `data` as the next checkpoint (seq = newest + 1) via the
  /// crash-atomic temp -> fsync -> rename -> dir-fsync protocol, then
  /// applies retention (unlinking all but the newest two).
  /// Counted in ecl.svc.ckpt.writes / .write_errors / .bytes. The labels
  /// are written straight from `labels` (n of them), with no file image.
  [[nodiscard]] CheckpointWriteResult write(const CheckpointHeader& header,
                                            std::span<const vertex_t> labels);
  [[nodiscard]] CheckpointWriteResult write(const CheckpointData& data) {
    return write(data, data.labels);
  }

  /// Installs a fetched checkpoint image (CkptImage::image) as the next
  /// checkpoint, through write()'s sequence and fault points: the image
  /// goes to the temp file and is fsynced, then read_file() validates it
  /// into *data and `accept` (when set) may still refuse it; only then is it
  /// renamed into the chain, registered and retention applied.
  [[nodiscard]] CheckpointWriteResult install(
      std::span<const std::uint8_t> image, CheckpointData* data,
      const std::function<bool(const CheckpointData&)>& accept = {});

  /// The highest WAL segment seq that is safe to retire: the wal_seq of the
  /// *oldest retained* checkpoint (0 when fewer than kKeep checkpoints
  /// exist). Using the oldest — not the newest — means a fallback load
  /// after a corrupt newest checkpoint still finds every segment it needs.
  [[nodiscard]] std::uint64_t retention_floor_wal_seq() const;

  [[nodiscard]] const std::string& base() const { return base_; }
  [[nodiscard]] std::size_t count() const { return entries_.size(); }

  /// Parses one checkpoint file: the header and its length check, then the
  /// label array mapped read-only into out->labels and checked in place
  /// (CRC, canonical forest, root count) in one pass split over the
  /// allowed CPUs, whose helper threads are joined before it returns. Each
  /// call is timed in the ecl.svc.ckpt.load_us histogram. Exposed for
  /// tests and fallback logic.
  [[nodiscard]] static bool read_file(const std::string& path, CheckpointData* out,
                                      std::string* err);

  /// The newest valid checkpoint under `base` as a raw file image (the
  /// primary's side of kFetchCkpt). Reads each file once and validates the
  /// bytes in memory with read_file()'s checks. Reads by name, retrying
  /// with a fresh listing when the file vanishes, because the compaction
  /// thread's keep-2 rotation may unlink it concurrently. has == false when
  /// none is valid.
  [[nodiscard]] static CkptImage read_newest_image(const std::string& base);

 private:
  /// The crash-atomic sequence write() and install() share. stage():
  /// `head` then `tail` to `<base>.tmp`, fsync. publish(): rename it to the
  /// next number, fsync the directory, register it, apply retention.
  [[nodiscard]] bool stage(std::span<const std::uint8_t> head,
                           std::span<const std::uint8_t> tail, std::string* err);
  [[nodiscard]] CheckpointWriteResult publish(std::uint64_t wal_seq,
                                              std::uint64_t image_bytes);
  [[nodiscard]] std::string tmp_path() const { return base_ + ".tmp"; }

  struct Entry {
    std::uint64_t seq = 0;
    std::string path;
    std::uint64_t wal_seq = 0;  // parsed lazily; ~0 when unknown/corrupt
    bool wal_seq_known = false;
  };

  /// Checkpoints retained: two, so a corrupt newest one has a fallback.
  static constexpr std::size_t kKeep = 2;

  std::string base_;
  std::vector<Entry> entries_;  // ascending seq
};

}  // namespace ecl::svc
