// Durability tests for the checkpoint + segmented-WAL layer
// (docs/ROBUSTNESS.md "Checkpoint format", "Segmented WAL + checkpoints"):
// the numbered-file naming shared by segments and checkpoints, the
// CheckpointStore write/load/retention protocol (including fallback past a
// torn or corrupt newest checkpoint), SegmentedWal rotation / tail-only
// replay / retirement, and the service-level contract — bounded restart
// (checkpoint load + tail replay), WAL segments retired once covered, a
// short write mid-record degrading the service without losing acked edges,
// and a failed torn-tail truncation refusing the reopen.
//
// Same registry discipline as test_fault_svc.cpp: every case that arms the
// process-wide fault registry disarms it again in TearDown.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "svc/checkpoint.h"
#include "svc/service.h"
#include "svc/wal.h"

namespace ecl::svc {
namespace {

fault::Registry& reg() { return fault::Registry::instance(); }

void arm(const char* point, fault::Action action, std::uint64_t times,
         std::uint64_t arg = 0) {
  fault::PointSpec spec;
  spec.point = point;
  spec.action = action;
  spec.times = times;
  spec.arg = arg;
  reg().arm_point(std::move(spec));
}

/// Every test gets a fresh directory (segments and checkpoints are file
/// *families*, so per-file cleanup is not enough) and a disarmed registry.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reg().disarm_all();
    char tmpl[] = "/tmp/ecl_ckpt_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    reg().disarm_all();
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  static void write_raw(const std::string& p, const void* data, std::size_t n,
                        bool append = false) {
    std::FILE* f = std::fopen(p.c_str(), append ? "ab" : "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data, 1, n, f), n);
    std::fclose(f);
  }

  static bool exists(const std::string& p) {
    struct stat st {};
    return ::stat(p.c_str(), &st) == 0;
  }

  static std::uint64_t file_size(const std::string& p) {
    struct stat st {};
    return ::stat(p.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
  }

  static CheckpointData sample_data(std::uint32_t n, std::uint64_t watermark,
                                    std::uint64_t epoch, std::uint64_t wal_seq) {
    CheckpointData d;
    d.n = n;
    d.watermark = watermark;
    d.epoch = epoch;
    d.wal_seq = wal_seq;
    d.labels.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) d.labels[v] = v / 2 * 2;  // pairs
    return d;
  }

  std::string dir_;
};

// ------------------------------------------------------ numbered files ----

using NumberedFilesTest = DurabilityTest;

TEST_F(NumberedFilesTest, PathIsSixDigitZeroPadded) {
  EXPECT_EQ(numbered_path("/x/wal", 7), "/x/wal.000007");
  EXPECT_EQ(numbered_path("/x/wal", 123456), "/x/wal.123456");
}

TEST_F(NumberedFilesTest, ListingSortsBySeqAndIgnoresStrays) {
  const std::string base = path("wal");
  const char byte = 0;
  write_raw(base + ".000010", &byte, 1);
  write_raw(base + ".000002", &byte, 1);
  write_raw(base + ".tmp", &byte, 1);       // not six digits
  write_raw(base + ".00003x", &byte, 1);    // non-digit
  write_raw(path("other.000001"), &byte, 1);  // different stem

  const auto files = list_numbered_files(base);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].seq, 2u);
  EXPECT_EQ(files[1].seq, 10u);
  EXPECT_EQ(files[1].path, base + ".000010");
  EXPECT_EQ(files[0].bytes, 1u);
}

// --------------------------------------------------------------- crc32 ----

/// The byte-at-a-time definition the WAL and checkpoint formats were
/// written with; the slice-by-8 implementation must match it bit for bit.
std::uint32_t reference_crc32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32_update(0, "123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, ChainedUpdateMatchesOneShotAtEverySplit) {
  std::vector<std::uint8_t> buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  // Start offsets 0..7 and lengths up to 40 put the 8-byte steps at every
  // alignment and leave every tail length; splits 0..15 cut inside and
  // across them.
  for (std::size_t off = 0; off < 8; ++off) {
    const std::uint8_t* p = buf.data() + off;
    for (std::size_t len = 0; len <= 40; ++len) {
      const std::uint32_t one_shot = crc32(p, len);
      ASSERT_EQ(one_shot, reference_crc32(p, len)) << "off " << off << " len " << len;
      for (std::size_t split = 0; split <= std::min<std::size_t>(15, len); ++split) {
        ASSERT_EQ(crc32_update(crc32(p, split), p + split, len - split), one_shot)
            << "off " << off << " len " << len << " split " << split;
      }
    }
  }
}

// ----------------------------------------------------- checkpoint store ----

using CheckpointStoreTest = DurabilityTest;

TEST_F(CheckpointStoreTest, WriteLoadRoundTrip) {
  CheckpointStore store;
  store.open(path("ckpt"));
  EXPECT_EQ(store.count(), 0u);

  const auto data = sample_data(/*n=*/8, /*watermark=*/5, /*epoch=*/3, /*wal_seq=*/2);
  const auto w = store.write(data);
  ASSERT_TRUE(w.ok) << w.error;
  EXPECT_EQ(w.seq, 1u);
  EXPECT_GT(w.bytes, 0u);
  EXPECT_TRUE(exists(numbered_path(path("ckpt"), 1)));
  EXPECT_FALSE(exists(path("ckpt.tmp")));  // temp image renamed away

  const auto load = store.load_latest_valid();
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_TRUE(load.found_any);
  EXPECT_EQ(load.seq, 1u);
  EXPECT_EQ(load.fallbacks, 0u);
  EXPECT_EQ(load.data.n, 8u);
  EXPECT_EQ(load.data.watermark, 5u);
  EXPECT_EQ(load.data.epoch, 3u);
  EXPECT_EQ(load.data.wal_seq, 2u);
  EXPECT_EQ(load.data.labels, data.labels);
}

TEST_F(CheckpointStoreTest, FreshDirectoryIsNotAnError) {
  CheckpointStore store;
  store.open(path("ckpt"));
  const auto load = store.load_latest_valid();
  EXPECT_FALSE(load.ok);
  EXPECT_FALSE(load.found_any);  // first boot: start from scratch
}

TEST_F(CheckpointStoreTest, RetentionKeepsNewestTwo) {
  CheckpointStore store;
  store.open(path("ckpt"), /*keep=*/2);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const auto w = store.write(sample_data(4, i * 10, i, i));
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.seq, i);
  }
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(store.latest_seq(), 3u);
  EXPECT_FALSE(exists(numbered_path(path("ckpt"), 1)));  // retired
  EXPECT_TRUE(exists(numbered_path(path("ckpt"), 2)));
  EXPECT_TRUE(exists(numbered_path(path("ckpt"), 3)));
}

TEST_F(CheckpointStoreTest, CorruptNewestFallsBackToPrevious) {
  CheckpointStore store;
  store.open(path("ckpt"));
  ASSERT_TRUE(store.write(sample_data(4, 10, 1, 1)).ok);
  ASSERT_TRUE(store.write(sample_data(4, 20, 2, 2)).ok);

  // Flip one payload byte of the newest checkpoint: its CRC no longer
  // matches and the loader must land on seq 1, not fail.
  const std::string newest = numbered_path(path("ckpt"), 2);
  std::FILE* f = std::fopen(newest.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
  std::fputc(0x7f, f);
  std::fclose(f);

  const auto load = store.load_latest_valid();
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.seq, 1u);
  EXPECT_EQ(load.fallbacks, 1u);
  EXPECT_EQ(load.data.watermark, 10u);
}

TEST_F(CheckpointStoreTest, NonCanonicalLabelsFallBackToPrevious) {
  // The restart installs the labels as the live union-find's parent array,
  // so a CRC-valid image whose labels are not a canonical forest is as
  // unusable as a torn one: the loader must skip it for the older file.
  const std::vector<std::vector<vertex_t>> bad = {
      {0, 2, 2, 3},  // label[1] = 2 > 1: not its component's minimum
      {0, 0, 1, 3},  // label[2] = 1 but label[1] = 0: a chain, not flat
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const std::string base = path("ckpt" + std::to_string(i));
    CheckpointStore store;
    store.open(base);
    ASSERT_TRUE(store.write(sample_data(4, 10, 1, 1)).ok);
    auto data = sample_data(4, 20, 2, 2);
    data.labels = bad[i];
    ASSERT_TRUE(store.write(data).ok);  // the writer trusts its caller

    CheckpointData out;
    std::string err;
    EXPECT_FALSE(CheckpointStore::read_file(numbered_path(base, 2), &out, &err)) << i;
    EXPECT_NE(err.find("canonical forest"), std::string::npos) << err;

    const auto load = store.load_latest_valid();
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.seq, 1u) << i;
    EXPECT_EQ(load.fallbacks, 1u) << i;
    EXPECT_EQ(load.data.watermark, 10u) << i;
  }
}

TEST_F(CheckpointStoreTest, TornNewestFallsBackToPrevious) {
  CheckpointStore store;
  store.open(path("ckpt"));
  ASSERT_TRUE(store.write(sample_data(4, 10, 1, 1)).ok);
  ASSERT_TRUE(store.write(sample_data(4, 20, 2, 2)).ok);

  // Crash mid-write would normally leave only the .tmp, but simulate the
  // worst case anyway: a short final image under the numbered name.
  const std::string newest = numbered_path(path("ckpt"), 2);
  ASSERT_EQ(::truncate(newest.c_str(), 10), 0);

  const auto load = store.load_latest_valid();
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.seq, 1u);
  EXPECT_EQ(load.fallbacks, 1u);
}

TEST_F(CheckpointStoreTest, AllCorruptReportsErrorNotGarbage) {
  CheckpointStore store;
  store.open(path("ckpt"));
  ASSERT_TRUE(store.write(sample_data(4, 10, 1, 1)).ok);
  const char junk[] = "NOT A CHECKPOINT";
  write_raw(numbered_path(path("ckpt"), 1), junk, sizeof(junk));

  const auto load = store.load_latest_valid();
  EXPECT_FALSE(load.ok);
  EXPECT_TRUE(load.found_any);
  EXPECT_FALSE(load.error.empty());
}

TEST_F(CheckpointStoreTest, RetentionFloorIsOldestRetainedWalSeq) {
  CheckpointStore store;
  store.open(path("ckpt"), /*keep=*/2);
  // Fewer checkpoints than the keep count: retiring anything could strand
  // the fallback path, so the floor must be 0.
  ASSERT_TRUE(store.write(sample_data(4, 10, 1, /*wal_seq=*/7)).ok);
  EXPECT_EQ(store.retention_floor_wal_seq(), 0u);

  ASSERT_TRUE(store.write(sample_data(4, 20, 2, /*wal_seq=*/9)).ok);
  EXPECT_EQ(store.retention_floor_wal_seq(), 7u);  // oldest retained, not newest

  ASSERT_TRUE(store.write(sample_data(4, 30, 3, /*wal_seq=*/12)).ok);
  EXPECT_EQ(store.retention_floor_wal_seq(), 9u);
}

TEST_F(CheckpointStoreTest, ReopenScansExistingChain) {
  {
    CheckpointStore store;
    store.open(path("ckpt"));
    ASSERT_TRUE(store.write(sample_data(4, 10, 1, 1)).ok);
    ASSERT_TRUE(store.write(sample_data(4, 20, 2, 2)).ok);
  }
  CheckpointStore reopened;  // a restarted process
  reopened.open(path("ckpt"));
  EXPECT_EQ(reopened.count(), 2u);
  EXPECT_EQ(reopened.latest_seq(), 2u);
  const auto load = reopened.load_latest_valid();
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.data.watermark, 20u);
  const auto w = reopened.write(sample_data(4, 30, 3, 3));
  ASSERT_TRUE(w.ok) << w.error;
  EXPECT_EQ(w.seq, 3u);  // numbering continues, never reuses
}

TEST_F(CheckpointStoreTest, HandCraftedImageMatchesTheWriterFormat) {
  // Build a one-checkpoint image by hand from the documented layout and
  // check read_file accepts it — this pins the on-disk format.
  const std::uint32_t version = 1, n = 2;
  const std::uint64_t watermark = 6, epoch = 4, wal_seq = 3;
  const std::uint32_t labels[2] = {0, 0};
  std::vector<std::uint8_t> payload;
  const auto put = [&payload](const void* p, std::size_t sz) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    payload.insert(payload.end(), b, b + sz);
  };
  put(&version, 4);
  put(&n, 4);
  put(&watermark, 8);
  put(&epoch, 8);
  put(&wal_seq, 8);
  put(labels, sizeof(labels));
  const std::uint32_t crc = crc32(payload.data(), payload.size());

  std::FILE* f = std::fopen(numbered_path(path("ckpt"), 1).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("ECLCKPT1", 1, 8, f);
  std::fwrite(&crc, 4, 1, f);
  std::fwrite(payload.data(), 1, payload.size(), f);
  std::fclose(f);

  CheckpointData out;
  std::string err;
  ASSERT_TRUE(CheckpointStore::read_file(numbered_path(path("ckpt"), 1), &out, &err))
      << err;
  EXPECT_EQ(out.n, 2u);
  EXPECT_EQ(out.watermark, 6u);
  EXPECT_EQ(out.epoch, 4u);
  EXPECT_EQ(out.wal_seq, 3u);
  ASSERT_EQ(out.labels.size(), 2u);
  EXPECT_EQ(out.labels[1], 0u);
}

TEST_F(CheckpointStoreTest, InjectedWriteFaultLeavesOldChainIntact) {
  CheckpointStore store;
  store.open(path("ckpt"));
  ASSERT_TRUE(store.write(sample_data(4, 10, 1, 1)).ok);

  for (const char* point : {"svc.ckpt.write", "svc.ckpt.fsync", "svc.ckpt.rename"}) {
    arm(point, fault::Action::kFail, 1);
    const auto w = store.write(sample_data(4, 20, 2, 2));
    EXPECT_FALSE(w.ok) << point;
    EXPECT_FALSE(w.error.empty()) << point;
    const auto load = store.load_latest_valid();  // previous chain untouched
    ASSERT_TRUE(load.ok) << point << ": " << load.error;
    EXPECT_EQ(load.data.watermark, 10u) << point;
    reg().disarm_all();
  }
}

// -------------------------------------------------------- segmented WAL ----

using SegmentedWalTest = DurabilityTest;

TEST_F(SegmentedWalTest, AdoptLegacyRenamesBareFile) {
  const std::string base = path("wal");
  {
    WriteAheadLog legacy;
    std::string err;
    ASSERT_TRUE(legacy.open(base, {}, &err)) << err;
    ASSERT_TRUE(legacy.append({{1, 2}}));
    legacy.close();
  }
  std::string err;
  ASSERT_TRUE(SegmentedWal::adopt_legacy(base, &err)) << err;
  EXPECT_FALSE(exists(base));
  EXPECT_TRUE(exists(base + ".000001"));
  ASSERT_TRUE(SegmentedWal::adopt_legacy(base, &err)) << err;  // idempotent

  const auto rep = SegmentedWal::replay(base, 0);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.segments, 1u);
  ASSERT_EQ(rep.edges.size(), 1u);
  EXPECT_EQ(rep.edges[0], (Edge{1, 2}));
}

TEST_F(SegmentedWalTest, SizeRotationSplitsAndReplayPreservesOrder) {
  const std::string base = path("wal");
  SegmentedWalOptions opts;
  opts.segment_bytes = 64;  // a couple of records per segment
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(base, opts, 1, &err)) << err;
  for (vertex_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(wal.append({{i, i + 100}}));
  }
  EXPECT_GT(wal.segment_count(), 2u);
  EXPECT_GT(wal.active_seq(), 2u);
  EXPECT_EQ(wal.appended_records(), 10u);
  wal.close();

  const auto rep = SegmentedWal::replay(base, 0);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(rep.segments, 2u);
  ASSERT_EQ(rep.edges.size(), 10u);
  for (vertex_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rep.edges[i], (Edge{i, i + 100}));  // cross-segment order
  }
}

TEST_F(SegmentedWalTest, ReplayAfterSeqSkipsCoveredSegments) {
  const std::string base = path("wal");
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(base, {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{1, 2}}));
  ASSERT_TRUE(wal.rotate(&err)) << err;  // the checkpoint cut
  ASSERT_TRUE(wal.append({{3, 4}}));
  wal.close();

  const auto tail = SegmentedWal::replay(base, /*after_seq=*/1);
  ASSERT_TRUE(tail.ok) << tail.error;
  EXPECT_EQ(tail.segments, 1u);
  ASSERT_EQ(tail.edges.size(), 1u);
  EXPECT_EQ(tail.edges[0], (Edge{3, 4}));  // segment 1 is covered, skipped

  const auto all = SegmentedWal::replay(base, 0);
  ASSERT_TRUE(all.ok) << all.error;
  EXPECT_EQ(all.edges.size(), 2u);
}

TEST_F(SegmentedWalTest, RetireThroughDeletesSealedOnly) {
  const std::string base = path("wal");
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(base, {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{1, 2}}));
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_TRUE(wal.append({{3, 4}}));
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_TRUE(wal.append({{5, 6}}));  // active segment 3

  EXPECT_EQ(wal.retire_through(wal.active_seq()), 2u);  // never the active one
  EXPECT_FALSE(exists(base + ".000001"));
  EXPECT_FALSE(exists(base + ".000002"));
  EXPECT_TRUE(exists(base + ".000003"));
  EXPECT_EQ(wal.segment_count(), 1u);
  wal.close();

  const auto rep = SegmentedWal::replay(base, 0);
  ASSERT_TRUE(rep.ok) << rep.error;
  ASSERT_EQ(rep.edges.size(), 1u);
  EXPECT_EQ(rep.edges[0], (Edge{5, 6}));
}

TEST_F(SegmentedWalTest, FirstSeqKeepsNumberingMonotonicAfterRetention) {
  // A checkpoint-led recovery where every segment was retired: the next
  // segment must continue the sequence (covered_seq + 1), never restart at
  // 1, or a later replay would re-apply it against the wrong checkpoint.
  const std::string base = path("wal");
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(base, {}, /*first_seq=*/5, &err)) << err;
  EXPECT_EQ(wal.active_seq(), 5u);
  ASSERT_TRUE(wal.append({{1, 2}}));
  wal.close();
  EXPECT_TRUE(exists(base + ".000005"));

  const auto rep = SegmentedWal::replay(base, /*after_seq=*/4);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.edges.size(), 1u);
}

TEST_F(SegmentedWalTest, TornFinalSegmentIsTruncated) {
  const std::string base = path("wal");
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(base, {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{1, 2}}));
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_TRUE(wal.append({{3, 4}}));
  wal.close();

  const std::uint8_t torn[5] = {0xde, 0xad, 0xbe, 0xef, 0x01};
  write_raw(base + ".000002", torn, sizeof(torn), /*append=*/true);

  const auto rep = SegmentedWal::replay(base, 0);
  ASSERT_TRUE(rep.ok) << rep.error;  // the final segment may legally be torn
  EXPECT_EQ(rep.truncated_bytes, sizeof(torn));
  EXPECT_EQ(rep.edges.size(), 2u);
}

TEST_F(SegmentedWalTest, TornSealedSegmentFailsReplay) {
  const std::string base = path("wal");
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(base, {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{1, 2}}));
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_TRUE(wal.append({{3, 4}}));
  wal.close();

  // Garbage in a *sealed* segment is not a crash artifact (only the final
  // segment can tear) — replay must refuse rather than silently drop the
  // acked edges that follow in later segments.
  const std::uint8_t torn[5] = {0xde, 0xad, 0xbe, 0xef, 0x01};
  write_raw(base + ".000001", torn, sizeof(torn), /*append=*/true);
  const auto before = file_size(base + ".000001");

  const auto rep = SegmentedWal::replay(base, 0);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("sealed"), std::string::npos) << rep.error;
  EXPECT_EQ(file_size(base + ".000001"), before);  // refused, not truncated
}

// ------------------------------------------------- service integration ----

using ServiceCheckpointTest = DurabilityTest;

TEST_F(ServiceCheckpointTest, CleanStopCheckpointsAndRestartSkipsReplay) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;  // explicit + final-on-stop only
  {
    ConnectivityService service(64, opts);
    ASSERT_EQ(service.submit({{1, 2}, {2, 3}}), Admission::kAccepted);
    ASSERT_EQ(service.submit({{10, 11}}), Admission::kAccepted);
    service.flush();
    service.stop();  // writes the final checkpoint
  }
  ConnectivityService revived(64, opts);
  // Bounded restart: the checkpoint covers everything, the WAL tail is
  // empty, and no edge needed replaying or re-solving.
  EXPECT_EQ(revived.replayed_edges(), 0u);
  EXPECT_TRUE(revived.connected(1, 3));
  EXPECT_TRUE(revived.connected(10, 11));
  EXPECT_FALSE(revived.connected(1, 10));
  const auto h = revived.stats();
  EXPECT_TRUE(h.checkpoint_enabled);
  EXPECT_GT(h.last_checkpoint_epoch, 0u);
  const auto stats = revived.stats();
  EXPECT_EQ(stats.watermark, 3u);  // snapshot already reflects the labels
  EXPECT_EQ(stats.epoch, h.last_checkpoint_epoch);  // published as loaded
  revived.stop();
}

TEST_F(ServiceCheckpointTest, RestartReplaysOnlyTheUncheckpointedTail) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;
  {
    ConnectivityService service(64, opts);
    ASSERT_EQ(service.submit({{1, 2}, {2, 3}, {10, 12}, {12, 11}}), Admission::kAccepted);
    service.flush();
    ASSERT_TRUE(service.checkpoint_now());
    ASSERT_EQ(service.submit({{20, 21}}), Admission::kAccepted);
    service.flush();
    // Fail every later checkpoint (including the final one on stop): the
    // post-checkpoint batch stays WAL-only, like a crash would leave it.
    arm("svc.ckpt.write", fault::Action::kFail, 100);
    service.stop();
  }
  reg().disarm_all();

  ConnectivityService revived(64, opts);
  EXPECT_EQ(revived.replayed_edges(), 1u);  // the tail, not lifetime ingest
  EXPECT_TRUE(revived.connected(1, 3));     // from the checkpoint labels
  EXPECT_TRUE(revived.connected(20, 21));   // from the tail replay
  EXPECT_FALSE(revived.connected(1, 20));

  // The installed labels are a working union-find, not just a label copy:
  // the live structure agrees with the snapshot on every vertex...
  const auto modes_agree = [&revived] {
    for (vertex_t v = 0; v < revived.num_vertices(); ++v) {
      if (revived.component_of(v, ReadMode::kFresh) !=
          revived.component_of(v, ReadMode::kSnapshot)) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(modes_agree());
  // ...and an ingest joining two checkpointed components through non-root
  // members merges them in both read modes.
  ASSERT_EQ(revived.submit({{11, 3}}), Admission::kAccepted);
  revived.flush();
  EXPECT_TRUE(revived.connected(2, 12, ReadMode::kFresh));
  (void)revived.compact_now();
  EXPECT_TRUE(revived.connected(2, 12, ReadMode::kSnapshot));
  EXPECT_EQ(revived.component_of(12, ReadMode::kSnapshot), 1u);
  EXPECT_TRUE(modes_agree());
  revived.stop();
}

TEST_F(ServiceCheckpointTest, CheckpointNowRetiresCoveredSegments) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;
  opts.wal_segment_bytes = 256;  // rotate every few batches
  // Room for all 100 batches below: each rotation fsyncs, so the worker can
  // trail the submit loop by more than the default 64 and shed one.
  opts.queue_capacity = 128;

  ConnectivityService service(1024, opts);
  for (vertex_t i = 0; i + 1 < 200; i += 2) {
    ASSERT_EQ(service.submit({{i, i + 1}}), Admission::kAccepted);
  }
  service.flush();
  const auto before = service.stats().wal_segments;
  EXPECT_GT(before, 3u);  // rotation actually happened

  // Two checkpoints with progress in between: the retention floor advances
  // to the first checkpoint's cut, retiring every segment before it.
  ASSERT_TRUE(service.checkpoint_now());
  ASSERT_EQ(service.submit({{500, 501}}), Admission::kAccepted);
  service.flush();
  ASSERT_TRUE(service.checkpoint_now());

  const auto stats = service.stats();
  EXPECT_LT(stats.wal_segments, before);
  EXPECT_GE(stats.checkpoints, 2u);
  EXPECT_GT(stats.last_checkpoint_epoch, 0u);
  service.stop();

  // The retained tail + checkpoint still answer everything.
  ConnectivityService revived(1024, opts);
  EXPECT_TRUE(revived.connected(0, 1));
  EXPECT_TRUE(revived.connected(198, 199));
  EXPECT_TRUE(revived.connected(500, 501));
  EXPECT_FALSE(revived.connected(0, 2));
  revived.stop();
}

TEST_F(ServiceCheckpointTest, CorruptNewestCheckpointFallsBackOnRestart) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;
  {
    ConnectivityService service(64, opts);
    ASSERT_EQ(service.submit({{1, 2}}), Admission::kAccepted);
    service.flush();
    ASSERT_TRUE(service.checkpoint_now());
    ASSERT_EQ(service.submit({{3, 4}}), Admission::kAccepted);
    service.flush();
    ASSERT_TRUE(service.checkpoint_now());
    arm("svc.ckpt.write", fault::Action::kFail, 100);  // no final checkpoint
    service.stop();
  }
  reg().disarm_all();

  // Corrupt the newest checkpoint; the loader must fall back to the older
  // one, and retention (floored at the *oldest* retained checkpoint) kept
  // every WAL segment that older checkpoint still needs.
  CheckpointStore store;
  store.open(path("ckpt"));
  const std::string newest = numbered_path(path("ckpt"), store.latest_seq());
  std::FILE* f = std::fopen(newest.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
  std::fputc(0x7f, f);
  std::fclose(f);

  ConnectivityService revived(64, opts);
  EXPECT_TRUE(revived.connected(1, 2));
  EXPECT_TRUE(revived.connected(3, 4));  // replayed from the retained tail
  EXPECT_FALSE(revived.connected(1, 3));
  revived.stop();
}

TEST_F(ServiceCheckpointTest, ShortWriteMidRecordDegradesWithoutLosingAcks) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  ConnectivityService service(64, opts);
  ASSERT_EQ(service.submit({{1, 2}, {2, 3}}), Admission::kAccepted);
  service.flush();

  // A short write mid-record (4 of the record's bytes land, then the device
  // "fails"): the batch must be shed — never acked — and the service drops
  // to read-only degraded mode.
  arm("svc.wal.append", fault::Action::kShort, 1, /*arg=*/4);
  EXPECT_EQ(service.submit({{40, 41}}), Admission::kShed);
  EXPECT_TRUE(service.degraded());
  service.stop();
  reg().disarm_all();

  // The 4 stray bytes are a torn tail; replay truncates back to the last
  // good record and the acked history is intact.
  const auto rep = SegmentedWal::replay(opts.wal_path, 0);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.truncated_bytes, 4u);
  EXPECT_EQ(rep.edges.size(), 2u);

  ConnectivityService revived(64, opts);
  EXPECT_EQ(revived.replayed_edges(), 2u);
  EXPECT_TRUE(revived.connected(1, 3));
  EXPECT_FALSE(revived.connected(40, 41));  // shed, so rightly absent
  const auto h = revived.stats();
  EXPECT_FALSE(h.degraded);
  EXPECT_TRUE(h.wal_healthy);
  revived.stop();
}

TEST_F(ServiceCheckpointTest, FailedTruncateRefusesTheReopen) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  {
    ConnectivityService service(64, opts);
    ASSERT_EQ(service.submit({{1, 2}}), Admission::kAccepted);
    service.stop();
  }
  const std::uint8_t torn[3] = {0x01, 0x02, 0x03};
  write_raw(opts.wal_path + ".000001", torn, sizeof(torn), /*append=*/true);

  // The torn tail is found but cannot be cut off: appending to this file
  // would strand every future record behind garbage, so the constructor
  // must refuse rather than limp on.
  arm("svc.wal.truncate", fault::Action::kFail, 1);
  EXPECT_THROW(ConnectivityService(64, opts), std::runtime_error);
  reg().disarm_all();

  // With truncation working again the same state recovers normally.
  ConnectivityService revived(64, opts);
  EXPECT_EQ(revived.replayed_edges(), 1u);
  EXPECT_TRUE(revived.connected(1, 2));
  revived.stop();
}

}  // namespace
}  // namespace ecl::svc
