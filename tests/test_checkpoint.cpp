// Durability tests for the checkpoint + segmented-WAL layer
// (docs/ROBUSTNESS.md "Checkpoint format", "Segmented WAL + checkpoints"):
// the numbered-file naming shared by segments and checkpoints, the
// CheckpointStore write/install/load/retention protocol (including fallback
// past a torn or corrupt newest checkpoint), SegmentedWal rotation /
// tail-only replay / retirement / refusal of a segment hole, and the
// service-level contract — bounded restart (checkpoint load + tail replay),
// WAL segments retired once covered, checkpoints cut under live ingest
// counting exactly the edges of their segments, a short write mid-record
// degrading the service without losing acked edges, and a failed torn-tail
// truncation, a segment hole or a WAL-only fallback past retired segments
// refusing the restart.
//
// Same registry discipline as test_fault_svc.cpp: every case that arms the
// process-wide fault registry disarms it again in TearDown.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <ranges>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cpu_mask.h"
#include "core/ecl_cc.h"
#include "core/incremental.h"
#include "fault/fault.h"
#include "graph/builder.h"
#include "svc/checkpoint.h"
#include "svc/service.h"
#include "svc/wal.h"
#include "test_util.h"

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
    std::vector<vertex_t> labels(n);
    for (std::uint32_t v = 0; v < n; ++v) labels[v] = v / 2 * 2;  // pairs
    d.labels = PageArray(labels);
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
  constexpr std::size_t kStripe = kCrc32LaneThresholdBytes;
  constexpr std::size_t kLane = kStripe / 4;
  constexpr std::size_t kChunk = std::size_t{1} << 20;  // the checkpoint check's unit
  constexpr std::size_t kLarge = (std::size_t{3} << 20) + 5;
  std::vector<std::uint8_t> buf(kLarge + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7 + (i >> 11));
  }
  // Lengths up to 40 put the 8-byte steps at every alignment and leave
  // every tail length; the lengths around kStripe enter the four-lane path
  // with every tail, and kLarge runs it over many stripes. Start offsets
  // 0..7 misalign each of them.
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 40; ++len) lengths.push_back(len);
  for (std::size_t len = kStripe - 1; len <= kStripe + 8; ++len) lengths.push_back(len);
  lengths.push_back(kLarge);
  for (std::size_t off = 0; off < 8; ++off) {
    const std::uint8_t* p = buf.data() + off;
    for (const std::size_t len : lengths) {
      const std::uint32_t one_shot = crc32(p, len);
      ASSERT_EQ(one_shot, reference_crc32(p, len)) << "off " << off << " len " << len;
      // Splits 0..15 cut inside and across the 8-byte steps; the rest cut
      // inside a lane and at lane and stripe boundaries, so a chained
      // update starts a stripe mid-input, and at 1 MiB +-1 on either side,
      // the checkpoint chunks that crc32_combine folds. Split len leaves
      // an empty second piece.
      std::vector<std::size_t> splits;
      for (std::size_t split = 0; split <= 15; ++split) splits.push_back(split);
      for (const std::size_t split :
           {kLane / 2, kLane, kLane + 3, 3 * kLane - 1, kStripe, kStripe + kLane + 1,
            kChunk - 1, kChunk, kChunk + 1, len - kChunk - 1, len - kChunk, len - kChunk + 1,
            len / 2, len - 1, len}) {
        splits.push_back(split);
      }
      for (const std::size_t split : splits) {
        if (split > len) continue;
        const std::uint32_t head = crc32(p, split);
        ASSERT_EQ(crc32_update(head, p + split, len - split), one_shot)
            << "off " << off << " len " << len << " split " << split;
        // crc32_combine sees only CRCs and a length, never the bytes, so
        // one alignment covers it.
        if (off != 0) continue;
        ASSERT_EQ(crc32_combine(head, crc32(p + split, len - split), len - split), one_shot)
            << "len " << len << " split " << split;
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
  store.open(path("ckpt"));
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const auto w = store.write(sample_data(4, i * 10, i, i));
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.seq, i);
  }
  EXPECT_EQ(store.count(), 2u);
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
  EXPECT_EQ(CheckpointStore::read_newest_image(path("ckpt")).seq, 1u);  // served likewise
}

TEST_F(CheckpointStoreTest, NonCanonicalLabelsFallBackToPrevious) {
  // The restart installs the labels as the live union-find's parent array,
  // so a CRC-valid image whose labels are not a canonical forest is as
  // unusable as a torn one: the loader must skip it for the older file,
  // and so must the kFetchCkpt server. The labels are checked one 1 MiB
  // chunk at a time, so the violations below also sit at the last vertex
  // and at the first vertex of a later chunk.
  struct Case {
    std::uint32_t n;
    vertex_t v;      // the vertex whose label breaks the forest
    vertex_t label;  // its label
  };
  constexpr std::uint32_t kChunk = (1u << 20) / sizeof(vertex_t);
  constexpr std::uint32_t kN = 2 * kChunk + 5;  // sample_data: label = v / 2 * 2
  const std::vector<Case> bad = {
      {4, 1, 2},                 // label[1] = 2 > 1: not its component's minimum
      {4, 2, 1},                 // label[2] = 1 but label[1] = 0: a chain, not flat
      {kN, kN - 1, kN},          // label > v at the last vertex (out of range too)
      {kN, kN - 1, 0xFFFFFFFE},  // label > v, and far past the end of the file
      {kN, kN - 1, 3},           // a chain at the last vertex
      {kN, kChunk, kChunk + 1},  // label > v at the second chunk's first vertex
      {kN, kChunk, 1},           // a chain there
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const std::string base = path("ckpt" + std::to_string(i));
    CheckpointStore store;
    store.open(base);
    ASSERT_TRUE(store.write(sample_data(bad[i].n, 10, 1, 1)).ok);
    auto data = sample_data(bad[i].n, 20, 2, 2);
    data.labels[bad[i].v] = bad[i].label;
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
    EXPECT_EQ(load.data.components, (bad[i].n + 1) / 2) << i;
    EXPECT_EQ(CheckpointStore::read_newest_image(base).seq, 1u) << i;
  }
}

TEST_F(CheckpointStoreTest, LastChunkViolationsAreRefused) {
  // Five 1 MiB chunks, the last one 5 labels long. The loader and one
  // helper thread per other CPU claim the chunks, so on a multi-CPU host
  // the last chunk is usually a helper's: its verdict must reach the
  // loader with the sequential pass's text.
  constexpr std::uint32_t kChunk = (1u << 20) / sizeof(vertex_t);
  constexpr std::uint32_t kN = 4 * kChunk + 5;  // sample_data: label = v / 2 * 2
  const std::string base = path("ckpt");
  CheckpointStore store;
  store.open(base);
  ASSERT_TRUE(store.write(sample_data(kN, 10, 1, 1)).ok);
  CheckpointData out;
  std::string err;
  ASSERT_TRUE(CheckpointStore::read_file(numbered_path(base, 1), &out, &err)) << err;
  EXPECT_EQ(out.components, (kN + 1) / 2);

  // A flipped byte of the last label: the CRC refuses it before the forest
  // test would.
  const std::string flipped = path("flipped");
  std::filesystem::copy_file(numbered_path(base, 1), flipped);
  std::FILE* f = std::fopen(flipped.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -2, SEEK_END), 0);
  std::fputc(0x5a, f);
  std::fclose(f);
  EXPECT_FALSE(CheckpointStore::read_file(flipped, &out, &err));
  EXPECT_NE(err.find("CRC mismatch (torn or corrupt)"), std::string::npos) << err;

  // A CRC-valid chain in the last chunk.
  auto data = sample_data(kN, 20, 2, 2);
  data.labels[kN - 2] = 3;
  ASSERT_TRUE(store.write(data).ok);
  EXPECT_FALSE(CheckpointStore::read_file(numbered_path(base, 2), &out, &err));
  EXPECT_NE(err.find("labels are not a canonical forest"), std::string::npos) << err;
  const auto load = store.load_latest_valid();
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.seq, 1u);
}

TEST_F(CheckpointStoreTest, OneCpuLoadMatchesAllCpuLoad) {
  // The worker count comes only from the affinity mask: with one allowed
  // CPU the loader checks every chunk itself, and the result is the same.
  constexpr std::uint32_t kN = 3 * (1u << 18) + 7;
  std::vector<vertex_t> labels(kN);
  Xoshiro256 rng(7);
  for (std::uint32_t v = 0; v < kN; ++v) {
    labels[v] = v < 64 || rng.next() % 4 == 0 ? v : labels[rng.next() % v];
  }
  CheckpointData data;
  data.n = kN;
  data.watermark = 99;
  data.epoch = 5;
  data.wal_seq = 4;
  data.labels = PageArray(labels);
  CheckpointStore store;
  store.open(path("ckpt"));
  ASSERT_TRUE(store.write(data).ok);

  const testing::CpuMaskScope mask;
  const auto full = store.load_latest_valid();
  ASSERT_TRUE(mask.limit(1));
  const auto single = store.load_latest_valid();

  for (const auto* load : {&full, &single}) {
    ASSERT_TRUE(load->ok) << load->error;
    EXPECT_EQ(load->data.labels, labels);
    EXPECT_EQ(load->data.components,
              static_cast<vertex_t>(std::ranges::count_if(
                  std::views::iota(0u, kN), [&](vertex_t v) { return labels[v] == v; })));
    EXPECT_EQ(load->data.watermark, 99u);
    EXPECT_EQ(load->data.epoch, 5u);
    EXPECT_EQ(load->data.wal_seq, 4u);
  }
}

TEST_F(CheckpointStoreTest, TornNewestFallsBackToPrevious) {
  // Crash mid-write would normally leave only the .tmp, but simulate the
  // worst case anyway: a short final image under the numbered name, cut in
  // its header or in the middle of its labels. The length check refuses
  // the latter before the file is mapped, so no access passes its end.
  constexpr std::uint32_t kN = 4096;  // four pages of labels
  const std::vector<std::pair<off_t, std::string>> cuts = {
      {10, "truncated header"},
      {44 + kN / 2 * sizeof(vertex_t) + 2, "label array length mismatch"},
  };
  for (const auto& [bytes, why] : cuts) {
    const std::string base = path("ckpt" + std::to_string(bytes));
    CheckpointStore store;
    store.open(base);
    ASSERT_TRUE(store.write(sample_data(kN, 10, 1, 1)).ok);
    ASSERT_TRUE(store.write(sample_data(kN, 20, 2, 2)).ok);
    const std::string newest = numbered_path(base, 2);
    ASSERT_EQ(::truncate(newest.c_str(), bytes), 0);

    CheckpointData out;
    std::string err;
    EXPECT_FALSE(CheckpointStore::read_file(newest, &out, &err));
    EXPECT_NE(err.find(why), std::string::npos) << err;
    const auto load = store.load_latest_valid();
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.seq, 1u);
    EXPECT_EQ(load.fallbacks, 1u);
  }
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
  store.open(path("ckpt"));
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
  const auto load = reopened.load_latest_valid();
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.seq, 2u);
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

// install() runs write()'s sequence and fault points, validates the image
// before the rename, and numbers the file after its own chain.
TEST_F(CheckpointStoreTest, InstallValidatesFirstAndTakesTheNextLocalNumber) {
  CheckpointStore source;
  source.open(path("src"));
  for (std::uint64_t i = 1; i <= 3; ++i) ASSERT_TRUE(source.write(sample_data(4, 20, 2, 9)).ok);
  const CkptImage img = CheckpointStore::read_newest_image(path("src"));
  ASSERT_TRUE(img.has);
  EXPECT_EQ(img.seq, 3u);

  CheckpointStore store;
  store.open(path("ckpt"));
  ASSERT_TRUE(store.write(sample_data(4, 10, 1, 1)).ok);
  CheckpointData data;
  for (const char* point : {"svc.ckpt.write", "svc.ckpt.fsync", "svc.ckpt.rename"}) {
    arm(point, fault::Action::kFail, 1);
    EXPECT_FALSE(store.install(img.image, &data).ok) << point;
    EXPECT_EQ(store.load_latest_valid().data.watermark, 10u) << point;
    reg().disarm_all();
  }

  std::vector<std::uint8_t> torn = img.image;
  torn.pop_back();
  EXPECT_FALSE(store.install(torn, &data).ok);
  EXPECT_FALSE(store.install(img.image, &data, [](const CheckpointData&) { return false; }).ok);
  EXPECT_EQ(list_numbered_files(path("ckpt")).size(), 1u);
  EXPECT_FALSE(exists(path("ckpt.tmp")));

  const auto w = store.install(img.image, &data);
  ASSERT_TRUE(w.ok) << w.error;
  EXPECT_EQ(w.seq, 2u);
  EXPECT_EQ(data.wal_seq, 9u);
  EXPECT_EQ(store.retention_floor_wal_seq(), 1u);
}

// -------------------------------------------------------- segmented WAL ----

using SegmentedWalTest = DurabilityTest;

TEST_F(SegmentedWalTest, RotationSplitsAndReplayPreservesOrder) {
  const std::string base = path("wal");
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(base, {}, 1, &err)) << err;
  for (vertex_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(wal.append({{i, i + 100}}));
    if (i % 3 == 2) {
      ASSERT_TRUE(wal.rotate(&err)) << err;  // a cut every third record
    }
  }
  EXPECT_EQ(wal.segment_count(), 4u);
  EXPECT_EQ(wal.active_seq(), 4u);
  wal.close();

  const auto rep = SegmentedWal::replay(base, 0);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.segments, 4u);
  EXPECT_EQ(rep.records, 10u);
  ASSERT_EQ(rep.edges.size(), 10u);
  for (vertex_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rep.edges[i], (Edge{i, i + 100}));  // cross-segment order
  }
}

// The log reports its own size: segment_count() and total_bytes() match
// the segment files after every call that changes them, and a reopen.
TEST_F(SegmentedWalTest, ReportedSizeMatchesTheSegmentFiles) {
  const std::string base = path("wal");
  SegmentedWal wal;
  const auto expect_files = [&](const char* after) {
    const auto files = list_numbered_files(base);
    std::uint64_t bytes = 0;
    for (const auto& f : files) bytes += f.bytes;
    EXPECT_EQ(wal.segment_count(), files.size()) << after;
    EXPECT_EQ(wal.total_bytes(), bytes) << after;
  };
  EXPECT_EQ(wal.segment_count(), 0u);
  EXPECT_EQ(wal.total_bytes(), 0u);
  std::string err;
  ASSERT_TRUE(wal.open(base, {}, 1, &err)) << err;
  expect_files("open");
  for (vertex_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.append({{i, i + 1}, {i, i + 2}}));
    expect_files("append");
    ASSERT_TRUE(wal.rotate(&err)) << err;
    expect_files("rotate");
  }
  ASSERT_TRUE(wal.append({{7, 8}}));
  EXPECT_EQ(wal.segment_count(), 4u);
  EXPECT_EQ(wal.retire_through(2), 2u);
  expect_files("retire_through");
  wal.close();
  expect_files("close");

  SegmentedWal reopened;
  ASSERT_TRUE(reopened.open(base, {}, 1, &err)) << err;
  EXPECT_EQ(reopened.segment_count(), 2u);
  EXPECT_EQ(reopened.total_bytes(), wal.total_bytes());
  ASSERT_TRUE(reopened.reset(9, &err)) << err;
  EXPECT_EQ(reopened.segment_count(), 1u);
  EXPECT_EQ(reopened.total_bytes(), 8u);  // one empty segment: the magic
  EXPECT_EQ(list_numbered_files(base).size(), 1u);
  reopened.close();
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

  // Retiring through 2 presumes a checkpoint covering segment 2.
  const auto rep = SegmentedWal::replay(base, /*after_seq=*/2);
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

// Past a checkpoint the segments must run after_seq + 1, after_seq + 2, ...
// (1, 2, ... without one): a missing one held acked edges nothing else
// covers, so replay refuses, naming it, instead of silently skipping them.
TEST_F(SegmentedWalTest, MissingMiddleSegmentFailsReplay) {
  const std::string base = path("wal");
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(base, {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{0, 1}}));
  for (vertex_t v = 1; v < 4; ++v) {
    ASSERT_TRUE(wal.rotate(&err)) << err;
    ASSERT_TRUE(wal.append({{v, v + 1}}));
  }
  wal.close();
  ASSERT_EQ(::unlink(numbered_path(base, 3).c_str()), 0);

  const auto rep = SegmentedWal::replay(base, /*after_seq=*/1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("segment 3 is missing"), std::string::npos) << rep.error;

  // Without a checkpoint (after_seq == 0) the hole fails the replay too.
  const auto all = SegmentedWal::replay(base, 0);
  EXPECT_FALSE(all.ok);
  EXPECT_NE(all.error.find("segment 3 is missing"), std::string::npos) << all.error;
}

TEST_F(SegmentedWalTest, MissingFirstSegmentAfterCheckpointFailsReplay) {
  const std::string base = path("wal");
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(base, {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{1, 2}}));
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_TRUE(wal.append({{3, 4}}));
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_TRUE(wal.append({{5, 6}}));
  wal.close();
  ASSERT_EQ(::unlink(numbered_path(base, 2).c_str()), 0);

  const auto rep = SegmentedWal::replay(base, /*after_seq=*/1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("segment 2 is missing"), std::string::npos) << rep.error;
  // A hole at or below the checkpoint's coverage is harmless (a failed
  // retirement unlink can leave one).
  EXPECT_TRUE(SegmentedWal::replay(base, /*after_seq=*/2).ok);
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
  // every vertex's label is the reference one...
  std::vector<Edge> all = {{1, 2}, {2, 3}, {10, 12}, {12, 11}, {20, 21}};
  const auto labels_exact = [&] {
    const std::vector<vertex_t> ref = ecl_cc_serial(build_graph(64, all));
    for (vertex_t v = 0; v < revived.num_vertices(); ++v) {
      if (revived.component_of(v) != ref[v]) return false;
    }
    return true;
  };
  EXPECT_TRUE(labels_exact());
  // ...and an ingest joining two checkpointed components through non-root
  // members merges them.
  ASSERT_EQ(revived.submit({{11, 3}}), Admission::kAccepted);
  all.emplace_back(11, 3);
  revived.flush();
  (void)revived.compact_now();
  EXPECT_TRUE(revived.connected(2, 12, ReadMode::kSnapshot));
  EXPECT_EQ(revived.component_of(12), 1u);
  EXPECT_TRUE(labels_exact());
  revived.stop();
}

// At a service-sized universe the loaded label array and the live
// union-find's parent array span many 2 MiB regions, so the restart runs
// the huge-page-advised allocations and the four-lane CRC.
TEST_F(ServiceCheckpointTest, LargeRestartKeepsComponentsAndTakesNewJoins) {
  constexpr vertex_t kN = (1u << 20) + 3;
  constexpr vertex_t kRun = 1000;  // components are runs of 1000 vertices
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;
  {
    ConnectivityService service(kN, opts);
    ConnectivityService::EdgeBatch batch;
    for (vertex_t v = 0; v + 1 < kN; ++v) {
      if ((v + 1) % kRun != 0) batch.emplace_back(v + 1, v);
      if (batch.size() == 50000 || v + 2 == kN) {
        while (service.submit(batch) != Admission::kAccepted) service.flush();
        batch.clear();
      }
    }
    service.flush();
    service.stop();  // writes the final checkpoint
  }
  ConnectivityService revived(kN, opts);
  EXPECT_EQ(revived.replayed_edges(), 0u);
  constexpr vertex_t kComponents = (kN + kRun - 1) / kRun;
  EXPECT_EQ(revived.snapshot()->num_components, kComponents);
  EXPECT_TRUE(revived.connected(0, kRun - 1));
  EXPECT_FALSE(revived.connected(kRun - 1, kRun));
  EXPECT_TRUE(revived.connected(kN - 1, kN / kRun * kRun));
  EXPECT_EQ(revived.component_of(kN - 1), kN / kRun * kRun);

  // Join two checkpointed components through non-root members.
  ASSERT_EQ(revived.submit({{5 * kRun + 7, 2 * kRun + 500}}), Admission::kAccepted);
  revived.flush();
  (void)revived.compact_now();
  EXPECT_TRUE(revived.connected(2 * kRun, 6 * kRun - 1, ReadMode::kSnapshot));
  EXPECT_EQ(revived.component_of(5 * kRun), 2 * kRun);
  EXPECT_EQ(revived.snapshot()->num_components, kComponents - 1);
  revived.stop();
}

// A restart maps its checkpoint twice: read-only for the first snapshot and
// copy-on-write for the live union-find. Hooks that write every page of the
// label range must leave the file as it was, so it still validates and a
// later restart from it plus the WAL tail is exact.
TEST_F(ServiceCheckpointTest, RestartNeverWritesItsCheckpointFile) {
  constexpr vertex_t kN = 1u << 16;  // 64 pages of labels
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;
  std::vector<Edge> all = {{1, 2}, {2, 3}, {10, 11}, {kN - 1, kN - 2}};
  {
    ConnectivityService service(kN, opts);
    ASSERT_EQ(service.submit(all), Admission::kAccepted);
    service.flush();
    service.stop();  // writes ckpt.000001
  }
  const std::string loaded = numbered_path(path("ckpt"), 1);
  const auto read_bytes = [](const std::string& p) {
    std::vector<char> bytes(std::filesystem::file_size(p));
    std::FILE* f = std::fopen(p.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return bytes;
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  };
  const std::vector<char> original = read_bytes(loaded);

  {
    ConnectivityService revived(kN, opts);
    // A singleton in every page hooks under vertex 0 (its parent entry is
    // written), then 1..3 and 10..11 join: path halving runs as well.
    ConnectivityService::EdgeBatch batch;
    for (vertex_t v = 512; v < kN - 2; v += 1024) batch.emplace_back(v, 0);
    batch.emplace_back(kN - 1, 0);
    batch.emplace_back(11, 3);
    ASSERT_EQ(revived.submit(batch), Admission::kAccepted);
    all.insert(all.end(), batch.begin(), batch.end());
    revived.flush();
    (void)revived.compact_now();
    EXPECT_TRUE(revived.connected(512, kN - 2));
    EXPECT_TRUE(revived.connected(1, 10, ReadMode::kSnapshot));
    EXPECT_EQ(read_bytes(loaded), original);

    // The crash image: the loaded checkpoint and the WAL tail, before stop()
    // checkpoints again.
    ASSERT_TRUE(std::filesystem::create_directory(path("crash")));
    std::filesystem::copy_file(loaded, path("crash/ckpt.000001"));
    for (const auto& f : list_numbered_files(path("wal"))) {
      std::filesystem::copy_file(f.path, path("crash/wal") + f.path.substr(f.path.rfind('.')));
    }
    revived.stop();
  }
  EXPECT_EQ(read_bytes(loaded), original);
  CheckpointData data;
  std::string err;
  ASSERT_TRUE(CheckpointStore::read_file(loaded, &data, &err)) << err;

  ServiceOptions crash_opts = opts;
  crash_opts.wal_path = path("crash/wal");
  crash_opts.checkpoint_path = path("crash/ckpt");
  ConnectivityService restarted(kN, crash_opts);
  EXPECT_EQ(restarted.replayed_edges(), all.size() - 4);
  EXPECT_EQ(restarted.snapshot()->labels, ecl_cc_serial(build_graph(kN, all)));
  restarted.stop();
}

// Keep-2 retention unlinks the file the first snapshot and the live
// union-find map; both mappings stay valid, so reads and new hooks go on
// as before, and the next restart loads the newest checkpoint.
TEST_F(ServiceCheckpointTest, MappedCheckpointOutlivesRetirement) {
  constexpr vertex_t kN = 1u << 14;
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;
  std::vector<Edge> all = {{1, 2}, {2, 3}, {10, 11}, {kN - 1, 7}};
  {
    ConnectivityService service(kN, opts);
    ASSERT_EQ(service.submit(all), Admission::kAccepted);
    service.flush();
    service.stop();  // writes ckpt.000001
  }
  const auto expect_components = [&](ConnectivityService& svc) {
    const std::vector<vertex_t> ref = ecl_cc_serial(build_graph(kN, all));
    const std::size_t roots = std::ranges::count_if(
        std::views::iota(vertex_t{0}, kN), [&ref](vertex_t v) { return ref[v] == v; });
    EXPECT_EQ(svc.component_count(), roots);
    EXPECT_EQ(svc.snapshot()->labels, ref);
    for (vertex_t v = 0; v < kN; ++v) {
      ASSERT_EQ(svc.component_of(v), ref[v]) << v;
    }
  };

  {
    ConnectivityService revived(kN, opts);
    const std::uint64_t loaded_epoch = revived.snapshot()->epoch;
    ASSERT_TRUE(revived.checkpoint_now());
    ASSERT_TRUE(revived.checkpoint_now());
    EXPECT_FALSE(exists(numbered_path(path("ckpt"), 1)));  // retired while mapped
    EXPECT_EQ(revived.snapshot()->epoch, loaded_epoch);     // still the mapping
    expect_components(revived);

    // New hooks write the unlinked file's copy-on-write pages.
    const ConnectivityService::EdgeBatch batch = {{3, 10}, {kN - 2, kN - 1}, {5000, 6}};
    ASSERT_EQ(revived.submit(batch), Admission::kAccepted);
    all.insert(all.end(), batch.begin(), batch.end());
    revived.flush();
    (void)revived.compact_now();
    expect_components(revived);
    revived.stop();  // writes ckpt.000004
  }
  CheckpointStore store;
  store.open(path("ckpt"));
  EXPECT_EQ(store.load_latest_valid().seq, 4u);
  ConnectivityService restarted(kN, opts);
  EXPECT_EQ(restarted.replayed_edges(), 0u);  // the newest covers every edge
  expect_components(restarted);
  restarted.stop();
}

TEST_F(ServiceCheckpointTest, CheckpointNowRetiresCoveredSegments) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;

  // Each checkpoint_now() cuts: it seals the active segment and writes a
  // checkpoint covering it. Retention keeps two checkpoints, so the first
  // cut retires nothing and every later cut k retires segment k - 1, which
  // the older retained checkpoint covers.
  ConnectivityService service(1024, opts);
  const std::string wal = path("wal");
  for (std::uint64_t k = 1; k <= 4; ++k) {
    for (vertex_t i = 50 * (k - 1); i < 50 * k; i += 2) {
      ASSERT_EQ(service.submit({{i, i + 1}}), Admission::kAccepted);
    }
    ASSERT_TRUE(service.checkpoint_now());
    SCOPED_TRACE("cut " + std::to_string(k));
    EXPECT_EQ(service.wal_end().first, k + 1);
    EXPECT_EQ(service.stats().wal_segments, 2u);
    EXPECT_TRUE(exists(numbered_path(wal, k)));
    if (k > 1) {
      EXPECT_FALSE(exists(numbered_path(wal, k - 1)));  // retired
    }
  }
  EXPECT_EQ(service.stats().checkpoints, 4u);
  EXPECT_GT(service.stats().last_checkpoint_epoch, 0u);
  ASSERT_EQ(service.submit({{500, 501}}), Admission::kAccepted);
  service.flush();
  service.stop();

  // The retained tail + checkpoint still answer everything.
  ConnectivityService revived(1024, opts);
  EXPECT_TRUE(revived.connected(0, 1));
  EXPECT_TRUE(revived.connected(198, 199));
  EXPECT_TRUE(revived.connected(500, 501));
  EXPECT_FALSE(revived.connected(0, 2));
  revived.stop();
}

// The service refuses to start on a hole after its checkpoint, as it does
// on a torn sealed segment, rather than come up without acked edges.
TEST_F(ServiceCheckpointTest, HoleAfterTheCheckpointRefusesTheRestart) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;
  {
    ConnectivityService service(64, opts);
    ASSERT_EQ(service.submit({{1, 2}}), Admission::kAccepted);
    ASSERT_TRUE(service.checkpoint_now());  // covers segment 1
    ASSERT_EQ(service.submit({{3, 4}}), Admission::kAccepted);
    service.flush();
    arm("svc.ckpt.write", fault::Action::kFail, 100);  // no final checkpoint
    service.stop();
  }
  reg().disarm_all();
  // Segment 2 alone holds {3, 4}.
  ASSERT_EQ(::unlink(numbered_path(path("wal"), 2).c_str()), 0);
  EXPECT_THROW(ConnectivityService(64, opts), std::runtime_error);
}

// With every retained checkpoint corrupt the restart falls back to the WAL
// alone, which must then run from segment 1: segment 1 was retired, so its
// acked edges are gone and the restart refuses rather than serve without
// them.
TEST_F(ServiceCheckpointTest, NoValidCheckpointAfterRetirementRefusesTheRestart) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;
  {
    ConnectivityService service(64, opts);
    ASSERT_EQ(service.submit({{1, 2}}), Admission::kAccepted);
    ASSERT_TRUE(service.checkpoint_now());  // covers segment 1
    ASSERT_EQ(service.submit({{3, 4}}), Admission::kAccepted);
    ASSERT_TRUE(service.checkpoint_now());  // covers 2; the floor retires 1
    ASSERT_EQ(service.submit({{5, 6}}), Admission::kAccepted);
    service.flush();
    arm("svc.ckpt.write", fault::Action::kFail, 100);  // no final checkpoint
    service.stop();
  }
  reg().disarm_all();
  ASSERT_FALSE(exists(numbered_path(path("wal"), 1)));
  const auto checkpoints = list_numbered_files(path("ckpt"));
  ASSERT_EQ(checkpoints.size(), 2u);
  for (const auto& file : checkpoints) {  // flip the last byte of each
    std::FILE* f = std::fopen(file.path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    const int last = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc(last ^ 0xff, f);
    std::fclose(f);
  }
  EXPECT_THROW(ConnectivityService(64, opts), std::runtime_error);
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
  const std::string newest = numbered_path(path("ckpt"), store.load_latest_valid().seq);
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

// A checkpoint is the snapshot published at its WAL cut. Under flat-out
// ingest each checkpoint's watermark adds exactly the in-universe edges
// logged in the segments since the previous one's wal_seq (keep-2
// retention still holds them), its labels are exactly those edges', and a
// crash image restarts to exactly the logged records, none counted twice.
TEST_F(ServiceCheckpointTest, CheckpointUnderLiveIngestCountsExactlyItsSegments) {
  constexpr vertex_t kN = 1 << 14;
  const auto in_universe = [](const Edge& e) { return e.first < kN && e.second < kN; };
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;
  opts.wal.fsync_policy = FsyncPolicy::kNone;
  ConnectivityService service(kN, opts);
  const auto newest = [&] {
    CheckpointStore store;
    store.open(path("ckpt"));
    auto load = store.load_latest_valid();
    EXPECT_TRUE(load.ok) << load.error;
    return load.data;
  };
  ASSERT_TRUE(service.checkpoint_now());  // starts the chain, before any ingest
  std::uint64_t seq = newest().wal_seq;

  std::vector<Edge> logged;  // accepted in-universe edges, in log order
  // A failed assertion returns with it running: the jthread stops and joins.
  std::jthread submitter([&](const std::stop_token& stop) {
    Xoshiro256 rng(23);
    while (!stop.stop_requested()) {
      ConnectivityService::EdgeBatch batch(64);
      for (auto& [u, v] : batch) {  // 1 in 32 endpoints past the universe
        u = static_cast<vertex_t>(rng.bounded(kN + kN / 32));
        v = static_cast<vertex_t>(rng.bounded(kN));
      }
      ConnectivityService::EdgeBatch kept;
      std::copy_if(batch.begin(), batch.end(), std::back_inserter(kept), in_universe);
      if (service.submit(std::move(batch)) == Admission::kAccepted) {
        logged.insert(logged.end(), kept.begin(), kept.end());
      }
    }
  });
  // A third thread samples stats() while appends and cuts change the log's
  // size, which the log publishes itself.
  std::uint64_t samples = 0;
  std::uint64_t bad_samples = 0;  // no segment, or less than its magic
  std::jthread sampler([&](const std::stop_token& stop) {
    for (; !stop.stop_requested(); ++samples) {
      const ServiceStats s = service.stats();
      bad_samples += s.wal_segments == 0 || s.wal_bytes < 8 ? 1 : 0;
    }
  });

  IncrementalCC segments_ref(kN);  // the in-universe edges of segments <= seq
  std::uint64_t segment_edges = 0;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(service.checkpoint_now());
    const CheckpointData ckpt = newest();
    for (++seq; seq <= ckpt.wal_seq; ++seq) {
      auto rep = SegmentedWal::replay_and_truncate(numbered_path(path("wal"), seq), false);
      ASSERT_TRUE(rep.ok) << rep.error;
      ASSERT_EQ(rep.truncated_bytes, 0u) << "sealed segment " << seq;
      std::erase_if(rep.edges, [&](const Edge& e) { return !in_universe(e); });
      segments_ref.add_edges(rep.edges.data(), rep.edges.size());
      segment_edges += rep.edges.size();
    }
    seq = ckpt.wal_seq;
    ASSERT_EQ(ckpt.watermark, segment_edges) << "checkpoint " << i << ", wal_seq " << seq;
    ASSERT_TRUE(ckpt.labels == segments_ref.labels()) << "checkpoint " << i;
  }
  submitter.request_stop();
  submitter.join();
  sampler.request_stop();
  sampler.join();
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(bad_samples, 0u);
  service.flush();
  ASSERT_GT(segment_edges, 0u);

  // The crash image: the files as they are, before stop() checkpoints.
  std::filesystem::create_directory(path("crash"));
  for (const std::string base : {"wal", "ckpt"}) {
    for (const auto& f : list_numbered_files(path(base))) {
      std::filesystem::copy_file(
          f.path, path("crash/" + base) + f.path.substr(f.path.rfind('.')));
    }
  }
  service.stop();

  ServiceOptions crash_opts = opts;
  crash_opts.wal_path = path("crash/wal");
  crash_opts.checkpoint_path = path("crash/ckpt");
  ConnectivityService restarted(kN, crash_opts);
  IncrementalCC ref(kN);
  ref.add_edges(logged.data(), logged.size());
  EXPECT_EQ(restarted.stats().applied_edges, logged.size());
  EXPECT_EQ(restarted.snapshot()->watermark, logged.size());
  EXPECT_TRUE(restarted.snapshot()->labels == ref.labels());
  restarted.stop();
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


// An interval checkpoint comes due only while edges arrive past the last
// one: steady traffic cuts one per interval, an idle service none.
TEST_F(ServiceCheckpointTest, IntervalCheckpointsFollowTheTraffic) {
  using namespace std::chrono_literals;
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 100;
  ConnectivityService service(64, opts);
  const auto start = std::chrono::steady_clock::now();
  vertex_t v = 0;
  for (auto next = start; next - start < 600ms; next += 30ms) {
    std::this_thread::sleep_until(next);
    ASSERT_EQ(service.submit({{v, v + 1}}), Admission::kAccepted);
    v = (v + 1) % 63;
  }
  EXPECT_GE(service.stats().checkpoints, 3u);
  // The last batches are checkpointed an interval after the checkpoint
  // before them; from then on the newest checkpoint covers every edge.
  ASSERT_TRUE(eventually([&] {
    const ServiceStats s = service.stats();
    return s.ingest_lag_batches == 0 && s.staleness_edges == 0 &&
           s.last_checkpoint_epoch == s.epoch;
  }));
  const std::uint64_t written = service.stats().checkpoints;
  std::this_thread::sleep_for(300ms);
  EXPECT_EQ(service.stats().checkpoints, written);
  service.stop();
}

// A failed interval checkpoint is retried an interval after its cut: the
// compaction thread never spins on a deadline that has already passed.
// Every cut seals a WAL segment, and only a written checkpoint retires one.
TEST_F(ServiceCheckpointTest, FailedIntervalCheckpointIsRetriedAnIntervalLater) {
  using namespace std::chrono_literals;
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 100;
  arm("svc.ckpt.write", fault::Action::kFail, 1000);
  ConnectivityService service(64, opts);
  ASSERT_EQ(service.submit({{1, 2}}), Admission::kAccepted);
  std::this_thread::sleep_for(550ms);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.checkpoints, 0u);
  // About five cuts at 100 ms apart, each leaving one more segment.
  EXPECT_GE(s.wal_segments, 3u);
  EXPECT_LE(s.wal_segments, 8u);
  reg().disarm_all();
  service.stop();
}

// A replica never cuts. Promoted with edges past its last checkpoint, it
// writes an interval checkpoint on its own, with no further call.
TEST_F(ServiceCheckpointTest, PromotedReplicaWritesAnIntervalCheckpoint) {
  using namespace std::chrono_literals;
  ServiceOptions opts;
  opts.replica = true;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 100;
  ConnectivityService replica(64, opts);
  ASSERT_TRUE(replica.apply_replicated({{1, 2}, {2, 3}}));
  std::this_thread::sleep_for(250ms);
  EXPECT_EQ(replica.stats().checkpoints, 0u);
  std::string err;
  ASSERT_TRUE(replica.promote(&err)) << err;
  ASSERT_TRUE(eventually([&] { return replica.stats().checkpoints >= 1; }));
  CheckpointStore store;
  store.open(path("ckpt"));
  const auto load = store.load_latest_valid();
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.data.watermark, 2u);
  replica.stop();
}

}  // namespace
}  // namespace ecl::svc
