// Chaos tests for the robustness layer (docs/ROBUSTNESS.md): the ecl::fault
// registry itself (spec parsing, deterministic firing), fault injection
// through the svc net paths, the write-ahead log (torn tails, CRC
// corruption, replay idempotence, fsync-policy matrix, WalDecoder fed in
// chunks, a file cut at every byte), degraded mode (ingest- or
// compaction-worker death, WAL failure), the client retry/reconnect policy,
// server slow/idle-client eviction, the health rows of kStats end to end, and
// one /metrics family per service quantity.
//
// Every test that arms the process-wide fault registry disarms it again in
// TearDown — gtest_discover_tests runs cases in separate processes, but the
// discipline keeps same-process runs (--gtest_filter=*) honest too.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/sock.h"
#include "core/ecl_cc.h"
#include "fault/fault.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/net.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/wal.h"
#include "test_util.h"

namespace ecl::svc {
namespace {

fault::Registry& reg() { return fault::Registry::instance(); }

/// Arms one clause programmatically (no spec-string round trip).
void arm(const char* point, fault::Action action, std::uint64_t times,
         std::uint64_t arg = 0) {
  fault::PointSpec spec;
  spec.point = point;
  spec.action = action;
  spec.times = times;
  spec.arg = arg;
  reg().arm_point(std::move(spec));
}

/// Base fixture: guarantees a disarmed registry before and after each case.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { reg().disarm_all(); }
  void TearDown() override { reg().disarm_all(); }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "ecl_fault_" + std::to_string(::getpid()) +
           "_" + name;
  }
};

// ------------------------------------------------------- fault registry ----

using FaultRegistry = FaultTest;

TEST_F(FaultRegistry, RejectsMalformedSpecsWithoutArming) {
  std::string err;
  EXPECT_FALSE(reg().arm("nonsense", &err));
  EXPECT_NE(err.find("nonsense"), std::string::npos);  // names the clause
  EXPECT_FALSE(reg().arm("p=launch", &err));           // unknown action
  EXPECT_FALSE(reg().arm("p=fail,times=abc", &err));   // bad value
  EXPECT_FALSE(reg().arm("p=fail,bogus=1", &err));     // unknown key
  EXPECT_FALSE(reg().arm("p=fail,prob=1.5", &err));    // prob out of range
  // A bad clause anywhere arms nothing, even if earlier clauses were fine.
  EXPECT_FALSE(reg().arm("a=fail;b=explode", &err));
  EXPECT_FALSE(reg().armed());
}

TEST_F(FaultRegistry, ParsesMultiClauseSpec) {
  std::string err;
  ASSERT_TRUE(reg().arm("a.b=short,arg=3,times=1;c.d=delay,arg=500", &err)) << err;
  EXPECT_TRUE(reg().armed());

  const auto first = reg().evaluate("a.b");
  EXPECT_EQ(first.action, fault::Action::kShort);
  EXPECT_EQ(first.arg, 3u);
  EXPECT_FALSE(reg().evaluate("a.b").fired());  // times=1 exhausted

  const auto second = reg().evaluate("c.d");
  EXPECT_EQ(second.action, fault::Action::kDelay);
  EXPECT_EQ(second.arg, 500u);
  EXPECT_FALSE(reg().evaluate("unarmed.point").fired());
}

TEST_F(FaultRegistry, AfterEveryTimesScheduleIsExact) {
  // Skip 2 passes, then fire every 2nd eligible pass, at most 3 times:
  // passes 2, 4, 6 fire; everything else proceeds.
  fault::PointSpec spec;
  spec.point = "sched";
  spec.after = 2;
  spec.every = 2;
  spec.times = 3;
  reg().arm_point(std::move(spec));

  std::vector<int> fired_at;
  for (int pass = 0; pass < 12; ++pass) {
    if (reg().evaluate("sched").fired()) fired_at.push_back(pass);
  }
  EXPECT_EQ(fired_at, (std::vector<int>{2, 4, 6}));
}

TEST_F(FaultRegistry, ProbabilisticFiringIsDeterministicPerSeed) {
  const auto run = [&](std::uint64_t seed) {
    reg().disarm_all();
    fault::PointSpec spec;
    spec.point = "coin";
    spec.prob = 0.5;
    spec.seed = seed;
    reg().arm_point(std::move(spec));
    std::vector<bool> pattern;
    pattern.reserve(64);
    for (int i = 0; i < 64; ++i) pattern.push_back(reg().evaluate("coin").fired());
    return pattern;
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a, b);  // same seed => same firing pattern (no wall clock)
  EXPECT_NE(a, c);  // different seed => different pattern
  // Sanity: prob=0.5 over 64 passes fires somewhere strictly in between.
  const auto fires = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
}

TEST_F(FaultRegistry, DisarmedPointIsFreeAndSilent) {
  EXPECT_FALSE(reg().armed());
  const auto outcome = ECL_FAULT_POINT("anything.at.all");
  EXPECT_FALSE(outcome.fired());
}

// -------------------------------------------------- net fault injection ----

/// Socketpair-backed fixture for exercising the net layer without a server.
class NetFaultTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
    FaultTest::TearDown();
  }
  int fds_[2] = {-1, -1};
};

TEST_F(NetFaultTest, InjectedReadFailureSurfacesAsError) {
  const char msg[8] = "payload";
  ASSERT_TRUE(net::write_full(fds_[0], msg, sizeof(msg)));

  arm("svc.net.read", fault::Action::kFail, 1);
  char buf[8] = {};
  EXPECT_FALSE(net::read_full(fds_[1], buf, sizeof(buf)));

  // The failure was injected, not real: times=1 is exhausted and the bytes
  // are still in the socket, so the next read wins.
  EXPECT_TRUE(net::read_full(fds_[1], buf, sizeof(buf)));
  EXPECT_EQ(std::memcmp(buf, msg, sizeof(msg)), 0);
}

TEST_F(NetFaultTest, InjectedShortReadDeliversBudgetThenFails) {
  const char msg[8] = "short!!";
  ASSERT_TRUE(net::write_full(fds_[0], msg, sizeof(msg)));

  arm("svc.net.read", fault::Action::kShort, 1, /*arg=*/3);
  char buf[8] = {};
  EXPECT_FALSE(net::read_full(fds_[1], buf, sizeof(buf)));
  EXPECT_EQ(std::memcmp(buf, msg, 3), 0);  // the budget arrived before the cut

  // Exactly the 3-byte budget was consumed: the other 5 bytes are still in
  // the socket, and nothing beyond them.
  char rest[5] = {};
  ASSERT_TRUE(net::read_full(fds_[1], rest, sizeof(rest)));
  EXPECT_EQ(std::memcmp(rest, msg + 3, sizeof(rest)), 0);
  char extra = 0;
  EXPECT_LT(::recv(fds_[1], &extra, 1, MSG_DONTWAIT), 0);
}

TEST_F(NetFaultTest, InjectedWriteFailureSurfacesAsError) {
  arm("svc.net.write", fault::Action::kFail, 1);
  const char msg[4] = "abc";
  EXPECT_FALSE(net::write_full(fds_[0], msg, sizeof(msg)));
  EXPECT_TRUE(net::write_full(fds_[0], msg, sizeof(msg)));
}

TEST_F(NetFaultTest, InjectedConnectFailure) {
  const std::string path = temp_path("connect.sock");
  std::string err;
  const int listener = net::listen_unix(path, 4, &err);
  ASSERT_GE(listener, 0) << err;

  arm("svc.net.connect", fault::Action::kFail, 1);
  EXPECT_LT(net::connect_unix(path, &err, 500), 0);  // injected refusal

  const int fd = net::connect_unix(path, &err, 500);  // fault exhausted
  EXPECT_GE(fd, 0) << err;
  if (fd >= 0) ::close(fd);
  ::close(listener);
  std::remove(path.c_str());
}

// --------------------------------------------------------------- WAL ----

/// The WalTest cases work on segment 1 (path_) of the log at base_, which
/// is also the service's wal_path in the ServiceWalTest cases.
class WalTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    base_ = temp_path("test.wal");
    path_ = numbered_path(base_, 1);
    remove_wal_files();
  }
  void TearDown() override {
    remove_wal_files();
    FaultTest::TearDown();
  }

  /// Removes the segment family, whose leftovers would leak into the next
  /// same-process case.
  void remove_wal_files() {
    for (const auto& seg : list_numbered_files(base_)) {
      std::remove(seg.path.c_str());
    }
  }

  /// Opens the log at base_: segment 1 unless a higher one exists.
  void open_wal(SegmentedWal& wal, WalOptions opts = {}) {
    std::string err;
    ASSERT_TRUE(wal.open(base_, {.wal = opts}, 1, &err)) << err;
  }

  /// Appends `batches` through a fresh log and closes it.
  void write_batches(const std::vector<std::vector<Edge>>& batches,
                     WalOptions opts = {}) {
    SegmentedWal wal;
    open_wal(wal, opts);
    for (const auto& b : batches) ASSERT_TRUE(wal.append(b));
    wal.close();
  }

  /// Appends raw bytes to the file, bypassing the record framing.
  void append_raw(const void* data, std::size_t n) {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data, 1, n, f), n);
    std::fclose(f);
  }

  std::uint64_t file_size() {
    struct stat st {};
    return ::stat(path_.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                           : 0;
  }

  std::vector<std::uint8_t> read_all() {
    std::vector<std::uint8_t> bytes(file_size());
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    if (f == nullptr) return {};
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
    std::fclose(f);
    return bytes;
  }

  std::string base_;
  std::string path_;
};

TEST_F(WalTest, MissingFileReplaysCleanAndEmpty) {
  const auto r = SegmentedWal::replay_and_truncate(path_ + ".does-not-exist");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.records, 0u);
  EXPECT_EQ(r.truncated_bytes, 0u);
}

TEST_F(WalTest, EmptyFileReplaysCleanAndEmpty) {
  std::fclose(std::fopen(path_.c_str(), "wb"));  // zero-byte file
  const auto r = SegmentedWal::replay_and_truncate(path_);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.edges.empty());

  // open() then upgrades it in place with the magic header.
  SegmentedWal wal;
  open_wal(wal);
  wal.close();
  EXPECT_EQ(file_size(), 8u);
}

TEST_F(WalTest, AppendReplayRoundTripPreservesOrder) {
  write_batches({{{1, 2}, {3, 4}}, {{5, 6}}});
  const auto r = SegmentedWal::replay_and_truncate(path_);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records, 2u);
  EXPECT_EQ(r.truncated_bytes, 0u);
  ASSERT_EQ(r.edges.size(), 3u);
  EXPECT_EQ(r.edges[0], (Edge{1, 2}));
  EXPECT_EQ(r.edges[1], (Edge{3, 4}));
  EXPECT_EQ(r.edges[2], (Edge{5, 6}));
}

TEST_F(WalTest, TornTailIsTruncatedOnceThenStable) {
  write_batches({{{10, 20}}});
  const auto clean_size = file_size();

  // Simulate a crash mid-append: 5 stray bytes of a never-finished record.
  const std::uint8_t torn[5] = {0xde, 0xad, 0xbe, 0xef, 0x01};
  append_raw(torn, sizeof(torn));

  const auto first = SegmentedWal::replay_and_truncate(path_);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.records, 1u);
  EXPECT_EQ(first.truncated_bytes, sizeof(torn));
  EXPECT_EQ(file_size(), clean_size);  // the torn tail is physically gone

  // Idempotence: a second replay (the double-restart case) sees a clean log.
  const auto second = SegmentedWal::replay_and_truncate(path_);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.records, 1u);
  EXPECT_EQ(second.truncated_bytes, 0u);
  EXPECT_EQ(second.edges, first.edges);
}

TEST_F(WalTest, CorruptCrcTruncatesBackToLastGoodRecord) {
  write_batches({{{1, 2}}, {{3, 4}}});

  // Flip one payload byte of the final record: its CRC no longer matches.
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
  std::fputc(0x7f, f);
  std::fclose(f);

  const auto r = SegmentedWal::replay_and_truncate(path_);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records, 1u);  // only the intact record survives
  ASSERT_EQ(r.edges.size(), 1u);
  EXPECT_EQ(r.edges[0], (Edge{1, 2}));
  EXPECT_EQ(r.truncated_bytes, 8u + 8u);  // header + one-edge payload
}

TEST_F(WalTest, HandCraftedRecordMatchesTheWriterFormat) {
  // Build a one-record WAL by hand from the documented layout and check the
  // writer-independent reader accepts it — this pins the on-disk format.
  const std::uint8_t payload[8] = {7, 0, 0, 0, 9, 0, 0, 0};  // edge (7, 9)
  const std::uint32_t crc = crc32(payload, sizeof(payload));
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("ECLWAL01", 1, 8, f);
  const std::uint32_t len = sizeof(payload);
  std::fwrite(&len, sizeof(len), 1, f);
  std::fwrite(&crc, sizeof(crc), 1, f);
  std::fwrite(payload, 1, sizeof(payload), f);
  std::fclose(f);

  const auto r = SegmentedWal::replay_and_truncate(path_);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.edges.size(), 1u);
  EXPECT_EQ(r.edges[0], (Edge{7, 9}));
}

// A batch over the record limit is written as several records, so the
// decoder never refuses (and a restart never cuts off) an acked batch.
// append() splits at the decoder's 2^26-byte limit; the same encoder with a
// 24-byte limit splits a 7-edge batch into records of 3, 3 and 1 edges.
TEST_F(WalTest, BatchOverTheRecordLimitSplitsAndReplaysInOrder) {
  const std::vector<Edge> batch = {{1, 2}, {3, 4}, {5, 6}, {7, 8},
                                   {9, 10}, {11, 12}, {13, 14}};
  std::vector<std::uint8_t> records;
  ASSERT_EQ(encode_wal_records(batch, /*max_payload_bytes=*/24, &records), 3u);
  ASSERT_EQ(records.size(), 3 * 8 + batch.size() * 8);
  write_batches({});  // a WAL holding just its magic
  append_raw(records.data(), records.size());

  const auto whole = SegmentedWal::replay_and_truncate(path_);
  ASSERT_TRUE(whole.ok) << whole.error;
  EXPECT_EQ(whole.records, 3u);
  EXPECT_EQ(whole.truncated_bytes, 0u);
  EXPECT_EQ(whole.edges, batch);

  // Torn inside the second record: only the first record replays.
  ASSERT_EQ(::truncate(path_.c_str(), 8 + (8 + 24) + 8 + 5), 0);
  const auto torn = SegmentedWal::replay_and_truncate(path_);
  ASSERT_TRUE(torn.ok) << torn.error;
  EXPECT_EQ(torn.records, 1u);
  EXPECT_EQ(torn.edges, std::vector<Edge>(batch.begin(), batch.begin() + 3));
  EXPECT_EQ(file_size(), 8u + 8 + 24);
}

TEST_F(WalTest, ForeignFileIsRefusedNotTruncated) {
  const char junk[] = "NOT A WAL, DO NOT EAT";
  append_raw(junk, sizeof(junk));
  const auto before = file_size();

  const auto r = SegmentedWal::replay_and_truncate(path_);
  EXPECT_FALSE(r.ok);  // bad magic: refuse, never destroy foreign data
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(file_size(), before);

  SegmentedWal wal;  // open() must refuse it too
  std::string err;
  EXPECT_FALSE(wal.open(base_, {}, 1, &err));
}

// WalDecoder is the one reader of the record framing, for replay and the
// replica's stream alike. The segment image below holds a 1-edge record and
// one larger than a 4096-byte chunk, so chunked feeds split the magic, a
// record header and a payload at every kind of boundary.
std::vector<std::vector<Edge>> decoder_batches() {
  std::vector<Edge> large;
  for (vertex_t v = 0; v < 600; ++v) large.emplace_back(v, v + 1);
  return {{{7, 9}}, {{1, 2}, {2, 3}, {3, 4}}, large, {{5, 6}, {0, 8}}};
}

std::vector<Edge> flatten(const std::vector<std::vector<Edge>>& batches) {
  std::vector<Edge> out;
  for (const auto& b : batches) out.insert(out.end(), b.begin(), b.end());
  return out;
}

class WalDecoderChunkTest : public WalTest,
                            public ::testing::WithParamInterface<std::size_t> {};

// Fed in chunks of any size (0 = the whole image at once), the decoder
// yields exactly the batches replay_and_truncate reads from the file.
TEST_P(WalDecoderChunkTest, YieldsTheBatchesReplayReads) {
  const auto batches = decoder_batches();
  write_batches(batches);
  const std::vector<std::uint8_t> image = read_all();

  const auto replay = SegmentedWal::replay_and_truncate(path_);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.records, batches.size());
  EXPECT_EQ(replay.edges, flatten(batches));

  const std::size_t step = GetParam() == 0 ? image.size() : GetParam();
  WalDecoder decoder;
  std::vector<std::vector<Edge>> got;
  for (std::size_t at = 0; at < image.size(); at += step) {
    decoder.feed(std::span<const std::uint8_t>(image).subspan(
        at, std::min(step, image.size() - at)));
    std::vector<Edge> batch;
    auto verdict = WalDecoder::Status::kRecord;
    while ((verdict = decoder.next(&batch)) == WalDecoder::Status::kRecord) {
      got.push_back(std::exchange(batch, {}));
    }
    ASSERT_EQ(verdict, WalDecoder::Status::kNeedMore) << "at " << at;
  }
  EXPECT_EQ(got, batches);
  EXPECT_EQ(decoder.offset(), image.size());
  EXPECT_EQ(decoder.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Chunks, WalDecoderChunkTest,
                         ::testing::Values(1, 3, 8, 9, 4096, 0));

// A file cut at any byte keeps exactly the whole records before the cut and
// is truncated back to the last record boundary (to 0 inside the magic).
TEST_F(WalTest, CutAtEveryOffsetKeepsTheWholeRecordsBeforeIt) {
  const auto batches = decoder_batches();
  write_batches(batches);
  const std::vector<std::uint8_t> image = read_all();
  std::vector<std::uint64_t> ends;  // offset just past each record
  std::uint64_t end = 8;
  for (const auto& b : batches) ends.push_back(end += 8 + 8 * b.size());
  ASSERT_EQ(ends.back(), image.size());

  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(image.data(), 1, cut, f), cut);
    std::fclose(f);
    const auto r = SegmentedWal::replay_and_truncate(path_);
    ASSERT_TRUE(r.ok) << "cut " << cut << ": " << r.error;
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    const std::uint64_t boundary = cut < 8 ? 0 : whole == 0 ? 8 : ends[whole - 1];
    ASSERT_EQ(r.records, whole) << "cut " << cut;
    ASSERT_EQ(r.edges, flatten({batches.begin(), batches.begin() + whole})) << "cut " << cut;
    ASSERT_EQ(r.truncated_bytes, cut - boundary) << "cut " << cut;
    ASSERT_EQ(file_size(), boundary) << "cut " << cut;
  }
}

// One record past kBatchFsyncAppends: under kBatch the log has fsynced
// before it closes, so that fsync is not left to close().
TEST_F(WalTest, FsyncPolicyMatrixRoundTrips) {
  constexpr vertex_t kRecords = kBatchFsyncAppends + 1;
  auto& fsyncs = obs::registry().counter("ecl.svc.wal.fsyncs");
  for (const auto policy :
       {FsyncPolicy::kNone, FsyncPolicy::kBatch, FsyncPolicy::kAlways}) {
    std::remove(path_.c_str());
    SegmentedWal wal;
    open_wal(wal, {.fsync_policy = policy});
    [[maybe_unused]] const std::uint64_t fsyncs_before = fsyncs.value();
    for (vertex_t i = 0; i < kRecords; ++i) ASSERT_TRUE(wal.append({{i, i + 1}}));
#if !defined(ECL_OBS_DISABLED)
    if (policy == FsyncPolicy::kBatch) {
      EXPECT_GT(fsyncs.value(), fsyncs_before) << "no fsync in " << kRecords << " appends";
    }
#endif
    wal.close();
    const auto r = SegmentedWal::replay_and_truncate(path_);
    ASSERT_TRUE(r.ok) << to_string(policy) << ": " << r.error;
    EXPECT_EQ(r.records, kRecords) << to_string(policy);
    EXPECT_EQ(r.edges.size(), kRecords) << to_string(policy);
  }
}

TEST_F(WalTest, ParseFsyncPolicyRoundTrips) {
  FsyncPolicy p = FsyncPolicy::kBatch;
  EXPECT_TRUE(parse_fsync_policy("none", &p));
  EXPECT_EQ(p, FsyncPolicy::kNone);
  EXPECT_TRUE(parse_fsync_policy("always", &p));
  EXPECT_EQ(p, FsyncPolicy::kAlways);
  EXPECT_TRUE(parse_fsync_policy("batch", &p));
  EXPECT_EQ(p, FsyncPolicy::kBatch);
  EXPECT_FALSE(parse_fsync_policy("sometimes", &p));
  EXPECT_EQ(p, FsyncPolicy::kBatch);  // out unchanged on failure
  EXPECT_STREQ(to_string(FsyncPolicy::kAlways), "always");
}

TEST_F(WalTest, InjectedAppendFailureClosesTheLog) {
  SegmentedWal wal;
  open_wal(wal);
  ASSERT_TRUE(wal.append({{1, 2}}));

  arm("svc.wal.append", fault::Action::kFail, 1);
  EXPECT_FALSE(wal.append({{3, 4}}));
  EXPECT_FALSE(wal.is_open());       // a WAL that cannot persist must not pretend
  EXPECT_FALSE(wal.append({{5, 6}}));  // stays closed

  // The record that failed was never acked; the earlier one replays fine.
  const auto r = SegmentedWal::replay_and_truncate(path_);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records, 1u);
}

// -------------------------------------------- service + WAL integration ----

using ServiceWalTest = WalTest;

TEST_F(ServiceWalTest, AckedBatchesSurviveRestart) {
  ServiceOptions opts;
  opts.wal_path = base_;
  {
    ConnectivityService service(256, opts);
    ASSERT_EQ(service.submit({{1, 2}, {2, 3}}), Admission::kAccepted);
    ASSERT_EQ(service.submit({{10, 11}}), Admission::kAccepted);
    service.compact_now();
    EXPECT_TRUE(service.connected(1, 3));
    service.stop();
  }  // process "crash" boundary: nothing carries over but the WAL file

  ConnectivityService revived(256, opts);
  EXPECT_EQ(revived.replayed_edges(), 3u);
  EXPECT_TRUE(revived.connected(1, 3));  // snapshot already reflects replay
  EXPECT_TRUE(revived.connected(10, 11));
  EXPECT_FALSE(revived.connected(1, 10));
  const auto h = revived.stats();
  EXPECT_TRUE(h.wal_enabled);
  EXPECT_TRUE(h.wal_healthy);
  EXPECT_EQ(h.replayed_edges, 3u);
  revived.stop();
}

TEST_F(ServiceWalTest, DoubleRestartIsIdempotent) {
  ServiceOptions opts;
  opts.wal_path = base_;
  {
    ConnectivityService service(64, opts);
    ASSERT_EQ(service.submit({{4, 5}}), Admission::kAccepted);
    service.stop();
  }
  const auto size_after_crash = file_size();
  {
    // Restart #1 replays but submits nothing new: the log must not grow
    // (replayed edges are already durable; re-appending them would double
    // the file on every boot).
    ConnectivityService service(64, opts);
    EXPECT_EQ(service.replayed_edges(), 1u);
    service.stop();
  }
  EXPECT_EQ(file_size(), size_after_crash);
  {
    ConnectivityService service(64, opts);  // restart #2: same story
    EXPECT_EQ(service.replayed_edges(), 1u);
    EXPECT_TRUE(service.connected(4, 5));
    service.stop();
  }
  EXPECT_EQ(file_size(), size_after_crash);
}

TEST_F(ServiceWalTest, ReplayedOutOfRangeEdgesAreDropped) {
  {
    ServiceOptions opts;
    opts.wal_path = base_;
    ConnectivityService big(1024, opts);
    ASSERT_EQ(big.submit({{2, 3}, {900, 901}}), Admission::kAccepted);
    big.stop();
  }
  // Reopen the same WAL in a smaller universe: edge (900, 901) no longer
  // fits and must be silently dropped, not crash the replay.
  ServiceOptions opts;
  opts.wal_path = base_;
  ConnectivityService small(16, opts);
  EXPECT_TRUE(small.connected(2, 3));
  EXPECT_FALSE(small.connected(4, 5));
  small.stop();
}

// A seeded service restarts to its seed plus its log. From a crash image
// with only the WAL, the restart labels the same seed again and replays the
// whole log over it; once checkpoint_now() has cut, the checkpoint covers
// the seed, supersedes it, and only the log past the cut is replayed.
TEST_F(ServiceWalTest, SeededServiceRestartsToSeedPlusLog) {
  const Graph seed = gen_web_graph(3000, 13);
  const vertex_t n = seed.num_vertices();
  const std::uint64_t seed_edges = seed.num_edges() / 2;
  const std::vector<ConnectivityService::EdgeBatch> before_cut = {
      {{0, n - 1}, {17, 2500}, {5, 5}}, {{1000, 2000}, {2999, 4}}};
  const std::vector<ConnectivityService::EdgeBatch> after_cut = {
      {{6, 2998}, {1234, 321}}, {{42, 2042}}};
  for (const bool checkpointed : {false, true}) {
    SCOPED_TRACE(checkpointed ? "checkpoint_now() before the last batches" : "WAL only");
    const std::string dir = temp_path(checkpointed ? "seeded_ckpt" : "seeded_wal");
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(std::filesystem::create_directory(dir));
    ServiceOptions opts;
    opts.wal_path = dir + "/wal";
    if (checkpointed) opts.checkpoint_path = dir + "/ckpt";
    opts.checkpoint_interval_ms = 0;

    std::vector<Edge> logged;
    {
      ConnectivityService service(seed, opts);
      for (const auto& batch : before_cut) {
        ASSERT_EQ(service.submit(batch), Admission::kAccepted);
        logged.insert(logged.end(), batch.begin(), batch.end());
      }
      service.flush();
      if (checkpointed) {
        ASSERT_TRUE(service.checkpoint_now());
      }
      for (const auto& batch : after_cut) {
        ASSERT_EQ(service.submit(batch), Admission::kAccepted);
        logged.insert(logged.end(), batch.begin(), batch.end());
      }
      service.flush();
      // The crash image: the files as they are, before stop() checkpoints.
      for (const std::string base : {"wal", "ckpt"}) {
        for (const auto& f : list_numbered_files(dir + "/" + base)) {
          std::filesystem::copy_file(
              f.path, dir + "/crash_" + base + f.path.substr(f.path.rfind('.')));
        }
      }
      service.stop();
    }

    ServiceOptions crash_opts = opts;
    crash_opts.wal_path = dir + "/crash_wal";
    if (checkpointed) crash_opts.checkpoint_path = dir + "/crash_ckpt";
    ConnectivityService restarted(seed, crash_opts);
    std::vector<Edge> all = logged;
    for (vertex_t v = 0; v < n; ++v) {
      for (const vertex_t u : seed.neighbors(v)) {
        if (u < v) all.emplace_back(v, u);
      }
    }
    EXPECT_EQ(restarted.snapshot()->labels, ecl_cc_serial(build_graph(n, all)));
    EXPECT_EQ(restarted.stats().applied_edges, seed_edges + logged.size());
    std::size_t after_cut_edges = 0;
    for (const auto& batch : after_cut) after_cut_edges += batch.size();
    EXPECT_EQ(restarted.replayed_edges(), checkpointed ? after_cut_edges : logged.size());
    EXPECT_EQ(restarted.stats().last_checkpoint_epoch > 0, checkpointed);
    restarted.stop();
    std::filesystem::remove_all(dir);
  }
}

TEST_F(ServiceWalTest, WalFailureDegradesToReadOnly) {
  ServiceOptions opts;
  opts.wal_path = base_;
  ConnectivityService service(64, opts);
  ASSERT_EQ(service.submit({{1, 2}}), Admission::kAccepted);
  service.flush();

  arm("svc.wal.append", fault::Action::kFail, 1);
  // Durability cannot be honored: the submit is answered kShed (never a
  // false ack) and the service drops to read-only degraded mode.
  EXPECT_EQ(service.submit({{3, 4}}), Admission::kShed);
  EXPECT_TRUE(service.degraded());

  const auto h = service.stats();
  EXPECT_TRUE(h.degraded);
  EXPECT_FALSE(h.wal_healthy);
  EXPECT_TRUE(h.ingest_worker_alive);  // the worker itself is fine
  EXPECT_EQ(h.degraded_entries, 1u);

  EXPECT_EQ(service.submit({{5, 6}}), Admission::kShed);  // ingest stays shut
  service.compact_now();  // compaction outlives the WAL
  EXPECT_TRUE(service.connected(1, 2));  // reads keep serving
  // The batch whose record failed was never queued: it is not applied, so
  // it can never be visible without being durable.
  EXPECT_FALSE(service.connected(3, 4));
  service.stop();  // and shutdown still drains cleanly
}

// A short write leaves a torn record on disk until a restart cuts it, so
// ecl_wal_bytes counts it: the row reads what the segment files hold.
TEST_F(ServiceWalTest, ShortAppendCountsTheBytesOnDisk) {
  ServiceOptions opts;
  opts.wal_path = base_;
  ConnectivityService service(64, opts);
  arm("svc.wal.append", fault::Action::kShort, 1, /*arg=*/20);
  EXPECT_EQ(service.submit({{1, 2}, {3, 4}}), Admission::kShed);
  std::uint64_t on_disk = 0;
  for (const auto& seg : list_numbered_files(base_)) on_disk += seg.bytes;
  EXPECT_EQ(on_disk, 8u + 20u);  // the magic and 20 of the record's 24 bytes
  EXPECT_EQ(service.stats().wal_bytes, on_disk);
  service.stop();
}

// ------------------------------------------------------- degraded mode ----

using DegradedModeTest = FaultTest;

TEST_F(DegradedModeTest, IngestWorkerDeathDegradesButReadsServe) {
  ServiceOptions opts;
  ConnectivityService service(64, opts);
  ASSERT_EQ(service.submit({{1, 2}}), Admission::kAccepted);
  (void)service.compact_now();  // the epoch the snapshot reads below serve from
  ASSERT_TRUE(service.connected(1, 2));

  arm("svc.ingest.worker", fault::Action::kKill, 1);
  ASSERT_EQ(service.submit({{3, 4}}), Admission::kAccepted);  // poison pill
  ASSERT_TRUE(eventually([&] { return service.degraded(); }));

  const auto h = service.stats();
  EXPECT_TRUE(h.degraded);
  EXPECT_FALSE(h.ingest_worker_alive);
  EXPECT_GE(h.degraded_entries, 1u);

  service.flush();  // must return despite the dead worker, not hang
  EXPECT_EQ(service.submit({{5, 6}}), Admission::kShed);
  EXPECT_EQ(service.stats().applied_edges, 1u);  // the poison pill never applied
  EXPECT_TRUE(service.connected(1, 2));
  EXPECT_EQ(service.component_of(9), 9u);
  service.stop();  // joins the already-dead worker without deadlock
}

TEST_F(DegradedModeTest, CompactionWorkerDeathDegradesButReadsServe) {
  ServiceOptions opts;
  opts.compact_min_new_edges = 1u << 30;  // compact only when forced
  opts.checkpoint_path = temp_path("compact_death.ckpt");
  opts.checkpoint_interval_ms = 0;
  ConnectivityService service(64, opts);
  ASSERT_EQ(service.submit({{1, 2}}), Admission::kAccepted);
  const std::uint64_t epoch = service.compact_now();
  // Applied but never compacted: only a forced compaction would publish it.
  ASSERT_EQ(service.submit({{3, 4}}), Admission::kAccepted);
  service.flush();

  arm("svc.compact.worker", fault::Action::kKill, 1);
  // The forced compaction wakes the worker into the fault; compact_now()
  // returns once the worker is dead, with nothing new published.
  EXPECT_EQ(service.compact_now(), epoch);
  ASSERT_TRUE(eventually([&] { return service.degraded(); }));
  EXPECT_TRUE(service.stats().ingest_worker_alive);  // only compaction died

  // Snapshot reads keep serving the last published epoch.
  EXPECT_EQ(service.snapshot()->epoch, epoch);
  EXPECT_TRUE(service.connected(1, 2));
  EXPECT_FALSE(service.connected(3, 4));
  EXPECT_EQ(service.stats().applied_edges, 2u);  // {3, 4} applied, never published
  EXPECT_EQ(service.submit({{5, 6}}), Admission::kShed);
  // Neither waits forever on a thread that will never publish again.
  EXPECT_EQ(service.compact_now(), epoch);
  EXPECT_FALSE(service.checkpoint_now());
  service.stop();  // joins the already-dead compaction thread
}

// A raw-socket GET against the local exporter, so the test exercises the
// same HTTP path a real scraper does.
std::string scrape(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)!::send(fd, req, sizeof req - 1, 0);
  std::string resp;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return resp;
}

TEST_F(DegradedModeTest, MetricsExporterKeepsServingWhileDegraded) {
  const std::string wal = temp_path("degraded_exporter.wal");
  std::remove(wal.c_str());
  ServiceOptions opts;
  opts.wal_path = wal;
  ConnectivityService service(64, opts);

  // The same collector wiring ecl_ccd uses: the exporter itself never sees
  // svc types, the daemon injects service state as extra families.
  obs::ExporterOptions eopts;
  eopts.port = 0;
  obs::MetricsExporter exporter(eopts);
  exporter.add_collector(
      [&service](std::string& out) { render_prometheus(service.stats(), out); });
  std::string err;
  ASSERT_TRUE(exporter.start(&err)) << err;

  ASSERT_EQ(service.submit({{1, 2}}), Admission::kAccepted);
  service.flush();
  const std::string healthy = scrape(exporter.port());
  EXPECT_NE(healthy.find("200 OK"), std::string::npos);
  EXPECT_NE(healthy.find("ecl_svc_degraded 0\n"), std::string::npos);

  // Break durability: ingest drops to read-only, but observability must be
  // the last thing to die — the endpoint keeps answering, now with
  // degraded=1 so alerts can fire.
  arm("svc.wal.append", fault::Action::kFail, 1);
  EXPECT_EQ(service.submit({{3, 4}}), Admission::kShed);
  ASSERT_TRUE(eventually([&] { return service.degraded(); }));
  const std::string degraded = scrape(exporter.port());
  EXPECT_NE(degraded.find("200 OK"), std::string::npos);
  EXPECT_NE(degraded.find("ecl_svc_degraded 1\n"), std::string::npos);
  EXPECT_GE(exporter.scrapes(), 2u);

  exporter.stop();
  service.stop();
  std::remove(wal.c_str());
}

/// The value of the sample line `name <value>` in an exposition body, or -1.
double sample_value(const std::string& body, const std::string& name) {
  const std::size_t pos = body.find("\n" + name + " ");
  if (pos == std::string::npos) return -1.0;
  return std::strtod(body.c_str() + pos + name.size() + 2, nullptr);
}

using ExporterTest = FaultTest;

TEST_F(ExporterTest, EveryServiceQuantityIsOneFamily) {
  const std::string wal = temp_path("one_family.wal");
  const std::string ckpt = temp_path("one_family.ckpt");
  const std::string sock = temp_path("one_family.sock");
  const auto remove_files = [&] {
    for (const std::string& base : {wal, ckpt}) {
      for (const auto& f : list_numbered_files(base)) std::remove(f.path.c_str());
    }
    std::remove(sock.c_str());
  };
  remove_files();
  ServiceOptions opts;
  opts.wal_path = wal;
  opts.checkpoint_path = ckpt;
  opts.checkpoint_interval_ms = 0;
  opts.queue_capacity = 1;
  ConnectivityService service(64, opts);
  ServerOptions sopts;
  sopts.unix_path = sock;
  Server server(service, sopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  // ecl_ccd's wiring: the registry plus the stats table as a collector.
  obs::MetricsExporter exporter;
  exporter.add_collector(
      [&server](std::string& out) { render_prometheus(server.stats(), out); });
  ASSERT_TRUE(exporter.start(&err)) << err;

  // An ingest over the wire, from a client that stays connected.
  auto client = Client::connect_unix(sock);
  ASSERT_NE(client, nullptr);
  ASSERT_EQ(client->ingest({{1, 2}}), Status::kOk);
  // A shed: with the worker stalled on one batch and one more queued, the
  // rest of four back-to-back submits find the queue full.
  arm("svc.ingest.worker", fault::Action::kDelay, 2, 300000);
  std::uint64_t shed = 0;
  for (vertex_t v = 10; v < 18; v += 2) {
    shed += service.submit({{v, v + 1}}) == Admission::kShed ? 1 : 0;
  }
  EXPECT_GE(shed, 2u);
  service.flush();
  ASSERT_TRUE(service.checkpoint_now());
  service.set_replication_lag(3, 40);

  const std::string body = exporter.render();

  std::vector<std::string> types;
  for (std::size_t pos = body.find("# TYPE "); pos != std::string::npos;
       pos = body.find("# TYPE ", pos + 1)) {
    const std::size_t begin = pos + 7;
    types.push_back(body.substr(begin, body.find(' ', begin) - begin));
  }
  std::sort(types.begin(), types.end());
  EXPECT_EQ(std::adjacent_find(types.begin(), types.end()), types.end())
      << "a family is declared twice";
#define ECL_EXPECT_FAMILY(tag, member, family, type) \
  EXPECT_TRUE(std::binary_search(types.begin(), types.end(), family)) << family;
  ECL_SVC_STATS_FIELDS(ECL_EXPECT_FAMILY)
#undef ECL_EXPECT_FAMILY
  // The registry twins these rows replaced are gone.
  for (const std::string twin : {"ecl_svc_ingest_batches", "ecl_svc_ingest_shed",
                                 "ecl_svc_conn_open", "ecl_svc_ckpt_last_epoch",
                                 "ecl_svc_server_evicted_slow", "ecl_svc_degraded_entries"}) {
    EXPECT_FALSE(std::binary_search(types.begin(), types.end(), twin)) << twin;
  }
  // Every family is cumulative: no derived windowed family rides along,
  // and no window-width gauge either (no sample line names a window).
  for (const std::string& type : types) {
    EXPECT_EQ(type.find("window"), std::string::npos) << type;
  }
  EXPECT_EQ(body.find("window"), std::string::npos);

  const ServiceStats st = server.stats();
  EXPECT_EQ(st.open_connections, 1u);
  EXPECT_EQ(sample_value(body, "ecl_svc_open_connections"),
            static_cast<double>(st.open_connections));
  EXPECT_EQ(sample_value(body, "ecl_svc_shed_batches_total"),
            static_cast<double>(shed));
  EXPECT_EQ(sample_value(body, "ecl_ckpt_last_epoch"),
            static_cast<double>(st.last_checkpoint_epoch));
  EXPECT_EQ(sample_value(body, "ecl_svc_replica_lag_seq"), 3.0);

  client.reset();
  exporter.stop();
  server.stop();
  service.stop();
  remove_files();
}

// -------------------------------------------------- client retry policy ----

/// Live-server fixture (mirrors SvcSocketTest in test_svc.cpp) with fast
/// client backoff so retry-heavy cases stay quick.
class RetryTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    unix_path_ = temp_path("retry.sock");
    std::remove(unix_path_.c_str());
    start_server();
  }

  void TearDown() override {
    stop_server();
    std::remove(unix_path_.c_str());
    FaultTest::TearDown();
  }

  void start_server() {
    ServiceOptions opts;
    service_ = std::make_unique<ConnectivityService>(kVertices, opts);
    ServerOptions sopts;
    sopts.unix_path = unix_path_;
    server_ = std::make_unique<Server>(*service_, sopts);
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
  }

  void stop_server() {
    if (server_) server_->stop();
    if (service_) service_->stop();
    server_.reset();
    service_.reset();
  }

  static ClientOptions fast_opts() {
    ClientOptions copts;
    copts.max_retries = 3;
    copts.backoff_base_ms = 1;
    copts.backoff_max_ms = 8;
    copts.op_timeout_ms = 2000;
    copts.connect_timeout_ms = 2000;
    return copts;
  }

  static constexpr vertex_t kVertices = 256;
  std::string unix_path_;
  std::unique_ptr<ConnectivityService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(RetryTest, TransportFaultIsRetriedTransparently) {
  auto client = Client::connect_unix(unix_path_, nullptr, fast_opts());
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->ping());  // connection warmed up, server idle

  // The next socket write (ours — the server is parked in read_frame) dies.
  arm("svc.net.write", fault::Action::kFail, 1);
  EXPECT_TRUE(client->ping());  // reconnect + retry hides the failure
  EXPECT_GE(client->retries(), 1u);
  EXPECT_GE(client->reconnects(), 1u);
}

TEST_F(RetryTest, ShedIsRetriedThenReportedAsShed) {
  // Kill the ingest worker: every submit sheds, so retries cannot succeed —
  // the client must burn its budget and then report kShed truthfully.
  arm("svc.ingest.worker", fault::Action::kKill, 1);
  ASSERT_EQ(service_->submit({{1, 2}}), Admission::kAccepted);
  ASSERT_TRUE(eventually([&] { return service_->degraded(); }));

  auto client = Client::connect_unix(unix_path_, nullptr, fast_opts());
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->ingest({{3, 4}}), Status::kShed);
  EXPECT_EQ(client->retries(), 3u);  // exactly max_retries attempts burned

  // Queries still round-trip against the degraded service.
  std::uint64_t count = 0;
  EXPECT_TRUE(client->component_count(count));
  ServiceStats h{};
  ASSERT_TRUE(client->stats(h));
  EXPECT_TRUE(h.degraded);
}

TEST_F(RetryTest, ClientSurvivesServerRestart) {
  auto client = Client::connect_unix(unix_path_, nullptr, fast_opts());
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->ping());

  stop_server();    // the daemon "crashes"...
  start_server();   // ...and comes back on the same endpoint

  EXPECT_TRUE(client->ping());  // stale fd detected, reconnected, retried
  EXPECT_GE(client->reconnects(), 1u);

  Status st = Status::kOk;
  EXPECT_FALSE(client->connected(1, 2, ReadMode::kSnapshot, &st));
  EXPECT_EQ(st, Status::kOk);
}

TEST_F(RetryTest, HealthRpcEndToEnd) {
  auto client = Client::connect_unix(unix_path_, nullptr, fast_opts());
  ASSERT_NE(client, nullptr);
  ServiceStats h{};
  ASSERT_TRUE(client->stats(h));
  EXPECT_FALSE(h.degraded);
  EXPECT_TRUE(h.ingest_worker_alive);
  EXPECT_FALSE(h.wal_enabled);  // this fixture runs WAL-less
  EXPECT_EQ(h.degraded_entries, 0u);
}

// --------------------------------------------------- server eviction ----

class EvictionTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    unix_path_ = temp_path("evict.sock");
    std::remove(unix_path_.c_str());
    service_ = std::make_unique<ConnectivityService>(64);
  }

  void TearDown() override {
    if (server_) server_->stop();
    service_->stop();
    std::remove(unix_path_.c_str());
    FaultTest::TearDown();
  }

  void start_server(ServerOptions sopts) {
    sopts.unix_path = unix_path_;
    server_ = std::make_unique<Server>(*service_, sopts);
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
  }

  /// Blocks until the server closes `fd` (recv returns 0), or fails.
  static bool wait_for_eviction(int fd) {
    set_io_timeouts(fd, /*recv=*/5000, /*send=*/0);
    char byte = 0;
    return ::recv(fd, &byte, 1, 0) == 0;
  }

  std::string unix_path_;
  std::unique_ptr<ConnectivityService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(EvictionTest, MidFrameStallerIsEvicted) {
  ServerOptions sopts;
  sopts.frame_timeout_ms = 100;
  start_server(sopts);

  std::string err;
  const int fd = net::connect_unix(unix_path_, &err, 2000);
  ASSERT_GE(fd, 0) << err;
  // Start a frame (2 of 4 prefix bytes), then go silent: a stuck peer must
  // not pin a handler thread past frame_timeout_ms.
  const std::uint8_t partial[2] = {16, 0};
  ASSERT_TRUE(net::write_full(fd, partial, sizeof(partial)));
  EXPECT_TRUE(wait_for_eviction(fd));
  ::close(fd);

  // The server is still healthy for well-behaved clients.
  auto client = Client::connect_unix(unix_path_);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->ping());
}

TEST_F(EvictionTest, IdleConnectionIsEvictedWhenConfigured) {
  ServerOptions sopts;
  sopts.idle_timeout_ms = 100;
  start_server(sopts);

  std::string err;
  const int fd = net::connect_unix(unix_path_, &err, 2000);
  ASSERT_GE(fd, 0) << err;
  EXPECT_TRUE(wait_for_eviction(fd));  // sent nothing at all
  ::close(fd);
}

TEST_F(EvictionTest, IdleForeverIsAllowedByDefault) {
  ServerOptions sopts;
  sopts.frame_timeout_ms = 100;  // tight frame bound, but no idle bound
  start_server(sopts);

  std::string err;
  const int fd = net::connect_unix(unix_path_, &err, 2000);
  ASSERT_GE(fd, 0) << err;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Still connected: a quiet-but-healthy client may speak after a pause
  // three times the frame timeout.
  auto client = Client::connect_unix(unix_path_);  // sanity: server alive
  ASSERT_NE(client, nullptr);
  Request req;
  req.type = MsgType::kPing;
  req.id = 7;
  std::vector<std::uint8_t> bytes;
  encode_request(req, bytes);
  ASSERT_TRUE(net::write_frame(fd, bytes));
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(net::read_frame(fd, payload));
  Response resp;
  ASSERT_TRUE(decode_response(payload, resp));
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.id, 7u);
  ::close(fd);
}

}  // namespace
}  // namespace ecl::svc
