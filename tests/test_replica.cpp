// Tests for WAL-shipping replication (docs/REPLICATION.md): the kFetchCkpt /
// kFetchWal / kPromote wire round-trips and the replication rows of kStats, the
// rotation/retirement-safe read_wal_segment (regression: a reader iterating
// while the writer rotates must keep making progress; a missing segment is
// classified against the writer's active seq), the service-level
// replica contract (submit sheds, apply_replicated feeds the live structure,
// rebase_to_checkpoint unites a newer checkpoint and refuses an older one,
// promote flips to writable), exact snapshots (every epoch is the prefix of
// its watermark across a checkpoint restart and a rebase, also a rebase onto
// a checkpoint cut under live ingest followed by its WAL tail), installed
// checkpoints (numbered locally under
// keep-2; a replica promoted after a rebootstrap restarts from its own
// chain), the retention floor interaction (a slow replica pins segments; a
// dead one is released after replica_hold_ms), the fetch loop's cadence (an
// immediate first fetch; stop() cuts the interval wait short) and its
// refusal of a primary of another vertex count, and end-to-end stream ->
// lag -> rebootstrap -> promote runs against a live Server + Replicator
// pair: a fresh replica of a primary that retired segment 1 rebases once
// and then restarts from its own log, and a replica's log ends on a record
// boundary when the Replicator stops mid-record.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/incremental.h"
#include "fault/fault.h"
#include "svc/checkpoint.h"
#include "svc/client.h"
#include "svc/protocol.h"
#include "svc/replica.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/wal.h"

namespace ecl::svc {
namespace {

std::span<const std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return std::span<const std::uint8_t>(frame).subspan(4);
}

/// Polls `pred` every few milliseconds until it holds or `timeout_ms`
/// elapses. Replication is asynchronous by design, so every cross-process
/// visibility assertion goes through this.
bool wait_until(const std::function<bool()>& pred, int timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

class ReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ecl_replica_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

// ------------------------------------------------------------- protocol ----

TEST(ReplicaProtocol, FetchWalRequestRoundTrip) {
  Request in;
  in.type = MsgType::kFetchWal;
  in.id = 77;
  in.replica_id = 0xdeadbeefcafe1234ull;
  in.seq = 12;
  in.offset = 4096;
  in.max_bytes = 65536;
  std::vector<std::uint8_t> buf;
  encode_request(in, buf);

  Request out;
  ASSERT_TRUE(decode_request(payload_of(buf), out));
  EXPECT_EQ(out.type, MsgType::kFetchWal);
  EXPECT_EQ(out.id, 77u);
  EXPECT_EQ(out.replica_id, in.replica_id);
  EXPECT_EQ(out.seq, 12u);
  EXPECT_EQ(out.offset, 4096u);
  EXPECT_EQ(out.max_bytes, 65536u);

  // kFetchCkpt and kPromote carry empty bodies.
  for (const MsgType t : {MsgType::kFetchCkpt, MsgType::kPromote}) {
    Request req;
    req.type = t;
    req.id = 5;
    buf.clear();
    encode_request(req, buf);
    Request got;
    ASSERT_TRUE(decode_request(payload_of(buf), got)) << static_cast<int>(t);
    EXPECT_EQ(got.type, t);
    EXPECT_EQ(got.id, 5u);
  }
}

TEST(ReplicaProtocol, FetchCkptResponseRoundTrip) {
  Response in;
  in.type = MsgType::kFetchCkpt;
  in.id = 9;
  in.ckpt.has = true;
  in.ckpt.seq = 4;
  in.ckpt.wal_seq = 17;
  in.ckpt.image = {0x01, 0x02, 0xff, 0x00, 0x7f};
  std::vector<std::uint8_t> buf;
  encode_response(in, buf);

  Response out;
  ASSERT_TRUE(decode_response(payload_of(buf), out));
  EXPECT_EQ(out.type, MsgType::kFetchCkpt);
  EXPECT_TRUE(out.ckpt.has);
  EXPECT_EQ(out.ckpt.seq, 4u);
  EXPECT_EQ(out.ckpt.wal_seq, 17u);
  EXPECT_EQ(out.ckpt.image, in.ckpt.image);

  // No checkpoint on the primary: has == false, empty image.
  Response none;
  none.type = MsgType::kFetchCkpt;
  buf.clear();
  encode_response(none, buf);
  ASSERT_TRUE(decode_response(payload_of(buf), out));
  EXPECT_FALSE(out.ckpt.has);
  EXPECT_TRUE(out.ckpt.image.empty());
}

TEST(ReplicaProtocol, FetchWalResponseRoundTrip) {
  Response in;
  in.type = MsgType::kFetchWal;
  in.id = 3;
  in.wal.retired = true;
  in.wal.sealed = true;
  in.wal.seq = 8;
  in.wal.offset = 1024;
  in.wal.segment_bytes = 2048;
  in.wal.active_seq = 11;
  in.wal.data = {9, 8, 7, 6};
  std::vector<std::uint8_t> buf;
  encode_response(in, buf);

  Response out;
  ASSERT_TRUE(decode_response(payload_of(buf), out));
  EXPECT_EQ(out.type, MsgType::kFetchWal);
  EXPECT_TRUE(out.wal.retired);
  EXPECT_TRUE(out.wal.sealed);
  EXPECT_EQ(out.wal.seq, 8u);
  EXPECT_EQ(out.wal.offset, 1024u);
  EXPECT_EQ(out.wal.segment_bytes, 2048u);
  EXPECT_EQ(out.wal.active_seq, 11u);
  EXPECT_EQ(out.wal.data, in.wal.data);
}

TEST(ReplicaProtocol, ReplicationRowsRoundTripInStats) {
  Response in;
  in.type = MsgType::kStats;
  in.id = 1;
  in.stats.wal_enabled = 1;
  in.stats.wal_records = 55;
  in.stats.replica = 1;
  in.stats.replica_lag_seq = 3;
  in.stats.replica_lag_ms = 450;
  in.stats.replicas_connected = 2;
  std::vector<std::uint8_t> buf;
  encode_response(in, buf);

  Response out;
  ASSERT_TRUE(decode_response(payload_of(buf), out));
  EXPECT_TRUE(out.stats.wal_enabled);
  EXPECT_EQ(out.stats.wal_records, 55u);
  EXPECT_TRUE(out.stats.replica);
  EXPECT_EQ(out.stats.replica_lag_seq, 3u);
  EXPECT_EQ(out.stats.replica_lag_ms, 450u);
  EXPECT_EQ(out.stats.replicas_connected, 2u);
}

TEST(ReplicaProtocol, NotPrimaryStatusRoundTrip) {
  Response in;
  in.type = MsgType::kIngest;
  in.id = 2;
  in.status = Status::kNotPrimary;
  std::vector<std::uint8_t> buf;
  encode_response(in, buf);
  Response out;
  ASSERT_TRUE(decode_response(payload_of(buf), out));
  EXPECT_EQ(out.status, Status::kNotPrimary);
  EXPECT_STREQ(status_name(Status::kNotPrimary), "not_primary");
}

// ---------------------------------------------------- read_wal_segment ----

using SegmentReaderTest = ReplicaTest;

TEST_F(SegmentReaderTest, ReadsActiveSegmentAndClassifiesMissing) {
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(path("wal"), {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{0, 1}, {1, 2}}));

  WalChunk c = read_wal_segment(path("wal"), 1, 0, 1u << 20, wal.active_seq());
  ASSERT_TRUE(c.ok);
  EXPECT_FALSE(c.retired);
  EXPECT_FALSE(c.sealed);  // the active segment
  EXPECT_EQ(c.active_seq, 1u);
  EXPECT_EQ(c.segment_bytes, wal.active_bytes());
  EXPECT_EQ(c.data.size(), c.segment_bytes);
  // The chunk is the whole segment: the magic, then the one record.
  WalDecoder decoder;
  decoder.feed(c.data);
  std::vector<Edge> edges;
  EXPECT_EQ(decoder.next(&edges), WalDecoder::Status::kRecord);
  EXPECT_EQ(edges, (std::vector<Edge>{{0, 1}, {1, 2}}));
  EXPECT_EQ(decoder.next(&edges), WalDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.offset(), c.data.size());

  // A segment past the writer's active one is not written yet: neither
  // retired nor sealed, and empty.
  c = read_wal_segment(path("wal"), 99, 0, 1024, wal.active_seq());
  ASSERT_TRUE(c.ok);
  EXPECT_FALSE(c.retired);
  EXPECT_FALSE(c.sealed);
  EXPECT_TRUE(c.data.empty());
  wal.close();
}

// Regression (satellite 1): a reader iterating a segment must survive the
// writer rotating mid-iteration, and the bytes it accumulates across reads
// must equal the sealed segment exactly.
TEST_F(SegmentReaderTest, RotationWhileReaderIterates) {
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(path("wal"), {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{0, 1}}));

  // First bounded read of segment 1 while it is still active.
  WalChunk first = read_wal_segment(path("wal"), 1, 0, 8, wal.active_seq());
  ASSERT_TRUE(first.ok);
  ASSERT_FALSE(first.retired);
  ASSERT_FALSE(first.sealed);
  ASSERT_EQ(first.data.size(), 8u);  // bounded: just the magic

  // Writer rotates and keeps appending to segment 2 mid-iteration.
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_TRUE(wal.append({{2, 3}}));
  ASSERT_EQ(wal.active_seq(), 2u);

  // The reader continues from its old offset; accumulated bytes must equal
  // the sealed file byte for byte.
  std::vector<std::uint8_t> acc = first.data;
  while (true) {
    WalChunk c = read_wal_segment(path("wal"), 1, acc.size(), 16, wal.active_seq());
    ASSERT_TRUE(c.ok);
    ASSERT_FALSE(c.retired);  // sealed, not retired: still readable
    ASSERT_TRUE(c.sealed);
    if (c.data.empty()) {
      EXPECT_EQ(acc.size(), c.segment_bytes);
      break;
    }
    acc.insert(acc.end(), c.data.begin(), c.data.end());
  }
  const auto files = list_numbered_files(path("wal"));
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(acc.size(), files[0].bytes);

  // The replayed segment parses: magic + one intact record for edge {0,1}.
  const auto replay = WriteAheadLog::replay_and_truncate(files[0].path,
                                                         /*truncate_tail=*/false);
  ASSERT_TRUE(replay.ok) << replay.error;
  ASSERT_EQ(replay.edges.size(), 1u);
  EXPECT_EQ(replay.edges[0], (Edge{0, 1}));
  wal.close();
}

TEST_F(SegmentReaderTest, RetiredSegmentClassifiedForRebootstrap) {
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(path("wal"), {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{0, 1}}));
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_TRUE(wal.append({{1, 2}}));
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_EQ(wal.retire_through(2), 2u);

  WalChunk c = read_wal_segment(path("wal"), 1, 0, 1024, wal.active_seq());
  ASSERT_TRUE(c.ok);
  EXPECT_TRUE(c.retired);  // missing below the active segment: re-bootstrap
  EXPECT_FALSE(c.sealed);
  EXPECT_TRUE(c.data.empty());
  wal.close();
}

// The writer's active seq alone classifies a missing segment: one unlinked
// out of band below it reads as retired, while the segment after it is not
// written yet, whatever the directory holds.
TEST_F(SegmentReaderTest, MissingSegmentIsClassifiedByTheActiveSeq) {
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(path("wal"), {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{0, 1}}));
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_EQ(wal.active_seq(), 3u);
  ASSERT_TRUE(std::filesystem::remove(numbered_path(path("wal"), 2)));

  WalChunk c = read_wal_segment(path("wal"), 2, 0, 1024, wal.active_seq());
  ASSERT_TRUE(c.ok);
  EXPECT_TRUE(c.retired);
  EXPECT_FALSE(c.sealed);

  c = read_wal_segment(path("wal"), 1, 0, 1024, wal.active_seq());
  ASSERT_TRUE(c.ok);
  EXPECT_FALSE(c.retired);
  EXPECT_TRUE(c.sealed);  // still on disk below the active segment

  c = read_wal_segment(path("wal"), wal.active_seq() + 1, 0, 1024, wal.active_seq());
  ASSERT_TRUE(c.ok);
  EXPECT_FALSE(c.retired);
  EXPECT_FALSE(c.sealed);
  EXPECT_EQ(c.segment_bytes, 0u);
  wal.close();
}

// ------------------------------------------------- service-level replica ----

// The in-process bootstrap -> rebootstrap -> promote tests start a primary
// service in p/ and build the replica in r/. Each checkpoint_now() seals one
// more WAL segment, so after k cuts the newest checkpoint is number k and
// covers segments 1..k.
class ReplicaServiceTest : public ReplicaTest {
 protected:
  static constexpr vertex_t kVertices = 256;

  void start_primary() {
    ASSERT_TRUE(std::filesystem::create_directories(path("p")));
    ASSERT_TRUE(std::filesystem::create_directories(path("r")));
    ServiceOptions popts;
    popts.wal_path = path("p/wal");
    popts.checkpoint_path = path("p/ckpt");
    popts.checkpoint_interval_ms = 0;  // explicit checkpoints only
    primary_ = std::make_unique<ConnectivityService>(kVertices, popts);
  }
  void TearDown() override {
    if (primary_) primary_->stop();
    ReplicaTest::TearDown();
  }

  /// Ingests {u, u + 1} on the primary, cuts a checkpoint, and returns the
  /// image kFetchCkpt would serve.
  CkptImage checkpoint_with(vertex_t u) {
    EXPECT_EQ(primary_->submit({{u, u + 1}}), Admission::kAccepted);
    EXPECT_TRUE(primary_->checkpoint_now());
    return primary_->fetch_checkpoint_image();
  }

  /// Installs a fetched image into the replica's empty chain: the state a
  /// replica restarts from after a rebootstrap onto that image.
  void bootstrap_install(const CkptImage& img) {
    CheckpointStore store;
    store.open(path("r/ckpt"));
    CheckpointData data;
    const auto wr = store.install(img.image, &data);
    ASSERT_TRUE(wr.ok) << wr.error;
  }

  ServiceOptions replica_options() const {
    ServiceOptions o;
    o.replica = true;
    o.wal_path = path("r/wal");
    o.checkpoint_path = path("r/ckpt");
    o.checkpoint_interval_ms = 0;
    return o;
  }

  std::unique_ptr<ConnectivityService> primary_;
};

TEST_F(ReplicaServiceTest, ReplicaShedsSubmitUntilPromoted) {
  ServiceOptions opts;
  opts.replica = true;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  ConnectivityService svc(16, opts);
  EXPECT_TRUE(svc.is_replica());
  EXPECT_TRUE(svc.stats().replica);
  EXPECT_EQ(svc.submit({{0, 1}}), Admission::kShed);

  // Replicated records flow through the normal apply path.
  svc.apply_replicated({{0, 1}, {1, 2}});
  svc.compact_now();
  EXPECT_TRUE(svc.connected(0, 2));
  EXPECT_EQ(svc.stats().applied_edges, 2u);

  svc.set_replication_lag(5, 1234);
  const ServiceStats h = svc.stats();
  EXPECT_EQ(h.replica_lag_seq, 5u);
  EXPECT_EQ(h.replica_lag_ms, 1234u);

  // Promotion: submit starts accepting, the WAL opens for appending, and
  // the role flips in stats. Idempotent on a second call.
  std::string err;
  ASSERT_TRUE(svc.promote(&err)) << err;
  EXPECT_FALSE(svc.is_replica());
  ASSERT_TRUE(svc.promote(&err)) << err;
  EXPECT_EQ(svc.submit({{2, 3}}), Admission::kAccepted);
  svc.compact_now();
  EXPECT_TRUE(svc.connected(0, 3));
  EXPECT_GE(svc.stats().wal_records, 1u);
  svc.stop();

  // The promoted node's WAL is a real one: a restart replays it.
  ServiceOptions ropts;
  ropts.wal_path = path("wal");
  ropts.checkpoint_path = path("ckpt");
  ConnectivityService restarted(16, ropts);
  EXPECT_TRUE(restarted.connected(2, 3));  // the first snapshot replays the WAL
  restarted.stop();
}

// rebase_to_checkpoint on its own: the checkpoint's components are united
// into the live structure (the next snapshot shows them as a later epoch),
// applied edges rise to max(applied, checkpoint watermark), and an older
// checkpoint is refused without changing anything.
TEST_F(ReplicaServiceTest, RebaseUnitesCheckpointAndRefusesOlderOnes) {
  constexpr vertex_t kN = 16;
  const auto checkpoint = [](std::uint64_t watermark, std::uint64_t epoch,
                             std::uint64_t wal_seq,
                             std::vector<std::pair<vertex_t, vertex_t>> joins) {
    CheckpointData data;
    data.n = kN;
    data.watermark = watermark;
    data.epoch = epoch;
    data.wal_seq = wal_seq;
    std::vector<vertex_t> labels(kN);
    for (vertex_t v = 0; v < kN; ++v) labels[v] = v;
    for (const auto& [v, label] : joins) labels[v] = label;  // canonical
    data.labels = PageArray(labels);
    return data;
  };
  ServiceOptions opts;
  opts.replica = true;
  opts.compact_min_new_edges = ~0ull;  // explicit compactions only
  ConnectivityService svc(kN, opts);
  svc.apply_replicated({{0, 1}, {2, 3}, {8, 9}});
  const std::uint64_t epoch = svc.compact_now();
  EXPECT_EQ(svc.stats().applied_edges, 3u);

  // A vertex-count mismatch is refused.
  CheckpointData wrong_n = checkpoint(10, 7, 4, {});
  wrong_n.n = kN / 2;
  wrong_n.labels = PageArray(std::span<const vertex_t>(wrong_n.labels).first(kN / 2));
  EXPECT_FALSE(svc.rebase_to_checkpoint(wrong_n));

  // Newer checkpoint: {0, 1, 2, 3} and {4, 5} joined, watermark 10 > 3.
  ASSERT_TRUE(svc.rebase_to_checkpoint(checkpoint(10, 7, 4, {{1, 0}, {2, 0}, {3, 0}, {5, 4}})));
  EXPECT_EQ(svc.stats().applied_edges, 10u);
  EXPECT_EQ(svc.checkpoint_covered_wal_seq(), 4u);
  EXPECT_EQ(svc.stats().last_checkpoint_epoch, 7u);

  const std::uint64_t rebased_epoch = svc.compact_now();
  EXPECT_GT(rebased_epoch, epoch);
  const SnapshotPtr snap = svc.snapshot();
  EXPECT_EQ(snap->watermark, 10u);
  EXPECT_TRUE(snap->connected(1, 3));
  EXPECT_TRUE(snap->connected(4, 5));
  EXPECT_TRUE(snap->connected(8, 9));
  EXPECT_FALSE(snap->connected(0, 4));
  EXPECT_EQ(snap->num_components, kN - 5);

  // Older checkpoint (watermark 6 < 10): refused, nothing changes.
  svc.apply_replicated({{10, 11}});
  EXPECT_FALSE(svc.rebase_to_checkpoint(checkpoint(6, 5, 2, {{7, 6}})));
  EXPECT_EQ(svc.stats().applied_edges, 11u);
  EXPECT_EQ(svc.checkpoint_covered_wal_seq(), 4u);
  EXPECT_EQ(svc.stats().last_checkpoint_epoch, 7u);

  // Applied edges stay the max of the two: 11 applied > watermark 10. The
  // snapshot already covers all 11, so the watermark does not rise, yet
  // the next snapshot must still show the rebased union.
  const std::uint64_t caught_up_epoch = svc.compact_now();
  EXPECT_EQ(svc.snapshot()->watermark, 11u);
  EXPECT_FALSE(svc.connected(6, 7));  // the refused rebase united nothing
  ASSERT_TRUE(svc.rebase_to_checkpoint(checkpoint(10, 8, 5, {{13, 12}})));
  EXPECT_EQ(svc.stats().applied_edges, 11u);
  EXPECT_EQ(svc.checkpoint_covered_wal_seq(), 5u);
  EXPECT_GT(svc.compact_now(), caught_up_epoch);
  EXPECT_TRUE(svc.connected(12, 13));
  EXPECT_EQ(svc.snapshot()->watermark, 11u);
  svc.stop();
}

// Every epoch a service publishes is exactly the first `watermark` edges of
// one random stream, across two events that start from a checkpoint: a
// restart that remaps a WAL tail onto the checkpoint's labels, and a
// replica's rebase onto a newer checkpoint, at a random point of its own
// stream before or after the checkpoint's watermark. Compactions run only
// when forced, so each one is checked to publish exactly one epoch.
TEST_F(ReplicaServiceTest, EveryEpochIsTheExactPrefixAcrossRestartAndRebase) {
  constexpr vertex_t kN = 1 << 12;
  constexpr std::size_t kEdges = 3 * kN / 2;
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::filesystem::remove_all(path("p"));
    std::filesystem::remove_all(path("r"));
    ASSERT_TRUE(std::filesystem::create_directories(path("p")));
    ASSERT_TRUE(std::filesystem::create_directories(path("r")));
    Xoshiro256 rng(seed);
    std::vector<Edge> edges(kEdges);
    for (auto& [u, v] : edges) {  // mostly local, so small trees keep hooking
      u = static_cast<vertex_t>(rng.bounded(kN));
      v = rng.bounded(4) == 0 ? static_cast<vertex_t>(rng.bounded(kN))
                              : static_cast<vertex_t>((u + rng.bounded(32)) % kN);
    }
    const auto expect_prefix = [&](const PageArray& labels,
                                   std::uint64_t watermark, vertex_t components) {
      IncrementalCC ref(kN);
      ref.add_edges(edges.data(), watermark);
      EXPECT_TRUE(labels == ref.labels()) << "watermark " << watermark;
      EXPECT_EQ(components, ref.num_components()) << "watermark " << watermark;
    };
    // The one epoch published since `epoch`, checked against its prefix.
    const auto expect_next_epoch = [&](const ConnectivityService& svc, std::uint64_t& epoch,
                                       std::uint64_t watermark) {
      const SnapshotPtr snap = svc.snapshot();
      EXPECT_EQ(snap->epoch, epoch + 1);
      EXPECT_EQ(snap->watermark, watermark);
      expect_prefix(snap->labels, snap->watermark, snap->num_components);
      epoch = snap->epoch;
    };
    // Streams edges [from, to) into `apply` in random batches, forcing a
    // compaction after a random number of them.
    const auto stream = [&](ConnectivityService& svc, std::size_t from, std::size_t to,
                            const std::function<void(ConnectivityService::EdgeBatch)>& apply) {
      std::uint64_t epoch = svc.snapshot()->epoch;
      while (from < to) {
        for (std::uint64_t b = 1 + rng.bounded(4); b > 0 && from < to; --b) {
          const std::size_t end = std::min(to, from + 1 + rng.bounded(32));
          apply({edges.begin() + from, edges.begin() + end});
          from = end;
        }
        (void)svc.compact_now();
        expect_next_epoch(svc, epoch, from);
      }
    };
    const auto submit = [](ConnectivityService& svc) {
      return [&svc](ConnectivityService::EdgeBatch batch) {
        ASSERT_EQ(svc.submit(std::move(batch)), Admission::kAccepted);
      };
    };
    ServiceOptions opts;
    opts.wal_path = path("p/wal");
    opts.checkpoint_path = path("p/ckpt");
    opts.checkpoint_interval_ms = 0;
    opts.compact_min_new_edges = ~0ull;  // forced compactions only
    const std::size_t cut = kEdges / 4 + rng.bounded(kEdges / 4);
    const std::size_t crash = cut + 1 + rng.bounded(kEdges / 4);
    {
      ConnectivityService primary(kN, opts);
      stream(primary, 0, cut, submit(primary));
      ASSERT_TRUE(primary.checkpoint_now());
      stream(primary, cut, crash, submit(primary));
      // A failed final checkpoint leaves [cut, crash) WAL-only, as a crash
      // would.
      ASSERT_TRUE(fault::Registry::instance().arm("svc.ckpt.write=fail"));
      primary.stop();
      fault::Registry::instance().disarm_all();
    }
    {
      CheckpointStore store;
      store.open(path("p/ckpt"));
      const auto load = store.load_latest_valid();
      ASSERT_TRUE(load.ok) << load.error;
      EXPECT_EQ(load.data.watermark, cut);
      expect_prefix(load.data.labels, load.data.watermark, load.data.components);
    }

    ConnectivityService restarted(kN, opts);
    EXPECT_EQ(restarted.replayed_edges(), crash - cut);
    std::uint64_t epoch = restarted.stats().last_checkpoint_epoch;
    expect_next_epoch(restarted, epoch, crash);  // the tail remapped once
    const std::size_t newest = crash + 1 + rng.bounded(kEdges / 4);
    stream(restarted, crash, newest, submit(restarted));
    ASSERT_TRUE(restarted.checkpoint_now());
    const CkptImage image = restarted.fetch_checkpoint_image();
    ASSERT_TRUE(image.has);

    ServiceOptions ropts = replica_options();
    ropts.compact_min_new_edges = opts.compact_min_new_edges;
    ConnectivityService replica(kN, ropts);
    const auto replicate = [&replica](ConnectivityService::EdgeBatch batch) {
      replica.apply_replicated(std::move(batch));
    };
    const std::size_t rebase_at =  // before the checkpoint on odd seeds, else after
        seed % 2 == 1 ? rng.bounded(newest) : newest + rng.bounded(kEdges - newest);
    stream(replica, 0, rebase_at, replicate);
    epoch = replica.snapshot()->epoch;
    std::string err;
    ASSERT_TRUE(replica.rebase_to_image(image.image, &err)) << err;
    (void)replica.compact_now();
    if (rebase_at < newest) {
      expect_next_epoch(replica, epoch, newest);
    } else {
      EXPECT_EQ(replica.snapshot()->epoch, epoch);  // the checkpoint added nothing
    }
    stream(replica, std::max(rebase_at, newest), kEdges, replicate);
    restarted.stop();
    replica.stop();
  }
}

// Replicas rebase onto checkpoints cut while the primary ingests flat out,
// then stream the primary's WAL after each checkpoint's wal_seq record by
// record. Every epoch they publish is exactly the first `watermark` logged
// edges: a checkpoint's watermark counts exactly the records of the
// segments it covers, so the tail adds no edge twice.
TEST_F(ReplicaServiceTest, RebaseOntoACheckpointCutUnderLiveIngestThenStreamTheTail) {
  constexpr vertex_t kN = 1 << 14;
  ASSERT_TRUE(std::filesystem::create_directories(path("p")));
  ServiceOptions opts;
  opts.wal_path = path("p/wal");
  opts.checkpoint_path = path("p/ckpt");
  opts.checkpoint_interval_ms = 0;
  opts.wal.fsync_policy = FsyncPolicy::kNone;
  ConnectivityService primary(kN, opts);
  ASSERT_TRUE(primary.fetch_wal_chunk(/*replica_id=*/7, 1, 0, 1).ok);  // retains every segment
  std::vector<Edge> logged;  // accepted edges, in log order
  // A failed assertion returns with it running: the jthread stops and joins.
  std::jthread submitter([&](const std::stop_token& stop) {
    Xoshiro256 rng(5);
    while (!stop.stop_requested()) {
      ConnectivityService::EdgeBatch batch(64);
      for (auto& [u, v] : batch) {
        u = static_cast<vertex_t>(rng.bounded(kN));
        v = static_cast<vertex_t>((u + 1 + rng.bounded(64)) % kN);
      }
      const ConnectivityService::EdgeBatch copy = batch;
      if (primary.submit(std::move(batch)) == Admission::kAccepted) {
        logged.insert(logged.end(), copy.begin(), copy.end());
      }
    }
  });
  std::vector<CkptImage> images;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(primary.checkpoint_now());
    images.push_back(primary.fetch_checkpoint_image());
    ASSERT_TRUE(images.back().has);
  }
  submitter.request_stop();
  submitter.join();
  primary.flush();

  for (const CkptImage& image : images) {
    SCOPED_TRACE("checkpoint wal_seq " + std::to_string(image.wal_seq));
    std::filesystem::remove_all(path("r"));
    ASSERT_TRUE(std::filesystem::create_directories(path("r")));
    ServiceOptions ropts = replica_options();
    ropts.compact_min_new_edges = ~0ull;  // forced compactions only
    ConnectivityService replica(kN, ropts);
    IncrementalCC ref(kN);
    std::uint64_t ref_edges = 0;
    const auto expect_prefix = [&] {
      (void)replica.compact_now();
      const SnapshotPtr snap = replica.snapshot();
      ASSERT_LE(snap->watermark, logged.size());
      ASSERT_GE(snap->watermark, ref_edges);
      ref.add_edges(logged.data() + ref_edges, snap->watermark - ref_edges);
      ref_edges = snap->watermark;
      EXPECT_TRUE(snap->labels == ref.labels()) << "watermark " << snap->watermark;
      EXPECT_EQ(snap->num_components, ref.num_components()) << "watermark " << snap->watermark;
    };
    std::string err;
    ASSERT_TRUE(replica.rebase_to_image(image.image, &err)) << err;
    expect_prefix();
    std::size_t records = 0;
    for (std::uint64_t seq = image.wal_seq + 1;; ++seq) {
      std::ifstream in(numbered_path(path("p/wal"), seq), std::ios::binary);
      if (!in) break;
      const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in), {}};
      WalDecoder decoder;
      decoder.feed(bytes);
      ConnectivityService::EdgeBatch record;
      while (decoder.next(&record) == WalDecoder::Status::kRecord) {
        replica.apply_replicated(std::exchange(record, {}));
        if (++records % 256 == 0) expect_prefix();
      }
      ASSERT_EQ(decoder.pending(), 0u) << "segment " << seq;
      expect_prefix();
    }
    EXPECT_EQ(replica.snapshot()->watermark, logged.size());
    replica.stop();
  }
  primary.stop();
}

// Satellite 4: retention x replica floor. A live replica mid-fetch on an
// old segment pins it past checkpoint retirement; once it goes dead for
// longer than replica_hold_ms the floor releases and the next checkpoint
// retires the segment.
TEST_F(ReplicaServiceTest, SlowReplicaPinsSegmentsDeadReplicaReleases) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;  // explicit checkpoints only
  opts.replica_hold_ms = 150;
  ConnectivityService svc(64, opts);

  // A replica fetching segment 1 registers in the retention floor.
  const WalChunk c = svc.fetch_wal_chunk(/*replica_id=*/42, 1, 0, 4096);
  ASSERT_TRUE(c.ok);

  // Two checkpoint cuts: without a pinned replica, retention would retire
  // everything the older checkpoint covers.
  ASSERT_EQ(svc.submit({{0, 1}}), Admission::kAccepted);
  ASSERT_TRUE(svc.checkpoint_now());
  ASSERT_EQ(svc.submit({{1, 2}}), Admission::kAccepted);
  ASSERT_TRUE(svc.checkpoint_now());

  auto files = list_numbered_files(path("wal"));
  ASSERT_FALSE(files.empty());
  EXPECT_EQ(files.front().seq, 1u) << "pinned segment 1 must survive";

  // Kill the replica (stop fetching) and wait past the hold; the next
  // checkpoint prunes it and retires the backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(svc.submit({{2, 3}}), Admission::kAccepted);
  ASSERT_TRUE(svc.checkpoint_now());

  files = list_numbered_files(path("wal"));
  ASSERT_FALSE(files.empty());
  EXPECT_GT(files.front().seq, 1u) << "dead replica must not wedge retention";
  svc.stop();
}

TEST_F(ReplicaServiceTest, FetchCheckpointImageServesNewestValid) {
  ServiceOptions opts;
  opts.wal_path = path("wal");
  opts.checkpoint_path = path("ckpt");
  opts.checkpoint_interval_ms = 0;
  ConnectivityService svc(32, opts);

  EXPECT_FALSE(svc.fetch_checkpoint_image().has);  // none yet

  ASSERT_EQ(svc.submit({{0, 1}, {1, 2}}), Admission::kAccepted);
  ASSERT_TRUE(svc.checkpoint_now());
  const CkptImage img = svc.fetch_checkpoint_image();
  ASSERT_TRUE(img.has);
  ASSERT_FALSE(img.image.empty());
  EXPECT_GE(img.wal_seq, 1u);
  svc.stop();

  // The image is a verbatim checkpoint file: installing it elsewhere and
  // reading it back yields the labels.
  const std::string installed = numbered_path(path("ckpt2"), img.seq);
  std::FILE* f = std::fopen(installed.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(img.image.data(), 1, img.image.size(), f),
            img.image.size());
  std::fclose(f);
  CheckpointData data;
  std::string err;
  ASSERT_TRUE(CheckpointStore::read_file(installed, &data, &err)) << err;
  EXPECT_EQ(data.n, 32u);
  EXPECT_EQ(data.wal_seq, img.wal_seq);
  EXPECT_EQ(data.labels[1], data.labels[2]);
}

// Regression: a rebootstrap used to rename the primary's image into the
// replica's directory under the primary's number (6), behind the store's
// back. Promoted, the node then wrote its own checkpoints as 2 and 3,
// retention retired segment 7 (which held {100, 101}), and a restart loaded
// the stale checkpoint 6 and replayed only segments 8 and 9.
TEST_F(ReplicaServiceTest, PromotedAfterRebootstrapKeepsAckedEdgesAcrossRestart) {
  start_primary();
  const CkptImage first = checkpoint_with(0);
  ASSERT_TRUE(first.has);
  bootstrap_install(first);
  auto replica = std::make_unique<ConnectivityService>(kVertices, replica_options());
  EXPECT_TRUE(replica->connected(0, 1));  // the installed image is the first snapshot

  CkptImage newest;
  for (vertex_t u = 2; u < 12; u += 2) newest = checkpoint_with(u);
  ASSERT_EQ(newest.seq, 6u);
  ASSERT_EQ(newest.wal_seq, 6u);
  std::string err;
  ASSERT_TRUE(replica->rebase_to_image(newest.image, &err)) << err;
  replica->compact_now();
  EXPECT_TRUE(replica->connected(10, 11));

  ASSERT_TRUE(replica->promote(&err)) << err;
  ASSERT_EQ(replica->submit({{100, 101}}), Admission::kAccepted);
  ASSERT_TRUE(replica->checkpoint_now());
  ASSERT_EQ(replica->submit({{102, 103}}), Admission::kAccepted);
  ASSERT_TRUE(replica->checkpoint_now());
  replica->stop();
  replica.reset();

  ServiceOptions plain;
  plain.wal_path = path("r/wal");
  plain.checkpoint_path = path("r/ckpt");
  ConnectivityService restarted(kVertices, plain);
  EXPECT_TRUE(restarted.connected(100, 101));
  EXPECT_TRUE(restarted.connected(102, 103));
  EXPECT_TRUE(restarted.connected(10, 11));
  restarted.stop();
}

// Installs take the replica's own next number and fall under keep-2
// retention like written checkpoints, and an image rebase_to_checkpoint
// would refuse never enters the chain.
TEST_F(ReplicaServiceTest, InstalledCheckpointsKeepNewestTwo) {
  start_primary();
  const CkptImage first = checkpoint_with(0);
  bootstrap_install(first);
  auto replica = std::make_unique<ConnectivityService>(kVertices, replica_options());
  (void)checkpoint_with(2);
  const CkptImage second = checkpoint_with(4);
  (void)checkpoint_with(6);
  const CkptImage third = checkpoint_with(8);
  std::string err;
  ASSERT_TRUE(replica->rebase_to_image(second.image, &err)) << err;
  ASSERT_TRUE(replica->rebase_to_image(third.image, &err)) << err;

  const auto files = list_numbered_files(path("r/ckpt"));
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files.back().seq, 3u);  // local numbering, not the primary's 5
  EXPECT_FALSE(std::filesystem::exists(path("r/ckpt.tmp")));

  // An older image is refused before it is renamed into the chain.
  EXPECT_FALSE(replica->rebase_to_image(second.image, &err));
  EXPECT_EQ(list_numbered_files(path("r/ckpt")).size(), 2u);
  EXPECT_FALSE(std::filesystem::exists(path("r/ckpt.tmp")));
  replica->stop();

  CheckpointStore store;
  store.open(path("r/ckpt"));
  const auto load = store.load_latest_valid();
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.seq, 3u);
  EXPECT_EQ(load.data.wal_seq, third.wal_seq);
}

// --------------------------------------------------------- fetch loop ----

TEST_F(ReplicaTest, FirstFetchIsImmediateAndStopSkipsTheInterval) {
  constexpr vertex_t kN = 64;
  ASSERT_TRUE(std::filesystem::create_directories(path("p")));
  ASSERT_TRUE(std::filesystem::create_directories(path("r")));
  ServiceOptions popts;
  popts.wal_path = path("p/wal");
  ConnectivityService primary(kN, popts);
  ServerOptions sopts;
  sopts.unix_path = path("primary.sock");
  Server server(primary, sopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_EQ(primary.submit({{1, 2}}), Admission::kAccepted);

  ReplicatorOptions ropts;
  ropts.unix_path = sopts.unix_path;
  ropts.fetch_interval_ms = 60000;  // far past wait_until's deadline
  ServiceOptions o;
  o.replica = true;
  o.wal_path = path("r/wal");
  o.checkpoint_path = path("r/ckpt");
  ConnectivityService replica(kN, o);
  Replicator replicator(replica, ropts);
  ASSERT_TRUE(replicator.start(&err)) << err;
  EXPECT_TRUE(wait_until([&] { return replica.connected(1, 2); }))
      << "the first fetch must not wait out the interval";

  const auto t0 = std::chrono::steady_clock::now();
  replicator.stop();  // wakes the interval wait instead of sleeping through it
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(replicator.fetch_rounds(), 1u);
  EXPECT_FALSE(replicator.start(&err)) << "stop() is terminal";
  server.stop();
}

// A replica must not stream from a primary of another size: it would drop
// every edge at or above its own vertex count and answer queries wrong.
// Every connect reads the primary's kStats first and refuses a mismatch,
// even when the primary has no checkpoint to compare against.
TEST_F(ReplicaTest, ReplicaRefusesAPrimaryOfAnotherVertexCount) {
  ASSERT_TRUE(std::filesystem::create_directories(path("p")));
  ASSERT_TRUE(std::filesystem::create_directories(path("r")));
  ServiceOptions popts;
  popts.wal_path = path("p/wal");  // and no checkpoint
  ConnectivityService primary(512, popts);
  ServerOptions sopts;
  sopts.unix_path = path("primary.sock");
  Server server(primary, sopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_EQ(primary.submit({{0, 1}}), Admission::kAccepted);
  ASSERT_EQ(primary.submit({{300, 301}}), Admission::kAccepted);

  ServiceOptions o;
  o.replica = true;
  o.wal_path = path("r/wal");
  o.checkpoint_path = path("r/ckpt");
  ConnectivityService replica(256, o);
  ReplicatorOptions ropts;
  ropts.unix_path = sopts.unix_path;
  ropts.fetch_interval_ms = 5;
  Replicator replicator(replica, ropts);
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(replicator.start(&err)) << err;
  const bool refused = wait_until([&] { return replicator.fetch_errors() >= 3; });
  replicator.stop();
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(refused) << "every connect must be refused";
  EXPECT_EQ(replicator.applied_records(), 0u);
  EXPECT_EQ(replica.stats().applied_edges, 0u);
  const std::string line = "refusing a primary of 512 vertices";
  const std::size_t first = log.find(line);
  ASSERT_NE(first, std::string::npos) << log;
  EXPECT_EQ(log.find(line, first + 1), std::string::npos) << "logged once: " << log;
  replica.stop();
  server.stop();
}

// --------------------------------------------------------- end to end ----

class ReplicationE2ETest : public ReplicaTest {
 protected:
  void SetUp() override {
    ReplicaTest::SetUp();
    ServiceOptions popts;
    popts.wal_path = path("p/wal");
    popts.checkpoint_path = path("p/ckpt");
    popts.checkpoint_interval_ms = 0;  // test drives checkpoints explicitly
    popts.wal_segment_bytes = 1024;  // rotate often: exercise sealed advance
    popts.replica_hold_ms = 100;
    ASSERT_TRUE(std::filesystem::create_directories(path("p")));
    ASSERT_TRUE(std::filesystem::create_directories(path("r")));
    primary_ = std::make_unique<ConnectivityService>(kVertices, popts);
    ServerOptions sopts;
    sopts.unix_path = path("primary.sock");
    server_ = std::make_unique<Server>(*primary_, sopts);
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;

    ropts_.unix_path = sopts.unix_path;
    ropts_.fetch_interval_ms = 10;
  }

  void TearDown() override {
    stop_replica();
    if (server_) server_->stop();
    if (primary_) primary_->stop();
    ReplicaTest::TearDown();
  }

  /// Constructs and starts the replica stack (service, server on its own
  /// socket, replicator) on the local state in r/, empty on first start.
  void start_replica() {
    std::string err;
    ServiceOptions o;
    o.replica = true;
    o.wal_path = path("r/wal");
    o.checkpoint_path = path("r/ckpt");
    replica_ = std::make_unique<ConnectivityService>(kVertices, o);
    replicator_ = std::make_unique<Replicator>(*replica_, ropts_);
    ServerOptions so;
    so.unix_path = path("replica.sock");
    // Same hook the daemon installs: stop the stream before promoting.
    so.promote = [this] {
      replicator_->stop();
      return replica_->promote(nullptr);
    };
    replica_server_ = std::make_unique<Server>(*replica_, so);
    ASSERT_TRUE(replica_server_->start(&err)) << err;
    ASSERT_TRUE(replicator_->start(&err)) << err;
  }

  /// Tears the replica stack down cleanly; its state stays on disk in r/.
  void stop_replica() {
    if (replicator_) replicator_->stop();
    if (replica_server_) replica_server_->stop();
    if (replica_) replica_->stop();
    replicator_.reset();
    replica_server_.reset();
    replica_.reset();
  }

  static constexpr vertex_t kVertices = 512;
  std::unique_ptr<ConnectivityService> primary_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<ConnectivityService> replica_;
  std::unique_ptr<Replicator> replicator_;
  std::unique_ptr<Server> replica_server_;
  ReplicatorOptions ropts_;
};

TEST_F(ReplicationE2ETest, BootstrapStreamLagAndPromote) {
  std::string err;
  auto pc = Client::connect_unix(path("primary.sock"), &err);
  ASSERT_NE(pc, nullptr) << err;

  // Seed the primary before the replica exists: a checkpoint plus WAL tail.
  // One checkpoint retires nothing (retention keeps two), so the fresh
  // replica streams the whole log from segment 1.
  ASSERT_EQ(pc->ingest({{0, 1}, {1, 2}}), Status::kOk);
  ASSERT_TRUE(primary_->checkpoint_now());
  ASSERT_EQ(pc->ingest({{2, 3}}), Status::kOk);

  start_replica();

  // Everything acked before the replica joined becomes visible.
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 3); }))
      << "replica never caught up with pre-join state";

  // Live streaming: new primary writes show up with bounded, observable lag.
  ASSERT_EQ(pc->ingest({{3, 4}, {4, 5}}), Status::kOk);
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 5); }));
  ASSERT_TRUE(wait_until([&] { return replica_->stats().replica_lag_seq == 0; }));

  // The primary sees exactly one registered replica; replica reads serve
  // through its own server while writes bounce with kNotPrimary.
  ASSERT_TRUE(wait_until(
      [&] { return primary_->stats().replicas_connected == 1; }));
  auto rc = Client::connect_unix(path("replica.sock"), &err);
  ASSERT_NE(rc, nullptr) << err;
  Status qst = Status::kOk;
  EXPECT_TRUE(rc->connected(0, 5, ReadMode::kSnapshot, &qst));
  EXPECT_EQ(qst, Status::kOk);
  EXPECT_EQ(rc->ingest({{9, 10}}), Status::kNotPrimary);
  ServiceStats rh{};
  ASSERT_TRUE(rc->stats(rh));
  EXPECT_TRUE(rh.replica);

  // Failover: promote over the wire (the hook stops the Replicator first).
  Status st = Status::kOk;
  ASSERT_TRUE(rc->promote(&st)) << status_name(st);
  EXPECT_EQ(rc->ingest({{9, 10}}), Status::kOk);
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(9, 10); }));
  ASSERT_TRUE(rc->stats(rh));
  EXPECT_FALSE(rh.replica);
  // Everything replicated before the failover survived the promotion.
  EXPECT_TRUE(replica_->connected(0, 5));
}

TEST_F(ReplicationE2ETest, FallenBehindReplicaRebootstraps) {
  std::string err;
  auto pc = Client::connect_unix(path("primary.sock"), &err);
  ASSERT_NE(pc, nullptr) << err;

  ASSERT_EQ(pc->ingest({{0, 1}}), Status::kOk);
  start_replica();
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 1); }));

  // Stop streaming, then push the primary far past retention: enough bytes
  // to rotate several 1 KiB segments, two checkpoint cuts, and a wait past
  // replica_hold_ms so the dead replica stops pinning the floor.
  replicator_->stop();
  std::vector<Edge> chain;
  for (vertex_t v = 1; v + 1 < 300; ++v) chain.push_back({v, v + 1});
  ASSERT_EQ(pc->ingest(chain), Status::kOk);
  ASSERT_TRUE(primary_->checkpoint_now());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(pc->ingest({{299, 300}, {300, 301}}), Status::kOk);
  ASSERT_TRUE(primary_->checkpoint_now());
  const auto files = list_numbered_files(path("p/wal"));
  ASSERT_FALSE(files.empty());
  ASSERT_GT(files.front().seq, 1u) << "primary must have retired old segments";

  // Restarting the stream (stop() is terminal, so a fresh Replicator — the
  // same shape as a replica process restart) hits `retired` and
  // re-bootstraps from a fresh checkpoint; the replica converges.
  replicator_ = std::make_unique<Replicator>(*replica_, ropts_);
  ASSERT_TRUE(replicator_->start(&err)) << err;
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 301); }))
      << "replica never re-bootstrapped past retention";
  EXPECT_GE(replicator_->rebootstraps(), 1u);
}

// A fresh replica has one way in. Its empty log ends in segment 1, which a
// primary past two checkpoints has retired, so the first fetch answers
// `retired` and one rebootstrap installs the newest checkpoint; the stream
// resumes past it. Restarted on the same dirs, the replica resumes from its
// own log end and rebootstraps no more.
TEST_F(ReplicationE2ETest, FreshReplicaOfARetiredLogRebasesOnce) {
  std::string err;
  auto pc = Client::connect_unix(path("primary.sock"), &err);
  ASSERT_NE(pc, nullptr) << err;
  std::vector<Edge> acked;
  for (vertex_t v = 0; v + 1 < 200; ++v) acked.push_back({v, v + 1});
  ASSERT_EQ(pc->ingest(acked), Status::kOk);
  ASSERT_TRUE(primary_->checkpoint_now());
  acked.push_back({200, 201});
  ASSERT_EQ(pc->ingest({acked.back()}), Status::kOk);
  ASSERT_TRUE(primary_->checkpoint_now());
  acked.push_back({201, 202});  // a WAL tail past the newest checkpoint
  ASSERT_EQ(pc->ingest({acked.back()}), Status::kOk);
  ASSERT_FALSE(std::filesystem::exists(numbered_path(path("p/wal"), 1)))
      << "the primary must have retired segment 1";
  const auto serves_all = [&] {
    return std::all_of(acked.begin(), acked.end(),
                       [&](const Edge& e) { return replica_->connected(e.first, e.second); });
  };

  start_replica();
  ASSERT_TRUE(wait_until(serves_all)) << "the fresh replica never caught up";
  EXPECT_EQ(replicator_->rebootstraps(), 1u);

  stop_replica();
  acked.push_back({300, 301});
  ASSERT_EQ(pc->ingest({acked.back()}), Status::kOk);
  start_replica();
  ASSERT_TRUE(wait_until(serves_all)) << "the restarted replica never caught up";
  EXPECT_EQ(replicator_->rebootstraps(), 0u);
}

TEST_F(ReplicationE2ETest, ReplicaRestartResumesFromLocalMirror) {
  std::string err;
  auto pc = Client::connect_unix(path("primary.sock"), &err);
  ASSERT_NE(pc, nullptr) << err;
  ASSERT_EQ(pc->ingest({{0, 1}, {1, 2}}), Status::kOk);

  start_replica();
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 2); }));

  // Tear the whole replica stack down (clean stop, mirror stays on disk)
  // and bring it back: recovery runs off the local mirror, then streaming
  // resumes where it left off.
  stop_replica();

  ASSERT_EQ(pc->ingest({{2, 3}}), Status::kOk);
  start_replica();
  EXPECT_TRUE(replica_->connected(0, 2))
      << "local mirror replay must restore pre-restart state";
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 3); }));
}

// Records are 808 bytes and the primary seals every 1 KiB segment after two,
// while each fetch takes 83 bytes. The Replicator's one tick stops after
// 256 fetches, 20 per segment: 12 segments, then 1328 bytes into the 13th,
// partway through its second record. Only whole records reach the replica's
// log, so it ends on a record boundary, and each of its segments is a
// prefix of the primary's.
TEST_F(ReplicationE2ETest, LiveReplicaLogEndsOnARecordBoundary) {
  for (vertex_t b = 0; b < 40; ++b) {
    ConnectivityService::EdgeBatch batch;
    for (vertex_t i = 0; i < 100; ++i) batch.emplace_back(i, (b * 7 + i + 1) % kVertices);
    ASSERT_EQ(primary_->submit(std::move(batch)), Admission::kAccepted);
  }
  ropts_.fetch_max_bytes = 83;
  ropts_.fetch_interval_ms = 60000;  // one tick
  const std::uint64_t served = server_->requests_served();
  start_replica();
  // The connect's kStats (the vertex-count check), then the tick's 256
  // kFetchWal: once the last is served the Replicator has only to apply it.
  ASSERT_TRUE(wait_until([&] { return server_->requests_served() >= served + 257; }));
  replicator_->stop();
  EXPECT_EQ(replicator_->fetch_rounds(), 1u);
  EXPECT_EQ(replicator_->applied_records(), 25u);

  const auto read = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::vector<std::uint8_t>{std::istreambuf_iterator<char>(in), {}};
  };
  const auto segments = list_numbered_files(path("r/wal"));
  ASSERT_EQ(segments.size(), 13u);
  for (const auto& seg : segments) {
    SCOPED_TRACE("segment " + std::to_string(seg.seq));
    const auto replay = WriteAheadLog::replay_and_truncate(seg.path, /*truncate_tail=*/false);
    ASSERT_TRUE(replay.ok) << replay.error;
    EXPECT_EQ(replay.truncated_bytes, 0u);
    const std::vector<std::uint8_t> mine = read(seg.path);
    const std::vector<std::uint8_t> primary = read(numbered_path(path("p/wal"), seg.seq));
    ASSERT_LE(mine.size(), primary.size());
    EXPECT_TRUE(std::equal(mine.begin(), mine.end(), primary.begin()));
  }
  EXPECT_EQ(segments.back().bytes, 8u + 808u);  // the magic and record 25
}

}  // namespace
}  // namespace ecl::svc
