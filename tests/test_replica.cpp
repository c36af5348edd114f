// Tests for WAL-shipping replication (docs/REPLICATION.md): the kFetchCkpt /
// kFetchWal / kPromote wire round-trips and the replication rows of kStats, the
// rotation/retirement-safe WalSegmentReader (regression: a reader iterating
// while the writer rotates must keep making progress), the service-level
// replica contract (submit sheds, apply_replicated feeds the live structure,
// rebase_to_checkpoint unites a newer checkpoint and refuses an older one,
// promote flips to writable), the retention floor interaction (a slow
// replica pins segments; a dead one is released after replica_hold_ms), and
// an end-to-end bootstrap -> stream -> lag -> rebootstrap -> promote run
// against a live Server + Replicator pair.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

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

// ---------------------------------------------------- WalSegmentReader ----

using SegmentReaderTest = ReplicaTest;

TEST_F(SegmentReaderTest, ReadsActiveSegmentAndClassifiesMissing) {
  SegmentedWal wal;
  std::string err;
  ASSERT_TRUE(wal.open(path("wal"), {}, 1, &err)) << err;
  ASSERT_TRUE(wal.append({{0, 1}, {1, 2}}));

  SegmentChunk c = WalSegmentReader::read(path("wal"), 1, 0, 1u << 20);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_TRUE(c.exists);
  EXPECT_FALSE(c.retired);
  EXPECT_EQ(c.data.size(), c.segment_bytes);
  ASSERT_GE(c.data.size(), kWalMagicBytes);
  EXPECT_EQ(0, std::memcmp(c.data.data(), wal_magic(), kWalMagicBytes));

  // A segment the writer has not created yet is "not exists", not retired.
  c = WalSegmentReader::read(path("wal"), 99, 0, 1024);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_FALSE(c.exists);
  EXPECT_FALSE(c.retired);
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
  SegmentChunk first = WalSegmentReader::read(path("wal"), 1, 0, 8);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(first.exists);
  ASSERT_EQ(first.data.size(), 8u);  // bounded: just the magic

  // Writer rotates and keeps appending to segment 2 mid-iteration.
  ASSERT_TRUE(wal.rotate(&err)) << err;
  ASSERT_TRUE(wal.append({{2, 3}}));
  ASSERT_EQ(wal.active_seq(), 2u);

  // The reader continues from its old offset; accumulated bytes must equal
  // the sealed file byte for byte.
  std::vector<std::uint8_t> acc = first.data;
  while (true) {
    SegmentChunk c = WalSegmentReader::read(path("wal"), 1, acc.size(), 16);
    ASSERT_TRUE(c.ok) << c.error;
    ASSERT_TRUE(c.exists);  // sealed, not retired: still readable
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

  SegmentChunk c = WalSegmentReader::read(path("wal"), 1, 0, 1024);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_FALSE(c.exists);
  EXPECT_TRUE(c.retired);  // a higher-numbered segment exists: re-bootstrap
  wal.close();
}

// ------------------------------------------------- service-level replica ----

using ReplicaServiceTest = ReplicaTest;

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
  EXPECT_TRUE(wait_until([&] { return svc.connected(0, 2, ReadMode::kFresh); }));
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
  svc.flush();
  EXPECT_TRUE(svc.connected(0, 3, ReadMode::kFresh));
  EXPECT_GE(svc.stats().wal_records, 1u);
  svc.stop();

  // The promoted node's WAL is a real one: a restart replays it.
  ServiceOptions ropts;
  ropts.wal_path = path("wal");
  ropts.checkpoint_path = path("ckpt");
  ConnectivityService restarted(16, ropts);
  EXPECT_TRUE(restarted.connected(2, 3, ReadMode::kFresh));
  restarted.stop();
}

// rebase_to_checkpoint on its own: the checkpoint's components are united
// into the live structure (kFresh sees them at once, the next snapshot as a
// later epoch), applied edges rise to max(applied, checkpoint watermark),
// and an older checkpoint is refused without changing anything.
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
    data.labels.resize(kN);
    for (vertex_t v = 0; v < kN; ++v) data.labels[v] = v;
    for (const auto& [v, label] : joins) data.labels[v] = label;  // canonical
    return data;
  };
  ServiceOptions opts;
  opts.replica = true;
  opts.compact_interval_ms = 3600 * 1000;  // explicit compactions only
  opts.compact_min_new_edges = ~0ull;
  ConnectivityService svc(kN, opts);
  svc.apply_replicated({{0, 1}, {2, 3}, {8, 9}});
  const std::uint64_t epoch = svc.compact_now();
  EXPECT_EQ(svc.stats().applied_edges, 3u);

  // A vertex-count mismatch is refused.
  CheckpointData wrong_n = checkpoint(10, 7, 4, {});
  wrong_n.n = kN / 2;
  wrong_n.labels.resize(kN / 2);
  EXPECT_FALSE(svc.rebase_to_checkpoint(wrong_n));

  // Newer checkpoint: {0, 1, 2, 3} and {4, 5} joined, watermark 10 > 3.
  ASSERT_TRUE(svc.rebase_to_checkpoint(checkpoint(10, 7, 4, {{1, 0}, {2, 0}, {3, 0}, {5, 4}})));
  EXPECT_TRUE(svc.connected(1, 3, ReadMode::kFresh));
  EXPECT_TRUE(svc.connected(4, 5, ReadMode::kFresh));
  EXPECT_TRUE(svc.connected(8, 9, ReadMode::kFresh));
  EXPECT_FALSE(svc.connected(0, 4, ReadMode::kFresh));
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
  EXPECT_EQ(snap->num_components, kN - 5);

  // Older checkpoint (watermark 6 < 10): refused, nothing changes.
  svc.apply_replicated({{10, 11}});
  EXPECT_FALSE(svc.rebase_to_checkpoint(checkpoint(6, 5, 2, {{7, 6}})));
  EXPECT_FALSE(svc.connected(6, 7, ReadMode::kFresh));
  EXPECT_EQ(svc.stats().applied_edges, 11u);
  EXPECT_EQ(svc.checkpoint_covered_wal_seq(), 4u);
  EXPECT_EQ(svc.stats().last_checkpoint_epoch, 7u);

  // Applied edges stay the max of the two: 11 applied > watermark 10. The
  // snapshot already covers all 11, so the watermark does not rise, yet
  // the next snapshot must still show the rebased union.
  const std::uint64_t caught_up_epoch = svc.compact_now();
  EXPECT_EQ(svc.snapshot()->watermark, 11u);
  ASSERT_TRUE(svc.rebase_to_checkpoint(checkpoint(10, 8, 5, {{13, 12}})));
  EXPECT_TRUE(svc.connected(12, 13, ReadMode::kFresh));
  EXPECT_EQ(svc.stats().applied_edges, 11u);
  EXPECT_EQ(svc.checkpoint_covered_wal_seq(), 5u);
  EXPECT_GT(svc.compact_now(), caught_up_epoch);
  EXPECT_TRUE(svc.connected(12, 13));
  EXPECT_EQ(svc.snapshot()->watermark, 11u);
  svc.stop();
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
  opts.compact_interval_ms = 5;
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

// --------------------------------------------------------- end to end ----

class ReplicationE2ETest : public ReplicaTest {
 protected:
  void SetUp() override {
    ReplicaTest::SetUp();
    ServiceOptions popts;
    popts.wal_path = path("p/wal");
    popts.checkpoint_path = path("p/ckpt");
    popts.checkpoint_interval_ms = 0;  // test drives checkpoints explicitly
    popts.compact_interval_ms = 5;
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
    ropts_.wal_path = path("r/wal");
    ropts_.checkpoint_path = path("r/ckpt");
    ropts_.fetch_interval_ms = 10;
  }

  void TearDown() override {
    if (replicator_) replicator_->stop();
    if (replica_server_) replica_server_->stop();
    if (replica_) replica_->stop();
    if (server_) server_->stop();
    if (primary_) primary_->stop();
    ReplicaTest::TearDown();
  }

  /// Bootstraps + constructs + starts the replica stack (service, optional
  /// server on its own socket, replicator).
  void start_replica() {
    std::string err;
    ASSERT_TRUE(Replicator::bootstrap(ropts_, &err)) << err;
    ServiceOptions o;
    o.replica = true;
    o.wal_path = ropts_.wal_path;
    o.checkpoint_path = ropts_.checkpoint_path;
    o.compact_interval_ms = 5;
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

  // Seed the primary before the replica exists: a checkpoint plus WAL tail,
  // so bootstrap exercises the checkpoint-image path.
  ASSERT_EQ(pc->ingest({{0, 1}, {1, 2}}), Status::kOk);
  ASSERT_TRUE(primary_->checkpoint_now());
  ASSERT_EQ(pc->ingest({{2, 3}}), Status::kOk);

  start_replica();

  // Everything acked before the replica joined becomes visible: checkpoint
  // labels + streamed WAL tail.
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 3, ReadMode::kFresh); }))
      << "replica never caught up with pre-join state";

  // Live streaming: new primary writes show up with bounded, observable lag.
  ASSERT_EQ(pc->ingest({{3, 4}, {4, 5}}), Status::kOk);
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 5, ReadMode::kFresh); }));
  ASSERT_TRUE(wait_until([&] { return replica_->stats().replica_lag_seq == 0; }));

  // The primary sees exactly one registered replica; replica reads serve
  // through its own server while writes bounce with kNotPrimary.
  ASSERT_TRUE(wait_until(
      [&] { return primary_->stats().replicas_connected == 1; }));
  auto rc = Client::connect_unix(path("replica.sock"), &err);
  ASSERT_NE(rc, nullptr) << err;
  Status qst = Status::kOk;
  EXPECT_TRUE(rc->connected(0, 5, ReadMode::kFresh, &qst));
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
      [&] { return replica_->connected(9, 10, ReadMode::kFresh); }));
  ASSERT_TRUE(rc->stats(rh));
  EXPECT_FALSE(rh.replica);
  // Everything replicated before the failover survived the promotion.
  EXPECT_TRUE(replica_->connected(0, 5, ReadMode::kFresh));
}

TEST_F(ReplicationE2ETest, FallenBehindReplicaRebootstraps) {
  std::string err;
  auto pc = Client::connect_unix(path("primary.sock"), &err);
  ASSERT_NE(pc, nullptr) << err;

  ASSERT_EQ(pc->ingest({{0, 1}}), Status::kOk);
  start_replica();
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 1, ReadMode::kFresh); }));

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
      [&] { return replica_->connected(0, 301, ReadMode::kFresh); }))
      << "replica never re-bootstrapped past retention";
  EXPECT_GE(replicator_->rebootstraps(), 1u);
}

TEST_F(ReplicationE2ETest, ReplicaRestartResumesFromLocalMirror) {
  std::string err;
  auto pc = Client::connect_unix(path("primary.sock"), &err);
  ASSERT_NE(pc, nullptr) << err;
  ASSERT_EQ(pc->ingest({{0, 1}, {1, 2}}), Status::kOk);

  start_replica();
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 2, ReadMode::kFresh); }));

  // Tear the whole replica stack down (clean stop, mirror stays on disk)
  // and bring it back: recovery runs off the local mirror, then streaming
  // resumes where it left off.
  replicator_->stop();
  replica_server_->stop();
  replica_->stop();
  replicator_.reset();
  replica_server_.reset();
  replica_.reset();

  ASSERT_EQ(pc->ingest({{2, 3}}), Status::kOk);
  start_replica();
  EXPECT_TRUE(replica_->connected(0, 2, ReadMode::kFresh))
      << "local mirror replay must restore pre-restart state";
  ASSERT_TRUE(wait_until(
      [&] { return replica_->connected(0, 3, ReadMode::kFresh); }));
}

}  // namespace
}  // namespace ecl::svc
