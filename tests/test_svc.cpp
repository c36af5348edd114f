// Tests for ecl::svc — the batched connectivity query service: the bounded
// admission queue, snapshot consistency across compactions, backpressure
// (shed, never block or drop), graceful drain-and-shutdown, a multithreaded
// linearizability smoke, the wire protocol, and an end-to-end socket test
// against a live Server.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "dsu/hook.h"
#include "fault/fault.h"
#include "graph/builder.h"
#include "svc/client.h"
#include "svc/net.h"
#include "svc/protocol.h"
#include "svc/queue.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/wal.h"

namespace ecl::svc {
namespace {

// ---------------------------------------------------------------- queue ----

TEST(BoundedQueue, AcceptsUntilCapacityThenSheds) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.try_push(1), Admission::kAccepted);
  EXPECT_EQ(q.try_push(2), Admission::kAccepted);
  EXPECT_EQ(q.try_push(3), Admission::kShed);  // full: shed, not block
  EXPECT_EQ(q.size(), 2u);

  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.try_push(4), Admission::kAccepted);  // slot freed
}

TEST(BoundedQueue, CloseDrainsThenReportsEmpty) {
  BoundedQueue<int> q(4);
  ASSERT_EQ(q.try_push(7), Admission::kAccepted);
  ASSERT_EQ(q.try_push(8), Admission::kAccepted);
  q.close();
  EXPECT_EQ(q.try_push(9), Admission::kClosed);

  int out = 0;
  EXPECT_TRUE(q.pop(out));   // items admitted before close still drain
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(q.pop(out));  // drained + closed
}

TEST(BoundedQueue, PopBlocksUntilPush) {
  BoundedQueue<int> q(1);
  std::atomic<int> got{0};
  std::thread consumer([&] {
    int out = 0;
    if (q.pop(out)) got.store(out);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.try_push(42), Admission::kAccepted);
  consumer.join();
  EXPECT_EQ(got.load(), 42);
}

// -------------------------------------------------------------- service ----

TEST(ConnectivityService, StartsAsSingletons) {
  ConnectivityService svc(8);
  EXPECT_EQ(svc.component_count(), 8u);
  EXPECT_FALSE(svc.connected(0, 7));
  EXPECT_EQ(svc.component_of(3), 3u);
  EXPECT_EQ(svc.snapshot()->epoch, 0u);
}

TEST(ConnectivityService, SnapshotSeesCompactedEdgesOnly) {
  ServiceOptions opts;
  opts.compact_min_new_edges = ~0ull;  // only explicit compactions
  ConnectivityService svc(10, opts);

  ASSERT_EQ(svc.submit({{0, 1}, {1, 2}}), Admission::kAccepted);
  const std::uint64_t epoch = svc.compact_now();
  EXPECT_GE(epoch, 1u);

  // The snapshot reflects everything accepted before compact_now()...
  EXPECT_TRUE(svc.connected(0, 2, ReadMode::kSnapshot));
  EXPECT_EQ(svc.component_of(2), 0u);    // canonical min-ID
  EXPECT_EQ(svc.component_count(), 8u);  // {0,1,2} + 7 singletons

  // ...but an edge applied after it stays invisible until the next one.
  ASSERT_EQ(svc.submit({{2, 3}}), Admission::kAccepted);
  svc.flush();
  EXPECT_FALSE(svc.connected(0, 3, ReadMode::kSnapshot));
  EXPECT_EQ(svc.stats().applied_edges, 3u);
  EXPECT_EQ(svc.stats().staleness_edges, 1u);

  const std::uint64_t epoch2 = svc.compact_now();
  EXPECT_GT(epoch2, epoch);
  EXPECT_TRUE(svc.connected(0, 3, ReadMode::kSnapshot));
}

TEST(ConnectivityService, SnapshotPinsItsEpoch) {
  ServiceOptions opts;
  opts.compact_min_new_edges = ~0ull;
  ConnectivityService svc(6, opts);

  ASSERT_EQ(svc.submit({{0, 1}}), Admission::kAccepted);
  svc.compact_now();
  const SnapshotPtr pinned = svc.snapshot();

  ASSERT_EQ(svc.submit({{1, 2}}), Admission::kAccepted);
  svc.compact_now();

  // The pinned epoch is immutable even after newer epochs are published.
  EXPECT_TRUE(pinned->connected(0, 1));
  EXPECT_FALSE(pinned->connected(0, 2));
  EXPECT_TRUE(svc.snapshot()->connected(0, 2));
  EXPECT_GT(svc.snapshot()->epoch, pinned->epoch);
}

TEST(ConnectivityService, SeedGraphCountsAsEpochZero) {
  // 0-1-2 path plus isolated 3.
  const Graph g = build_graph(4, std::vector<Edge>{{0, 1}, {1, 2}});
  ConnectivityService svc(g);
  EXPECT_TRUE(svc.connected(0, 2));
  EXPECT_FALSE(svc.connected(0, 3));
  EXPECT_EQ(svc.component_count(), 2u);
  EXPECT_GT(svc.stats().watermark, 0u);  // seed edges are pre-applied
}

// The compaction thread waits for work, not for a clock: an idle service
// with checkpoints on makes no compaction pass at all, so a kill armed for
// the eleventh pass never fires.
TEST(ConnectivityService, IdleCompactionThreadSleeps) {
  const std::string ckpt =
      ::testing::TempDir() + "ecl_svc_idle_" + std::to_string(::getpid()) + ".ckpt";
  const auto remove_checkpoints = [&] {
    for (const auto& f : list_numbered_files(ckpt)) std::remove(f.path.c_str());
  };
  remove_checkpoints();
  {
    ServiceOptions opts;
    opts.checkpoint_path = ckpt;  // the default checkpoint_interval_ms
    ConnectivityService svc(100, opts);
    ASSERT_TRUE(fault::Registry::instance().arm("svc.compact.worker=kill,after=10"));
    std::this_thread::sleep_for(std::chrono::seconds(1));
    fault::Registry::instance().disarm_all();
    EXPECT_FALSE(svc.degraded());
  }
  remove_checkpoints();
}

TEST(ConnectivityService, OutOfRangeVerticesAreSafe) {
  ConnectivityService svc(4);
  EXPECT_FALSE(svc.connected(0, 99));
  EXPECT_FALSE(svc.connected(99, 100));
  EXPECT_EQ(svc.component_of(99), kInvalidVertex);
  // A batch mixing valid and invalid edges applies only the valid ones.
  ASSERT_EQ(svc.submit({{0, 1}, {2, 99}, {100, 101}}), Admission::kAccepted);
  svc.compact_now();
  EXPECT_TRUE(svc.connected(0, 1));
  EXPECT_FALSE(svc.connected(2, 3));
  EXPECT_EQ(svc.stats().applied_edges, 1u);
}

TEST(ConnectivityService, EmptyBatchesWriteNoWalRecord) {
  const std::string wal =
      ::testing::TempDir() + "ecl_svc_empty_" + std::to_string(::getpid()) + ".wal";
  const auto remove_segments = [&] {
    for (const auto& seg : list_numbered_files(wal)) std::remove(seg.path.c_str());
  };
  remove_segments();
  {
    ServiceOptions opts;
    opts.wal_path = wal;
    ConnectivityService svc(100, opts);
    ASSERT_EQ(svc.submit({{1, 2}}), Admission::kAccepted);
    const ServiceStats before = svc.stats();
    EXPECT_EQ(before.wal_records, 1u);
    // Both are admitted and acked, but there is nothing to log: one loses
    // every edge to drop_out_of_universe, the other has none.
    EXPECT_EQ(svc.submit({{200, 201}, {202, 203}}), Admission::kAccepted);
    EXPECT_EQ(svc.submit({}), Admission::kAccepted);
    const ServiceStats after = svc.stats();
    EXPECT_EQ(after.accepted_batches, 3u);
    EXPECT_EQ(after.wal_records, before.wal_records);
    EXPECT_EQ(after.wal_bytes, before.wal_bytes);
  }
  remove_segments();
}

/// Slows the ingest worker by `us` microseconds per batch until destroyed.
class SlowIngest {
 public:
  explicit SlowIngest(int us) {
    EXPECT_TRUE(fault::Registry::instance().arm("svc.ingest.worker=delay,arg=" +
                                                std::to_string(us)));
  }
  ~SlowIngest() { fault::Registry::instance().disarm_all(); }
  SlowIngest(const SlowIngest&) = delete;
  SlowIngest& operator=(const SlowIngest&) = delete;
};

TEST(ConnectivityService, BackpressureShedsInsteadOfBlocking) {
  const SlowIngest slow(2000);  // slow consumer → queue fills
  ServiceOptions opts;
  opts.queue_capacity = 2;
  opts.compact_min_new_edges = ~0ull;
  ConnectivityService svc(1000, opts);

  std::uint64_t accepted = 0, shed = 0, accepted_edges = 0;
  for (vertex_t i = 0; i + 1 < 200; ++i) {
    const Admission a = svc.submit({{i, i + 1}});
    if (a == Admission::kAccepted) {
      ++accepted;
      ++accepted_edges;
    } else {
      ASSERT_EQ(a, Admission::kShed);  // never kClosed while running
      ++shed;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(shed, 0u);  // capacity 2 with a slow consumer must shed

  // Every accepted batch is applied — shed is visible, loss is not.
  svc.flush();
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.accepted_batches, accepted);
  EXPECT_EQ(st.applied_batches, accepted);
  EXPECT_EQ(st.applied_edges, accepted_edges);
  EXPECT_EQ(st.shed_batches, shed);
}

TEST(ConnectivityService, GracefulShutdownAppliesInFlightBatches) {
  const SlowIngest slow(500);  // keep batches in flight at stop() time
  ServiceOptions opts;
  opts.queue_capacity = 64;
  opts.compact_min_new_edges = ~0ull;
  ConnectivityService svc(64, opts);

  std::uint64_t accepted_edges = 0;
  for (vertex_t i = 0; i + 1 < 32; ++i) {
    if (svc.submit({{i, i + 1}}) == Admission::kAccepted) ++accepted_edges;
  }
  svc.stop();  // drain + final compaction

  EXPECT_EQ(svc.submit({{0, 1}}), Admission::kClosed);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.applied_edges, accepted_edges);
  EXPECT_EQ(st.watermark, accepted_edges);  // final snapshot covers the log
  // All 32 path vertices collapsed into one component (+32 singletons).
  EXPECT_TRUE(svc.connected(0, 31));
  EXPECT_EQ(svc.component_count(), 33u);
}

TEST(ConnectivityService, StopIsIdempotent) {
  ConnectivityService svc(4);
  svc.stop();
  svc.stop();
  EXPECT_EQ(svc.submit({{0, 1}}), Admission::kClosed);
}

TEST(ConnectivityService, ConcurrentStopIsSafe) {
  ConnectivityService svc(16);
  ASSERT_EQ(svc.submit({{0, 1}}), Admission::kAccepted);
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) stoppers.emplace_back([&] { svc.stop(); });
  for (auto& t : stoppers) t.join();
  EXPECT_EQ(svc.submit({{1, 2}}), Admission::kClosed);
  // Every stop() call — winner or not — returns only after the full drain,
  // so the accepted edge is visible in the final snapshot.
  EXPECT_TRUE(svc.connected(0, 1));
}

// Linearizability smoke: connectivity only ever grows (we never delete
// edges), so once any reader observes connected(u,v) == true, every later
// read in any mode must agree. Writers and readers run concurrently while
// background compactions swap snapshots under the readers.
TEST(ConnectivityService, ConnectivityIsMonotoneUnderConcurrency) {
  constexpr vertex_t kN = 512;
  ServiceOptions opts;
  ConnectivityService svc(kN, opts);

  std::atomic<bool> writer_done{false};
  std::atomic<bool> violation{false};

  std::thread writer([&] {
    for (vertex_t i = 0; i + 1 < kN; ++i) {
      while (svc.submit({{i, i + 1}}) == Admission::kShed) {
        std::this_thread::yield();
      }
    }
    svc.flush();
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      // frontier = highest vertex seen connected to 0 so far; connectivity
      // along the path 0-1-2-... may never regress below it.
      vertex_t frontier = 0;
      while (!writer_done.load(std::memory_order_acquire)) {
        if (frontier + 1 < kN && svc.connected(0, frontier + 1, ReadMode::kSnapshot)) {
          ++frontier;
        } else if (frontier > 0 && !svc.connected(0, frontier, ReadMode::kSnapshot)) {
          // A snapshot is at least as coarse as any earlier one.
          violation.store(true);
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(violation.load());

  svc.compact_now();
  EXPECT_TRUE(svc.connected(0, kN - 1));
  EXPECT_EQ(svc.component_count(), 1u);
}

// `count` edges over [0, n) from a fixed xorshift64 stream.
std::vector<Edge> xorshift_edges(vertex_t n, std::size_t count) {
  std::vector<Edge> edges(count);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x, n] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<vertex_t>(x % n);
  };
  for (auto& e : edges) e = {next(), next()};
  return edges;
}

// Every epoch is exactly the first `watermark` applied edges: a recorder
// checks each new epoch against a reference union-find advanced to its
// watermark, and against the previous epoch (snapshots may only coarsen).
TEST(ConnectivityService, SnapshotsAreExactPrefixesAndOnlyCoarsen) {
  constexpr vertex_t kN = 1 << 16;
  constexpr std::size_t kEdges = 1 << 18;
  constexpr std::size_t kBatch = 64;
  const std::vector<Edge> edges = xorshift_edges(kN, kEdges);

  ServiceOptions opts;
  ConnectivityService svc(kN, opts);

  std::atomic<bool> done{false};
  std::thread submitter([&] {
    for (std::size_t off = 0; off < kEdges; off += kBatch) {
      const ConnectivityService::EdgeBatch batch(edges.begin() + off,
                                                 edges.begin() + off + kBatch);
      while (svc.submit(batch) == Admission::kShed) std::this_thread::yield();
    }
    svc.compact_now();
    done.store(true, std::memory_order_release);
  });

  IncrementalCC reference(kN);  // advanced to `prefix` edges
  std::size_t prefix = 0;
  const auto check = [&](const Snapshot& snap, const Snapshot& older) -> std::string {
    if (snap.epoch <= older.epoch) return "epoch did not advance";
    if (snap.watermark < prefix || snap.watermark > kEdges) return "watermark out of order";
    if (snap.watermark % kBatch != 0) return "watermark inside a batch";
    for (; prefix < snap.watermark; ++prefix) {
      reference.add_edge(edges[prefix].first, edges[prefix].second);
    }
    if (snap.labels != reference.labels()) return "labels differ from the prefix";
    if (snap.num_components != reference.num_components()) return "component count";
    for (vertex_t v = 0; v < kN; ++v) {
      if (snap.labels[older.labels[v]] != snap.labels[v]) return "splits " + std::to_string(v);
    }
    return {};
  };
  SnapshotPtr prev = svc.snapshot();
  int checked = 0;
  for (bool last = false; !last;) {
    last = done.load(std::memory_order_acquire);
    const SnapshotPtr snap = svc.snapshot();
    if (snap->epoch == prev->epoch) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    const std::string err = check(*snap, *prev);
    if (!err.empty()) {
      ADD_FAILURE() << "epoch " << snap->epoch << " (watermark " << snap->watermark
                    << "): " << err;
      break;
    }
    prev = snap;
    ++checked;
  }
  submitter.join();
  EXPECT_EQ(prev->watermark, kEdges);
  EXPECT_GE(checked, 2);
}

// The prepare shape: compactions only when forced, one per half of the
// stream, so each epoch carries thousands of hooks and the second remaps a
// snapshot that is not the identity. Each snapshot must equal a reference
// union-find at its watermark, and the second must coarsen the first. The
// reference's hook log shows that the second epoch hooks some parent that
// is itself hooked later in the epoch: a chain of hooks, whose child's
// final root is known only once the later hook has been walked, so a remap
// that resolves each hook one level would fail here.
TEST(ConnectivityService, HookHeavyEpochsAreExactPrefixes) {
  constexpr vertex_t kN = 1 << 16;
  constexpr std::size_t kEdges = 1 << 18;
  constexpr std::size_t kBatch = 64;
  const std::vector<Edge> edges = xorshift_edges(kN, kEdges);

  ServiceOptions opts;
  opts.compact_min_new_edges = ~0ull;  // only explicit compactions
  ConnectivityService svc(kN, opts);

  IncrementalCC reference(kN);
  SnapshotPtr prev = svc.snapshot();
  for (std::size_t begin = 0; begin < kEdges; begin += kEdges / 2) {
    const std::size_t end = begin + kEdges / 2;
    for (std::size_t off = begin; off < end; off += kBatch) {
      const ConnectivityService::EdgeBatch batch(edges.begin() + off,
                                                 edges.begin() + off + kBatch);
      while (svc.submit(batch) == Admission::kShed) std::this_thread::yield();
    }
    svc.compact_now();
    const SnapshotPtr snap = svc.snapshot();
    HookLog log;
    reference.add_edges(edges.data() + begin, end - begin, &log);

    ASSERT_EQ(snap->epoch, prev->epoch + 1);
    ASSERT_EQ(snap->watermark, end);
    EXPECT_TRUE(snap->labels == reference.labels()) << "watermark " << end;
    EXPECT_EQ(snap->num_components, reference.num_components());
    EXPECT_EQ(snap->num_components, prev->num_components - log.hooks.size());
    for (vertex_t v = 0; v < kN; ++v) {
      ASSERT_EQ(snap->labels[prev->labels[v]], snap->labels[v]) << "splits " << v;
    }
    if (begin > 0) {
      std::vector<bool> hooked_later(kN);
      bool chained = false;
      for (auto h = log.hooks.rbegin(); h != log.hooks.rend(); ++h) {
        chained = chained || hooked_later[h->parent];
        hooked_later[h->child] = true;
      }
      EXPECT_TRUE(chained) << log.hooks.size() << " hooks, none to a later-hooked parent";
    }
    prev = snap;
  }
}

// ------------------------------------------------------------- protocol ----

std::span<const std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  EXPECT_GE(frame.size(), 4u);
  const std::uint32_t len = static_cast<std::uint32_t>(frame[0]) |
                            static_cast<std::uint32_t>(frame[1]) << 8 |
                            static_cast<std::uint32_t>(frame[2]) << 16 |
                            static_cast<std::uint32_t>(frame[3]) << 24;
  EXPECT_EQ(frame.size(), 4u + len);  // length prefix is exact
  return {frame.data() + 4, len};
}

TEST(Protocol, RequestRoundTripAllTypes) {
  Request in;
  in.type = MsgType::kIngest;
  in.id = 0x1122334455667788ull;
  in.edges = {{1, 2}, {3, 4}, {0xffffffffu, 0}};
  std::vector<std::uint8_t> buf;
  encode_request(in, buf);

  Request out;
  ASSERT_TRUE(decode_request(payload_of(buf), out));
  EXPECT_EQ(out.type, MsgType::kIngest);
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.edges, in.edges);

  for (const MsgType t : {MsgType::kPing, MsgType::kConnected, MsgType::kComponentOf,
                          MsgType::kComponentCount, MsgType::kStats, MsgType::kShutdown}) {
    Request req;
    req.type = t;
    req.id = 42;
    req.u = 7;
    req.v = 9;
    buf.clear();
    encode_request(req, buf);
    Request got;
    ASSERT_TRUE(decode_request(payload_of(buf), got)) << static_cast<int>(t);
    EXPECT_EQ(got.type, t);
    EXPECT_EQ(got.id, 42u);
    if (t == MsgType::kConnected) {
      EXPECT_EQ(got.u, 7u);
      EXPECT_EQ(got.v, 9u);
    }
    if (t == MsgType::kComponentOf) {
      EXPECT_EQ(got.v, 9u);
    }
  }
}

// A read as an older client framed it, ending in a read-mode byte: one
// byte longer than the read, so malformed whatever the byte.
std::vector<std::uint8_t> read_frame_with_mode(MsgType type, std::uint8_t mode) {
  Request req;
  req.type = type;
  req.u = 1;
  req.v = 2;
  std::vector<std::uint8_t> frame;
  encode_request(req, frame);
  frame.push_back(mode);
  const std::uint32_t len = static_cast<std::uint32_t>(frame.size() - 4);
  for (int i = 0; i < 4; ++i) frame[i] = static_cast<std::uint8_t>(len >> (8 * i));
  return frame;
}

TEST(Protocol, ResponseRoundTripCarriesStatsAndStatus) {
  Response in;
  in.type = MsgType::kStats;
  in.id = 99;
  in.status = Status::kOk;
  in.stats.epoch = 3;
  in.stats.watermark = 1000;
  in.stats.applied_edges = 1234;
  in.stats.accepted_batches = 20;
  in.stats.applied_batches = 19;
  in.stats.shed_batches = 2;
  in.stats.queue_depth = 1;
  in.stats.num_components = 77;
  in.stats.num_vertices = 4096;
  std::vector<std::uint8_t> buf;
  encode_response(in, buf);

  Response out;
  ASSERT_TRUE(decode_response(payload_of(buf), out));
  EXPECT_EQ(out.id, 99u);
  EXPECT_EQ(out.status, Status::kOk);
  EXPECT_EQ(out.stats.epoch, 3u);
  EXPECT_EQ(out.stats.applied_edges, 1234u);
  EXPECT_EQ(out.stats.shed_batches, 2u);
  EXPECT_EQ(out.stats.num_vertices, 4096u);

  Response shed;
  shed.type = MsgType::kIngest;
  shed.id = 5;
  shed.status = Status::kShed;
  buf.clear();
  encode_response(shed, buf);
  ASSERT_TRUE(decode_response(payload_of(buf), out));
  EXPECT_EQ(out.status, Status::kShed);
}

// Every ECL_SVC_STATS_FIELDS row, with a pointer to its member.
struct StatsRow {
  std::uint16_t tag;
  const char* member;
  const char* family;
  const char* type;
  std::uint64_t ServiceStats::*field;
};

const std::vector<StatsRow>& stats_rows() {
  static const std::vector<StatsRow> rows = {
#define ECL_TEST_ROW(tag, member, family, type) {tag, #member, family, type, &ServiceStats::member},
      ECL_SVC_STATS_FIELDS(ECL_TEST_ROW)
#undef ECL_TEST_ROW
  };
  return rows;
}

/// A sample with every row set to a distinct value wider than 32 bits.
ServiceStats distinct_stats() {
  ServiceStats s;
  for (const auto& row : stats_rows()) s.*row.field = (std::uint64_t{1} << 40) + row.tag;
  return s;
}

TEST(Protocol, StatsTagsAndFamiliesAreUnique) {
  std::set<std::uint16_t> tags;
  std::set<std::string> families;
  for (const auto& row : stats_rows()) {
    EXPECT_TRUE(tags.insert(row.tag).second) << "duplicate tag " << row.tag;
    EXPECT_TRUE(families.insert(row.family).second) << "duplicate family " << row.family;
    EXPECT_TRUE(std::string(row.type) == "gauge" || std::string(row.type) == "counter")
        << row.member;
  }
}

TEST(Protocol, StatsTaggedRoundTripCarriesEveryField) {
  Response in;
  in.type = MsgType::kStats;
  in.id = 7;
  in.stats = distinct_stats();
  std::vector<std::uint8_t> buf;
  encode_response(in, buf);
  // u32 length | u8 type | u64 id | u8 status | u16 count | rows
  EXPECT_EQ(buf.size(), 4u + 10 + 2 + 10 * stats_rows().size());

  Response out;
  ASSERT_TRUE(decode_response(payload_of(buf), out));
  for (const auto& row : stats_rows()) {
    EXPECT_EQ(out.stats.*row.field, in.stats.*row.field) << row.member;
  }
}

TEST(Protocol, RetiredTypeSevenFailsToDecode) {
  std::vector<std::uint8_t> req(9, 0);  // u8 type | u64 id, empty body
  req[0] = 7;
  Request r;
  EXPECT_FALSE(decode_request(req, r));

  std::vector<std::uint8_t> resp(10, 0);  // ... | u8 status
  resp[0] = 7;
  Response out;
  EXPECT_FALSE(decode_response(resp, out));
  resp.resize(10 + 93);  // with a body of the retired op's size
  EXPECT_FALSE(decode_response(resp, out));
}

TEST(Protocol, PrometheusRenderEmitsEveryRowOnce) {
  std::string out;
  render_prometheus(distinct_stats(), out);
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (auto pos = out.find(needle); pos != std::string::npos;
         pos = out.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("# TYPE ecl_svc_up gauge\necl_svc_up 1\n"), 1u);
  for (const auto& row : stats_rows()) {
    const std::string family = row.family;
    EXPECT_EQ(count("# TYPE " + family + " "), 1u) << family;
    EXPECT_EQ(count("\n" + family + " "), 1u) << family;
    const std::string value = std::to_string((std::uint64_t{1} << 40) + row.tag);
    EXPECT_EQ(count("# TYPE " + family + " " + row.type + "\n" + family + " " + value +
                    "\n"),
              1u)
        << family;
  }
}

// Byte-level builders for hand-rolled stats bodies (a future peer's unknown
// tags and malformed bodies don't exist in this codebase to call).
void push_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void push_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::vector<std::uint8_t> stats_response_header() {
  std::vector<std::uint8_t> p;
  p.push_back(static_cast<std::uint8_t>(MsgType::kStats));
  push_u64(p, 42);  // request id
  p.push_back(static_cast<std::uint8_t>(Status::kOk));
  return p;
}

TEST(Protocol, StatsUnknownTagsAreSkipped) {
  // A future daemon sends a field this build doesn't know: decode keeps the
  // fields it recognizes and ignores the rest.
  std::vector<std::uint8_t> p = stats_response_header();
  push_u16(p, 3);
  push_u16(p, 1);  // epoch
  push_u64(p, 5);
  push_u16(p, 999);  // unknown tag
  push_u64(p, 0xdeadbeef);
  push_u16(p, 17);  // requests_served
  push_u64(p, 77);

  Response out;
  ASSERT_TRUE(decode_response(p, out));
  EXPECT_EQ(out.stats.epoch, 5u);
  EXPECT_EQ(out.stats.requests_served, 77u);
  EXPECT_EQ(out.stats.watermark, 0u);
}

TEST(Protocol, StatsMalformedTaggedBodiesFail) {
  {
    // Count claims two fields but only one is present.
    std::vector<std::uint8_t> p = stats_response_header();
    push_u16(p, 2);
    push_u16(p, 1);  // epoch
    push_u64(p, 5);
    Response out;
    EXPECT_FALSE(decode_response(p, out));
  }
  {
    // Trailing garbage beyond the declared fields.
    std::vector<std::uint8_t> p = stats_response_header();
    push_u16(p, 1);
    push_u16(p, 1);  // epoch
    push_u64(p, 5);
    p.push_back(0xab);
    Response out;
    EXPECT_FALSE(decode_response(p, out));
  }
  {
    // A field count that disagrees with the body length: no fields claimed,
    // one sent.
    std::vector<std::uint8_t> p = stats_response_header();
    push_u16(p, 0);
    push_u16(p, 1);  // epoch
    push_u64(p, 5);
    Response out;
    EXPECT_FALSE(decode_response(p, out));
  }
}

TEST(Protocol, MsgTypeNamesAreStable) {
  EXPECT_STREQ(msg_type_name(MsgType::kPing), "ping");
  EXPECT_STREQ(msg_type_name(MsgType::kIngest), "ingest");
  EXPECT_STREQ(msg_type_name(MsgType::kStats), "stats");
}

TEST(Protocol, RejectsMalformedPayloads) {
  Request req;
  EXPECT_FALSE(decode_request({}, req));  // empty

  // Truncated ingest: claims 2 edges, carries 1.
  Request in;
  in.type = MsgType::kIngest;
  in.edges = {{1, 2}, {3, 4}};
  std::vector<std::uint8_t> buf;
  encode_request(in, buf);
  auto payload = payload_of(buf);
  EXPECT_FALSE(decode_request(payload.subspan(0, payload.size() - 8), req));

  // Unknown type byte.
  std::vector<std::uint8_t> bogus(9, 0);
  bogus[0] = 200;
  EXPECT_FALSE(decode_request(bogus, req));

  // Trailing garbage after a valid ping.
  Request ping;
  buf.clear();
  encode_request(ping, buf);
  std::vector<std::uint8_t> padded(payload_of(buf).begin(), payload_of(buf).end());
  padded.push_back(0);
  EXPECT_FALSE(decode_request(padded, req));

  // A trailing read-mode byte, whatever its value.
  for (const MsgType t : {MsgType::kConnected, MsgType::kComponentOf}) {
    for (const std::uint8_t mode : {0, 1, 2, 7, 255}) {
      EXPECT_FALSE(decode_request(payload_of(read_frame_with_mode(t, mode)), req))
          << static_cast<int>(t) << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(Protocol, RejectsIngestCountBeyondPayload) {
  // A 17-byte payload claiming 2^32-1 edges must fail up front — not
  // attempt a ~32 GiB reserve() and take the process down with bad_alloc.
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(MsgType::kIngest));
  for (int i = 0; i < 8; ++i) payload.push_back(0);     // request id
  for (int i = 0; i < 4; ++i) payload.push_back(0xff);  // count = 0xffffffff
  Request req;
  EXPECT_FALSE(decode_request(payload, req));

  // One edge short of the claim fails too; the exact claim decodes.
  payload[9] = 2;  // count = 2 (little-endian)
  for (int i = 10; i < 13; ++i) payload[i] = 0;
  for (int i = 0; i < 8; ++i) payload.push_back(0);  // one edge, not two
  EXPECT_FALSE(decode_request(payload, req));
  for (int i = 0; i < 8; ++i) payload.push_back(0);
  EXPECT_TRUE(decode_request(payload, req));
  EXPECT_EQ(req.edges.size(), 2u);
}

// ------------------------------------------------------- socket round trip ----

class SvcSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions opts;
    service_ = std::make_unique<ConnectivityService>(kVertices, opts);
    ServerOptions sopts;
    // Unique per process: ctest runs discovered cases in parallel, and
    // listen_unix() unlinks stale paths — a shared name would let one
    // case's server steal another's socket.
    sopts.unix_path =
        ::testing::TempDir() + "ecl_svc_" + std::to_string(::getpid()) + ".sock";
    std::remove(sopts.unix_path.c_str());
    server_ = std::make_unique<Server>(*service_, sopts);
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
    unix_path_ = sopts.unix_path;
  }

  void TearDown() override {
    server_->stop();
    service_->stop();
  }

  static constexpr vertex_t kVertices = 256;
  std::unique_ptr<ConnectivityService> service_;
  std::unique_ptr<Server> server_;
  std::string unix_path_;
};

TEST_F(SvcSocketTest, FullRequestResponseCycle) {
  std::string err;
  auto client = Client::connect_unix(unix_path_, &err);
  ASSERT_NE(client, nullptr) << err;

  EXPECT_TRUE(client->ping());
  EXPECT_EQ(client->ingest({{1, 2}, {2, 3}}), Status::kOk);
  service_->compact_now();

  Status st = Status::kOk;
  EXPECT_TRUE(client->connected(1, 3, ReadMode::kSnapshot, &st));
  EXPECT_EQ(st, Status::kOk);
  EXPECT_FALSE(client->connected(1, 4, ReadMode::kSnapshot, &st));
  EXPECT_EQ(client->component_of(3, &st), 1u);

  // Out-of-range vertices are a definitive kInvalid, not a dropped conn.
  (void)client->connected(1, kVertices + 5, ReadMode::kSnapshot, &st);
  EXPECT_EQ(st, Status::kInvalid);

  std::uint64_t count = 0;
  ASSERT_TRUE(client->component_count(count));
  EXPECT_EQ(count, kVertices - 2);  // {1,2,3} merged

  ServiceStats stats{};
  ASSERT_TRUE(client->stats(stats));
  EXPECT_EQ(stats.num_vertices, kVertices);
  EXPECT_EQ(stats.applied_edges, 2u);
}

TEST_F(SvcSocketTest, ConcurrentClients) {
  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::connect_unix(unix_path_, nullptr);
      if (!client) {
        ++failures;
        return;
      }
      for (vertex_t i = 0; i < 50; ++i) {
        const vertex_t base = static_cast<vertex_t>(c) * 60;
        // kShed is backpressure, not failure — retry like a real client.
        Status ing = Status::kShed;
        while (ing == Status::kShed) {
          ing = client->ingest({{base + i, base + i + 1}});
          if (ing == Status::kShed) std::this_thread::yield();
        }
        if (ing != Status::kOk) ++failures;
        Status st = Status::kOk;
        (void)client->connected(base, base + i, ReadMode::kSnapshot, &st);
        if (st != Status::kOk) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  service_->compact_now();
  for (int c = 0; c < kClients; ++c) {
    const vertex_t base = static_cast<vertex_t>(c) * 60;
    EXPECT_TRUE(service_->connected(base, base + 50));
  }
}

TEST_F(SvcSocketTest, MalformedFrameGetsInvalidResponse) {
  // Hand-rolled client: send a frame whose payload is garbage.
  std::string err;
  auto client = Client::connect_unix(unix_path_, &err);
  ASSERT_NE(client, nullptr) << err;
  // The typed client cannot emit garbage; instead check the server stays up
  // after a normal request (regression guard for the dispatch path) and that
  // a fresh client still works after another client disconnects abruptly.
  EXPECT_TRUE(client->ping());
  client.reset();  // abrupt close
  auto client2 = Client::connect_unix(unix_path_, &err);
  ASSERT_NE(client2, nullptr) << err;
  EXPECT_TRUE(client2->ping());
}

TEST_F(SvcSocketTest, HostileIngestCountDoesNotKillServer) {
  std::string err;
  const int fd = net::connect_unix(unix_path_, &err);
  ASSERT_GE(fd, 0) << err;
  // A well-framed 13-byte kIngest payload claiming 2^32-1 edges: the server
  // must answer kInvalid and survive, not die in a ~32 GiB reserve().
  std::vector<std::uint8_t> frame = {13, 0, 0, 0,  // payload length
                                     static_cast<std::uint8_t>(MsgType::kIngest)};
  for (int i = 0; i < 8; ++i) frame.push_back(0);     // request id
  for (int i = 0; i < 4; ++i) frame.push_back(0xff);  // edge count
  ASSERT_TRUE(net::write_frame(fd, frame));
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(net::read_frame(fd, payload));
  Response resp;
  ASSERT_TRUE(decode_response(payload, resp));
  EXPECT_EQ(resp.status, Status::kInvalid);
  ::close(fd);

  // The daemon is still serving.
  auto client = Client::connect_unix(unix_path_, &err);
  ASSERT_NE(client, nullptr) << err;
  EXPECT_TRUE(client->ping());
}

TEST_F(SvcSocketTest, NonSnapshotModeByteAnswersInvalidAndCloses) {
  // An older client's reads, the snapshot mode byte 0 included.
  std::string err;
  for (const MsgType t : {MsgType::kConnected, MsgType::kComponentOf}) {
    for (const std::uint8_t mode : {0, 1}) {
      const int fd = net::connect_unix(unix_path_, &err);
      ASSERT_GE(fd, 0) << err;
      const std::vector<std::uint8_t> frame = read_frame_with_mode(t, mode);
      ASSERT_TRUE(net::write_full(fd, frame.data(), frame.size()));
      std::vector<std::uint8_t> payload;
      ASSERT_TRUE(net::read_frame(fd, payload));
      Response resp;
      ASSERT_TRUE(decode_response(payload, resp));
      EXPECT_EQ(resp.status, Status::kInvalid)
          << static_cast<int>(t) << " mode " << static_cast<int>(mode);
      EXPECT_FALSE(net::read_frame(fd, payload)) << "the connection stays open";
      ::close(fd);
    }
  }
}

TEST_F(SvcSocketTest, OversizedIngestBatchRejectedClientSide) {
  std::string err;
  auto client = Client::connect_unix(unix_path_, &err);
  ASSERT_NE(client, nullptr) << err;
  const std::vector<Edge> too_big(kMaxIngestEdges + 1, {0, 1});
  EXPECT_EQ(client->ingest(too_big), Status::kInvalid);
  EXPECT_TRUE(client->ping());  // the connection was never touched
}

TEST_F(SvcSocketTest, FinishedConnectionsAreReaped) {
  std::string err;
  for (int i = 0; i < 8; ++i) {
    auto client = Client::connect_unix(unix_path_, &err);
    ASSERT_NE(client, nullptr) << err;
    EXPECT_TRUE(client->ping());
  }
  // Each loop closes a connection once it reads the client's EOF; a
  // long-running daemon must not accumulate connections.
  std::uint64_t live = server_->conn_stats().open_connections;
  for (int tries = 0; tries < 150 && live > 0; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    live = server_->conn_stats().open_connections;
  }
  EXPECT_EQ(live, 0u);
}

TEST_F(SvcSocketTest, PipelinedRequestsAnswerInOrder) {
  // One connection, many requests written back to back before any response
  // is read: the event loop must deliver every response, in request order,
  // with the caller's ids preserved.
  std::string err;
  const int fd = net::connect_unix(unix_path_, &err);
  ASSERT_GE(fd, 0) << err;

  constexpr int kRequests = 16;
  std::vector<MsgType> types;
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.id = 100 + static_cast<std::uint64_t>(i);
    switch (i % 3) {
      case 0:
        req.type = MsgType::kPing;
        break;
      case 1:
        req.type = MsgType::kComponentCount;
        break;
      default:
        req.type = MsgType::kConnected;
        req.u = 1;
        req.v = 2;
        break;
    }
    types.push_back(req.type);
    encode_request(req, burst);  // appends a complete frame
  }
  ASSERT_TRUE(net::write_full(fd, burst.data(), burst.size()));

  for (int i = 0; i < kRequests; ++i) {
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(net::read_frame(fd, payload)) << "response " << i;
    Response resp;
    ASSERT_TRUE(decode_response(payload, resp)) << "response " << i;
    EXPECT_EQ(resp.id, 100 + static_cast<std::uint64_t>(i));
    EXPECT_EQ(resp.type, types[static_cast<std::size_t>(i)]);
    EXPECT_EQ(resp.status, Status::kOk);
  }
  ::close(fd);
}

// Backpressure: a dedicated fixture with a tiny server-side SO_SNDBUF and a
// short write-stall bound, so a deliberately-unread client trips the
// pause -> stall -> evict ladder with kilobytes instead of the production
// defaults' tens of megabytes.
class SvcBackpressureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions opts;
    service_ = std::make_unique<ConnectivityService>(256, opts);
    ServerOptions sopts;
    sopts.unix_path = ::testing::TempDir() + "ecl_svc_bp_" +
                      std::to_string(::getpid()) + ".sock";
    std::remove(sopts.unix_path.c_str());
    sopts.sndbuf_bytes = 4096;
    sopts.write_buffer_pause = 8192;
    sopts.write_buffer_limit = 1u << 20;
    sopts.send_timeout_ms = 200;   // write-stall eviction bound
    sopts.frame_timeout_ms = 1000;
    server_ = std::make_unique<Server>(*service_, sopts);
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
    unix_path_ = sopts.unix_path;
  }

  void TearDown() override {
    server_->stop();
    service_->stop();
  }

  std::unique_ptr<ConnectivityService> service_;
  std::unique_ptr<Server> server_;
  std::string unix_path_;
};

TEST_F(SvcBackpressureTest, UnreadClientIsEvictedNotServedForever) {
  std::string err;
  const int fd = net::connect_unix(unix_path_, &err);
  ASSERT_GE(fd, 0) << err;

  // Pipeline kStats requests (responses are ~250 bytes each) and never read
  // a byte back. Non-blocking sends: once the server pauses reading, our
  // own socket fills and EAGAIN is expected — by then the server's write
  // buffer is past the pause threshold and the stall clock is running.
  std::vector<std::uint8_t> frame;
  std::size_t sent_requests = 0;
  for (int i = 0; i < 2000; ++i) {
    Request req;
    req.type = MsgType::kStats;
    req.id = static_cast<std::uint64_t>(i);
    frame.clear();
    encode_request(req, frame);
    const ssize_t n = ::send(fd, frame.data(), frame.size(), MSG_DONTWAIT);
    if (n < 0) {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << strerror(errno);
      break;  // our send buffer is full: the server has stopped reading
    }
    ++sent_requests;
  }
  ASSERT_GT(sent_requests, 0u);

  // Never reading drives the ladder to eviction within send_timeout_ms.
  ServiceStats cs = server_->conn_stats();
  for (int tries = 0; tries < 250 && cs.evicted_backpressure == 0; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cs = server_->conn_stats();
  }
  EXPECT_GE(cs.evicted_backpressure, 1u);
  ::close(fd);

  // The eviction was surgical: a fresh, well-behaved client is served.
  auto client = Client::connect_unix(unix_path_, &err);
  ASSERT_NE(client, nullptr) << err;
  EXPECT_TRUE(client->ping());

  // And the kStats wire fields report the eviction.
  ServiceStats stats{};
  ASSERT_TRUE(client->stats(stats));
  EXPECT_GE(stats.evicted_backpressure, 1u);
}

}  // namespace
}  // namespace ecl::svc
