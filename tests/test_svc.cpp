// Tests for ecl::svc — the batched connectivity query service: the bounded
// admission queue, snapshot consistency across compactions, backpressure
// (shed, never block or drop), graceful drain-and-shutdown, a multithreaded
// linearizability smoke, the wire protocol, and an end-to-end socket test
// against a live Server.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "graph/builder.h"
#include "svc/client.h"
#include "svc/net.h"
#include "svc/protocol.h"
#include "svc/queue.h"
#include "svc/server.h"
#include "svc/service.h"

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
  opts.compact_interval_ms = 3600 * 1000;  // only explicit compactions
  opts.compact_min_new_edges = ~0ull;
  ConnectivityService svc(10, opts);

  ASSERT_EQ(svc.submit({{0, 1}, {1, 2}}), Admission::kAccepted);
  const std::uint64_t epoch = svc.compact_now();
  EXPECT_GE(epoch, 1u);

  // The snapshot reflects everything accepted before compact_now()...
  EXPECT_TRUE(svc.connected(0, 2, ReadMode::kSnapshot));
  EXPECT_EQ(svc.component_of(2, ReadMode::kSnapshot), 0u);  // canonical min-ID
  EXPECT_EQ(svc.component_count(), 8u);                     // {0,1,2} + 7 singletons

  // ...but edges applied after it are only visible to kFresh reads.
  ASSERT_EQ(svc.submit({{2, 3}}), Admission::kAccepted);
  svc.flush();
  EXPECT_FALSE(svc.connected(0, 3, ReadMode::kSnapshot));
  EXPECT_TRUE(svc.connected(0, 3, ReadMode::kFresh));

  const std::uint64_t epoch2 = svc.compact_now();
  EXPECT_GT(epoch2, epoch);
  EXPECT_TRUE(svc.connected(0, 3, ReadMode::kSnapshot));
}

TEST(ConnectivityService, SnapshotPinsItsEpoch) {
  ServiceOptions opts;
  opts.compact_interval_ms = 3600 * 1000;
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
  const Graph g = build_graph(4, {{0, 1}, {1, 2}});
  ConnectivityService svc(g);
  EXPECT_TRUE(svc.connected(0, 2));
  EXPECT_FALSE(svc.connected(0, 3));
  EXPECT_EQ(svc.component_count(), 2u);
  EXPECT_GT(svc.stats().watermark, 0u);  // seed edges are pre-applied
}

TEST(ConnectivityService, OutOfRangeVerticesAreSafe) {
  ConnectivityService svc(4);
  EXPECT_FALSE(svc.connected(0, 99));
  EXPECT_FALSE(svc.connected(99, 100, ReadMode::kFresh));
  EXPECT_EQ(svc.component_of(99), kInvalidVertex);
  // A batch mixing valid and invalid edges applies only the valid ones.
  ASSERT_EQ(svc.submit({{0, 1}, {2, 99}, {100, 101}}), Admission::kAccepted);
  svc.compact_now();
  EXPECT_TRUE(svc.connected(0, 1));
  EXPECT_FALSE(svc.connected(2, 3));
  EXPECT_EQ(svc.stats().applied_edges, 1u);
}

TEST(ConnectivityService, BackpressureShedsInsteadOfBlocking) {
  ServiceOptions opts;
  opts.queue_capacity = 2;
  opts.ingest_delay_us = 2000;  // slow consumer → queue fills
  opts.compact_interval_ms = 3600 * 1000;
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
  ServiceOptions opts;
  opts.queue_capacity = 64;
  opts.ingest_delay_us = 500;  // keep batches in flight at stop() time
  opts.compact_interval_ms = 3600 * 1000;
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
  opts.compact_interval_ms = 1;  // aggressive snapshot churn
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
    readers.emplace_back([&, r] {
      const ReadMode mode = r == 0 ? ReadMode::kFresh : ReadMode::kSnapshot;
      // frontier = highest vertex seen connected to 0 so far; connectivity
      // along the path 0-1-2-... may never regress below it.
      vertex_t frontier = 0;
      while (!writer_done.load(std::memory_order_acquire)) {
        if (frontier + 1 < kN && svc.connected(0, frontier + 1, mode)) {
          ++frontier;
        } else if (frontier > 0 && !svc.connected(0, frontier, ReadMode::kFresh)) {
          // kFresh is at least as fresh as any earlier observation.
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

// Snapshot exactness: compaction copies the live union-find between
// batches, so every published snapshot is exactly the components of the
// first `watermark` applied edges — never a torn mix. One submitter streams
// random edges (queue order = apply order), a kFresh reader keeps path
// halving running during the copies, and a recorder checks each new epoch
// against a reference union-find advanced to that watermark, and against
// the previous epoch (snapshots may only coarsen).
TEST(ConnectivityService, SnapshotsAreExactPrefixesAndOnlyCoarsen) {
  constexpr vertex_t kN = 1 << 16;
  constexpr std::size_t kEdges = 1 << 18;
  constexpr std::size_t kBatch = 64;
  std::vector<Edge> edges(kEdges);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<vertex_t>(x % kN);
  };
  for (auto& e : edges) e = {next(), next()};

  ServiceOptions opts;
  opts.compact_interval_ms = 1;
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
  std::thread fresh_reader([&] {
    vertex_t v = 0;
    while (!done.load(std::memory_order_acquire)) {
      (void)svc.component_of(v, ReadMode::kFresh);
      v = (v + 7919) % kN;
    }
  });

  IncrementalCC ref(kN);
  std::size_t ref_edges = 0;
  const auto check = [&](const Snapshot& snap, const Snapshot& older) -> std::string {
    if (snap.epoch <= older.epoch) return "epoch did not advance";
    if (snap.watermark < ref_edges || snap.watermark > kEdges) return "watermark out of order";
    for (; ref_edges < snap.watermark; ++ref_edges) {
      ref.add_edge(edges[ref_edges].first, edges[ref_edges].second);
    }
    const std::vector<vertex_t> want = ref.labels();
    for (vertex_t v = 0; v < kN; ++v) {
      if (snap.labels[v] != want[v]) return "label differs from the prefix at " + std::to_string(v);
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
  fresh_reader.join();
  EXPECT_EQ(prev->watermark, kEdges);
  EXPECT_GE(checked, 2);
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
    req.mode = ReadMode::kFresh;
    buf.clear();
    encode_request(req, buf);
    Request got;
    ASSERT_TRUE(decode_request(payload_of(buf), got)) << static_cast<int>(t);
    EXPECT_EQ(got.type, t);
    EXPECT_EQ(got.id, 42u);
    if (t == MsgType::kConnected) {
      EXPECT_EQ(got.u, 7u);
      EXPECT_EQ(got.v, 9u);
      EXPECT_EQ(got.mode, ReadMode::kFresh);
    }
    if (t == MsgType::kComponentOf) {
      EXPECT_EQ(got.v, 9u);
      EXPECT_EQ(got.mode, ReadMode::kFresh);
    }
  }
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
  // u32 length | u8 type | u64 id | u8 status | u8 format | u16 count | rows
  EXPECT_EQ(buf.size(), 4u + 10 + 3 + 10 * stats_rows().size());

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
  p.push_back(kStatsTaggedFormat);
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
    p.push_back(kStatsTaggedFormat);
    push_u16(p, 2);
    push_u16(p, 1);  // epoch
    push_u64(p, 5);
    Response out;
    EXPECT_FALSE(decode_response(p, out));
  }
  {
    // Trailing garbage beyond the declared fields.
    std::vector<std::uint8_t> p = stats_response_header();
    p.push_back(kStatsTaggedFormat);
    push_u16(p, 1);
    push_u16(p, 1);  // epoch
    push_u64(p, 5);
    p.push_back(0xab);
    Response out;
    EXPECT_FALSE(decode_response(p, out));
  }
  {
    // Unknown format byte.
    std::vector<std::uint8_t> p = stats_response_header();
    p.push_back(kStatsTaggedFormat + 1);
    push_u16(p, 0);
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

  // Bad read-mode byte.
  Request conn;
  conn.type = MsgType::kConnected;
  buf.clear();
  encode_request(conn, buf);
  std::vector<std::uint8_t> bad_mode(payload_of(buf).begin(), payload_of(buf).end());
  bad_mode.back() = 7;
  EXPECT_FALSE(decode_request(bad_mode, req));
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
    opts.compact_interval_ms = 5;
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
  EXPECT_EQ(client->component_of(3, ReadMode::kSnapshot, &st), 1u);

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
        (void)client->connected(base, base + i, ReadMode::kFresh, &st);
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
  // The accept loop joins finished handlers on its next wakeups (its poll
  // timeout is 200ms); a long-running daemon must not accumulate threads.
  std::size_t live = server_->active_connections();
  for (int tries = 0; tries < 150 && live > 0; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    live = server_->active_connections();
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
        req.mode = ReadMode::kFresh;
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
    opts.compact_interval_ms = 5;
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
