// Tests for the ecl::obs observability layer: metrics registry semantics
// (including under OpenMP threads), trace well-formedness, run reports, and
// the invariant that instrumentation never changes algorithm results.
#include <gtest/gtest.h>
#include <omp.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ecl_cc.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace ecl {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON well-formedness checker, so the trace and
// report tests validate real syntax instead of grepping for substrings.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control char
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          if (pos_ + 4 >= s_.size()) return false;
          for (int i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) return false;
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(e) == std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::string temp_path(const std::string& leaf) {
  return (std::filesystem::temp_directory_path() / leaf).string();
}

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriter, NestedStructureIsValid) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("a");
  w.value(std::uint64_t{42});
  w.key("b");
  w.begin_array();
  w.value(1.5);
  w.value(std::string_view("x"));
  w.value(true);
  w.null();
  w.begin_object();
  w.end_object();
  w.end_array();
  w.key("c");
  w.value(std::int64_t{-7});
  w.end_object();
  const std::string out = os.str();
  EXPECT_TRUE(JsonChecker(out).valid()) << out;
  EXPECT_EQ(out, R"({"a":42,"b":[1.5,"x",true,null,{}],"c":-7})");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("k\"ey");
  w.value(std::string_view("a\\b\n\t\x01z"));
  w.end_object();
  const std::string out = os.str();
  EXPECT_TRUE(JsonChecker(out).valid()) << out;
  EXPECT_NE(out.find(R"(\n)"), std::string::npos);
  EXPECT_NE(out.find(R"(\u0001)"), std::string::npos);
  EXPECT_NE(out.find(R"(k\"ey)"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

// ---------------------------------------------------------------------------
// Metrics

TEST(ObsCounter, AddAndReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ConcurrentAddsAreExact) {
  obs::Counter c;
  constexpr int kPerThread = 100000;
  const int threads = std::max(2, omp_get_max_threads());
#pragma omp parallel num_threads(threads)
  {
#pragma omp for
    for (int i = 0; i < threads * kPerThread; ++i) {
      c.add();
    }
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(threads) * kPerThread);
}

TEST(ObsGauge, SetOverwrites) {
  obs::Gauge g;
  g.set(1.5);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, BucketSemantics) {
  obs::Histogram h({1, 2, 4});
  // Bucket i counts samples <= bounds[i] not claimed by an earlier bucket;
  // the implicit overflow bucket (UINT64_MAX) catches the rest.
  for (const std::uint64_t s : {0u, 1u, 2u, 3u, 4u, 5u, 100u}) h.record(s);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 5 + 100);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.average(), 115.0 / 7.0);
  EXPECT_EQ(h.bounds(), (std::vector<std::uint64_t>{1, 2, 4, ~std::uint64_t{0}}));
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 1, 2, 2}));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

TEST(ObsHistogram, Pow2Bounds) {
  EXPECT_EQ(obs::Histogram::pow2_bounds(4), (std::vector<std::uint64_t>{1, 2, 4, 8}));
}

TEST(ObsHistogram, ConcurrentRecordsPreserveCountSumMax) {
  obs::Histogram h(obs::Histogram::pow2_bounds(10));
  constexpr int kSamples = 200000;
#pragma omp parallel for
  for (int i = 0; i < kSamples; ++i) {
    h.record(static_cast<std::uint64_t>(i % 1000));
  }
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kSamples));
  EXPECT_EQ(h.max(), 999u);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : h.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsHistogram, PercentileOfEmptyIsZero) {
  obs::Histogram h({1, 2, 4});
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(ObsHistogram, PercentileInterpolatesWithinBuckets) {
  obs::Histogram h({10, 20});
  for (int i = 0; i < 10; ++i) h.record(5);   // bucket (0, 10]
  for (int i = 0; i < 10; ++i) h.record(15);  // bucket (10, 20]
  // The 50th percentile sits exactly at the first bucket's upper edge;
  // the 75th is halfway through the second bucket.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 15.0);
  // Estimates never exceed the observed maximum, even at q=1.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 15.0);
}

TEST(ObsHistogram, PercentilesAreMonotoneAndBounded) {
  obs::Histogram h(obs::Histogram::pow2_bounds(20));
  for (std::uint64_t i = 1; i <= 10000; ++i) h.record(i);
  const double p50 = h.percentile(0.50);
  const double p95 = h.percentile(0.95);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  // With pow2 buckets the estimate is within one bucket of the truth.
  EXPECT_GE(p50, 4096.0);   // true p50 = 5000, bucket (4096, 8192]
  EXPECT_LE(p50, 8192.0);
  EXPECT_GE(p99, 8192.0);   // true p99 = 9900, bucket (8192, 16384]
}

TEST(ObsHistogram, OverflowBucketPercentileUsesObservedMax) {
  obs::Histogram h({10});
  h.record(1000);  // lands in the unbounded overflow bucket
  h.record(2000);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 2000.0);
  EXPECT_LE(h.percentile(0.5), 2000.0);
}

TEST(ObsRegistry, SnapshotCarriesPercentiles) {
  obs::Histogram& h =
      obs::registry().histogram("test.obs.percentile_snapshot", {10, 20, 40});
  h.reset();
  for (int i = 0; i < 100; ++i) h.record(static_cast<std::uint64_t>(i % 40) + 1);
  bool found = false;
  for (const auto& m : obs::registry().snapshot()) {
    if (m.name != "test.obs.percentile_snapshot") continue;
    found = true;
    EXPECT_EQ(m.kind, obs::MetricSnapshot::Kind::kHistogram);
    EXPECT_GT(m.p50, 0.0);
    EXPECT_LE(m.p50, m.p95);
    EXPECT_LE(m.p95, m.p99);
    EXPECT_LE(m.p99, 40.0);
  }
  EXPECT_TRUE(found);
}

TEST(ObsRegistry, HistogramSnapshotCountIsItsBucketTotalUnderConcurrentRecords) {
  // A scrape during ingest: the exposition's _count must equal its +Inf
  // bucket even while another thread records into the histogram.
  obs::Histogram& h = obs::registry().histogram("test.obs.racing_snapshot", {10, 20});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) h.record(i % 30);
  });
  int mismatches = 0;
  for (int round = 0; round < 2000; ++round) {
    for (const auto& m : obs::registry().snapshot()) {
      if (m.name != "test.obs.racing_snapshot") continue;
      std::uint64_t total = 0;
      for (const auto& [bound, n] : m.buckets) total += n;
      if (total != m.count) ++mismatches;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(mismatches, 0);
}

TEST(ObsRegistry, LookupsReturnSameInstance) {
  obs::Counter& a = obs::registry().counter("test.obs.same_instance");
  obs::Counter& b = obs::registry().counter("test.obs.same_instance");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 = obs::registry().histogram("test.obs.hist", {1, 2});
  // Bounds of a later lookup are ignored; the first registration wins.
  obs::Histogram& h2 = obs::registry().histogram("test.obs.hist", {7});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<std::uint64_t>{1, 2, ~std::uint64_t{0}}));
}

TEST(ObsRegistry, SnapshotIsSortedAndTyped) {
  obs::registry().counter("test.snap.counter").add(3);
  obs::registry().gauge("test.snap.gauge").set(2.5);
  obs::registry().histogram("test.snap.hist", {10}).record(4);
  const auto snap = obs::registry().snapshot();
  ASSERT_GE(snap.size(), 3u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const auto& m : snap) {
    if (m.name == "test.snap.counter") {
      saw_counter = true;
      EXPECT_EQ(m.kind, obs::MetricSnapshot::Kind::kCounter);
      EXPECT_GE(m.count, 3u);
    } else if (m.name == "test.snap.gauge") {
      saw_gauge = true;
      EXPECT_EQ(m.kind, obs::MetricSnapshot::Kind::kGauge);
      EXPECT_DOUBLE_EQ(m.value, 2.5);
    } else if (m.name == "test.snap.hist") {
      saw_hist = true;
      EXPECT_EQ(m.kind, obs::MetricSnapshot::Kind::kHistogram);
      ASSERT_FALSE(m.buckets.empty());
      EXPECT_EQ(m.buckets.back().first, ~std::uint64_t{0});
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);
}

TEST(ObsMacros, RecordThroughRegistry) {
  obs::registry().counter("test.macro.counter").reset();
  for (int i = 0; i < 5; ++i) {
    ECL_OBS_COUNTER_ADD("test.macro.counter", 2);
  }
  ECL_OBS_GAUGE_SET("test.macro.gauge", 7.0);
#if defined(ECL_OBS_DISABLED)
  EXPECT_EQ(obs::registry().counter("test.macro.counter").value(), 0u);
#else
  EXPECT_EQ(obs::registry().counter("test.macro.counter").value(), 10u);
  EXPECT_DOUBLE_EQ(obs::registry().gauge("test.macro.gauge").value(), 7.0);
#endif
}

// ---------------------------------------------------------------------------
// Tracing

TEST(ObsTrace, SpansAreInactiveWhenTracerDisabled) {
  ASSERT_FALSE(obs::Tracer::instance().enabled());
  const std::size_t before = obs::Tracer::instance().event_count();
  {
    obs::Span span("test.disabled", "test");
    EXPECT_FALSE(span.active());
    span.arg("k", 1.0);  // must be a safe no-op
  }
  EXPECT_EQ(obs::Tracer::instance().event_count(), before);
}

TEST(ObsTrace, WritesWellFormedBalancedTrace) {
  auto& tracer = obs::Tracer::instance();
  const std::string path = temp_path("ecl_obs_test_trace.json");
  ASSERT_TRUE(tracer.start(path));
  {
    obs::Span outer("test.outer", "test-cat");
    outer.arg("graph", std::string_view("needs \"escaping\""));
    outer.arg("n", std::uint64_t{42});
    {
      obs::Span inner("test.inner", "test-cat");
      inner.arg("rate", 0.5);
    }
  }
  EXPECT_EQ(tracer.event_count(), 2u);

  std::ostringstream os;
  tracer.write(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("test.outer"), std::string::npos);
  EXPECT_NE(json.find("test.inner"), std::string::npos);
  // Complete events only: every event carries both a ts and a dur, so the
  // trace is balanced by construction.
  std::size_t ts = 0, dur = 0;
  for (std::size_t p = json.find("\"ts\""); p != std::string::npos;
       p = json.find("\"ts\"", p + 1)) {
    ++ts;
  }
  for (std::size_t p = json.find("\"dur\""); p != std::string::npos;
       p = json.find("\"dur\"", p + 1)) {
    ++dur;
  }
  EXPECT_EQ(ts, 2u);
  EXPECT_EQ(dur, 2u);

  ASSERT_TRUE(tracer.stop());
  EXPECT_FALSE(tracer.enabled());
  std::ifstream in(path);
  std::stringstream file;
  file << in.rdbuf();
  EXPECT_TRUE(JsonChecker(file.str()).valid());
  std::filesystem::remove(path);
}

TEST(ObsTrace, StopCreatesParentDirectories) {
  auto& tracer = obs::Tracer::instance();
  const std::string dir = temp_path("ecl_obs_trace_nested");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(tracer.start(dir + "/deep/trace.json"));
  { obs::Span span("test.nested", "test"); }
  ASSERT_TRUE(tracer.stop());
  EXPECT_TRUE(std::filesystem::exists(dir + "/deep/trace.json"));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Instrumentation must not change results.

TEST(ObsInstrumentation, LabelsUnchangedByRecorders) {
  const std::uint64_t seeds[] = {1, 7, 42};
  for (const std::uint64_t seed : seeds) {
    const Graph g = gen_rmat(10, 8, RmatParams{}, seed);
    const auto serial = ecl_cc_serial(g);
    const auto omp = ecl_cc_omp(g);
    // The path-length run attaches the full recorder + registry histogram to
    // the same algorithm; its labels must match the production runs'.
    (void)ecl_cc_path_lengths(g);
    const auto serial_again = ecl_cc_serial(g);
    EXPECT_EQ(serial, serial_again) << "seed " << seed;
    EXPECT_EQ(serial, omp) << "seed " << seed;
  }
}

TEST(ObsInstrumentation, PathLengthReportMatchesManualRecorder) {
  const Graph g = gen_small_world(2000, 6, 0.1, 99);
  const EclOptions opts;

  // Legacy-style manual computation: init + instrumented compute phase.
  std::vector<vertex_t> parent(g.num_vertices());
  SerialParentOps ops(parent.data());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    parent[v] = detail::initial_parent(g, opts.init, v);
  }
  PathLengthRecorder rec;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    detail::compute_vertex(g, opts.jump, v, ops, &rec);
  }

  const PathLengthReport report = ecl_cc_path_lengths(g, opts);
  EXPECT_EQ(report.num_finds, rec.num_finds);
  EXPECT_EQ(report.maximum_length, rec.max_length);
  EXPECT_DOUBLE_EQ(report.average_length, rec.average());
}

TEST(ObsInstrumentation, ComputeCountersPopulated) {
  obs::registry().reset();
  const Graph g = gen_kronecker(12, 12, 5);
  (void)ecl_cc_omp(g);
#if defined(ECL_OBS_DISABLED)
  EXPECT_EQ(obs::registry().counter("ecl.find.finds").value(), 0u);
#else
  // One find per vertex plus one per processed (v > u) edge.
  EXPECT_GT(obs::registry().counter("ecl.find.finds").value(), g.num_vertices());
  // Kronecker graphs leave many vertices without a smaller neighbor, so the
  // compute phase must perform actual hooks.
  EXPECT_GT(obs::registry().counter("ecl.hook.hooks_performed").value(), 0u);
#endif
}

// ---------------------------------------------------------------------------
// percentile_from_buckets — the shared estimator's defined edge cases
// (Histogram::percentile and the windowed TimeSeries both delegate here).

TEST(PercentileFromBuckets, EmptyDistributionIsZero) {
  const std::vector<std::uint64_t> bounds{10, 20, ~std::uint64_t{0}};
  const std::vector<std::uint64_t> counts{0, 0, 0};
  EXPECT_DOUBLE_EQ(obs::percentile_from_buckets(bounds, counts, 0.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(obs::percentile_from_buckets(bounds, counts, 0.5, 0), 0.0);
  EXPECT_DOUBLE_EQ(obs::percentile_from_buckets(bounds, counts, 1.0, 0), 0.0);
}

TEST(PercentileFromBuckets, SingleSampleIsTheObservedMax) {
  const std::vector<std::uint64_t> bounds{10, ~std::uint64_t{0}};
  const std::vector<std::uint64_t> counts{1, 0};
  // One sample: every quantile is that sample, and count/sum/max tracking
  // knows it exactly — no interpolation guesswork.
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(obs::percentile_from_buckets(bounds, counts, q, 7), 7.0) << q;
  }
}

TEST(PercentileFromBuckets, QuantileIsClampedToUnitInterval) {
  const std::vector<std::uint64_t> bounds{10, ~std::uint64_t{0}};
  const std::vector<std::uint64_t> counts{4, 0};
  const double at_zero = obs::percentile_from_buckets(bounds, counts, 0.0, 9);
  const double at_one = obs::percentile_from_buckets(bounds, counts, 1.0, 9);
  EXPECT_DOUBLE_EQ(obs::percentile_from_buckets(bounds, counts, -3.0, 9), at_zero);
  EXPECT_DOUBLE_EQ(obs::percentile_from_buckets(bounds, counts, 42.0, 9), at_one);
}

TEST(PercentileFromBuckets, AllSamplesInOverflowInterpolateToObservedMax) {
  // Every sample beyond the largest finite bound: the overflow bucket's
  // missing upper edge is stood in by the observed max, so estimates stay
  // inside [largest finite bound, observed max].
  const std::vector<std::uint64_t> bounds{10, ~std::uint64_t{0}};
  const std::vector<std::uint64_t> counts{0, 4};
  const double p50 = obs::percentile_from_buckets(bounds, counts, 0.5, 100);
  const double p100 = obs::percentile_from_buckets(bounds, counts, 1.0, 100);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_DOUBLE_EQ(p100, 100.0);
}

TEST(PercentileFromBuckets, EstimateNeverExceedsObservedMax) {
  const std::vector<std::uint64_t> bounds{100, ~std::uint64_t{0}};
  const std::vector<std::uint64_t> counts{10, 0};
  // All ten samples were really 3; interpolation inside (0, 100] would claim
  // more, but the clamp to the observed max keeps the estimate honest.
  EXPECT_DOUBLE_EQ(obs::percentile_from_buckets(bounds, counts, 0.99, 3), 3.0);
}

// ---------------------------------------------------------------------------
// TimeSeries — sliding windows over registry snapshots

obs::MetricSnapshot make_counter_snap(const std::string& name, std::uint64_t v) {
  obs::MetricSnapshot m;
  m.name = name;
  m.kind = obs::MetricSnapshot::Kind::kCounter;
  m.count = v;
  return m;
}

obs::MetricSnapshot make_gauge_snap(const std::string& name, double v) {
  obs::MetricSnapshot m;
  m.name = name;
  m.kind = obs::MetricSnapshot::Kind::kGauge;
  m.value = v;
  return m;
}

obs::MetricSnapshot make_hist_snap(const std::string& name,
                                   std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets,
                                   std::uint64_t sum, std::uint64_t max) {
  obs::MetricSnapshot m;
  m.name = name;
  m.kind = obs::MetricSnapshot::Kind::kHistogram;
  m.buckets = std::move(buckets);
  for (const auto& [bound, count] : m.buckets) m.count += count;
  m.sum = sum;
  m.max = max;
  return m;
}

TEST(ObsTimeSeries, SingleSampleIsNotAValidWindow) {
  obs::TimeSeries ts(8);
  ts.sample({make_counter_snap("c", 10)}, 0);
  obs::WindowStats w;
  ASSERT_TRUE(ts.lookup("c", w));
  EXPECT_FALSE(w.valid);
  EXPECT_FALSE(ts.lookup("never.sampled", w));
}

TEST(ObsTimeSeries, CounterDeltaAndRate) {
  obs::TimeSeries ts(8);
  ts.sample({make_counter_snap("c", 100)}, 0);
  ts.sample({make_counter_snap("c", 350)}, 2000);
  obs::WindowStats w;
  ASSERT_TRUE(ts.lookup("c", w));
  EXPECT_TRUE(w.valid);
  EXPECT_EQ(w.kind, obs::MetricSnapshot::Kind::kCounter);
  EXPECT_EQ(w.delta, 250u);
  EXPECT_DOUBLE_EQ(w.window_s, 2.0);
  EXPECT_DOUBLE_EQ(w.rate_per_s, 125.0);
}

TEST(ObsTimeSeries, RegistryResetClampsDeltaToZero) {
  obs::TimeSeries ts(8);
  ts.sample({make_counter_snap("c", 100)}, 0);
  ts.sample({make_counter_snap("c", 40)}, 1000);  // reset() mid-window
  obs::WindowStats w;
  ASSERT_TRUE(ts.lookup("c", w));
  EXPECT_EQ(w.delta, 0u);
  EXPECT_DOUBLE_EQ(w.rate_per_s, 0.0);
}

TEST(ObsTimeSeries, GaugeReportsNewestValue) {
  obs::TimeSeries ts(8);
  ts.sample({make_gauge_snap("g", 1.0)}, 0);
  ts.sample({make_gauge_snap("g", -7.5)}, 1000);
  obs::WindowStats w;
  ASSERT_TRUE(ts.lookup("g", w));
  EXPECT_EQ(w.kind, obs::MetricSnapshot::Kind::kGauge);
  EXPECT_DOUBLE_EQ(w.last, -7.5);
}

TEST(ObsTimeSeries, WindowedHistogramPercentilesCoverOnlyTheWindow) {
  const std::uint64_t inf = ~std::uint64_t{0};
  obs::TimeSeries ts(8);
  // Before the window: ten fast samples (all <= 10).
  ts.sample({make_hist_snap("h", {{10, 10}, {20, 0}, {inf, 0}}, 50, 5)}, 0);
  // Inside the window: ten slow samples in (10, 20].
  ts.sample({make_hist_snap("h", {{10, 10}, {20, 10}, {inf, 0}}, 200, 18)}, 1000);
  obs::WindowStats w;
  ASSERT_TRUE(ts.lookup("h", w));
  EXPECT_TRUE(w.valid);
  EXPECT_EQ(w.delta, 10u);
  EXPECT_DOUBLE_EQ(w.avg, 15.0);  // (200 - 50) / 10
  // The lifetime p50 would sit at 10 (half fast, half slow); the windowed
  // p50 sees only the slow bucket.
  EXPECT_DOUBLE_EQ(w.p50, 15.0);
  // Interpolation would claim 19.9, but the observed max clamps it.
  EXPECT_DOUBLE_EQ(w.p99, 18.0);
}

TEST(ObsTimeSeries, CapacityEvictsOldestSamples) {
  obs::TimeSeries ts(2);  // minimum window: newest two samples
  for (std::uint64_t i = 0; i <= 4; ++i) {
    ts.sample({make_counter_snap("c", i * 10)}, i * 1000);
  }
  obs::WindowStats w;
  ASSERT_TRUE(ts.lookup("c", w));
  EXPECT_EQ(w.delta, 10u);  // only the last step survives eviction
  EXPECT_DOUBLE_EQ(w.window_s, 1.0);
  EXPECT_EQ(ts.samples(), 5u);
}

TEST(ObsTimeSeries, SampleNowFoldsTheLiveRegistry) {
  obs::Counter& c = obs::registry().counter("test.ts.live");
  c.reset();
  obs::TimeSeries ts(4);
  ts.sample_now();
  c.add(5);
  ts.sample_now();
  obs::WindowStats w;
  ASSERT_TRUE(ts.lookup("test.ts.live", w));
  EXPECT_TRUE(w.valid);
  EXPECT_EQ(w.delta, 5u);
}

// ---------------------------------------------------------------------------
// RequestLog — slow-request JSON lines

TEST(ObsRequestLog, ClosedLogDropsEverything) {
  obs::RequestLog log;
  EXPECT_FALSE(log.enabled());
  obs::RequestLogRecord rec;
  rec.total_us = 1000000;
  EXPECT_FALSE(log.log(rec));
  EXPECT_EQ(log.lines(), 0u);
}

TEST(ObsRequestLog, ThresholdGatesAndLinesAreValidJson) {
  const std::string path = temp_path("ecl_obs_test_slow.jsonl");
  std::filesystem::remove(path);
  obs::RequestLog log;
  ASSERT_TRUE(log.open(path, 100));
  EXPECT_TRUE(log.enabled());
  EXPECT_EQ(log.threshold_us(), 100u);

  obs::RequestLogRecord fast;
  fast.request_id = 1;
  fast.op = "ping";
  fast.status = "ok";
  fast.total_us = 99;
  EXPECT_FALSE(log.log(fast));  // under threshold

  obs::RequestLogRecord slow;
  slow.request_id = 0xdeadbeef;
  slow.op = "ingest";
  slow.status = "shed";
  slow.queue_depth = 7;
  slow.total_us = 5210;
  slow.decode_us = 12;
  slow.execute_us = 5100;
  slow.encode_us = 2;
  slow.write_us = 96;
  EXPECT_TRUE(log.log(slow));
  EXPECT_EQ(log.lines(), 1u);
  log.close();
  EXPECT_FALSE(log.enabled());

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
  }
  EXPECT_EQ(lines, 1u);
  in.clear();
  in.seekg(0);
  std::stringstream all;
  all << in.rdbuf();
  const std::string text = all.str();
  EXPECT_NE(text.find("\"request_id\":3735928559"), std::string::npos) << text;
  EXPECT_NE(text.find("\"op\":\"ingest\""), std::string::npos);
  EXPECT_NE(text.find("\"status\":\"shed\""), std::string::npos);
  EXPECT_NE(text.find("\"queue_depth\":7"), std::string::npos);
  EXPECT_NE(text.find("\"execute_us\":5100"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ObsRequestLog, ZeroThresholdLogsEveryRequest) {
  const std::string path = temp_path("ecl_obs_test_slow_all.jsonl");
  std::filesystem::remove(path);
  obs::RequestLog log;
  ASSERT_TRUE(log.open(path, 0));
  for (std::uint64_t i = 0; i < 3; ++i) {
    obs::RequestLogRecord rec;
    rec.request_id = i;
    rec.op = "ping";
    rec.status = "ok";
    EXPECT_TRUE(log.log(rec));
  }
  EXPECT_EQ(log.lines(), 3u);
  log.close();
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// MetricsExporter — Prometheus text exposition over HTTP

TEST(ObsExporter, SanitizeNameMapsToPrometheusCharset) {
  EXPECT_EQ(obs::MetricsExporter::sanitize_name("ecl.svc.op_us.ingest"),
            "ecl_svc_op_us_ingest");
  EXPECT_EQ(obs::MetricsExporter::sanitize_name("a-b c"), "a_b_c");
  EXPECT_EQ(obs::MetricsExporter::sanitize_name("9lives"), "_9lives");
  EXPECT_EQ(obs::MetricsExporter::sanitize_name("ok_name:sub"), "ok_name:sub");
}

TEST(ObsExporter, RenderEmitsTypedFamiliesAndCumulativeBuckets) {
  obs::registry().counter("test.exp.counter").reset();
  obs::registry().counter("test.exp.counter").add(5);
  obs::registry().gauge("test.exp.gauge").set(2.5);
  obs::Histogram& h = obs::registry().histogram("test.exp.hist", {10, 20});
  h.reset();
  for (const std::uint64_t s : {5u, 15u, 15u, 99u}) h.record(s);

  obs::MetricsExporter exporter;  // never started: render() needs no socket
  const std::string body = exporter.render();
  EXPECT_NE(body.find("# TYPE test_exp_counter counter"), std::string::npos);
  EXPECT_NE(body.find("test_exp_counter 5\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE test_exp_gauge gauge"), std::string::npos);
  EXPECT_NE(body.find("test_exp_gauge 2.5\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE test_exp_hist histogram"), std::string::npos);
  // Disjoint registry buckets {1, 2, 1} render cumulatively {1, 3, 4}.
  EXPECT_NE(body.find("test_exp_hist_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(body.find("test_exp_hist_bucket{le=\"20\"} 3\n"), std::string::npos);
  EXPECT_NE(body.find("test_exp_hist_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(body.find("test_exp_hist_sum 134\n"), std::string::npos);
  EXPECT_NE(body.find("test_exp_hist_count 4\n"), std::string::npos);
  EXPECT_NE(body.find("ecl_exporter_scrapes_total"), std::string::npos);
}

TEST(ObsExporter, CollectorsAppendExtraFamilies) {
  obs::MetricsExporter exporter;
  exporter.add_collector([](std::string& out) {
    out += "# TYPE test_collector_up gauge\ntest_collector_up 1\n";
  });
  const std::string body = exporter.render();
  EXPECT_NE(body.find("test_collector_up 1\n"), std::string::npos);
}

TEST(ObsExporter, CollectorFamiliesShadowRegistryMetricsOfTheSameName) {
  // The daemon's collector samples ecl_svc_epoch live at scrape time while
  // the registry holds a gauge that sanitizes to the same family; emitting
  // both would be a duplicate family (invalid exposition), so the collector
  // wins and the registry copy is suppressed.
  obs::registry().gauge("test.shadowed.epoch").set(1.0);
  obs::MetricsExporter exporter;
  exporter.add_collector([](std::string& out) {
    out += "# TYPE test_shadowed_epoch gauge\ntest_shadowed_epoch 7\n";
  });
  const std::string body = exporter.render();
  EXPECT_NE(body.find("test_shadowed_epoch 7\n"), std::string::npos);
  EXPECT_EQ(body.find("test_shadowed_epoch 1\n"), std::string::npos);
  EXPECT_EQ(body.find("# TYPE test_shadowed_epoch gauge"),
            body.rfind("# TYPE test_shadowed_epoch gauge"));
}

// One raw-socket HTTP GET; keeps the test free of any client library.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed: " << std::strerror(errno);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: test\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST(ObsExporter, ServesScrapesOnEphemeralPort) {
  obs::registry().counter("test.exp.live").add(1);
  obs::ExporterOptions opts;
  opts.port = 0;  // ephemeral
  opts.sample_interval_ms = 10;
  obs::MetricsExporter exporter(opts);
  std::string err;
  ASSERT_TRUE(exporter.start(&err)) << err;
  ASSERT_GT(exporter.port(), 0);

  const std::string ok = http_get(exporter.port(), "/metrics");
  EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(ok.find("test_exp_live"), std::string::npos);
  EXPECT_NE(ok.find("ecl_exporter_scrapes_total"), std::string::npos);

  const std::string missing = http_get(exporter.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos) << missing;
  EXPECT_EQ(exporter.scrapes(), 1u);  // the 404 is not a scrape

  // The serve loop samples on its cadence; once two samples exist the body
  // grows windowed gauges.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (exporter.series().samples() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(exporter.series().samples(), 2u);
  const std::string windowed = http_get(exporter.port(), "/metrics");
  EXPECT_NE(windowed.find("_window_rate"), std::string::npos) << windowed.substr(0, 512);
  EXPECT_NE(windowed.find("ecl_exporter_window_seconds"), std::string::npos);

  exporter.stop();
  EXPECT_FALSE(exporter.running());
  exporter.stop();  // idempotent
}

// ---------------------------------------------------------------------------
// Run reports

TEST(ObsReport, WriteIsValidJsonWithCellsAndMetrics) {
  obs::RunReport report;
  report.set_bench_name("unit_test_bench");
  report.set_config(0.5, 3);
  report.add_cell("graphA", "code1", {1.0, 2.0, 3.0});
  report.add_cell("graphA", "code2", {2.5});
  EXPECT_EQ(report.cell_count(), 2u);

  obs::registry().counter("test.report.counter").add(11);
  obs::registry().histogram("test.report.latency", {10, 100}).record(42);
  std::ostringstream os;
  report.write(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Histogram metrics carry tail-latency percentiles in the report.
  EXPECT_NE(json.find("test.report.latency"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("unit_test_bench"), std::string::npos);
  EXPECT_NE(json.find("graphA"), std::string::npos);
  EXPECT_NE(json.find("\"min_ms\":1"), std::string::npos);
  EXPECT_NE(json.find("\"median_ms\":2"), std::string::npos);
  EXPECT_NE(json.find("\"max_ms\":3"), std::string::npos);
  EXPECT_NE(json.find("test.report.counter"), std::string::npos);

  report.clear();
  EXPECT_EQ(report.cell_count(), 0u);
}

TEST(ObsReport, WriteFileCreatesParentDirectories) {
  obs::RunReport report;
  report.set_bench_name("nested_dir_bench");
  report.add_cell("g", "c", {1.0});
  const std::string dir = temp_path("ecl_obs_report_nested");
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/a/b/report.json";
  ASSERT_TRUE(report.write_file(path));
  std::ifstream in(path);
  std::stringstream file;
  file << in.rdbuf();
  EXPECT_TRUE(JsonChecker(file.str()).valid());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ecl
