// Tests for the benchmark harness: config parsing, suite filtering, the
// normalized ratio tables that drive the figure reproductions, and the
// measurement/run-report plumbing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/table.h"
#include "harness/bench_harness.h"
#include "obs/report.h"
#include "test_util.h"

namespace ecl::harness {
namespace {

/// Cells in the process-wide run report, counted in its JSON.
std::size_t report_cells() {
  std::ostringstream os;
  obs::run_report().write(os);
  return testing::count_occurrences(os.str(), "\"rep_ms\":");
}

TEST(ParseConfig, Defaults) {
  const char* argv[] = {"bench"};
  const auto cfg = parse_config(1, argv);
  EXPECT_DOUBLE_EQ(cfg.scale, 1.0);
  EXPECT_EQ(cfg.reps, 3);
  EXPECT_TRUE(cfg.graph_filter.empty());
  EXPECT_TRUE(cfg.csv_dir.empty());
}

TEST(ParseConfig, CustomDefaultScale) {
  const char* argv[] = {"bench"};
  EXPECT_DOUBLE_EQ(parse_config(1, argv, 0.25).scale, 0.25);
}

TEST(ParseConfig, ExplicitFlagsOverride) {
  const char* argv[] = {"bench", "--scale=2.5", "--reps=7", "--csv-dir=/tmp/x"};
  const auto cfg = parse_config(4, argv, 0.25);
  EXPECT_DOUBLE_EQ(cfg.scale, 2.5);
  EXPECT_EQ(cfg.reps, 7);
  EXPECT_EQ(cfg.csv_dir, "/tmp/x");
}

TEST(ParseConfig, GraphListParsing) {
  const char* argv[] = {"bench", "--graphs=internet,rmat16.sym"};
  const auto cfg = parse_config(2, argv);
  ASSERT_EQ(cfg.graph_filter.size(), 2u);
  EXPECT_EQ(cfg.graph_filter[0], "internet");
  EXPECT_EQ(cfg.graph_filter[1], "rmat16.sym");
}

TEST(ParseConfig, SmallSelectsReducedSuite) {
  const char* argv[] = {"bench", "--small"};
  const auto cfg = parse_config(2, argv);
  EXPECT_EQ(cfg.graph_filter.size(), 5u);
}

TEST(LoadSuite, FilterRestrictsAndPreservesOrder) {
  BenchConfig cfg;
  cfg.scale = 1.0 / 64.0;
  cfg.graph_filter = {"internet", "2d-2e20.sym"};
  const auto graphs = load_suite(cfg);
  ASSERT_EQ(graphs.size(), 2u);
  EXPECT_EQ(graphs[0].first, "2d-2e20.sym");  // Table 2 order, not filter order
  EXPECT_EQ(graphs[1].first, "internet");
  EXPECT_GT(graphs[0].second.num_vertices(), 0u);
}

TEST(MeasureMs, UsesAtLeastOneRep) {
  BenchConfig cfg;
  cfg.reps = 0;
  int calls = 0;
  (void)measure(cfg, [&] { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParseConfig, ReportFlag) {
  const char* argv[] = {"bench", "--report=/tmp/r.json"};
  const auto cfg = parse_config(2, argv);
  EXPECT_EQ(cfg.report_path, "/tmp/r.json");
  const char* argv2[] = {"bench"};
  EXPECT_TRUE(parse_config(1, argv2).report_path.empty());
}

TEST(Measure, ExposesMinMedianMaxOverAllReps) {
  BenchConfig cfg;
  cfg.reps = 5;
  int calls = 0;
  const Measurement m = measure(cfg, [&] { ++calls; });
  EXPECT_EQ(calls, 5);
  ASSERT_EQ(m.rep_ms.size(), 5u);
  EXPECT_LE(m.min_ms, m.median_ms);
  EXPECT_LE(m.median_ms, m.max_ms);
  for (const double ms : m.rep_ms) {
    EXPECT_GE(ms, m.min_ms);
    EXPECT_LE(ms, m.max_ms);
  }
}

TEST(MeasureCell, RecordsIntoReportWhenRequested) {
  const std::size_t before = report_cells();
  BenchConfig cfg;
  cfg.reps = 2;
  cfg.report_path = "unused-but-non-empty.json";
  (void)measure_cell(cfg, "graphX", "codeY", [] {});
  EXPECT_EQ(report_cells(), before + 1);

  // Without a report path, nothing accumulates.
  cfg.report_path.clear();
  (void)measure_cell(cfg, "graphX", "codeY", [] {});
  record_cell(cfg, "graphX", "codeZ", {1.0});
  EXPECT_EQ(report_cells(), before + 1);
}

TEST(Emit, CreatesMissingCsvAndReportDirectories) {
  const auto base =
      std::filesystem::temp_directory_path() / "ecl_harness_emit_test";
  std::filesystem::remove_all(base);

  BenchConfig cfg;
  cfg.csv_dir = (base / "csv" / "deep").string();
  cfg.report_path = (base / "reports" / "deep" / "run.json").string();
  record_cell(cfg, "g", "c", {1.0, 2.0});

  Table t("caption");
  t.set_header({"Graph", "ms"});
  t.add_row({"g", "1.0"});
  std::ostringstream discard;
  {
    // emit() writes the table to stdout; keep the test output clean.
    ::testing::internal::CaptureStdout();
    emit(t, cfg, "emit_test");
    ::testing::internal::GetCapturedStdout();
  }
  (void)discard;

  EXPECT_TRUE(std::filesystem::exists(cfg.csv_dir + "/emit_test.csv"));
  ASSERT_TRUE(std::filesystem::exists(cfg.report_path));
  std::ifstream in(cfg.report_path);
  std::stringstream file;
  file << in.rdbuf();
  const std::string json = file.str();
  EXPECT_NE(json.find("\"bench\":\"emit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"graph\":\"g\""), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"c\""), std::string::npos);
  EXPECT_NE(json.find("\"rep_ms\":[1,2]"), std::string::npos);

  std::filesystem::remove_all(base);
}

TEST(RatioTable, NormalizesToReference) {
  RatioTable rt("caption", "ref", {"ref", "other"});
  rt.record("g1", "ref", 2.0);
  rt.record("g1", "other", 4.0);
  rt.record("g2", "ref", 10.0);
  rt.record("g2", "other", 5.0);
  const auto gm = rt.geomean("other");
  ASSERT_TRUE(gm.has_value());
  EXPECT_NEAR(*gm, 1.0, 1e-12);  // sqrt(2.0 * 0.5)
  EXPECT_NEAR(*rt.geomean("ref"), 1.0, 1e-12);
}

TEST(RatioTable, HandlesNaCells) {
  RatioTable rt("caption", "ref", {"ref", "crono"});
  rt.record("g1", "ref", 2.0);
  rt.record("g1", "crono", std::nullopt);
  rt.record("g2", "ref", 3.0);
  rt.record("g2", "crono", 6.0);
  const auto gm = rt.geomean("crono");
  ASSERT_TRUE(gm.has_value());
  EXPECT_NEAR(*gm, 2.0, 1e-12);  // only g2 counts

  std::ostringstream os;
  rt.normalized().write_markdown(os);
  EXPECT_NE(os.str().find("n/a"), std::string::npos);
}

TEST(RatioTable, AbsoluteTableKeepsMilliseconds) {
  RatioTable rt("caption", "a", {"a", "b"});
  rt.record("g", "a", 1.25);
  rt.record("g", "b", 123.4);
  std::ostringstream os;
  rt.absolute("abs").write_markdown(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("1.25"), std::string::npos);
  EXPECT_NE(out.find("123.4"), std::string::npos);
}

TEST(RatioTable, GeomeanEmptyWhenNoOverlap) {
  RatioTable rt("caption", "ref", {"ref", "x"});
  rt.record("g1", "ref", 2.0);
  EXPECT_FALSE(rt.geomean("x").has_value());
}

}  // namespace
}  // namespace ecl::harness
