// Unit tests for src/common: statistics, tables, CLI parsing, RNG, work
// claiming.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <set>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/claim.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "cpu_mask.h"

namespace ecl {
namespace {

TEST(Stats, MedianOddSample) {
  const std::array<double, 3> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.0);
}

TEST(Stats, MedianEvenSampleAveragesMiddlePair) {
  const std::array<double, 4> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, MedianSingleton) {
  const std::array<double, 1> xs{7.5};
  EXPECT_DOUBLE_EQ(median(xs), 7.5);
}

TEST(Stats, MedianEmptyIsZero) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, GeometricMeanOfReciprocalsIsOne) {
  const std::array<double, 2> xs{4.0, 0.25};
  EXPECT_NEAR(geometric_mean(xs), 1.0, 1e-12);
}

TEST(Stats, GeometricMeanMatchesHandComputation) {
  const std::array<double, 3> xs{1.0, 2.0, 4.0};
  EXPECT_NEAR(geometric_mean(xs), 2.0, 1e-12);
}

TEST(Stats, MeanAndStddev) {
  const std::array<double, 4> xs{2.0, 4.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
}

TEST(Stats, MinMax) {
  const std::array<double, 3> xs{5.0, -1.0, 3.0};
  EXPECT_DOUBLE_EQ(minimum(xs), -1.0);
  EXPECT_DOUBLE_EQ(maximum(xs), 5.0);
}

TEST(Stats, MedianRuntimeRunsRequestedRepetitions) {
  int calls = 0;
  const double ms = median_runtime_ms([&] { ++calls; }, 5);
  EXPECT_EQ(calls, 5);
  EXPECT_GE(ms, 0.0);
}

TEST(Table, MarkdownContainsHeaderAndRows) {
  Table t("Demo");
  t.set_header({"graph", "ms"});
  t.add_row({"grid", "1.5"});
  std::ostringstream os;
  t.write_markdown(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("graph"), std::string::npos);
  EXPECT_NE(out.find("grid"), std::string::npos);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t("x");
  t.set_header({"a", "b"});
  t.add_row({"va,lue", "say \"hi\""});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"va,lue\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, FormatCount) {
  EXPECT_EQ(Table::fmt_count(0), "0");
  EXPECT_EQ(Table::fmt_count(999), "999");
  EXPECT_EQ(Table::fmt_count(1000), "1,000");
  EXPECT_EQ(Table::fmt_count(4886816), "4,886,816");
  EXPECT_EQ(Table::fmt_count(100663202), "100,663,202");
}

TEST(Table, FormatFixedPrecision) {
  EXPECT_EQ(Table::fmt(1.849, 2), "1.85");
  EXPECT_EQ(Table::fmt(2.0, 1), "2.0");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--graph=grid", "--scale=2", "--verbose", "pos1"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get("graph", ""), "grid");
  EXPECT_EQ(args.get_int("scale", 0), 2);
  EXPECT_TRUE(args.has("verbose"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, FallbacksOnMissingOrMalformed) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_EQ(args.get_int("absent", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 1.5), 1.5);
  EXPECT_FALSE(args.has("absent"));
}

TEST(Cli, ReportsUnusedFlags) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  CliArgs args(3, argv);
  (void)args.get("used", "");
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, DiscardMatchesRepeatedNext) {
  for (const std::uint64_t k : {0ull, 1ull, 63ull, 64ull, 65ull, 255ull, 256ull, 257ull,
                                1000003ull}) {
    Xoshiro256 stepped(2024);
    for (std::uint64_t i = 0; i < k; ++i) stepped.next();
    Xoshiro256 jumped(2024);
    jumped.discard(k);
    EXPECT_TRUE(jumped == stepped) << "k = " << k;
    EXPECT_EQ(jumped.next(), stepped.next()) << "k = " << k;
  }

  // Jumps compose.
  Xoshiro256 twice(7);
  twice.discard(12345);
  twice.discard(678901);
  Xoshiro256 once(7);
  once.discard(12345 + 678901);
  EXPECT_TRUE(twice == once);

  // A discarded copy leaves the original stream untouched.
  Xoshiro256 original(99);
  Xoshiro256 reference(99);
  Xoshiro256 copy = original;
  copy.discard(1u << 20);
  EXPECT_FALSE(copy == original);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(original.next(), reference.next());
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto x = rng.bounded(10);
    EXPECT_LT(x, 10u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values reachable
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// Every index runs exactly once, whether the caller works alone (one
// allowed CPU, or fewer than two indices) or with pinned helpers.
TEST(Claim, EveryIndexRunsExactlyOnce) {
  const testing::CpuMaskScope mask;
  for (const int cpus : {1, mask.cpus()}) {
    ASSERT_TRUE(mask.limit(cpus));
    EXPECT_EQ(allowed_cpus(), static_cast<std::size_t>(cpus));
    for (const std::size_t count : {0, 1, 2, 1000}) {
      SCOPED_TRACE(std::to_string(cpus) + " cpus, count " + std::to_string(count));
      std::vector<std::atomic<int>> runs(count);
      std::atomic<std::size_t> out_of_range{0};
      for_each_claimed(count, [&](std::size_t i) {
        if (i < count) {
          runs[i].fetch_add(1, std::memory_order_relaxed);
        } else {
          out_of_range.fetch_add(1, std::memory_order_relaxed);
        }
      });
      EXPECT_EQ(out_of_range.load(), 0u);
      std::size_t once = 0;
      for (const auto& r : runs) once += r.load() == 1 ? 1 : 0;
      EXPECT_EQ(once, count);
    }
  }
}

}  // namespace
}  // namespace ecl
