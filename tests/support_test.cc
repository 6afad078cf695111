#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/support/check.h"
#include "src/support/rng.h"
#include "src/support/stats.h"
#include "src/support/strings.h"
#include "src/support/time.h"

namespace diablo {
namespace {

TEST(TimeTest, SaturatingBackoffDoublesThenSaturates) {
  constexpr SimDuration kCeiling = INT64_MAX / 4;
  EXPECT_EQ(SaturatingBackoff(Seconds(1), 0), Seconds(1));
  EXPECT_EQ(SaturatingBackoff(Seconds(1), 1), Seconds(2));
  EXPECT_EQ(SaturatingBackoff(Seconds(1), 6), Seconds(64));
  EXPECT_EQ(SaturatingBackoff(Milliseconds(250), 3), Seconds(2));
  // Pathological round_timeout configurations must clamp instead of
  // overflowing: 2e17 ns << 6 would wrap int64.
  EXPECT_EQ(SaturatingBackoff(Seconds(200'000'000), 6), kCeiling);
  EXPECT_EQ(SaturatingBackoff(kCeiling, 1), kCeiling);
  EXPECT_EQ(SaturatingBackoff(INT64_MAX, 62), kCeiling);
  // Degenerate inputs stay inert.
  EXPECT_EQ(SaturatingBackoff(0, 5), 0);
  EXPECT_EQ(SaturatingBackoff(-5, 3), 0);
  EXPECT_EQ(SaturatingBackoff(Seconds(1), -2), Seconds(1));
  // The ceiling leaves headroom: now + backoff cannot wrap either.
  EXPECT_LT(kCeiling + SaturatingBackoff(INT64_MAX, 10), INT64_MAX);
}

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Seconds(3), 3'000'000'000);
  EXPECT_EQ(Milliseconds(5), 5'000'000);
  EXPECT_EQ(Microseconds(7), 7'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(9)), 9.0);
  EXPECT_EQ(SecondsF(1.5), 1'500'000'000);
  EXPECT_EQ(MillisecondsF(0.5), 500'000);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBelow(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(23);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian(10.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt((sum_sq - n * mean * mean) / (n - 1)), 2.0, 0.1);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(29);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.NextBernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.02);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(31);
  Rng child = parent.Fork();
  // The child stream is distinct from the parent's subsequent draws.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(SampleSetTest, PercentilesExact) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) {
    set.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(set.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(set.Percentile(0.01), 1.0);
  EXPECT_DOUBLE_EQ(set.Percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(set.Percentile(0.9), 90.0);
  EXPECT_DOUBLE_EQ(set.Percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(set.Median(), 50.0);
  EXPECT_DOUBLE_EQ(set.Min(), 1.0);
  EXPECT_DOUBLE_EQ(set.Max(), 100.0);
  EXPECT_DOUBLE_EQ(set.Mean(), 50.5);
}

TEST(SampleSetTest, EmptySafe) {
  SampleSet set;
  EXPECT_EQ(set.count(), 0u);
  EXPECT_DOUBLE_EQ(set.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(set.CdfAt(1.0), 0.0);
  EXPECT_TRUE(set.CdfSeries(10).empty());
}

TEST(SampleSetTest, CdfMonotone) {
  SampleSet set;
  Rng rng(37);
  for (int i = 0; i < 500; ++i) {
    set.Add(rng.NextDouble() * 10.0);
  }
  const auto series = set.CdfSeries(50);
  ASSERT_EQ(series.size(), 50u);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(SampleSetTest, CdfAtValues) {
  SampleSet set;
  set.Add(1.0);
  set.Add(2.0);
  set.Add(3.0);
  set.Add(4.0);
  EXPECT_DOUBLE_EQ(set.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(set.CdfAt(2.0), 0.5);
  EXPECT_DOUBLE_EQ(set.CdfAt(2.5), 0.5);
  EXPECT_DOUBLE_EQ(set.CdfAt(10.0), 1.0);
}

TEST(TimeSeriesTest, PerSecondBuckets) {
  TimeSeries series;
  series.Add(0.2);
  series.Add(0.9);
  series.Add(3.5);
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.CountAt(0), 2u);
  EXPECT_EQ(series.CountAt(1), 0u);
  EXPECT_EQ(series.CountAt(3), 1u);
  EXPECT_EQ(series.TotalCount(), 3u);
  // Out of range reads are zero.
  EXPECT_EQ(series.CountAt(100), 0u);
}

TEST(TimeSeriesTest, NegativeTimeClampsToZero) {
  TimeSeries series;
  series.Add(-5.0);
  EXPECT_EQ(series.CountAt(0), 1u);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, Split) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringsTest, SplitWhitespace) {
  const auto parts = SplitWhitespace("  foo \t bar\nbaz ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_TRUE(EndsWith("abcdef", "def"));
  EXPECT_FALSE(EndsWith("ef", "def"));
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("2.5", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringsTest, FormatAndLower) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(CheckTest, PassingCheckIsSilentInEveryBuild) {
  int evaluations = 0;
  DIABLO_CHECK([&] {
    ++evaluations;
    return true;
  }(), "a passing check must not fire");
  if (kCheckedBuild) {
    EXPECT_EQ(evaluations, 1);
  } else {
    // Unchecked builds must not even evaluate the condition.
    EXPECT_EQ(evaluations, 0);
  }
}

TEST(CheckTest, CheckedOnlyCodeCompilesOutOfUncheckedBuilds) {
  int ticks = 0;
  DIABLO_CHECKED_ONLY(++ticks;)
  EXPECT_EQ(ticks, kCheckedBuild ? 1 : 0);
}

TEST(CheckDeathTest, FailingCheckAbortsUnderCheckedBuild) {
  if (!kCheckedBuild) {
    GTEST_SKIP() << "checks compile to no-ops without DIABLO_CHECKED";
  }
  EXPECT_DEATH(DIABLO_CHECK(1 + 1 == 3, "arithmetic is broken"),
               "DIABLO_CHECK failed.*arithmetic is broken");
}

}  // namespace
}  // namespace diablo
