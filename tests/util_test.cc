// Unit tests for the util substrate: Status/Result, RNG, bitset, strings,
// stopwatch, parallel_for.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "subtab/util/alias_table.h"
#include "subtab/util/bitset.h"
#include "subtab/util/latency_histogram.h"
#include "subtab/util/parallel.h"
#include "subtab/util/rng.h"
#include "subtab/util/status.h"
#include "subtab/util/stopwatch.h"
#include "subtab/util/string_util.h"

namespace subtab {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Result<int> ChainedParse(int x) {
  SUBTAB_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_FALSE(ChainedParse(0).ok());
  Result<int> ok = ChainedParse(3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(8);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(10);
  std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += (rng.Categorical(w) == 1);
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, CategoricalIgnoresZeroWeights) {
  Rng rng(11);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.Categorical(w), 1u);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(12);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(5, 1.5)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[3]);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<size_t> s = rng.SampleWithoutReplacement(20, 8);
    std::set<size_t> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), 8u);
    for (size_t v : s) EXPECT_LT(v, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(14);
  std::vector<size_t> s = rng.SampleWithoutReplacement(6, 6);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(s, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(RngTest, SampleWithoutReplacementUniformity) {
  // Every element should be picked roughly count/n of the time.
  Rng rng(15);
  std::vector<int> hits(10, 0);
  const int trials = 10000;
  for (int t = 0; t < trials; ++t) {
    for (size_t v : rng.SampleWithoutReplacement(10, 3)) ++hits[v];
  }
  for (int h : hits) EXPECT_NEAR(static_cast<double>(h) / trials, 0.3, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(17);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// ---------------------------------------------------------------- Bitset --

TEST(BitsetTest, SetTestClear) {
  Bitset b(100);
  EXPECT_FALSE(b.Test(63));
  b.Set(63);
  b.Set(64);
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  b.Clear(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 1u);
}

TEST(BitsetTest, ConstructAllSetRespectsSize) {
  Bitset b(70, true);
  EXPECT_EQ(b.Count(), 70u);
}

TEST(BitsetTest, IntersectAndUnion) {
  Bitset a(10);
  Bitset b(10);
  a.Set(1);
  a.Set(5);
  b.Set(5);
  b.Set(7);
  EXPECT_EQ(Bitset::IntersectionCount(a, b), 1u);
  Bitset i = Bitset::Intersection(a, b);
  EXPECT_TRUE(i.Test(5));
  EXPECT_EQ(i.Count(), 1u);
  a.UnionWith(b);
  EXPECT_EQ(a.Count(), 3u);
}

TEST(BitsetTest, ToIndicesAscending) {
  Bitset b(130);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_EQ(b.ToIndices(), (std::vector<uint32_t>{0, 64, 129}));
}

TEST(BitsetTest, AnySet) {
  Bitset b(65);
  EXPECT_FALSE(b.AnySet());
  b.Set(64);
  EXPECT_TRUE(b.AnySet());
}

TEST(BitsetTest, Equality) {
  Bitset a(32);
  Bitset b(32);
  EXPECT_EQ(a, b);
  a.Set(3);
  EXPECT_FALSE(a == b);
}

// --------------------------------------------------------------- Strings --

TEST(StringTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("x,", ','), (std::vector<std::string>{"x", ""}));
}

TEST(StringTest, Join) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(StrTrim("  x y  "), "x y");
  EXPECT_EQ(StrTrim("\t\n"), "");
  EXPECT_EQ(StrTrim("abc"), "abc");
}

TEST(StringTest, Lower) { EXPECT_EQ(StrLower("AbC9"), "abc9"); }

TEST(StringTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(ParseDouble("3.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringTest, LooksNumericRejectsInfNanEmpty) {
  EXPECT_TRUE(LooksNumeric("42"));
  EXPECT_TRUE(LooksNumeric("-1.25e-3"));
  EXPECT_FALSE(LooksNumeric("inf"));
  EXPECT_FALSE(LooksNumeric(""));
  EXPECT_FALSE(LooksNumeric("12a"));
}

TEST(StringTest, NormalizeCell) {
  EXPECT_EQ(NormalizeCell("  Hello World! "), "hello_world_");
  EXPECT_EQ(NormalizeCell("A-1.b+c"), "a-1.b+c");
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StringTest, FormatCell) {
  EXPECT_EQ(FormatCell(3.0), "3");
  EXPECT_EQ(FormatCell(3.14159), "3.142");
  EXPECT_EQ(FormatCell(std::nan("")), "NaN");
  EXPECT_EQ(FormatCell(-0.5), "-0.5");
}

// ------------------------------------------------------------- Stopwatch --

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  const double first = w.ElapsedSeconds();
  EXPECT_GT(first, 0.0);
  EXPECT_GE(w.ElapsedSeconds(), first);  // Monotone.
  w.Reset();
  EXPECT_LT(w.ElapsedSeconds(), first + 1.0);
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  Deadline d(0.0);
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, LargeBudgetNotExpired) {
  Deadline d(1e6);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 0.0);
}

// -------------------------------------------------------------- Parallel --

TEST(ParallelTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 4, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, SingleThreadRunsInline) {
  size_t calls = 0;
  ParallelFor(10, 1, [&](size_t shard, size_t begin, size_t end) {
    EXPECT_EQ(shard, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelTest, EmptyRangeNoCalls) {
  bool called = false;
  ParallelFor(0, 4, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelTest, MoreThreadsThanWork) {
  std::atomic<int> total{0};
  ParallelFor(3, 16, [&](size_t, size_t begin, size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelTest, HardwareThreadsPositive) { EXPECT_GE(HardwareThreads(), 1u); }

TEST(LatencyHistogramTest, PercentilesBracketRecordedLatencies) {
  LatencyHistogram hist;
  // 90 fast (~1 ms) and 10 slow (~400 ms) samples.
  for (int i = 0; i < 90; ++i) hist.Record(1e-3);
  for (int i = 0; i < 10; ++i) hist.Record(0.4);
  const LatencyHistogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.sum_seconds, 0.09 + 4.0, 1e-6);
  // Bucket resolution is a factor of two: p50 must land near 1 ms and p99
  // near 400 ms, each within its power-of-two bucket.
  EXPECT_GE(snap.Percentile(0.50), 0.5e-3);
  EXPECT_LE(snap.Percentile(0.50), 2e-3);
  EXPECT_GE(snap.Percentile(0.99), 0.2);
  EXPECT_LE(snap.Percentile(0.99), 0.8);
  EXPECT_GE(snap.Percentile(0.99), snap.Percentile(0.50));
  EXPECT_NEAR(snap.MeanSeconds(), 4.09 / 100.0, 1e-4);
}

TEST(LatencyHistogramTest, EmptyAndEdgeCases) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.TakeSnapshot().Percentile(0.99), 0.0);
  hist.Record(0.0);
  hist.Record(-1.0);  // Clamped, not UB.
  EXPECT_EQ(hist.TakeSnapshot().count, 2u);
}

// Bucket midpoints the histogram reports: 100us lands in bucket 7
// ([64, 128)us, mid 96us); 400ms lands in bucket 19 ([262, 524)ms,
// mid ~393ms). Pinning the exact returns makes the nearest-rank math
// observable through the bucketing.
constexpr double kFastMid = 96e-6;
constexpr double kSlowMid = 393216e-6;

TEST(LatencyHistogramTest, NearestRankP50OfTwoIsTheSmaller) {
  LatencyHistogram hist;
  hist.Record(100e-6);
  hist.Record(0.4);
  const LatencyHistogram::Snapshot snap = hist.TakeSnapshot();
  // Nearest-rank p50 of two samples is the 1st (ceil(0.5*2) = 1), not the
  // 2nd — the off-by-one this pins reported the larger sample.
  EXPECT_DOUBLE_EQ(snap.Percentile(0.50), kFastMid);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.51), kSlowMid);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), kSlowMid);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), kFastMid);
}

TEST(LatencyHistogramTest, NearestRankPinnedOnRoundCounts) {
  // 95 fast + 5 slow: p95 is the 95th smallest (ceil(0.95*100) = 95) —
  // still fast; p96 and p99 cross into the slow tail.
  LatencyHistogram hist;
  for (int i = 0; i < 95; ++i) hist.Record(100e-6);
  for (int i = 0; i < 5; ++i) hist.Record(0.4);
  const LatencyHistogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.Percentile(0.50), kFastMid);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.95), kFastMid);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.96), kSlowMid);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.99), kSlowMid);

  // 50 fast + 50 slow: p50 = 50th sample = fast (floor-rank reported slow).
  LatencyHistogram half;
  for (int i = 0; i < 50; ++i) half.Record(100e-6);
  for (int i = 0; i < 50; ++i) half.Record(0.4);
  EXPECT_DOUBLE_EQ(half.TakeSnapshot().Percentile(0.50), kFastMid);

  // A single sample answers every percentile with its own bucket.
  LatencyHistogram one;
  one.Record(0.4);
  EXPECT_DOUBLE_EQ(one.TakeSnapshot().Percentile(0.50), kSlowMid);
  EXPECT_DOUBLE_EQ(one.TakeSnapshot().Percentile(0.99), kSlowMid);
}

// ----------------------------------------------------------- Alias table --

TEST(AliasTableTest, VoseInvariantsAndZeroWeightNeverDrawn) {
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  AliasTable alias(weights);
  ASSERT_EQ(alias.size(), 3u);
  // Every slot's alias must point at a valid slot.
  for (size_t s = 0; s < alias.size(); ++s) {
    EXPECT_GE(alias.prob(s), 0.0);
    EXPECT_LE(alias.prob(s), 1.0);
    EXPECT_LT(alias.alias(s), alias.size());
  }
  Rng rng(42);
  size_t hits[3] = {0, 0, 0};
  const size_t draws = 40000;
  for (size_t i = 0; i < draws; ++i) ++hits[alias.Sample(rng)];
  EXPECT_EQ(hits[1], 0u);  // Zero weight: never drawn.
  // Empirical frequencies track 1:3 within a loose band.
  EXPECT_NEAR(static_cast<double>(hits[0]) / draws, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(hits[2]) / draws, 0.75, 0.02);
}

TEST(AliasTableTest, DeterministicAcrossInstances) {
  const std::vector<double> weights = {0.5, 2.0, 1.0, 0.25, 4.0};
  AliasTable a(weights);
  AliasTable b(weights);
  Rng ra(7);
  Rng rb(7);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.Sample(ra), b.Sample(rb));
  // A different seed yields a different draw sequence somewhere.
  Rng rc(8);
  bool diverged = false;
  Rng ra2(7);
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = a.Sample(ra2) != a.Sample(rc);
  }
  EXPECT_TRUE(diverged);
}

TEST(AliasTableTest, AllZeroAndSingleSlotDegenerateToUniform) {
  AliasTable zero(std::vector<double>{0.0, 0.0, 0.0, 0.0});
  Rng rng(3);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(zero.Sample(rng));
  EXPECT_EQ(seen.size(), 4u);  // Uniform fallback reaches every slot.

  AliasTable single(std::vector<double>{5.0});
  for (int i = 0; i < 5; ++i) EXPECT_EQ(single.Sample(rng), 0u);
}

}  // namespace
}  // namespace subtab
