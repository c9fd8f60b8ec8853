#include <gtest/gtest.h>

#include <cmath>

#include "common/csv.h"
#include "common/stats.h"
#include "common/types.h"

namespace mdsim {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.sum(), 15.0, 1e-9);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Summary, MergeEqualsCombined) {
  Summary a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a, b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(LogHistogram, PercentilesOrdered) {
  LogHistogram h(1.0, 1e6, 40);
  for (int i = 1; i <= 1000; ++i) h.add(i);
  const double p50 = h.percentile(50);
  const double p90 = h.percentile(90);
  const double p99 = h.percentile(99);
  EXPECT_LT(p50, p90);
  EXPECT_LT(p90, p99);
  EXPECT_NEAR(p50, 500, 60);  // log-bucket resolution
  EXPECT_NEAR(p99, 990, 80);
}

TEST(LogHistogram, MeanExact) {
  LogHistogram h;
  h.add(10, 3);
  h.add(20);
  EXPECT_DOUBLE_EQ(h.mean(), 12.5);
  EXPECT_EQ(h.total_count(), 4u);
}

TEST(LogHistogram, PercentileZeroSkipsEmptyBottomBucket) {
  // Regression: percentile(0) has target 0, which an *empty* underflow
  // bucket used to satisfy immediately — reporting 0.5 * min_value even
  // though every sample sat orders of magnitude above it. The minimum must
  // come from the first occupied bucket.
  LogHistogram h(1.0, 1e6);
  h.add(100);
  EXPECT_GE(h.percentile(0), 100.0 * 0.8);  // within one log bucket of 100
  EXPECT_LE(h.percentile(0), h.percentile(50));
  EXPECT_LE(h.percentile(50), h.percentile(100));
}

TEST(LogHistogram, PercentileHundredFromOverflowBucket) {
  // A sample beyond max_value lands in the overflow clamp bucket, which
  // has no meaningful upper edge: percentile(100) reports its lower bound
  // instead of a midpoint extrapolated past max_value.
  LogHistogram h(1.0, 1e2, 10);
  h.add(1e6);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  h.add(5.0, 99);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_LT(h.percentile(50), 10.0);  // bulk stays in the 5.0 bucket
}

TEST(LogHistogram, ValuesAtOrBelowMinShareUnderflowBucket) {
  LogHistogram h(10.0, 1e3, 10);
  h.add(3.0);
  h.add(10.0);  // exactly min_value also underflows
  EXPECT_EQ(h.total_count(), 2u);
  // Underflow bucket spans [0, min_value): reported as its midpoint.
  EXPECT_DOUBLE_EQ(h.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 5.0);
}

TEST(LogHistogram, EmptyPercentileIsZero) {
  LogHistogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 0.0);
}

TEST(LogHistogram, MergePreservesPercentilesAndMean) {
  LogHistogram a(1.0, 1e6, 20), b(1.0, 1e6, 20), all(1.0, 1e6, 20);
  for (int i = 1; i <= 200; ++i) {
    const double v = i * 7.0;
    ((i % 2) != 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.total_count(), all.total_count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.percentile(50), all.percentile(50));
  EXPECT_DOUBLE_EQ(a.percentile(99), all.percentile(99));
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(LogHistogramDeathTest, MergeRejectsMismatchedShape) {
  LogHistogram a(1.0, 1e4, 5);
  LogHistogram b(1.0, 1e6, 5);  // different bucket count
  EXPECT_DEATH(a.merge(b), "counts_");
}
#endif

TEST(LogHistogram, MergeAddsCounts) {
  LogHistogram a(1, 1e4, 5), b(1, 1e4, 5);
  a.add(100);
  b.add(200, 3);
  a.merge(b);
  EXPECT_EQ(a.total_count(), 4u);
}

TEST(DecayCounter, HalvesAtHalfLife) {
  DecayCounter c(kSecond);
  c.hit(0, 8.0);
  EXPECT_NEAR(c.get(kSecond), 4.0, 1e-9);
  EXPECT_NEAR(c.get(2 * kSecond), 2.0, 1e-9);
  EXPECT_NEAR(c.get(3 * kSecond), 1.0, 1e-9);
}

TEST(DecayCounter, AccumulatesHits) {
  DecayCounter c(kSecond);
  c.hit(0);
  c.hit(0);
  c.hit(0);
  EXPECT_NEAR(c.get(0), 3.0, 1e-12);
}

TEST(DecayCounter, DecayAppliedBeforeNewHit) {
  DecayCounter c(kSecond);
  c.hit(0, 4.0);
  c.hit(kSecond, 1.0);
  EXPECT_NEAR(c.get(kSecond), 3.0, 1e-9);
}

TEST(DecayCounter, ResetClears) {
  DecayCounter c(kSecond);
  c.hit(0, 10.0);
  c.reset();
  EXPECT_EQ(c.get(5 * kSecond), 0.0);
}

TEST(TimeSeries, MeanInWindow) {
  TimeSeries ts;
  ts.record(1 * kSecond, 10);
  ts.record(2 * kSecond, 20);
  ts.record(3 * kSecond, 30);
  EXPECT_DOUBLE_EQ(ts.mean_in(0, 10 * kSecond), 20.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(2 * kSecond, 3 * kSecond), 20.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 30.0);
}

TEST(TimeSeries, MeanInWindowIsHalfOpenByDefault) {
  TimeSeries ts;
  ts.record(1 * kSecond, 10);
  ts.record(2 * kSecond, 20);
  ts.record(3 * kSecond, 30);
  // [1s, 3s) excludes the 3s sample...
  EXPECT_DOUBLE_EQ(ts.mean_in(1 * kSecond, 3 * kSecond), 15.0);
  // ...so consecutive interior windows count each sample exactly once.
  EXPECT_DOUBLE_EQ(ts.mean_in(3 * kSecond, 5 * kSecond), 30.0);
}

TEST(TimeSeries, MeanInIncludeEndCapturesRunEndBoundarySample) {
  // run_until(d) fires events at exactly d, so the final metrics sample
  // lands on the boundary. A half-open window ending at the run end used
  // to silently drop it; include_end pulls it back in.
  TimeSeries ts;
  ts.record(1 * kSecond, 10);
  ts.record(2 * kSecond, 20);
  ts.record(3 * kSecond, 30);  // final sample, exactly at duration
  EXPECT_DOUBLE_EQ(
      ts.mean_in(1 * kSecond, 3 * kSecond, /*include_end=*/true), 20.0);
  // Degenerate window [t, t] with include_end picks up the lone sample.
  EXPECT_DOUBLE_EQ(
      ts.mean_in(3 * kSecond, 3 * kSecond, /*include_end=*/true), 30.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(3 * kSecond, 3 * kSecond), 0.0);
}

TEST(TimeConversions, RoundTrip) {
  EXPECT_EQ(from_seconds(1.5), 1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(250 * kMillisecond), 0.25);
  EXPECT_EQ(from_millis(2.0), 2 * kMillisecond);
  EXPECT_EQ(from_micros(3.0), 3 * kMicrosecond);
}

TEST(Perms, OwnerAndWorldBits) {
  Perms p;
  p.mode = 0700;
  p.uid = 42;
  EXPECT_TRUE(p.allows_traverse(42));
  EXPECT_TRUE(p.allows_read(42));
  EXPECT_TRUE(p.allows_write(42));
  EXPECT_FALSE(p.allows_traverse(7));
  EXPECT_FALSE(p.allows_read(7));
  p.mode = 0755;
  EXPECT_TRUE(p.allows_traverse(7));
  EXPECT_TRUE(p.allows_read(7));
  EXPECT_FALSE(p.allows_write(7));
}

TEST(OpTypes, UpdateClassification) {
  EXPECT_FALSE(op_is_update(OpType::kStat));
  EXPECT_FALSE(op_is_update(OpType::kOpen));
  EXPECT_FALSE(op_is_update(OpType::kReaddir));
  EXPECT_TRUE(op_is_update(OpType::kCreate));
  EXPECT_TRUE(op_is_update(OpType::kRename));
  EXPECT_TRUE(op_is_update(OpType::kChmod));
  EXPECT_TRUE(op_is_update(OpType::kLink));
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = ::testing::TempDir() + "/mdsim_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.header({"a", "b,comma", "c"});
    csv.field("plain").field(1.5).field(std::int64_t{-2});
    csv.end_row();
    csv.field("with \"quote\"").field(std::uint64_t{7}).field("x");
    csv.end_row();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,\"b,comma\",c");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1.5,-2");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with \"\"quote\"\"\",7,x");
}

}  // namespace
}  // namespace mdsim
