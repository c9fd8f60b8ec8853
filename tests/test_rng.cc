#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace mdsim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer) {
  Rng a(123, 0), b(123, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform(n), n);
    }
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.uniform(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, ParetoBoundedBelowByScale) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(3.0, 1.5), 3.0);
  }
}

TEST(Rng, BernoulliProbability) {
  Rng rng(23);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

// --- Zipf -------------------------------------------------------------

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, InRangeAndHeadHeavy) {
  const double s = GetParam();
  constexpr std::size_t kN = 1000;
  ZipfSampler zipf(kN, s);
  Rng rng(31);
  std::vector<int> counts(kN, 0);
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const std::size_t k = zipf(rng);
    ASSERT_LT(k, kN);
    ++counts[k];
  }
  // Rank 0 must be the most popular, and popularity must broadly decay.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(),
            0);
  int head = 0, tail = 0;
  for (std::size_t i = 0; i < 10; ++i) head += counts[i];
  for (std::size_t i = kN - 10; i < kN; ++i) tail += counts[i];
  EXPECT_GT(head, tail * 2);
}

TEST_P(ZipfTest, MatchesTheoreticalHeadProbability) {
  const double s = GetParam();
  constexpr std::size_t kN = 100;
  ZipfSampler zipf(kN, s);
  Rng rng(37);
  double norm = 0.0;
  for (std::size_t k = 1; k <= kN; ++k) {
    norm += std::pow(static_cast<double>(k), -s);
  }
  const double p0 = 1.0 / norm;
  constexpr int kSamples = 300000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) hits += zipf(rng) == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, p0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2, 2.0));

TEST(Zipf, SingleElementAlwaysZero) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(rng), 0u);
}

// --- AliasTable --------------------------------------------------------

TEST(AliasTable, MatchesWeights) {
  Rng rng(43);
  const std::vector<double> w{5.0, 0.0, 1.0, 4.0};
  AliasTable table(w);
  std::vector<int> counts(4, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[table(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.5, 0.01);
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.4, 0.01);
}

TEST(AliasTable, UniformWeights) {
  Rng rng(47);
  AliasTable table(std::vector<double>(7, 1.0));
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) ++counts[table(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

// --- per-client streams ------------------------------------------------

TEST(RngSubstream, FirstDrawsAcrossManyStreamsLookUniform) {
  // The cohort's seeding pattern: one generator per client, keyed by one
  // seed and sequential stream ids. The *ensemble* of first draws must
  // itself be uniform — sequential ids must not leave a lattice.
  constexpr std::uint64_t kSeed = 2024;
  constexpr int kStreams = 100000;
  constexpr int kBuckets = 16;
  std::vector<int> counts(kBuckets, 0);
  double mean = 0.0;
  for (int i = 0; i < kStreams; ++i) {
    Rng s(kSeed, 0xc11e47000ULL + static_cast<std::uint64_t>(i));
    const double u = s.uniform_double();
    mean += u;
    ++counts[static_cast<int>(u * kBuckets)];
  }
  mean /= kStreams;
  EXPECT_NEAR(mean, 0.5, 0.005);
  const int expect = kStreams / kBuckets;
  for (int c : counts) EXPECT_NEAR(c, expect, expect * 0.1);
}

}  // namespace
}  // namespace mdsim
