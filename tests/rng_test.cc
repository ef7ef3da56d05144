#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

namespace e2nvm {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, ReseedResetsStream) {
  Rng a(5);
  uint64_t first = a.NextU64();
  a.NextU64();
  a.Reseed(5);
  EXPECT_EQ(a.NextU64(), first);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBounded(1), 0u);
  }
}

TEST(RngTest, BoundedRoughlyUniform) {
  Rng rng(42);
  std::map<uint64_t, int> counts;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (uint64_t v = 0; v < 10; ++v) {
    EXPECT_GT(counts[v], kDraws / 10 * 0.9) << v;
    EXPECT_LT(counts[v], kDraws / 10 * 1.1) << v;
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(21);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, BernoulliBitsMatchNextBernoulli) {
  const double ps[] = {0.0,
                       -0.1,
                       std::nan(""),
                       4.9e-324,
                       1e-17,
                       0x1.0p-53,
                       0.05,
                       0.4471,
                       0.5,
                       1.0 - 0x1.0p-53,
                       1.0,
                       1.5};
  for (double p : ps) {
    SCOPED_TRACE(p);
    const uint64_t t = Rng::BernoulliThreshold(p);
    // The threshold argument at its edge: k * 2^-53 < p iff k < t for
    // the integers around t (the random draws below rarely land there).
    for (uint64_t k = t > 2 ? t - 2 : 0;
         k < std::min(t + 2, uint64_t{1} << 53); ++k) {
      EXPECT_EQ(static_cast<double>(k) * 0x1.0p-53 < p, k < t) << k;
    }
    Rng bits_rng(77);
    Rng ref_rng(77);
    for (size_t n = 0; n <= 64; ++n) {
      uint64_t want = 0;
      for (size_t i = 0; i < n; ++i) {
        want |= uint64_t{ref_rng.NextBernoulli(p)} << i;
      }
      EXPECT_EQ(bits_rng.NextBernoulliBits(t, n), want) << "n=" << n;
      EXPECT_EQ(bits_rng.NextU64(), ref_rng.NextU64()) << "n=" << n;
    }
  }
  EXPECT_EQ(Rng::BernoulliThreshold(0x1.0p-53), 1u);
  EXPECT_EQ(Rng::BernoulliThreshold(0.5), uint64_t{1} << 52);
  EXPECT_EQ(Rng::BernoulliThreshold(1.0 - 0x1.0p-53),
            (uint64_t{1} << 53) - 1);
  EXPECT_EQ(Rng::BernoulliThreshold(1.5), uint64_t{1} << 53);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfianTest, RanksInRange) {
  Rng rng(1);
  ZipfianGenerator zipf(1000);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 1000u);
  }
}

TEST(ZipfianTest, HeadIsHot) {
  Rng rng(2);
  ZipfianGenerator zipf(10000, 0.99);
  int head_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next(rng) < 100) ++head_hits;  // Top 1% of ranks.
  }
  // With theta=0.99 the top 1% draws far more than 1% of accesses.
  EXPECT_GT(head_hits, n / 4);
}

TEST(ZipfianTest, LowerThetaIsFlatter) {
  Rng r1(3), r2(3);
  ZipfianGenerator skewed(10000, 0.99);
  ZipfianGenerator flat(10000, 0.5);
  int skewed_head = 0, flat_head = 0;
  for (int i = 0; i < 20000; ++i) {
    if (skewed.Next(r1) < 100) ++skewed_head;
    if (flat.Next(r2) < 100) ++flat_head;
  }
  EXPECT_GT(skewed_head, flat_head);
}

TEST(LatestTest, SkewsTowardNewest) {
  Rng rng(4);
  LatestGenerator latest(10000);
  int recent = 0;
  const uint64_t max_seen = 9999;
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = latest.Next(rng, max_seen);
    EXPECT_LE(k, max_seen);
    if (k > max_seen - 100) ++recent;
  }
  EXPECT_GT(recent, 20000 / 4);
}

TEST(ScrambledZipfianTest, SpreadsHotKeys) {
  Rng rng(5);
  ScrambledZipfianGenerator gen(10000);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[gen.Next(rng)];
  // The two hottest keys should not be adjacent (scrambling).
  uint64_t hottest = 0, second = 0;
  int c1 = -1, c2 = -1;
  for (auto& [k, c] : counts) {
    if (c > c1) {
      second = hottest;
      c2 = c1;
      hottest = k;
      c1 = c;
    } else if (c > c2) {
      second = k;
      c2 = c;
    }
  }
  EXPECT_NE(hottest + 1, second);
  EXPECT_NE(second + 1, hottest);
}

TEST(Fnv1aTest, StableAndSensitive) {
  uint64_t a = 1, b = 2;
  EXPECT_EQ(Fnv1a64(&a, sizeof(a)), Fnv1a64(&a, sizeof(a)));
  EXPECT_NE(Fnv1a64(&a, sizeof(a)), Fnv1a64(&b, sizeof(b)));
}

}  // namespace
}  // namespace e2nvm
