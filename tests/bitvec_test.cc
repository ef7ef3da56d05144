#include "common/bitvec.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace e2nvm {
namespace {

TEST(BitVectorTest, DefaultEmpty) {
  BitVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.Popcount(), 0u);
}

TEST(BitVectorTest, SetGetRoundTrip) {
  BitVector v(130);  // Crosses word boundaries.
  v.Set(0, true);
  v.Set(63, true);
  v.Set(64, true);
  v.Set(129, true);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(63));
  EXPECT_TRUE(v.Get(64));
  EXPECT_TRUE(v.Get(129));
  EXPECT_FALSE(v.Get(1));
  EXPECT_FALSE(v.Get(128));
  EXPECT_EQ(v.Popcount(), 4u);
  v.Set(63, false);
  EXPECT_FALSE(v.Get(63));
  EXPECT_EQ(v.Popcount(), 3u);
}

TEST(BitVectorTest, FromStringMatchesPaperNotation) {
  // Paper Table 1 row 0: [0, 0, 1, 1, 1, 1, 0, 1].
  BitVector v = BitVector::FromString("00111101");
  EXPECT_EQ(v.size(), 8u);
  EXPECT_FALSE(v.Get(0));
  EXPECT_TRUE(v.Get(2));
  EXPECT_TRUE(v.Get(7));
  EXPECT_EQ(v.ToString(), "00111101");
}

TEST(BitVectorTest, FromBytesLittleEndianPerByte) {
  uint8_t bytes[2] = {0x01, 0x80};
  BitVector v = BitVector::FromBytes(bytes, 2);
  EXPECT_EQ(v.size(), 16u);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(15));
  EXPECT_EQ(v.Popcount(), 2u);
}

TEST(BitVectorTest, FromFloatsThreshold) {
  BitVector v = BitVector::FromFloats({0.1f, 0.9f, 0.5f, 0.49f});
  EXPECT_EQ(v.ToString(), "0110");
}

TEST(BitVectorTest, HammingDistanceBasics) {
  BitVector a = BitVector::FromString("0000");
  BitVector b = BitVector::FromString("1111");
  EXPECT_EQ(a.HammingDistance(b), 4u);
  EXPECT_EQ(a.HammingDistance(a), 0u);
  EXPECT_EQ(b.HammingDistance(a), 4u);
}

TEST(BitVectorTest, HammingDistanceSymmetricProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    BitVector a(257), b(257);
    a.Randomize(rng);
    b.Randomize(rng);
    EXPECT_EQ(a.HammingDistance(b), b.HammingDistance(a));
    // Triangle inequality through a third point.
    BitVector c(257);
    c.Randomize(rng);
    EXPECT_LE(a.HammingDistance(b),
              a.HammingDistance(c) + c.HammingDistance(b));
  }
}

TEST(BitVectorTest, InvertedFlipsEverything) {
  BitVector v = BitVector::FromString("0101");
  EXPECT_EQ(v.Inverted().ToString(), "1010");
  BitVector big(100);
  big.Set(50, true);
  EXPECT_EQ(big.Inverted().Popcount(), 99u);
  // Inverting twice restores, and tail bits stay masked.
  EXPECT_EQ(big.Inverted().Inverted(), big);
}

TEST(BitVectorTest, RotationPreservesPopcount) {
  Rng rng(3);
  BitVector v(77);
  v.Randomize(rng);
  size_t pop = v.Popcount();
  for (size_t k : {size_t{0}, size_t{1}, size_t{13}, size_t{76}, size_t{77}}) {
    EXPECT_EQ(v.RotatedLeft(k).Popcount(), pop) << "k=" << k;
  }
  EXPECT_EQ(v.RotatedLeft(77), v);  // Full rotation is identity.
  EXPECT_EQ(v.RotatedLeft(13).RotatedLeft(77 - 13), v);
}

TEST(BitVectorTest, SliceAndOverlay) {
  BitVector v = BitVector::FromString("00111101");
  EXPECT_EQ(v.Slice(2, 4).ToString(), "1111");
  EXPECT_EQ(v.Slice(0, 8), v);
  BitVector w(8);
  w.Overlay(2, BitVector::FromString("1111"));
  EXPECT_EQ(w.ToString(), "00111100");
}

TEST(BitVectorTest, ConcatOrdersBits) {
  BitVector a = BitVector::FromString("01");
  BitVector b = BitVector::FromString("10");
  EXPECT_EQ(a.Concat(b).ToString(), "0110");
  EXPECT_EQ(a.Concat(BitVector()).ToString(), "01");
}

TEST(BitVectorTest, DirtyLinesCountsChangedLinesOnly) {
  // 4 lines of 8 bits each.
  BitVector old_bits(32);
  BitVector new_bits(32);
  new_bits.Set(0, true);   // Line 0 dirty.
  new_bits.Set(17, true);  // Line 2 dirty.
  EXPECT_EQ(new_bits.DirtyLines(old_bits, 8), 2u);
  EXPECT_EQ(old_bits.DirtyLines(old_bits, 8), 0u);
  // Everything different -> all 4 lines.
  EXPECT_EQ(old_bits.Inverted().DirtyLines(old_bits, 8), 4u);
}

TEST(BitVectorTest, DirtyLinesPartialTailLine) {
  BitVector a(10), b(10);
  b.Set(9, true);  // Lives in the second (partial) 8-bit line.
  EXPECT_EQ(a.DirtyLines(b, 8), 1u);
}

TEST(BitVectorTest, ToFloatsRoundTrip) {
  BitVector v = BitVector::FromString("0110");
  auto f = v.ToFloats();
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(BitVector::FromFloats(f), v);
}

TEST(BitVectorTest, FlipRandomBitsExactCount) {
  Rng rng(11);
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{100},
                   size_t{200}}) {
    BitVector v(200);
    BitVector orig = v;
    v.FlipRandomBits(n, rng);
    EXPECT_EQ(v.HammingDistance(orig), n) << "n=" << n;
  }
}

TEST(BitVectorTest, RandomizeIsDeterministicPerSeed) {
  Rng r1(99), r2(99);
  BitVector a(321), b(321);
  a.Randomize(r1);
  b.Randomize(r2);
  EXPECT_EQ(a, b);
}

TEST(BitVectorTest, EqualityRespectsSizeAndBits) {
  BitVector a(8), b(9);
  EXPECT_FALSE(a == b);
  BitVector c(8);
  EXPECT_TRUE(a == c);
  c.Set(3, true);
  EXPECT_FALSE(a == c);
}

// --- Word-level CopyBits/Slice/Overlay/Concat vs a bit-at-a-time oracle.

/// Random vector of `n` bits with a per-size seed.
BitVector RandomBits(size_t n, uint64_t seed) {
  Rng rng(seed * 0x9E37 + n);
  BitVector v(n);
  v.Randomize(rng);
  return v;
}

/// The oracle: dst with bits [d, d+len) replaced by src's [s, s+len),
/// one Get/Set at a time.
BitVector OracleCopy(BitVector dst, size_t d, const BitVector& src,
                     size_t s, size_t len) {
  for (size_t i = 0; i < len; ++i) dst.Set(d + i, src.Get(s + i));
  return dst;
}

/// Equality plus the tail-bit invariant: a stray bit past size() would
/// make Popcount (and ==) disagree with the oracle's.
bool SameBits(const BitVector& got, const BitVector& want) {
  return got == want && got.Popcount() == want.Popcount();
}

TEST(BitVectorCopyBitsTest, EveryOffsetAndLengthMatchesOracle) {
  // All (dst offset, src offset, length) over 200-bit vectors: chunks
  // that start, end or straddle any of the four words, plus len 0.
  constexpr size_t kN = 200;
  const BitVector src = RandomBits(kN, 1);
  const BitVector base = RandomBits(kN, 2);
  size_t cases = 0;
  for (size_t d = 0; d <= kN; ++d) {
    for (size_t s = 0; s <= kN; ++s) {
      for (size_t len = 0; d + len <= kN && s + len <= kN; ++len) {
        BitVector got = base;
        got.CopyBits(d, src, s, len);
        ++cases;
        if (!SameBits(got, OracleCopy(base, d, src, s, len))) {
          FAIL() << "CopyBits(d=" << d << ", s=" << s << ", len=" << len
                 << ")";
        }
      }
    }
  }
  EXPECT_GT(cases, 2000000u);
}

TEST(BitVectorCopyBitsTest, WordBoundaryLengthsAcrossSizes) {
  // Lengths 0, 63, 64, 65 (and the whole source) at every destination
  // offset, from word-edge source offsets, for every source size up to
  // 200 bits; the destination is 7 bits longer so tails of both shapes
  // are exercised.
  for (size_t n = 0; n <= 200; ++n) {
    const BitVector src = RandomBits(n, 3);
    const BitVector base = RandomBits(n + 7, 4);
    for (size_t len : {size_t{0}, size_t{63}, size_t{64}, size_t{65}, n}) {
      if (len > n) continue;
      for (size_t d = 0; d + len <= base.size(); ++d) {
        for (size_t s : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                         size_t{65}, n - len}) {
          if (s + len > n) continue;
          BitVector got = base;
          got.CopyBits(d, src, s, len);
          if (!SameBits(got, OracleCopy(base, d, src, s, len))) {
            FAIL() << "n=" << n << " CopyBits(d=" << d << ", s=" << s
                   << ", len=" << len << ")";
          }
        }
      }
    }
  }
}

TEST(BitVectorCopyBitsTest, SliceOverlayConcatMatchOracle) {
  std::vector<BitVector> patches;
  for (size_t len = 0; len <= 200; ++len) {
    patches.push_back(RandomBits(len, 6));
  }
  for (size_t n = 0; n <= 200; ++n) {
    const BitVector v = RandomBits(n, 5);
    const BitVector ones = BitVector(n).Inverted();
    for (size_t start = 0; start <= n; ++start) {
      for (size_t len = 0; start + len <= n; ++len) {
        // Slice: a fresh len-bit vector of v's [start, start+len).
        if (!SameBits(v.Slice(start, len),
                      OracleCopy(BitVector(len), 0, v, start, len))) {
          FAIL() << "n=" << n << " Slice(" << start << ", " << len << ")";
        }
        // Overlay a len-bit vector at start onto all-ones (so a
        // cleared bit outside the range would show).
        const BitVector& patch = patches[len];
        BitVector got = ones;
        got.Overlay(start, patch);
        if (!SameBits(got, OracleCopy(ones, start, patch, 0, len))) {
          FAIL() << "n=" << n << " Overlay(" << start << ", len " << len
                 << ")";
        }
      }
    }
    for (size_t m = 0; m <= 200; m += (m < 70 ? 1 : 13)) {
      const BitVector w = RandomBits(m, 7);
      BitVector want(n + m);
      want = OracleCopy(OracleCopy(want, 0, v, 0, n), n, w, 0, m);
      if (!SameBits(v.Concat(w), want)) {
        FAIL() << "Concat(" << n << ", " << m << ")";
      }
    }
  }
}

TEST(BitVectorCopyBitsTest, SetBitsAndAssignZeros) {
  BitVector v(130);
  v.SetBits(60, ~uint64_t{0}, 4);  // The top of word 0 only.
  EXPECT_EQ(v.Popcount(), 4u);
  for (size_t i = 60; i < 64; ++i) EXPECT_TRUE(v.Get(i)) << i;
  v.SetBits(64, ~uint64_t{0}, 64);  // A whole word.
  EXPECT_EQ(v.Popcount(), 68u);
  v.SetBits(66, 0, 62);  // Clears all but the bottom two bits of word 1.
  EXPECT_EQ(v.Popcount(), 6u);
  v.SetBits(128, ~uint64_t{0}, 2);  // The last two bits; tail stays 0.
  EXPECT_EQ(v.Popcount(), 8u);
  v.AssignZeros(70);
  EXPECT_EQ(v, BitVector(70));
  v.AssignZeros(130);
  EXPECT_EQ(v, BitVector(130));
}

class BitVectorSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitVectorSizeTest, PopcountMatchesManualCount) {
  size_t n = GetParam();
  Rng rng(n * 31 + 1);
  BitVector v(n);
  v.Randomize(rng);
  size_t manual = 0;
  for (size_t i = 0; i < n; ++i) manual += v.Get(i) ? 1 : 0;
  EXPECT_EQ(v.Popcount(), manual);
}

TEST_P(BitVectorSizeTest, SliceConcatIdentity) {
  size_t n = GetParam();
  if (n < 2) return;
  Rng rng(n);
  BitVector v(n);
  v.Randomize(rng);
  size_t cut = n / 2;
  EXPECT_EQ(v.Slice(0, cut).Concat(v.Slice(cut, n - cut)), v);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorSizeTest,
                         ::testing::Values(1, 7, 8, 63, 64, 65, 127, 128,
                                           1000, 2048));

}  // namespace
}  // namespace e2nvm
