#include "core/padding.h"

#include <gtest/gtest.h>

#include <string>

#include "ml/kmeans.h"
#include "workload/datasets.h"

namespace e2nvm::core {
namespace {

TEST(PaddingTest, NamesStable) {
  EXPECT_EQ(PadTypeName(PadType::kZero), "zero");
  EXPECT_EQ(PadTypeName(PadType::kLearned), "LB");
  EXPECT_EQ(PadLocationName(PadLocation::kMiddle), "middle");
}

TEST(PaddingTest, AssembleMatchesFig5Layouts) {
  // Fig 5: d1 = [0,0,0,1], pad of 4 bits (all '1' here to be visible).
  BitVector input = BitVector::FromString("0001");
  BitVector pad = BitVector::FromString("1111");
  EXPECT_EQ(Padder::Assemble(input, pad, PadLocation::kBegin).ToString(),
            "11110001");
  EXPECT_EQ(Padder::Assemble(input, pad, PadLocation::kEnd).ToString(),
            "00011111");
  EXPECT_EQ(Padder::Assemble(input, pad, PadLocation::kMiddle).ToString(),
            "11000111");  // Split halves around the data? No: pad/2 each
                          // side of the 4-bit data: 11 0001 11.
}

TEST(PaddingTest, OnePaddingBeginMatchesPaperExample) {
  // §4.1.1: one-padding, beginning location on d1=[0,0,0,1] with model
  // width 8 yields [1,1,1,1,0,0,0,1].
  Padder padder(PadType::kOne, PadLocation::kBegin, 8);
  PaddingContext ctx;
  auto out = padder.Pad(BitVector::FromString("0001"), ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->ToString(), "11110001");
}

TEST(PaddingTest, ZeroPaddingAllLocations) {
  PaddingContext ctx;
  BitVector input = BitVector::FromString("0001");
  for (auto loc : {PadLocation::kBegin, PadLocation::kMiddle,
                   PadLocation::kEnd}) {
    Padder padder(PadType::kZero, loc, 8);
    auto out = padder.Pad(input, ctx);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), 8u);
    EXPECT_EQ(out->Popcount(), 1u);  // Only the input's single 1.
  }
}

TEST(PaddingTest, ExactWidthPassThrough) {
  Padder padder(PadType::kOne, PadLocation::kEnd, 8);
  PaddingContext ctx;
  BitVector input = BitVector::FromString("10101010");
  auto out = padder.Pad(input, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(PaddingTest, TooWideRejected) {
  Padder padder(PadType::kZero, PadLocation::kEnd, 4);
  PaddingContext ctx;
  auto out = padder.Pad(BitVector(8), ctx);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(PaddingTest, RandomNeedsRng) {
  Padder padder(PadType::kRandom, PadLocation::kEnd, 8);
  PaddingContext ctx;  // No rng.
  auto out = padder.Pad(BitVector(4), ctx);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  Rng rng(1);
  ctx.rng = &rng;
  EXPECT_TRUE(padder.Pad(BitVector(4), ctx).ok());
}

TEST(PaddingTest, InputBasedMatchesInputDensity) {
  // IB: pad bits are Bernoulli with the input's ones-ratio (§4.1.2).
  Rng rng(3);
  PaddingContext ctx;
  ctx.rng = &rng;
  // Input of 256 bits, 25% ones; pad 768 bits.
  BitVector input(256);
  for (size_t i = 0; i < 64; ++i) input.Set(i, true);
  Padder padder(PadType::kInputBased, PadLocation::kEnd, 1024);
  auto out = padder.Pad(input, ctx);
  ASSERT_TRUE(out.ok());
  size_t pad_ones = out->Popcount() - 64;
  EXPECT_NEAR(static_cast<double>(pad_ones) / 768.0, 0.25, 0.06);
}

TEST(PaddingTest, DatasetAndMemoryBasedUseContextRatios) {
  Rng rng(4);
  PaddingContext ctx;
  ctx.rng = &rng;
  ctx.dataset_ones_ratio = 0.9;
  ctx.memory_ones_ratio = 0.1;
  BitVector input(64);
  Padder db(PadType::kDatasetBased, PadLocation::kEnd, 1024);
  Padder mb(PadType::kMemoryBased, PadLocation::kEnd, 1024);
  auto dbout = db.Pad(input, ctx);
  auto mbout = mb.Pad(input, ctx);
  ASSERT_TRUE(dbout.ok());
  ASSERT_TRUE(mbout.ok());
  EXPECT_GT(dbout->Popcount(), 960u * 8 / 10);
  EXPECT_LT(mbout->Popcount(), 960u * 2 / 10);
}

TEST(PaddingTest, OnesRatioHelper) {
  EXPECT_DOUBLE_EQ(OnesRatio(BitVector::FromString("1100")), 0.5);
  EXPECT_DOUBLE_EQ(OnesRatio(BitVector()), 0.5);  // Neutral default.
}

// --- PadInto vs the composition it replaces: a whole Bernoulli pad
// drawn first, then Assemble'd around the input.

/// The reference padder: generate all q pad bits bit-by-bit in pad
/// order, then place them with Assemble (Fig 5).
BitVector ReferencePad(PadType type, PadLocation loc, size_t dim,
                       const BitVector& input, const PaddingContext& ctx) {
  if (input.size() == dim) return input;
  const size_t q = dim - input.size();
  BitVector pad(q);
  double p = 0.0;
  switch (type) {
    case PadType::kZero:
      return Padder::Assemble(input, pad, loc);
    case PadType::kOne:
      for (size_t i = 0; i < q; ++i) pad.Set(i, true);
      return Padder::Assemble(input, pad, loc);
    case PadType::kRandom:
      p = 0.5;
      break;
    case PadType::kInputBased:
      p = OnesRatio(input);
      break;
    case PadType::kDatasetBased:
      p = ctx.dataset_ones_ratio;
      break;
    case PadType::kMemoryBased:
      p = ctx.memory_ones_ratio;
      break;
    case PadType::kLearned:
      ADD_FAILURE() << "no reference for learned padding";
      return input;
  }
  for (size_t i = 0; i < q; ++i) pad.Set(i, ctx.rng->NextBernoulli(p));
  return Padder::Assemble(input, pad, loc);
}

TEST(PaddingTest, PadIntoMatchesAssembledReference) {
  const PadType kTypes[] = {PadType::kZero,         PadType::kOne,
                            PadType::kRandom,       PadType::kInputBased,
                            PadType::kDatasetBased, PadType::kMemoryBased};
  Rng data_rng(21);
  for (size_t dim : {size_t{256}, size_t{300}}) {
    for (PadType type : kTypes) {
      for (auto loc : {PadLocation::kBegin, PadLocation::kMiddle,
                       PadLocation::kEnd}) {
        Padder padder(type, loc, dim);
        BitVector out;  // Reused across widths, as the engine reuses it.
        for (size_t width : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                             size_t{65}, size_t{127}, dim - 1, dim}) {
          BitVector input(width);
          input.Randomize(data_rng);
          // Two generators on the same stream: the reference and PadInto
          // must consume exactly the same draws.
          const uint64_t seed = dim * 1000 + width;
          Rng ref_rng(seed), rng(seed);
          PaddingContext ref_ctx;
          ref_ctx.dataset_ones_ratio = 0.7;
          ref_ctx.memory_ones_ratio = 0.2;
          ref_ctx.rng = &ref_rng;
          PaddingContext ctx = ref_ctx;
          ctx.rng = &rng;
          const BitVector want = ReferencePad(type, loc, dim, input, ref_ctx);
          ASSERT_TRUE(padder.PadInto(input, ctx, &out).ok());
          const std::string where =
              std::string(PadTypeName(type)) + "/" +
              std::string(PadLocationName(loc)) +
              " dim=" + std::to_string(dim) +
              " width=" + std::to_string(width);
          EXPECT_EQ(out, want) << where;
          EXPECT_EQ(out.Popcount(), want.Popcount()) << where;
          EXPECT_EQ(rng.NextU64(), ref_rng.NextU64())
              << where << ": draw count differs";
          // Pad() is the allocating wrapper of the same computation.
          Rng pad_rng(seed);
          ctx.rng = &pad_rng;
          auto padded = padder.Pad(input, ctx);
          ASSERT_TRUE(padded.ok()) << where;
          EXPECT_EQ(*padded, want) << where;
        }
      }
    }
  }
}

TEST(PaddingTest, PadIntoFullWidthNeedsNoGenerator) {
  PaddingContext ctx;  // No rng, no LSTM.
  BitVector out = BitVector::FromString("1");
  // An error leaves `out` unchanged.
  EXPECT_EQ(Padder(PadType::kMemoryBased, PadLocation::kMiddle, 8)
                .PadInto(BitVector(4), ctx, &out)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(out.ToString(), "1");
  // A full-width input draws nothing, so it passes through.
  BitVector full = BitVector::FromString("10110010");
  ASSERT_TRUE(Padder(PadType::kMemoryBased, PadLocation::kBegin, 8)
                  .PadInto(full, ctx, &out)
                  .ok());
  EXPECT_EQ(out, full);
}

TEST(PaddingTest, LearnedNeedsLstm) {
  Padder padder(PadType::kLearned, PadLocation::kEnd, 128);
  PaddingContext ctx;
  auto out = padder.Pad(BitVector(64), ctx);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

class LearnedPaddingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Periodic-structure dataset the LSTM can learn.
    workload::VideoConfig vc;
    vc.dim = 512;
    vc.frames = 60;
    vc.frame_noise = 0.01;
    vc.scene_len = 30;
    vc.seed = 5;
    train_ = workload::MakeVideoDataset(vc);
    ml::LstmConfig lc;
    lc.input_size = 8;
    lc.timesteps = 8;
    lc.hidden_size = 10;
    lc.output_size = 8;
    auto lstm = TrainPaddingLstm(train_, lc, /*epochs=*/3,
                                 /*max_windows=*/2000);
    ASSERT_TRUE(lstm.ok()) << lstm.status().ToString();
    lstm_ = std::move(*lstm);
  }

  workload::BitDataset train_;
  std::unique_ptr<ml::Lstm> lstm_;
};

TEST_F(LearnedPaddingTest, GeneratesRequestedWidthAllLocations) {
  PaddingContext ctx;
  ctx.lstm = lstm_.get();
  BitVector input = train_.items[0].Slice(0, 300);
  for (auto loc : {PadLocation::kBegin, PadLocation::kMiddle,
                   PadLocation::kEnd}) {
    Padder padder(PadType::kLearned, loc, 512);
    auto out = padder.Pad(input, ctx);
    ASSERT_TRUE(out.ok()) << PadLocationName(loc);
    EXPECT_EQ(out->size(), 512u);
  }
  // End padding preserves the input prefix.
  Padder end_padder(PadType::kLearned, PadLocation::kEnd, 512);
  auto out = end_padder.Pad(input, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Slice(0, 300), input);
}

TEST_F(LearnedPaddingTest, TrainRejectsTinyItems) {
  workload::BitDataset tiny;
  tiny.dim = 16;
  tiny.items.assign(4, BitVector(16));
  ml::LstmConfig lc;
  lc.input_size = 8;
  lc.timesteps = 8;
  lc.output_size = 8;
  auto lstm = TrainPaddingLstm(tiny, lc, 1);
  EXPECT_EQ(lstm.status().code(), StatusCode::kInvalidArgument);
}

TEST(PaddingTable1Test, PaperExampleClusterAssignments) {
  // Build the 12-segment memory of Table 1, cluster into 3 groups with
  // K-means on the raw bits, and verify the table's grouping is
  // recoverable: rows 0-3, 4-7, 8-11 form the three clusters.
  const char* contents[12] = {
      "00111101", "00101100", "00111100", "00111000",
      "10001011", "00001011", "00001111", "00001010",
      "10110000", "01110010", "11110000", "11010000",
  };
  ml::Matrix x(12, 8);
  for (size_t i = 0; i < 12; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      x(i, j) = contents[i][j] == '1' ? 1.0f : 0.0f;
    }
  }
  // Multi-restart: keep the lowest-SSE fit (12 points are small enough
  // for k-means++ to hit bad local optima on a single seed).
  std::unique_ptr<ml::KMeans> best;
  double best_sse = 1e300;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    auto km = std::make_unique<ml::KMeans>(
        ml::KMeansConfig{.k = 3, .max_iters = 100, .seed = seed});
    ASSERT_TRUE(km->Fit(x).ok());
    double sse = km->Sse(x);
    if (sse < best_sse) {
      best_sse = sse;
      best = std::move(km);
    }
  }
  ml::KMeans& km = *best;
  auto assign = km.PredictBatch(x);
  for (size_t group = 0; group < 3; ++group) {
    for (size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(assign[group * 4 + i], assign[group * 4])
          << "row " << group * 4 + i;
    }
  }
  EXPECT_NE(assign[0], assign[4]);
  EXPECT_NE(assign[4], assign[8]);
  EXPECT_NE(assign[0], assign[8]);

  // One-padding at the beginning on d1=[0,0,0,1] produces 11110001,
  // which Fig 5 assigns to the cluster of rows 8-11 (the '1'-heavy
  // prefix group).
  std::vector<float> padded(8);
  BitVector p = BitVector::FromString("11110001");
  for (size_t j = 0; j < 8; ++j) padded[j] = p.Get(j) ? 1.0f : 0.0f;
  EXPECT_EQ(km.Predict(padded.data(), 8), assign[8]);

  // Zero-padding at the beginning gives 00000001, closest to the
  // cluster of rows 4-7 (sparse prefix group) per Fig 5.
  std::vector<float> zp(8, 0.0f);
  zp[7] = 1.0f;
  EXPECT_EQ(km.Predict(zp.data(), 8), assign[4]);
}

}  // namespace
}  // namespace e2nvm::core
