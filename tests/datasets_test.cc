#include "workload/datasets.h"

#include <gtest/gtest.h>

#include "common/histogram.h"

namespace e2nvm::workload {
namespace {

/// Mean intra-class and inter-class Hamming distances (the property all
/// generators must supply: intra << inter).
std::pair<double, double> ClassDistances(const BitDataset& ds,
                                         size_t max_pairs = 2000) {
  RunningStat intra, inter;
  size_t n = ds.size();
  size_t step = std::max<size_t>(1, n * n / (max_pairs * 2));
  size_t pair_idx = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (pair_idx++ % step != 0) continue;
      double d = static_cast<double>(ds.items[i].HammingDistance(
          ds.items[j]));
      if (ds.labels[i] == ds.labels[j]) {
        intra.Add(d);
      } else {
        inter.Add(d);
      }
    }
  }
  return {intra.mean(), inter.mean()};
}

TEST(ProtoDatasetTest, ShapeAndLabels) {
  ProtoConfig cfg;
  cfg.dim = 128;
  cfg.num_classes = 4;
  cfg.samples = 200;
  BitDataset ds = MakeProtoDataset(cfg);
  EXPECT_EQ(ds.size(), 200u);
  EXPECT_EQ(ds.dim, 128u);
  ASSERT_EQ(ds.labels.size(), 200u);
  for (int l : ds.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 4);
  }
  for (const auto& item : ds.items) EXPECT_EQ(item.size(), 128u);
}

TEST(ProtoDatasetTest, IntraClassMuchCloserThanInter) {
  ProtoConfig cfg;
  cfg.dim = 256;
  cfg.num_classes = 6;
  cfg.samples = 300;
  cfg.noise = 0.05;
  BitDataset ds = MakeProtoDataset(cfg);
  auto [intra, inter] = ClassDistances(ds);
  EXPECT_LT(intra, inter * 0.5) << "intra=" << intra
                                << " inter=" << inter;
  // Expected intra distance ~= 2 * noise * (1-noise) * dim.
  EXPECT_NEAR(intra, 2 * 0.05 * 0.95 * 256, 10.0);
}

TEST(ProtoDatasetTest, DeterministicPerSeed) {
  ProtoConfig cfg;
  cfg.samples = 20;
  BitDataset a = MakeProtoDataset(cfg);
  BitDataset b = MakeProtoDataset(cfg);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.items[i], b.items[i]);
}

TEST(ImageLikeDatasetsTest, StructuralProperties) {
  for (auto maker : {MakeMnistLike, MakeFashionLike}) {
    BitDataset ds = maker(300, 7, 0.05);
    EXPECT_EQ(ds.dim, 784u);
    auto [intra, inter] = ClassDistances(ds);
    EXPECT_LT(intra, inter) << ds.name;
  }
  BitDataset cifar = MakeCifarLike(300, 7);
  EXPECT_EQ(cifar.dim, 1024u);
  auto [intra, inter] = ClassDistances(cifar);
  EXPECT_LT(intra, inter);
}

TEST(ImageLikeDatasetsTest, FamiliesDiffer) {
  // MNIST-like and Fashion-like with the same seed must produce different
  // prototype families (Fig 17's distribution shift relies on it).
  BitDataset a = MakeMnistLike(50, 3);
  BitDataset b = MakeFashionLike(50, 3);
  RunningStat cross;
  for (size_t i = 0; i < 50; ++i) {
    cross.Add(static_cast<double>(a.items[i].HammingDistance(b.items[i])));
  }
  EXPECT_GT(cross.mean(), 40.0);
}

TEST(VideoDatasetTest, ConsecutiveFramesAreClose) {
  VideoConfig cfg;
  cfg.dim = 512;
  cfg.frames = 300;
  cfg.frame_noise = 0.02;
  cfg.scene_len = 50;
  BitDataset ds = MakeVideoDataset(cfg);
  ASSERT_EQ(ds.size(), 300u);
  RunningStat within_scene, at_cuts;
  for (size_t f = 1; f < ds.size(); ++f) {
    double d = static_cast<double>(
        ds.items[f].HammingDistance(ds.items[f - 1]));
    if (f % cfg.scene_len == 0) {
      at_cuts.Add(d);
    } else {
      within_scene.Add(d);
    }
  }
  // Motion flips ~2% of bits per frame; scene cuts flip ~25%.
  EXPECT_NEAR(within_scene.mean(), 0.02 * 512, 4.0);
  EXPECT_GT(at_cuts.mean(), 0.2 * 512);
  EXPECT_LT(at_cuts.mean(), 0.35 * 512);
  // Scene labels advance at cuts.
  EXPECT_EQ(ds.labels.front(), 0);
  EXPECT_EQ(ds.labels.back(), static_cast<int>(299 / 50));
}

TEST(StructuredVideoTest, PanKeepsFramesCloseWithinScene) {
  workload::StructuredVideoConfig cfg;
  cfg.side = 16;
  cfg.frames = 200;
  cfg.scene_len = 40;
  cfg.noise = 0.0;
  BitDataset ds = MakeStructuredVideoDataset(cfg);
  ASSERT_EQ(ds.size(), 200u);
  EXPECT_EQ(ds.dim, 256u);
  // Consecutive frames (one-pixel pan) are much closer than frames from
  // different scenes.
  RunningStat consecutive, cross_scene;
  for (size_t f = 1; f < ds.size(); ++f) {
    double d = static_cast<double>(
        ds.items[f].HammingDistance(ds.items[f - 1]));
    if (ds.labels[f] == ds.labels[f - 1]) {
      consecutive.Add(d);
    } else {
      cross_scene.Add(d);
    }
  }
  EXPECT_LT(consecutive.mean(), cross_scene.mean() * 0.7);
  // A pan preserves popcount exactly when noise is 0.
  EXPECT_EQ(ds.items[0].Popcount(), ds.items[1].Popcount());
}

TEST(AccessLogDatasetTest, PopularResourcesCluster) {
  BitDataset ds = MakeAccessLogDataset(500, 256, 11);
  EXPECT_EQ(ds.dim, 256u);
  auto [intra, inter] = ClassDistances(ds);
  EXPECT_LT(intra, inter);
}

TEST(RoadNetworkDatasetTest, SameRoadPointsAreClose) {
  BitDataset ds = MakeRoadNetworkDataset(256, 192, 13);
  EXPECT_EQ(ds.dim, 192u);
  auto [intra, inter] = ClassDistances(ds);
  EXPECT_LT(intra, inter);
}

TEST(PubMedDatasetTest, TopicalSparsity) {
  BitDataset ds = MakePubMedLike(300, 512, 6, 17);
  // Sparse: well under half the bits set.
  RunningStat density;
  for (const auto& item : ds.items) {
    density.Add(static_cast<double>(item.Popcount()) / 512.0);
  }
  EXPECT_LT(density.mean(), 0.25);
  auto [intra, inter] = ClassDistances(ds);
  EXPECT_LT(intra, inter);
}

TEST(ResizeItemsTest, TilesAndTruncates) {
  ProtoConfig cfg;
  cfg.dim = 100;
  cfg.samples = 10;
  BitDataset ds = MakeProtoDataset(cfg);
  BitDataset big = ResizeItems(ds, 250);
  EXPECT_EQ(big.dim, 250u);
  for (size_t i = 0; i < big.size(); ++i) {
    EXPECT_EQ(big.items[i].Slice(0, 100), ds.items[i]);
    EXPECT_EQ(big.items[i].Slice(100, 100), ds.items[i]);  // Tiled.
  }
  BitDataset small = ResizeItems(ds, 40);
  EXPECT_EQ(small.items[0], ds.items[0].Slice(0, 40));
}

TEST(MixedDatasetTest, CoversFamilies) {
  BitDataset ds = MakeMixedRealDataset(200, 512, 19);
  EXPECT_EQ(ds.size(), 200u);
  EXPECT_EQ(ds.dim, 512u);
  std::vector<int> family_counts(5, 0);
  for (int l : ds.labels) {
    ASSERT_GE(l, 0);
    ASSERT_LT(l, 5);
    ++family_counts[l];
  }
  for (int c : family_counts) EXPECT_GT(c, 0);
}

TEST(SplitTest, FractionRespected) {
  ProtoConfig cfg;
  cfg.samples = 100;
  BitDataset ds = MakeProtoDataset(cfg);
  auto [train, test] = ds.Split(0.8);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(test.size(), 20u);
  EXPECT_EQ(train.labels.size(), 80u);
  EXPECT_EQ(train.items[0], ds.items[0]);
  EXPECT_EQ(test.items[0], ds.items[80]);
}

TEST(ToBitRowsTest, ItemsBecomeRows) {
  BitDataset ds;
  ds.dim = 4;
  ds.items.push_back(BitVector::FromString("0110"));
  ds.items.push_back(BitVector::FromString("1001"));
  ml::BitRows m = ds.ToBitRows();
  EXPECT_EQ(m.num_rows, 2u);
  EXPECT_EQ(m.dim, 4u);
  EXPECT_EQ(m.row_words, 1u);
  EXPECT_FALSE(m.Get(0, 0));
  EXPECT_TRUE(m.Get(0, 1));
  EXPECT_EQ(m.BitRow(0)[0], 0b0110u);
  EXPECT_EQ(m.BitRow(1)[0], 0b1001u);
}

}  // namespace
}  // namespace e2nvm::workload
