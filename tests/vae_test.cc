#include "ml/vae.h"

#include <gtest/gtest.h>

#include <array>

#include "common/kernels.h"
#include "common/rng.h"
#include "core/e2_model.h"

namespace e2nvm::ml {
namespace {

void SetBit(BitRows& x, size_t r, size_t d) {
  x.BitRow(r)[d >> 6] |= uint64_t{1} << (d & 63);
}

/// Two-prototype binary dataset: easy structure a tiny VAE must learn.
BitRows TwoProtoData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  BitRows x(n, dim);
  for (size_t i = 0; i < n; ++i) {
    bool cls = (i % 2) == 0;
    for (size_t d = 0; d < dim; ++d) {
      // Class 0: first half ones; class 1: second half ones; 5% noise.
      bool bit = cls ? (d < dim / 2) : (d >= dim / 2);
      if (rng.NextBernoulli(0.05)) bit = !bit;
      if (bit) SetBit(x, i, d);
    }
  }
  return x;
}

std::vector<float> RowFloats(const BitRows& x, size_t r) {
  std::vector<float> f(x.dim);
  Ops().bits_to_floats(x.BitRow(r), x.dim, f.data());
  return f;
}

VaeConfig SmallConfig(size_t dim = 64) {
  VaeConfig c;
  c.input_dim = dim;
  c.hidden_dim = 32;
  c.latent_dim = 4;
  c.beta = 0.1f;
  c.seed = 42;
  return c;
}

TEST(VaeTest, ShapesAreCorrect) {
  Vae vae(SmallConfig());
  BitRows x = TwoProtoData(10, 64, 1);
  Matrix mu = vae.EncodeMu(x);
  EXPECT_EQ(mu.rows(), 10u);
  EXPECT_EQ(mu.cols(), 4u);
  Matrix probs = vae.Decode(mu);
  EXPECT_EQ(probs.rows(), 10u);
  EXPECT_EQ(probs.cols(), 64u);
  for (float p : probs.data()) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(VaeTest, EncodeOneMatchesBatch) {
  Vae vae(SmallConfig());
  BitRows x = TwoProtoData(3, 64, 2);
  Matrix mu = vae.EncodeMu(x);
  auto one = vae.EncodeOne(RowFloats(x, 1));
  ASSERT_EQ(one.size(), 4u);
  // The float reference and the bit-native encoder add the same terms
  // in the same order.
  for (size_t d = 0; d < 4; ++d) EXPECT_EQ(one[d], mu(1, d)) << d;
}

TEST(VaeTest, TrainingReducesLoss) {
  Vae vae(SmallConfig());
  BitRows x = TwoProtoData(200, 64, 3);
  double before = vae.EvalLoss(x);
  VaeTrainOptions opts;
  opts.epochs = 8;
  opts.batch_size = 32;
  TrainHistory h = vae.Train(x, opts);
  double after = vae.EvalLoss(x);
  EXPECT_LT(after, before * 0.75);
  ASSERT_EQ(h.train_loss.size(), 8u);
  ASSERT_EQ(h.val_loss.size(), 8u);
  // Learning curve: final epoch loss well below the first (Fig 9 shape).
  EXPECT_LT(h.train_loss.back(), h.train_loss.front() * 0.8);
  EXPECT_GT(h.flops, 0.0);
}

TEST(VaeTest, LatentSeparatesClasses) {
  Vae vae(SmallConfig());
  BitRows x = TwoProtoData(200, 64, 4);
  VaeTrainOptions opts;
  opts.epochs = 12;
  opts.batch_size = 32;
  vae.Train(x, opts);
  Matrix mu = vae.EncodeMu(x);
  // Mean latent of class 0 vs class 1 must be farther apart than the
  // average intra-class spread.
  std::vector<double> m0(4, 0), m1(4, 0);
  size_t n0 = 0, n1 = 0;
  for (size_t i = 0; i < mu.rows(); ++i) {
    for (size_t d = 0; d < 4; ++d) {
      if (i % 2 == 0) {
        m0[d] += mu(i, d);
      } else {
        m1[d] += mu(i, d);
      }
    }
    (i % 2 == 0 ? n0 : n1) += 1;
  }
  double between = 0;
  for (size_t d = 0; d < 4; ++d) {
    m0[d] /= n0;
    m1[d] /= n1;
    between += (m0[d] - m1[d]) * (m0[d] - m1[d]);
  }
  double within = 0;
  for (size_t i = 0; i < mu.rows(); ++i) {
    const auto& m = (i % 2 == 0) ? m0 : m1;
    for (size_t d = 0; d < 4; ++d) {
      within += (mu(i, d) - m[d]) * (mu(i, d) - m[d]);
    }
  }
  within /= mu.rows();
  EXPECT_GT(between, 2.0 * within);
}

TEST(VaeTest, ReconstructionBeatsChanceAfterTraining) {
  Vae vae(SmallConfig());
  BitRows x = TwoProtoData(200, 64, 5);
  VaeTrainOptions opts;
  opts.epochs = 12;
  opts.batch_size = 32;
  vae.Train(x, opts);
  Matrix mu = vae.EncodeMu(x);
  Matrix probs = vae.Decode(mu);
  size_t correct = 0;
  for (size_t i = 0; i < probs.size(); ++i) {
    if ((probs.data()[i] >= 0.5f) == x.Get(i / 64, i % 64)) ++correct;
  }
  double accuracy = static_cast<double>(correct) / probs.size();
  EXPECT_GT(accuracy, 0.85);
}

TEST(VaeTest, ValidationSplitIsHonored) {
  Vae vae(SmallConfig());
  BitRows x = TwoProtoData(100, 64, 6);
  VaeTrainOptions opts;
  opts.epochs = 2;
  opts.validation_fraction = 0.2;
  TrainHistory h = vae.Train(x, opts);
  // Validation loss should be finite and comparable to train loss.
  EXPECT_GT(h.val_loss.back(), 0.0);
  EXPECT_LT(h.val_loss.back(), 10.0 * h.train_loss.back() + 100.0);
}

TEST(VaeTest, DeterministicPerSeed) {
  VaeConfig c = SmallConfig();
  Vae a(c), b(c);
  BitRows x = TwoProtoData(50, 64, 7);
  VaeTrainOptions opts;
  opts.epochs = 2;
  a.Train(x, opts);
  b.Train(x, opts);
  Matrix za = a.EncodeMu(x), zb = b.EncodeMu(x);
  for (size_t i = 0; i < za.size(); ++i) {
    EXPECT_FLOAT_EQ(za.data()[i], zb.data()[i]);
  }
}

TEST(VaeTest, ClusterRegularizerPullsTowardCentroid) {
  VaeConfig c = SmallConfig();
  Vae vae(c);
  BitRows x = TwoProtoData(32, 64, 8);
  // One fake centroid at the origin with huge weight: latents shrink.
  Matrix centroids(1, 4);
  std::vector<size_t> assign(32, 0);
  double norm_before = FrobeniusSq(vae.EncodeMu(x));
  VaeTrainOptions opts;
  opts.centroids = &centroids;
  opts.assignments = &assign;
  opts.cluster_weight = 5.0f;
  for (int i = 0; i < 30; ++i) vae.TrainBatch(x, opts);
  double norm_after = FrobeniusSq(vae.EncodeMu(x));
  EXPECT_LT(norm_after, norm_before);
}

TEST(VaeTest, FlopsEstimatesPositiveAndOrdered) {
  Vae vae(SmallConfig());
  EXPECT_GT(vae.PredictFlops(), 0.0);
  EXPECT_GT(vae.TrainStepFlops(32), vae.PredictFlops());
  EXPECT_GT(vae.ParamCount(), 0u);
}

// ---------------------------------------------------------------------
// Golden training fixtures. The numbers below were recorded from the
// float training path (0.0/1.0 input matrices, a float first layer with
// an input gradient, two-log BCE) before training became bit-native:
// the exact per-epoch losses, the modelled flops, and a CRC32C of every
// parameter block after training. The bit-native path must reproduce
// them bit for bit on every SIMD tier.

using ParamCrcs = std::array<uint32_t, 10>;

/// Rows cycle through three column phases: bit d of row i is set with
/// probability 0.8 when d % 3 == i % 3, else 0.15.
BitRows GoldenData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  BitRows x(n, dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      if (rng.NextBernoulli(d % 3 == i % 3 ? 0.8 : 0.15)) SetBit(x, i, d);
    }
  }
  return x;
}

uint32_t CrcOf(const Matrix& m) {
  return Crc32c(m.data().data(), m.size() * sizeof(float));
}

void ExpectParams(Vae& vae, const ParamCrcs& want) {
  std::vector<ParamBlock*> params = vae.Params();
  ASSERT_EQ(params.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(CrcOf(params[i]->value), want[i]) << "param block " << i;
  }
}

struct VaeGolden {
  size_t n, dim, hidden, latent, batch;
  int epochs;
  double validation;
  std::vector<double> train_loss, val_loss;
  double flops;
  ParamCrcs crc;
};

void ExpectVaeGolden(const VaeGolden& g) {
  VaeConfig c;
  c.input_dim = g.dim;
  c.hidden_dim = g.hidden;
  c.latent_dim = g.latent;
  c.beta = 0.1f;
  c.seed = 42;
  Vae vae(c);
  VaeTrainOptions opts;
  opts.epochs = g.epochs;
  opts.batch_size = g.batch;
  opts.validation_fraction = g.validation;
  TrainHistory h = vae.Train(GoldenData(g.n, g.dim, g.dim + g.n), opts);
  EXPECT_EQ(h.train_loss, g.train_loss);
  EXPECT_EQ(h.val_loss, g.val_loss);
  EXPECT_EQ(h.flops, g.flops);
  ExpectParams(vae, g.crc);
}

TEST(VaeGoldenTest, Dim64TrailingPartialBatch) {
  // 180 training rows: batches of 64, 64 and 52.
  ExpectVaeGolden({200, 64, 32, 4, 64, 3, 0.1,
                   {0x1.666458e007125p+5, 0x1.63f842ced8f87p+5,
                    0x1.6304ace3cf565p+5},
                   {0x1.61762c8f38937p+5, 0x1.607f446a1eacbp+5,
                    0x1.5f8e93d591ae8p+5},
                   0x1.be22p+23,
                   {0xa9a28abau, 0x421aa90fu, 0xfdc9653au, 0x4e039773u,
                    0x090acc06u, 0x0b59d9f0u, 0x2f5d5c6bu, 0x499d3e00u,
                    0xa9f07b06u, 0xe0ee7d9au}});
}

TEST(VaeGoldenTest, Dim100NotAMultipleOf64) {
  ExpectVaeGolden({200, 100, 32, 4, 64, 3, 0.1,
                   {0x1.176d0be0b9eafp+6, 0x1.15f5fa8ca02e7p+6,
                    0x1.140da1acfc609p+6},
                   {0x1.14637d0836db3p+6, 0x1.13713e6be206fp+6,
                    0x1.1281db6d5d843p+6},
                   0x1.50f9p+24,
                   {0x6d7658cfu, 0xcaad1c6bu, 0xc86ad508u, 0xe439f165u,
                    0x4afb87e3u, 0x8b8d8d65u, 0xc679d442u, 0xaa96fa05u,
                    0x418fe6fau, 0xa2b6b2bau}});
}

TEST(VaeGoldenTest, Dim512) {
  ExpectVaeGolden({160, 512, 64, 10, 64, 2, 0.1,
                   {0x1.65b8e9232debdp+8, 0x1.6204d13d1332p+8},
                   {0x1.61d320ac6c8afp+8, 0x1.609ace651655ap+8},
                   0x1.bd14p+26,
                   {0x6d217bcfu, 0x1a97889au, 0x343bb2c6u, 0x11942537u,
                    0x1d529777u, 0xe2f67546u, 0x475e8522u, 0x5f4a1abau,
                    0x6ee1a1bfu, 0xb0b0ccb0u}});
}

TEST(VaeGoldenTest, Batch70SpansTwoMaskWords) {
  // 180 training rows: batches of 70, 70 and 40.
  ExpectVaeGolden({200, 100, 32, 4, 70, 3, 0.1,
                   {0x1.1756fbbf5dab7p+6, 0x1.15f0b2f4162c7p+6,
                    0x1.13eaeef4d7431p+6},
                   {0x1.14603f0eb3d7ep+6, 0x1.136d7eea120eap+6,
                    0x1.12787df29eb6bp+6},
                   0x1.50f9p+24,
                   {0x3518e348u, 0x660c8b57u, 0xcc27e979u, 0x87ebe98du,
                    0xbe349ee9u, 0x799c9f19u, 0xb16cdeddu, 0x5e0f6095u,
                    0x065f76e3u, 0x6d38100fu}});
}

TEST(VaeGoldenTest, TrailingSingleRowBatch) {
  // 129 rows and no validation split: batches of 64, 64 and 1.
  ExpectVaeGolden({129, 64, 32, 4, 64, 2, 0.0,
                   {0x1.6897b60cefe75p+5, 0x1.645578d3d44f5p+5},
                   {0x1.6897b60cefe75p+5, 0x1.645578d3d44f5p+5},
                   0x1.aa4ep+22,
                   {0x84854754u, 0x27b09dd5u, 0x81e9bc1du, 0xf196d80du,
                    0xd5df3911u, 0xf8055c68u, 0xcd2e14c7u, 0xa40c0925u,
                    0xc61846d2u, 0x4065567au}});
}

TEST(VaeGoldenTest, PartialFitBatch8) {
  VaeConfig c;
  c.input_dim = 100;
  c.hidden_dim = 32;
  c.latent_dim = 4;
  c.beta = 0.1f;
  c.seed = 42;
  Vae vae(c);
  // 36 rows: chunks of 8, 8, 8, 8 and 4.
  EXPECT_EQ(vae.PartialFit(GoldenData(36, 100, 5), 8), 0x1.677p+20);
  ExpectParams(vae, {0xea40d4f7u, 0x247386efu, 0xeaa7c6f9u, 0x1de675a0u,
                     0xe25958adu, 0xba252c29u, 0x3cc99ec3u, 0x5b3d6563u,
                     0x600d86dfu, 0x6fbee04fu});
}

core::E2ModelConfig GoldenModelConfig() {
  core::E2ModelConfig mc;
  mc.input_dim = 100;
  mc.k = 4;
  mc.hidden_dim = 32;
  mc.latent_dim = 4;
  mc.pretrain_epochs = 2;
  mc.batch_size = 64;
  mc.joint_finetune = true;
  mc.finetune_rounds = 2;
  mc.seed = 9;
  return mc;
}

TEST(VaeGoldenTest, E2ModelJointFineTune) {
  core::E2Model m(GoldenModelConfig());
  BitRows x = GoldenData(150, 100, 3);
  ASSERT_TRUE(m.Train(x).ok());
  EXPECT_EQ(m.history().train_loss,
            (std::vector<double>{0x1.19f452028f9f9p+6,
                                 0x1.15e9306557febp+6}));
  EXPECT_EQ(m.history().val_loss,
            (std::vector<double>{0x1.158c047d8cd8p+6, 0x1.143f71262d8f7p+6}));
  EXPECT_EQ(m.history().flops, 0x1.50f9p+23);
  EXPECT_EQ(m.LastTrainFlops(), 0x1.64e6ep+24);
  ExpectParams(m.vae(), {0x895fccccu, 0xaca6565du, 0x75a04d61u, 0x307aee3du,
                         0xd43ff0fcu, 0x8f791066u, 0x644b1f3eu, 0x3f3a1446u,
                         0xcbf46a16u, 0x04f243a0u});
  EXPECT_EQ(CrcOf(m.kmeans().centroids()), 0x0fa991feu);
  const std::vector<size_t> want = {0, 3, 0, 3, 2, 0, 0, 2, 1, 3, 0, 1};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(m.PredictCluster(RowFloats(x, i)), want[i]) << i;
  }
}

TEST(VaeGoldenTest, E2ModelPartialFitBatch8) {
  core::E2ModelConfig mc = GoldenModelConfig();
  mc.batch_size = 8;
  core::E2Model m(mc);
  ASSERT_TRUE(m.Train(GoldenData(150, 100, 3)).ok());
  ASSERT_TRUE(m.PartialFit(GoldenData(20, 100, 4)).ok());
  EXPECT_EQ(m.LastPartialFitFlops(), 0x1.d1p+19);
  ExpectParams(m.vae(), {0x68ce6a0bu, 0x38efe29au, 0x29f4d6dbu, 0x1df3abd0u,
                         0x5c1e49e4u, 0xbf83a432u, 0x33242fbeu, 0x16171721u,
                         0x12beec86u, 0x46288fccu});
  EXPECT_EQ(CrcOf(m.kmeans().centroids()), 0xfc786d3bu);
}

}  // namespace
}  // namespace e2nvm::ml
