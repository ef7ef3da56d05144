#ifndef E2NVM_ML_VAE_H_
#define E2NVM_ML_VAE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/layers.h"
#include "ml/matrix.h"

namespace e2nvm::ml {

/// Variational Autoencoder configuration.
struct VaeConfig {
  size_t input_dim = 2048;
  size_t hidden_dim = 128;
  /// The paper downsizes inputs to a ~10-dimensional latent space (§3.2).
  size_t latent_dim = 10;
  /// Weight of the KL regularizer in the ELBO.
  float beta = 1.0f;
  AdamConfig adam;
  uint64_t seed = 42;
};

/// Per-epoch training record (Fig 9's learning curves).
struct TrainHistory {
  std::vector<double> train_loss;
  std::vector<double> val_loss;
  /// Total multiply-accumulates spent by Train() — feeds the CPU energy
  /// model for Figs 8, 16 and 18.
  double flops = 0.0;
};

/// Options for Vae::Train.
struct VaeTrainOptions {
  int epochs = 10;
  size_t batch_size = 64;
  /// Fraction of rows held out for the validation curve.
  double validation_fraction = 0.1;
  uint64_t shuffle_seed = 7;
  /// Optional joint-clustering term (DEC-style): when `centroids` is
  /// non-null, the loss adds cluster_weight * ||z - c(z)||^2 with
  /// c(z) the row of `centroids` given by `assignments` (paper §3.2:
  /// "integrates the VAE's reconstruction loss and the K-means clustering
  /// loss to jointly train cluster label assignment and features").
  const Matrix* centroids = nullptr;
  const std::vector<size_t>* assignments = nullptr;
  float cluster_weight = 0.0f;
};

/// An MLP Variational Autoencoder over bit vectors:
///   encoder: input -> hidden (ReLU) -> {mu, logvar} (latent)
///   decoder: latent -> hidden (ReLU) -> input logits (Bernoulli)
/// Loss: binary cross-entropy reconstruction + beta * KL(q(z|x) || N(0,I))
/// — the negative ELBO given in §3.1 of the paper.
///
/// Inputs are bit rows (ml::BitRows) throughout training, refinement and
/// write-path encoding: the first layer sums the weight rows of the set
/// bits (BitDense), and the reconstruction targets are read from the
/// bits. Only EncodeOne takes a 0.0/1.0 float vector — the reference
/// oracle the bit-native paths are checked against.
class Vae {
 public:
  explicit Vae(const VaeConfig& config);

  const VaeConfig& config() const { return config_; }

  /// Deterministic encoding: returns the posterior mean mu for each row.
  /// This is the "only the encoder part is needed after training" path
  /// (§3.3.1) — an allocating wrapper of EncodeMuInto.
  Matrix EncodeMu(const BitRows& x);

  /// Reference encoding of one 0.0/1.0 float vector (length input_dim)
  /// to its latent mean: the float oracle the write path's bit-row
  /// encoder is tested against. Bit-identical to EncodeMuInto on the
  /// same bits.
  std::vector<float> EncodeOne(const std::vector<float>& x);

  /// Inference-only encoder of bit rows into caller-owned scratch:
  /// hidden = ReLU(x W1 + b1), mu = hidden W2 + b2. The first layer sums
  /// the W1 rows of the set bits directly (KernelOps::gemv_bits)
  /// instead of multiplying a 0.0/1.0 float expansion; it skips the
  /// logvar head, the training caches and every temporary of a training
  /// forward pass, so a warmed-up call performs zero heap allocations.
  /// The mu values are bit-identical to EncodeOne on the float expansion
  /// of the same bits (same additions, same order).
  void EncodeMuInto(const BitRows& x, Matrix* hidden, Matrix* mu);

  /// Decodes latent codes to Bernoulli means (sigmoid outputs).
  Matrix Decode(const Matrix& z);

  /// One SGD step on a mini-batch. Returns (reconstruction, KL, cluster)
  /// losses averaged per sample.
  struct BatchLoss {
    double recon = 0;
    double kl = 0;
    double cluster = 0;
    double total() const { return recon + kl + cluster; }
  };
  BatchLoss TrainBatch(const BitRows& x, const VaeTrainOptions& opts);

  /// Loss of `x` without updating parameters (eps = 0, deterministic).
  double EvalLoss(const BitRows& x);

  /// Full training loop: shuffles, splits train/validation, runs epochs.
  TrainHistory Train(const BitRows& x, const VaeTrainOptions& opts);

  /// Incremental mini-batch update (the replay-ring refinement path,
  /// DESIGN.md §16): runs one pure-ELBO TrainBatch step per
  /// `batch_size` chunk of `x`, in row order, on the *current*
  /// parameters — no re-initialization, no shuffling, no validation
  /// split. Returns the multiply-accumulates spent. The update is a
  /// deterministic function of (parameters, internal RNG state, x):
  /// chunk order is fixed and the kernels are pool-size invariant, so
  /// refinement preserves the engine's determinism contract.
  double PartialFit(const BitRows& x, size_t batch_size);

  /// Multiply-accumulates of one EncodeOne call.
  double PredictFlops() const;
  /// Approximate multiply-accumulates of one training step on `batch` rows
  /// (forward + backward ~ 3x forward).
  double TrainStepFlops(size_t batch) const;

  size_t ParamCount() const;

  /// Every trainable parameter block, in a fixed order: first layer
  /// (W, b), mu head, logvar head, decoder hidden layer, decoder output
  /// layer — what the golden training fixtures checksum.
  std::vector<ParamBlock*> Params();

 private:
  /// Forward pass through the encoder caching layer state; outputs mu and
  /// logvar (clamped to [-8, 8] for stability).
  void EncodeForward(const BitRows& x, Matrix* mu, Matrix* logvar);

  VaeConfig config_;
  Rng rng_;
  BitDense enc_in_;
  Relu enc_relu_;
  std::unique_ptr<Dense> mu_head_;
  std::unique_ptr<Dense> logvar_head_;
  Sequential decoder_;
  int step_ = 0;
};

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_VAE_H_
