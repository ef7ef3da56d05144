#ifndef E2NVM_ML_INFERENCE_H_
#define E2NVM_ML_INFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ml/matrix.h"

namespace e2nvm::ml {

/// Preallocated, reusable buffers for the write-path inference kernels —
/// the lean serving counterpart to the (allocating) training code. One
/// scratch belongs to one caller (the placement engine): buffers grow
/// monotonically during warm-up, and after that every stage -> encode ->
/// assign pass is allocation-free. For batched placement the same
/// buffers hold B staged values and the whole batch runs through one
/// encoder pass and one fused assignment.
///
/// Values are staged as **bit rows** (the BitRows base, the same type
/// training consumes) — the model image of each value, word for word —
/// not as 0.0/1.0 floats: the VAE's first layer sums
/// the weight rows of the set bits directly (KernelOps::gemv_bits).
/// Clusterers whose model consumes floats expand the rows on demand
/// (ExpandFloats).
///
/// The results written here are bit-identical to the reference path
/// (Vae::EncodeOne + KMeans::Predict per value): the scratch kernels
/// share the reference kernels' accumulation order, and the fused
/// assignment re-checks near-minimal candidates with the exact distance
/// (see KMeans::AssignFusedInto).
struct InferenceScratch : BitRows {
  /// The staged bit rows expanded to 0.0f/1.0f (num_rows x dim) —
  /// filled only by ExpandFloats, for clusterers whose model consumes
  /// floats.
  Matrix features;
  /// Encoder hidden activations (B x hidden_dim).
  Matrix hidden;
  /// Latent codes mu (B x latent_dim).
  Matrix latent;
  /// Fused assignment scores x.c^T (B x k).
  Matrix scores;
  /// Cluster id per row, filled by ContentClusterer::AssignScratch.
  std::vector<size_t> clusters;
  /// Per-row staging-success flags for batched placement (1 = the row
  /// holds the value's model image; 0 = featurization failed, the row
  /// is all zeros and the value takes the model-fallback path).
  std::vector<uint8_t> row_ok;

  /// Drops the first `n` rows and their row_ok flags (row_ok holds one
  /// flag per row), moving the rest to the front — the mid-batch
  /// re-assign after a model change.
  void DropFrontRows(size_t n) {
    const size_t rest = num_rows - n;
    std::copy(bits.begin() + n * row_words, bits.end(), bits.begin());
    std::copy(row_ok.begin() + n, row_ok.end(), row_ok.begin());
    row_ok.resize(rest);
    Stage(rest, dim);
  }

  /// Expands the staged bit rows into `features` and returns it — the
  /// float input of clusterers that cannot consume bits. Allocation-free
  /// once `features` has reached its working shape.
  const Matrix& ExpandFloats() {
    ExpandInto(&features);
    return features;
  }
};

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_INFERENCE_H_
