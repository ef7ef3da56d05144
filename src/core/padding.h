#ifndef E2NVM_CORE_PADDING_H_
#define E2NVM_CORE_PADDING_H_

#include <memory>
#include <string_view>

#include "common/bitvec.h"
#include "common/rng.h"
#include "common/status.h"
#include "ml/lstm.h"
#include "workload/datasets.h"

namespace e2nvm::core {

/// Where the padded bits are placed relative to the input data (§4.1,
/// Fig 5): before the data, split around it, or after it.
enum class PadLocation { kBegin, kMiddle, kEnd };

/// The seven padding strategies of §4.1 and Fig 14:
///   universal data-agnostic: zero, one, random;
///   universal data-aware:    input-based (IB), dataset-based (DB),
///                            memory-based (MB);
///   learned:                 LSTM-generated (LB).
enum class PadType {
  kZero,
  kOne,
  kRandom,
  kInputBased,
  kDatasetBased,
  kMemoryBased,
  kLearned,
};

std::string_view PadTypeName(PadType t);
std::string_view PadLocationName(PadLocation l);

/// Runtime inputs the data-aware and learned strategies consult.
struct PaddingContext {
  /// Fraction of 1-bits over all items received so far (DB padding).
  double dataset_ones_ratio = 0.5;
  /// Fraction of 1-bits in the memory region the write will land in
  /// (MB padding).
  double memory_ones_ratio = 0.5;
  /// Trained generator for learned padding (required for kLearned).
  ml::Lstm* lstm = nullptr;
  /// Randomness source (required for kRandom, kInputBased, kDatasetBased,
  /// kMemoryBased).
  Rng* rng = nullptr;
};

/// Pads variable-sized inputs up to the model's fixed input width. The
/// padded bits exist *only* for the cluster prediction; they are never
/// written to NVM (§4.1: "the padded part ... is added to the data just
/// for clustering purposes").
class Padder {
 public:
  Padder(PadType type, PadLocation location, size_t model_dim)
      : type_(type), location_(location), model_dim_(model_dim) {}

  PadType type() const { return type_; }
  PadLocation location() const { return location_; }
  size_t model_dim() const { return model_dim_; }

  /// Returns a model_dim-wide vector embedding `input` at the configured
  /// location with generated padding around it. Fails if the input is
  /// wider than the model. A thin allocating wrapper over PadInto.
  StatusOr<BitVector> Pad(const BitVector& input,
                          const PaddingContext& ctx) const;

  /// Pad into a caller-owned buffer (capacity reused): the input is
  /// copied word-wise to its slot and the pad bits are generated a word
  /// at a time straight into their final positions, so once `out` has
  /// reached model_dim bits the universal strategies allocate nothing.
  /// Random/IB/DB/MB draw one pad word per Rng::NextBernoulliBits call,
  /// which yields exactly the bits and Rng state of one
  /// ctx.rng->NextBernoulli per pad bit, in pad order (the bits before
  /// the input, then the bits after it); zero/one padding and a
  /// full-width input take no draw. Learned padding keeps an allocating
  /// path. On error `out` is left unchanged.
  Status PadInto(const BitVector& input, const PaddingContext& ctx,
                 BitVector* out) const;

  /// Places `pad` around `input` per `location` (exposed for tests that
  /// check Fig 5's layouts). For kMiddle the pad is split in half,
  /// first half before the data.
  static BitVector Assemble(const BitVector& input, const BitVector& pad,
                            PadLocation location);

 private:
  /// Generates `q` learned (LSTM) padding bits for `input`.
  StatusOr<BitVector> LearnedPad(const BitVector& input, size_t q,
                                 const PaddingContext& ctx) const;

  /// LSTM continuation of `seed_bits` for `q` bits.
  static BitVector LstmContinue(const BitVector& seed, size_t q,
                                ml::Lstm& lstm);

  PadType type_;
  PadLocation location_;
  size_t model_dim_;
};

/// Builds the (windows -> next-chunk) training set for the learned-padding
/// LSTM from a dataset (sliding window of `cfg.timesteps * cfg.input_size`
/// bits predicting the next `cfg.output_size` bits, stride =
/// output_size), trains, and returns the model. `max_windows` caps the
/// training-set size for tractable CPU training.
StatusOr<std::unique_ptr<ml::Lstm>> TrainPaddingLstm(
    const workload::BitDataset& train, const ml::LstmConfig& cfg,
    int epochs, size_t max_windows = 20000);

/// Fraction of 1 bits in `v` (the IB probability).
double OnesRatio(const BitVector& v);

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_PADDING_H_
