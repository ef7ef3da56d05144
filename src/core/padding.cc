#include "core/padding.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace e2nvm::core {

std::string_view PadTypeName(PadType t) {
  switch (t) {
    case PadType::kZero:
      return "zero";
    case PadType::kOne:
      return "one";
    case PadType::kRandom:
      return "rand";
    case PadType::kInputBased:
      return "IB";
    case PadType::kDatasetBased:
      return "DB";
    case PadType::kMemoryBased:
      return "MB";
    case PadType::kLearned:
      return "LB";
  }
  return "?";
}

std::string_view PadLocationName(PadLocation l) {
  switch (l) {
    case PadLocation::kBegin:
      return "begin";
    case PadLocation::kMiddle:
      return "middle";
    case PadLocation::kEnd:
      return "end";
  }
  return "?";
}

double OnesRatio(const BitVector& v) {
  if (v.empty()) return 0.5;
  return static_cast<double>(v.Popcount()) / static_cast<double>(v.size());
}

BitVector Padder::Assemble(const BitVector& input, const BitVector& pad,
                           PadLocation location) {
  switch (location) {
    case PadLocation::kBegin:
      return pad.Concat(input);
    case PadLocation::kEnd:
      return input.Concat(pad);
    case PadLocation::kMiddle: {
      size_t half = pad.size() / 2;
      BitVector left = pad.Slice(0, half);
      BitVector right = pad.Slice(half, pad.size() - half);
      return left.Concat(input).Concat(right);
    }
  }
  return input;
}

BitVector Padder::LstmContinue(const BitVector& seed, size_t q,
                               ml::Lstm& lstm) {
  const size_t window =
      lstm.config().timesteps * lstm.config().input_size;
  const size_t chunk = lstm.config().output_size;
  // Sequence starts as the seed; generated chunks are appended and the
  // window slides (§4.1.3: 64-bit window predicting 8 bits per step).
  BitVector seq = seed;
  BitVector pad(q);
  size_t produced = 0;
  while (produced < q) {
    // Take the trailing `window` bits, left-filling with zeros if short.
    std::vector<float> feats(window, 0.0f);
    size_t have = std::min(window, seq.size());
    for (size_t i = 0; i < have; ++i) {
      feats[window - have + i] =
          seq.Get(seq.size() - have + i) ? 1.0f : 0.0f;
    }
    std::vector<float> next = lstm.PredictOne(feats);
    BitVector chunk_bits(chunk);
    for (size_t i = 0; i < chunk; ++i) {
      chunk_bits.Set(i, next[i] >= 0.5f);
    }
    for (size_t i = 0; i < chunk && produced < q; ++i, ++produced) {
      pad.Set(produced, chunk_bits.Get(i));
    }
    seq = seq.Concat(chunk_bits);
  }
  return pad;
}

StatusOr<BitVector> Padder::LearnedPad(const BitVector& input, size_t q,
                                       const PaddingContext& ctx) const {
  if (ctx.lstm == nullptr) {
    return Status::InvalidArgument("learned padding needs an LSTM");
  }
  switch (location_) {
    case PadLocation::kEnd:
      return LstmContinue(input, q, *ctx.lstm);
    case PadLocation::kBegin: {
      // Generate as a continuation of the reversed data, then reverse
      // back so the pad "leads into" the input. An approximation: the
      // generator is trained on forward windows.
      BitVector rev(input.size());
      for (size_t i = 0; i < input.size(); ++i) {
        rev.Set(i, input.Get(input.size() - 1 - i));
      }
      BitVector pad = LstmContinue(rev, q, *ctx.lstm);
      BitVector out(q);
      for (size_t i = 0; i < q; ++i) {
        out.Set(i, pad.Get(q - 1 - i));
      }
      return out;
    }
    case PadLocation::kMiddle: {
      size_t half = q / 2;
      // Left half leads into the data (begin-style); right half
      // continues it (end-style).
      Padder begin_padder(PadType::kLearned, PadLocation::kBegin,
                          model_dim_);
      Padder end_padder(PadType::kLearned, PadLocation::kEnd, model_dim_);
      E2_ASSIGN_OR_RETURN(BitVector left,
                          begin_padder.LearnedPad(input, half, ctx));
      E2_ASSIGN_OR_RETURN(BitVector right,
                          end_padder.LearnedPad(input, q - half, ctx));
      return left.Concat(right);
    }
  }
  return Status::Internal("unreachable padding location");
}

namespace {

/// Writes bits [begin, end) of `out` one destination word at a time:
/// next_word(take) returns the word's `take` bits, lowest bit first.
template <typename NextWord>
void FillBits(size_t begin, size_t end, NextWord next_word, BitVector* out) {
  while (begin < end) {
    const size_t take = std::min(end - begin, 64 - (begin & 63));
    out->SetBits(begin, next_word(take), take);
    begin += take;
  }
}

}  // namespace

Status Padder::PadInto(const BitVector& input, const PaddingContext& ctx,
                       BitVector* out) const {
  const size_t n = input.size();
  if (n > model_dim_) {
    return Status::InvalidArgument("input wider than the model");
  }
  const size_t q = model_dim_ - n;
  if (q > 0 && type_ == PadType::kLearned) {
    E2_ASSIGN_OR_RETURN(BitVector pad, LearnedPad(input, q, ctx));
    *out = Assemble(input, pad, location_);
    return Status::Ok();
  }
  // Pad-bit probability of the Bernoulli strategies (§4.1.1-4.1.2).
  double p = 0.0;
  bool bernoulli = true;
  switch (type_) {
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
    case PadType::kZero:
    case PadType::kOne:
    case PadType::kLearned:
      bernoulli = false;
      break;
  }
  if (q > 0 && bernoulli && ctx.rng == nullptr) {
    return Status::InvalidArgument(std::string(PadTypeName(type_)) +
                                   " padding needs an Rng");
  }
  // Fig 5 layouts: the pad before the input, split around it (first
  // half before), or after it. Pad index order is output order, so
  // filling [0, data_at) then [data_at + n, model_dim) draws the bits in
  // the same order as generating the whole pad first.
  const size_t data_at = location_ == PadLocation::kBegin    ? q
                         : location_ == PadLocation::kMiddle ? q / 2
                                                             : 0;
  out->AssignZeros(model_dim_);
  out->CopyBits(data_at, input, 0, n);
  auto fill = [&](auto next_word) {
    FillBits(0, data_at, next_word, out);
    FillBits(data_at + n, model_dim_, next_word, out);
  };
  if (type_ == PadType::kOne) {
    fill([](size_t) { return ~uint64_t{0}; });  // SetBits masks to take.
  } else if (bernoulli) {
    // One NextBernoulliBits per word draws what one NextBernoulli(p)
    // per pad bit would, in the same order.
    Rng* rng = ctx.rng;  // Null only when there is nothing to fill.
    const uint64_t threshold = Rng::BernoulliThreshold(p);
    fill([rng, threshold](size_t take) {
      return rng->NextBernoulliBits(threshold, take);
    });
  }
  return Status::Ok();
}

StatusOr<BitVector> Padder::Pad(const BitVector& input,
                                const PaddingContext& ctx) const {
  BitVector out;
  E2_RETURN_IF_ERROR(PadInto(input, ctx, &out));
  return out;
}

StatusOr<std::unique_ptr<ml::Lstm>> TrainPaddingLstm(
    const workload::BitDataset& train, const ml::LstmConfig& cfg,
    int epochs, size_t max_windows) {
  const size_t window = cfg.timesteps * cfg.input_size;
  const size_t chunk = cfg.output_size;
  std::vector<std::vector<float>> xs;
  std::vector<std::vector<float>> ys;
  for (const auto& item : train.items) {
    if (item.size() < window + chunk) continue;
    for (size_t pos = 0; pos + window + chunk <= item.size();
         pos += chunk) {
      std::vector<float> x(window);
      std::vector<float> y(chunk);
      for (size_t i = 0; i < window; ++i) {
        x[i] = item.Get(pos + i) ? 1.0f : 0.0f;
      }
      for (size_t i = 0; i < chunk; ++i) {
        y[i] = item.Get(pos + window + i) ? 1.0f : 0.0f;
      }
      xs.push_back(std::move(x));
      ys.push_back(std::move(y));
      if (xs.size() >= max_windows) break;
    }
    if (xs.size() >= max_windows) break;
  }
  if (xs.size() < 8) {
    return Status::InvalidArgument(
        "dataset items too small to train the padding LSTM");
  }
  ml::Matrix x(xs.size(), window);
  ml::Matrix y(ys.size(), chunk);
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = 0; j < window; ++j) x(i, j) = xs[i][j];
    for (size_t j = 0; j < chunk; ++j) y(i, j) = ys[i][j];
  }
  auto lstm = std::make_unique<ml::Lstm>(cfg);
  lstm->Train(x, y, epochs, /*batch_size=*/64);
  return lstm;
}

}  // namespace e2nvm::core
