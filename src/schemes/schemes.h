#ifndef E2NVM_SCHEMES_SCHEMES_H_
#define E2NVM_SCHEMES_SCHEMES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "nvm/write_scheme.h"

namespace e2nvm::schemes {

/// Naive write-through: programs every cell on every write (no
/// read-before-write). Flip count equals the Hamming distance (those are
/// the cells whose value actually changes) but *all* cells are programmed,
/// which is what makes naive writes slow and hot on real PCM.
class NaiveWrite : public nvm::WriteScheme {
 public:
  std::string_view name() const override { return "Naive"; }
  bool StoresVerbatim() const override { return true; }
  nvm::WriteResult Write(uint64_t segment_id, const BitVector& old,
                         const BitVector& data) override;
  void WriteInto(uint64_t segment_id, const BitVector& old,
                 const BitVector& data, nvm::WriteResult* out) override;
  BitVector Decode(uint64_t segment_id,
                   const BitVector& stored) const override {
    return stored;
  }
  void DecodeInto(uint64_t segment_id, const BitVector& stored,
                  BitVector* out) const override {
    *out = stored;
  }
};

/// DCW — Data-Comparison Write (Yang et al. [52]): read the old content,
/// program only the differing cells. The canonical RBW baseline; its flip
/// count is exactly the Hamming distance between old and new content.
class Dcw : public nvm::WriteScheme {
 public:
  std::string_view name() const override { return "DCW"; }
  bool StoresVerbatim() const override { return true; }
  nvm::WriteResult Write(uint64_t segment_id, const BitVector& old,
                         const BitVector& data) override;
  /// Allocation-free DCW encode: `out->stored` reuses its capacity, so
  /// the store's steady-state PUT path never touches the heap here.
  void WriteInto(uint64_t segment_id, const BitVector& old,
                 const BitVector& data, nvm::WriteResult* out) override;
  BitVector Decode(uint64_t segment_id,
                   const BitVector& stored) const override {
    return stored;
  }
  void DecodeInto(uint64_t segment_id, const BitVector& stored,
                  BitVector* out) const override {
    *out = stored;
  }
};

/// FNW — Flip-N-Write (Cho & Lee [10]): per `word_bits` word, store either
/// the word or its complement (plus a one-bit flag) — whichever flips
/// fewer cells. Guarantees at most word_bits/2 + 1 flips per word.
class FlipNWrite : public nvm::WriteScheme {
 public:
  /// `word_bits` is the flag granularity; the original paper uses the
  /// memory word (32 bits).
  explicit FlipNWrite(size_t word_bits = 32) : word_bits_(word_bits) {}

  std::string_view name() const override { return "FNW"; }
  nvm::WriteResult Write(uint64_t segment_id, const BitVector& old,
                         const BitVector& data) override;
  BitVector Decode(uint64_t segment_id,
                   const BitVector& stored) const override;
  size_t AuxBitsPerSegment(size_t segment_bits) const override {
    return (segment_bits + word_bits_ - 1) / word_bits_;
  }
  void OnMigrate(uint64_t src, uint64_t dst) override {
    auto it = flags_.find(src);
    if (it != flags_.end()) {
      flags_[dst] = it->second;
    } else {
      flags_.erase(dst);
    }
  }
  void Reset() override { flags_.clear(); }

 private:
  size_t word_bits_;
  /// Per-segment flip flags (true = word stored inverted).
  std::unordered_map<uint64_t, std::vector<bool>> flags_;
};

/// MinShift (Luo et al. [37], "bit shifting and flipping"): try rotations
/// of the incoming data by 0..kMaxShift-1 bit positions (and optionally
/// the complement of each) and store the candidate that minimizes flips
/// against the current cells, recording the chosen (shift, flip) in a
/// small per-segment tag.
class MinShift : public nvm::WriteScheme {
 public:
  static constexpr size_t kMaxShift = 8;

  /// `try_flip`: also consider complemented candidates (the paper's
  /// combined shift+flip mode).
  explicit MinShift(bool try_flip = true) : try_flip_(try_flip) {}

  std::string_view name() const override {
    return try_flip_ ? "MinShift" : "MinShift-noflip";
  }
  nvm::WriteResult Write(uint64_t segment_id, const BitVector& old,
                         const BitVector& data) override;
  BitVector Decode(uint64_t segment_id,
                   const BitVector& stored) const override;
  size_t AuxBitsPerSegment(size_t segment_bits) const override {
    return 4;  // 3 shift bits + 1 flip bit.
  }
  void OnMigrate(uint64_t src, uint64_t dst) override {
    auto it = tags_.find(src);
    if (it != tags_.end()) {
      tags_[dst] = it->second;
    } else {
      tags_.erase(dst);
    }
  }
  void Reset() override { tags_.clear(); }

 private:
  struct Tag {
    uint8_t shift = 0;
    bool flipped = false;
  };
  static size_t TagHamming(Tag a, Tag b);

  bool try_flip_;
  std::unordered_map<uint64_t, Tag> tags_;
};

/// Captopril (Jalili & Sarbazi-Azad [23]): reduces the *pressure of bit
/// flips on hot cells*. Our model keeps a per-segment, per-word flip
/// counter; on a write it chooses per word between identity and
/// complement encoding, minimizing a wear-weighted flip cost in which
/// flips landing on hot words (those above the segment's median wear)
/// are penalized. Falls back to FNW behavior on a cold segment.
class Captopril : public nvm::WriteScheme {
 public:
  explicit Captopril(size_t word_bits = 32, double hot_penalty = 1.0)
      : word_bits_(word_bits), hot_penalty_(hot_penalty) {}

  std::string_view name() const override { return "Captopril"; }
  nvm::WriteResult Write(uint64_t segment_id, const BitVector& old,
                         const BitVector& data) override;
  BitVector Decode(uint64_t segment_id,
                   const BitVector& stored) const override;
  size_t AuxBitsPerSegment(size_t segment_bits) const override {
    return (segment_bits + word_bits_ - 1) / word_bits_;
  }
  void OnMigrate(uint64_t src, uint64_t dst) override {
    auto it = state_.find(src);
    if (it != state_.end()) {
      state_[dst] = it->second;
    } else {
      state_.erase(dst);
    }
  }
  void Reset() override { state_.clear(); }

 private:
  struct SegState {
    std::vector<bool> flags;
    std::vector<uint32_t> word_wear;
  };

  size_t word_bits_;
  double hot_penalty_;
  std::unordered_map<uint64_t, SegState> state_;
};

/// Flip-Mirror-Rotate (Palangappa & Mohanram [46]): per word, choose the
/// encoding among {identity, complement, bit-mirror, mirrored complement}
/// that flips the fewest cells, recording the choice in a 2-bit tag per
/// word. Generalizes FNW's single flip bit with cheap structural
/// transforms.
class FlipMirrorRotate : public nvm::WriteScheme {
 public:
  explicit FlipMirrorRotate(size_t word_bits = 16)
      : word_bits_(word_bits) {}

  std::string_view name() const override { return "FMR"; }
  nvm::WriteResult Write(uint64_t segment_id, const BitVector& old,
                         const BitVector& data) override;
  BitVector Decode(uint64_t segment_id,
                   const BitVector& stored) const override;
  size_t AuxBitsPerSegment(size_t segment_bits) const override {
    return 2 * ((segment_bits + word_bits_ - 1) / word_bits_);
  }
  void OnMigrate(uint64_t src, uint64_t dst) override {
    auto it = tags_.find(src);
    if (it != tags_.end()) {
      tags_[dst] = it->second;
    } else {
      tags_.erase(dst);
    }
  }
  void Reset() override { tags_.clear(); }

 private:
  /// Encodings, also the tag values: bit0 = complement, bit1 = mirror.
  enum Encoding : uint8_t {
    kIdentity = 0,
    kFlip = 1,
    kMirror = 2,
    kMirrorFlip = 3,
  };
  static BitVector Apply(const BitVector& word, uint8_t enc);
  static size_t TagHamming(uint8_t a, uint8_t b);

  size_t word_bits_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> tags_;
};

/// Factory for the baseline write schemes.
/// Names: "Naive", "DCW", "FNW", "MinShift", "Captopril", "FMR".
std::unique_ptr<nvm::WriteScheme> MakeScheme(const std::string& name);

}  // namespace e2nvm::schemes

#endif  // E2NVM_SCHEMES_SCHEMES_H_
