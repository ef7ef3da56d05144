#ifndef E2NVM_COMMON_BITVEC_H_
#define E2NVM_COMMON_BITVEC_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/kernels.h"

namespace e2nvm {

/// A dense, fixed-size bit string backed by 64-bit words.
///
/// BitVector is the unit of content everywhere in this library: memory
/// segments, values to be written, dataset samples and model inputs are all
/// bit strings. The class exposes the operations the E2-NVM pipeline needs:
///  - Hamming distance (popcount over XOR), the placement similarity metric;
///  - differential-write support (which bits differ, per-cache-line dirtiness);
///  - conversion to/from float feature vectors for the ML models;
///  - rotation/inversion, used by the MinShift and Flip-N-Write baselines.
///
/// Bits are indexed LSB-first within each word: bit i lives in
/// word i/64, position i%64.
class BitVector {
 public:
  /// Creates an empty (zero-length) vector.
  BitVector() = default;

  /// Creates a vector of `num_bits` zero bits.
  explicit BitVector(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  /// Builds a vector from '0'/'1' characters, e.g. "01101". Any other
  /// character is treated as '0'. Bit 0 is the first character, matching the
  /// paper's left-to-right list notation [b0, b1, ...].
  static BitVector FromString(const std::string& bits);

  /// Builds a vector from a byte buffer (`num_bits` <= 8 * len).
  static BitVector FromBytes(const uint8_t* data, size_t len);

  /// Builds a vector from a float feature vector using `threshold`:
  /// bit i = (features[i] >= threshold).
  static BitVector FromFloats(const std::vector<float>& features,
                              float threshold = 0.5f);

  /// In-place assign from a word-aligned little-endian byte image of
  /// `num_bits` bits: `bytes` must hold 8 * ceil(num_bits / 64) bytes
  /// laid out exactly like words() (the wire value format of
  /// net/protocol.h). Reuses the existing word storage, so re-assigning
  /// into a vector that has reached its working width allocates nothing
  /// — the decode path of the zero-alloc network request loop. Tail bits
  /// beyond num_bits are masked to preserve the class invariant even
  /// when the source image carries garbage there.
  void AssignFromWords(const uint8_t* bytes, size_t num_bits) {
    num_bits_ = num_bits;
    words_.resize((num_bits + 63) / 64);
    if (!words_.empty()) {
      std::memcpy(words_.data(), bytes, words_.size() * sizeof(uint64_t));
    }
    MaskTail();
  }

  /// Resizes to `n` zero bits in place, reusing the word storage: once
  /// the vector has reached its working width this allocates nothing
  /// (the scratch-buffer reset of the padding and merge-write paths).
  void AssignZeros(size_t n) {
    num_bits_ = n;
    words_.assign((n + 63) / 64, 0);
  }

  /// Shrinks to the first `n` bits in place (n <= size()); never
  /// allocates. The read-into paths use this to cut a decoded segment
  /// down to the value width stored in it.
  void Truncate(size_t n) {
    assert(n <= num_bits_);
    num_bits_ = n;
    words_.resize((n + 63) / 64);
    MaskTail();
  }

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }
  size_t num_words() const { return words_.size(); }
  const std::vector<uint64_t>& words() const { return words_; }

  /// Reads bit `i`; requires i < size().
  bool Get(size_t i) const {
    assert(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Sets bit `i` to `value`; requires i < size().
  void Set(size_t i, bool value) {
    assert(i < num_bits_);
    uint64_t mask = uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// Number of set bits.
  size_t Popcount() const;

  /// Number of differing bits between *this and `other`; both must have the
  /// same size. This is the similarity metric of the paper (§1).
  size_t HammingDistance(const BitVector& other) const;

  /// Set (0->1) and reset (1->0) transition counts of reprogramming
  /// cells holding `old_value` to `new_value` (same sizes) — Alg. 1's
  /// differential-write accounting in one SIMD-dispatched pass.
  static DiffCounts DiffStats(const BitVector& old_value,
                              const BitVector& new_value);

  /// Returns a vector with every bit inverted (used by Flip-N-Write).
  BitVector Inverted() const;

  /// Returns this vector rotated left by `k` bit positions (used by
  /// MinShift-style schemes). Rotation is modulo size().
  BitVector RotatedLeft(size_t k) const;

  /// Overwrites bits [dst_start, dst_start+len) with `src`'s bits
  /// [src_start, src_start+len), a destination word at a time. Bits
  /// outside the destination range are untouched; `src` must not be
  /// *this. Slice, Overlay and Concat are built on it.
  void CopyBits(size_t dst_start, const BitVector& src, size_t src_start,
                size_t len);

  /// Overwrites bits [start, start+n) with the low `n` bits of `bits`
  /// (bit `start` takes bit 0); the range must lie within one word,
  /// (start % 64) + n <= 64. The store CopyBits runs on, exposed for
  /// generators that emit whole words of bits.
  void SetBits(size_t start, uint64_t bits, size_t n) {
    const size_t off = start & 63;
    assert(off + n <= 64 && start + n <= num_bits_);
    const uint64_t mask = LowMask(n) << off;
    uint64_t& word = words_[start >> 6];
    word = (word & ~mask) | ((bits << off) & mask);
  }

  /// Extracts bits [start, start+len) into a new vector.
  BitVector Slice(size_t start, size_t len) const;

  /// Overwrites bits [start, start+other.size()) with `other`.
  void Overlay(size_t start, const BitVector& other);

  /// Returns the concatenation *this || other.
  BitVector Concat(const BitVector& other) const;

  /// Number of cache lines of `line_bits` bits that contain at least one
  /// differing bit vs `other`. Models Optane's write-combining: identical
  /// cache lines are not re-written by the controller (paper §2.2).
  size_t DirtyLines(const BitVector& other, size_t line_bits) const;

  /// Converts to a float vector (0.0f / 1.0f per bit) for model input.
  std::vector<float> ToFloats() const;

  /// Writes size() floats (0.0f / 1.0f per bit) to `out` through the
  /// dispatched bit->float expansion kernel — the featurization behind
  /// ToFloats. `out` must have room for size() floats.
  void AppendFloatsTo(float* out) const;

  /// Renders as a '0'/'1' string (bit 0 first).
  std::string ToString() const;

  /// Fills with uniformly random bits drawn from `next_u64` (a callable
  /// returning uint64_t). Templated to avoid coupling to a concrete RNG.
  template <typename Rng>
  void Randomize(Rng& rng) {
    for (auto& w : words_) w = rng.NextU64();
    MaskTail();
  }

  /// Flips exactly `n` distinct randomly-chosen bits; `n <= size()`.
  /// Used to synthesize content at a controlled Hamming distance (Fig 1).
  template <typename Rng>
  void FlipRandomBits(size_t n, Rng& rng) {
    assert(n <= num_bits_);
    // Floyd's algorithm for distinct sampling when n is small relative to
    // size; fall back to a shuffle-free scan otherwise.
    if (n == 0) return;
    if (n * 4 <= num_bits_) {
      // Rejection sampling over a small set.
      std::vector<uint8_t> taken(num_bits_, 0);
      size_t flipped = 0;
      while (flipped < n) {
        size_t i = rng.NextU64() % num_bits_;
        if (!taken[i]) {
          taken[i] = 1;
          Set(i, !Get(i));
          ++flipped;
        }
      }
    } else {
      // Reservoir-style: choose n of num_bits_ positions.
      size_t remaining = n;
      for (size_t i = 0; i < num_bits_ && remaining > 0; ++i) {
        size_t left = num_bits_ - i;
        if (rng.NextU64() % left < remaining) {
          Set(i, !Get(i));
          --remaining;
        }
      }
    }
  }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  /// The low `n` bits set (n <= 64).
  static uint64_t LowMask(size_t n) {
    return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  }

  /// Reads bits [start, start+n) as one word (bit `start` at bit 0);
  /// n <= 64 and start + n <= size().
  uint64_t GetBits(size_t start, size_t n) const {
    const size_t w = start >> 6;
    const size_t off = start & 63;
    uint64_t bits = words_[w] >> off;
    if (off != 0 && off + n > 64) bits |= words_[w + 1] << (64 - off);
    return bits & LowMask(n);
  }

  /// Zeroes bits beyond num_bits_ in the last word, preserving the invariant
  /// that unused tail bits are 0 (required for Popcount / equality).
  void MaskTail();

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace e2nvm

#endif  // E2NVM_COMMON_BITVEC_H_
