#ifndef E2NVM_NVM_WRITE_SCHEME_H_
#define E2NVM_NVM_WRITE_SCHEME_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/bitvec.h"

namespace e2nvm::nvm {

/// Outcome of encoding a logical value onto a segment's current cells.
struct WriteResult {
  /// New raw cell contents for the data region of the segment.
  BitVector stored;
  /// Data-cell flips incurred (Hamming distance old vs stored).
  size_t data_bits_flipped = 0;
  /// Flips in the scheme's auxiliary cells (flip flags, shift tags).
  size_t aux_bits_flipped = 0;
  /// Total cells the scheme had to *program* (for schemes without
  /// read-before-write this is every cell; with RBW only the flips).
  size_t bits_programmed = 0;

  /// Extra program attempts the device needed because read-back verify
  /// found faulty cells (populated by NvmDevice, not by schemes).
  uint32_t verify_retries = 0;
  /// True when the committed cells still differ from the intended image
  /// after every retry and the spare-cell repair budget: the segment
  /// should be quarantined by the caller.
  bool verify_failed = false;

  size_t total_bits_flipped() const {
    return data_bits_flipped + aux_bits_flipped;
  }
};

/// A hardware write scheme: given the current cell content of a segment and
/// the logical value to store, decides the new raw cell pattern and any
/// auxiliary metadata, and reports how many cells flip. Implementations
/// model the paper's RBW baselines — DCW [52], Flip-N-Write [10],
/// MinShift [37], Captopril [23] — plus a naive write-through.
///
/// Schemes may keep *per-segment* auxiliary state (e.g. FNW's flip flags);
/// they are told the segment id so that state survives across writes.
/// Implementations must be deterministic.
class WriteScheme {
 public:
  virtual ~WriteScheme() = default;

  /// Stable scheme name for reports ("DCW", "FNW", ...).
  virtual std::string_view name() const = 0;

  /// Encodes `data` over the current `old` cells of `segment_id`.
  /// `old.size() == data.size()` is required.
  virtual WriteResult Write(uint64_t segment_id, const BitVector& old,
                            const BitVector& data) = 0;

  /// Write into a caller-provided result, enabling scratch reuse on the
  /// hot write path: `out` may hold a previous write's outcome, and the
  /// implementation must overwrite EVERY field (including the
  /// device-populated verify_retries/verify_failed), while `out->stored`
  /// keeps its heap capacity across calls. The default delegates to
  /// Write; schemes on the PUT path override it allocation-free.
  virtual void WriteInto(uint64_t segment_id, const BitVector& old,
                         const BitVector& data, WriteResult* out) {
    *out = Write(segment_id, old, data);
  }

  /// Decodes the raw cell content of `segment_id` back to the logical
  /// value. For schemes that store data verbatim this is the identity.
  virtual BitVector Decode(uint64_t segment_id,
                           const BitVector& stored) const = 0;

  /// Decode into a caller-owned buffer (`out` keeps its heap capacity
  /// across calls, like WriteInto's `stored`). The default delegates to
  /// Decode; verbatim schemes override it with a capacity-reusing copy
  /// so Release-path content peeks stay off the heap.
  virtual void DecodeInto(uint64_t segment_id, const BitVector& stored,
                          BitVector* out) const {
    *out = Decode(segment_id, stored);
  }

  /// True when the stored cells are the logical value itself (Decode is
  /// the identity), so a segment's logical ones count is its cells' ones
  /// count and content statistics can skip the decode.
  virtual bool StoresVerbatim() const { return false; }

  /// Auxiliary metadata cells the scheme consumes per segment of
  /// `segment_bits` data bits (flag/tag overhead, for capacity accounting).
  virtual size_t AuxBitsPerSegment(size_t segment_bits) const { return 0; }

  /// Notifies the scheme that the raw cells of `src` were copied onto
  /// `dst` (a wear-leveling gap move): per-segment auxiliary state must
  /// follow the cells or decoding at `dst` breaks. Default: stateless.
  virtual void OnMigrate(uint64_t src, uint64_t dst) {}

  /// Drops all per-segment state (device reset).
  virtual void Reset() {}
};

}  // namespace e2nvm::nvm

#endif  // E2NVM_NVM_WRITE_SCHEME_H_
