#ifndef E2NVM_NVM_CONTROLLER_H_
#define E2NVM_NVM_CONTROLLER_H_

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/bitvec.h"
#include "common/kernels.h"
#include "nvm/device.h"
#include "nvm/wear_leveler.h"
#include "nvm/write_scheme.h"

namespace e2nvm::nvm {

/// The memory controller of the system model (§2.1): intercepts every
/// operation to NVM, applies a hardware write scheme, and optionally runs
/// Start-Gap wear leveling underneath the software layer.
///
/// Software (E2-NVM, the KV store, the indexes) addresses *logical*
/// segments; the controller owns the logical -> physical mapping. This
/// mirrors the paper's setup where the wear-leveling period psi is a
/// property of the (emulated) controller that software cannot control.
class MemoryController {
 public:
  /// Takes shared ownership of nothing: `device` and `scheme` must outlive
  /// the controller. If `psi > 0`, Start-Gap leveling is enabled and the
  /// device must have been created with one extra physical segment
  /// (num_logical + 1).
  MemoryController(NvmDevice* device, WriteScheme* scheme, size_t num_logical,
                   uint64_t psi)
      : device_(device), scheme_(scheme), num_logical_(num_logical) {
    if (psi > 0) {
      leveler_.emplace(num_logical, psi);
    }
  }

  size_t num_logical() const { return num_logical_; }
  size_t segment_bits() const { return device_->segment_bits(); }

  /// Logical read through the mapping (charges device read costs) and the
  /// scheme's decode.
  BitVector Read(size_t logical) {
    size_t pa = Physical(logical);
    return scheme_->Decode(pa, device_->ReadSegment(pa));
  }

  /// Logical read into a caller-owned buffer (reuses `out`'s capacity) —
  /// the allocation-free variant of Read for steady-state serving paths
  /// (net/server GETs). Charges the same device read costs.
  void ReadInto(size_t logical, BitVector* out) {
    size_t pa = Physical(logical);
    scheme_->DecodeInto(pa, device_->ReadSegment(pa), out);
  }

  /// Zero-cost logical content inspection (software bookkeeping).
  BitVector Peek(size_t logical) const {
    size_t pa = Physical(logical);
    return scheme_->Decode(pa, device_->PeekSegment(pa));
  }

  /// Peek into a caller-owned buffer (reuses `out`'s capacity) — the
  /// allocation-free variant for steady-state Release-path peeks.
  void PeekInto(size_t logical, BitVector* out) const {
    size_t pa = Physical(logical);
    scheme_->DecodeInto(pa, device_->PeekSegment(pa), out);
  }

  /// Ones in `logical`'s decoded content: the device's kept count when
  /// the scheme stores verbatim, else a decode into `scratch` (capacity
  /// reused) and its popcount.
  size_t PeekOnes(size_t logical, BitVector* scratch) const {
    size_t pa = Physical(logical);
    if (scheme_->StoresVerbatim()) return device_->SegmentOnes(pa);
    scheme_->DecodeInto(pa, device_->PeekSegment(pa), scratch);
    return scratch->Popcount();
  }

  /// Logical write through the scheme; advances wear leveling (scheme
  /// aux state migrates with the moved cells). A write whose read-back
  /// verify still fails after retries and spare-cell repair quarantines
  /// the logical segment: it stays mapped (its cells remain readable)
  /// but callers should stop placing fresh data onto it.
  WriteResult Write(size_t logical, const BitVector& data) {
    WriteResult r;
    WriteInto(logical, data, &r);
    return r;
  }

  /// Allocation-free Write: commits into the caller's scratch result
  /// (see WriteScheme::WriteInto for the reuse contract).
  void WriteInto(size_t logical, const BitVector& data, WriteResult* r) {
    size_t pa = Physical(logical);
    device_->WriteSegmentInto(pa, data, *scheme_, r);
    if (r->verify_failed) quarantined_.insert(logical);
    if (!expected_crc_.empty()) {
      if (r->verify_failed) {
        // The committed cells are known-wrong; nothing to verify against.
        expected_valid_[logical] = 0;
      } else {
        expected_crc_[logical] = StoredCrc(r->stored);
        expected_valid_[logical] = 1;
      }
    }
    if (leveler_) leveler_->OnWrite(*device_, scheme_);
  }

  // --- Segment-content integrity map (scrubber support) ---

  /// Starts recording the CRC32C of every committed intended image, per
  /// logical segment, so VerifySegment can later detect silent in-array
  /// corruption (retention drift, stuck cells flipping between writes).
  /// Costs 5 bytes per logical segment plus one crc per write.
  void EnableIntegrityTracking() {
    expected_crc_.assign(num_logical_, 0);
    expected_valid_.assign(num_logical_, 0);
  }
  bool integrity_tracking() const { return !expected_crc_.empty(); }

  enum class SegmentCheck {
    kOk = 0,      // Committed cells match the recorded checksum.
    kMismatch,    // Silent corruption: cells differ from what was written.
    kUntracked,   // No checksummed write since tracking was enabled.
  };

  /// Compares `logical`'s committed cells (zero-cost peek, no read
  /// disturb) against the recorded checksum of the last intended image.
  SegmentCheck VerifySegment(size_t logical) const {
    if (expected_crc_.empty() || expected_valid_[logical] == 0) {
      return SegmentCheck::kUntracked;
    }
    return StoredCrc(device_->PeekSegment(Physical(logical))) ==
                   expected_crc_[logical]
               ? SegmentCheck::kOk
               : SegmentCheck::kMismatch;
  }

  /// Adopts `logical`'s current committed cells as the expected content
  /// (after a scrub repair, or for drifted free segments whose content
  /// only feeds model training).
  void RestampSegment(size_t logical) {
    if (expected_crc_.empty()) return;
    expected_crc_[logical] =
        StoredCrc(device_->PeekSegment(Physical(logical)));
    expected_valid_[logical] = 1;
  }

  /// True if `logical` has been quarantined (write-verify keeps failing).
  bool IsQuarantined(size_t logical) const {
    return quarantined_.count(logical) != 0;
  }

  /// Manually quarantines a logical segment (tests, scrubbers).
  void Quarantine(size_t logical) { quarantined_.insert(logical); }

  size_t quarantined_count() const { return quarantined_.size(); }
  const std::unordered_set<size_t>& quarantined() const {
    return quarantined_;
  }

  /// Seeds a logical segment without cost accounting (load phase).
  void Seed(size_t logical, const BitVector& content) {
    device_->SeedSegment(Physical(logical), content);
    if (!expected_crc_.empty()) {
      expected_crc_[logical] = StoredCrc(content);
      expected_valid_[logical] = 1;
    }
  }

  size_t Physical(size_t logical) const {
    return leveler_ ? leveler_->Map(logical) : logical;
  }

  NvmDevice& device() { return *device_; }
  const NvmDevice& device() const { return *device_; }
  WriteScheme& scheme() { return *scheme_; }
  const StartGapLeveler* leveler() const {
    return leveler_ ? &*leveler_ : nullptr;
  }

 private:
  /// Checksum of a raw stored image (the pre-decode cell content).
  static uint32_t StoredCrc(const BitVector& stored) {
    return e2nvm::Crc32c(stored.words().data(), stored.num_words() * 8);
  }

  NvmDevice* device_;
  WriteScheme* scheme_;
  size_t num_logical_;
  std::optional<StartGapLeveler> leveler_;
  std::unordered_set<size_t> quarantined_;  // Logical bad-segment list.
  // Integrity map (empty unless EnableIntegrityTracking): per logical
  // segment, the CRC32C of the last committed intended image and whether
  // it is trustworthy.
  std::vector<uint32_t> expected_crc_;
  std::vector<uint8_t> expected_valid_;
};

}  // namespace e2nvm::nvm

#endif  // E2NVM_NVM_CONTROLLER_H_
