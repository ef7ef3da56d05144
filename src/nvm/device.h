#ifndef E2NVM_NVM_DEVICE_H_
#define E2NVM_NVM_DEVICE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.h"
#include "common/histogram.h"
#include "common/status.h"
#include "nvm/constants.h"
#include "nvm/energy.h"
#include "nvm/fault_injector.h"
#include "nvm/write_scheme.h"

namespace e2nvm::nvm {

/// Configuration of a simulated NVM device.
struct DeviceConfig {
  /// Number of fixed-size memory segments.
  size_t num_segments = 1024;
  /// Bits per segment (the paper's motivating block is 256 B = 2048 bits).
  size_t segment_bits = 2048;
  /// Track per-bit flip counts (needed by the Fig 19 wear CDFs; costs
  /// 4 bytes per cell).
  bool track_bit_wear = false;
  /// Read back every write and re-program mismatched cells (bounded by
  /// max_write_retries). Only meaningful with a FaultInjector attached —
  /// a fault-free device always verifies clean on the first pass.
  bool verify_writes = false;
  /// Total program attempts per write before falling back to spare-cell
  /// repair (and, failing that, reporting verify_failed). Must be >= 1.
  size_t max_write_retries = 3;
  /// Physical cost parameters.
  PcmParams pcm;
};

/// Aggregate device statistics.
struct DeviceStats {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t data_bits_flipped = 0;
  uint64_t aux_bits_flipped = 0;
  uint64_t set_transitions = 0;    // 0 -> 1 programs
  uint64_t reset_transitions = 0;  // 1 -> 0 programs
  uint64_t dirty_lines = 0;
  uint64_t logical_bits_written = 0;  // Payload size of every write summed.

  // --- Fault handling (all zero without a FaultInjector) ---
  uint64_t faults_injected = 0;   // Programs perturbed by the injector.
  uint64_t torn_writes = 0;       // Programs that committed a prefix only.
  uint64_t read_disturbs = 0;     // Reads returned with a flipped bit.
  uint64_t verify_retries = 0;    // Extra program attempts after read-back.
  uint64_t verify_failures = 0;   // Writes left wrong after retries+repair.
  uint64_t repaired_cells = 0;    // Stuck cells remapped to spares.

  uint64_t total_bits_flipped() const {
    return data_bits_flipped + aux_bits_flipped;
  }
  /// The paper's headline metric: average bit updates per write (Fig 2)
  /// or per written data bit (Fig 12).
  double FlipsPerWrite() const {
    return writes ? static_cast<double>(total_bits_flipped()) /
                        static_cast<double>(writes)
                  : 0.0;
  }
  double FlipsPerDataBit() const {
    return logical_bits_written
               ? static_cast<double>(total_bits_flipped()) /
                     static_cast<double>(logical_bits_written)
               : 0.0;
  }
};

/// A simulated PCM/Optane device: an array of fixed-size bit segments with
/// per-segment write counters, optional per-bit wear tracking, and energy /
/// latency accounting through an EnergyMeter.
///
/// This is the substitution for the paper's real Optane DIMM: the paper
/// itself measures bit flips on an *emulated* device (§5.2, "bit flip
/// reduction ... cannot be measured using the real device") and shows
/// (Fig 1) that Optane energy is monotone in flips, which is precisely the
/// coupling this model implements.
///
/// Concurrency (DESIGN.md §10, §13): one device may serve N shards, each
/// reading/writing only its own segment range from its own thread.
/// Per-segment state (cells, write counts, bit wear) needs no locking
/// under that discipline; the aggregate counters are striped into
/// per-lane relaxed-atomic accounting slabs routed by segment range
/// (ConfigureAccountingLanes), merged only by `stats()` — there is no
/// device-level mutex anywhere on the read/write path. Each lane is
/// single-writer under the shard discipline, so the merged counts are
/// exact and bit-identical to a serial replay (integers commute; the
/// meter's energy merge contract is documented in energy.h). `stats()`
/// returns a merged value snapshot; taken while writers are active it is
/// a per-lane-consistent merge, taken quiescent it is exact. Fault
/// injection is concurrency-safe under the same per-segment discipline —
/// but note the injector serializes on its own internal mutex, so it is
/// excluded from the "no shard-external lock" steady-state guarantee.
class NvmDevice {
 public:
  /// Creates a device with all cells zero. The meter is optional; if null,
  /// an internal meter is used.
  explicit NvmDevice(const DeviceConfig& config,
                     EnergyMeter* meter = nullptr);

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  size_t num_segments() const { return config_.num_segments; }
  size_t segment_bits() const { return config_.segment_bits; }
  const DeviceConfig& config() const { return config_; }

  /// Reads segment `seg`, charging read energy and latency.
  const BitVector& ReadSegment(size_t seg);

  /// Zero-cost inspection of a segment's content — used for software
  /// bookkeeping that would live in DRAM copies (training snapshots), not
  /// for the datapath.
  const BitVector& PeekSegment(size_t seg) const {
    return segments_[seg];
  }

  /// Number of set cells in segment `seg`: PeekSegment(seg).Popcount(),
  /// kept current by every cell change instead of recounted.
  uint32_t SegmentOnes(size_t seg) const { return seg_ones_[seg]; }

  /// Writes `data` to segment `seg` through `scheme`, updating storage,
  /// flip counters, per-bit wear, and charging energy/latency.
  /// `data.size()` must equal segment_bits().
  WriteResult WriteSegment(size_t seg, const BitVector& data,
                           WriteScheme& scheme);

  /// Allocation-free WriteSegment: encodes and commits into `*result`,
  /// whose `stored` BitVector reuses its capacity across calls (the
  /// write path's per-PUT scratch). Same semantics as WriteSegment.
  void WriteSegmentInto(size_t seg, const BitVector& data,
                        WriteScheme& scheme, WriteResult* result);

  /// Seeds a segment's cells without counting flips or energy (device
  /// initialization; the paper's "load phase" content).
  void SeedSegment(size_t seg, const BitVector& content);

  /// Copies segment `src`'s raw cells onto segment `dst` differentially,
  /// counting flips/energy (used by wear-leveling gap moves).
  void MigrateSegment(size_t src, size_t dst);

  /// Silently flips one cell of `seg` — no stats, no energy, no wear.
  /// Models in-array bit rot (retention drift) for scrubber tests; only
  /// an integrity scrub can notice the damage.
  void FlipCellRaw(size_t seg, size_t bit);

  /// Re-stripes the aggregate counters (and the attached EnergyMeter)
  /// into `num_lanes` slabs, lane l owning segments
  /// [l * segments_per_lane, (l+1) * segments_per_lane) with the last
  /// lane absorbing any tail. Must be called while quiescent — typically
  /// once by ShardedStore::Create, before shards attach. Counts and
  /// energy accumulated so far fold into lane 0.
  void ConfigureAccountingLanes(size_t num_lanes, size_t segments_per_lane);

  /// Accounting lane owning segment `seg`.
  size_t LaneOfSegment(size_t seg) const {
    if (lane_segments_ == 0) return 0;
    return std::min(seg / lane_segments_, num_lanes_ - 1);
  }
  size_t num_accounting_lanes() const { return num_lanes_; }

  /// Merged view of all accounting lanes (see the concurrency note
  /// above). Returns by value: the merge is the snapshot.
  DeviceStats stats() const;
  void ResetStats();

  /// Per-segment write counts (Fig 19's "maximum update addresses" CDF).
  const std::vector<uint64_t>& segment_write_counts() const {
    return seg_writes_;
  }

  /// Histogram of per-segment write counts.
  Histogram SegmentWriteHistogram() const;

  /// Histogram of per-bit flip counts; requires track_bit_wear.
  StatusOr<Histogram> BitWearHistogram() const;

  /// Highest per-cell flip count seen (endurance headroom check).
  uint64_t MaxCellWear() const;

  /// Fraction of device endurance consumed by the most-worn cell.
  double LifetimeConsumed() const {
    return static_cast<double>(MaxCellWear()) /
           static_cast<double>(config_.pcm.endurance_writes);
  }

  EnergyMeter& meter() { return *meter_; }
  const EnergyModel& energy_model() const { return model_; }

  /// Attaches a fault-injection policy (nullptr detaches). The injector
  /// must outlive the device; it is bound to this device's geometry and
  /// endurance budget, which also sticks its initial stuck-cell fraction.
  void AttachFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() { return injector_; }

 private:
  /// Applies `stored` to the segment cells, counting transitions and wear
  /// (and feeding wear-driven sticking to the injector, if any). The one
  /// place a program changes cells, so it also moves the ones count.
  void CommitStored(size_t seg, const BitVector& stored,
                    size_t* set_bits, size_t* reset_bits);

  /// One program attempt of `intended` onto `seg`: lets the injector
  /// perturb the image, commits, and charges write energy/latency.
  void ProgramCells(size_t seg, const BitVector& intended, bool allow_tear);

  /// One striped counter slab, mirroring DeviceStats field for field.
  /// Cache-line aligned so lanes never false-share; single-writer per
  /// lane, so relaxed load+store accumulation is exact.
  struct alignas(64) StatsLane {
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> data_bits_flipped{0};
    std::atomic<uint64_t> aux_bits_flipped{0};
    std::atomic<uint64_t> set_transitions{0};
    std::atomic<uint64_t> reset_transitions{0};
    std::atomic<uint64_t> dirty_lines{0};
    std::atomic<uint64_t> logical_bits_written{0};
    std::atomic<uint64_t> faults_injected{0};
    std::atomic<uint64_t> torn_writes{0};
    std::atomic<uint64_t> read_disturbs{0};
    std::atomic<uint64_t> verify_retries{0};
    std::atomic<uint64_t> verify_failures{0};
    std::atomic<uint64_t> repaired_cells{0};
  };
  /// Single-writer relaxed accumulate (no RMW needed: the lane owner's
  /// shard lock serializes its writes).
  static void Bump(std::atomic<uint64_t>& c, uint64_t v) {
    c.store(c.load(std::memory_order_relaxed) + v,
            std::memory_order_relaxed);
  }
  StatsLane& LaneSlab(size_t seg) { return lanes_[LaneOfSegment(seg)]; }

  DeviceConfig config_;
  std::vector<BitVector> segments_;
  std::vector<uint64_t> seg_writes_;
  std::vector<uint32_t> seg_ones_;  // Set cells per segment.
  std::vector<uint32_t> bit_wear_;  // Flattened [seg * segment_bits + bit].
  size_t num_lanes_ = 1;
  size_t lane_segments_ = 0;  // 0 = everything maps to lane 0.
  std::unique_ptr<StatsLane[]> lanes_;
  EnergyModel model_;
  EnergyMeter own_meter_;
  EnergyMeter* meter_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace e2nvm::nvm

#endif  // E2NVM_NVM_DEVICE_H_
