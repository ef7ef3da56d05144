#include "nvm/device.h"

#include <algorithm>

#include "common/logging.h"

namespace e2nvm::nvm {

namespace {

/// Bit positions where `a` and `b` differ (both the same size).
std::vector<size_t> DiffBits(const BitVector& a, const BitVector& b) {
  std::vector<size_t> out;
  const auto& aw = a.words();
  const auto& bw = b.words();
  for (size_t w = 0; w < aw.size(); ++w) {
    uint64_t diff = aw[w] ^ bw[w];
    while (diff != 0) {
      int bit = std::countr_zero(diff);
      diff &= diff - 1;
      out.push_back(w * 64 + static_cast<size_t>(bit));
    }
  }
  return out;
}

}  // namespace

NvmDevice::NvmDevice(const DeviceConfig& config, EnergyMeter* meter)
    : config_(config),
      segments_(config.num_segments, BitVector(config.segment_bits)),
      seg_writes_(config.num_segments, 0),
      seg_ones_(config.num_segments, 0),
      lanes_(new StatsLane[1]),
      model_(config.pcm),
      meter_(meter != nullptr ? meter : &own_meter_) {
  if (config_.track_bit_wear) {
    bit_wear_.assign(config_.num_segments * config_.segment_bits, 0);
  }
}

void NvmDevice::ConfigureAccountingLanes(size_t num_lanes,
                                         size_t segments_per_lane) {
  if (num_lanes == 0) num_lanes = 1;
  DeviceStats carry = stats();
  lanes_.reset(new StatsLane[num_lanes]);
  num_lanes_ = num_lanes;
  lane_segments_ = num_lanes > 1 ? segments_per_lane : 0;
  StatsLane& l0 = lanes_[0];
  l0.writes.store(carry.writes, std::memory_order_relaxed);
  l0.reads.store(carry.reads, std::memory_order_relaxed);
  l0.data_bits_flipped.store(carry.data_bits_flipped,
                             std::memory_order_relaxed);
  l0.aux_bits_flipped.store(carry.aux_bits_flipped,
                            std::memory_order_relaxed);
  l0.set_transitions.store(carry.set_transitions, std::memory_order_relaxed);
  l0.reset_transitions.store(carry.reset_transitions,
                             std::memory_order_relaxed);
  l0.dirty_lines.store(carry.dirty_lines, std::memory_order_relaxed);
  l0.logical_bits_written.store(carry.logical_bits_written,
                                std::memory_order_relaxed);
  l0.faults_injected.store(carry.faults_injected, std::memory_order_relaxed);
  l0.torn_writes.store(carry.torn_writes, std::memory_order_relaxed);
  l0.read_disturbs.store(carry.read_disturbs, std::memory_order_relaxed);
  l0.verify_retries.store(carry.verify_retries, std::memory_order_relaxed);
  l0.verify_failures.store(carry.verify_failures, std::memory_order_relaxed);
  l0.repaired_cells.store(carry.repaired_cells, std::memory_order_relaxed);
  meter_->SetLanes(num_lanes);
}

DeviceStats NvmDevice::stats() const {
  DeviceStats s;
  for (size_t l = 0; l < num_lanes_; ++l) {
    const StatsLane& lane = lanes_[l];
    s.writes += lane.writes.load(std::memory_order_relaxed);
    s.reads += lane.reads.load(std::memory_order_relaxed);
    s.data_bits_flipped +=
        lane.data_bits_flipped.load(std::memory_order_relaxed);
    s.aux_bits_flipped +=
        lane.aux_bits_flipped.load(std::memory_order_relaxed);
    s.set_transitions += lane.set_transitions.load(std::memory_order_relaxed);
    s.reset_transitions +=
        lane.reset_transitions.load(std::memory_order_relaxed);
    s.dirty_lines += lane.dirty_lines.load(std::memory_order_relaxed);
    s.logical_bits_written +=
        lane.logical_bits_written.load(std::memory_order_relaxed);
    s.faults_injected += lane.faults_injected.load(std::memory_order_relaxed);
    s.torn_writes += lane.torn_writes.load(std::memory_order_relaxed);
    s.read_disturbs += lane.read_disturbs.load(std::memory_order_relaxed);
    s.verify_retries += lane.verify_retries.load(std::memory_order_relaxed);
    s.verify_failures += lane.verify_failures.load(std::memory_order_relaxed);
    s.repaired_cells += lane.repaired_cells.load(std::memory_order_relaxed);
  }
  return s;
}

void NvmDevice::AttachFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  if (injector_ != nullptr) {
    injector_->Bind(config_.num_segments, config_.segment_bits,
                    config_.pcm.endurance_writes);
  }
}

const BitVector& NvmDevice::ReadSegment(size_t seg) {
  E2_CHECK(seg < segments_.size(), "segment %zu out of range", seg);
  const size_t lane = LaneOfSegment(seg);
  Bump(lanes_[lane].reads, 1);
  meter_->ChargeLane(lane, EnergyDomain::kPmemRead,
                     model_.ReadPj(config_.segment_bits));
  size_t lines = (config_.segment_bits + kCacheLineBits - 1) / kCacheLineBits;
  meter_->AdvanceTimeLane(lane, model_.ReadNs(lines));
  if (injector_ != nullptr) {
    // Thread-local: the disturbed copy is consumed (decoded) by the
    // caller before its next read, and concurrent shard readers must not
    // share one buffer.
    thread_local BitVector read_buf;
    read_buf = segments_[seg];
    if (injector_->MutateRead(seg, &read_buf)) {
      Bump(lanes_[lane].read_disturbs, 1);
      return read_buf;
    }
  }
  return segments_[seg];
}

void NvmDevice::CommitStored(size_t seg, const BitVector& stored,
                             size_t* set_bits, size_t* reset_bits) {
  BitVector& cells = segments_[seg];
  const bool walk_bits = config_.track_bit_wear || injector_ != nullptr;
  if (!walk_bits) {
    // Fast case: only the aggregate transition counts are needed, and
    // the dispatched diff kernel produces both in one vectorized pass.
    DiffCounts d = BitVector::DiffStats(cells, stored);
    cells = stored;
    seg_ones_[seg] += static_cast<uint32_t>(d.sets - d.resets);
    *set_bits = d.sets;
    *reset_bits = d.resets;
    return;
  }
  size_t sets = 0;
  size_t resets = 0;
  const auto& old_words = cells.words();
  const auto& new_words = stored.words();
  for (size_t w = 0; w < old_words.size(); ++w) {
    uint64_t diff = old_words[w] ^ new_words[w];
    if (diff == 0) continue;
    sets += static_cast<size_t>(std::popcount(diff & new_words[w]));
    resets += static_cast<size_t>(std::popcount(diff & old_words[w]));
    uint64_t d = diff;
    while (d != 0) {
      int bit = std::countr_zero(d);
      d &= d - 1;
      size_t bit_index = w * 64 + static_cast<size_t>(bit);
      size_t idx = seg * config_.segment_bits + bit_index;
      uint64_t wear = seg_writes_[seg];
      if (config_.track_bit_wear && idx < bit_wear_.size()) {
        wear = ++bit_wear_[idx];
      }
      if (injector_ != nullptr) {
        injector_->OnCellProgrammed(seg, bit_index,
                                    (new_words[w] >> bit) & 1, wear);
      }
    }
  }
  cells = stored;
  seg_ones_[seg] += static_cast<uint32_t>(sets - resets);
  *set_bits = sets;
  *reset_bits = resets;
}

void NvmDevice::ProgramCells(size_t seg, const BitVector& intended,
                             bool allow_tear) {
  // Only the injector may perturb the program image; without one the
  // intended bits are committed directly, with no copy on the hot path.
  // (The thread-local scratch reuses its capacity, so even the injector
  // path settles into zero allocations, and concurrent shard writers
  // never share a program image.)
  const BitVector* target = &intended;
  bool injected = false;
  bool torn = false;
  if (injector_ != nullptr) {
    thread_local BitVector write_buf;
    write_buf = intended;
    injected = injector_->MutateWrite(seg, segments_[seg], &write_buf,
                                      allow_tear, &torn);
    target = &write_buf;
  }
  size_t dirty = target->DirtyLines(segments_[seg], kCacheLineBits);
  size_t set_bits = 0;
  size_t reset_bits = 0;
  CommitStored(seg, *target, &set_bits, &reset_bits);
  const size_t lane = LaneOfSegment(seg);
  StatsLane& slab = lanes_[lane];
  if (injected) Bump(slab.faults_injected, 1);
  if (torn) Bump(slab.torn_writes, 1);
  Bump(slab.set_transitions, set_bits);
  Bump(slab.reset_transitions, reset_bits);
  Bump(slab.dirty_lines, dirty);
  meter_->ChargeLane(lane, EnergyDomain::kPmemWrite,
                     model_.WritePj(set_bits, reset_bits, dirty));
  meter_->AdvanceTimeLane(lane, model_.WriteNs(dirty));
}

WriteResult NvmDevice::WriteSegment(size_t seg, const BitVector& data,
                                    WriteScheme& scheme) {
  WriteResult result;
  WriteSegmentInto(seg, data, scheme, &result);
  return result;
}

void NvmDevice::WriteSegmentInto(size_t seg, const BitVector& data,
                                 WriteScheme& scheme,
                                 WriteResult* result_out) {
  WriteResult& result = *result_out;
  E2_CHECK(seg < segments_.size(), "segment %zu out of range", seg);
  E2_CHECK(data.size() == config_.segment_bits,
           "data size %zu != segment bits %zu", data.size(),
           config_.segment_bits);
  scheme.WriteInto(seg, segments_[seg], data, &result);
  E2_CHECK(result.stored.size() == config_.segment_bits,
           "scheme %s produced wrong stored size",
           std::string(scheme.name()).c_str());

  ++seg_writes_[seg];
  const size_t lane = LaneOfSegment(seg);
  StatsLane& slab = lanes_[lane];
  Bump(slab.writes, 1);
  Bump(slab.data_bits_flipped, result.data_bits_flipped);
  Bump(slab.aux_bits_flipped, result.aux_bits_flipped);
  Bump(slab.logical_bits_written, data.size());
  ProgramCells(seg, result.stored, /*allow_tear=*/true);

  // Aux flips happen in metadata cells; charge them at SET cost.
  meter_->ChargeLane(lane, EnergyDomain::kPmemWrite,
                     static_cast<double>(result.aux_bits_flipped) *
                         config_.pcm.set_energy_pj);

  // Write-verify: read back and re-program while the committed cells
  // differ from the intended image (torn writes heal on retry; stuck
  // cells need the spare-cell repair below).
  if (config_.verify_writes && injector_ != nullptr) {
    size_t attempts = 1;
    size_t max_attempts = std::max<size_t>(config_.max_write_retries, 1);
    while (!(segments_[seg] == result.stored) && attempts < max_attempts) {
      ++attempts;
      ++result.verify_retries;
      Bump(slab.verify_retries, 1);
      ProgramCells(seg, result.stored, /*allow_tear=*/true);
    }
    if (!(segments_[seg] == result.stored)) {
      // Only persistently faulty (stuck) cells survive retries. Remap
      // them to spares if the segment's budget allows, then program the
      // intended image with a final careful (no-tear) pulse.
      std::vector<size_t> bad = DiffBits(segments_[seg], result.stored);
      if (injector_->RepairCells(seg, bad)) {
        Bump(slab.repaired_cells, bad.size());
        Bump(slab.verify_retries, 1);
        ++result.verify_retries;
        ProgramCells(seg, result.stored, /*allow_tear=*/false);
      }
      if (!(segments_[seg] == result.stored)) {
        result.verify_failed = true;
        Bump(slab.verify_failures, 1);
      }
    }
  }
}

void NvmDevice::SeedSegment(size_t seg, const BitVector& content) {
  E2_CHECK(seg < segments_.size(), "segment %zu out of range", seg);
  E2_CHECK(content.size() == config_.segment_bits,
           "seed size %zu != segment bits %zu", content.size(),
           config_.segment_bits);
  segments_[seg] = content;
  seg_ones_[seg] = static_cast<uint32_t>(content.Popcount());
}

void NvmDevice::MigrateSegment(size_t src, size_t dst) {
  E2_CHECK(src < segments_.size() && dst < segments_.size(),
           "migrate out of range");
  BitVector stored = segments_[src];
  // Gap moves are raw cell copies: stuck destination cells still hold
  // their value, but there is no verify pass (the leveler is below the
  // layer that could re-place the data).
  if (injector_ != nullptr) injector_->ClampStuck(dst, &stored);
  const BitVector& old = segments_[dst];
  size_t flips = stored.HammingDistance(old);
  size_t dirty = stored.DirtyLines(old, kCacheLineBits);
  size_t set_bits = 0;
  size_t reset_bits = 0;
  ++seg_writes_[dst];
  CommitStored(dst, stored, &set_bits, &reset_bits);
  const size_t lane = LaneOfSegment(dst);
  StatsLane& slab = lanes_[lane];
  Bump(slab.writes, 1);
  Bump(slab.data_bits_flipped, flips);
  Bump(slab.set_transitions, set_bits);
  Bump(slab.reset_transitions, reset_bits);
  Bump(slab.dirty_lines, dirty);
  meter_->ChargeLane(lane, EnergyDomain::kPmemWrite,
                     model_.WritePj(set_bits, reset_bits, dirty) +
                         model_.ReadPj(config_.segment_bits));
  meter_->AdvanceTimeLane(lane, model_.WriteNs(dirty));
}

void NvmDevice::FlipCellRaw(size_t seg, size_t bit) {
  E2_CHECK(seg < segments_.size(), "segment %zu out of range", seg);
  E2_CHECK(bit < config_.segment_bits, "bit %zu out of range", bit);
  if (segments_[seg].Get(bit)) {
    segments_[seg].Set(bit, false);
    --seg_ones_[seg];
  } else {
    segments_[seg].Set(bit, true);
    ++seg_ones_[seg];
  }
}

void NvmDevice::ResetStats() {
  for (size_t l = 0; l < num_lanes_; ++l) {
    StatsLane& lane = lanes_[l];
    for (std::atomic<uint64_t>* c :
         {&lane.writes, &lane.reads, &lane.data_bits_flipped,
          &lane.aux_bits_flipped, &lane.set_transitions,
          &lane.reset_transitions, &lane.dirty_lines,
          &lane.logical_bits_written, &lane.faults_injected,
          &lane.torn_writes, &lane.read_disturbs, &lane.verify_retries,
          &lane.verify_failures, &lane.repaired_cells}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
}

Histogram NvmDevice::SegmentWriteHistogram() const {
  Histogram h;
  for (uint64_t c : seg_writes_) h.Add(c);
  return h;
}

StatusOr<Histogram> NvmDevice::BitWearHistogram() const {
  if (!config_.track_bit_wear) {
    return Status::FailedPrecondition(
        "device created without track_bit_wear");
  }
  Histogram h;
  for (uint32_t c : bit_wear_) h.Add(c);
  return h;
}

uint64_t NvmDevice::MaxCellWear() const {
  if (config_.track_bit_wear) {
    uint32_t mx = 0;
    for (uint32_t c : bit_wear_) mx = std::max(mx, c);
    return mx;
  }
  // Without per-bit tracking, a segment write is an upper bound on any
  // cell's wear within it.
  uint64_t mx = 0;
  for (uint64_t c : seg_writes_) mx = std::max(mx, c);
  return mx;
}

}  // namespace e2nvm::nvm
