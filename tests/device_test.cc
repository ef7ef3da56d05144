#include "nvm/device.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nvm/controller.h"
#include "nvm/wear_leveler.h"
#include "schemes/schemes.h"

namespace e2nvm::nvm {
namespace {

DeviceConfig SmallConfig(size_t segments = 8, size_t bits = 256,
                         bool wear = false) {
  DeviceConfig c;
  c.num_segments = segments;
  c.segment_bits = bits;
  c.track_bit_wear = wear;
  return c;
}

TEST(DeviceTest, StartsZeroed) {
  NvmDevice dev(SmallConfig());
  for (size_t i = 0; i < dev.num_segments(); ++i) {
    EXPECT_EQ(dev.PeekSegment(i).Popcount(), 0u);
  }
  EXPECT_EQ(dev.stats().writes, 0u);
}

TEST(DeviceTest, DcwWriteCountsExactFlips) {
  NvmDevice dev(SmallConfig());
  schemes::Dcw dcw;
  BitVector data(256);
  data.Set(0, true);
  data.Set(100, true);
  data.Set(255, true);
  WriteResult r = dev.WriteSegment(3, data, dcw);
  EXPECT_EQ(r.data_bits_flipped, 3u);
  EXPECT_EQ(dev.stats().data_bits_flipped, 3u);
  EXPECT_EQ(dev.stats().set_transitions, 3u);
  EXPECT_EQ(dev.stats().reset_transitions, 0u);
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.PeekSegment(3), data);

  // Overwrite with complement: 3 resets + 253 sets.
  dev.WriteSegment(3, data.Inverted(), dcw);
  EXPECT_EQ(dev.stats().reset_transitions, 3u);
  EXPECT_EQ(dev.stats().set_transitions, 3u + 253u);
}

TEST(DeviceTest, IdenticalWriteFlipsNothing) {
  NvmDevice dev(SmallConfig());
  schemes::Dcw dcw;
  Rng rng(5);
  BitVector data(256);
  data.Randomize(rng);
  dev.WriteSegment(0, data, dcw);
  uint64_t flips = dev.stats().total_bits_flipped();
  uint64_t lines = dev.stats().dirty_lines;
  dev.WriteSegment(0, data, dcw);
  EXPECT_EQ(dev.stats().total_bits_flipped(), flips);
  EXPECT_EQ(dev.stats().dirty_lines, lines);  // No dirty lines added.
  EXPECT_EQ(dev.stats().writes, 2u);
}

TEST(DeviceTest, DirtyLinesReflectLocality) {
  // 2048-bit segment = 4 cache lines of 512 bits.
  DeviceConfig c = SmallConfig(2, 2048);
  NvmDevice dev(c);
  schemes::Dcw dcw;
  BitVector data(2048);
  data.Set(0, true);  // Only line 0 touched.
  dev.WriteSegment(0, data, dcw);
  EXPECT_EQ(dev.stats().dirty_lines, 1u);
  BitVector more = data;
  more.Set(600, true);   // Line 1.
  more.Set(1999, true);  // Line 3.
  dev.WriteSegment(0, more, dcw);
  EXPECT_EQ(dev.stats().dirty_lines, 1u + 2u);
}

TEST(DeviceTest, EnergyMonotoneInFlips) {
  // The Fig 1 premise: more differing bits => more energy and latency.
  double prev_energy = -1;
  double prev_time = -1;
  for (size_t flips : {16u, 64u, 128u, 256u}) {
    NvmDevice dev(SmallConfig(2, 256));
    schemes::Dcw dcw;
    Rng rng(7);
    BitVector init(256);
    init.Randomize(rng);
    dev.SeedSegment(0, init);
    BitVector next = init;
    next.FlipRandomBits(flips, rng);
    dev.WriteSegment(0, next, dcw);
    double e = dev.meter().DomainPj(EnergyDomain::kPmemWrite);
    double t = dev.meter().now_ns();
    EXPECT_GT(e, prev_energy);
    EXPECT_GE(t, prev_time);
    prev_energy = e;
    prev_time = t;
  }
}

TEST(DeviceTest, SeedDoesNotCount) {
  NvmDevice dev(SmallConfig());
  Rng rng(1);
  BitVector data(256);
  data.Randomize(rng);
  dev.SeedSegment(2, data);
  EXPECT_EQ(dev.stats().writes, 0u);
  EXPECT_EQ(dev.stats().total_bits_flipped(), 0u);
  EXPECT_EQ(dev.PeekSegment(2), data);
}

TEST(DeviceTest, ReadChargesEnergyAndCounts) {
  NvmDevice dev(SmallConfig());
  dev.ReadSegment(0);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_GT(dev.meter().DomainPj(EnergyDomain::kPmemRead), 0.0);
}

TEST(DeviceTest, MigrateCountsFlips) {
  NvmDevice dev(SmallConfig());
  schemes::Dcw dcw;
  Rng rng(9);
  BitVector a(256), b(256);
  a.Randomize(rng);
  b.Randomize(rng);
  dev.SeedSegment(0, a);
  dev.SeedSegment(1, b);
  size_t expect = a.HammingDistance(b);
  dev.MigrateSegment(0, 1);
  EXPECT_EQ(dev.stats().data_bits_flipped, expect);
  EXPECT_EQ(dev.PeekSegment(1), a);
  EXPECT_EQ(dev.PeekSegment(0), a);  // Source untouched.
}

TEST(DeviceTest, BitWearTracking) {
  DeviceConfig c = SmallConfig(2, 128, /*wear=*/true);
  NvmDevice dev(c);
  schemes::Dcw dcw;
  BitVector one(128);
  one.Set(5, true);
  dev.WriteSegment(0, one, dcw);       // Bit 5 flips.
  dev.WriteSegment(0, BitVector(128), dcw);  // Bit 5 flips back.
  auto hist = dev.BitWearHistogram();
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->Max(), 2u);
  EXPECT_EQ(dev.MaxCellWear(), 2u);
  // 2*128 cells, exactly one has wear 2.
  EXPECT_DOUBLE_EQ(hist->CdfAt(1), (256.0 - 1.0) / 256.0);
}

TEST(DeviceTest, WearHistogramRequiresTracking) {
  NvmDevice dev(SmallConfig());
  EXPECT_EQ(dev.BitWearHistogram().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DeviceTest, SegmentWriteHistogram) {
  NvmDevice dev(SmallConfig(4, 64));
  schemes::Dcw dcw;
  BitVector d(64);
  d.Set(0, true);
  dev.WriteSegment(0, d, dcw);
  dev.WriteSegment(0, BitVector(64), dcw);
  dev.WriteSegment(1, d, dcw);
  Histogram h = dev.SegmentWriteHistogram();
  EXPECT_EQ(h.count(), 4u);  // 4 segments observed.
  EXPECT_EQ(h.Max(), 2u);
  EXPECT_DOUBLE_EQ(h.CdfAt(0), 0.5);  // Segments 2,3 never written.
}

TEST(DeviceTest, LifetimeConsumedUsesEndurance) {
  DeviceConfig c = SmallConfig(1, 64, true);
  c.pcm.endurance_writes = 100;
  NvmDevice dev(c);
  schemes::Dcw dcw;
  BitVector d(64);
  for (int i = 0; i < 10; ++i) {
    d.Set(0, i % 2 == 0);
    dev.WriteSegment(0, d, dcw);
  }
  // Bit 0 flipped ~9-10 times out of 100 endurance.
  EXPECT_NEAR(dev.LifetimeConsumed(), 0.09, 0.02);
}

::testing::AssertionResult OnesMatchCells(const NvmDevice& dev) {
  for (size_t s = 0; s < dev.num_segments(); ++s) {
    if (dev.SegmentOnes(s) != dev.PeekSegment(s).Popcount()) {
      return ::testing::AssertionFailure()
             << "segment " << s << ": count " << dev.SegmentOnes(s)
             << ", cells " << dev.PeekSegment(s).Popcount();
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(DeviceTest, SegmentOnesTracksCells) {
  Rng rng(17);
  auto random_bits = [&](size_t n) {
    BitVector v(n);
    v.Randomize(rng);
    return v;
  };
  schemes::Dcw dcw;
  schemes::FlipNWrite fnw;

  // Plain writes (the vectorized commit), then a non-verbatim scheme,
  // and per-bit wear tracking (the bit-walk commit).
  for (bool wear : {false, true}) {
    SCOPED_TRACE(wear ? "track_bit_wear" : "plain");
    NvmDevice dev(SmallConfig(8, 256, wear));
    ASSERT_TRUE(OnesMatchCells(dev));
    for (int i = 0; i < 64; ++i) {
      WriteScheme& scheme = i % 3 == 2 ? static_cast<WriteScheme&>(fnw)
                                       : static_cast<WriteScheme&>(dcw);
      dev.WriteSegment(rng.NextBounded(8), random_bits(256), scheme);
      ASSERT_TRUE(OnesMatchCells(dev)) << "write " << i;
    }
    fnw.Reset();
  }

  // Faults: torn writes healed by verify retries, cells sticking as
  // they wear, spare repair until the budget runs out.
  {
    DeviceConfig c = SmallConfig(8, 256);
    c.verify_writes = true;
    c.max_write_retries = 3;
    NvmDevice dev(c);
    FaultConfig fc;
    fc.torn_write_probability = 0.3;
    fc.wear_onset_fraction = 0.0;
    fc.stuck_on_program_probability = 0.002;
    fc.spare_cells_per_segment = 4;
    FaultInjector inj(fc);
    dev.AttachFaultInjector(&inj);
    inj.StickCell(2, 7, /*value=*/true);
    for (int i = 0; i < 400; ++i) {
      dev.WriteSegment(rng.NextBounded(8), random_bits(256), dcw);
      ASSERT_TRUE(OnesMatchCells(dev)) << "write " << i;
    }
    EXPECT_GT(dev.stats().torn_writes, 0u);
    EXPECT_GT(dev.stats().verify_retries, 0u);
    EXPECT_GT(dev.stats().repaired_cells, 0u);
    EXPECT_GT(dev.stats().verify_failures, 0u);
    EXPECT_GT(inj.stats().stuck_cells, 0u);
  }

  // Start-Gap gap moves (MigrateSegment), onto stuck cells too.
  {
    const size_t n = 8;
    NvmDevice dev(SmallConfig(n + 1, 256));
    FaultConfig fc;
    fc.initial_stuck_fraction = 0.01;
    FaultInjector inj(fc);
    dev.AttachFaultInjector(&inj);
    MemoryController ctrl(&dev, &dcw, n, /*psi=*/2);
    for (int i = 0; i < 100; ++i) {
      ctrl.Write(rng.NextBounded(n), random_bits(256));
      ASSERT_TRUE(OnesMatchCells(dev)) << "write " << i;
    }
    EXPECT_GT(ctrl.leveler()->moves(), 0u);
    EXPECT_GT(inj.stats().stuck_cells, 0u);
  }

  // Raw bit rot and seeding.
  {
    NvmDevice dev(SmallConfig(4, 256));
    for (size_t s = 0; s < 4; ++s) {
      dev.SeedSegment(s, random_bits(256));
      ASSERT_TRUE(OnesMatchCells(dev));
    }
    for (int i = 0; i < 200; ++i) {
      dev.FlipCellRaw(rng.NextBounded(4), rng.NextBounded(256));
      ASSERT_TRUE(OnesMatchCells(dev)) << "flip " << i;
    }
    dev.SeedSegment(1, BitVector(256));
    ASSERT_TRUE(OnesMatchCells(dev));
    EXPECT_EQ(dev.SegmentOnes(1), 0u);
  }
}

TEST(EnergyModelTest, Arithmetic) {
  PcmParams p;
  p.set_energy_pj = 50;
  p.reset_energy_pj = 60;
  p.line_overhead_pj = 100;
  p.request_overhead_pj = 1000;
  EnergyModel m(p);
  EXPECT_DOUBLE_EQ(m.WritePj(2, 3, 1),
                   1000.0 + 2 * 50.0 + 3 * 60.0 + 100.0);
  EXPECT_DOUBLE_EQ(m.ReadPj(10), 10 * p.read_energy_pj);
  EXPECT_DOUBLE_EQ(m.WriteNs(0), p.write_base_ns);
  EXPECT_GT(m.CpuPj(1e6), 0.0);
}

TEST(EnergyMeterTest, DomainsAndSamples) {
  EnergyMeter meter;
  meter.Charge(EnergyDomain::kPmemWrite, 100);
  meter.Charge(EnergyDomain::kCpuModel, 50);
  EXPECT_DOUBLE_EQ(meter.TotalPj(), 150);
  EXPECT_DOUBLE_EQ(meter.DomainPj(EnergyDomain::kPmemWrite), 100);
  meter.AdvanceTime(10);
  meter.Sample();
  meter.Charge(EnergyDomain::kDram, 25);
  meter.AdvanceTime(5);
  meter.Sample();
  ASSERT_EQ(meter.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(meter.samples()[0].first, 10);
  EXPECT_DOUBLE_EQ(meter.samples()[1].second, 175);
  meter.Reset();
  EXPECT_DOUBLE_EQ(meter.TotalPj(), 0);
}

TEST(WearLevelerTest, MappingIsBijection) {
  const size_t n = 16;
  NvmDevice dev(SmallConfig(n + 1, 64));
  StartGapLeveler lev(n, /*psi=*/1);
  for (int step = 0; step < 100; ++step) {
    std::vector<bool> used(n + 1, false);
    for (size_t l = 0; l < n; ++l) {
      size_t p = lev.Map(l);
      ASSERT_LT(p, n + 1);
      ASSERT_FALSE(used[p]) << "collision at step " << step;
      used[p] = true;
    }
    ASSERT_FALSE(used[lev.gap()]) << "gap should be unmapped";
    lev.ForceMove(dev);
  }
}

TEST(WearLevelerTest, ContentFollowsMapping) {
  const size_t n = 8;
  NvmDevice dev(SmallConfig(n + 1, 64));
  StartGapLeveler lev(n, 1);
  Rng rng(3);
  std::vector<BitVector> logical(n, BitVector(64));
  for (size_t l = 0; l < n; ++l) {
    logical[l].Randomize(rng);
    dev.SeedSegment(lev.Map(l), logical[l]);
  }
  // After many gap moves (several full rotations), every logical segment
  // must still read back its own content through the new mapping.
  for (int step = 0; step < 50; ++step) {
    lev.ForceMove(dev);
    for (size_t l = 0; l < n; ++l) {
      ASSERT_EQ(dev.PeekSegment(lev.Map(l)), logical[l])
          << "step " << step << " logical " << l;
    }
  }
  EXPECT_GT(dev.stats().writes, 0u);  // Moves are real writes.
}

TEST(WearLevelerTest, PsiControlsMoveRate) {
  const size_t n = 8;
  NvmDevice dev(SmallConfig(n + 1, 64));
  StartGapLeveler lev(n, /*psi=*/10);
  int moves = 0;
  for (int i = 0; i < 100; ++i) {
    if (lev.OnWrite(dev)) ++moves;
  }
  EXPECT_EQ(moves, 10);
  EXPECT_EQ(lev.moves(), 10u);
}

TEST(WearLevelerTest, PsiZeroDisables) {
  const size_t n = 8;
  NvmDevice dev(SmallConfig(n + 1, 64));
  StartGapLeveler lev(n, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(lev.OnWrite(dev));
  }
  EXPECT_EQ(dev.stats().writes, 0u);
}

TEST(ControllerTest, ReadWriteThroughMapping) {
  DeviceConfig c = SmallConfig(9, 64);
  NvmDevice dev(c);
  schemes::Dcw dcw;
  MemoryController ctrl(&dev, &dcw, /*num_logical=*/8, /*psi=*/4);
  Rng rng(17);
  std::vector<BitVector> values;
  for (size_t l = 0; l < 8; ++l) {
    BitVector v(64);
    v.Randomize(rng);
    values.push_back(v);
    ctrl.Write(l, v);
  }
  // After wear-leveling moves, logical reads still return logical data.
  for (size_t l = 0; l < 8; ++l) {
    EXPECT_EQ(ctrl.Peek(l), values[l]) << l;
    EXPECT_EQ(ctrl.Read(l), values[l]) << l;
  }
  EXPECT_NE(ctrl.leveler(), nullptr);
  EXPECT_GT(ctrl.leveler()->moves(), 0u);
}

TEST(ControllerTest, StatefulSchemeSurvivesWearLeveling) {
  // FNW keeps per-segment flip flags; a gap move copies cells to another
  // physical slot, so the flags must migrate too or decode breaks.
  DeviceConfig c = SmallConfig(9, 64);
  NvmDevice dev(c);
  schemes::FlipNWrite fnw(16);
  MemoryController ctrl(&dev, &fnw, /*num_logical=*/8, /*psi=*/2);
  Rng rng(31);
  std::vector<BitVector> values(8, BitVector(64));
  for (size_t l = 0; l < 8; ++l) {
    values[l].Randomize(rng);
    ctrl.Write(l, values[l]);
  }
  // Plenty of writes => plenty of gap moves through FNW-encoded cells.
  for (int round = 0; round < 10; ++round) {
    for (size_t l = 0; l < 8; ++l) {
      values[l].FlipRandomBits(16, rng);
      ctrl.Write(l, values[l]);
    }
  }
  ASSERT_GT(ctrl.leveler()->moves(), 8u);
  for (size_t l = 0; l < 8; ++l) {
    EXPECT_EQ(ctrl.Peek(l), values[l]) << l;
  }
}

TEST(ControllerTest, DecodeThroughScheme) {
  DeviceConfig c = SmallConfig(4, 64);
  NvmDevice dev(c);
  schemes::FlipNWrite fnw(16);
  MemoryController ctrl(&dev, &fnw, 4, 0);
  Rng rng(23);
  BitVector v(64);
  v.Randomize(rng);
  ctrl.Write(1, v);
  EXPECT_EQ(ctrl.Peek(1), v);  // Decoded logical view.
}

}  // namespace
}  // namespace e2nvm::nvm
