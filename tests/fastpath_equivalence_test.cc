// Equivalence of the write-path inference fast path (scratch buffers,
// fused k-means assignment, batched PlaceMany, Release cluster memo)
// with the allocating reference path: identical placement addresses,
// cluster ids, and device flip counts for the same PUT stream — the
// fast path is an optimization, never a behavior change — with and
// without memory-based padding of narrow values. Also pins the
// zero-allocation contract of steady-state prediction and PUTs.

#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/padding.h"
#include "core/store.h"
#include "workload/datasets.h"

// Thread-local allocation counter for the zero-allocation assertions.
// One test binary per source file, so replacing global new here does not
// affect any other test.
namespace {
thread_local uint64_t t_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace e2nvm::core {
namespace {

constexpr size_t kSegments = 128;
constexpr size_t kBits = 256;
constexpr uint64_t kKeys = 48;

workload::BitDataset ClusteredData(uint64_t seed) {
  workload::ProtoConfig cfg;
  cfg.dim = kBits;
  cfg.num_classes = 4;
  cfg.samples = kSegments + 64;
  cfg.noise = 0.03;
  cfg.seed = seed;
  return workload::MakeProtoDataset(cfg);
}

std::unique_ptr<E2KvStore> MakeStore(const workload::BitDataset& ds,
                                     bool reference,
                                     bool background_retrain = false) {
  StoreConfig sc;
  sc.num_segments = kSegments;
  sc.segment_bits = kBits;
  sc.model.k = 4;
  sc.model.pretrain_epochs = 2;
  sc.model.finetune_rounds = 1;
  sc.auto_retrain = true;
  sc.background_retrain = background_retrain;
  sc.retrain.min_free_per_cluster = 8;
  sc.reference_inference = reference;
  auto store_or = E2KvStore::Create(sc);
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

/// Every observable outcome that must match between the two paths.
struct Observed {
  std::vector<std::optional<uint64_t>> addrs;  // Per-key final address.
  uint64_t data_flips;
  uint64_t writes;
  uint64_t placements;
  uint64_t fallbacks;
};

Observed ObserveStore(E2KvStore& store) {
  Observed o;
  for (uint64_t key = 0; key < kKeys; ++key) {
    o.addrs.push_back(store.tree().Get(key));
  }
  o.data_flips = store.device().stats().data_bits_flipped;
  o.writes = store.device().stats().writes;
  o.placements = store.engine().stats().placements;
  o.fallbacks = store.engine().stats().fallback_placements;
  return o;
}

void ExpectSame(const Observed& ref, const Observed& fast) {
  EXPECT_EQ(ref.addrs, fast.addrs);
  EXPECT_EQ(ref.data_flips, fast.data_flips);
  EXPECT_EQ(ref.writes, fast.writes);
  EXPECT_EQ(ref.placements, fast.placements);
  EXPECT_EQ(ref.fallbacks, fast.fallbacks);
}

TEST(FastPathEquivalence, SequentialPutsMatchReferenceAcrossSeeds) {
  for (uint64_t seed : {2u, 11u, 29u}) {
    auto ds = ClusteredData(seed);
    auto ref = MakeStore(ds, /*reference=*/true);
    auto fast = MakeStore(ds, /*reference=*/false);
    for (uint64_t i = 0; i < 300; ++i) {
      const auto& v = ds.items[i % ds.items.size()];
      ASSERT_TRUE(ref->Put(i % kKeys, v).ok()) << "seed " << seed;
      ASSERT_TRUE(fast->Put(i % kKeys, v).ok()) << "seed " << seed;
    }
    ExpectSame(ObserveStore(*ref), ObserveStore(*fast));
    // Same synchronous retrain schedule on both sides.
    EXPECT_EQ(ref->engine().stats().retrains,
              fast->engine().stats().retrains);
    EXPECT_GT(fast->engine().stats().retrains, 0u) << "seed " << seed;
  }
}

TEST(FastPathEquivalence, PredictClusterMatchesReference) {
  auto ds = ClusteredData(5);
  auto ref = MakeStore(ds, /*reference=*/true);
  auto fast = MakeStore(ds, /*reference=*/false);
  for (size_t i = 0; i < ds.items.size(); ++i) {
    auto a = ref->engine().PredictClusterFor(ds.items[i]);
    auto b = fast->engine().PredictClusterFor(ds.items[i]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "item " << i;
  }
}

TEST(FastPathEquivalence, MultiPutMatchesSequentialPuts) {
  auto ds = ClusteredData(7);
  auto seq = MakeStore(ds, /*reference=*/false);
  auto batched = MakeStore(ds, /*reference=*/false);
  constexpr size_t kBatch = 16;
  std::vector<std::pair<uint64_t, BitVector>> kvs;
  for (uint64_t i = 0; i < 320; ++i) {
    const auto& v = ds.items[i % ds.items.size()];
    ASSERT_TRUE(seq->Put(i % kKeys, v).ok());
    kvs.emplace_back(i % kKeys, v);
    if (kvs.size() == kBatch) {
      ASSERT_TRUE(batched->MultiPut(kvs).ok());
      kvs.clear();
    }
  }
  ASSERT_TRUE(batched->MultiPut(kvs).ok());
  // MultiPut recycles superseded addresses after the whole batch instead
  // of between placements, so the address *sequence* differs; what must
  // match is the content every key reads back, the prediction schedule,
  // and that neither path fell back.
  for (uint64_t key = 0; key < kKeys; ++key) {
    auto a = seq->Get(key);
    auto b = batched->Get(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "key " << key;
  }
  EXPECT_EQ(seq->engine().stats().placements,
            batched->engine().stats().placements);
  EXPECT_EQ(seq->engine().stats().fallback_placements,
            batched->engine().stats().fallback_placements);
  EXPECT_EQ(batched->engine().stats().fallback_placements, 0u);
}

TEST(FastPathEquivalence, MultiPutMatchesReferenceWithoutUpdates) {
  // Unique keys: no mid-stream recycling, so the batched fast path must
  // reproduce the reference path address-for-address and flip-for-flip.
  auto ds = ClusteredData(13);
  auto ref = MakeStore(ds, /*reference=*/true);
  auto batched = MakeStore(ds, /*reference=*/false);
  constexpr size_t kBatch = 12;
  std::vector<std::pair<uint64_t, BitVector>> kvs;
  for (uint64_t i = 0; i < kKeys; ++i) {
    const auto& v = ds.items[i % ds.items.size()];
    ASSERT_TRUE(ref->Put(i, v).ok());
    kvs.emplace_back(i, v);
    if (kvs.size() == kBatch) {
      ASSERT_TRUE(batched->MultiPut(kvs).ok());
      kvs.clear();
    }
  }
  ASSERT_TRUE(batched->MultiPut(kvs).ok());
  ExpectSame(ObserveStore(*ref), ObserveStore(*batched));
}

TEST(FastPathEquivalence, NarrowMultiPutMatchesReferenceWithoutPadder) {
  // Mixed widths with no padder: the batched path stages each value's
  // zero-extended image as a bit row, which must place exactly like the
  // reference path's Overlay + ToFloats features. Both stores go
  // through MultiPut, so updates recycle at the same points on both
  // sides; the reference engine places the batch one value at a time.
  auto ds = ClusteredData(31);
  auto ref = MakeStore(ds, /*reference=*/true);
  auto batched = MakeStore(ds, /*reference=*/false);
  constexpr size_t kBatch = 16;
  std::vector<std::pair<uint64_t, BitVector>> kvs;
  for (uint64_t i = 0; i < 320; ++i) {
    const size_t width = kBits - (i % 5) * 37;
    kvs.emplace_back(i % kKeys,
                     ds.items[i % ds.items.size()].Slice(0, width));
    if (kvs.size() == kBatch) {
      ASSERT_TRUE(ref->MultiPut(kvs).ok());
      ASSERT_TRUE(batched->MultiPut(kvs).ok());
      kvs.clear();
    }
  }
  ExpectSame(ObserveStore(*ref), ObserveStore(*batched));
  EXPECT_EQ(ref->engine().stats().retrains,
            batched->engine().stats().retrains);
  EXPECT_GT(batched->engine().stats().retrains, 0u);
  for (uint64_t key = 0; key < kKeys; ++key) {
    auto a = ref->Get(key);
    auto b = batched->Get(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "key " << key;
  }
}

/// A store whose drift detector answers degradation with inline
/// refinement steps (never a full retrain): a short window and refine
/// interval so a few hundred drifting PUTs refine many times.
std::unique_ptr<E2KvStore> MakeRefiningStore(const workload::BitDataset& ds,
                                             bool reference) {
  StoreConfig sc;
  sc.num_segments = kSegments;
  sc.segment_bits = kBits;
  sc.model.k = 4;
  sc.model.pretrain_epochs = 2;
  sc.model.finetune_rounds = 1;
  sc.auto_retrain = true;
  sc.retrain.window = 32;
  sc.retrain.baseline_writes = 16;
  sc.retrain.degradation_factor = 1.3;
  sc.retrain.min_free_per_cluster = 0;
  sc.retrain.refine_interval = 8;
  sc.retrain.max_refine_rounds = 1000;
  sc.incremental_learning = true;
  sc.replay_ring_capacity = 64;
  sc.refine_batch = 16;
  sc.reference_inference = reference;
  auto store_or = E2KvStore::Create(sc);
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

TEST(FastPathEquivalence, MultiPutMatchesSequentialPutsAcrossRefineSteps) {
  // Phase A matches the seeded distribution; phase B redraws the
  // prototypes, so the flip ratio degrades and refinement steps fire
  // inside batches. After each mid-batch step the batched engine
  // re-assigns its remaining staged bit rows under the refined model;
  // the reference store places every value of the batch sequentially.
  auto seed_ds = ClusteredData(41);
  auto drift_ds = ClusteredData(43);
  auto ref = MakeRefiningStore(seed_ds, /*reference=*/true);
  auto batched = MakeRefiningStore(seed_ds, /*reference=*/false);
  constexpr size_t kBatch = 13;  // Odd, so steps rarely end a batch.
  std::vector<std::pair<uint64_t, BitVector>> kvs;
  for (uint64_t i = 0; i < 390; ++i) {
    const auto& src = i < 64 ? seed_ds : drift_ds;
    kvs.emplace_back(i % kKeys, src.items[i % src.items.size()]);
    if (kvs.size() == kBatch) {
      ASSERT_TRUE(ref->MultiPut(kvs).ok());
      ASSERT_TRUE(batched->MultiPut(kvs).ok());
      ASSERT_EQ(ref->engine().stats().refine_steps,
                batched->engine().stats().refine_steps)
          << "op " << i;
      kvs.clear();
    }
  }
  ExpectSame(ObserveStore(*ref), ObserveStore(*batched));
  EXPECT_GT(batched->engine().stats().refine_steps, 1u)
      << "no refinement step fired; the mid-batch re-assign never ran";
  EXPECT_EQ(batched->engine().stats().retrains, 0u);
}

TEST(FastPathEquivalence, MatchesReferenceAcrossBackgroundSwap) {
  // Drive both stores through a deterministic shadow-model swap: run the
  // same stream, and whenever a shadow training is in flight, drain it
  // and adopt it at the same operation index on both sides.
  auto ds = ClusteredData(17);
  auto ref = MakeStore(ds, /*reference=*/true, /*background_retrain=*/true);
  auto fast =
      MakeStore(ds, /*reference=*/false, /*background_retrain=*/true);
  auto drain = [](E2KvStore& s) {
    while (s.engine().RetrainInFlight()) {
    }
    s.engine().PumpBackgroundRetrain();
  };
  for (uint64_t i = 0; i < 300; ++i) {
    const auto& v = ds.items[i % ds.items.size()];
    ASSERT_TRUE(ref->Put(i % kKeys, v).ok());
    ASSERT_TRUE(fast->Put(i % kKeys, v).ok());
    drain(*ref);
    drain(*fast);
    ASSERT_EQ(ref->engine().model_generation(),
              fast->engine().model_generation())
        << "op " << i;
  }
  EXPECT_GT(fast->engine().model_generation(), 0u)
      << "no shadow model was ever adopted; swap never exercised";
  ExpectSame(ObserveStore(*ref), ObserveStore(*fast));
}

TEST(FastPathEquivalence, SteadyStatePredictionIsAllocationFree) {
  auto ds = ClusteredData(3);
  auto store = MakeStore(ds, /*reference=*/false);
  // Warm up: first predictions size the scratch buffers (grow-only).
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(store->engine().PredictClusterFor(ds.items[i]).ok());
  }
  uint64_t before = t_alloc_count;
  for (size_t i = 0; i < 200; ++i) {
    auto c = store->engine().PredictClusterFor(
        ds.items[i % ds.items.size()]);
    ASSERT_TRUE(c.ok());
  }
  EXPECT_EQ(t_alloc_count, before)
      << "steady-state PredictClusterFor allocated on the heap";
  // The reference path allocates every call — the counter must move, or
  // the counting itself is broken and the assertion above is vacuous.
  auto ref = MakeStore(ds, /*reference=*/true);
  before = t_alloc_count;
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(ref->engine().PredictClusterFor(ds.items[i]).ok());
  }
  EXPECT_GT(t_alloc_count, before);
}

TEST(FastPathEquivalence, PaddedNarrowPutsMatchReference) {
  // Memory-based padding over mixed widths {1/4, 1/2, 3/4, 1}: features
  // depend on the live memory image and the padding RNG, so both paths
  // must sample the same segments and draw the same pad bits in the same
  // order to land every value at the same address.
  auto ds = ClusteredData(23);
  for (auto loc : {PadLocation::kBegin, PadLocation::kMiddle,
                   PadLocation::kEnd}) {
    Padder padder(PadType::kMemoryBased, loc, kBits);
    auto ref = MakeStore(ds, /*reference=*/true);
    auto fast = MakeStore(ds, /*reference=*/false);
    ref->engine().SetPadder(&padder, nullptr);
    fast->engine().SetPadder(&padder, nullptr);
    for (uint64_t i = 0; i < 300; ++i) {
      const size_t width = kBits * (1 + i % 4) / 4;
      BitVector v = ds.items[i % ds.items.size()].Slice(0, width);
      ASSERT_TRUE(ref->Put(i % kKeys, v).ok());
      ASSERT_TRUE(fast->Put(i % kKeys, v).ok());
    }
    const std::string where(PadLocationName(loc));
    SCOPED_TRACE(where);
    ExpectSame(ObserveStore(*ref), ObserveStore(*fast));
    EXPECT_EQ(ref->engine().stats().retrains,
              fast->engine().stats().retrains);
    EXPECT_GT(fast->engine().stats().retrains, 0u);
  }
}

/// A store for the allocation audits: auto_retrain stays off, because a
/// retrain legitimately rebuilds the model and repopulates the pool,
/// which allocates.
std::unique_ptr<E2KvStore> MakeSteadyStore(const workload::BitDataset& ds) {
  StoreConfig sc;
  sc.num_segments = kSegments;
  sc.segment_bits = kBits;
  sc.model.k = 4;
  sc.model.pretrain_epochs = 2;
  sc.model.finetune_rounds = 1;
  sc.auto_retrain = false;
  auto store_or = E2KvStore::Create(sc);
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

TEST(FastPathEquivalence, SteadyStatePutsAreAllocationFree) {
  // The full PUT pipeline — placement inference, DAP acquire, DCW write,
  // index update, old-address recycling, retrain-window accounting —
  // must stay off the heap once every scratch buffer and ring has grown
  // to its working size.
  auto ds = ClusteredData(19);
  auto store = MakeSteadyStore(ds);

  // Warm up: grow inference scratch, WriteResult buffers, free-list
  // rings, and the retrain window to steady-state capacity.
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        store->Put(i % kKeys, ds.items[i % ds.items.size()]).ok());
  }

  uint64_t before = t_alloc_count;
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        store->Put(i % kKeys, ds.items[i % ds.items.size()]).ok());
  }
  EXPECT_EQ(t_alloc_count - before, 0u)
      << "steady-state Put allocated on the heap";
}

TEST(FastPathEquivalence, SteadyStateMultiPutsAreAllocationFree) {
  // The batched path: bit-row staging, the encoder pass and the fused
  // assignment reuse the engine scratch, for full-width batches and for
  // narrow values zero-extended into the model image (no padder). One
  // staged batch per shape is reused so only MultiPut's work is counted.
  auto ds = ClusteredData(47);
  auto store = MakeSteadyStore(ds);
  std::vector<std::pair<uint64_t, BitVector>> full, narrow;
  for (uint64_t i = 0; i < 16; ++i) {
    const BitVector& v = ds.items[i % ds.items.size()];
    full.emplace_back(i % kKeys, v);
    narrow.emplace_back((i + 16) % kKeys,
                        v.Slice(0, kBits * (1 + i % 3) / 4));
  }
  for (int warm = 0; warm < 8; ++warm) {
    ASSERT_TRUE(store->MultiPut(full).ok());
  }
  uint64_t before = t_alloc_count;
  for (int round = 0; round < 16; ++round) {
    ASSERT_TRUE(store->MultiPut(full).ok());
  }
  EXPECT_EQ(t_alloc_count - before, 0u)
      << "steady-state MultiPut allocated on the heap";
  // Narrow values re-encode their merged segment on Release, which
  // shifts free addresses between clusters; warm up with the audited
  // stream itself so every grow-only free-list ring has reached its
  // high-water mark first.
  for (int warm = 0; warm < 32; ++warm) {
    ASSERT_TRUE(store->MultiPut(narrow).ok());
  }
  before = t_alloc_count;
  for (int round = 0; round < 16; ++round) {
    ASSERT_TRUE(store->MultiPut(narrow).ok());
  }
  EXPECT_EQ(t_alloc_count - before, 0u)
      << "steady-state narrow MultiPut allocated on the heap";
}

TEST(FastPathEquivalence, SteadyStateNarrowPutsAreAllocationFree) {
  // The same contract for narrow values under memory-based padding: the
  // memory sample, the padded features and the merge-write all run in
  // engine-owned scratch. Values are sliced before the audit so only
  // the store's work is counted.
  auto ds = ClusteredData(37);
  std::vector<BitVector> values;
  for (size_t i = 0; i < ds.items.size(); ++i) {
    values.push_back(ds.items[i].Slice(0, kBits * (1 + i % 3) / 4));
  }
  for (auto loc : {PadLocation::kBegin, PadLocation::kMiddle,
                   PadLocation::kEnd}) {
    Padder padder(PadType::kMemoryBased, loc, kBits);
    auto store = MakeSteadyStore(ds);
    store->engine().SetPadder(&padder, nullptr);
    for (uint64_t i = 0; i < 400; ++i) {
      ASSERT_TRUE(store->Put(i % kKeys, values[i % values.size()]).ok());
    }
    uint64_t before = t_alloc_count;
    for (uint64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(store->Put(i % kKeys, values[i % values.size()]).ok());
    }
    EXPECT_EQ(t_alloc_count - before, 0u)
        << "steady-state narrow Put allocated on the heap ("
        << PadLocationName(loc) << " padding)";
  }
}

}  // namespace
}  // namespace e2nvm::core
