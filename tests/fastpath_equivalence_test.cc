// Pins the write-path inference (scratch buffers, fused k-means
// assignment, batched PlaceMany, Release cluster memo) to golden
// fixtures: placement addresses, device flip counts and the retrain /
// refine / swap schedule for fixed PUT streams, with and without
// memory-based padding of narrow values. The fixtures were recorded at
// commit 9fb2d53 from the engine's former allocating reference path
// (float featurize + PredictCluster per value, content re-encode on
// every Release), and the fast path matched every one of them there.
// Single-value predictions are also checked against the model's float
// oracle directly. Also pins the zero-allocation contract of
// steady-state prediction and PUTs.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iterator>
#include <new>
#include <optional>
#include <ostream>

#include <gtest/gtest.h>

#include "common/kernels.h"
#include "core/padding.h"
#include "core/store.h"
#include "workload/datasets.h"

// Thread-local allocation counter for the zero-allocation assertions.
// One test binary per source file, so replacing global new here does not
// affect any other test.
namespace {
thread_local uint64_t t_alloc_count = 0;
}  // namespace

// The replacements stay out of line: inlined into a caller, malloc and
// free would meet operator delete and operator new there and trip GCC's
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

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
  auto store_or = E2KvStore::Create(sc);
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

/// Every observable outcome a fixture pins.
struct Golden {
  uint32_t addrs_crc;  // CRC32C of the kKeys final key addresses.
  uint64_t data_flips;
  uint64_t writes;
  uint64_t placements;
  uint64_t fallbacks;
  uint64_t retrains;

  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << "{addrs_crc 0x" << std::hex << g.addrs_crc << std::dec
            << ", data_flips " << g.data_flips << ", writes " << g.writes
            << ", placements " << g.placements << ", fallbacks "
            << g.fallbacks << ", retrains " << g.retrains << "}";
}

Golden Observe(E2KvStore& store) {
  std::array<uint64_t, kKeys> addrs;
  for (uint64_t key = 0; key < kKeys; ++key) {
    std::optional<uint64_t> addr = store.tree().Get(key);
    EXPECT_TRUE(addr.has_value()) << "key " << key;
    addrs[key] = addr.value_or(~uint64_t{0});
  }
  return {Crc32c(addrs.data(), sizeof(addrs)),
          store.device().stats().data_bits_flipped,
          store.device().stats().writes,
          store.engine().stats().placements,
          store.engine().stats().fallback_placements,
          store.engine().stats().retrains};
}

TEST(FastPathEquivalence, SequentialPutsMatchGoldenAcrossSeeds) {
  struct Case {
    uint64_t seed;
    Golden golden;
  };
  const Case kCases[] = {
      {2, {0xf0771768u, 2564, 300, 300, 0, 1}},
      {11, {0x1ee8601bu, 3478, 300, 300, 0, 20}},
      {29, {0x1499ffaau, 2773, 300, 300, 0, 9}},
  };
  for (const Case& c : kCases) {
    auto ds = ClusteredData(c.seed);
    auto store = MakeStore(ds);
    for (uint64_t i = 0; i < 300; ++i) {
      const auto& v = ds.items[i % ds.items.size()];
      ASSERT_TRUE(store->Put(i % kKeys, v).ok()) << "seed " << c.seed;
    }
    EXPECT_EQ(Observe(*store), c.golden) << "seed " << c.seed;
  }
}

TEST(FastPathEquivalence, PredictClusterMatchesModelOracle) {
  auto ds = ClusteredData(5);
  auto store = MakeStore(ds);
  for (size_t i = 0; i < ds.items.size(); ++i) {
    auto c = store->engine().PredictClusterFor(ds.items[i]);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*c, store->model().PredictCluster(ds.items[i].ToFloats()))
        << "item " << i;
  }
}

TEST(FastPathEquivalence, MultiPutMatchesSequentialPuts) {
  auto ds = ClusteredData(7);
  auto seq = MakeStore(ds);
  auto batched = MakeStore(ds);
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

TEST(FastPathEquivalence, MultiPutMatchesGoldenWithoutUpdates) {
  // Unique keys: no mid-stream recycling, so the batched path must land
  // every value where sequential placement did, address for address.
  auto ds = ClusteredData(13);
  auto batched = MakeStore(ds);
  constexpr size_t kBatch = 12;
  std::vector<std::pair<uint64_t, BitVector>> kvs;
  for (uint64_t i = 0; i < kKeys; ++i) {
    kvs.emplace_back(i, ds.items[i % ds.items.size()]);
    if (kvs.size() == kBatch) {
      ASSERT_TRUE(batched->MultiPut(kvs).ok());
      kvs.clear();
    }
  }
  ASSERT_TRUE(batched->MultiPut(kvs).ok());
  EXPECT_EQ(Observe(*batched), (Golden{0xd3472330u, 0, 48, 48, 0, 0}));
}

TEST(FastPathEquivalence, NarrowMultiPutMatchesGoldenWithoutPadder) {
  // Mixed widths with no padder: the batched path stages each value's
  // zero-extended image as a bit row, which must place exactly like the
  // float features of the zero-extended value did.
  auto ds = ClusteredData(31);
  auto batched = MakeStore(ds);
  constexpr uint64_t kOps = 320;
  constexpr size_t kBatch = 16;
  auto value = [&](uint64_t i) {
    const size_t width = kBits - (i % 5) * 37;
    return ds.items[i % ds.items.size()].Slice(0, width);
  };
  std::vector<std::pair<uint64_t, BitVector>> kvs;
  for (uint64_t i = 0; i < kOps; ++i) {
    kvs.emplace_back(i % kKeys, value(i));
    if (kvs.size() == kBatch) {
      ASSERT_TRUE(batched->MultiPut(kvs).ok());
      kvs.clear();
    }
  }
  EXPECT_EQ(Observe(*batched), (Golden{0x97f339bbu, 12920, 320, 320, 0, 31}));
  // Every key reads back the value of its last write.
  for (uint64_t i = kOps - kKeys; i < kOps; ++i) {
    auto v = batched->Get(i % kKeys);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, value(i)) << "key " << i % kKeys;
  }
}

/// A store whose drift detector answers degradation with inline
/// refinement steps (never a full retrain): a short window and refine
/// interval so a few hundred drifting PUTs refine many times.
std::unique_ptr<E2KvStore> MakeRefiningStore(const workload::BitDataset& ds) {
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
  auto store_or = E2KvStore::Create(sc);
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

TEST(FastPathEquivalence, MultiPutMatchesGoldenAcrossRefineSteps) {
  // Phase A matches the seeded distribution; phase B redraws the
  // prototypes, so the flip ratio degrades and refinement steps fire
  // inside batches. After each mid-batch step the batched engine
  // re-assigns its remaining staged bit rows under the refined model;
  // the fixture's per-batch step counts come from placing every value
  // of the batch sequentially.
  constexpr uint64_t kRefinesAfterBatch[] = {
      0,  0,  0,  0,  1,  2,  4,  5,  7,  9,  10, 12, 14, 15, 17,
      18, 20, 22, 23, 25, 27, 28, 30, 31, 33, 35, 36, 38, 40, 41};
  auto seed_ds = ClusteredData(41);
  auto drift_ds = ClusteredData(43);
  auto batched = MakeRefiningStore(seed_ds);
  constexpr size_t kBatch = 13;  // Odd, so steps rarely end a batch.
  std::vector<std::pair<uint64_t, BitVector>> kvs;
  size_t batch = 0;
  for (uint64_t i = 0; i < 390; ++i) {
    const auto& src = i < 64 ? seed_ds : drift_ds;
    kvs.emplace_back(i % kKeys, src.items[i % src.items.size()]);
    if (kvs.size() == kBatch) {
      ASSERT_TRUE(batched->MultiPut(kvs).ok());
      ASSERT_EQ(batched->engine().stats().refine_steps,
                kRefinesAfterBatch[batch++])
          << "op " << i;
      kvs.clear();
    }
  }
  ASSERT_EQ(batch, std::size(kRefinesAfterBatch));
  EXPECT_EQ(Observe(*batched), (Golden{0xe883af01u, 35006, 390, 390, 25, 0}));
}

TEST(FastPathEquivalence, MatchesGoldenAcrossBackgroundSwap) {
  // Drive the store through deterministic shadow-model swaps: whenever a
  // shadow training is in flight, drain it and adopt it before the next
  // operation. The fixture adopts its first shadow after op 255 and one
  // more after each of the next 15 ops.
  constexpr uint64_t kFirstSwapOp = 255;
  constexpr uint64_t kSwaps = 16;
  auto ds = ClusteredData(17);
  auto fast = MakeStore(ds, /*background_retrain=*/true);
  for (uint64_t i = 0; i < 300; ++i) {
    const auto& v = ds.items[i % ds.items.size()];
    ASSERT_TRUE(fast->Put(i % kKeys, v).ok());
    while (fast->engine().RetrainInFlight()) {
    }
    fast->engine().PumpBackgroundRetrain();
    const uint64_t want =
        i < kFirstSwapOp ? 0 : std::min(i - kFirstSwapOp + 1, kSwaps);
    ASSERT_EQ(fast->engine().model_generation(), want) << "op " << i;
  }
  EXPECT_EQ(Observe(*fast), (Golden{0xfcd95bfcu, 2733, 300, 300, 0, 16}));
}

TEST(FastPathEquivalence, SteadyStatePredictionIsAllocationFree) {
  auto ds = ClusteredData(3);
  auto store = MakeStore(ds);
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
  // The float oracle allocates every call — the counter must move, or
  // the counting itself is broken and the assertion above is vacuous.
  before = t_alloc_count;
  for (size_t i = 0; i < 8; ++i) {
    store->model().PredictCluster(ds.items[i].ToFloats());
  }
  EXPECT_GT(t_alloc_count, before);
}

TEST(FastPathEquivalence, PaddedNarrowPutsMatchGolden) {
  // Memory-based padding over mixed widths {1/4, 1/2, 3/4, 1}: features
  // depend on the live memory image and the padding RNG, so every value
  // lands where the fixture says only if the engine samples the same
  // segments and draws the same pad bits in the same order.
  struct Case {
    PadLocation loc;
    Golden golden;
  };
  const Case kCases[] = {
      {PadLocation::kBegin, {0xa1384161u, 14961, 300, 300, 0, 27}},
      {PadLocation::kMiddle, {0x2a562d68u, 14096, 300, 300, 0, 10}},
      {PadLocation::kEnd, {0xe65d57e5u, 6229, 300, 300, 0, 18}},
  };
  auto ds = ClusteredData(23);
  for (const Case& c : kCases) {
    Padder padder(PadType::kMemoryBased, c.loc, kBits);
    auto store = MakeStore(ds);
    store->engine().SetPadder(&padder, nullptr);
    for (uint64_t i = 0; i < 300; ++i) {
      const size_t width = kBits * (1 + i % 4) / 4;
      BitVector v = ds.items[i % ds.items.size()].Slice(0, width);
      ASSERT_TRUE(store->Put(i % kKeys, v).ok());
    }
    EXPECT_EQ(Observe(*store), c.golden) << PadLocationName(c.loc);
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
