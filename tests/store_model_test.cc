// Oracle-backed property test of the sharded store: a seeded random
// operation stream (PUT/UPDATE/DELETE/GET with variable value widths,
// occasional MultiPut batches) runs against a std::unordered_map shadow
// oracle, and every K operations the full invariant set is checked:
//
//  1. Round-trip: every live key reads back exactly the oracle's value,
//     and absent keys are NotFound.
//  2. Conservation: per shard, DAP free addresses + live keys equals the
//     shard's segment count — no address is leaked or double-counted.
//  3. Exclusivity: no physical address is held by two live keys, and every
//     address lies inside its owning shard's segment range.
//
// Runs at shard counts {1, 4} over several seeds; single-threaded, so any
// failure replays deterministically from the (count, seed) pair.

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sharded_store.h"
#include "workload/datasets.h"

namespace e2nvm::core {
namespace {

constexpr size_t kSegmentsPerShard = 96;
constexpr size_t kBits = 256;
constexpr size_t kCheckEvery = 32;

workload::BitDataset ClusteredData(uint64_t seed) {
  workload::ProtoConfig cfg;
  cfg.dim = kBits;
  cfg.num_classes = 4;
  cfg.samples = kSegmentsPerShard + 32;
  cfg.noise = 0.03;
  cfg.seed = seed;
  return workload::MakeProtoDataset(cfg);
}

/// A fresh value for `key`: derived from a dataset item (so placement sees
/// clusterable content) at one of several widths, salted with a few
/// random flips so successive writes of one key differ.
BitVector MakeValue(const workload::BitDataset& ds, Rng& rng) {
  static constexpr size_t kWidths[] = {kBits, kBits - 32, kBits / 2};
  const auto& item = ds.items[rng.NextBounded(ds.items.size())];
  BitVector v = item.Slice(0, kWidths[rng.NextBounded(3)]);
  v.FlipRandomBits(rng.NextBounded(4), rng);
  return v;
}

void CheckInvariants(ShardedStore& store,
                     const std::unordered_map<uint64_t, BitVector>& oracle,
                     uint64_t key_space, size_t op) {
  // 1. Round-trip every oracle key; probe a band of absent keys.
  ASSERT_EQ(store.size(), oracle.size()) << "op " << op;
  for (const auto& [key, value] : oracle) {
    auto got = store.Get(key);
    ASSERT_TRUE(got.ok()) << "op " << op << " key " << key;
    ASSERT_EQ(*got, value) << "op " << op << " key " << key;
  }
  for (uint64_t key = 0; key < key_space; ++key) {
    if (oracle.count(key) == 0) {
      ASSERT_FALSE(store.Get(key).ok()) << "op " << op << " key " << key;
    }
  }
  // 2 + 3. Conservation and exclusivity, per shard and globally.
  std::unordered_set<uint64_t> live_addrs;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    E2KvStore& shard = store.shard(s);
    const size_t free_addrs = shard.engine().pool().TotalFree();
    ASSERT_EQ(free_addrs + shard.size(), kSegmentsPerShard)
        << "op " << op << " shard " << s
        << ": DAP free + live keys must cover the shard exactly";
    const uint64_t first = shard.first_segment();
    shard.tree().ForEach([&](uint64_t key, uint64_t addr) {
      ASSERT_GE(addr, first) << "op " << op << " key " << key;
      ASSERT_LT(addr, first + kSegmentsPerShard)
          << "op " << op << " key " << key;
      ASSERT_TRUE(live_addrs.insert(addr).second)
          << "op " << op << " address " << addr
          << " handed to two live keys";
    });
  }
}

void RunModelCheck(size_t num_shards, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "shards=" << num_shards << " seed=" << seed);
  auto ds = ClusteredData(seed);
  ShardedStoreConfig cfg;
  cfg.num_shards = num_shards;
  cfg.shard.num_segments = kSegmentsPerShard;
  cfg.shard.segment_bits = kBits;
  cfg.shard.model.k = 4;
  cfg.shard.model.pretrain_epochs = 2;
  cfg.shard.model.finetune_rounds = 1;
  cfg.shard.auto_retrain = true;
  cfg.shard.retrain.min_free_per_cluster = 8;
  auto store_or = ShardedStore::Create(cfg);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  ASSERT_TRUE(store->Bootstrap().ok());

  // Keys per shard stay well under the shard's segment count so the DAP
  // never runs dry even if hashing is uneven.
  const uint64_t key_space = 40 * num_shards;
  std::unordered_map<uint64_t, BitVector> oracle;
  Rng rng(seed * 7919 + num_shards);

  const size_t kOps = 600;
  for (size_t op = 0; op < kOps; ++op) {
    const double dice = rng.NextDouble();
    const uint64_t key = rng.NextBounded(key_space);
    if (dice < 0.45) {  // PUT (insert or update).
      BitVector v = MakeValue(ds, rng);
      ASSERT_TRUE(store->Put(key, v).ok()) << "op " << op;
      oracle[key] = std::move(v);
    } else if (dice < 0.60) {  // DELETE (often missing).
      Status st = store->Delete(key);
      ASSERT_EQ(st.ok(), oracle.erase(key) > 0) << "op " << op;
    } else if (dice < 0.90) {  // GET.
      auto got = store->Get(key);
      auto it = oracle.find(key);
      ASSERT_EQ(got.ok(), it != oracle.end()) << "op " << op;
      if (got.ok()) {
        ASSERT_EQ(*got, it->second) << "op " << op;
      }
    } else {  // MultiPut batch of 8 (duplicates across batches allowed).
      std::vector<std::pair<uint64_t, BitVector>> kvs;
      for (size_t i = 0; i < 8; ++i) {
        kvs.emplace_back(rng.NextBounded(key_space), MakeValue(ds, rng));
      }
      ASSERT_TRUE(store->MultiPut(kvs).ok()) << "op " << op;
      for (auto& [k, v] : kvs) oracle[k] = std::move(v);
    }
    if ((op + 1) % kCheckEvery == 0) {
      CheckInvariants(*store, oracle, key_space, op);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  CheckInvariants(*store, oracle, key_space, kOps);
}

TEST(StoreModelCheck, SingleShardMatchesOracle) {
  for (uint64_t seed : {3u, 17u, 23u}) {
    RunModelCheck(/*num_shards=*/1, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StoreModelCheck, FourShardsMatchOracle) {
  for (uint64_t seed : {3u, 17u}) {
    RunModelCheck(/*num_shards=*/4, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace e2nvm::core
