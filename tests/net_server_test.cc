// End-to-end tests of the epoll server + pipelining client over
// loopback: correctness of the pipelined batched write path (responses
// in order, read-your-writes within a pipeline), malformed-frame
// survival at the connection level, and the steady-state guarantee —
// once warm, a connection worker's request loop performs ZERO heap
// allocations and acquires no shard-external lock, observed through the
// server's own audit counters (ServerConfig::audit_after_requests).
// Registered in the TSan stage of scripts/check.sh: concurrent clients
// pipeline against a multi-shard server while workers race the
// acceptor and STATS aggregation.

#include "net/server.h"

#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sharded_store.h"
#include "net/client.h"
#include "workload/datasets.h"

// --- Heap-allocation accounting (same idiom as bench/micro_ops) -----
// Thread-local: each connection worker samples its OWN counter through
// ServerConfig::alloc_probe, so allocations on other threads (gtest,
// client) cannot pollute the audit.
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

namespace e2nvm::net {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kSegmentsPerShard = 96;
constexpr size_t kBits = 256;

core::ShardedStoreConfig StoreConfigForTest() {
  core::ShardedStoreConfig cfg;
  cfg.num_shards = kShards;
  cfg.shard.num_segments = kSegmentsPerShard;
  cfg.shard.segment_bits = kBits;
  cfg.shard.model.k = 4;
  cfg.shard.model.pretrain_epochs = 2;
  cfg.shard.model.finetune_rounds = 1;
  // Steady state by construction: retraining is maintenance work, not
  // the request path under audit.
  cfg.shard.auto_retrain = false;
  cfg.shard.background_retrain = false;
  return cfg;
}

std::unique_ptr<core::ShardedStore> MakeStore(uint64_t seed) {
  workload::ProtoConfig pc;
  pc.dim = kBits;
  pc.num_classes = 4;
  pc.samples = kSegmentsPerShard + 32;
  pc.noise = 0.03;
  pc.seed = seed;
  auto ds = workload::MakeProtoDataset(pc);
  auto store_or = core::ShardedStore::Create(StoreConfigForTest());
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  store->Seed(ds);
  EXPECT_TRUE(store->Bootstrap().ok());
  return store;
}

BitVector RandomBits(size_t n, uint64_t seed) {
  Rng rng(seed);
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) v.Set(i, rng.NextBernoulli(0.5));
  return v;
}

TEST(NetServerTest, SynchronousPutGetDeleteRoundTrip) {
  auto store = MakeStore(21);
  auto server_or = Server::Start(store.get(), ServerConfig{});
  ASSERT_TRUE(server_or.ok());
  auto& server = *server_or;
  auto client_or = Client::Connect(server->port());
  ASSERT_TRUE(client_or.ok());
  auto& client = *client_or;

  const BitVector value = RandomBits(kBits, 1);
  ASSERT_TRUE(client->Put(7, value).ok());
  auto got = client->Get(7);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got == value);

  EXPECT_EQ(client->Get(8).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(client->Delete(7).ok());
  EXPECT_EQ(client->Get(7).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client->Delete(7).code(), StatusCode::kNotFound);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->puts, 1u);
  EXPECT_EQ(stats->gets, 3u);
  EXPECT_EQ(stats->deletes, 2u);
  EXPECT_EQ(stats->connections, 1u);
  EXPECT_EQ(stats->keys, 0u);
}

TEST(NetServerTest, PipelinedBatchedPutsReadYourWrites) {
  auto store = MakeStore(22);
  auto server_or = Server::Start(store.get(), ServerConfig{});
  ASSERT_TRUE(server_or.ok());
  auto& server = *server_or;
  auto client_or = Client::Connect(server->port());
  ASSERT_TRUE(client_or.ok());
  auto& client = *client_or;

  // One flush carrying 32 PUTs, a GET of every key, and an update +
  // re-GET of key 3: responses must come back strictly in order and the
  // GETs must observe the writes queued before them in the SAME
  // pipeline (the server flushes staged batches at read barriers).
  constexpr uint64_t kKeys = 32;
  std::vector<BitVector> values;
  for (uint64_t k = 0; k < kKeys; ++k) {
    values.push_back(RandomBits(kBits, 100 + k));
    client->QueuePut(k, values.back());
  }
  for (uint64_t k = 0; k < kKeys; ++k) client->QueueGet(k);
  const BitVector updated = RandomBits(kBits, 999);
  client->QueuePut(3, updated);
  client->QueueGet(3);
  ASSERT_TRUE(client->Flush().ok());

  for (uint64_t k = 0; k < kKeys; ++k) {
    auto r = client->ReadResponse();
    ASSERT_TRUE(r.ok()) << "put " << k;
    EXPECT_EQ(r->op, Op::kPut);
    EXPECT_EQ(r->status, WireStatus::kOk);
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto r = client->ReadResponse();
    ASSERT_TRUE(r.ok()) << "get " << k;
    ASSERT_EQ(r->status, WireStatus::kOk) << "get " << k;
    BitVector got;
    got.AssignFromWords(r->value.words, r->value.bits);
    EXPECT_TRUE(got == values[k]) << "get " << k;
  }
  ASSERT_TRUE(client->ReadResponse().ok());  // The update PUT.
  auto r = client->ReadResponse();
  ASSERT_TRUE(r.ok());
  BitVector got;
  got.AssignFromWords(r->value.words, r->value.bits);
  EXPECT_TRUE(got == updated);

  // The server must have applied the PUTs through shard-grouped
  // batches, not one-by-one.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batched_puts, kKeys + 1);
  EXPECT_LT(stats->batches, kKeys);  // Grouped: fewer submissions than PUTs.
  EXPECT_EQ(stats->keys, kKeys);
}

TEST(NetServerTest, MultiPutAppliesAllEntries) {
  auto store = MakeStore(23);
  auto server_or = Server::Start(store.get(), ServerConfig{});
  ASSERT_TRUE(server_or.ok());
  auto& server = *server_or;
  auto client_or = Client::Connect(server->port());
  ASSERT_TRUE(client_or.ok());
  auto& client = *client_or;

  std::vector<std::pair<uint64_t, BitVector>> kvs;
  for (uint64_t i = 0; i < 12; ++i) {
    kvs.emplace_back(50 + i, RandomBits(kBits, 300 + i));
  }
  client->QueueMultiPut(kvs.data(), kvs.size());
  ASSERT_TRUE(client->Flush().ok());
  auto r = client->ReadResponse();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->op, Op::kMultiPut);
  EXPECT_EQ(r->status, WireStatus::kOk);

  for (const auto& [key, value] : kvs) {
    auto got = client->Get(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    EXPECT_TRUE(*got == value) << "key " << key;
  }
}

TEST(NetServerTest, MalformedFramesRejectedConnectionSurvives) {
  auto store = MakeStore(24);
  auto server_or = Server::Start(store.get(), ServerConfig{});
  ASSERT_TRUE(server_or.ok());
  auto& server = *server_or;
  auto client_or = Client::Connect(server->port());
  ASSERT_TRUE(client_or.ok());
  auto& client = *client_or;

  const BitVector value = RandomBits(kBits, 2);
  ASSERT_TRUE(client->Put(1, value).ok());

  // Corrupt a well-formed frame's payload: the server must answer
  // kBadFrame for it, keep the connection, and serve the next request.
  ByteRing frame;
  EncodePutRequest(&frame, /*seq=*/1000, /*key=*/2, value);
  *frame.at(kLenBytes + kHeaderBytes + 2) ^= 0x10;
  ASSERT_TRUE(client->SendRaw(frame.data(), frame.size()).ok());
  auto bad = client->ReadResponse();
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, WireStatus::kBadFrame);

  // Connection survived: the store never saw key 2, key 1 still reads.
  EXPECT_EQ(client->Get(2).status().code(), StatusCode::kNotFound);
  auto got = client->Get(1);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got == value);
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->frames_rejected, 1u);
}

TEST(NetServerTest, FatalFramingClosesOnlyThatConnection) {
  auto store = MakeStore(25);
  auto server_or = Server::Start(store.get(), ServerConfig{});
  ASSERT_TRUE(server_or.ok());
  auto& server = *server_or;

  auto victim_or = Client::Connect(server->port());
  ASSERT_TRUE(victim_or.ok());
  auto& victim = *victim_or;
  const uint32_t lie = 0x7FFFFFFF;  // Larger than any legal frame.
  ASSERT_TRUE(victim->SendRaw(&lie, sizeof(lie)).ok());
  // The server closes the connection; the next read must fail rather
  // than hang or return fabricated data.
  EXPECT_FALSE(victim->ReadResponse().ok());

  // A fresh connection is unaffected.
  auto client_or = Client::Connect(server->port());
  ASSERT_TRUE(client_or.ok());
  auto& client = *client_or;
  ASSERT_TRUE(client->Put(3, RandomBits(kBits, 3)).ok());
  EXPECT_TRUE(client->Get(3).ok());
}

TEST(NetServerTest, SteadyStateLoopIsAllocAndSharedLockFree) {
  auto store = MakeStore(26);

  // Warmup sizes every piece of per-connection scratch; the audited
  // phase repeats the EXACT same request sequence, so any allocation it
  // makes is a per-request allocation, not growth to working size.
  constexpr uint64_t kKeys = 48;
  constexpr size_t kDepth = 16;
  constexpr size_t kOpsPerPhase = 320;
  // Requests before the audited phase: seed PUTs + one unaudited phase.
  constexpr uint64_t kWarmupRequests = kKeys + kOpsPerPhase;

  ServerConfig sc;
  sc.num_workers = 1;  // All requests on one worker: exact threshold.
  sc.audit_after_requests = kWarmupRequests;
  sc.alloc_probe = +[] { return t_alloc_count; };
  auto server_or = Server::Start(store.get(), sc);
  ASSERT_TRUE(server_or.ok());
  auto& server = *server_or;
  auto client_or = Client::Connect(server->port());
  ASSERT_TRUE(client_or.ok());
  auto& client = *client_or;

  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(client->Put(k, RandomBits(kBits, 400 + k)).ok());
  }
  auto run_phase = [&] {
    Rng rng(77);  // Same seed both phases: identical request stream.
    size_t queued = 0;
    for (size_t op = 0; op < kOpsPerPhase; ++op) {
      const uint64_t key = rng.NextBounded(kKeys);
      if (rng.NextBernoulli(0.5)) {
        client->QueuePut(key, RandomBits(kBits, 500 + op));
      } else {
        client->QueueGet(key);
      }
      if (++queued == kDepth || op + 1 == kOpsPerPhase) {
        ASSERT_TRUE(client->Flush().ok());
        for (; queued > 0; --queued) {
          auto r = client->ReadResponse();
          ASSERT_TRUE(r.ok());
          ASSERT_NE(r->status, WireStatus::kError);
        }
      }
    }
  };
  run_phase();  // Unaudited: reaches the audit threshold exactly.
  run_phase();  // Audited.

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->audit_requests, kOpsPerPhase);
  EXPECT_EQ(stats->audit_allocs, 0u)
      << "steady-state request loop allocated on the heap";
  EXPECT_EQ(stats->audit_shared_locks, 0u)
      << "steady-state request loop took a shard-external lock";
}

TEST(NetServerTest, ConcurrentPipelinedClients) {
  auto store = MakeStore(27);
  ServerConfig sc;
  sc.num_workers = 2;
  auto server_or = Server::Start(store.get(), sc);
  ASSERT_TRUE(server_or.ok());
  auto& server = *server_or;

  constexpr size_t kClients = 4;
  constexpr size_t kOps = 150;
  constexpr size_t kDepth = 8;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client_or = Client::Connect(server->port());
      if (!client_or.ok()) {
        failed.store(true);
        return;
      }
      auto& client = *client_or;
      Rng rng(900 + t);
      // Disjoint key stripes: cross-client values never collide, so
      // every readback is exact.
      const uint64_t base = 1000 * (t + 1);
      size_t queued = 0;
      for (size_t op = 0; op < kOps; ++op) {
        const uint64_t key = base + rng.NextBounded(24);
        client->QueuePut(key, RandomBits(kBits, key * 31 + op));
        if (++queued == kDepth || op + 1 == kOps) {
          if (!client->Flush().ok()) failed.store(true);
          for (; queued > 0; --queued) {
            auto r = client->ReadResponse();
            if (!r.ok() || r->status != WireStatus::kOk) failed.store(true);
          }
        }
      }
      // Spot-check a readback through the same connection.
      const uint64_t key = base + 1;
      (void)client->Put(key, RandomBits(kBits, key));
      auto got = client->Get(key);
      if (!got.ok() || !(*got == RandomBits(kBits, key))) failed.store(true);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  auto client_or = Client::Connect(server->port());
  ASSERT_TRUE(client_or.ok());
  auto stats = (*client_or)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->puts, kClients * (kOps + 1));
  EXPECT_EQ(stats->connections, kClients + 1);
}

}  // namespace
}  // namespace e2nvm::net
