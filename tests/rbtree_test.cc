#include "index/rbtree.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"

namespace e2nvm::index {
namespace {

TEST(RbTreeTest, EmptyBehavior) {
  RbTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.Get(1).has_value());
  EXPECT_FALSE(t.Erase(1).has_value());
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_TRUE(t.Scan(0, 10).empty());
}

TEST(RbTreeTest, PutGetOverwrite) {
  RbTree t;
  EXPECT_TRUE(t.Put(5, 50));
  EXPECT_FALSE(t.Put(5, 55));  // Overwrite returns false.
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Get(5).value(), 55u);
}

TEST(RbTreeTest, EraseReturnsValue) {
  RbTree t;
  t.Put(1, 10);
  t.Put(2, 20);
  auto v = t.Erase(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 10u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.Get(1).has_value());
  EXPECT_TRUE(t.Get(2).has_value());
}

TEST(RbTreeTest, AscendingInsertKeepsInvariants) {
  RbTree t;
  for (uint64_t k = 0; k < 1000; ++k) {
    t.Put(k, k * 2);
    if (k % 100 == 0) {
      ASSERT_TRUE(t.CheckInvariants()) << k;
    }
  }
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_EQ(t.size(), 1000u);
}

TEST(RbTreeTest, DescendingInsertKeepsInvariants) {
  RbTree t;
  for (uint64_t k = 1000; k > 0; --k) {
    t.Put(k, k);
  }
  EXPECT_TRUE(t.CheckInvariants());
}

TEST(RbTreeTest, RandomInsertEraseMatchesStdMap) {
  RbTree t;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(77);
  for (int op = 0; op < 20000; ++op) {
    uint64_t key = rng.NextBounded(500);
    if (rng.NextBernoulli(0.6)) {
      uint64_t val = rng.NextU64();
      t.Put(key, val);
      ref[key] = val;
    } else {
      auto got = t.Erase(key);
      auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, it->second);
        ref.erase(it);
      }
    }
    if (op % 1000 == 0) {
      ASSERT_TRUE(t.CheckInvariants()) << "op " << op;
      ASSERT_EQ(t.size(), ref.size());
    }
  }
  ASSERT_TRUE(t.CheckInvariants());
  ASSERT_EQ(t.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto got = t.Get(k);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(*got, v);
  }
}

TEST(RbTreeTest, ScanIsOrderedAndBounded) {
  RbTree t;
  for (uint64_t k = 0; k < 100; k += 2) t.Put(k, k + 1);
  auto scan = t.Scan(10, 5);
  ASSERT_EQ(scan.size(), 5u);
  EXPECT_EQ(scan[0].first, 10u);
  EXPECT_EQ(scan[0].second, 11u);
  for (size_t i = 1; i < scan.size(); ++i) {
    EXPECT_GT(scan[i].first, scan[i - 1].first);
  }
  // Start between keys.
  auto scan2 = t.Scan(11, 3);
  EXPECT_EQ(scan2[0].first, 12u);
  // Past the end.
  EXPECT_TRUE(t.Scan(1000, 3).empty());
}

TEST(RbTreeTest, ForEachVisitsAllInOrder) {
  RbTree t;
  Rng rng(9);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 200; ++i) {
    uint64_t k = rng.NextU64();
    if (t.Put(k, 0)) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<uint64_t> visited;
  t.ForEach([&](uint64_t k, uint64_t) { visited.push_back(k); });
  EXPECT_EQ(visited, keys);
}

TEST(RbTreeTest, MemoryFootprintScalesWithSize) {
  RbTree t;
  size_t empty_fp = t.MemoryFootprintBytes();
  for (uint64_t k = 0; k < 100; ++k) t.Put(k, k);
  EXPECT_GT(t.MemoryFootprintBytes(), empty_fp);
  EXPECT_EQ(t.MemoryFootprintBytes() % 100, 0u);  // nodes * sizeof(Node)
}

TEST(RbTreeTest, MoveSemantics) {
  RbTree t;
  t.Put(1, 10);
  RbTree u = std::move(t);
  EXPECT_EQ(u.Get(1).value(), 10u);
  EXPECT_EQ(t.size(), 0u);  // NOLINT: moved-from is empty by contract.
}

}  // namespace
}  // namespace e2nvm::index
