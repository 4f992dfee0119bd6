#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <thread>
#include <vector>

#include "ps/key_layout.h"
#include "ps/latch_table.h"
#include "ps/storage.h"

namespace lapse {
namespace ps {
namespace {

class StorageTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  StorageTest() : layout_(16, 4, 2), store_(CreateStorage(GetParam(), &layout_)) {}

  KeyLayout layout_;
  std::unique_ptr<Storage> store_;
};

TEST_P(StorageTest, GetOrCreateZeroInitializes) {
  Val* v = store_->GetOrCreate(3);
  ASSERT_NE(v, nullptr);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], 0.0f);
}

TEST_P(StorageTest, PutThenGetRoundTrips) {
  const Val data[4] = {1, 2, 3, 4};
  store_->Put(5, data);
  Val* v = store_->Get(5);
  ASSERT_NE(v, nullptr);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], data[i]);
}

TEST_P(StorageTest, EraseResetsValue) {
  const Val data[4] = {1, 2, 3, 4};
  store_->Put(7, data);
  store_->Erase(7);
  Val* v = store_->GetOrCreate(7);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], 0.0f);
}

TEST_P(StorageTest, IndependentKeys) {
  const Val a[4] = {1, 1, 1, 1};
  const Val b[4] = {2, 2, 2, 2};
  store_->Put(0, a);
  store_->Put(15, b);
  EXPECT_EQ(store_->Get(0)[0], 1.0f);
  EXPECT_EQ(store_->Get(15)[0], 2.0f);
}

TEST_P(StorageTest, MemoryBytesNonZeroAfterWrites) {
  const Val a[4] = {1, 1, 1, 1};
  store_->Put(1, a);
  EXPECT_GT(store_->MemoryBytes(), 0u);
}

TEST_P(StorageTest, ConcurrentDisjointKeyAccess) {
  // Different keys may be touched concurrently (the engine guards value
  // content with latches; structure safety is the store's job).
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, t] {
      const Key k = static_cast<Key>(t * 2);
      for (int i = 0; i < 2000; ++i) {
        Val* v = store_->GetOrCreate(k);
        v[0] += 1.0f;
        if (i % 100 == 99) {
          store_->Erase(k);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StorageTest,
                         ::testing::Values(StorageKind::kDense,
                                           StorageKind::kSparse),
                         [](const auto& info) {
                           return StorageKindName(info.param);
                         });

TEST(SparseStorageTest, GetMissingReturnsNull) {
  KeyLayout layout(8, 2, 1);
  SparseStorage store(&layout);
  EXPECT_EQ(store.Get(3), nullptr);
}

TEST(SparseStorageTest, PointerStabilityAcrossUnrelatedChurn) {
  // Slab chunks never move: a slot pointer must survive arbitrary
  // insert/erase churn on other keys (including index rehashes and new
  // chunk allocations).
  KeyLayout layout(1024, 4, 1);
  SparseStorage store(&layout);
  const Val data[4] = {1, 2, 3, 4};
  store.Put(5, data);
  Val* p = store.Get(5);
  ASSERT_NE(p, nullptr);
  for (Key k = 0; k < 1024; ++k) {
    if (k != 5) store.GetOrCreate(k);
  }
  for (Key k = 0; k < 1024; k += 2) {
    if (k != 5) store.Erase(k);
  }
  EXPECT_EQ(store.Get(5), p);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(p[i], data[i]);
}

TEST(SparseStorageTest, FreeListReusesSlotAfterEraseThenPut) {
  KeyLayout layout(256, 4, 1);
  SparseStorage store(&layout);
  const Val data[4] = {1, 2, 3, 4};
  store.Put(3, data);
  Val* slot = store.Get(3);
  store.Erase(3);
  // Key 67 maps to the same shard (67 % 64 == 3) and the same length class,
  // so the slab must recycle the freed slot instead of carving a new one --
  // the Erase->Put cycle of a relocation reuses memory.
  store.Put(67, data);
  EXPECT_EQ(store.Get(67), slot);
}

TEST(SparseStorageTest, RecycledSlotIsZeroInitialized) {
  KeyLayout layout(256, 4, 1);
  SparseStorage store(&layout);
  const Val data[4] = {9, 9, 9, 9};
  store.Put(3, data);
  store.Erase(3);
  Val* v = store.GetOrCreate(67);  // same shard + class: recycled slot
  ASSERT_NE(v, nullptr);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], 0.0f);
}

TEST(SparseStorageTest, MemoryStableAcrossRelocationChurn) {
  KeyLayout layout(256, 4, 1);
  SparseStorage store(&layout);
  const Val data[4] = {1, 2, 3, 4};
  for (Key k = 0; k < 256; ++k) store.Put(k, data);
  EXPECT_GT(store.MemoryBytes(), 0u);
  // One full Erase->Put round primes the free lists...
  for (Key k = 0; k < 256; ++k) {
    store.Erase(k);
    store.Put(k, data);
  }
  const size_t after_one_round = store.MemoryBytes();
  // ...after which arbitrary further relocation churn must not grow memory.
  for (int round = 0; round < 100; ++round) {
    for (Key k = 0; k < 256; ++k) {
      store.Erase(k);
      store.Put(k, data);
    }
  }
  EXPECT_EQ(store.MemoryBytes(), after_one_round);
}

TEST(SparseStorageTest, MixedLengthClasses) {
  KeyLayout layout(std::vector<size_t>{2, 5, 1}, 1);
  SparseStorage store(&layout);
  const Val a[2] = {1, 2};
  const Val b[5] = {3, 4, 5, 6, 7};
  const Val c[1] = {8};
  store.Put(0, a);
  store.Put(1, b);
  store.Put(2, c);
  EXPECT_EQ(store.Get(0)[1], 2.0f);
  EXPECT_EQ(store.Get(1)[4], 7.0f);
  EXPECT_EQ(store.Get(2)[0], 8.0f);
  store.Erase(1);
  EXPECT_EQ(store.Get(1), nullptr);
  Val* v = store.GetOrCreate(1);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], 0.0f);
}

TEST(DenseStorageTest, GetAlwaysReturnsSlot) {
  KeyLayout layout(8, 2, 1);
  DenseStorage store(&layout);
  EXPECT_NE(store.Get(3), nullptr);
}

TEST(DenseStorageTest, PerKeyLengthOffsets) {
  KeyLayout layout(std::vector<size_t>{2, 5, 1}, 1);
  DenseStorage store(&layout);
  const Val a[2] = {1, 2};
  const Val b[5] = {3, 4, 5, 6, 7};
  const Val c[1] = {8};
  store.Put(0, a);
  store.Put(1, b);
  store.Put(2, c);
  EXPECT_EQ(store.Get(0)[1], 2.0f);
  EXPECT_EQ(store.Get(1)[4], 7.0f);
  EXPECT_EQ(store.Get(2)[0], 8.0f);
}

TEST(LatchTableTest, SameKeySameLatch) {
  LatchTable latches(100);
  EXPECT_EQ(&latches.ForKey(42), &latches.ForKey(42));
}

TEST(LatchTableTest, DistinctKeysDistinctLatches) {
  // One latch per key: no two keys share a latch, whatever their shard.
  const KeyLayout layout(/*num_keys=*/1000, /*uniform_len=*/4,
                         /*num_nodes=*/2, /*num_shards=*/4);
  LatchTable latches(layout.num_keys());
  std::set<const Latch*> seen;
  for (Key k = 0; k < layout.num_keys(); ++k) {
    EXPECT_TRUE(seen.insert(&latches.ForKey(k)).second) << "key " << k;
  }
}

TEST(LatchTableTest, CoversEveryKeyOfTheLayout) {
  const KeyLayout layout(std::vector<size_t>{3, 1, 4, 1, 5, 9, 2},
                         /*num_nodes=*/3);
  LatchTable latches(layout.num_keys());
  ASSERT_EQ(latches.size(), layout.num_keys());
  // Key k owns slot k of one contiguous, unpadded table: every key of the
  // layout has a latch inside it, one byte apart.
  for (Key k = 0; k < layout.num_keys(); ++k) {
    EXPECT_EQ(&latches.ForKey(k) - &latches.ForKey(0),
              static_cast<ptrdiff_t>(k));
  }
  EXPECT_EQ(sizeof(Latch), 1u);
}

TEST(LatchTableTest, MutualExclusion) {
  LatchTable latches(16);  // key 9 must be inside the table
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        LatchGuard lock(latches.ForKey(9));
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

}  // namespace
}  // namespace ps
}  // namespace lapse
