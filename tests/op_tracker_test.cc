#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "obs/timeline.h"
#include "ps/op_tracker.h"

namespace lapse {
namespace ps {
namespace {

TEST(OpTrackerTest, ImmediateIsAlwaysDone) {
  OpTracker t;
  EXPECT_TRUE(t.IsDone(OpTracker::kImmediate));
  t.Wait(OpTracker::kImmediate);  // must not block
}

TEST(OpTrackerTest, CompletesAfterAllKeys) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr, {{1, 0}, {2, 0}, {3, 0}}, 123);
  EXPECT_FALSE(t.IsDone(op));
  t.CompleteKeys(op, 2);
  EXPECT_FALSE(t.IsDone(op));
  t.CompleteKeys(op, 1);
  EXPECT_TRUE(t.IsDone(op));
  t.Wait(op);
}

TEST(OpTrackerTest, IssueNs) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr, {{1, 0}}, 987);
  EXPECT_EQ(t.IssueNs(op), 987);
  EXPECT_EQ(t.IssueNs(9999), 0);
}

TEST(OpTrackerTest, PullDstFindsOffsets) {
  OpTracker t;
  std::vector<Val> buf(10);
  const uint64_t op = t.Create(buf.data(), {{5, 0}, {2, 4}, {9, 7}}, 0);
  EXPECT_EQ(t.PullDst(op, 5), buf.data());
  EXPECT_EQ(t.PullDst(op, 2), buf.data() + 4);
  EXPECT_EQ(t.PullDst(op, 9), buf.data() + 7);
}

TEST(OpTrackerTest, PullDstNullForPushOps) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr, {{1, 0}}, 0);
  EXPECT_EQ(t.PullDst(op, 1), nullptr);
}

TEST(OpTrackerTest, WaitBlocksUntilComplete) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr, {{1, 0}}, 0);
  std::thread completer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    t.CompleteKeys(op, 1);
  });
  t.Wait(op);  // must return once completed
  completer.join();
  EXPECT_TRUE(t.IsDone(op));
}

TEST(OpTrackerTest, WaitAllDrainsEverything) {
  OpTracker t;
  std::vector<uint64_t> ops;
  for (int i = 0; i < 10; ++i) ops.push_back(t.Create(nullptr, {{1, 0}}, 0));
  std::thread completer([&] {
    for (const uint64_t op : ops) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      t.CompleteKeys(op, 1);
    }
  });
  t.WaitAll();
  completer.join();
  EXPECT_EQ(t.NumPending(), 0u);
}

TEST(OpTrackerTest, DistinctIds) {
  OpTracker t;
  const uint64_t a = t.Create(nullptr, {{1, 0}}, 0);
  const uint64_t b = t.Create(nullptr, {{1, 0}}, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, OpTracker::kImmediate);
}

TEST(OpTrackerTest, ConcurrentCompletions) {
  OpTracker t;
  const uint64_t op = t.Create(nullptr,
                               {{1, 0}, {2, 0}, {3, 0}, {4, 0}}, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] { t.CompleteKeys(op, 1); });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(t.IsDone(op));
}

TEST(OpTrackerTest, ManyOpsAcrossChunksOutOfOrder) {
  // Far more ops than the first 64-slot chunk, created and completed in
  // shuffled order, then waited in another order.
  OpTracker t;
  constexpr int kOps = 1000;
  std::vector<uint64_t> ops;
  std::vector<std::vector<Val>> bufs(kOps, std::vector<Val>(2, 0.0f));
  for (int i = 0; i < kOps; ++i) {
    ops.push_back(t.Create(bufs[i].data(),
                           {{static_cast<Key>(i), 0}, {kOps + 0u, 1}}, i + 1));
  }
  const std::set<uint64_t> distinct(ops.begin(), ops.end());
  EXPECT_EQ(distinct.size(), ops.size());
  for (const uint64_t op : ops) {
    EXPECT_NE(op, OpTracker::kImmediate);
    EXPECT_LT(op, obs::kInlineOpBit);
  }
  EXPECT_EQ(t.NumPending(), static_cast<size_t>(kOps));

  std::vector<int> order(kOps);
  for (int i = 0; i < kOps; ++i) order[i] = i;
  std::mt19937 rng(7);
  std::shuffle(order.begin(), order.end(), rng);
  for (const int i : order) {
    EXPECT_EQ(t.IssueNs(ops[i]), i + 1);
    *t.PullDst(ops[i], static_cast<Key>(i)) = static_cast<Val>(i);
    *t.PullDst(ops[i], kOps) = 1.0f;
    t.CompleteKeys(ops[i], 2);
  }
  std::shuffle(order.begin(), order.end(), rng);
  for (const int i : order) {
    t.Wait(ops[i]);
    EXPECT_TRUE(t.IsDone(ops[i]));
    EXPECT_EQ(bufs[i][0], static_cast<Val>(i));
    EXPECT_EQ(bufs[i][1], 1.0f);
  }
  EXPECT_EQ(t.NumPending(), 0u);
  EXPECT_EQ(t.NumSlots(), static_cast<size_t>(kOps));
}

TEST(OpTrackerTest, ReclaimedIdsReportDone) {
  OpTracker t;
  const uint64_t a = t.Create(nullptr, {{1, 0}}, 55);
  EXPECT_TRUE(t.CompleteKeys(a, 1));
  // a's slot is free again: the next op reuses it under a new id.
  const uint64_t b = t.Create(nullptr, {{2, 0}}, 66);
  EXPECT_NE(a, b);
  EXPECT_EQ(t.NumSlots(), 1u);
  t.Wait(a);  // must not block on b
  EXPECT_TRUE(t.IsDone(a));
  EXPECT_EQ(t.IssueNs(a), 0);
  EXPECT_EQ(t.PullDst(a, 1), nullptr);
  EXPECT_FALSE(t.IsDone(b));
  EXPECT_EQ(t.IssueNs(b), 66);
  t.CompleteKeys(b, 1);
  EXPECT_TRUE(t.IsDone(b));
  EXPECT_EQ(t.IssueNs(b), 0);
}

TEST(OpTrackerTest, UnwaitedOpsStayBounded) {
  // 100k ops completed by another thread, none ever waited: completed
  // slots are reclaimed, so the table never outgrows the window of ops
  // outstanding at once.
  OpTracker t;
  constexpr int kOps = 100'000;
  constexpr size_t kWindow = 32;
  std::mutex mu;
  std::deque<uint64_t> queue;
  std::atomic<bool> done{false};
  std::thread completer([&] {
    for (;;) {
      uint64_t op = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!queue.empty()) {
          op = queue.front();
          queue.pop_front();
        }
      }
      if (op != 0) {
        t.CompleteKeys(op, 1);
      } else if (done.load()) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kOps; ++i) {
    while (t.NumPending() >= kWindow) std::this_thread::yield();
    const uint64_t op = t.Create(nullptr, {{static_cast<Key>(i), 0}}, 0);
    std::lock_guard<std::mutex> lock(mu);
    queue.push_back(op);
  }
  done.store(true);
  completer.join();
  EXPECT_EQ(t.NumPending(), 0u);
  EXPECT_LE(t.NumSlots(), kWindow + 1);
}

// Complete-versus-park races: with no spin phase every wait parks, and the
// completer fires at a varying point around the park. A lost wakeup hangs
// the test.
void RaceCompleteAgainstPark(bool wait_all) {
  OpTracker t(/*spin_ns=*/0);
  constexpr int kRounds = 10'000;
  std::atomic<uint64_t> handoff{0};
  std::thread completer([&] {
    std::mt19937 rng(11);
    for (int i = 0; i < kRounds; ++i) {
      uint64_t op;
      while ((op = handoff.exchange(0)) == 0) {
      }
      const int delay = static_cast<int>(rng() % 200);
      for (volatile int d = 0; d < delay; d = d + 1) {
      }
      t.CompleteKeys(op, 1);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    const uint64_t op = t.Create(nullptr, {{1, 0}}, 0);
    handoff.store(op);
    if (wait_all) {
      t.WaitAll();
    } else {
      t.Wait(op);
    }
    EXPECT_TRUE(t.IsDone(op));
  }
  completer.join();
  EXPECT_EQ(t.NumPending(), 0u);
}

TEST(OpTrackerTest, NoLostWakeupOnWait) { RaceCompleteAgainstPark(false); }

TEST(OpTrackerTest, NoLostWakeupOnWaitAll) { RaceCompleteAgainstPark(true); }

TEST(OpTrackerTest, TenThousandOutstandingOpsNeverBlockCreate) {
  OpTracker t;
  constexpr int kOps = 10'000;
  std::vector<uint64_t> ops;
  for (int i = 0; i < kOps; ++i) {
    ops.push_back(t.Create(nullptr, {{static_cast<Key>(i), 0}}, 0));
  }
  EXPECT_EQ(t.NumPending(), static_cast<size_t>(kOps));
  EXPECT_EQ(t.NumSlots(), static_cast<size_t>(kOps));
  std::thread completer([&] {
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) t.CompleteKeys(*it, 1);
  });
  t.WaitAll();
  completer.join();
  EXPECT_EQ(t.NumPending(), 0u);
  for (const uint64_t op : ops) EXPECT_TRUE(t.IsDone(op));
}

}  // namespace
}  // namespace ps
}  // namespace lapse
