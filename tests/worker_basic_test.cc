#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ps/system.h"

namespace lapse {
namespace ps {
namespace {

Config SmallConfig(Architecture arch, int nodes = 2, int workers = 1) {
  Config cfg;
  cfg.num_nodes = nodes;
  cfg.workers_per_node = workers;
  cfg.num_keys = 20;
  cfg.uniform_value_length = 2;
  cfg.arch = arch;
  cfg.latency = net::LatencyConfig::Zero();
  return cfg;
}

class WorkerArchTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(WorkerArchTest, PullInitialValuesAreZero) {
  PsSystem system(SmallConfig(GetParam()));
  system.Run([](Worker& w) {
    std::vector<Val> buf(2 * 3);
    w.Pull({0, 10, 19}, buf.data());
    for (const Val v : buf) EXPECT_EQ(v, 0.0f);
  });
}

TEST_P(WorkerArchTest, PushThenPullRoundTrip) {
  PsSystem system(SmallConfig(GetParam()));
  std::atomic<int> turn{0};
  system.Run([&](Worker& w) {
    // Only one worker (per node) writes; everyone reads after a barrier.
    if (w.worker_id() == 0) {
      const std::vector<Val> update = {1.5f, -2.5f};
      w.Push({7}, update.data());
    }
    w.Barrier();
    std::vector<Val> buf(2);
    w.Pull({7}, buf.data());
    EXPECT_EQ(buf[0], 1.5f);
    EXPECT_EQ(buf[1], -2.5f);
    (void)turn;
  });
}

TEST_P(WorkerArchTest, PushIsCumulative) {
  PsSystem system(SmallConfig(GetParam(), 2, 2));
  system.Run([&](Worker& w) {
    const std::vector<Val> update = {1.0f, 2.0f};
    w.Push({3}, update.data());
    w.Barrier();
    std::vector<Val> buf(2);
    w.Pull({3}, buf.data());
    // 4 workers each pushed {1,2}.
    EXPECT_EQ(buf[0], 4.0f);
    EXPECT_EQ(buf[1], 8.0f);
  });
}

TEST_P(WorkerArchTest, MultiKeyOpsKeepKeyOrder) {
  PsSystem system(SmallConfig(GetParam()));
  system.Run([&](Worker& w) {
    if (w.worker_id() == 0) {
      // Write distinct values to keys spanning both nodes' home ranges.
      std::vector<Val> update = {1, 1, 2, 2, 3, 3};
      w.Push({2, 10, 18}, update.data());
    }
    w.Barrier();
    std::vector<Val> buf(6);
    w.Pull({2, 10, 18}, buf.data());
    EXPECT_EQ(buf[0], 1.0f);
    EXPECT_EQ(buf[2], 2.0f);
    EXPECT_EQ(buf[4], 3.0f);
  });
}

TEST_P(WorkerArchTest, ReadYourWritesSync) {
  PsSystem system(SmallConfig(GetParam(), 2, 2));
  system.Run([&](Worker& w) {
    // Each worker has a private key; sync ops must read-your-writes.
    const Key k = static_cast<Key>(w.worker_id());
    std::vector<Val> buf(2);
    for (int i = 1; i <= 10; ++i) {
      const std::vector<Val> update = {1.0f, 0.5f};
      w.Push({k}, update.data());
      w.Pull({k}, buf.data());
      EXPECT_EQ(buf[0], static_cast<Val>(i));
      EXPECT_EQ(buf[1], 0.5f * static_cast<Val>(i));
    }
  });
}

TEST_P(WorkerArchTest, AsyncOpsCompleteOnWait) {
  PsSystem system(SmallConfig(GetParam()));
  system.Run([&](Worker& w) {
    if (w.worker_id() != 0) return;
    const std::vector<Val> update = {2.0f, 4.0f};
    const uint64_t p1 = w.PushAsync({11}, update.data());
    std::vector<Val> buf(2);
    const uint64_t p2 = w.PullAsync({11}, buf.data());
    w.Wait(p1);
    w.Wait(p2);
    // FIFO per connection: the pull was issued after the push by the same
    // worker, so it must observe it.
    EXPECT_EQ(buf[0], 2.0f);
    EXPECT_EQ(buf[1], 4.0f);
  });
}

TEST_P(WorkerArchTest, WaitAllCompletesOutstanding) {
  PsSystem system(SmallConfig(GetParam()));
  system.Run([&](Worker& w) {
    const std::vector<Val> update = {1.0f, 1.0f};
    for (int i = 0; i < 50; ++i) {
      w.PushAsync({static_cast<Key>(i % 20)}, update.data());
    }
    w.WaitAll();
  });
  // After Run, all updates must be applied: sum over all keys = workers *
  // 50 pushes * 2 elements... checked via GetValue on key 0 (pushed 3x by
  // each of 2 workers: i%20==0 for i=0,20,40).
  std::vector<Val> buf(2);
  system.GetValue(0, buf.data());
  EXPECT_EQ(buf[0], 2.0f * 3);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, WorkerArchTest,
                         ::testing::Values(Architecture::kLapse,
                                           Architecture::kClassicFastLocal,
                                           Architecture::kClassic),
                         [](const auto& info) {
                           return ArchitectureName(info.param);
                         });

TEST(WorkerTest, PerKeyValueLengths) {
  Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.value_lengths = {1, 3, 2, 4};
  cfg.latency = net::LatencyConfig::Zero();
  PsSystem system(cfg);
  system.Run([&](Worker& w) {
    if (w.worker_id() == 0) {
      std::vector<Val> update = {9, /*k1*/ 1, 2, 3, /*k3*/ 5, 6, 7, 8};
      w.Push({0, 1, 3}, update.data());
    }
    w.Barrier();
    std::vector<Val> buf(8);
    w.Pull({0, 1, 3}, buf.data());
    EXPECT_EQ(buf[0], 9.0f);
    EXPECT_EQ(buf[1], 1.0f);
    EXPECT_EQ(buf[3], 3.0f);
    EXPECT_EQ(buf[7], 8.0f);
  });
}

TEST(WorkerTest, IsLocalReflectsHomeAllocation) {
  PsSystem system(SmallConfig(Architecture::kClassicFastLocal));
  system.Run([&](Worker& w) {
    const KeyLayout& layout = w.layout();
    for (Key k = 0; k < 20; ++k) {
      EXPECT_EQ(w.IsLocal(k), layout.Home(k) == w.node());
    }
  });
}

TEST(WorkerTest, ClassicArchHidesLocality) {
  PsSystem system(SmallConfig(Architecture::kClassic));
  system.Run([&](Worker& w) {
    for (Key k = 0; k < 20; ++k) EXPECT_FALSE(w.IsLocal(k));
  });
}

TEST(WorkerTest, PullIfLocalOnlyServesOwnedKeys) {
  PsSystem system(SmallConfig(Architecture::kClassicFastLocal));
  system.Run([&](Worker& w) {
    std::vector<Val> buf(2);
    int local = 0;
    for (Key k = 0; k < 20; ++k) {
      if (w.PullIfLocal(k, buf.data())) ++local;
    }
    EXPECT_EQ(local, 10);  // half the key space homed at each of 2 nodes
  });
}

TEST(WorkerTest, LocalStatsCountFastPath) {
  PsSystem system(SmallConfig(Architecture::kClassicFastLocal, 1, 1));
  system.Run([&](Worker& w) {
    std::vector<Val> buf(2);
    for (int i = 0; i < 100; ++i) w.Pull({5}, buf.data());
  });
  EXPECT_EQ(system.TotalLocalReads(), 100);
  EXPECT_EQ(system.TotalRemoteReads(), 0);
}

TEST(WorkerTest, ClassicCountsRemoteEvenOnSingleNode) {
  PsSystem system(SmallConfig(Architecture::kClassic, 1, 1));
  system.Run([&](Worker& w) {
    std::vector<Val> buf(2);
    for (int i = 0; i < 10; ++i) w.Pull({5}, buf.data());
  });
  EXPECT_EQ(system.TotalLocalReads(), 0);
  EXPECT_EQ(system.TotalRemoteReads(), 10);
}

TEST(WorkerTest, SparseStorageBackend) {
  Config cfg = SmallConfig(Architecture::kLapse);
  cfg.storage = StorageKind::kSparse;
  PsSystem system(cfg);
  system.Run([&](Worker& w) {
    if (w.worker_id() == 0) {
      const std::vector<Val> update = {3.0f, 1.0f};
      w.Push({13}, update.data());
    }
    w.Barrier();
    std::vector<Val> buf(2);
    w.Pull({13}, buf.data());
    EXPECT_EQ(buf[0], 3.0f);
  });
}

TEST(SystemTest, SetAndGetValue) {
  PsSystem system(SmallConfig(Architecture::kLapse));
  const std::vector<Val> v = {4.5f, -1.0f};
  system.SetValue(9, v.data());
  std::vector<Val> buf(2);
  system.GetValue(9, buf.data());
  EXPECT_EQ(buf[0], 4.5f);
  EXPECT_EQ(buf[1], -1.0f);
}

TEST(SystemTest, OwnerStartsAtHome) {
  PsSystem system(SmallConfig(Architecture::kLapse));
  for (Key k = 0; k < 20; ++k) {
    EXPECT_EQ(system.OwnerOf(k), system.layout().Home(k));
  }
}

TEST(SystemTest, MultipleRunPhasesShareState) {
  PsSystem system(SmallConfig(Architecture::kLapse));
  system.Run([&](Worker& w) {
    if (w.worker_id() == 0) {
      const std::vector<Val> update = {1.0f, 1.0f};
      w.Push({4}, update.data());
    }
  });
  system.Run([&](Worker& w) {
    std::vector<Val> buf(2);
    w.Pull({4}, buf.data());
    EXPECT_EQ(buf[0], 1.0f);
  });
}

TEST(WorkerTest, DroppedLocalizeHandlesLeaveTrackerBounded) {
  // Latency hiding issues LocalizeAsync and never waits on the handle.
  // Each op's tracker slot is reclaimed when its relocation completes, so
  // the table stays as small as the window of relocations in flight.
  Config cfg = SmallConfig(Architecture::kLapse);
  cfg.num_keys = 20'000;
  cfg.uniform_value_length = 1;
  PsSystem system(cfg);
  constexpr size_t kWindow = 50;
  system.Run([&](Worker& w) {
    if (w.node() != 0) return;
    const OpTracker& tracker =
        system.node_context(w.node()).TrackerFor(w.thread_slot());
    size_t issued = 0;
    for (Key k = 0; k < cfg.num_keys; ++k) {
      if (w.layout().Home(k) == w.node()) continue;
      w.LocalizeAsync({k});  // handle dropped
      if (++issued % kWindow == 0) {
        // Not a Wait: the ops must drain from the tracker on their own.
        while (tracker.NumPending() != 0) std::this_thread::yield();
      }
    }
    while (tracker.NumPending() != 0) std::this_thread::yield();
    EXPECT_GT(issued, 5'000u);
    EXPECT_LE(tracker.NumSlots(), kWindow);
    for (Key k = 0; k < cfg.num_keys; ++k) EXPECT_TRUE(w.IsLocal(k));
  });
}

}  // namespace
}  // namespace ps
}  // namespace lapse
