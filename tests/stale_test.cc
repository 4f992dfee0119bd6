#include <gtest/gtest.h>

#include <vector>

#include "stale/ssp_system.h"
#include "stale/ssp_worker.h"

namespace lapse {
namespace stale {
namespace {

SspConfig SmallConfig(SyncMode mode, int nodes = 2, int workers = 1,
                      int staleness = 1) {
  SspConfig cfg;
  cfg.num_nodes = nodes;
  cfg.workers_per_node = workers;
  cfg.num_keys = 16;
  cfg.value_length = 2;
  cfg.staleness = staleness;
  cfg.sync_mode = mode;
  cfg.latency = net::LatencyConfig::Zero();
  return cfg;
}

class SspModeTest : public ::testing::TestWithParam<SyncMode> {};

TEST_P(SspModeTest, InitialReadsAreZero) {
  SspSystem system(SmallConfig(GetParam()));
  system.Run([](SspWorker& w) {
    std::vector<Val> buf(4);
    w.Read({0, 9}, buf.data());
    for (const Val v : buf) EXPECT_EQ(v, 0.0f);
  });
}

TEST_P(SspModeTest, UpdatesVisibleLocallyBeforeClock) {
  SspSystem system(SmallConfig(GetParam(), 1, 1));
  system.Run([](SspWorker& w) {
    std::vector<Val> buf(2);
    w.Read({3}, buf.data());  // cache the key
    const std::vector<Val> one = {1.0f, 2.0f};
    w.Update({3}, one.data());
    w.Read({3}, buf.data());
    EXPECT_EQ(buf[0], 1.0f);  // own update visible pre-flush
    w.Clock();
  });
}

TEST_P(SspModeTest, UpdatesReachOwnerAfterClock) {
  SspSystem system(SmallConfig(GetParam(), 2, 1));
  system.Run([](SspWorker& w) {
    const std::vector<Val> one = {1.0f, 0.5f};
    w.Update({5}, one.data());
    w.Clock();
    w.Barrier();
  });
  std::vector<Val> buf(2);
  system.GetValue(5, buf.data());
  EXPECT_EQ(buf[0], 2.0f);  // both workers' updates flushed
  EXPECT_EQ(buf[1], 1.0f);
}

TEST_P(SspModeTest, NoLostUpdatesManyClocks) {
  SspSystem system(SmallConfig(GetParam(), 2, 2));
  const int kRounds = 20;
  system.Run([&](SspWorker& w) {
    const std::vector<Val> one = {1.0f, 0.0f};
    for (int i = 0; i < kRounds; ++i) {
      const Key k = static_cast<Key>(i % 16);
      w.Update({k}, one.data());
      w.Clock();
    }
    w.Barrier();
  });
  double total = 0;
  std::vector<Val> buf(2);
  for (Key k = 0; k < 16; ++k) {
    system.GetValue(k, buf.data());
    total += buf[0];
  }
  EXPECT_DOUBLE_EQ(total, 4.0 * kRounds);
}

TEST_P(SspModeTest, StaleReadsSeeOtherWorkersAfterClocks) {
  SspSystem system(SmallConfig(GetParam(), 2, 1, /*staleness=*/1));
  system.Run([](SspWorker& w) {
    const std::vector<Val> one = {1.0f, 0.0f};
    std::vector<Val> buf(2);
    for (int round = 1; round <= 5; ++round) {
      w.Update({2}, one.data());
      w.Clock();
      w.Barrier();
      w.Read({2}, buf.data());
      // With staleness 1 and a barrier after each clock, the read must
      // reflect at least the updates of round-1 from both workers.
      EXPECT_GE(buf[0], static_cast<Val>(2 * (round - 1)));
      w.Barrier();
    }
  });
}

TEST_P(SspModeTest, ClockAdvancesWorkerClock) {
  SspSystem system(SmallConfig(GetParam(), 1, 2));
  system.Run([](SspWorker& w) {
    EXPECT_EQ(w.clock(), 0);
    w.Clock();
    EXPECT_EQ(w.clock(), 1);
    w.Clock();
    EXPECT_EQ(w.clock(), 2);
  });
}

INSTANTIATE_TEST_SUITE_P(BothModes, SspModeTest,
                         ::testing::Values(SyncMode::kClientSync,
                                           SyncMode::kServerSync),
                         [](const auto& info) {
                           return SyncModeName(info.param);
                         });

TEST(SspServerSyncTest, PushesReplicasToPastReaders) {
  SspSystem system(SmallConfig(SyncMode::kServerSync, 2, 1));
  system.Run([&](SspWorker& w) {
    std::vector<Val> buf(2);
    // Both nodes read key 0 (homed at node 0) -> both subscribe.
    w.Read({0}, buf.data());
    w.Barrier();
    if (w.node() == 0) {
      const std::vector<Val> one = {4.0f, 0.0f};
      w.Update({0}, one.data());
    }
    w.Clock();
    w.Barrier();
  });
  // The server must have pushed values to node 1 (subscriber).
  EXPECT_GT(system.net_stats().MessagesOfType(net::MsgType::kSspPushUpdates),
            0);
}

TEST(SspClientSyncTest, NoServerPushes) {
  SspSystem system(SmallConfig(SyncMode::kClientSync, 2, 1));
  system.Run([&](SspWorker& w) {
    std::vector<Val> buf(2);
    w.Read({0}, buf.data());
    w.Barrier();
    const std::vector<Val> one = {1.0f, 0.0f};
    w.Update({0}, one.data());
    w.Clock();
    w.Barrier();
    w.Read({0}, buf.data());
  });
  EXPECT_EQ(system.net_stats().MessagesOfType(net::MsgType::kSspPushUpdates),
            0);
}

TEST(SspFreshnessTest, FreshReplicaAvoidsRefetch) {
  SspSystem system(SmallConfig(SyncMode::kClientSync, 2, 1));
  system.Run([&](SspWorker& w) {
    if (w.node() != 1) return;
    std::vector<Val> buf(2);
    w.Read({0}, buf.data());  // fetch
    const int64_t before =
        system.net_stats().MessagesOfType(net::MsgType::kSspRead);
    w.Read({0}, buf.data());  // same clock: replica fresh, no message
    const int64_t after =
        system.net_stats().MessagesOfType(net::MsgType::kSspRead);
    EXPECT_EQ(before, after);
  });
}

TEST(SspFreshnessTest, StaleReplicaRefetches) {
  SspSystem system(SmallConfig(SyncMode::kClientSync, 2, 1,
                               /*staleness=*/1));
  system.Run([&](SspWorker& w) {
    std::vector<Val> buf(2);
    w.Read({0}, buf.data());  // tag 0
    // Advance two clocks; tag 0 < clock(2) - staleness(1) = 1 -> refetch.
    w.Clock();
    w.Barrier();
    w.Clock();
    w.Barrier();
    if (w.node() == 1) {
      const int64_t before =
          system.net_stats().MessagesOfType(net::MsgType::kSspRead);
      w.Read({0}, buf.data());
      const int64_t after =
          system.net_stats().MessagesOfType(net::MsgType::kSspRead);
      EXPECT_EQ(after, before + 1);
    }
  });
}

TEST(ReplicaStoreTest, FreshnessRule) {
  ps::KeyLayout layout(4, 2, 1);
  ReplicaStore store(&layout);
  EXPECT_FALSE(store.Fresh(0, 0, 1));  // absent
  const Val v[2] = {1, 2};
  store.Install(0, v, 3);
  EXPECT_TRUE(store.Fresh(0, 3, 1));
  EXPECT_TRUE(store.Fresh(0, 4, 1));
  EXPECT_FALSE(store.Fresh(0, 5, 1));  // tag 3 < 5 - 1
}

TEST(ReplicaStoreTest, AccumulateRequiresPresence) {
  ps::KeyLayout layout(4, 2, 1);
  ReplicaStore store(&layout);
  const Val u[2] = {5, 5};
  store.Accumulate(1, u);  // no copy present: ignored
  EXPECT_EQ(store.Tag(1), ReplicaStore::kAbsent);
  const Val v[2] = {1, 1};
  store.Install(1, v, 0);
  store.Accumulate(1, u);
  Val out[2];
  store.Read(1, out);
  EXPECT_EQ(out[0], 6.0f);
}

}  // namespace
}  // namespace stale
}  // namespace lapse
