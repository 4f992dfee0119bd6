#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/observability.h"
#include "ps/system.h"

// Per-thread counter blocks: every worker (and the placement manager's
// protocol worker) writes its own cache-line-aligned ServerStats, and the
// readers -- node_stats, the Total* helpers and the node{n}.* registry
// entries -- sum the blocks. The counts must be exact while a reader polls
// concurrently (this file runs under the tsan ctest label), and
// ResetStats must zero every block.

namespace lapse {
namespace {

constexpr int kNodes = 2;
constexpr int kWorkersPerNode = 2;
constexpr size_t kLen = 4;
constexpr int kLocalOps = 300;    // 2-key pulls and pushes of owned keys
constexpr int kRemoteOps = 40;    // 1-key pulls and pushes of remote keys
constexpr int kReplicaOps = 100;  // pulls and pushes of a pinned key

ps::Config CounterConfig() {
  ps::Config cfg;
  cfg.num_nodes = kNodes;
  cfg.workers_per_node = kWorkersPerNode;
  cfg.num_keys = 64;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.replication = true;
  // Copies never expire during the test, so every read after the first
  // (installing) pull of a pinned key is served by the replica.
  cfg.replica_staleness_micros = 600'000'000;
  cfg.obs.enabled = true;
  cfg.obs.sample_every = 0;  // registry and DumpMetrics only
  return cfg;
}

int64_t RegistryCounterSum(obs::Observability* obs, const std::string& name) {
  for (const auto& c : obs->registry().Snapshot().counters) {
    if (c.name == name) return c.sum;
  }
  ADD_FAILURE() << "no counter " << name;
  return -1;
}

TEST(StatsBlockTest, ExactCountsUnderConcurrentPollingAndResetZeroesAll) {
  ps::PsSystem system(CounterConfig());
  const ps::KeyLayout& layout = system.layout();

  std::atomic<bool> done{false};
  std::atomic<int64_t> polls{0};
  const std::string metrics_path =
      ::testing::TempDir() + "stats_test_metrics.json";
  std::thread poller([&] {
    int64_t last_total = 0;
    while (!done.load(std::memory_order_acquire)) {
      int64_t node_sum = 0;
      for (NodeId n = 0; n < kNodes; ++n) {
        node_sum += system.node_stats(n).local_key_reads.sum();
      }
      const int64_t total = system.TotalLocalReads();
      // Counters only grow while workers run.
      EXPECT_GE(total, last_total);
      EXPECT_GE(total, 0);
      EXPECT_GE(node_sum, 0);
      last_total = total;
      EXPECT_TRUE(system.DumpMetrics(metrics_path));
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });

  system.Run([&](ps::Worker& w) {
    const NodeId here = w.node();
    const NodeId other = 1 - here;
    const int slot = w.thread_slot() - 1;  // 0 or 1 within the node
    // Owned keys: the first four of this node's range, two per op.
    const Key own = layout.HomeBegin(here);
    // Remote keys: one per worker of the other node's range; pinned keys:
    // one per worker further up that range, so no two workers share one.
    const Key remote = layout.HomeBegin(other) + slot;
    const Key pinned = layout.HomeBegin(other) + 8 + slot;
    std::vector<Val> buf(2 * kLen);
    const std::vector<Val> upd(2 * kLen, 0.25f);
    for (int i = 0; i < kLocalOps; ++i) {
      w.Pull({own + 2 * static_cast<Key>(slot),
              own + 2 * static_cast<Key>(slot) + 1},
             buf.data());
      w.Push({own + 2 * static_cast<Key>(slot),
              own + 2 * static_cast<Key>(slot) + 1},
             upd.data());
    }
    for (int i = 0; i < kRemoteOps; ++i) {
      w.Pull({remote}, buf.data());
      w.Push({remote}, upd.data());
    }
    ASSERT_EQ(w.Replicate({pinned}), 1u);
    w.Pull({pinned}, buf.data());  // remote: installs the first copy
    for (int i = 0; i < kReplicaOps; ++i) {
      w.Pull({pinned}, buf.data());
      w.Push({pinned}, upd.data());
    }
  });
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls.load(), 0);

  // Per node: two workers, each with 2-key local ops, 1-key remote ops
  // plus the installing pull, and 1-key replica ops.
  const int64_t local = kWorkersPerNode * kLocalOps * 2;
  const int64_t remote_reads = kWorkersPerNode * (kRemoteOps + 1);
  const int64_t remote_writes = kWorkersPerNode * kRemoteOps;
  const int64_t replica = kWorkersPerNode * kReplicaOps;
  obs::Observability* obs = system.observability();
  for (NodeId n = 0; n < kNodes; ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const ps::ServerStats s = system.node_stats(n);
    EXPECT_EQ(s.local_key_reads.sum(), local);
    EXPECT_EQ(s.local_key_writes.sum(), local);
    EXPECT_EQ(s.remote_key_reads.sum(), remote_reads);
    EXPECT_EQ(s.remote_key_writes.sum(), remote_writes);
    EXPECT_EQ(s.replica_key_reads.sum(), replica);
    EXPECT_EQ(s.replica_key_writes.sum(), replica);
    EXPECT_EQ(s.queued_local_ops.sum(), 0);
    const std::string p = "node" + std::to_string(n) + ".";
    EXPECT_EQ(RegistryCounterSum(obs, p + "local_key_reads"), local);
    EXPECT_EQ(RegistryCounterSum(obs, p + "remote_key_writes"),
              remote_writes);
    EXPECT_EQ(RegistryCounterSum(obs, p + "replica_key_reads"), replica);
  }
  EXPECT_EQ(system.TotalLocalReads(), kNodes * local);
  EXPECT_EQ(system.TotalLocalWrites(), kNodes * local);
  EXPECT_EQ(system.TotalRemoteReads(), kNodes * remote_reads);
  EXPECT_EQ(system.TotalRemoteWrites(), kNodes * remote_writes);
  EXPECT_EQ(system.TotalReplicaReads(), kNodes * replica);
  EXPECT_EQ(system.TotalReplicaWrites(), kNodes * replica);

  // Each worker wrote only its own block: the other worker's slot of the
  // node saw the same counts, not twice them.
  for (NodeId n = 0; n < kNodes; ++n) {
    ps::NodeContext& ctx = system.node_context(n);
    for (int t = 1; t <= kWorkersPerNode; ++t) {
      EXPECT_EQ(ctx.StatsFor(t).local_key_reads.sum(), kLocalOps * 2);
    }
  }

  // ResetStats zeroes every block of every node: the registry sums every
  // block into the node{n}.* and node{n}.shard{s}.* counters.
  system.ResetStats();
  for (const auto& c : obs->registry().Snapshot().counters) {
    EXPECT_EQ(c.count, 0) << c.name;
    EXPECT_EQ(c.sum, 0) << c.name;
  }
  for (NodeId n = 0; n < kNodes; ++n) {
    for (const ps::StatsBlock& b : system.node_context(n).thread_stats) {
      EXPECT_EQ(b.stats.local_key_reads.count(), 0);
      EXPECT_EQ(b.stats.replica_key_writes.sum(), 0);
    }
  }
  EXPECT_EQ(system.TotalLocalReads(), 0);
  std::remove(metrics_path.c_str());
}

TEST(StatsBlockTest, BlocksAreCacheLineAligned) {
  ps::PsSystem system(CounterConfig());
  for (NodeId n = 0; n < kNodes; ++n) {
    ps::NodeContext& ctx = system.node_context(n);
    // Slots 0..W+1: server (unused), workers, placement manager.
    ASSERT_EQ(ctx.thread_stats.size(),
              static_cast<size_t>(kWorkersPerNode + 2));
    for (const ps::StatsBlock& b : ctx.thread_stats) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(&b) % 64, 0u);
    }
    for (const ps::StatsBlock& b : ctx.shard_stats) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(&b) % 64, 0u);
    }
  }
  static_assert(sizeof(ps::StatsBlock) % 64 == 0,
                "blocks must not share a cache line");
}

}  // namespace
}  // namespace lapse
