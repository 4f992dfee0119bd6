#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "ps/replica_manager.h"
#include "ps/system.h"
#include "util/timer.h"

// Replica-serving reads for contended read-mostly keys: ReplicaManager
// semantics (pin/read/install/accumulate/invalidate), the end-to-end
// replica path through Worker/Server (pull-through refresh, write-through
// pushes, invalidation on ownership moves), and a churn stress test that
// interleaves replicated pulls, pushes, relocation, and eviction.

namespace lapse {
namespace {

// ------------------------------------------------- ReplicaManager unit --

ps::KeyLayout TestLayout() {
  return ps::KeyLayout(/*num_keys=*/16, /*uniform_length=*/4,
                       /*num_nodes=*/2);
}

TEST(ReplicaManagerTest, PinInstallReadInvalidateCycle) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm(&layout, /*staleness_micros=*/100'000);
  const Key k = 3;
  std::vector<Val> buf(4, -1.0f);

  // Unpinned: never served.
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_FALSE(rm.IsPinned(k));

  // Pinned but absent: a miss (counted), so the caller pulls through.
  rm.Pin(k);
  EXPECT_TRUE(rm.IsPinned(k));
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_EQ(rm.stats().stale_misses, 1);
  EXPECT_EQ(rm.stats().pinned, 1);

  // Installed: served from local memory.
  const std::vector<Val> v = {1.0f, 2.0f, 3.0f, 4.0f};
  rm.Install(k, v.data());
  ASSERT_TRUE(rm.TryRead(k, buf.data()));
  EXPECT_EQ(buf, v);

  // Invalidated (ownership moved): the copy is gone, the pin stays.
  rm.Invalidate(k);
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_TRUE(rm.IsPinned(k));
  EXPECT_EQ(rm.stats().invalidations, 1);

  // A fresh install revives it.
  rm.Install(k, v.data());
  EXPECT_TRUE(rm.TryRead(k, buf.data()));

  // Unpin drops pin and copy; installs for unpinned keys are ignored.
  rm.Unpin(k);
  EXPECT_FALSE(rm.IsPinned(k));
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  rm.Install(k, v.data());
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_EQ(rm.stats().pinned, 0);
}

TEST(ReplicaManagerTest, CopyOlderThanStalenessBoundIsNotServed) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm(&layout, /*staleness_micros=*/1);
  const Key k = 5;
  rm.Pin(k);
  const std::vector<Val> v(4, 7.0f);
  rm.Install(k, v.data());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::vector<Val> buf(4);
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  EXPECT_GT(rm.stats().stale_misses, 0);
}

TEST(ReplicaManagerTest, AccumulateFoldsIntoPresentCopyOnly) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm(&layout, /*staleness_micros=*/100'000);
  const Key k = 2;
  const std::vector<Val> upd(4, 0.5f);
  rm.Pin(k);
  // No copy yet: accumulate folds nothing (the update reaches the owner
  // via write-through; the next install brings it back) but still opens a
  // write epoch, so refreshes that predate the push cannot install.
  rm.Accumulate(k, upd.data());
  std::vector<Val> buf(4);
  EXPECT_FALSE(rm.TryRead(k, buf.data()));
  rm.NoteWriteAcked(k);  // the owner applied the push

  const std::vector<Val> v = {1.0f, 1.0f, 1.0f, 1.0f};
  rm.Install(k, v.data(), /*issue_ns=*/NowNanos());
  rm.Accumulate(k, upd.data());
  ASSERT_TRUE(rm.TryRead(k, buf.data()));
  for (const Val x : buf) EXPECT_FLOAT_EQ(x, 1.5f);
}

// The write-through read-your-writes guarantee of the class doc: a
// snapshot requested before this node's latest write settled never
// overwrites the locally folded value.
TEST(ReplicaManagerTest, WriteThroughReadYourWritesDropsStaleInstalls) {
  const ps::KeyLayout layout = TestLayout();
  ps::ReplicaManager rm(&layout, /*staleness_micros=*/100'000);
  const Key k = 3;
  const std::vector<Val> pre(4, 1.0f), upd(4, 0.5f);
  std::vector<Val> buf(4);
  rm.Pin(k);

  // Write in flight (unacked): any snapshot install is refused, whatever
  // its issue time -- it cannot be proven to include the write.
  rm.Accumulate(k, upd.data());
  rm.Install(k, pre.data(), /*issue_ns=*/NowNanos());
  EXPECT_FALSE(rm.TryRead(k, buf.data()));

  // Acked: snapshots issued before the settle point are still dropped...
  rm.NoteWriteAcked(k);
  rm.Install(k, pre.data(), /*issue_ns=*/0);
  EXPECT_FALSE(rm.TryRead(k, buf.data()));

  // ...but one issued after the settle point installs cleanly.
  rm.Install(k, pre.data(), /*issue_ns=*/NowNanos());
  ASSERT_TRUE(rm.TryRead(k, buf.data()));
  EXPECT_FLOAT_EQ(buf[0], 1.0f);

  // A fresh copy + a settled write: later installs keep working (the
  // epoch does not wedge the key).
  rm.Accumulate(k, upd.data());
  rm.NoteWriteAcked(k);
  rm.Install(k, pre.data(), /*issue_ns=*/NowNanos());
  ASSERT_TRUE(rm.TryRead(k, buf.data()));
  EXPECT_FLOAT_EQ(buf[0], 1.0f);
}

// --------------------------------------------------- end-to-end path ----

ps::Config ReplicationConfig2Nodes() {
  ps::Config cfg;
  cfg.num_nodes = 2;
  cfg.workers_per_node = 1;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 4;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;  // few-core friendliness
  cfg.replication = true;
  // These tests exercise the serving path, not staleness expiry (the
  // ReplicaManager unit test covers that): a bound no scheduler stall on
  // a loaded tsan CI box can cross keeps the zero-fall-through asserts
  // below deterministic.
  cfg.replica_staleness_micros = 60'000'000;
  return cfg;
}

TEST(ReplicaPathTest, ReplicatedRemoteKeyIsServedLocallyAfterPullThrough) {
  ps::Config cfg = ReplicationConfig2Nodes();
  ps::PsSystem system(cfg);
  const Key k = 40;  // homed (and owned) at node 1
  const std::vector<Val> init = {1.0f, 2.0f, 3.0f, 4.0f};
  system.SetValue(k, init.data());

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    EXPECT_EQ(w.Replicate({k, k}), 1u);  // duplicates are skipped
    EXPECT_EQ(w.Replicate({k}), 0u);     // already pinned
    std::vector<Val> buf(4, 0.0f);
    // First pull: replica absent -> message path -> installs the copy.
    w.Pull({k}, buf.data());
    EXPECT_EQ(buf, init);
    // Subsequent pulls hit the fresh copy: no new remote reads.
    const int64_t remote_before = system.TotalRemoteReads();
    for (int i = 0; i < 100; ++i) {
      std::fill(buf.begin(), buf.end(), 0.0f);
      w.Pull({k}, buf.data());
      EXPECT_EQ(buf, init);
    }
    EXPECT_EQ(system.TotalRemoteReads(), remote_before);
  });

  EXPECT_GT(system.TotalReplicaReads(), 0);
  EXPECT_EQ(system.OwnerOf(k), 1);  // replication never moved the key
}

TEST(ReplicaPathTest, WriteThroughKeepsOwnWritesVisibleAndReachesOwner) {
  ps::Config cfg = ReplicationConfig2Nodes();
  ps::PsSystem system(cfg);
  const Key k = 40;

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    w.Replicate({k});
    std::vector<Val> buf(4);
    w.Pull({k}, buf.data());  // install the copy
    const std::vector<Val> upd = {1.0f, 1.0f, 1.0f, 1.0f};
    w.Push({k}, upd.data());
    // Read-your-writes through the replica: the local fold is visible
    // immediately, even though the copy is still within the staleness
    // bound and no refresh happened.
    w.Pull({k}, buf.data());
    EXPECT_FLOAT_EQ(buf[0], 1.0f);
  });

  // Write-through delivered the authoritative update to the owner.
  std::vector<Val> final(4);
  system.GetValue(k, final.data());
  EXPECT_FLOAT_EQ(final[0], 1.0f);
  EXPECT_FLOAT_EQ(final[3], 1.0f);
}

// Regression for the read-your-writes hole in write-through mode
// (aggregation off): a pull-through refresh in flight while a push goes
// out must not install its pre-push snapshot over the write. Before the
// per-key write epoch, the refresh response (requested before the push
// settled) would install and later replica reads served the key WITHOUT
// this node's own write.
TEST(ReplicaPathTest, WriteThroughReadYourWritesSurvivesInFlightRefresh) {
  ps::Config cfg = ReplicationConfig2Nodes();
  cfg.replica_write_aggregation = false;  // plain write-through
  // A real wire delay makes the interleaving deterministic: the pull's
  // response cannot arrive back before the worker issues the racing push
  // a few instructions later.
  cfg.latency.remote_base_ns = 2'000'000;
  ps::PsSystem system(cfg);
  const Key k = 40;  // homed (and owned) at node 1

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    w.Replicate({k});
    std::vector<Val> buf(4, -1.0f);
    // Refresh in flight (the copy is absent, so this pull goes remote)...
    const uint64_t pull_op = w.PullAsync({k}, buf.data());
    // ...and a write-through push races it. The pull's snapshot predates
    // the push; the push ack trails the pull response on the same
    // owner-to-replica connection.
    const std::vector<Val> upd(4, 1.0f);
    const uint64_t push_op = w.PushAsync({k}, upd.data());
    w.Wait(pull_op);
    w.Wait(push_op);
    // Every read after the push completes must observe the write, whether
    // it is served by the replica or goes remote again.
    std::vector<Val> after(4, -1.0f);
    w.Pull({k}, after.data());
    EXPECT_FLOAT_EQ(after[0], 1.0f);
    EXPECT_FLOAT_EQ(after[3], 1.0f);
  });

  std::vector<Val> final(4);
  system.GetValue(k, final.data());
  EXPECT_FLOAT_EQ(final[0], 1.0f);
}

TEST(ReplicaPathTest, OwnershipMoveInvalidatesTheReplica) {
  ps::Config cfg = ReplicationConfig2Nodes();
  ps::PsSystem system(cfg);
  const Key k = 40;  // homed at node 1

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(4);
    w.Replicate({k});
    w.Pull({k}, buf.data());  // pull-through installs the copy
    ASSERT_TRUE(system.replica_manager(0)->TryRead(k, buf.data()));
    // Take the key: the home flips its owner view and fires invalidations
    // at every registered holder before it sends the transfer, and both
    // ride the same FIFO connection -- by the time Localize() returns,
    // this node's copy is gone.
    w.Localize({k});
    EXPECT_FALSE(system.replica_manager(0)->TryRead(k, buf.data()));
    EXPECT_EQ(system.replica_manager(0)->stats().invalidations, 1);
  });

  EXPECT_EQ(system.OwnerOf(k), 0);
  // The pin survives the move, so a later read (after this node loses the
  // key again) would fault a fresh copy back in.
  EXPECT_TRUE(system.replica_manager(0)->IsPinned(k));
}

TEST(ReplicaPathTest, PullIfLocalCountsFreshReplicaAsLocal) {
  ps::Config cfg = ReplicationConfig2Nodes();
  ps::PsSystem system(cfg);
  const Key replicated = 40, plain_remote = 50;
  const std::vector<Val> init = {5.0f, 6.0f, 7.0f, 8.0f};
  system.SetValue(replicated, init.data());

  system.Run([&](ps::Worker& w) {
    if (w.node() != 0) return;
    std::vector<Val> buf(4, 0.0f);
    w.Replicate({replicated});
    // Absent copy: PullIfLocal must stay non-blocking and miss.
    EXPECT_FALSE(w.PullIfLocal(replicated, buf.data()));
    w.Pull({replicated}, buf.data());  // fault the copy in
    std::fill(buf.begin(), buf.end(), 0.0f);
    EXPECT_TRUE(w.PullIfLocal(replicated, buf.data()));
    EXPECT_EQ(buf, init);
    // Un-replicated remote keys still miss.
    EXPECT_FALSE(w.PullIfLocal(plain_remote, buf.data()));
    // Owned keys still hit.
    EXPECT_TRUE(w.PullIfLocal(Key{3}, buf.data()));
  });

  EXPECT_GT(system.TotalReplicaReads(), 0);
}

// -------------------------------------------------- churn stress (tsan) --

// Interleaves replica-served pulls, write-through pushes, relocation of
// the replicated key, and eviction, asserting the staleness contract the
// whole time: a replica-served read returns a value the then-current
// owner held at most staleness + one fetch round-trip ago. Ownership
// moves must invalidate replicas (a copy that kept serving the old
// owner's value stream past the bound fails the assertion), and no push
// may be lost across any interleaving.
TEST(ReplicaChurnStressTest, StalenessHoldsAcrossRelocationAndEviction) {
  ps::Config cfg;
  cfg.num_nodes = 3;
  cfg.workers_per_node = 1;
  cfg.num_keys = 64;
  cfg.uniform_value_length = 4;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = net::LatencyConfig::Zero();
  cfg.latency.idle_spin_ns = 0;
  cfg.replication = true;
  cfg.replica_staleness_micros = 5'000;
  ps::PsSystem system(cfg);
  const Key k = 30;  // homed at node 1
  ASSERT_EQ(system.layout().Home(k), 1);

  const int64_t staleness_ns = cfg.replica_staleness_micros * 1000;
  // Covers the fetch round-trip plus scheduling noise on loaded/tsan CI.
  const int64_t slack_ns = 1'000'000'000;
  constexpr double kRunSeconds = 3.0;

  // The writer appends (ack time, cumulative count) after every
  // synchronous push; timestamps are monotone, so readers lower-bound the
  // owner state at any past instant by binary search.
  std::mutex history_mu;
  std::vector<std::pair<int64_t, int64_t>> history;
  std::atomic<int64_t> total_pushes{0};
  std::atomic<bool> stop{false};

  auto owner_count_before = [&](int64_t ns) {
    std::lock_guard<std::mutex> lock(history_mu);
    auto it = std::upper_bound(
        history.begin(), history.end(), std::make_pair(ns, INT64_MAX));
    return it == history.begin() ? int64_t{0} : std::prev(it)->second;
  };

  system.Run([&](ps::Worker& w) {
    std::vector<Val> buf(4, 0.0f);
    const std::vector<Val> one = {1.0f, 0.0f, 0.0f, 0.0f};
    const std::vector<Val> zero(4, 0.0f);
    Timer t;
    if (w.node() == 0) {
      // Reader: replica-served pulls + occasional write-through pushes
      // of zero (exercises Accumulate without perturbing the counter).
      w.Replicate({k});
      int64_t reads = 0;
      // Extend past the nominal run until at least one replica-served
      // read happened: on an overloaded machine every copy can go stale
      // (scheduling gaps exceed the staleness bound) for seconds at a
      // time, and the test asserts the replica path was exercised.
      while (t.ElapsedSeconds() < kRunSeconds ||
             (system.TotalReplicaReads() == 0 &&
              t.ElapsedSeconds() < kRunSeconds + 15.0)) {
        w.Pull({k}, buf.data());
        const int64_t now = NowNanos();
        const int64_t floor =
            owner_count_before(now - staleness_ns - slack_ns);
        ASSERT_GE(static_cast<int64_t>(buf[0]), floor)
            << "replica-served read violated the staleness bound";
        if (++reads % 64 == 0) w.Push({k}, zero.data());
      }
      stop.store(true);
    } else if (w.node() == 1) {
      // Writer (at the key's home): synchronous +1 pushes; each ack means
      // the owner applied the update before now.
      while (!stop.load() && t.ElapsedSeconds() < kRunSeconds + 20.0) {
        w.Push({k}, one.data());
        const int64_t n = total_pushes.fetch_add(1) + 1;
        std::lock_guard<std::mutex> lock(history_mu);
        history.emplace_back(NowNanos(), n);
      }
    } else {
      // Churn driver: bounce ownership with localize/evict so the home
      // keeps firing invalidations at the reader's replica.
      while (!stop.load() && t.ElapsedSeconds() < kRunSeconds + 20.0) {
        w.Localize({k});
        w.Pull({k}, buf.data());
        w.Evict({k});
      }
    }
  });

  // No push was lost across any relocation/eviction/replication
  // interleaving, and the final value lives at the current owner.
  std::vector<Val> final(4);
  system.GetValue(k, final.data());
  EXPECT_EQ(static_cast<int64_t>(final[0]), total_pushes.load());

  // The replica path and the invalidation path were both actually
  // exercised.
  EXPECT_GT(system.TotalReplicaReads(), 0);
  EXPECT_GT(system.replica_manager(0)->stats().installs, 0);
  EXPECT_GT(system.replica_manager(0)->stats().invalidations, 0);

  // No stale replica survives an ownership move: after the system
  // settled, the reader's copy either vanished with the last invalidation
  // or reflects a value the final owner served -- re-reading through the
  // replica manager can only return the settled counter value.
  std::vector<Val> replica_val(4, -1.0f);
  if (system.replica_manager(0)->TryRead(k, replica_val.data())) {
    EXPECT_LE(static_cast<int64_t>(replica_val[0]), total_pushes.load());
  }
}

}  // namespace
}  // namespace lapse
