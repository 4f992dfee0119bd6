#ifndef LAPSE_PS_NODE_CONTEXT_H_
#define LAPSE_PS_NODE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "adapt/access_stats.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/histogram.h"
#include "obs/timeline.h"
#include "ps/config.h"
#include "ps/key_layout.h"
#include "ps/latch_table.h"
#include "ps/location.h"
#include "ps/op_tracker.h"
#include "ps/replica_manager.h"
#include "ps/storage.h"
#include "util/stats.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace ps {

// Ownership state of a key at one node. Guarded by the key's latch for
// transitions; stored as an atomic so lock-free fast-path pre-checks are
// well-defined.
enum class KeyState : uint8_t {
  kNotOwned = 0,
  kOwned = 1,
  // A relocation to this node is in flight; operations are queued
  // (Section 3.2) until the transfer arrives.
  kArriving = 2,
};

// A local worker operation deferred because its key is currently arriving.
struct DeferredLocalOp {
  bool is_push = false;
  Key key;
  Val* pull_dst = nullptr;        // for pulls
  std::vector<Val> push_update;   // for pushes (copied)
  int32_t worker_thread = -1;     // issuing worker slot
  uint64_t op_id = 0;
  // Observability: the op is traced; queued_ns (set only then) is when the
  // item entered the arrival queue, so the drain can attribute the
  // relocation stall.
  bool traced = false;
  int64_t queued_ns = 0;
};

// Items queued for an arriving key, in arrival order: local ops, remote
// envelope entries (kept as one-entry kBatchOp envelopes), and relocation
// instructions (a chained localize that must transfer the key away once it
// lands).
using Deferred = std::variant<DeferredLocalOp, net::Message>;

struct ArrivingKey {
  std::vector<Deferred> queue;
  // Localize ops of this node's own workers issued while the key was
  // already in flight; coalesced onto the pending relocation instead of
  // re-sending. Completed when the transfer arrives.
  struct LocalizeWaiter {
    int32_t thread = -1;
    uint64_t op_id = 0;
    bool traced = false;      // observability: record stall + completion
    int64_t queued_ns = 0;    // set only when traced
  };
  std::vector<LocalizeWaiter> localize_waiters;
};

// Per-node performance counters (Table 5, Section 4.6).
//
// RULES for counters here -- or any counter touched on the hot paths:
//  * No two threads write one cache line. Every ServerStats instance is
//    written by exactly one thread: each worker slot (and the placement
//    manager's protocol worker) owns a cache-line-aligned StatsBlock in
//    NodeContext::thread_stats, and each server shard owns its entry of
//    NodeContext::shard_stats. Writers therefore use
//    Counter::AddSingleWriter (a relaxed load + store) on the worker
//    paths; readers sum the blocks (PsSystem::node_stats, the Total* and
//    Node* helpers, the node{n}.* registry entries).
//  * Field order does not affect performance (each block is private to its
//    writer). Still append new counters at the end, since
//    tools/lint/check_stats_layout.py enforces an append-only layout, and
//    extend Merge (the static_assert below catches a miss).
// The same discipline applies to observability hooks: one predictable
// branch (null/zero check) per operation is the budget, everything else
// runs only for sampled ops or off the hot path entirely.
struct ServerStats {
  Counter local_key_reads;    // keys served via shared-memory fast path
  Counter remote_key_reads;   // keys this node's workers read via messages
  Counter local_key_writes;
  Counter remote_key_writes;
  Counter queued_local_ops;   // local ops that had to wait for a relocation
  // count = relocated keys (as requester); sum = total relocation time (ns),
  // measured from localize issue to transfer arrival.
  Counter relocations;
  // count = relocated keys; sum = total blocking time (ns), measured from
  // the moment the first operation was queued (or the transfer arrival if
  // nothing queued) -- approximates the paper's blocking-time notion.
  Counter localization_conflicts;  // transfers of keys some other node took
  // Keys that returned to this node (their home) via an eviction issued by
  // some node's placement manager or Worker::Evict.
  Counter evictions_received;
  // Per-message-type lag between simulated delivery time and actual
  // processing start at the server (diagnoses server backlog).
  Counter backlog_ns[static_cast<size_t>(net::MsgType::kNumTypes)];
  // Keys served from the node's replica store (bounded-staleness local
  // reads of contended keys; neither local_key_reads nor remote). Kept
  // last so the hot counters above stay on their established cache lines.
  Counter replica_key_reads;
  // Pushes folded into the node's replica write accumulators (no owner
  // message paid), and holders dropped from this home's replica directory
  // by kReplicaUnregister. Appended after replica_key_reads for the same
  // cache-line reason.
  Counter replica_key_writes;
  Counter replica_unregisters;
  // Request coalescing (ps::Coalescer), appended at the end per the rules
  // above. coalesced_ops counts worker ops that queued at least one key in
  // the coalescer; coalesce_batches records one Add(n_sub_ops) per batched
  // wire message, so count = batches and sum = sub-ops (sum/count = mean
  // batch size); coalesce_forced_drains counts Wait/WaitAll/teardown
  // drains that actually released a held batch.
  Counter coalesced_ops;
  Counter coalesce_batches;
  Counter coalesce_forced_drains;
  // Zeroes every counter. Not atomic against a concurrent writer: call it
  // while the writing thread is idle.
  void Reset() { *this = ServerStats(); }

  // Adds another block's counters into this one (a value nobody else
  // writes, e.g. the sum PsSystem::node_stats returns).
  void Merge(const ServerStats& o) {
    local_key_reads.Merge(o.local_key_reads);
    remote_key_reads.Merge(o.remote_key_reads);
    local_key_writes.Merge(o.local_key_writes);
    remote_key_writes.Merge(o.remote_key_writes);
    queued_local_ops.Merge(o.queued_local_ops);
    relocations.Merge(o.relocations);
    localization_conflicts.Merge(o.localization_conflicts);
    evictions_received.Merge(o.evictions_received);
    for (size_t t = 0; t < std::size(backlog_ns); ++t) {
      backlog_ns[t].Merge(o.backlog_ns[t]);
    }
    replica_key_reads.Merge(o.replica_key_reads);
    replica_key_writes.Merge(o.replica_key_writes);
    replica_unregisters.Merge(o.replica_unregisters);
    coalesced_ops.Merge(o.coalesced_ops);
    coalesce_batches.Merge(o.coalesce_batches);
    coalesce_forced_drains.Merge(o.coalesce_forced_drains);
  }
};

// Merge names every field: a counter added without extending it fails here.
static_assert(sizeof(ServerStats) ==
                  sizeof(Counter) *
                      (14 + static_cast<size_t>(net::MsgType::kNumTypes)),
              "ServerStats gained a field: extend ServerStats::Merge");

// One thread's ServerStats on cache lines of its own, so the writer never
// shares a line with another thread's counters.
struct alignas(64) StatsBlock {
  ServerStats stats;
};

// Everything one logical node's server thread and worker threads share.
struct NodeContext {
  NodeId node = -1;
  const Config* config = nullptr;
  const KeyLayout* layout = nullptr;

  std::unique_ptr<Storage> store;
  std::unique_ptr<LatchTable> latches;
  std::vector<std::atomic<uint8_t>> key_state;  // KeyState per key
  std::unique_ptr<LocationTable> owners;
  std::unique_ptr<LocationCache> cache;  // null unless enabled
  // Sample rings of the adaptive placement engine, one per thread slot
  // (null unless config.adaptive.enabled).
  std::unique_ptr<adapt::AccessStats> access_stats;
  // Replica store for contended read-mostly keys (null unless
  // config.replication).
  std::unique_ptr<ReplicaManager> replicas;
  // Trace-event rings of the observability layer, one per thread slot
  // (owned by the PsSystem's obs::Observability; null unless
  // config.obs.enabled with sample_every > 0).
  obs::NodeObs* obs = nullptr;
  // Coalescing histograms (owned by the PsSystem's obs::Observability;
  // null unless obs is enabled). Histogram::Add is lock-free and
  // multi-producer safe, so every worker's coalescer feeds them directly.
  obs::Histogram* coalesce_batch_size_hist = nullptr;
  obs::Histogram* coalesce_wait_ns_hist = nullptr;

  // Sharded by key to keep worker queueing and server draining off one
  // mutex.
  static constexpr size_t kArrivingShards = 16;
  struct ArrivingShard {
    Mutex mu;
    std::unordered_map<Key, ArrivingKey> map LAPSE_GUARDED_BY(mu);
  };
  ArrivingShard arriving_shards[kArrivingShards];
  ArrivingShard& ArrivingShardFor(Key k) {
    return arriving_shards[k % kArrivingShards];
  }

  // One tracker per worker slot (index 0 unused; workers use slots >= 1).
  std::vector<std::unique_ptr<OpTracker>> trackers;

  // Messages this node's server has finished handling (incremented after
  // the handler's own sends). Paired with Inbox::PutCount for quiescing.
  std::atomic<int64_t> processed_msgs{0};

  // Counters written by worker-side code (local/remote/replica reads and
  // writes, queued ops, coalescer counters), one block per thread slot:
  // 1..W = workers, W+1 = the placement manager's protocol worker (slot 0,
  // the server, writes none and stays zero). Each block has exactly one
  // writer; readers sum over the node's blocks. Sized at system
  // construction and never resized afterwards.
  std::vector<StatsBlock> thread_stats;

  // One ServerStats per server shard, written only by the owning drain
  // thread (relocations, localization_conflicts, evictions_received,
  // backlog_ns[], replica_unregisters). Sized config->server_threads at
  // system construction and never resized afterwards; metric consumers
  // sum across shards.
  std::vector<StatsBlock> shard_stats;

  KeyState StateOf(Key k) const {
    return static_cast<KeyState>(
        key_state[k].load(std::memory_order_acquire));
  }
  void SetState(Key k, KeyState s) {
    key_state[k].store(static_cast<uint8_t>(s), std::memory_order_release);
  }

  OpTracker& TrackerFor(int32_t thread) { return *trackers[thread]; }
  ServerStats& StatsFor(int32_t thread) { return thread_stats[thread].stats; }

  // Appends a deferred item to key k's arrival queue. Caller must hold the
  // key's latch (which is what keeps the kArriving state stable).
  void QueueDeferred(Key k, Deferred item) {
    ArrivingShard& shard = ArrivingShardFor(k);
    MutexLock lock(shard.mu);
    shard.map[k].queue.push_back(std::move(item));
  }
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_NODE_CONTEXT_H_
