#ifndef LAPSE_PS_SERVER_H_
#define LAPSE_PS_SERVER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "obs/timeline.h"
#include "ps/dest_groups.h"
#include "ps/node_context.h"

namespace lapse {
namespace ps {

// Server thread logic of one node: processes pulls/pushes for keys it owns,
// routes operations for keys it does not (forward strategy, Figure 5),
// executes the three-message relocation protocol (Figure 4), and completes
// the node's workers' pending operations when responses arrive.
//
// With Config::server_threads > 1 a node runs one Server instance per key-
// range shard (KeyLayout::Shard). Each instance drains only its own
// (node, shard) inbox, and because a key's shard is the same at every node,
// every message about a key -- ops, relocation traffic, invalidations, fold
// drains -- lands on the owning shard's thread. The per-key ordering
// guarantees (invalidate-before-transfer, folds-forwarded-before-invalidate)
// therefore hold per shard with no cross-shard locks; latches are per key,
// so no two shards share one.
class Server {
 public:
  Server(NodeContext* ctx, net::Network* network, int shard = 0);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Event loop; returns when the network shuts down.
  void Run();

 private:
  // Handles one message. The message's payload buffers may be stolen for
  // replies; whatever remains is recycled by the caller.
  void Handle(net::Message& msg);

  // kBatchOp, the one keyed-op wire format (ps::Coalescer layout): each
  // entry is served if its key is owned here, queued while the key is
  // arriving, and otherwise forwarded inside one sub-envelope per
  // destination. Served entries are answered by one kBatchResp.
  void HandleBatchOp(net::Message& msg);
  // kBatchResp at the origin node: scatter served pull values into each
  // referencing sub-op's buffer (same-key pulls fan out from one entry),
  // refresh replicas/caches, and complete each sub-op in the tracker.
  void HandleBatchResp(const net::Message& msg);

  // Checks an envelope's layout, records its hop for every traced sub-op,
  // and returns its number of sub-ops.
  size_t OpenEnvelope(const net::Message& msg);
  // Serves, defers or forwards one entry of envelope `msg` (caller holds
  // k's latch): served entries accumulate in reply_*_, forwards in groups_
  // (begun by the caller), and a deferral queues a one-entry envelope on
  // k's arrival queue.
  void RouteEntry(const net::Message& msg, size_t n_ops, Key k,
                  int64_t word, const Val* push_vals);
  // Sends the reply for the entries RouteEntry served and one
  // sub-envelope per forward destination.
  void FinishEnvelope(const net::Message& msg, size_t n_ops);

  // Home-node side of localize (message 1 -> message 2). Under the
  // broadcast-relocations strategy this arrives directly at the believed
  // owner instead.
  void HandleLocalize(net::Message& msg);

  // Old-owner side: hand keys over to the requester (message 2 -> 3).
  void HandleInstruct(net::Message& msg);

  // Requester side: install arrived keys, complete the localize op, drain
  // queued operations in order.
  void HandleTransfer(net::Message& msg);

  // Completes a localize op whose keys the requester already owned.
  void HandleLocalizeNoop(const net::Message& msg);
  void HandleLocationUpdate(const net::Message& msg);

  // Replication directory (home side): records which nodes pinned a key
  // (kReplicaRegister), so ownership moves can invalidate their copies.
  void HandleReplicaRegister(const net::Message& msg);
  // Home side: an ex-holder unpinned these keys; drop it from the
  // directory so ownership moves stop invalidating it.
  void HandleReplicaUnregister(const net::Message& msg);
  // Replica-holder side: ownership of the keys moved; drain each key's
  // pending write folds toward the owner, then drop the copies.
  void HandleReplicaInvalidate(const net::Message& msg);
  // Sends kReplicaInvalidate to every registered holder of key k (called
  // by HandleLocalize right after the home's owner view changes).
  void InvalidateReplicaHolders(Key k);
  // Drains key k's pending write folds (if any) from the node's replica
  // store and forwards them toward the key's current owner as a
  // fire-and-forget push. Called before an invalidation is honored, so
  // the invalidate/flush race can never lose aggregated updates.
  void ForwardReplicaFolds(Key k);

  // Removes `k` (caller holds the latch; state must be kOwned) and appends
  // its value to a transfer payload.
  void ExtractKey(Key k, std::vector<Key>* keys, std::vector<Val>* vals);

  // Where this server forwards an operation on a non-owned key.
  NodeId RouteDst(Key k) const;

  // Drains the deferred queue of a freshly-arrived key. Caller holds the
  // latch of `k`. May transfer the key away again (chained instruct).
  void DrainArrived(Key k);

  // Re-sends a deferred item over the network after the key moved away.
  void ForwardDeferred(Key k, Deferred item);

  // Records the queue-wait and wire-time phase events of one hop of
  // message `msg` for traced op `uid` (out of line; traced messages are
  // rare by sampling).
  void RecordHop(uint64_t uid, const net::Message& msg);

  NodeContext* ctx_;
  net::Network* network_;
  // This instance's key-range shard; it drains inbox (node, shard_) only.
  int shard_;
  // Counters owned by this shard's drain thread: ctx_->shard_stats[shard_].
  // Never written by any other thread.
  ServerStats* stats_;
  std::unique_ptr<net::Endpoint> endpoint_;

  // Reusable per-message scratch (the server is single-threaded): flat
  // destination-indexed grouping replacing std::map (forwarded envelope
  // entries, localize instructs), and the batch buffer for
  // Inbox::TakeBatch.
  DestGroups groups_;
  std::vector<net::Message> batch_;
  // Scratch for draining one key's replica write accumulator. Not
  // groups_: ForwardReplicaFolds runs inside handlers that are mid-use of
  // the grouping scratch (HandleLocalize).
  std::vector<Val> fold_buf_;
  // The entries RouteEntry served for the envelope being handled (keys,
  // pulled values, entry words), and HandleBatchResp's per-sub-op
  // completion counts. Emptied per envelope.
  std::vector<Key> reply_keys_;
  std::vector<Val> reply_vals_;
  std::vector<int64_t> reply_words_;
  std::vector<size_t> batch_counts_;

  // Which nodes hold a replica of each key homed here. Server-thread-only
  // (registrations and ownership moves both arrive on this thread), so no
  // lock. Only keys that were ever flagged for replication have entries.
  std::unordered_map<Key, std::vector<NodeId>> replica_holders_;

  // This server thread's trace-event ring (slot 0 of the node's NodeObs);
  // null unless per-op tracing is enabled. Untraced messages pay one null
  // check + one flag test in Handle().
  obs::EventRing* trace_ring_ = nullptr;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_SERVER_H_
