#include "ps/server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "ps/coalescer.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/vec_ops.h"

namespace lapse {
namespace ps {

using net::BufferPool;
using net::Message;
using net::MsgType;

namespace {

// Copy of a relocation request (localize or instruct) narrowed to key k,
// for deferral on k's arrival queue or a chase toward its owner.
Message SingleKeyCopy(const Message& msg, Key k) {
  Message d;
  d.type = msg.type;
  d.orig_node = msg.orig_node;
  d.orig_thread = msg.orig_thread;
  d.op_id = msg.op_id;
  d.requester_node = msg.requester_node;
  d.hops = msg.hops;
  d.traced = msg.traced;
  d.deliver_ns = msg.deliver_ns;  // deferral start for the stall phase
  d.keys.push_back(k);
  return d;
}

// An envelope of one sub-op, `op`, with one entry for key k: a push of
// `push_vals` if `is_push`, else a pull.
Message OneOpEnvelope(NodeId orig_node, int32_t orig_thread, uint64_t op,
                      bool traced, Key k, bool is_push,
                      std::vector<Val> push_vals) {
  Message m;
  m.type = MsgType::kBatchOp;
  m.orig_node = orig_node;
  m.orig_thread = orig_thread;
  m.op_id = OpTracker::kImmediate;
  m.traced = traced;
  m.keys.push_back(k);
  m.vals = std::move(push_vals);
  const int64_t op_word = Coalescer::OpWord(op, traced);
  const int64_t word = Coalescer::EntryWord(1, is_push);
  Coalescer::WriteAux(&op_word, 1, &word, 1, &m.aux);
  return m;
}

}  // namespace

Server::Server(NodeContext* ctx, net::Network* network, int shard)
    : ctx_(ctx),
      network_(network),
      shard_(shard),
      stats_(&ctx->shard_stats[shard].stats),
      // Thread-slot convention: 0 = shard-0 server, 1..W = workers, W+1 =
      // placement manager, W+2.. = the extra server shards, in order.
      endpoint_(network->CreateEndpoint(
          ctx->node,
          shard == 0 ? 0 : ctx->config->workers_per_node + 1 + shard)) {
  groups_.Resize(static_cast<size_t>(network->num_nodes()));
  if (ctx_->obs != nullptr) {
    trace_ring_ = ctx_->obs->Ring(
        shard == 0 ? 0 : ctx->config->workers_per_node + 1 + shard);
  }
}

void Server::Run() {
  // Drain this shard's inbox in batches: one lock acquisition (and at most
  // one condvar wakeup) per burst of deliverable messages instead of per
  // message.
  while (network_->RecvBatch(ctx_->node, shard_, &batch_)) {
    for (Message& msg : batch_) {
      if (msg.type == MsgType::kShutdown) return;
      Handle(msg);
      ctx_->processed_msgs.fetch_add(1, std::memory_order_release);
      // Return whatever payload buffers the handler did not steal; replies
      // built on this thread reuse the capacity.
      msg.Recycle();
    }
    batch_.clear();
  }
}

void Server::RecordHop(uint64_t uid, const Message& msg) {
  trace_ring_->TryPush(obs::TraceEvent::Dur(
      uid, obs::Phase::kQueue, NowNanos() - msg.deliver_ns, ctx_->node));
  trace_ring_->TryPush(obs::TraceEvent::Dur(
      uid, obs::Phase::kNet, msg.deliver_ns - msg.send_ns, ctx_->node));
}

void Server::Handle(Message& msg) {
  stats_->backlog_ns[static_cast<size_t>(msg.type)].Add(
      NowNanos() - msg.deliver_ns);
  if (msg.traced && trace_ring_ != nullptr &&
      msg.op_id != OpTracker::kImmediate) {
    RecordHop(obs::PackUid(msg.orig_node, msg.orig_thread, msg.op_id), msg);
  }
  LAPSE_CHECK_LE(msg.hops, 4 * network_->num_nodes())
      << "routing loop: " << msg.DebugString();
  switch (msg.type) {
    case MsgType::kBatchOp:
      HandleBatchOp(msg);
      break;
    case MsgType::kBatchResp:
      HandleBatchResp(msg);
      break;
    case MsgType::kLocalize:
      HandleLocalize(msg);
      break;
    case MsgType::kRelocateInstruct:
      HandleInstruct(msg);
      break;
    case MsgType::kRelocateTransfer:
      HandleTransfer(msg);
      break;
    case MsgType::kLocalizeNoop:
      HandleLocalizeNoop(msg);
      break;
    case MsgType::kLocationUpdate:
      HandleLocationUpdate(msg);
      break;
    case MsgType::kReplicaRegister:
      HandleReplicaRegister(msg);
      break;
    case MsgType::kReplicaUnregister:
      HandleReplicaUnregister(msg);
      break;
    case MsgType::kReplicaInvalidate:
      HandleReplicaInvalidate(msg);
      break;
    default:
      LAPSE_LOG(Fatal) << "server received unexpected message: "
                       << msg.DebugString();
  }
}

NodeId Server::RouteDst(Key k) const {
  switch (ctx_->config->strategy) {
    case LocationStrategy::kHomeNode: {
      const NodeId home = ctx_->layout->Home(k);
      if (home == ctx_->node) return ctx_->owners->Owner(k);
      return home;
    }
    case LocationStrategy::kStaticPartition:
      return ctx_->layout->Home(k);
    case LocationStrategy::kBroadcastRelocations: {
      const NodeId o = ctx_->owners->Owner(k);
      // A stale self-view would loop; fall back to the home node, which is
      // the key's initial owner and a reasonable guess.
      if (o == ctx_->node) return ctx_->layout->Home(k);
      return o;
    }
    case LocationStrategy::kBroadcastOps:
      LAPSE_LOG(Fatal) << "broadcast-ops does not route point-to-point";
  }
  return 0;
}

size_t Server::OpenEnvelope(const Message& msg) {
  LAPSE_CHECK(!msg.aux.empty());
  const size_t n_ops = static_cast<size_t>(msg.aux[0]);
  LAPSE_CHECK_EQ(msg.aux.size(), 1 + n_ops + msg.keys.size());
  // The envelope's op_id is kImmediate, so Handle()'s generic hop recording
  // skipped it; the hop belongs to every traced sub-op instead.
  if (msg.traced && trace_ring_ != nullptr) {
    for (size_t s = 0; s < n_ops; ++s) {
      const int64_t word = msg.aux[1 + s];
      if (!Coalescer::IsTraced(word)) continue;
      RecordHop(obs::PackUid(msg.orig_node, msg.orig_thread,
                             Coalescer::OpOf(word)),
                msg);
    }
  }
  return n_ops;
}

void Server::HandleBatchOp(Message& msg) {
  const size_t n_ops = OpenEnvelope(msg);
  groups_.Begin();
  size_t val_off = 0;
  for (size_t i = 0; i < msg.keys.size(); ++i) {
    const Key k = msg.keys[i];
    const int64_t word = msg.aux[1 + n_ops + i];
    const Val* push_vals = nullptr;
    if ((word & 1) != 0) {
      push_vals = msg.vals.data() + val_off;
      val_off += ctx_->layout->Length(k);
    }
    LatchGuard latch(ctx_->latches->ForKey(k));
    RouteEntry(msg, n_ops, k, word, push_vals);
  }
  FinishEnvelope(msg, n_ops);
}

void Server::RouteEntry(const Message& msg, size_t n_ops, Key k,
                        int64_t word, const Val* push_vals) {
  const size_t len = ctx_->layout->Length(k);
  const KeyState state = ctx_->StateOf(k);
  if (state == KeyState::kOwned) {
    Val* slot = ctx_->store->GetOrCreate(k);
    if (push_vals != nullptr) {
      AddTo(slot, push_vals, len);
    } else {
      reply_vals_.insert(reply_vals_.end(), slot, slot + len);
    }
    reply_keys_.push_back(k);
    reply_words_.push_back(word);
    return;
  }
  if (state != KeyState::kArriving) {
    if (ctx_->config->strategy == LocationStrategy::kBroadcastOps) {
      return;  // some other node owns this key and will answer
    }
    const NodeId dst = RouteDst(k);
    if (dst != ctx_->node) {
      // Forwards grouped by destination (message grouping, Section 3.7).
      groups_.AddKey(dst, k);
      groups_.AddWord(dst, word);
      if (push_vals != nullptr) groups_.AddVals(dst, push_vals, len);
      return;
    }
    // Mid-relocation race: our owner view already points at this node but
    // the transfer has not landed (state is not yet kArriving when the
    // localize came from one of our own workers whose marking raced us, or
    // the owner view was updated by HandleLocalize before the transfer).
    // Forwarding would self-send and ping-pong; queue on the arrival
    // queue instead -- the transfer that made the view point here will
    // drain it.
  }
  // Queue the entry as a one-entry envelope until the relocation finishes
  // (§3.2).
  Message d;
  d.type = MsgType::kBatchOp;
  d.orig_node = msg.orig_node;
  d.orig_thread = msg.orig_thread;
  d.op_id = OpTracker::kImmediate;
  d.hops = msg.hops;
  d.traced = msg.traced;
  d.deliver_ns = msg.deliver_ns;  // deferral start for the stall phase
  d.keys.push_back(k);
  if (push_vals != nullptr) d.vals.assign(push_vals, push_vals + len);
  Coalescer::WriteAux(msg.aux.data() + 1, n_ops, &word, 1, &d.aux);
  ctx_->QueueDeferred(k, std::move(d));
}

void Server::FinishEnvelope(const Message& msg, size_t n_ops) {
  const int64_t* ops = msg.aux.data() + 1;
  // A fire-and-forget push (a server's fold-forward, op kImmediate) is owed
  // no reply.
  const bool reply_owed =
      !(n_ops == 1 && Coalescer::OpOf(ops[0]) == OpTracker::kImmediate);
  if (!reply_keys_.empty() && reply_owed) {
    // One response per envelope, carrying the served entries.
    Message r;
    r.type = MsgType::kBatchResp;
    r.dst_node = msg.orig_node;
    r.orig_node = msg.orig_node;
    r.orig_thread = msg.orig_thread;
    r.op_id = OpTracker::kImmediate;
    r.traced = msg.traced;
    Coalescer::WriteAux(ops, n_ops, reply_words_.data(), reply_words_.size(),
                        &r.aux);
    r.keys = std::exchange(reply_keys_, BufferPool::GetKeys());
    r.vals = std::exchange(reply_vals_, BufferPool::GetVals());
    endpoint_->Send(std::move(r));
  }
  reply_keys_.clear();
  reply_vals_.clear();
  reply_words_.clear();
  // One sub-envelope per destination for the entries whose key lives
  // elsewhere; each sub-op is completed by the replies of every envelope
  // it has entries in.
  for (const NodeId dst : groups_.touched()) {
    Message f;
    f.type = MsgType::kBatchOp;
    f.dst_node = dst;
    f.orig_node = msg.orig_node;
    f.orig_thread = msg.orig_thread;
    f.op_id = OpTracker::kImmediate;
    f.hops = msg.hops + 1;
    f.traced = msg.traced;
    const std::vector<int64_t>& words = groups_.WordsOf(dst);
    Coalescer::WriteAux(ops, n_ops, words.data(), words.size(), &f.aux);
    f.keys = groups_.TakeKeys(dst);
    f.vals = groups_.TakeVals(dst);
    endpoint_->Send(std::move(f));
  }
}

void Server::HandleBatchResp(const Message& msg) {
  const size_t n_ops = OpenEnvelope(msg);
  const int64_t* ops = msg.aux.data() + 1;
  OpTracker& tracker = ctx_->TrackerFor(msg.orig_thread);
  batch_counts_.assign(n_ops, 0);

  // Phase A: scatter values/acks per entry, counting completed keys per
  // sub-op. No sub-op is completed yet, so tracker slots stay valid (an op
  // retires only once all its keys -- including the ones counted here --
  // have been completed in phase B).
  size_t val_off = 0;
  for (size_t i = 0; i < msg.keys.size(); ++i) {
    const Key k = msg.keys[i];
    const int64_t word = msg.aux[1 + n_ops + i];
    const uint64_t mask = static_cast<uint64_t>(word) >> 1;
    if (ctx_->cache) ctx_->cache->Update(k, msg.src_node);

    if ((word & 1) != 0) {
      for (uint64_t mrem = mask; mrem != 0; mrem &= mrem - 1) {
        ++batch_counts_[static_cast<size_t>(__builtin_ctzll(mrem))];
      }
      continue;
    }

    const size_t len = ctx_->layout->Length(k);
    const Val* value = msg.vals.data() + val_off;
    val_off += len;
    uint64_t refresh_uid = 0;
    for (uint64_t mrem = mask; mrem != 0; mrem &= mrem - 1) {
      const size_t s = static_cast<size_t>(__builtin_ctzll(mrem));
      // Same-key fan-out: every referencing sub-op gets its own copy of
      // the single response entry.
      Val* dst = tracker.PullDst(Coalescer::OpOf(ops[s]), k);
      LAPSE_CHECK(dst != nullptr);
      std::memcpy(dst, value, len * sizeof(Val));
      ++batch_counts_[s];
      if (refresh_uid == 0 && Coalescer::IsTraced(ops[s])) {
        refresh_uid = obs::PackUid(msg.orig_node, msg.orig_thread,
                                   Coalescer::OpOf(ops[s]));
      }
    }
    // Pull-through refresh: a returning owner value is exactly the fresh
    // copy a pinned replica needs -- install it so subsequent reads within
    // the staleness bound stay local.
    if (ctx_->replicas && ctx_->replicas->IsPinned(k)) {
      ctx_->replicas->Install(k, value);
      if (refresh_uid != 0 && trace_ring_ != nullptr) {
        trace_ring_->TryPush(obs::TraceEvent::Mark(
            refresh_uid, obs::Phase::kReplicaRefresh, ctx_->node));
      }
    }
  }

  // Phase B: complete each sub-op's served keys in one tracker transaction.
  for (size_t s = 0; s < n_ops; ++s) {
    const uint64_t op = Coalescer::OpOf(ops[s]);
    if (tracker.CompleteKeys(op, batch_counts_[s]) &&
        Coalescer::IsTraced(ops[s]) && trace_ring_ != nullptr) {
      trace_ring_->TryPush(obs::TraceEvent::Complete(
          obs::PackUid(msg.orig_node, msg.orig_thread, op), NowNanos(),
          ctx_->node));
    }
  }
}

void Server::ExtractKey(Key k, std::vector<Key>* keys,
                        std::vector<Val>* vals) {
  const size_t len = ctx_->layout->Length(k);
  Val* slot = ctx_->store->GetOrCreate(k);
  keys->push_back(k);
  vals->insert(vals->end(), slot, slot + len);
  ctx_->store->Erase(k);
  ctx_->SetState(k, KeyState::kNotOwned);
}

void Server::HandleLocalize(Message& msg) {
  const NodeId requester = msg.requester_node;
  LAPSE_CHECK_GE(requester, 0);

  if (ctx_->config->strategy == LocationStrategy::kBroadcastRelocations) {
    // Direct localize at the believed owner.
    std::vector<Key> tkeys = BufferPool::GetKeys();
    std::vector<Val> tvals = BufferPool::GetVals();
    for (const Key k : msg.keys) {
      LatchGuard latch(ctx_->latches->ForKey(k));
      const KeyState state = ctx_->StateOf(k);
      if (state == KeyState::kOwned) {
        ctx_->owners->SetOwner(k, requester);
        ExtractKey(k, &tkeys, &tvals);
      } else if (state == KeyState::kArriving) {
        ctx_->QueueDeferred(k, SingleKeyCopy(msg, k));
      } else {
        // Stale view: chase the owner.
        Message f = SingleKeyCopy(msg, k);
        f.dst_node = RouteDst(k);
        f.hops = msg.hops + 1;
        endpoint_->Send(std::move(f));
      }
    }
    if (!tkeys.empty()) {
      Message t;
      t.type = MsgType::kRelocateTransfer;
      t.dst_node = requester;
      t.requester_node = requester;
      t.orig_node = msg.orig_node;
      t.orig_thread = msg.orig_thread;
      t.op_id = msg.op_id;
      t.traced = msg.traced;
      t.keys = std::move(tkeys);
      t.vals = std::move(tvals);
      endpoint_->Send(std::move(t));
    } else {
      BufferPool::PutKeys(std::move(tkeys));
      BufferPool::PutVals(std::move(tvals));
    }
    return;
  }

  // Home-node strategy: we are the home of every key in this message.
  std::vector<Key> noop_keys = BufferPool::GetKeys();
  groups_.Begin();
  for (const Key k : msg.keys) {
    LAPSE_CHECK_EQ(ctx_->layout->Home(k), ctx_->node)
        << "localize for key " << k << " routed to non-home node";
    const NodeId current = ctx_->owners->Owner(k);
    if (current == requester) {
      LAPSE_LOG(Warning) << "localize no-op: node " << requester
                         << " already owns key " << k;
      noop_keys.push_back(k);
      continue;
    }
    // Update the location immediately; subsequent accesses arriving at the
    // home are routed to the requester from now on (§3.2, message 1).
    ctx_->owners->SetOwner(k, requester);
    // Ownership moved: replicas of this key must not keep serving the old
    // owner's value stream; every registered holder drops its copy and
    // refreshes from the new owner on its next read.
    if (!replica_holders_.empty()) InvalidateReplicaHolders(k);
    if (requester == ctx_->node) {
      // Self-directed localize (an eviction, or a hand-over the home asked
      // for). A remote requester marked the key kArriving on its own node
      // before sending; the home must do the same here, otherwise the
      // window until the transfer lands has owner-view == self with state
      // kNotOwned, and a concurrent localize by another node would be
      // instructed against a key we do not hold yet (fatal). With the
      // mark, that instruct queues on the arrival queue and chains off
      // DrainArrived like any mid-relocation hand-over.
      LatchGuard latch(ctx_->latches->ForKey(k));
      if (ctx_->StateOf(k) == KeyState::kNotOwned) {
        ctx_->SetState(k, KeyState::kArriving);
        NodeContext::ArrivingShard& shard = ctx_->ArrivingShardFor(k);
        MutexLock lock(shard.mu);
        shard.map.try_emplace(k);
      }
    }
    groups_.AddKey(current, k);
  }

  if (!noop_keys.empty()) {
    Message n;
    n.type = MsgType::kLocalizeNoop;
    n.dst_node = requester;
    n.orig_node = msg.orig_node;
    n.orig_thread = msg.orig_thread;
    n.op_id = msg.op_id;
    n.traced = msg.traced;
    n.keys = std::move(noop_keys);
    endpoint_->Send(std::move(n));
  } else {
    BufferPool::PutKeys(std::move(noop_keys));
  }

  for (const NodeId old_owner : groups_.touched()) {
    Message instr;
    instr.type = MsgType::kRelocateInstruct;
    instr.dst_node = old_owner;
    instr.requester_node = requester;
    instr.orig_node = msg.orig_node;
    instr.orig_thread = msg.orig_thread;
    instr.op_id = msg.op_id;
    instr.hops = msg.hops + 1;
    instr.traced = msg.traced;
    instr.keys = groups_.TakeKeys(old_owner);
    if (old_owner == ctx_->node) {
      // The home itself is the old owner: hand over directly (the 2-message
      // relocation the paper notes for 2-node clusters).
      HandleInstruct(instr);
      instr.Recycle();
    } else {
      endpoint_->Send(std::move(instr));
    }
  }
}

void Server::HandleInstruct(Message& msg) {
  std::vector<Key> tkeys = BufferPool::GetKeys();
  std::vector<Val> tvals = BufferPool::GetVals();
  for (const Key k : msg.keys) {
    LatchGuard latch(ctx_->latches->ForKey(k));
    const KeyState state = ctx_->StateOf(k);
    if (state == KeyState::kOwned) {
      ExtractKey(k, &tkeys, &tvals);
    } else if (state == KeyState::kArriving) {
      // The key is still on its way to us (chained relocation): defer the
      // hand-over until it lands.
      ctx_->QueueDeferred(k, SingleKeyCopy(msg, k));
    } else {
      LAPSE_LOG(Fatal) << "relocate instruct for key " << k << " at node "
                       << ctx_->node << " which does not hold it";
    }
  }
  if (!tkeys.empty()) {
    Message t;
    t.type = MsgType::kRelocateTransfer;
    t.dst_node = msg.requester_node;
    t.requester_node = msg.requester_node;
    t.orig_node = msg.orig_node;
    t.orig_thread = msg.orig_thread;
    t.op_id = msg.op_id;
    t.traced = msg.traced;
    t.keys = std::move(tkeys);
    t.vals = std::move(tvals);
    endpoint_->Send(std::move(t));
  } else {
    BufferPool::PutKeys(std::move(tkeys));
    BufferPool::PutVals(std::move(tvals));
  }
}

void Server::HandleTransfer(Message& msg) {
  LAPSE_CHECK_EQ(msg.orig_node, ctx_->node)
      << "transfer must arrive at the requester";
  OpTracker& tracker = ctx_->TrackerFor(msg.orig_thread);
  // op_id == kImmediate marks an eviction: the home (this node) takes the
  // key back without any worker op waiting on it.
  const bool eviction = (msg.op_id == OpTracker::kImmediate);
  const int64_t now = NowNanos();
  const int64_t issue = eviction ? 0 : tracker.IssueNs(msg.op_id);
  const int64_t rt = issue > 0 ? now - issue : 0;

  size_t val_off = 0;
  for (const Key k : msg.keys) {
    const size_t len = ctx_->layout->Length(k);
    // The latch is held across the whole drain on purpose: deferred ops
    // must apply before any new fast-path access to the key (per-worker
    // read-your-writes through a relocation). Workers colliding on the
    // latch spin-with-yield for the (typically short) queue.
    LatchGuard latch(ctx_->latches->ForKey(k));
    ctx_->store->Put(k, msg.vals.data() + val_off);
    val_off += len;
    ctx_->SetState(k, KeyState::kOwned);
    if (ctx_->cache) ctx_->cache->Update(k, ctx_->node);
    if (eviction) {
      stats_->evictions_received.Add(1);
    } else {
      stats_->relocations.Add(rt);
    }
    DrainArrived(k);
  }
  // All keys of one transfer belong to the same localize op: complete them
  // in one tracker transaction.
  const bool done = tracker.CompleteKeys(msg.op_id, msg.keys.size());
  if (msg.traced && trace_ring_ != nullptr && !eviction) {
    // The localize op's whole round-trip is relocation time by definition.
    const uint64_t uid =
        obs::PackUid(msg.orig_node, msg.orig_thread, msg.op_id);
    if (rt > 0) {
      trace_ring_->TryPush(
          obs::TraceEvent::Dur(uid, obs::Phase::kRelocStall, rt, ctx_->node));
    }
    if (done) {
      trace_ring_->TryPush(obs::TraceEvent::Complete(uid, now, ctx_->node));
    }
  }
}

void Server::DrainArrived(Key k) {
  ArrivingKey entry;
  {
    NodeContext::ArrivingShard& shard = ctx_->ArrivingShardFor(k);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(k);
    if (it == shard.map.end()) return;
    entry = std::move(it->second);
    shard.map.erase(it);
  }

  // Coalesced localize calls by local workers complete now.
  for (const auto& w : entry.localize_waiters) {
    const bool done = ctx_->TrackerFor(w.thread).CompleteKeys(w.op_id, 1);
    if (w.traced && trace_ring_ != nullptr) {
      const uint64_t uid = obs::PackUid(ctx_->node, w.thread, w.op_id);
      const int64_t now = NowNanos();
      trace_ring_->TryPush(obs::TraceEvent::Dur(
          uid, obs::Phase::kRelocStall, now - w.queued_ns, ctx_->node));
      if (done) {
        trace_ring_->TryPush(obs::TraceEvent::Complete(uid, now, ctx_->node));
      }
    }
  }

  const size_t len = ctx_->layout->Length(k);
  for (size_t i = 0; i < entry.queue.size(); ++i) {
    Deferred& item = entry.queue[i];
    if (std::holds_alternative<DeferredLocalOp>(item)) {
      DeferredLocalOp& op = std::get<DeferredLocalOp>(item);
      Val* slot = ctx_->store->GetOrCreate(k);
      if (op.is_push) {
        AddTo(slot, op.push_update.data(), len);
      } else {
        std::memcpy(op.pull_dst, slot, len * sizeof(Val));
      }
      const bool done =
          ctx_->TrackerFor(op.worker_thread).CompleteKeys(op.op_id, 1);
      if (op.traced && trace_ring_ != nullptr) {
        const uint64_t uid =
            obs::PackUid(ctx_->node, op.worker_thread, op.op_id);
        const int64_t now = NowNanos();
        trace_ring_->TryPush(obs::TraceEvent::Dur(
            uid, obs::Phase::kRelocStall, now - op.queued_ns, ctx_->node));
        if (done) {
          trace_ring_->TryPush(
              obs::TraceEvent::Complete(uid, now, ctx_->node));
        }
      }
      continue;
    }
    Message& m = std::get<Message>(item);
    if (m.type == MsgType::kBatchOp) {
      // A deferred envelope entry: the key is owned now, so RouteEntry
      // serves it.
      const size_t n_ops = static_cast<size_t>(m.aux[0]);
      if (m.traced && trace_ring_ != nullptr) {
        // How long the entry's sub-ops sat behind the relocation (measured
        // from its delivery here; completion is recorded at its origin).
        const int64_t stall = NowNanos() - m.deliver_ns;
        for (size_t s = 0; s < n_ops; ++s) {
          const int64_t op = m.aux[1 + s];
          if (!Coalescer::IsTraced(op)) continue;
          trace_ring_->TryPush(obs::TraceEvent::Dur(
              obs::PackUid(m.orig_node, m.orig_thread, Coalescer::OpOf(op)),
              obs::Phase::kRelocStall, stall, ctx_->node));
        }
      }
      const int64_t word = m.aux[1 + n_ops];
      groups_.Begin();
      RouteEntry(m, n_ops, k, word,
                 (word & 1) != 0 ? m.vals.data() : nullptr);
      FinishEnvelope(m, n_ops);
      continue;
    }
    // A deferred hand-over (instruct, or direct localize under
    // broadcast-relocations): the key leaves again immediately.
    LAPSE_CHECK(m.type == MsgType::kRelocateInstruct ||
                m.type == MsgType::kLocalize);
    if (ctx_->config->strategy == LocationStrategy::kBroadcastRelocations) {
      ctx_->owners->SetOwner(k, m.requester_node);
    }
    std::vector<Key> tkeys = BufferPool::GetKeys();
    std::vector<Val> tvals = BufferPool::GetVals();
    ExtractKey(k, &tkeys, &tvals);
    stats_->localization_conflicts.Add(1);
    Message t;
    t.type = MsgType::kRelocateTransfer;
    t.dst_node = m.requester_node;
    t.requester_node = m.requester_node;
    t.orig_node = m.orig_node;
    t.orig_thread = m.orig_thread;
    t.op_id = m.op_id;
    t.traced = m.traced;
    t.keys = std::move(tkeys);
    t.vals = std::move(tvals);
    endpoint_->Send(std::move(t));
    // Everything queued after the hand-over chases the key over the
    // network, preserving per-worker order.
    for (size_t j = i + 1; j < entry.queue.size(); ++j) {
      ForwardDeferred(k, std::move(entry.queue[j]));
    }
    return;
  }
}

void Server::ForwardDeferred(Key k, Deferred item) {
  const NodeId dst = RouteDst(k);
  if (dst == ctx_->node) {
    // The owner view points back at this node: another transfer to us is in
    // flight (see RouteEntry's mid-relocation case). Keep the item queued
    // locally; that transfer's DrainArrived will pick it up.
    ctx_->QueueDeferred(k, std::move(item));
    return;
  }
  Message m;
  if (std::holds_alternative<DeferredLocalOp>(item)) {
    DeferredLocalOp& op = std::get<DeferredLocalOp>(item);
    m = OneOpEnvelope(ctx_->node, op.worker_thread, op.op_id, op.traced, k,
                      op.is_push, std::move(op.push_update));
  } else {
    m = std::move(std::get<Message>(item));
    m.hops += 1;
  }
  m.dst_node = dst;
  endpoint_->Send(std::move(m));
}

void Server::HandleLocalizeNoop(const Message& msg) {
  if (ctx_->TrackerFor(msg.orig_thread)
          .CompleteKeys(msg.op_id, msg.keys.size()) &&
      msg.traced && trace_ring_ != nullptr) {
    trace_ring_->TryPush(obs::TraceEvent::Complete(
        obs::PackUid(msg.orig_node, msg.orig_thread, msg.op_id), NowNanos(),
        ctx_->node));
  }
}

void Server::HandleLocationUpdate(const Message& msg) {
  LAPSE_CHECK(!msg.aux.empty());
  const NodeId new_owner = static_cast<NodeId>(msg.aux[0]);
  for (const Key k : msg.keys) ctx_->owners->SetOwner(k, new_owner);
}

void Server::HandleReplicaRegister(const Message& msg) {
  const NodeId holder = msg.requester_node;
  LAPSE_CHECK_GE(holder, 0);
  for (const Key k : msg.keys) {
    LAPSE_CHECK_EQ(ctx_->layout->Home(k), ctx_->node)
        << "replica registration for key " << k
        << " routed to non-home node";
    std::vector<NodeId>& holders = replica_holders_[k];
    if (std::find(holders.begin(), holders.end(), holder) ==
        holders.end()) {
      holders.push_back(holder);
    }
  }
}

void Server::HandleReplicaUnregister(const Message& msg) {
  const NodeId holder = msg.requester_node;
  LAPSE_CHECK_GE(holder, 0);
  for (const Key k : msg.keys) {
    LAPSE_CHECK_EQ(ctx_->layout->Home(k), ctx_->node)
        << "replica unregistration for key " << k
        << " routed to non-home node";
    auto it = replica_holders_.find(k);
    if (it == replica_holders_.end()) continue;
    std::vector<NodeId>& holders = it->second;
    const size_t before = holders.size();
    holders.erase(std::remove(holders.begin(), holders.end(), holder),
                  holders.end());
    if (holders.size() != before) stats_->replica_unregisters.Add(1);
    if (holders.empty()) replica_holders_.erase(it);
  }
}

void Server::HandleReplicaInvalidate(const Message& msg) {
  if (ctx_->replicas == nullptr) return;
  for (const Key k : msg.keys) {
    // Drain-before-drop: pending aggregated writes leave for the owner
    // before the copy is invalidated, so a flush racing the invalidation
    // can neither lose folds nor resurrect the dropped copy (flushes are
    // plain cumulative pushes; only a pull response installs).
    ForwardReplicaFolds(k);
    ctx_->replicas->Invalidate(k);
  }
}

void Server::ForwardReplicaFolds(Key k) {
  if (ctx_->replicas == nullptr) return;
  const size_t len = ctx_->layout->Length(k);
  if (fold_buf_.size() < len) fold_buf_.resize(len);
  if (!ctx_->replicas->DrainKey(k, fold_buf_.data())) return;
  // Sub-op kImmediate: a fire-and-forget push, no reply owed.
  Message m = OneOpEnvelope(
      ctx_->node, /*orig_thread=*/0, OpTracker::kImmediate, /*traced=*/false,
      k, /*is_push=*/true,
      std::vector<Val>(fold_buf_.begin(), fold_buf_.begin() + len));
  // RouteDst may name this node itself (the invalidation raced our own
  // localize); the self-send delivers through the inbox and HandleBatchOp
  // applies or defers it like any other push.
  m.dst_node = RouteDst(k);
  endpoint_->Send(std::move(m));
}

void Server::InvalidateReplicaHolders(Key k) {
  auto it = replica_holders_.find(k);
  if (it == replica_holders_.end()) return;
  for (const NodeId holder : it->second) {
    if (holder == ctx_->node) {
      // The home itself holds a replica: drain + drop it directly.
      if (ctx_->replicas) {
        ForwardReplicaFolds(k);
        ctx_->replicas->Invalidate(k);
      }
      continue;
    }
    Message m;
    m.type = MsgType::kReplicaInvalidate;
    m.dst_node = holder;
    m.orig_node = ctx_->node;
    m.orig_thread = 0;
    m.op_id = OpTracker::kImmediate;
    m.keys.push_back(k);
    endpoint_->Send(std::move(m));
  }
}

}  // namespace ps
}  // namespace lapse
