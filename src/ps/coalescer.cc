#include "ps/coalescer.h"

#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace lapse {
namespace ps {

using net::BufferPool;
using net::Message;
using net::MsgType;

Coalescer::Coalescer(NodeContext* ctx, net::Endpoint* endpoint,
                     int32_t thread, obs::EventRing* trace_ring)
    : ctx_(ctx),
      endpoint_(endpoint),
      thread_(thread),
      stats_(&ctx->StatsFor(thread)),
      trace_ring_(trace_ring),
      num_shards_(static_cast<NodeId>(ctx->layout->num_shards())),
      // Broadcast-ops fans each op out to every peer; its envelopes are
      // never held.
      hold_(ctx->config->coalescing &&
            ctx->config->strategy != LocationStrategy::kBroadcastOps),
      max_ops_(ctx->config->coalesce_max_ops),
      delay_ns_(ctx->config->coalesce_delay_micros * 1000) {
  if (hold_) LAPSE_CHECK_LE(max_ops_, kMaxOps);
  const size_t n_slots = static_cast<size_t>(ctx->layout->num_nodes()) *
                         static_cast<size_t>(num_shards_);
  slots_.resize(n_slots);
  direct_.resize(n_slots);
}

void Coalescer::WriteAux(const int64_t* ops, size_t n_ops,
                         const int64_t* words, size_t n_words,
                         std::vector<int64_t>* aux) {
  uint64_t used = 0;
  for (size_t i = 0; i < n_words; ++i) {
    used |= static_cast<uint64_t>(words[i]) >> 1;
  }
  if (aux->capacity() == 0) *aux = BufferPool::GetAux();
  aux->clear();
  aux->reserve(1 + n_ops + n_words);
  aux->push_back(__builtin_popcountll(used));
  for (uint64_t u = used; u != 0; u &= u - 1) {
    aux->push_back(ops[__builtin_ctzll(u)]);
  }
  if (used == (uint64_t{1} << n_ops) - 1) {
    aux->insert(aux->end(), words, words + n_words);
    return;
  }
  // Renumber: a kept sub-op's new index is its rank among the kept ones.
  for (size_t i = 0; i < n_words; ++i) {
    const uint64_t mask = static_cast<uint64_t>(words[i]) >> 1;
    uint64_t renumbered = 0;
    int j = 0;
    for (uint64_t u = used; u != 0; u &= u - 1, ++j) {
      if ((mask & u & (~u + 1)) != 0) renumbered |= uint64_t{1} << j;
    }
    aux->push_back(EntryWord(renumbered, (words[i] & 1) != 0));
  }
}

Coalescer::SlotBatch& Coalescer::OpenSlot(NodeId slot, uint64_t* bit) {
  SlotBatch& b = cur_hold_ ? slots_[slot] : direct_[slot];
  if (b.ops.empty() || b.ops.back().op_id != cur_op_) {
    // A queued sub-op cannot complete before its batch is sent, so a held
    // op's tracker id cannot be recycled: ids in one batch are distinct
    // and the back-of-list check is enough.
    if (b.ops.empty()) {
      (cur_hold_ ? active_slots_ : direct_slots_).push_back(slot);
    }
    b.ops.push_back({cur_op_, cur_now_, cur_traced_});
    cur_queued_ = true;
  }
  *bit = uint64_t{1} << (b.ops.size() - 1);
  return b;
}

bool Coalescer::IsQueued(uint64_t op) const {
  for (const NodeId slot : active_slots_) {
    for (const SubOp& s : slots_[slot].ops) {
      if (s.op_id == op) return true;
    }
  }
  return false;
}

void Coalescer::AddPull(NodeId slot, Key k) {
  uint64_t bit;
  SlotBatch& b = OpenSlot(slot, &bit);
  // The key's latest entry: a pull merges onto it only when it is itself
  // a pull; after a push it appends, which keeps per-key entry order =
  // issue order (read-your-writes through the batch). A batch holding
  // only this op has nothing to merge with: an op's keys are distinct.
  if (b.ops.size() > 1) {
    const size_t stop =
        b.keys.size() > kDedupWindow ? b.keys.size() - kDedupWindow : 0;
    for (size_t i = b.keys.size(); i-- > stop;) {
      if (b.keys[i] != k) continue;
      if ((b.words[i] & 1) == 0) {
        // Same-key concurrent pulls: one entry, one response, fanned out
        // to every referencing sub-op's buffer at the origin.
        b.words[i] |= static_cast<int64_t>(bit << 1);
        return;
      }
      break;
    }
  }
  b.keys.push_back(k);
  b.words.push_back(EntryWord(bit, /*is_push=*/false));
}

void Coalescer::AddPush(NodeId slot, Key k, const Val* vals, size_t len) {
  uint64_t bit;
  SlotBatch& b = OpenSlot(slot, &bit);
  // Pushes never merge: a mid-relocation server may send a key's sub-ops
  // different ways, and a folded payload would then apply more than once.
  // As the key's latest entry, a push makes later pulls of k append after
  // it.
  b.keys.push_back(k);
  b.words.push_back(EntryWord(bit, /*is_push=*/true));
  b.vals.insert(b.vals.end(), vals, vals + len);
}

void Coalescer::EndOp() {
  for (const NodeId slot : direct_slots_) {
    DrainSlot(direct_[slot], slot, cur_now_, /*held=*/false);
  }
  direct_slots_.clear();
  if (cur_queued_ && cur_hold_) stats_->coalesced_ops.AddSingleWriter(1);
  cur_op_ = OpTracker::kImmediate;
  if (!active_slots_.empty()) Scan(cur_now_);
}

void Coalescer::Scan(int64_t now) {
  size_t w = 0;
  for (size_t i = 0; i < active_slots_.size(); ++i) {
    const NodeId slot = active_slots_[i];
    SlotBatch& b = slots_[slot];
    if (b.ops.size() >= max_ops_ ||
        now - b.ops.front().enqueue_ns >= delay_ns_) {
      DrainSlot(b, slot, now, /*held=*/true);
    } else {
      active_slots_[w++] = slot;
    }
  }
  active_slots_.resize(w);
}

bool Coalescer::DrainAll() {
  if (active_slots_.empty()) return false;
  const int64_t now = NowNanos();
  for (const NodeId slot : active_slots_) {
    DrainSlot(slots_[slot], slot, now, /*held=*/true);
  }
  active_slots_.clear();
  stats_->coalesce_forced_drains.AddSingleWriter(1);
  return true;
}

void Coalescer::DrainSlot(SlotBatch& b, NodeId slot, int64_t now,
                          bool held) {
  const size_t n_ops = b.ops.size();

  Message m;
  m.type = MsgType::kBatchOp;
  m.dst_node = slot / num_shards_;
  m.orig_node = ctx_->node;
  m.orig_thread = thread_;
  // The envelope itself is nobody's op; each sub-op is acked individually
  // through the batch response (or the responses to the sub-envelopes a
  // relocation race splits off).
  m.op_id = OpTracker::kImmediate;

  op_words_.clear();
  bool any_traced = false;
  for (const SubOp& s : b.ops) {
    op_words_.push_back(OpWord(s.op_id, s.traced));
    any_traced |= s.traced;
    if (!held) continue;
    const int64_t waited = now - s.enqueue_ns;
    if (ctx_->coalesce_wait_ns_hist != nullptr) {
      ctx_->coalesce_wait_ns_hist->Add(waited);
    }
    if (s.traced && trace_ring_ != nullptr) {
      trace_ring_->TryPush(obs::TraceEvent::Dur(
          obs::PackUid(ctx_->node, thread_, s.op_id),
          obs::Phase::kCoalesceWait, waited, ctx_->node));
    }
  }
  WriteAux(op_words_.data(), n_ops, b.words.data(), b.words.size(), &m.aux);
  m.keys = std::exchange(b.keys, BufferPool::GetKeys());
  m.vals = std::exchange(b.vals, BufferPool::GetVals());
  m.traced = any_traced;
  endpoint_->Send(std::move(m));

  if (held) {
    if (ctx_->coalesce_batch_size_hist != nullptr) {
      ctx_->coalesce_batch_size_hist->Add(static_cast<int64_t>(n_ops));
    }
    stats_->coalesce_batches.AddSingleWriter(static_cast<int64_t>(n_ops));
  }
  b.ops.clear();
  b.words.clear();
}

}  // namespace ps
}  // namespace lapse
