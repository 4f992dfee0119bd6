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
      max_ops_(ctx->config->coalesce_max_ops),
      delay_ns_(ctx->config->coalesce_delay_micros * 1000) {
  LAPSE_CHECK_LE(max_ops_, kMaxOps);
  slots_.resize(static_cast<size_t>(ctx->layout->num_nodes()) *
                static_cast<size_t>(num_shards_));
}

size_t Coalescer::RegisterOp(NodeId slot, SlotBatch& b) {
  if (b.ops.empty() || b.ops.back().op_id != cur_op_) {
    // A queued sub-op cannot complete before its batch is sent, so a held
    // op's tracker id cannot be recycled: ids in one batch are distinct
    // and the back-of-list check is enough.
    if (b.ops.empty()) active_slots_.push_back(slot);
    b.ops.push_back({cur_op_, cur_now_, cur_traced_});
    cur_queued_ = true;
  }
  return b.ops.size() - 1;
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
  SlotBatch& b = slots_[slot];
  const uint64_t bit = uint64_t{1} << RegisterOp(slot, b);
  // The key's latest entry: a pull merges onto it only when it is itself
  // a pull; after a push it appends, which keeps per-key entry order =
  // issue order (read-your-writes through the batch).
  const size_t stop =
      b.entries.size() > kDedupWindow ? b.entries.size() - kDedupWindow : 0;
  for (size_t i = b.entries.size(); i-- > stop;) {
    Entry& e = b.entries[i];
    if (e.key != k) continue;
    if (!e.is_push) {
      // Same-key concurrent pulls: one entry, one response, fanned out to
      // every referencing sub-op's buffer at the origin.
      e.mask |= bit;
      return;
    }
    break;
  }
  b.entries.push_back({k, bit, /*is_push=*/false});
}

void Coalescer::AddPush(NodeId slot, Key k, const Val* vals, size_t len) {
  SlotBatch& b = slots_[slot];
  const uint64_t bit = uint64_t{1} << RegisterOp(slot, b);
  // Pushes never merge: a mid-relocation server forwards sub-ops
  // individually, and a folded payload forwarded per sub-op would apply
  // more than once. As the key's latest entry, a push makes later pulls
  // of k append after it.
  b.entries.push_back({k, bit, /*is_push=*/true});
  b.vals.insert(b.vals.end(), vals, vals + len);
}

void Coalescer::EndOp() {
  if (cur_queued_) stats_->coalesced_ops.AddSingleWriter(1);
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
      DrainSlot(slot, now);
    } else {
      active_slots_[w++] = slot;
    }
  }
  active_slots_.resize(w);
}

bool Coalescer::DrainAll() {
  if (active_slots_.empty()) return false;
  const int64_t now = NowNanos();
  for (const NodeId slot : active_slots_) DrainSlot(slot, now);
  active_slots_.clear();
  stats_->coalesce_forced_drains.AddSingleWriter(1);
  return true;
}

void Coalescer::DrainSlot(NodeId slot, int64_t now) {
  SlotBatch& b = slots_[slot];
  const size_t n_ops = b.ops.size();

  Message m;
  m.type = MsgType::kBatchOp;
  m.dst_node = slot / num_shards_;
  m.orig_node = ctx_->node;
  m.orig_thread = thread_;
  // The envelope itself is nobody's op; each sub-op is acked individually
  // through the batch response (or the single-key forwards a relocation
  // race splits off).
  m.op_id = OpTracker::kImmediate;
  m.keys = BufferPool::GetKeys();
  m.aux.reserve(1 + n_ops + b.entries.size());
  m.aux.push_back(static_cast<int64_t>(n_ops));

  bool any_traced = false;
  for (const SubOp& s : b.ops) {
    m.aux.push_back(static_cast<int64_t>(s.op_id) |
                    (s.traced ? kTracedOpBit : 0));
    const int64_t waited = now - s.enqueue_ns;
    if (ctx_->coalesce_wait_ns_hist != nullptr) {
      ctx_->coalesce_wait_ns_hist->Add(waited);
    }
    if (s.traced) {
      any_traced = true;
      if (trace_ring_ != nullptr) {
        trace_ring_->TryPush(obs::TraceEvent::Dur(
            obs::PackUid(ctx_->node, thread_, s.op_id),
            obs::Phase::kCoalesceWait, waited, ctx_->node));
      }
    }
  }
  for (const Entry& e : b.entries) {
    m.keys.push_back(e.key);
    m.aux.push_back(
        static_cast<int64_t>((e.mask << 1) | (e.is_push ? 1u : 0u)));
  }
  m.vals = std::move(b.vals);
  b.vals = BufferPool::GetVals();
  m.traced = any_traced;
  endpoint_->Send(std::move(m));

  if (ctx_->coalesce_batch_size_hist != nullptr) {
    ctx_->coalesce_batch_size_hist->Add(static_cast<int64_t>(n_ops));
  }
  stats_->coalesce_batches.AddSingleWriter(static_cast<int64_t>(n_ops));
  b.ops.clear();
  b.entries.clear();
}

}  // namespace ps
}  // namespace lapse
