#ifndef LAPSE_PS_COALESCER_H_
#define LAPSE_PS_COALESCER_H_

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "obs/timeline.h"
#include "ps/node_context.h"
#include "util/timer.h"

namespace lapse {
namespace ps {

// Bounded-delay request coalescer of one worker thread: merges the keys of
// asynchronous pull/push operations bound for remote shards into
// per-(destination node, shard) batches and ships each batch as a single
// kBatchOp wire message instead of one message per operation. Under the
// per-message service model (LatencyConfig::server_ns_per_msg) the drain
// thread is a serial resource, so amortizing its per-message cost across k
// sub-ops multiplies remote op throughput by up to k.
//
// A batch is released by a dual trigger -- the same age/count shape as the
// replica flush logic it generalizes:
//   * count: it holds Config::coalesce_max_ops sub-ops, checked as soon as
//     the enqueueing operation finishes issuing, or
//   * age: its oldest queued sub-op is Config::coalesce_delay_micros old,
//     checked at the start of every subsequent pull/push of this worker.
// Wait/WaitAll/IsDone force an immediate drain of any batch still holding
// the awaited op, so barriers and sync wrappers never stall on a held
// batch (a queued sub-op cannot complete before its batch is sent). The
// delay knob is therefore an explicit batching-vs-latency contract: only
// ops nobody is waiting on are held, and for at most the delay bound.
//
// Within a batch, concurrent pulls of the same key are deduplicated onto
// one key entry and fanned out from the single response; pushes always
// keep their own entry (folding them would double-apply when a
// mid-relocation server forwards sub-ops individually). Entry order
// preserves this worker's per-key issue order, so read-your-writes holds
// through a batch exactly as it does on the unbatched path.
//
// A batch holds at most kMaxOps sub-ops, so its bookkeeping is flat
// vectors searched linearly: no per-op allocation, no hashing.
//
// Batches are grouped per (destination, shard) like every other grouped
// send, so each wire message stays shard-pure and routes straight to the
// owning server shard's inbox (PR 7's invariant).
//
// Owned by exactly one Worker; not thread-safe.
class Coalescer {
 public:
  // Wire format of a batch (kBatchOp request; kBatchResp echoes it for the
  // served subset):
  //   keys   = batched key entries, in enqueue order (shard-pure)
  //   vals   = push payloads concatenated in entry order (pulls add none)
  //   aux[0]                  = n_ops, the number of sub-ops in the batch
  //   aux[1 .. n_ops]         = per-sub-op word: tracker op id, with
  //                             kTracedOpBit set when the op is traced
  //   aux[n_ops+1 ..]         = per-key-entry word: (mask << 1) | is_push,
  //                             mask bit s set <=> sub-op s references it
  // The mask width is what bounds coalesce_max_ops at kMaxOps.
  static constexpr int64_t kTracedOpBit = int64_t{1} << 62;
  static constexpr uint32_t kMaxOps = 62;
  // Pull deduplication looks this many entries back for the key's latest
  // entry (every entry of a batch of single-key ops). A key whose latest
  // entry is further back gets a fresh one: same result, one more entry.
  static constexpr size_t kDedupWindow = 128;

  Coalescer(NodeContext* ctx, net::Endpoint* endpoint, int32_t thread,
            obs::EventRing* trace_ring);

  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  // Opens op `op_id`'s enqueue scope; AddPull/AddPush calls until EndOp
  // belong to it. `now` is the op's issue time, read once by the worker:
  // it stamps the op's sub-ops and drives EndOp's trigger check.
  void BeginOp(uint64_t op_id, bool traced, int64_t now) {
    cur_op_ = op_id;
    cur_traced_ = traced;
    cur_now_ = now;
    cur_queued_ = false;
  }

  // Queues one remote key of the current op on slot (dst * num_shards +
  // shard), the same slot arithmetic as Worker's grouped sends.
  void AddPull(NodeId slot, Key k);
  void AddPush(NodeId slot, Key k, const Val* vals, size_t len);

  // Closes the current op's scope and applies the dual trigger to every
  // held batch (count can only have changed for slots this op touched, but
  // the scan is over active slots, which is just as cheap).
  void EndOp();

  // Age/count check without an enqueue scope -- the one branch per
  // operation the coalescer costs on the all-local fast path. Called at
  // the top of every pull/push so a worker that goes local-only cannot
  // strand a held batch past its delay bound. Returns the clock reading
  // it took (0 when no batch is held), for the op to reuse.
  int64_t MaybeDrain() {
    if (active_slots_.empty()) return 0;
    const int64_t now = NowNanos();
    Scan(now);
    return now;
  }

  // Immediately sends the batch holding op `op` (all held batches, in
  // fact: forced drains are barrier-shaped). No-op unless the op has
  // queued sub-ops. Backs Wait/IsDone.
  void DrainIfQueued(uint64_t op) {
    if (op != OpTracker::kImmediate && IsQueued(op)) DrainAll();
  }

  // Sends every held batch. Backs WaitAll, worker teardown, and
  // LocalizeAsync (relocations must not overtake held ops of their own
  // worker). Returns true if anything was sent.
  bool DrainAll();

  bool empty() const { return active_slots_.empty(); }

 private:
  struct SubOp {
    uint64_t op_id;
    int64_t enqueue_ns;
    bool traced;
  };
  struct Entry {
    Key key;
    uint64_t mask;  // referencing sub-ops, by index into SlotBatch::ops
    bool is_push;
  };
  // One held batch: everything queued for one (destination, shard) slot.
  struct SlotBatch {
    std::vector<SubOp> ops;
    std::vector<Entry> entries;
    std::vector<Val> vals;  // push payloads, entry order
  };

  // Registers the current op in slot's batch (first key of this op on
  // this slot) and returns its sub-op index.
  size_t RegisterOp(NodeId slot, SlotBatch& b);

  // True if op `op` has a sub-op in a held batch.
  bool IsQueued(uint64_t op) const;

  // Applies the dual trigger to every active slot; drains due batches.
  void Scan(int64_t now);

  // Builds and sends one slot's kBatchOp message; records batch-size /
  // wait histograms, stats, and kCoalesceWait trace events.
  void DrainSlot(NodeId slot, int64_t now);

  NodeContext* ctx_;
  net::Endpoint* endpoint_;
  int32_t thread_;
  ServerStats* stats_;  // the owning worker's block (ctx_->StatsFor(thread_))
  obs::EventRing* trace_ring_;  // this worker's ring; null when obs off
  NodeId num_shards_;
  uint32_t max_ops_;
  int64_t delay_ns_;

  std::vector<SlotBatch> slots_;
  std::vector<NodeId> active_slots_;  // slots with a non-empty batch

  // Current enqueue scope (BeginOp .. EndOp).
  uint64_t cur_op_ = OpTracker::kImmediate;
  bool cur_traced_ = false;
  bool cur_queued_ = false;  // the current op queued at least one key
  int64_t cur_now_ = 0;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_COALESCER_H_
