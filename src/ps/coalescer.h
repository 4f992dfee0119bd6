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

// Builder of every keyed-op envelope a worker sends (kBatchOp). A pull or
// push whose keys are not all served locally reaches its remote shards only
// through here, and so does a replica flush.
//
// Ops that may be held are merged into per-(destination node, shard)
// batches, one kBatchOp wire message per batch instead of one message per
// operation. Under the per-message service model
// (LatencyConfig::server_ns_per_msg) the drain thread is a serial
// resource, so amortizing its per-message cost across k sub-ops multiplies
// remote op throughput by up to k. Every other op -- coalescing off,
// broadcast-ops, replica flushes -- leaves as envelopes of its own, sent
// before the issuing call returns: Config::coalescing decides only how
// long an envelope may stay open, not which code path an op takes.
//
// A held batch is released by a dual trigger -- the same age/count shape
// as the replica flush logic it generalizes:
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
// keep their own entry (a folded payload would apply once per sub-op
// wherever the entry's sub-ops part ways). Entry order preserves this
// worker's per-key issue order, so read-your-writes holds through a batch
// exactly as it does for ops sent alone.
//
// A batch holds at most kMaxOps sub-ops, so its bookkeeping is flat
// vectors searched linearly: no per-op allocation, no hashing.
//
// Batches are grouped per (destination, shard), so each wire message stays
// shard-pure and routes straight to the owning server shard's inbox.
//
// Owned by exactly one Worker; not thread-safe.
class Coalescer {
 public:
  // Envelope layout, the one wire format of keyed ops (kBatchOp request;
  // kBatchResp reply for the entries a server served):
  //   keys   = key entries (shard-pure)
  //   vals   = entry payloads in entry order: push updates in a kBatchOp,
  //            pulled values in a kBatchResp (the other kind adds none)
  //   aux[0]                  = n_ops, the number of sub-ops
  //   aux[1 .. n_ops]         = per-sub-op word: tracker op id, with
  //                             kTracedOpBit set when the op is traced.
  //                             Op id kImmediate (a server's fold-forward)
  //                             is a fire-and-forget push: no reply.
  //   aux[n_ops+1 ..]         = per-key-entry word: (mask << 1) | is_push,
  //                             mask bit s set <=> sub-op s references it
  // The mask width is what bounds coalesce_max_ops at kMaxOps. Every sub-op
  // of a sent envelope is referenced by at least one of its entries.
  static constexpr int64_t kTracedOpBit = int64_t{1} << 62;
  static constexpr uint32_t kMaxOps = 62;
  // Pull deduplication looks this many entries back for the key's latest
  // entry (every entry of a batch of single-key ops). A key whose latest
  // entry is further back gets a fresh one: same result, one more entry.
  static constexpr size_t kDedupWindow = 128;

  static int64_t OpWord(uint64_t op, bool traced) {
    return static_cast<int64_t>(op) | (traced ? kTracedOpBit : 0);
  }
  static uint64_t OpOf(int64_t op_word) {
    return static_cast<uint64_t>(op_word & ~kTracedOpBit);
  }
  static bool IsTraced(int64_t op_word) {
    return (op_word & kTracedOpBit) != 0;
  }
  static int64_t EntryWord(uint64_t mask, bool is_push) {
    return static_cast<int64_t>((mask << 1) | (is_push ? 1u : 0u));
  }

  // Writes an envelope's aux (op table + entry words) into `aux`. The
  // n_words entry words are numbered against the n_ops-word op table
  // `ops`; sub-ops no entry references are left out and the masks
  // renumbered. This is how a server's reply, forward or deferral carries
  // a subset of a received envelope's entries.
  static void WriteAux(const int64_t* ops, size_t n_ops,
                       const int64_t* words, size_t n_words,
                       std::vector<int64_t>* aux);

  Coalescer(NodeContext* ctx, net::Endpoint* endpoint, int32_t thread,
            obs::EventRing* trace_ring);

  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  // Opens op `op_id`'s enqueue scope; AddPull/AddPush calls until EndOp
  // belong to it. `now` is the op's issue time, read once by the worker:
  // it stamps the op's sub-ops and drives EndOp's trigger check. The op
  // joins held batches only if `may_hold` and coalescing is on; otherwise
  // EndOp sends its envelopes (replica flushes pass false, so they never
  // join a held batch and keep their replica_flush_micros contract).
  void BeginOp(uint64_t op_id, bool traced, int64_t now,
               bool may_hold = true) {
    cur_op_ = op_id;
    cur_traced_ = traced;
    cur_now_ = now;
    cur_queued_ = false;
    cur_hold_ = may_hold && hold_;
  }

  // Queues one remote key of the current op on slot (dst * num_shards +
  // shard), the same slot arithmetic as Worker's grouped sends. Keys of one
  // op must be distinct per slot.
  void AddPull(NodeId slot, Key k);
  void AddPush(NodeId slot, Key k, const Val* vals, size_t len);

  // Closes the current op's scope: sends its envelopes if it may not be
  // held, then applies the dual trigger to every held batch (count can
  // only have changed for slots this op touched, but the scan is over
  // active slots, which is just as cheap).
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

 private:
  struct SubOp {
    uint64_t op_id;
    int64_t enqueue_ns;
    bool traced;
  };
  // One envelope being filled: everything queued for one (destination,
  // shard) slot. Entry masks index into `ops`.
  struct SlotBatch {
    std::vector<SubOp> ops;
    std::vector<Key> keys;      // key entries
    std::vector<int64_t> words;  // entry words, parallel to keys
    std::vector<Val> vals;      // push payloads, entry order
  };

  // The current op's batch on `slot`, with the op registered in it (first
  // key of this op on this slot); `bit` is its mask bit.
  SlotBatch& OpenSlot(NodeId slot, uint64_t* bit);

  // True if op `op` has a sub-op in a held batch.
  bool IsQueued(uint64_t op) const;

  // Applies the dual trigger to every active slot; drains due batches.
  void Scan(int64_t now);

  // Builds and sends one slot's kBatchOp message and empties the batch.
  // A `held` batch also records batch-size / wait histograms, stats, and
  // kCoalesceWait trace events.
  void DrainSlot(SlotBatch& b, NodeId slot, int64_t now, bool held);

  NodeContext* ctx_;
  net::Endpoint* endpoint_;
  int32_t thread_;
  ServerStats* stats_;  // the owning worker's block (ctx_->StatsFor(thread_))
  obs::EventRing* trace_ring_;  // this worker's ring; null when obs off
  NodeId num_shards_;
  bool hold_;  // Config::coalescing, and not broadcast-ops
  uint32_t max_ops_;
  int64_t delay_ns_;

  std::vector<SlotBatch> slots_;      // held batches
  std::vector<NodeId> active_slots_;  // slots with a non-empty held batch
  // Envelopes of the current op that may not be held; sent by EndOp.
  std::vector<SlotBatch> direct_;
  std::vector<NodeId> direct_slots_;
  std::vector<int64_t> op_words_;  // DrainSlot scratch

  // Current enqueue scope (BeginOp .. EndOp).
  uint64_t cur_op_ = OpTracker::kImmediate;
  bool cur_traced_ = false;
  bool cur_queued_ = false;  // the current op queued at least one key
  bool cur_hold_ = false;    // the current op joins held batches
  int64_t cur_now_ = 0;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_COALESCER_H_
