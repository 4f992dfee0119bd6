#ifndef LAPSE_PS_REPLICA_MANAGER_H_
#define LAPSE_PS_REPLICA_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "net/message.h"
#include "obs/histogram.h"
#include "ps/key_layout.h"
#include "ps/latch_table.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace ps {

// Monitoring counters of one node's replica manager.
struct ReplicaManagerStats {
  int64_t pinned = 0;         // keys currently pinned for replication
  int64_t stale_misses = 0;   // pinned reads that found no fresh copy
  int64_t installs = 0;       // fresh owner copies installed (pull-through)
  int64_t invalidations = 0;  // copies dropped because ownership moved
  int64_t folds = 0;          // pushes aggregated locally (no owner message)
  int64_t flushed_keys = 0;   // accumulators drained toward the owner
  int64_t unpins = 0;         // pins dropped (manual or policy-driven)
};

// Per-node replica store for contended read-mostly keys (the keys the
// adaptive placement engine flags: hot on several nodes at once, so
// relocation just ping-pongs them). A pinned key's reads are served from
// node-local memory when the local copy is fresh; everything else falls
// through to the normal message path.
//
// Same tag/latch design as stale::ReplicaStore, with wall-clock install
// times as tags instead of SSP clocks: value content is guarded by a latch
// table, tags are atomics so the staleness check can run without a latch
// (a racy pass is re-validated under the latch before the copy). Unlike
// stale::ReplicaStore (which replicates the whole key space by design),
// value buffers here are allocated per key on Pin -- pinned contended keys
// are the rare exception, so memory stays proportional to the pinned set,
// not to num_nodes copies of the model.
//
// Write aggregation (Petuum-style accumulators, optional): with
// `aggregate_writes` on, pushes to pinned keys fold into a per-key local
// accumulator (FoldWrite) instead of paying one owner round-trip each.
// Accumulators are drained in batches -- by the pushing worker once a
// count (flush_max_folds) or age (flush_micros) trigger fires, by the
// server before it honors an invalidation, and by Unpin -- and the drained
// updates travel to the owner as ordinary cumulative pushes. Draining and
// folding are serialized per key under the key's latch, so across any
// interleaving of folds, flushes, invalidations, and unpins every fold is
// delivered to the owner exactly once.
//
// Consistency contract (bounded staleness):
//  * A replica-served read returns a value the then-current owner held at
//    most `staleness_micros` plus one fetch round-trip before the read,
//    plus this node's own pending (unflushed) folds.
//  * Writers fold their own pushes into the local copy, so a node
//    observes its own writes (read-your-writes); the authoritative update
//    reaches the owner via write-through (aggregation off) or the next
//    flush (aggregation on). With aggregation on, Install re-applies the
//    pending accumulator on top of the fresh snapshot, so only folds
//    drained-but-not-yet-applied at the owner can transiently disappear
//    from the visible copy. With aggregation off, refreshes carry a write
//    epoch: Install drops any snapshot requested while a local push was
//    still unacked (or before the last one settled), so a refresh in
//    flight across a push can never overwrite the fold with a pre-push
//    value -- the conservative drop costs at most one extra refresh.
//    (Tested in replica_test.cc: WriteThroughReadYourWrites*.)
//  * When a pinned key's ownership moves, the home directs an invalidation
//    at every registered replica holder: the copy is dropped (the pin
//    stays), and the next read faults a fresh value in from the new owner.
class ReplicaManager {
 public:
  // What FoldWrite did with a push to key k.
  enum class FoldOutcome : uint8_t {
    kNotAggregated,   // unpinned key or aggregation off: write through
    kFolded,          // folded into the local accumulator; no message needed
    kFoldedFlushDue,  // folded, and a flush trigger fired: drain now
  };

  ReplicaManager(const KeyLayout* layout, int64_t staleness_micros,
                 bool aggregate_writes = false,
                 int64_t flush_micros = 0, uint32_t flush_max_folds = 0);

  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  // Lock-free: is key k pinned for replication on this node?
  bool IsPinned(Key k) const {
    return pinned_[k].load(std::memory_order_acquire) != 0;
  }

  bool aggregates_writes() const { return aggregate_; }

  // Marks key k replicated here (idempotent). The copy starts absent; the
  // first read falls through to the message path and installs it.
  void Pin(Key k);

  // Drops the pin, the copy, and the write accumulator. If the accumulator
  // held folds, they are copied into `pending` (layout Length(k) values)
  // and true is returned: the caller owns forwarding them to the owner, or
  // they are lost. Passing nullptr discards pending folds (unit tests
  // only). Registration at the home is not undone by this call -- senders
  // follow up with kReplicaUnregister (Worker::Unreplicate); a later
  // invalidation for an unpinned key is a no-op either way.
  // The hand-back happens under one hold of the key's latch (enforced via
  // TakeFoldsLocked), closing the fold-in-the-gap race.
  bool Unpin(Key k, Val* pending = nullptr) LAPSE_EXCLUDES(dirty_mu_);

  // Serves a read from the local copy iff key k is pinned and the copy was
  // installed within the staleness bound. Copies into dst and returns true
  // on success; returns false (counting a stale miss for pinned keys) when
  // the caller must use the message path instead.
  bool TryRead(Key k, Val* dst);

  // Installs a fresh owner copy (from a returning pull response) and
  // stamps it with the current time. Pending (unflushed) folds are
  // re-applied on top: the snapshot cannot contain them yet, and dropping
  // them from the visible copy would un-publish this node's own writes
  // until the flush round-trips. No-op if k is no longer pinned.
  //
  // `issue_ns` is when the refresh's pull was issued (0 = unknown). In
  // write-through mode the snapshot is dropped -- keeping the folded copy
  // -- while a local push to k is still unacked, or when the pull was
  // issued before the last push settled: such a snapshot may predate the
  // push and would overwrite the fold (the read-your-writes hole this
  // epoch check closes).
  void Install(Key k, const Val* data, int64_t issue_ns = 0);

  // Write-through, local half (aggregation off): folds `update` into the
  // copy (if present) so this node's readers see the write before the
  // owner's ack, and opens the key's write epoch (even when no copy is
  // installed yet -- an in-flight refresh may still carry a pre-push
  // snapshot). Callers still forward the authoritative update; its ack
  // closes the epoch via NoteWriteAcked.
  void Accumulate(Key k, const Val* update);

  // Write-through mode: one forwarded push to key k was acked by the
  // owner. Once every outstanding push settled, refreshes issued from now
  // on are guaranteed to contain the writes, so Install accepts them.
  void NoteWriteAcked(Key k);

  // Write aggregation: folds `update` into key k's accumulator (and into
  // the visible copy, if present, for read-your-writes). Returns
  // kNotAggregated when the caller must write through instead (key not
  // pinned here, or aggregation off); kFoldedFlushDue additionally asks
  // the caller to drain (Worker::FlushReplicas) because the key hit its
  // flush cap (SetFlushCap, default flush_max_folds) or the node's oldest
  // fold aged past flush_micros.
  FoldOutcome FoldWrite(Key k, const Val* update)
      LAPSE_EXCLUDES(dirty_mu_);

  // Per-key override of the count trigger (adaptive flush sizing): key k's
  // accumulator drains once it holds `cap` folds instead of the global
  // flush_max_folds. 0 restores the global cap. Pin() resets the override,
  // so every pin starts from the configured behavior; the placement
  // manager re-derives caps from observed write rates each tick. The age
  // trigger (flush_micros) is unaffected -- it is what bounds a cold
  // writer's flush delay no matter how high the cap scales.
  void SetFlushCap(Key k, uint32_t cap);

  // The count trigger currently in force for key k (the global cap unless
  // overridden). Test observability.
  uint32_t FlushCap(Key k);

  // Drains every key with pending folds: invokes sink(key, acc) with the
  // accumulated update (layout Length(key) values, borrowed only for the
  // duration of the call) and resets the accumulator. Returns the number
  // of keys drained. Callable from any thread; concurrent drains split
  // the dirty set, they never double-deliver a fold.
  template <typename Sink>
  size_t DrainDirty(Sink&& sink) LAPSE_EXCLUDES(dirty_mu_) {
    std::vector<Key> dirty;
    {
      MutexLock lock(dirty_mu_);
      dirty.swap(dirty_);
      oldest_fold_ns_.store(kAbsent, std::memory_order_release);
    }
    size_t drained = 0;
    for (const Key k : dirty) {
      Latch& latch = latches_.ForKey(k);
      LatchGuard guard(latch);
      // A racing DrainKey/Unpin may have emptied the slot already.
      if (fold_counts_[k] == 0) continue;
      sink(k, static_cast<const Val*>(acc_[k].get()));
      std::memset(acc_[k].get(), 0, layout_->Length(k) * sizeof(Val));
      fold_counts_[k] = 0;
      ++drained;
    }
    if (drained > 0) {
      MutexLock lock(dirty_mu_);
      n_dirty_ -= drained;
      // This deferred decrement can be what actually empties the set (a
      // concurrent DrainKey saw our not-yet-subtracted count and skipped
      // its own re-arm): apply the same clean-set re-arm here.
      if (n_dirty_ == 0) {
        oldest_fold_ns_.store(kAbsent, std::memory_order_release);
      }
    }
    n_flushed_keys_.fetch_add(static_cast<int64_t>(drained),
                              std::memory_order_relaxed);
    return drained;
  }

  // Drains key k's accumulator into `out` (layout Length(k) values).
  // Returns false if it held no folds. Used by the server to forward
  // pending folds before honoring an invalidation.
  bool DrainKey(Key k, Val* out) LAPSE_EXCLUDES(dirty_mu_);

  // Pending (unflushed) fold count of key k. Test observability.
  uint32_t PendingFolds(Key k);

  // Drops the copy because ownership moved; the pin stays so the next read
  // refreshes from the new owner. The write accumulator is NOT dropped:
  // the server drains it (DrainKey) and forwards the folds before calling
  // this, so an invalidation never loses aggregated updates.
  void Invalidate(Key k);

  ReplicaManagerStats stats() const;

  int64_t staleness_nanos() const { return staleness_ns_; }

  // Observability hook: every replica-served read records its copy's age
  // (now - install time, ns) into `h` -- the distribution shows how much
  // of the staleness budget reads actually consume. Null (default) costs
  // the replica hit path one relaxed load + branch; the main fast path is
  // untouched.
  void SetReadAgeHistogram(obs::Histogram* h) {
    read_age_hist_.store(h, std::memory_order_release);
  }

 private:
  static constexpr int64_t kAbsent = -1;

  // Copies key k's pending folds into `out` (null discards them) and
  // zeroes the accumulator, handing delivery to the caller. The key's
  // latch serializes this against concurrent FoldWrite/Install/Unpin --
  // `latch` must be latches_.ForKey(k), and the thread-safety analysis
  // verifies every caller actually holds it ("drain and fold serialize
  // under the key latch", compiler-checked). Returns false if the
  // accumulator held no folds.
  bool TakeFoldsLocked(Key k, Latch& latch, Val* out)
      LAPSE_REQUIRES(latch) LAPSE_EXCLUDES(dirty_mu_);

  // Bookkeeping after a single-key drain zeroed an accumulator (under the
  // key's latch, enforced): decrements the dirty count and re-arms the
  // age clock when the set went clean.
  void NoteKeyDrained(Latch& key_latch)
      LAPSE_REQUIRES(key_latch) LAPSE_EXCLUDES(dirty_mu_);

  const KeyLayout* layout_;
  const int64_t staleness_ns_;
  const bool aggregate_;
  const int64_t flush_ns_;
  const uint32_t flush_max_folds_;
  // Per-key value buffer, allocated by Pin and released by Unpin (both
  // under the key's latch); null for unpinned keys. acc_ mirrors it for
  // the write accumulator when aggregation is on.
  std::vector<std::unique_ptr<Val[]>> values_ LAPSE_GUARDED_BY_KEY_LATCH;
  std::vector<std::unique_ptr<Val[]>> acc_ LAPSE_GUARDED_BY_KEY_LATCH;
  std::vector<uint32_t> fold_counts_ LAPSE_GUARDED_BY_KEY_LATCH;
  // Per-key count-trigger override; 0 = use flush_max_folds_.
  std::vector<uint32_t> flush_caps_ LAPSE_GUARDED_BY_KEY_LATCH;
  // Write-through read-your-writes epoch (unused when aggregation is on):
  // pushes to k forwarded to the owner but not yet acked, and when the
  // count last returned to zero. Reset by Pin/Unpin.
  std::vector<uint32_t> unacked_writes_ LAPSE_GUARDED_BY_KEY_LATCH;
  std::vector<int64_t> write_settled_ns_ LAPSE_GUARDED_BY_KEY_LATCH;
  std::vector<std::atomic<int64_t>> install_ns_;  // kAbsent = no copy
  std::vector<std::atomic<uint8_t>> pinned_;
  LatchTable latches_;

  // Keys whose accumulator holds at least one fold, in first-fold order,
  // plus the age of the oldest unflushed fold (kAbsent when clean). A key
  // enters on its 0 -> 1 fold transition and leaves when a drain resets
  // it. n_dirty_ counts keys with pending folds exactly (every 0 -> 1
  // transition is +1, every accumulator zeroing is -1), so a single-key
  // drain that empties the set can re-arm the age clock -- without this,
  // a stale oldest-fold timestamp left behind by an invalidation drain
  // would make the next fold spuriously report a flush as due. The clock
  // is deliberately approximate in one direction: a single-key drain
  // that removes the oldest fold while OTHER keys stay dirty keeps the
  // older timestamp (recomputing the true oldest would need per-key
  // timestamps and a scan), so the next age check may fire one flush
  // early. Early flushes are contract-safe and self-correcting -- the
  // DrainDirty they trigger resets the clock exactly.
  Mutex dirty_mu_;
  std::vector<Key> dirty_ LAPSE_GUARDED_BY(dirty_mu_);
  size_t n_dirty_ LAPSE_GUARDED_BY(dirty_mu_) = 0;
  std::atomic<int64_t> oldest_fold_ns_{kAbsent};

  std::atomic<int64_t> n_pinned_{0};
  std::atomic<int64_t> n_stale_misses_{0};
  std::atomic<int64_t> n_installs_{0};
  std::atomic<int64_t> n_invalidations_{0};
  std::atomic<int64_t> n_folds_{0};
  std::atomic<int64_t> n_flushed_keys_{0};
  std::atomic<int64_t> n_unpins_{0};
  // Appended at the end per the ServerStats counter rules.
  std::atomic<obs::Histogram*> read_age_hist_{nullptr};
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_REPLICA_MANAGER_H_
