#ifndef LAPSE_PS_OP_TRACKER_H_
#define LAPSE_PS_OP_TRACKER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "util/logging.h"
#include "util/sync.h"
#include "util/timer.h"

namespace lapse {
namespace ps {

// Tracks outstanding asynchronous operations of one worker thread.
//
// An operation covers one or more keys; completions arrive key-subset-wise
// (responses from different owners, queued local ops draining, relocation
// transfers) on the node's server threads while the issuing worker may
// concurrently Wait(). An operation is done once all its keys completed.
//
// Handle contract:
//  * A handle may be dropped: nobody has to Wait on it. The op's slot is
//    reclaimed the moment its last key completes, so memory is bounded by
//    the number of ops outstanding at once, not by the number issued.
//  * Wait/IsDone/IssueNs on a handle whose op completed (its slot may
//    since hold a newer op) report done / done / 0. A handle stays
//    distinguishable from the newer ops of its slot for 2^kGenBits reuses
//    of that slot.
//  * Wait and WaitAll spin on an atomic counter for up to spin_ns (400 us
//    by default: completions typically arrive within one simulated round
//    trip, far below the OS wakeup granularity), then park on a condition
//    variable. A completer with no parked waiter never enters the kernel.
//
// Layout: a table of cache-line-sized slots in chunks allocated on demand
// (chunk c holds kFirstChunk << c slots, so a handful of pointers covers
// every size and a worker with a small window allocates one 4 KB chunk).
// Chunks never move. A handle is (generation << kSlotBits) | slot index,
// below 2^47 (obs::kInlineOpBit) and never kImmediate.
//
// Thread-safety: Create/Wait/WaitAll/IsDone are called by the owning
// worker only; CompleteKeys by the node's server threads and by the worker
// itself for keys it satisfied inline; PullDst/IssueNs by whoever is
// about to complete keys of the op. Completers touch a slot only while its
// op is pending. No lock is taken on any of these paths except by a
// waiter that parks and by the completer that wakes it.
class OpTracker {
 public:
  // Handle value returned for operations that completed inline.
  static constexpr uint64_t kImmediate = 0;

  static constexpr int kSlotBits = 20;  // at most 2^20 outstanding ops
  static constexpr int kGenBits = 47 - kSlotBits;
  static constexpr int64_t kDefaultSpinNs = 400'000;

  // `spin_ns` bounds the spin phase of Wait/WaitAll; tests pass 0 to make
  // every wait park.
  explicit OpTracker(int64_t spin_ns = kDefaultSpinNs) : spin_ns_(spin_ns) {}
  ~OpTracker() {
    for (auto& chunk : chunks_) delete[] chunk.load(std::memory_order_relaxed);
  }

  OpTracker(const OpTracker&) = delete;
  OpTracker& operator=(const OpTracker&) = delete;

  // Registers an operation over `key_offsets.size()` keys and returns its
  // handle (kImmediate for an empty op, which has nothing to wait for).
  // Pull ops (`pull_dst` set) keep a sorted copy of `key_offsets` in the
  // slot, whose capacity is reused, so callers can pass a scratch buffer.
  // Never blocks: the table grows when no slot is free.
  uint64_t Create(Val* pull_dst,
                  const std::vector<std::pair<Key, size_t>>& key_offsets,
                  int64_t issue_ns) {
    if (key_offsets.empty()) return kImmediate;
    const uint32_t idx = AllocSlot();
    Slot& s = SlotAt(idx);
    uint64_t gen = (s.id.load(std::memory_order_relaxed) >> kSlotBits) + 1;
    if (gen >> kGenBits) gen = 1;  // wrap, skipping the kImmediate value
    const uint64_t id = (gen << kSlotBits) | idx;
    s.pull_dst = pull_dst;
    s.issue_ns = issue_ns;
    if (pull_dst != nullptr) {
      s.key_offsets.assign(key_offsets.begin(), key_offsets.end());
      std::sort(s.key_offsets.begin(), s.key_offsets.end());
    }
    s.remaining.store(key_offsets.size(), std::memory_order_relaxed);
    s.id.store(id, std::memory_order_release);
    created_.store(created_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    return id;
  }

  // Returns the destination address for key `k` of pull op `id`, or nullptr
  // if the op has no pull buffer. Lets a completer copy a key's value
  // before completing it.
  Val* PullDst(uint64_t id, Key k) {
    const Slot* s = Find(id);
    if (s == nullptr || s->pull_dst == nullptr) return nullptr;
    const auto& ko = s->key_offsets;
    auto pos = std::lower_bound(
        ko.begin(), ko.end(), std::make_pair(k, size_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    LAPSE_CHECK(pos != ko.end() && pos->first == k)
        << "key " << k << " not part of op " << id;
    return s->pull_dst + pos->second;
  }

  // Marks `n` keys of op `id` complete. Completing the last key frees the
  // op's slot and wakes a parked waiter. Returns true iff this call
  // completed the op (exactly one caller per op observes true -- the
  // observability layer uses it to stamp the op's completion event at the
  // site that actually finished it).
  bool CompleteKeys(uint64_t id, size_t n) {
    if (id == kImmediate || n == 0) return false;
    Slot* s = Find(id);
    LAPSE_CHECK(s != nullptr) << "completion for unknown op " << id;
    // seq_cst: pairs with the waiter's parked_ store (see SpinThenPark).
    const size_t before = s->remaining.fetch_sub(n, std::memory_order_seq_cst);
    LAPSE_CHECK_GE(before, n);
    if (before != n) return false;
    FreeSlot(static_cast<uint32_t>(id & kSlotMask), s);
    completed_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst)) {
      // Taking the mutex orders this notify after the waiter's last
      // under-lock check, so the wakeup cannot fall between its check
      // and its sleep.
      { MutexLock lock(mu_); }
      cv_.NotifyAll();
    }
    return true;
  }

  // Issue timestamp of op `id` (0 once it completed).
  int64_t IssueNs(uint64_t id) {
    const Slot* s = Find(id);
    if (s == nullptr || s->remaining.load(std::memory_order_relaxed) == 0) {
      return 0;
    }
    return s->issue_ns;
  }

  // Blocks until op `id` is fully complete.
  void Wait(uint64_t id) {
    const Slot* s = Find(id);
    if (s == nullptr) return;
    // Only this thread reuses slots, so the slot stays this op's until the
    // wait ends; remaining == 0 is exactly "done".
    SpinThenPark([s] {
      return s->remaining.load(std::memory_order_seq_cst) == 0;
    });
  }

  // Blocks until every op created so far completed.
  void WaitAll() {
    const uint64_t target = created_.load(std::memory_order_relaxed);
    SpinThenPark([this, target] {
      return completed_.load(std::memory_order_seq_cst) == target;
    });
  }

  // True if op `id` has fully completed.
  bool IsDone(uint64_t id) {
    const Slot* s = Find(id);
    return s == nullptr || s->remaining.load(std::memory_order_acquire) == 0;
  }

  // Ops created and not yet completed.
  size_t NumPending() const {
    return static_cast<size_t>(created_.load(std::memory_order_relaxed) -
                               completed_.load(std::memory_order_acquire));
  }

  // Slots ever handed out: the high-water mark of outstanding ops, which
  // is what bounds the table's memory. Owner thread only.
  size_t NumSlots() const { return num_slots_; }

 private:
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr int kFirstChunkBits = 6;
  static constexpr uint32_t kFirstChunk = 1u << kFirstChunkBits;
  // Chunks 0..kMaxChunks-1 hold kFirstChunk * (2^kMaxChunks - 1) slots,
  // enough for every index below 2^kSlotBits.
  static constexpr int kMaxChunks = kSlotBits - kFirstChunkBits + 1;

  struct alignas(64) Slot {
    // Handle of the op that last used the slot; a mismatch marks a handle
    // whose op completed. Written by the owner only.
    std::atomic<uint64_t> id{0};
    std::atomic<size_t> remaining{0};  // 0 <=> slot free
    uint32_t next_free = 0;            // free-list link: index + 1, 0 = end
    Val* pull_dst = nullptr;
    int64_t issue_ns = 0;
    // (key, offset into pull_dst), sorted by key; pull ops only.
    std::vector<std::pair<Key, size_t>> key_offsets;
  };

  static int ChunkOf(uint32_t idx) {
    return 63 - __builtin_clzll((uint64_t{idx} >> kFirstChunkBits) + 1);
  }
  static uint32_t ChunkBase(int c) { return kFirstChunk * ((1u << c) - 1); }

  Slot& SlotAt(uint32_t idx) const {
    const int c = ChunkOf(idx);
    return chunks_[c].load(std::memory_order_acquire)[idx - ChunkBase(c)];
  }

  // The slot of a pending op `id`, or null if the op completed (or never
  // existed).
  Slot* Find(uint64_t id) const {
    if (id == kImmediate) return nullptr;
    const uint32_t idx = static_cast<uint32_t>(id & kSlotMask);
    const int c = ChunkOf(idx);
    if (c >= kMaxChunks) return nullptr;
    Slot* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) return nullptr;
    Slot* s = &chunk[idx - ChunkBase(c)];
    if (s->id.load(std::memory_order_relaxed) != id) return nullptr;
    return s;
  }

  // Owner thread: pops the private free list, refilling it from the shared
  // one completers push to; else hands out a fresh slot, allocating its
  // chunk on first use.
  uint32_t AllocSlot() {
    if (local_free_ == 0) {
      local_free_ = free_head_.exchange(0, std::memory_order_acquire);
    }
    if (local_free_ != 0) {
      const uint32_t idx = local_free_ - 1;
      local_free_ = SlotAt(idx).next_free;
      return idx;
    }
    const uint32_t idx = num_slots_++;
    LAPSE_CHECK_LT(idx, uint32_t{1} << kSlotBits)
        << "more than 2^" << kSlotBits << " outstanding ops";
    const int c = ChunkOf(idx);
    if (idx == ChunkBase(c)) {
      chunks_[c].store(new Slot[kFirstChunk << c], std::memory_order_release);
    }
    return idx;
  }

  // Completer of the op's last key: pushes the slot onto the shared free
  // list. Only the owner pops (and it takes the whole list at once), so
  // the push cannot suffer ABA.
  void FreeSlot(uint32_t idx, Slot* s) {
    uint32_t head = free_head_.load(std::memory_order_relaxed);
    do {
      s->next_free = head;
    } while (!free_head_.compare_exchange_weak(
        head, idx + 1, std::memory_order_release, std::memory_order_relaxed));
  }

  // Spins up to spin_ns_ on `done`, then parks. The spin re-checks every
  // 4 pauses (well under 100 ns) and reads the clock every 16 checks. The
  // parked_ store and the completer's counter update are both seq_cst, so
  // either the re-check after the store sees the completion or the
  // completer sees parked_ and notifies under the mutex.
  template <typename Done>
  void SpinThenPark(Done done) {
    if (done()) return;
    const int64_t spin_until = NowNanos() + spin_ns_;
    do {
      for (int check = 0; check < 16; ++check) {
        for (int p = 0; p < 4; ++p) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
        if (done()) return;
      }
    } while (NowNanos() < spin_until);
    parked_.store(true, std::memory_order_seq_cst);
    if (!done()) {
      MutexLock lock(mu_);
      while (!done()) cv_.Wait(mu_);
    }
    parked_.store(false, std::memory_order_relaxed);
  }

  const int64_t spin_ns_;

  // Owner-private state.
  uint32_t local_free_ = 0;  // private free list: index + 1, 0 = empty
  uint32_t num_slots_ = 0;
  std::atomic<Slot*> chunks_[kMaxChunks] = {};

  // Written by completers (and read by the spinning owner); a line of
  // their own so Create's private state does not bounce with them.
  alignas(64) std::atomic<uint32_t> free_head_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<bool> parked_{false};
  alignas(64) std::atomic<uint64_t> created_{0};  // owner-written
  Mutex mu_;
  CondVar cv_;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_OP_TRACKER_H_
