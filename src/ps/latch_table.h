#ifndef LAPSE_PS_LATCH_TABLE_H_
#define LAPSE_PS_LATCH_TABLE_H_

#include <atomic>
#include <cstddef>
#include <memory>

#include "net/message.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace ps {

// Tiny test-and-set spinlock (BasicLockable; lock with LatchGuard below so
// the thread-safety analysis sees the acquisition). Latches guard
// sub-microsecond critical sections (a state check plus a short value
// copy), where a spinlock's uncontended lock/unlock is several times
// cheaper than std::mutex. The spin loop yields periodically so an
// oversubscribed machine cannot live-lock against a preempted holder.
class LAPSE_CAPABILITY("latch") Latch {
 public:
  void lock() noexcept LAPSE_ACQUIRE() {
    for (;;) {
      // Test-and-test-and-set: contend with plain loads (shared cache
      // line) and only attempt the RFO exchange when the latch looks free,
      // so spinning waiters do not slow down the holder.
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      int spins = 0;
      while (locked_.load(std::memory_order_relaxed)) {
        if (++spins >= kSpinsBeforeYield) {
          spins = 0;
          Yield();
        }
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
  }
  void unlock() noexcept LAPSE_RELEASE() {
    locked_.store(false, std::memory_order_release);
  }

 private:
  static constexpr int kSpinsBeforeYield = 256;
  static void Yield() noexcept;  // sched yield; out of line

  std::atomic<bool> locked_{false};
};

// RAII guard for a Latch (the annotated std::lock_guard<Latch>). Callers
// that guard per-key state bind the latch to a local reference first --
//   Latch& latch = latches.ForKey(k);
//   LatchGuard guard(latch);
// -- so functions annotated LAPSE_REQUIRES(latch) can be checked against
// the exact capability expression the caller holds.
class LAPSE_SCOPED_CAPABILITY LatchGuard {
 public:
  explicit LatchGuard(Latch& latch) LAPSE_ACQUIRE(latch) : latch_(latch) {
    latch_.lock();
  }
  ~LatchGuard() LAPSE_RELEASE() { latch_.unlock(); }

  LatchGuard(const LatchGuard&) = delete;
  LatchGuard& operator=(const LatchGuard&) = delete;

 private:
  Latch& latch_;
};

// One latch per key. The paper draws each key's latch from a pool of 1000
// (Section 3.7); a pool makes unrelated keys share latches and, hashed
// across 64-byte slots, spreads every worker's keys over a table larger
// than L1d that all of a node's workers write. Here key k owns latch k: a
// 1-byte Latch, unpadded, so a table costs one byte per key and node, two
// workers serving disjoint key ranges touch disjoint lines, and keys of
// different server shards never share a latch (no shard drain thread can
// contend on, or deadlock through, another shard's latches).
class LatchTable {
 public:
  // Latches for keys [0, num_keys) -- pass KeyLayout::num_keys().
  explicit LatchTable(size_t num_keys);

  LatchTable(const LatchTable&) = delete;
  LatchTable& operator=(const LatchTable&) = delete;

  Latch& ForKey(Key k) { return latches_[k]; }

  size_t size() const { return size_; }

 private:
  size_t size_;
  std::unique_ptr<Latch[]> latches_;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_LATCH_TABLE_H_
