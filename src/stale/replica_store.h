#ifndef LAPSE_STALE_REPLICA_STORE_H_
#define LAPSE_STALE_REPLICA_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.h"
#include "ps/key_layout.h"
#include "ps/latch_table.h"

namespace lapse {
namespace stale {

// Per-node replica cache of a bounded-staleness PS (Petuum-like). Each
// cached key carries the clock at which its copy was taken; a reader at
// clock c with staleness bound s may use the copy iff tag >= c - s.
//
// Value content is guarded by one latch per key; tags are atomics so the
// staleness check can run without a latch (a racy pass is re-validated
// under the latch by the caller if it matters).
class ReplicaStore {
 public:
  static constexpr int32_t kAbsent = -1;

  explicit ReplicaStore(const ps::KeyLayout* layout);

  // Clock tag of key k's replica (kAbsent if never fetched).
  int32_t Tag(Key k) const {
    return tags_[k].load(std::memory_order_acquire);
  }

  // True if the replica of k is usable at worker clock `clock` with
  // staleness bound `staleness`.
  bool Fresh(Key k, int32_t clock, int32_t staleness) const {
    const int32_t tag = Tag(k);
    return tag != kAbsent && tag >= clock - staleness;
  }

  // Copies the replica value into dst. Caller should have checked Fresh.
  void Read(Key k, Val* dst);

  // Installs a fresh copy with the given tag.
  void Install(Key k, const Val* data, int32_t tag);

  // Applies a local (not yet flushed) update to the replica so the writer
  // observes its own updates; no tag change. No-op if no copy is present.
  void Accumulate(Key k, const Val* update);

  ps::Latch& Latch(Key k) { return latches_.ForKey(k); }

 private:
  const ps::KeyLayout* layout_;
  std::vector<Val> values_;
  std::vector<std::atomic<int32_t>> tags_;
  ps::LatchTable latches_;
};

}  // namespace stale
}  // namespace lapse

#endif  // LAPSE_STALE_REPLICA_STORE_H_
