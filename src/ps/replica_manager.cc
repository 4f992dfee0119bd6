#include "ps/replica_manager.h"

#include <cstring>

#include "util/timer.h"

namespace lapse {
namespace ps {

ReplicaManager::ReplicaManager(const KeyLayout* layout,
                               int64_t staleness_micros,
                               bool aggregate_writes, int64_t flush_micros,
                               uint32_t flush_max_folds)
    : layout_(layout),
      staleness_ns_(staleness_micros * 1000),
      aggregate_(aggregate_writes),
      flush_ns_(flush_micros * 1000),
      flush_max_folds_(flush_max_folds),
      values_(layout->num_keys()),
      acc_(layout->num_keys()),
      fold_counts_(layout->num_keys(), 0),
      flush_caps_(layout->num_keys(), 0),
      unacked_writes_(layout->num_keys(), 0),
      write_settled_ns_(layout->num_keys(), 0),
      install_ns_(layout->num_keys()),
      pinned_(layout->num_keys()),
      latches_(layout->num_keys()) {
  for (auto& t : install_ns_) t.store(kAbsent, std::memory_order_relaxed);
  for (auto& p : pinned_) p.store(0, std::memory_order_relaxed);
}

void ReplicaManager::Pin(Key k) {
  LatchGuard latch(latches_.ForKey(k));
  if (IsPinned(k)) return;
  // The buffers exist before the pin flag is published, so a reader that
  // sees the flag always finds them (the copy starts absent either way).
  const size_t len = layout_->Length(k);
  values_[k] = std::make_unique<Val[]>(len);
  if (aggregate_) {
    acc_[k] = std::make_unique<Val[]>(len);
    std::memset(acc_[k].get(), 0, len * sizeof(Val));
    fold_counts_[k] = 0;
    flush_caps_[k] = 0;  // every pin starts at the configured cap
  }
  unacked_writes_[k] = 0;
  write_settled_ns_[k] = 0;
  pinned_[k].store(1, std::memory_order_release);
  n_pinned_.fetch_add(1, std::memory_order_relaxed);
}

bool ReplicaManager::Unpin(Key k, Val* pending) {
  Latch& latch = latches_.ForKey(k);
  LatchGuard guard(latch);
  if (!IsPinned(k)) return false;
  // Hand back pending folds and drop the pin under this one latch hold:
  // a FoldWrite cannot slip between the hand-back and the unpin.
  const bool had_folds = aggregate_ && TakeFoldsLocked(k, latch, pending);
  pinned_[k].store(0, std::memory_order_release);
  install_ns_[k].store(kAbsent, std::memory_order_release);
  values_[k].reset();
  acc_[k].reset();
  unacked_writes_[k] = 0;
  write_settled_ns_[k] = 0;
  n_pinned_.fetch_sub(1, std::memory_order_relaxed);
  n_unpins_.fetch_add(1, std::memory_order_relaxed);
  return had_folds && pending != nullptr;
}

bool ReplicaManager::TryRead(Key k, Val* dst) {
  if (!IsPinned(k)) return false;
  const int64_t now = NowNanos();
  const int64_t tag = install_ns_[k].load(std::memory_order_acquire);
  if (tag == kAbsent || now - tag > staleness_ns_) {
    n_stale_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  LatchGuard latch(latches_.ForKey(k));
  // Re-validate under the latch: an invalidation (or unpin) may have won
  // the race since the lock-free check.
  const int64_t tag2 = install_ns_[k].load(std::memory_order_acquire);
  if (tag2 == kAbsent || now - tag2 > staleness_ns_) {
    n_stale_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::memcpy(dst, values_[k].get(), layout_->Length(k) * sizeof(Val));
  if (obs::Histogram* h =
          read_age_hist_.load(std::memory_order_acquire)) {
    h->Add(now - tag2);
  }
  return true;
}

void ReplicaManager::Install(Key k, const Val* data, int64_t issue_ns) {
  LatchGuard latch(latches_.ForKey(k));
  if (!IsPinned(k)) return;
  // Write-epoch check (write-through mode): a snapshot requested while a
  // local push was in flight -- or before the last one settled -- may
  // predate that push; installing it would overwrite the local fold and
  // un-publish this node's own write. Drop it; a later refresh (issued
  // after the settle point) installs cleanly. Conservative drops are
  // benign: the copy just stays absent/stale one round-trip longer.
  if (!aggregate_ &&
      (unacked_writes_[k] > 0 || issue_ns < write_settled_ns_[k])) {
    return;
  }
  const size_t len = layout_->Length(k);
  std::memcpy(values_[k].get(), data, len * sizeof(Val));
  if (aggregate_ && fold_counts_[k] > 0) {
    // Pending folds postdate any owner snapshot: put them back on top so
    // the visible copy keeps this node's own unflushed writes.
    Val* slot = values_[k].get();
    const Val* acc = acc_[k].get();
    for (size_t i = 0; i < len; ++i) slot[i] += acc[i];
  }
  install_ns_[k].store(NowNanos(), std::memory_order_release);
  n_installs_.fetch_add(1, std::memory_order_relaxed);
}

void ReplicaManager::Accumulate(Key k, const Val* update) {
  LatchGuard latch(latches_.ForKey(k));
  if (!IsPinned(k)) return;
  // Open the write epoch before the absent-copy early return: even with no
  // copy to fold into, a refresh already in flight may carry a pre-push
  // snapshot, and Install must know to drop it.
  ++unacked_writes_[k];
  if (install_ns_[k].load(std::memory_order_acquire) == kAbsent) return;
  Val* slot = values_[k].get();
  const size_t len = layout_->Length(k);
  for (size_t i = 0; i < len; ++i) slot[i] += update[i];
}

void ReplicaManager::NoteWriteAcked(Key k) {
  LatchGuard latch(latches_.ForKey(k));
  // The count can be zero after a Pin/Unpin cycle raced the ack; ignore.
  if (unacked_writes_[k] > 0 && --unacked_writes_[k] == 0) {
    write_settled_ns_[k] = NowNanos();
  }
}

ReplicaManager::FoldOutcome ReplicaManager::FoldWrite(Key k,
                                                      const Val* update) {
  if (!aggregate_ || !IsPinned(k)) return FoldOutcome::kNotAggregated;
  const int64_t now = NowNanos();
  LatchGuard latch(latches_.ForKey(k));
  if (!IsPinned(k)) return FoldOutcome::kNotAggregated;  // raced an unpin
  const size_t len = layout_->Length(k);
  Val* acc = acc_[k].get();
  for (size_t i = 0; i < len; ++i) acc[i] += update[i];
  // Read-your-writes: fold into the visible copy too (when present) so
  // this node's readers see the write before the owner does.
  if (install_ns_[k].load(std::memory_order_acquire) != kAbsent) {
    Val* slot = values_[k].get();
    for (size_t i = 0; i < len; ++i) slot[i] += update[i];
  }
  n_folds_.fetch_add(1, std::memory_order_relaxed);
  if (++fold_counts_[k] == 1) {
    MutexLock lock(dirty_mu_);
    dirty_.push_back(k);
    ++n_dirty_;
    if (oldest_fold_ns_.load(std::memory_order_relaxed) == kAbsent) {
      oldest_fold_ns_.store(now, std::memory_order_release);
    }
  }
  const uint32_t cap =
      flush_caps_[k] != 0 ? flush_caps_[k] : flush_max_folds_;
  if (fold_counts_[k] >= cap) {
    return FoldOutcome::kFoldedFlushDue;
  }
  const int64_t oldest = oldest_fold_ns_.load(std::memory_order_acquire);
  if (oldest != kAbsent && now - oldest >= flush_ns_) {
    return FoldOutcome::kFoldedFlushDue;
  }
  return FoldOutcome::kFolded;
}

bool ReplicaManager::DrainKey(Key k, Val* out) {
  if (!aggregate_) return false;
  Latch& latch = latches_.ForKey(k);
  LatchGuard guard(latch);
  if (!TakeFoldsLocked(k, latch, out)) return false;
  n_flushed_keys_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ReplicaManager::TakeFoldsLocked(Key k, Latch& latch, Val* out) {
  if (fold_counts_[k] == 0) return false;
  const size_t len = layout_->Length(k);
  if (out != nullptr) std::memcpy(out, acc_[k].get(), len * sizeof(Val));
  std::memset(acc_[k].get(), 0, len * sizeof(Val));
  fold_counts_[k] = 0;  // the dirty-list entry becomes a skipped no-op
  NoteKeyDrained(latch);
  return true;
}

void ReplicaManager::NoteKeyDrained(Latch& key_latch) {
  (void)key_latch;  // capability-only parameter: names the held latch
  MutexLock lock(dirty_mu_);
  if (--n_dirty_ == 0) {
    // The set went clean: re-arm the age clock, or the stale timestamp
    // would make the next fold anywhere spuriously report a flush as due.
    oldest_fold_ns_.store(kAbsent, std::memory_order_release);
  }
}

void ReplicaManager::SetFlushCap(Key k, uint32_t cap) {
  LatchGuard latch(latches_.ForKey(k));
  flush_caps_[k] = cap;
}

uint32_t ReplicaManager::FlushCap(Key k) {
  LatchGuard latch(latches_.ForKey(k));
  return flush_caps_[k] != 0 ? flush_caps_[k] : flush_max_folds_;
}

uint32_t ReplicaManager::PendingFolds(Key k) {
  LatchGuard latch(latches_.ForKey(k));
  return fold_counts_[k];
}

void ReplicaManager::Invalidate(Key k) {
  LatchGuard latch(latches_.ForKey(k));
  if (install_ns_[k].exchange(kAbsent, std::memory_order_acq_rel) !=
      kAbsent) {
    n_invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
}

ReplicaManagerStats ReplicaManager::stats() const {
  ReplicaManagerStats s;
  s.pinned = n_pinned_.load(std::memory_order_relaxed);
  s.stale_misses = n_stale_misses_.load(std::memory_order_relaxed);
  s.installs = n_installs_.load(std::memory_order_relaxed);
  s.invalidations = n_invalidations_.load(std::memory_order_relaxed);
  s.folds = n_folds_.load(std::memory_order_relaxed);
  s.flushed_keys = n_flushed_keys_.load(std::memory_order_relaxed);
  s.unpins = n_unpins_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ps
}  // namespace lapse
