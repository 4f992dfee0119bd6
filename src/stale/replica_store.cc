#include "stale/replica_store.h"

#include <cstring>

namespace lapse {
namespace stale {

ReplicaStore::ReplicaStore(const ps::KeyLayout* layout)
    : layout_(layout),
      values_(layout->TotalVals(), 0.0f),
      tags_(layout->num_keys()),
      latches_(layout->num_keys()) {
  for (auto& t : tags_) t.store(kAbsent, std::memory_order_relaxed);
}

void ReplicaStore::Read(Key k, Val* dst) {
  ps::LatchGuard latch(latches_.ForKey(k));
  std::memcpy(dst, values_.data() + layout_->Offset(k),
              layout_->Length(k) * sizeof(Val));
}

void ReplicaStore::Install(Key k, const Val* data, int32_t tag) {
  ps::LatchGuard latch(latches_.ForKey(k));
  std::memcpy(values_.data() + layout_->Offset(k), data,
              layout_->Length(k) * sizeof(Val));
  tags_[k].store(tag, std::memory_order_release);
}

void ReplicaStore::Accumulate(Key k, const Val* update) {
  ps::LatchGuard latch(latches_.ForKey(k));
  if (Tag(k) == kAbsent) return;
  Val* slot = values_.data() + layout_->Offset(k);
  const size_t len = layout_->Length(k);
  for (size_t i = 0; i < len; ++i) slot[i] += update[i];
}

}  // namespace stale
}  // namespace lapse
