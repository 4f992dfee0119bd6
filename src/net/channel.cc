#include "net/channel.h"

#include <chrono>

#include "util/timer.h"

namespace lapse {
namespace net {

void Inbox::Put(Message msg) {
  size_t depth;
  {
    MutexLock lock(mu_);
    queue_.push(Entry{msg.deliver_ns, next_seq_++, std::move(msg)});
    depth = queue_.size();
    approx_size_.store(depth, std::memory_order_release);
    put_count_.fetch_add(1, std::memory_order_release);
  }
  cv_.NotifyOne();
  // Outside the lock; one relaxed load + branch when the hook is unset.
  if (obs::Histogram* h = depth_hist_.load(std::memory_order_acquire)) {
    h->Add(static_cast<int64_t>(depth));
  }
}

bool Inbox::WaitDeliverable() {
  // OS timer wakeups are ~50us-grained, far coarser than the simulated
  // latencies (2-30us). To keep the latency model honest we sleep only for
  // the bulk of long waits and spin for the final stretch.
  constexpr int64_t kSpinWindowNs = 120'000;
  for (;;) {
    if (!queue_.empty()) {
      const int64_t deliver = queue_.top().deliver_ns;
      const int64_t now = NowNanos();
      // (On shutdown we drain promptly; no need to honor latency.)
      if (deliver <= now || shutdown_) return true;
      if (deliver - now > kSpinWindowNs) {
        cv_.WaitFor(mu_,
                    std::chrono::nanoseconds(deliver - now - kSpinWindowNs));
        continue;
      }
      // Spin without the lock so senders can still enqueue. A Put may
      // bring an earlier delivery time, so any Put ends the spin and the
      // re-check picks the new head; spinning on to `deliver` would hold
      // a 2 us loop-back message behind a 30 us remote one.
      const int64_t puts = put_count_.load(std::memory_order_relaxed);
      mu_.unlock();
      while (NowNanos() < deliver &&
             put_count_.load(std::memory_order_acquire) == puts) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
      mu_.lock();
      continue;
    }
    if (shutdown_) return false;
    // Idle: spin-poll briefly before sleeping. A condition-variable wakeup
    // costs ~50-200us -- more than the whole simulated relocation protocol
    // -- so a short spin keeps multi-hop protocols at realistic speed.
    mu_.unlock();
    const int64_t spin_until = NowNanos() + idle_spin_ns_;
    while (approx_size_.load(std::memory_order_acquire) == 0 &&
           !shutdown_flag_.load(std::memory_order_acquire) &&
           NowNanos() < spin_until) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    mu_.lock();
    if (queue_.empty() && !shutdown_) cv_.Wait(mu_);
  }
}

void Inbox::PopLocked(Message* out) {
  // const_cast: priority_queue::top() is const but we are about to pop;
  // moving the payload out avoids a deep copy of the vectors.
  *out = std::move(const_cast<Entry&>(queue_.top()).msg);
  queue_.pop();
}

bool Inbox::Take(Message* out) {
  MutexLock lock(mu_);
  if (!WaitDeliverable()) return false;
  PopLocked(out);
  approx_size_.store(queue_.size(), std::memory_order_release);
  return true;
}

bool Inbox::TakeBatch(std::vector<Message>* out) {
  MutexLock lock(mu_);
  if (!WaitDeliverable()) return false;
  const int64_t now = NowNanos();
  do {
    out->emplace_back();
    PopLocked(&out->back());
  } while (!queue_.empty() &&
           (queue_.top().deliver_ns <= now || shutdown_));
  approx_size_.store(queue_.size(), std::memory_order_release);
  return true;
}

bool Inbox::TryTake(Message* out) {
  MutexLock lock(mu_);
  if (queue_.empty()) return false;
  if (queue_.top().deliver_ns > NowNanos() && !shutdown_) return false;
  *out = std::move(const_cast<Entry&>(queue_.top()).msg);
  queue_.pop();
  approx_size_.store(queue_.size(), std::memory_order_release);
  return true;
}

void Inbox::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    shutdown_flag_.store(true, std::memory_order_release);
  }
  cv_.NotifyAll();
}

size_t Inbox::ApproxSize() const {
  MutexLock lock(mu_);
  return queue_.size();
}

}  // namespace net
}  // namespace lapse
