#ifndef LAPSE_UTIL_STATS_H_
#define LAPSE_UTIL_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lapse {

// Lock-free accumulating counter (count + sum). Add() is safe for
// concurrent writers; AddSingleWriter() is the cheaper form for a counter
// that exactly one thread ever writes (a per-thread stats block): a relaxed
// load + store per field instead of two atomic read-modify-writes. Reads
// are safe from any thread; a snapshot is not atomic across the two
// fields, which is fine for monitoring use. Copies are relaxed snapshots,
// so stats structs built from Counters can be summed into a value.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : count_(other.count()), sum_(other.sum()) {}
  Counter& operator=(const Counter& other) {
    count_.store(other.count(), std::memory_order_relaxed);
    sum_.store(other.sum(), std::memory_order_relaxed);
    return *this;
  }

  void Add(int64_t value = 1) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  // Only for a counter with one writing thread: concurrent writers would
  // lose updates.
  void AddSingleWriter(int64_t value = 1) {
    count_.store(count_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + value,
               std::memory_order_relaxed);
  }

  // Adds another counter's totals (count and sum) into this one, which
  // must not be written concurrently (used to sum per-thread blocks).
  void Merge(const Counter& other) {
    count_.store(count() + other.count(), std::memory_order_relaxed);
    sum_.store(sum() + other.sum(), std::memory_order_relaxed);
  }

  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  double Mean() const {
    const int64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

// Summary statistics over a sample of doubles (single-threaded builder).
struct Summary {
  size_t n = 0;
  double min = 0, max = 0, mean = 0, p50 = 0, p95 = 0, p99 = 0, p999 = 0;
};

// Computes a Summary. `values` is copied and sorted internally, so each
// call pays one O(n log n) sort: summarize once per sample set, not inside
// a loop. For high-volume or concurrent measurement use obs::Histogram,
// which is O(1) per sample and mergeable (Histogram::ToSummary bridges to
// this type).
Summary Summarize(std::vector<double> values);

// Formats a Summary on one line for logs.
std::string ToString(const Summary& s);

}  // namespace lapse

#endif  // LAPSE_UTIL_STATS_H_
