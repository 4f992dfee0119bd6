// Shared machinery of the repo benchmark: latency samples, per-thread span
// tracing, counter snapshots, per-window aggregation and the report that
// ends in the one-line JSON result. The workloads (mf_dsgd.cc,
// kge_relocate.cc, zipf_serve.cc) supply a set-up and a trial; RunModes
// runs them, fills a PhaseData per mode (untraced, traced) and turns it
// into named metrics.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/message.h"
#include "ps/system.h"

namespace lapse {
namespace perfbench {

// Run options, straight from the command line.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump path (traced runs only)
};

// A request or training step slower than this counts as failed.
constexpr int64_t kDeadlineNs = 1'000'000'000;

// Bounded systematic sample of a stream of durations: keeps every
// stride-th value and doubles the stride (dropping every other kept value)
// whenever the buffer fills, so memory stays fixed however long the run.
// Each kept value stands for `stride` values of the stream.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity = size_t{1} << 14)
      : capacity_(capacity) {}

  void Add(int64_t v) {
    if (++seen_ % stride_ != 0) return;
    values_.push_back(v);
    if (values_.size() >= capacity_) Halve();
  }
  void Clear() {
    seen_ = 0;
    stride_ = 1;
    values_.clear();
  }
  uint64_t stride() const { return stride_; }
  const std::vector<int64_t>& values() const { return values_; }

 private:
  void Halve();

  size_t capacity_;
  uint64_t seen_ = 0;
  uint64_t stride_ = 1;
  std::vector<int64_t> values_;
};


// --- tracing ----------------------------------------------------------------

// Span names: the benchmark's own calls into each layer.
enum Layer : uint8_t {
  kStep,      // one training data point or one serving request (root)
  kPull,      // Worker::Pull / PullAsync
  kPush,      // Worker::Push / PushAsync
  kLocalize,  // Worker::Localize / LocalizeAsync
  kWait,      // Worker::Wait / WaitAll
  kCompute,   // trainer arithmetic (mf, kge, ml)
  kBarrier,   // Worker::Barrier
  kNumLayers
};

// Spans of one worker thread. Every span feeds exact per-layer totals
// (calls, busy and self time, a duration sample); the first `keep` spans
// are also kept whole (name, start, end, parent, step/request id) and
// written out when the run ends. Owned by one thread.
class ThreadTrace {
 public:
  ThreadTrace(int thread, size_t keep) : thread_(thread), keep_(keep) {
    kept_.reserve(keep);
  }

  void Begin(Layer layer, uint64_t id);
  void End();

  struct Totals {
    int64_t calls = 0;
    int64_t busy_ns = 0;
    int64_t self_ns = 0;  // busy minus the time its child spans cover
    Reservoir durations;
  };
  const Totals& totals(Layer l) const { return totals_[l]; }

  // Appends the kept spans as tab-separated rows.
  void WriteTsv(std::FILE* out) const;

 private:
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    int32_t parent;  // index into kept_, -1 for a root span
    Layer layer;
  };
  struct Open {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
    int32_t kept;  // index into kept_, -1 if not kept
  };
  static constexpr int kMaxDepth = 4;

  int thread_;
  size_t keep_;
  Open stack_[kMaxDepth];
  int depth_ = 0;
  Totals totals_[kNumLayers];
  std::vector<Span> kept_;
};

// RAII span; a no-op (one branch) when tracing is off.
class Scope {
 public:
  Scope(ThreadTrace* t, Layer layer, uint64_t id) : t_(t) {
    if (t_ != nullptr) t_->Begin(layer, id);
  }
  ~Scope() {
    if (t_ != nullptr) t_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadTrace* t_;
};

// --- counters ----------------------------------------------------------------

constexpr size_t kNumMsgTypes = static_cast<size_t>(net::MsgType::kNumTypes);

// The system's public counters, summed over nodes and shards. Read before
// and after a measured phase; the difference is that phase's share.
struct Counters {
  int64_t local_reads = 0, remote_reads = 0, replica_reads = 0;
  int64_t replica_writes = 0;
  int64_t queued_local_ops = 0;
  int64_t reloc_keys = 0, reloc_ns = 0, reloc_conflicts = 0;
  int64_t backlog_msgs[kNumMsgTypes] = {};
  int64_t backlog_ns[kNumMsgTypes] = {};
  int64_t net_msgs = 0, net_remote = 0, net_bytes = 0;
  int64_t net_by_type[kNumMsgTypes] = {};
  int64_t coalesce_ops = 0, coalesce_batches = 0, coalesce_sub_ops = 0;
  int64_t coalesce_forced = 0;
  int64_t replica_flushed = 0;
  int64_t adapt_samples = 0, adapt_dropped = 0, adapt_localizes = 0;
  int64_t adapt_evictions = 0, adapt_pinned = 0, adapt_unpinned = 0;

  static Counters Read(ps::PsSystem& system);
  // this += after - before
  void AddDelta(const Counters& after, const Counters& before);
};

// --- per-worker and per-mode aggregation ---------------------------------

// What one worker thread records in a measured window: one Run() phase
// of the measured part of a trial. The spans accumulate over all windows
// of a mode (bounded memory); the rest is reset by BeginWindow.
struct WorkerData {
  Reservoir item_ns;   // step / request latency
  Reservoir write_ns;  // the step's Push call / an update request
  std::unique_ptr<ThreadTrace> trace;
  int64_t items = 0;  // every item of the window
  int64_t late = 0;   // timed items over kDeadlineNs
  int64_t pulls = 0, pushes = 0, localizes = 0;
  int64_t start_ns = 0, end_ns = 0;  // this worker's part of the window

  // Records a timed item's latency (workloads time every item, or every
  // n-th where a clock read would cost a noticeable share of the item).
  void Timed(int64_t ns) {
    item_ns.Add(ns);
    if (ns > kDeadlineNs) ++late;
  }
};

// The end-to-end figures of one measured window.
struct WindowStats {
  double items_per_s = 0;
  double p50_ns = 0, p90_ns = 0, p99_ns = 0;
  double update_p90_ns = 0, update_p99_ns = 0;
  uint64_t samples = 0, update_samples = 0;
};

// Everything measured in one mode (untraced or traced), over all windows
// of all trials. End-to-end metrics are medians over the windows, so a
// window that the host or the scheduler slowed down does not move them.
struct PhaseData {
  bool traced = false;
  size_t keep_spans = 0;  // spans kept whole per traced worker
  int trials = 0;
  double measured_s = 0;       // sum of window wall times
  double worker_thread_s = 0;  // sum over workers and windows
  int64_t items = 0, late = 0;
  int64_t pulls = 0, pushes = 0, localizes = 0;
  std::vector<std::unique_ptr<WorkerData>> workers;  // by worker id
  std::vector<WindowStats> windows;
  Counters counters;
  int64_t adapt_warmup_requests = 0;  // summed over trials
  std::vector<double> peak_rss_mb;    // per trial

  // Opens a window of `n` workers: returns their slots, reset.
  std::vector<WorkerData*> BeginWindow(int n);
  // Closes the window: its wall time runs from the first worker's start
  // to the last worker's end.
  void EndWindow();
};

// Per-epoch training loss, summed over the workers of a training run.
class EpochLosses {
 public:
  explicit EpochLosses(int epochs) : sum_(epochs, 0.0), n_(epochs, 0) {}

  void Add(int epoch, double sum, int64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    sum_[epoch] += sum;
    n_[epoch] += n;
  }
  // Mean loss of the epoch; NaN if no worker reported it.
  double Loss(int epoch) const {
    std::lock_guard<std::mutex> lock(mu_);
    return n_[epoch] == 0 ? std::nan("")
                          : sum_[epoch] / static_cast<double>(n_[epoch]);
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> sum_;
  std::vector<int64_t> n_;
};

// --- report -----------------------------------------------------------------

// Collects metrics and correctness checks, prints a human-readable line
// per entry and, at the end, the one-line JSON result.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  // A ratio printed with its numerator and denominator.
  void Ratio(const std::string& name, double num, double den,
             const std::string& base);
  void Check(const std::string& what, bool ok, const std::string& detail);
  void Note(const std::string& line);

  // attempted/failed also count items (requests or steps) and the ones
  // that missed kDeadlineNs.
  void Items(int64_t attempted, int64_t late) {
    items_ += attempted;
    late_ += late;
  }
  bool correct() const { return failed_checks_ == 0; }
  // Prints error_frac and the JSON line; returns the exit code.
  int Finish();

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  int64_t checks_ = 0, failed_checks_ = 0;
  int64_t items_ = 0, late_ = 0;
};

// --- run skeleton -------------------------------------------------------------

// Builds a fresh system with its parameters initialised: the set-up that
// setup_s times.
using SetupFn = std::function<std::unique_ptr<ps::PsSystem>()>;
// One trial on a freshly set-up system: warm-up, then measured windows
// recorded into the PhaseData.
using TrialFn = std::function<void(ps::PsSystem&, PhaseData&)>;

// The run skeleton shared by all workloads. Times kExtraSetups set-ups,
// then repeats set-up + trial until --seconds is used up. Untraced runs
// emit the end-to-end metrics; traced runs spend the first half of the
// time untraced and the second half traced, emit the per-layer metrics
// and dump the kept spans.
void RunModes(const Options& opt, Report& report, const SetupFn& setup,
              const TrialFn& trial, int drain_threads);

// A printf-style std::string.
std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
}  // namespace lapse

#endif  // PERFBENCH_HARNESS_H_
