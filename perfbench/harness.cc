#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/timer.h"

namespace lapse {
namespace perfbench {

std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// --- samples -----------------------------------------------------------------

void Reservoir::Halve() {
  // values_[i] stands for stream position (i + 1) * stride_; keeping the
  // odd indices leaves exactly the multiples of the doubled stride.
  size_t j = 0;
  for (size_t i = 1; i < values_.size(); i += 2) values_[j++] = values_[i];
  values_.resize(j);
  stride_ *= 2;
}

namespace {

// Quantile q in [0, 1] over several reservoirs, each value weighted by its
// reservoir's stride: the mean of the samples ranked within kQuantileBand
// of q, which is steadier than a single order statistic and not stuck on
// whole nanoseconds. 0 when empty.
constexpr double kQuantileBand = 0.005;

double Quantile(const std::vector<const Reservoir*>& parts, double q) {
  std::vector<std::pair<int64_t, uint64_t>> all;  // (value, weight)
  double total = 0;
  for (const Reservoir* p : parts) {
    for (const int64_t v : p->values()) all.emplace_back(v, p->stride());
    total += static_cast<double>(p->stride() * p->values().size());
  }
  if (all.empty()) return 0;
  std::sort(all.begin(), all.end());
  const double lo = std::max(0.0, q - kQuantileBand) * total;
  const double hi = std::min(1.0, q + kQuantileBand) * total;
  double cum = 0, sum = 0;
  for (const auto& [v, w] : all) {
    const double overlap =
        std::min(cum + static_cast<double>(w), hi) - std::max(cum, lo);
    if (overlap > 0) sum += static_cast<double>(v) * overlap;
    cum += static_cast<double>(w);
    if (cum >= hi) break;
  }
  return sum / (hi - lo);
}

uint64_t SampleCount(const std::vector<const Reservoir*>& parts) {
  uint64_t n = 0;
  for (const Reservoir* p : parts) n += p->values().size();
  return n;
}

const char* LayerName(Layer l) {
  switch (l) {
    case kStep: return "step";
    case kPull: return "pull";
    case kPush: return "push";
    case kLocalize: return "localize";
    case kWait: return "wait";
    case kCompute: return "compute";
    case kBarrier: return "barrier";
    case kNumLayers: break;
  }
  return "?";
}

}  // namespace

// --- tracing -----------------------------------------------------------------

void ThreadTrace::Begin(Layer layer, uint64_t id) {
  if (depth_ == kMaxDepth) {
    std::fprintf(stderr, "perfbench: spans nested deeper than %d\n",
                 kMaxDepth);
    std::abort();
  }
  Open& o = stack_[depth_++];
  o.layer = layer;
  o.child_ns = 0;
  o.kept = -1;
  o.start_ns = NowNanos();
  if (kept_.size() < keep_) {
    const int32_t parent = depth_ > 1 ? stack_[depth_ - 2].kept : -1;
    kept_.push_back(Span{o.start_ns, 0, id, parent, layer});
    o.kept = static_cast<int32_t>(kept_.size() - 1);
  }
}

void ThreadTrace::End() {
  const int64_t end = NowNanos();
  const Open& o = stack_[--depth_];
  const int64_t dur = end - o.start_ns;
  Totals& t = totals_[o.layer];
  ++t.calls;
  t.busy_ns += dur;
  t.self_ns += dur - o.child_ns;
  t.durations.Add(dur);
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  if (o.kept >= 0) kept_[o.kept].end_ns = end;
}

void ThreadTrace::WriteTsv(std::FILE* out) const {
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(out, "%d\t%zu\t%d\t%s\t%" PRIu64 "\t%" PRId64 "\t%" PRId64
                 "\n",
                 thread_, i, s.parent, LayerName(s.layer), s.id, s.start_ns,
                 s.end_ns);
  }
}

// --- counters ---------------------------------------------------------------

Counters Counters::Read(ps::PsSystem& system) {
  Counters c;
  const int nodes = system.config().num_nodes;
  const int shards = system.config().server_threads;
  for (NodeId n = 0; n < nodes; ++n) {
    const ps::ServerStats& ns = system.node_stats(n);
    c.local_reads += ns.local_key_reads.sum();
    c.remote_reads += ns.remote_key_reads.sum();
    c.replica_reads += ns.replica_key_reads.sum();
    c.replica_writes += ns.replica_key_writes.sum();
    c.queued_local_ops += ns.queued_local_ops.sum();
    c.coalesce_ops += ns.coalesced_ops.count();
    c.coalesce_batches += ns.coalesce_batches.count();
    c.coalesce_sub_ops += ns.coalesce_batches.sum();
    c.coalesce_forced += ns.coalesce_forced_drains.count();
    for (int s = 0; s < shards; ++s) {
      const ps::ServerStats& ss = system.shard_stats(n, s);
      c.reloc_keys += ss.relocations.count();
      c.reloc_ns += ss.relocations.sum();
      c.reloc_conflicts += ss.localization_conflicts.count();
      for (size_t t = 0; t < kNumMsgTypes; ++t) {
        c.backlog_msgs[t] += ss.backlog_ns[t].count();
        c.backlog_ns[t] += ss.backlog_ns[t].sum();
      }
    }
    if (ps::ReplicaManager* rm = system.replica_manager(n)) {
      c.replica_flushed += rm->stats().flushed_keys;
    }
    if (system.adaptive_enabled()) {
      const adapt::AdaptStats as = system.placement_manager(n).stats();
      c.adapt_samples += as.samples;
      c.adapt_dropped += as.dropped_samples;
      c.adapt_localizes += as.localizes_issued;
      c.adapt_evictions += as.evictions_issued;
      c.adapt_pinned += as.replicas_pinned;
      c.adapt_unpinned += as.replicas_unpinned;
    }
  }
  net::NetStats& net = system.net_stats();
  c.net_msgs = net.total_messages();
  c.net_remote = net.remote_messages();
  c.net_bytes = net.total_bytes();
  for (size_t t = 0; t < kNumMsgTypes; ++t) {
    c.net_by_type[t] = net.MessagesOfType(static_cast<net::MsgType>(t));
  }
  return c;
}

void Counters::AddDelta(const Counters& a, const Counters& b) {
#define PB_DELTA(f) f += a.f - b.f
  PB_DELTA(local_reads);
  PB_DELTA(remote_reads);
  PB_DELTA(replica_reads);
  PB_DELTA(replica_writes);
  PB_DELTA(queued_local_ops);
  PB_DELTA(reloc_keys);
  PB_DELTA(reloc_ns);
  PB_DELTA(reloc_conflicts);
  PB_DELTA(net_msgs);
  PB_DELTA(net_remote);
  PB_DELTA(net_bytes);
  PB_DELTA(coalesce_ops);
  PB_DELTA(coalesce_batches);
  PB_DELTA(coalesce_sub_ops);
  PB_DELTA(coalesce_forced);
  PB_DELTA(replica_flushed);
  PB_DELTA(adapt_samples);
  PB_DELTA(adapt_dropped);
  PB_DELTA(adapt_localizes);
  PB_DELTA(adapt_evictions);
  PB_DELTA(adapt_pinned);
  PB_DELTA(adapt_unpinned);
  for (size_t t = 0; t < kNumMsgTypes; ++t) {
    PB_DELTA(backlog_msgs[t]);
    PB_DELTA(backlog_ns[t]);
    PB_DELTA(net_by_type[t]);
  }
#undef PB_DELTA
}

// --- aggregation ------------------------------------------------------------

std::vector<WorkerData*> PhaseData::BeginWindow(int n) {
  std::vector<WorkerData*> out;
  for (int i = 0; i < n; ++i) {
    if (workers.size() <= static_cast<size_t>(i)) {
      workers.push_back(std::make_unique<WorkerData>());
      if (traced) {
        workers.back()->trace = std::make_unique<ThreadTrace>(i, keep_spans);
      }
    }
    WorkerData& w = *workers[i];
    w.item_ns.Clear();
    w.write_ns.Clear();
    w.items = w.late = w.pulls = w.pushes = w.localizes = 0;
    w.start_ns = w.end_ns = 0;
    out.push_back(&w);
  }
  return out;
}

void PhaseData::EndWindow() {
  int64_t first = INT64_MAX, last = INT64_MIN, window_items = 0;
  std::vector<const Reservoir*> item_samples, write_samples;
  for (const auto& d : workers) {
    first = std::min(first, d->start_ns);
    last = std::max(last, d->end_ns);
    worker_thread_s += static_cast<double>(d->end_ns - d->start_ns) * 1e-9;
    window_items += d->items;
    late += d->late;
    pulls += d->pulls;
    pushes += d->pushes;
    localizes += d->localizes;
    item_samples.push_back(&d->item_ns);
    write_samples.push_back(&d->write_ns);
  }
  const double window_s = static_cast<double>(last - first) * 1e-9;
  WindowStats w;
  w.items_per_s = window_s > 0 ? window_items / window_s : 0.0;
  w.p50_ns = Quantile(item_samples, 0.50);
  w.p90_ns = Quantile(item_samples, 0.90);
  w.p99_ns = Quantile(item_samples, 0.99);
  w.update_p90_ns = Quantile(write_samples, 0.90);
  w.update_p99_ns = Quantile(write_samples, 0.99);
  w.samples = SampleCount(item_samples);
  w.update_samples = SampleCount(write_samples);
  windows.push_back(w);
  items += window_items;
  measured_s += window_s;
}

// --- report -----------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& detail) {
  metrics_.push_back(Entry{name, value, unit});
  std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              detail.c_str());
}

void Report::Ratio(const std::string& name, double num, double den,
                   const std::string& base) {
  Metric(name, den > 0 ? num / den : 0.0, "ratio",
         Fmt("(%.0f / %.0f %s)", num, den, base.c_str()));
}

void Report::Check(const std::string& what, bool ok,
                   const std::string& detail) {
  ++checks_;
  if (!ok) ++failed_checks_;
  std::printf("check %-6s %s: %s\n", ok ? "ok" : "FAILED", what.c_str(),
              detail.c_str());
}

void Report::Note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

int Report::Finish() {
  const int64_t attempted = items_ + checks_;
  const int64_t failed = late_ + failed_checks_;
  std::printf("error_frac %.6g (failed %" PRId64 " / attempted %" PRId64
              ": %" PRId64 " items over the %.0f s deadline, %" PRId64
              " of %" PRId64 " correctness checks failed)\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted, late_, kDeadlineNs * 1e-9, failed_checks_,
              checks_);
  std::string json = Fmt("{\"correct\": %s, \"attempted\": %" PRId64
                         ", \"failed\": %" PRId64 ", \"metrics\": {",
                         correct() ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    json += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

// --- metric emission ---------------------------------------------------------

namespace {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double MedianRate(const PhaseData& d) {
  std::vector<double> v;
  for (const WindowStats& w : d.windows) v.push_back(w.items_per_s);
  return Median(v);
}

// Peak resident memory since the last ResetPeakRss(), from the kernel's
// high-water mark; the whole process's peak if VmHWM cannot be read.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atol(line + 6);
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Hands memory the allocator holds free back to the system and restarts
// the high-water mark from the current resident size, so the next peak
// is that of one trial rather than the allocator's retention of earlier
// ones (which varied by 8 MB between runs of the same trial).
void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Message types whose server backlog the drain-layer metrics report.
struct NamedType {
  const char* name;
  net::MsgType type;
};
constexpr NamedType kBacklogTypes[] = {
    {"pull", net::MsgType::kPull},
    {"push", net::MsgType::kPush},
    {"localize", net::MsgType::kLocalize},
    {"transfer", net::MsgType::kRelocateTransfer},
    {"batch", net::MsgType::kBatchOp},
};
constexpr NamedType kNetTypes[] = {
    {"pull", net::MsgType::kPull},
    {"pull_resp", net::MsgType::kPullResp},
    {"push", net::MsgType::kPush},
    {"push_ack", net::MsgType::kPushAck},
    {"localize", net::MsgType::kLocalize},
    {"instruct", net::MsgType::kRelocateInstruct},
    {"transfer", net::MsgType::kRelocateTransfer},
    {"localize_noop", net::MsgType::kLocalizeNoop},
    {"replica_register", net::MsgType::kReplicaRegister},
    {"replica_invalidate", net::MsgType::kReplicaInvalidate},
    {"batch", net::MsgType::kBatchOp},
    {"batch_resp", net::MsgType::kBatchResp},
};

void EmitEndToEnd(Report& r, const PhaseData& d,
                  const std::vector<double>& setup_s) {
  // Median over the windows of one window figure, with its range.
  auto over_windows = [&](double WindowStats::*field, double scale,
                          std::string* detail) {
    std::vector<double> v;
    for (const WindowStats& w : d.windows) v.push_back(w.*field * scale);
    std::sort(v.begin(), v.end());
    *detail = v.empty() ? "" : Fmt("(median of %zu windows, range %.4g-%.4g",
                                   v.size(), v.front(), v.back());
    return Median(v);
  };
  uint64_t samples = 0, update_samples = 0;
  for (const WindowStats& w : d.windows) {
    samples += w.samples;
    update_samples += w.update_samples;
  }
  std::string detail;
  r.Metric("setup_s", Median(setup_s), "s",
           Fmt("(median of %zu set-ups)", setup_s.size()));
  double v = over_windows(&WindowStats::items_per_s, 1, &detail);
  r.Metric("items_per_s", v, "1/s",
           detail + Fmt("; %" PRId64 " items in %.3f s, %d trials)", d.items,
                        d.measured_s, d.trials));
  v = over_windows(&WindowStats::p50_ns, 1e-3, &detail);
  r.Metric("item_p50_us", v, "us",
           detail + Fmt("; %" PRIu64 " samples)", samples));
  v = over_windows(&WindowStats::p90_ns, 1e-3, &detail);
  r.Metric("item_p90_us", v, "us",
           detail + Fmt("; %" PRIu64 " samples)", samples));
  v = over_windows(&WindowStats::update_p90_ns, 1e-3, &detail);
  r.Metric("update_p90_us", v, "us",
           detail + Fmt("; %" PRIu64 " samples)", update_samples));
  r.Metric("peak_rss_mb", Median(d.peak_rss_mb), "MB",
           Fmt("(median of %zu trials' peaks)", d.peak_rss_mb.size()));
  // The 99th percentiles are printed, not tracked: on a shared host they
  // follow the other tenants' load (see README.md, Steadiness).
  v = over_windows(&WindowStats::p99_ns, 1e-3, &detail);
  r.Note(Fmt("item_p99_us %.6g us, not tracked ", v) + detail + ")");
  v = over_windows(&WindowStats::update_p99_ns, 1e-3, &detail);
  r.Note(Fmt("update_p99_us %.6g us, not tracked ", v) + detail + ")");
}

void EmitPerLayer(Report& r, const PhaseData& t, const PhaseData& untraced,
                  int drain_threads) {
  struct Sum {
    int64_t calls = 0, busy_ns = 0, self_ns = 0;
    std::vector<const Reservoir*> durations;
  } layer[kNumLayers];
  for (const auto& w : t.workers) {
    for (int l = 0; l < kNumLayers; ++l) {
      const ThreadTrace::Totals& tt = w->trace->totals(static_cast<Layer>(l));
      layer[l].calls += tt.calls;
      layer[l].busy_ns += tt.busy_ns;
      layer[l].self_ns += tt.self_ns;
      layer[l].durations.push_back(&tt.durations);
    }
  }
  const double worker_ns = t.worker_thread_s * 1e9;
  const std::string worker_base =
      Fmt("ns of %.3f worker thread-seconds", t.worker_thread_s);
  const Counters& c = t.counters;

  r.Note(Fmt("self time per layer (share of %.3f worker thread-seconds):",
             t.worker_thread_s));
  for (int l = 0; l < kNumLayers; ++l) {
    r.Note(Fmt("  %-9s calls %12" PRId64 "  busy %9.4f s  self %9.4f s"
               "  (%.1f%%)",
               LayerName(static_cast<Layer>(l)), layer[l].calls,
               layer[l].busy_ns * 1e-9, layer[l].self_ns * 1e-9,
               worker_ns > 0 ? 100.0 * layer[l].self_ns / worker_ns : 0.0));
  }

  // ps.worker API
  for (const Layer l : {kPull, kPush}) {
    const std::string p = std::string("worker.") + LayerName(l);
    r.Metric(p + ".calls", static_cast<double>(layer[l].calls), "count");
    r.Metric(p + ".p50_ns", Quantile(layer[l].durations, 0.50), "ns",
             Fmt("(%" PRIu64 " samples)", SampleCount(layer[l].durations)));
    r.Metric(p + ".p99_ns", Quantile(layer[l].durations, 0.99), "ns",
             Fmt("(%" PRIu64 " samples)", SampleCount(layer[l].durations)));
    r.Ratio(p + ".busy_share", static_cast<double>(layer[l].busy_ns),
            worker_ns, worker_base);
  }
  r.Ratio("worker.local_read_share", static_cast<double>(c.local_reads),
          static_cast<double>(c.local_reads + c.remote_reads +
                              c.replica_reads),
          "key reads");
  r.Metric("worker.queued_local_ops", static_cast<double>(c.queued_local_ops),
           "count");
  // ps.worker waits
  r.Metric("worker.localize.calls", static_cast<double>(layer[kLocalize].calls),
           "count");
  r.Ratio("worker.localize.busy_share",
          static_cast<double>(layer[kLocalize].busy_ns), worker_ns,
          worker_base);
  r.Ratio("worker.wait.busy_share", static_cast<double>(layer[kWait].busy_ns),
          worker_ns, worker_base);
  r.Ratio("worker.barrier.wait_share",
          static_cast<double>(layer[kBarrier].busy_ns), worker_ns,
          worker_base);
  // trainer compute and the step as a whole
  r.Ratio("compute.busy_share", static_cast<double>(layer[kCompute].busy_ns),
          worker_ns, worker_base);
  r.Metric("step.p50_ns", Quantile(layer[kStep].durations, 0.50), "ns",
           Fmt("(%" PRIu64 " samples)", SampleCount(layer[kStep].durations)));
  r.Metric("step.p99_ns", Quantile(layer[kStep].durations, 0.99), "ns",
           Fmt("(%" PRIu64 " samples)", SampleCount(layer[kStep].durations)));
  r.Ratio("step.self_share", static_cast<double>(layer[kStep].self_ns),
          worker_ns, worker_base);
  // ps.server relocation
  r.Metric("reloc.keys", static_cast<double>(c.reloc_keys), "count");
  r.Ratio("reloc.keys_per_point", static_cast<double>(c.reloc_keys),
          static_cast<double>(t.items), "items");
  r.Metric("reloc.mean_us",
           c.reloc_keys > 0 ? c.reloc_ns * 1e-3 / c.reloc_keys : 0.0, "us",
           Fmt("(localize issue to transfer arrival, %" PRId64 " keys)",
               c.reloc_keys));
  r.Metric("reloc.conflicts", static_cast<double>(c.reloc_conflicts),
           "count");
  // ps.server drain. By Little's law, total wait over drain-thread time is
  // the mean number of messages of the type waiting past their delivery.
  const double drain_ns = t.measured_s * 1e9 * drain_threads;
  for (const NamedType& nt : kBacklogTypes) {
    const size_t i = static_cast<size_t>(nt.type);
    const int64_t n = c.backlog_msgs[i];
    r.Metric(std::string("server.backlog_msgs.") + nt.name,
             static_cast<double>(n), "count");
    r.Metric(std::string("server.backlog_depth.") + nt.name,
             drain_ns > 0 ? c.backlog_ns[i] / drain_ns : 0.0, "msgs",
             Fmt("(%.3f ms waited / %.3f drain thread-s; mean %.2f us/msg)",
                 c.backlog_ns[i] * 1e-6, drain_ns * 1e-9,
                 n > 0 ? c.backlog_ns[i] * 1e-3 / n : 0.0));
  }
  // net
  const double ops = static_cast<double>(t.pulls + t.pushes + t.localizes);
  r.Metric("net.msgs", static_cast<double>(c.net_msgs), "count");
  r.Metric("net.remote_msgs", static_cast<double>(c.net_remote), "count");
  r.Metric("net.bytes", static_cast<double>(c.net_bytes), "B");
  r.Ratio("net.msgs_per_op", static_cast<double>(c.net_msgs), ops,
          "worker pull/push/localize calls");
  for (const NamedType& nt : kNetTypes) {
    r.Metric(std::string("net.msgs.") + nt.name,
             static_cast<double>(c.net_by_type[static_cast<size_t>(nt.type)]),
             "count");
  }
  // ps.replica_manager
  r.Metric("replica.reads", static_cast<double>(c.replica_reads), "count");
  r.Metric("replica.writes", static_cast<double>(c.replica_writes), "count");
  r.Metric("replica.flushed_keys", static_cast<double>(c.replica_flushed),
           "count");
  r.Ratio("replica.read_share", static_cast<double>(c.replica_reads),
          static_cast<double>(c.replica_reads + c.remote_reads),
          "non-owned key reads");
  // ps.coalescer
  r.Metric("coalesce.ops", static_cast<double>(c.coalesce_ops), "count");
  r.Metric("coalesce.batches", static_cast<double>(c.coalesce_batches),
           "count");
  r.Ratio("coalesce.mean_batch", static_cast<double>(c.coalesce_sub_ops),
          static_cast<double>(c.coalesce_batches), "sub-ops per batch");
  r.Metric("coalesce.forced_drains", static_cast<double>(c.coalesce_forced),
           "count");
  // adapt
  r.Metric("adapt.samples", static_cast<double>(c.adapt_samples), "count");
  r.Metric("adapt.dropped_samples", static_cast<double>(c.adapt_dropped),
           "count");
  r.Ratio("adapt.dropped_share", static_cast<double>(c.adapt_dropped),
          static_cast<double>(c.adapt_samples + c.adapt_dropped),
          "samples recorded");
  r.Metric("adapt.localizes", static_cast<double>(c.adapt_localizes),
           "count");
  r.Metric("adapt.evictions", static_cast<double>(c.adapt_evictions),
           "count");
  r.Metric("adapt.pinned", static_cast<double>(c.adapt_pinned), "count");
  r.Metric("adapt.unpinned", static_cast<double>(c.adapt_unpinned), "count");
  r.Metric("adapt.warmup_requests",
           t.trials > 0 ? static_cast<double>(t.adapt_warmup_requests) /
                              t.trials
                        : 0.0,
           "count", "(mean per trial: requests served before the first pin)");
  // benchmark tracing
  const double traced_rate = MedianRate(t);
  const double base = MedianRate(untraced);
  r.Metric("trace.overhead_frac",
           base > 0 ? 1.0 - traced_rate / base : 0.0, "ratio",
           Fmt("(median window items/s: traced %.6g vs untraced %.6g)",
               traced_rate, base));
}

// --- run skeleton -------------------------------------------------------------

// Set-ups timed before the first trial, so that setup_s is a median of at
// least 17 even when a run fits only one trial: single set-ups of the same
// system vary by 2x on a shared host, and the first few are the slowest.
constexpr int kExtraSetups = 16;
// Spans kept whole per worker thread for the span dump.
constexpr size_t kKeptSpans = 16384;

// Every set-up starts from a trimmed heap with the peak reset.
std::unique_ptr<ps::PsSystem> TimedSetup(const SetupFn& setup,
                                         std::vector<double>* samples) {
  ResetPeakRss();
  Timer t;
  std::unique_ptr<ps::PsSystem> system = setup();
  samples->push_back(t.ElapsedSeconds());
  return system;
}

// Repeats set-up + trial until one more trial of the last one's duration
// would exceed `seconds` (always at least once).
void RunTrials(double seconds, const SetupFn& setup, const TrialFn& trial,
               PhaseData& phase, std::vector<double>* setup_s) {
  Timer total;
  double last = 0;
  do {
    Timer t;
    std::unique_ptr<ps::PsSystem> system = TimedSetup(setup, setup_s);
    trial(*system, phase);
    ++phase.trials;
    phase.peak_rss_mb.push_back(PeakRssMb());
    system.reset();
    last = t.ElapsedSeconds();
  } while (total.ElapsedSeconds() + last <= seconds);
}

void DumpSpans(const PhaseData& traced, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  std::fprintf(out, "thread\tspan\tparent\tname\tid\tstart_ns\tend_ns\n");
  for (const auto& w : traced.workers) w->trace->WriteTsv(out);
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "perfbench: error writing spans to %s\n",
                 path.c_str());
  }
}

}  // namespace

void RunModes(const Options& opt, Report& report, const SetupFn& setup,
              const TrialFn& trial, int drain_threads) {
  std::vector<double> setup_s;
  for (int i = 0; i < kExtraSetups; ++i) TimedSetup(setup, &setup_s);
  PhaseData untraced;
  if (!opt.trace) {
    RunTrials(opt.seconds, setup, trial, untraced, &setup_s);
    report.Items(untraced.items, untraced.late);
    EmitEndToEnd(report, untraced, setup_s);
    return;
  }
  PhaseData traced;
  traced.traced = true;
  traced.keep_spans = kKeptSpans;
  RunTrials(opt.seconds / 2, setup, trial, untraced, &setup_s);
  RunTrials(opt.seconds / 2, setup, trial, traced, &setup_s);
  report.Items(untraced.items + traced.items, untraced.late + traced.late);
  EmitPerLayer(report, traced, untraced, drain_threads);
  if (!opt.trace_out.empty()) DumpSpans(traced, opt.trace_out);
}

}  // namespace perfbench
}  // namespace lapse
