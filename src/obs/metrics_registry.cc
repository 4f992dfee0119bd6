#include "obs/metrics_registry.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "util/timer.h"

namespace lapse {
namespace obs {
namespace {

void Append(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Append(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n));
}

// Metric names are generated identifiers (letters, digits, dots,
// underscores), but escape defensively so the output always parses.
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void MetricsRegistry::AddCounter(std::string name, const Counter* counter) {
  AddCounter(std::move(name), std::vector<const Counter*>{counter});
}

void MetricsRegistry::AddCounter(std::string name,
                                 std::vector<const Counter*> parts) {
  MutexLock lock(mu_);
  counters_.push_back({std::move(name), std::move(parts)});
}

void MetricsRegistry::AddGauge(std::string name,
                               std::function<int64_t()> fn) {
  MutexLock lock(mu_);
  gauges_.push_back({std::move(name), std::move(fn)});
}

void MetricsRegistry::AddHistogram(std::string name,
                                   const Histogram* histogram) {
  MutexLock lock(mu_);
  histograms_.push_back({std::move(name), histogram});
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.taken_ns = NowNanos();
  snap.counters.reserve(counters_.size());
  for (const CounterEntry& e : counters_) {
    MetricsSnapshot::CounterValue v{e.name, 0, 0};
    for (const Counter* c : e.parts) {
      v.count += c->count();
      v.sum += c->sum();
    }
    snap.counters.push_back(std::move(v));
  }
  snap.gauges.reserve(gauges_.size());
  for (const GaugeEntry& e : gauges_) {
    snap.gauges.push_back({e.name, e.fn()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const HistogramEntry& e : histograms_) {
    snap.histograms.push_back({e.name, e.histogram->Summarize()});
  }
  return snap;
}

std::string MetricsRegistry::ToJson(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  Append(&out, "{\n  \"taken_ns\": %" PRId64 ",\n  \"counters\": {",
         snap.taken_ns);
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    const auto& c = snap.counters[i];
    Append(&out,
           "%s\n    \"%s\": {\"count\": %" PRId64 ", \"sum\": %" PRId64 "}",
           i == 0 ? "" : ",", EscapeJson(c.name).c_str(), c.count, c.sum);
  }
  out += "\n  },\n  \"gauges\": {";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    const auto& g = snap.gauges[i];
    Append(&out, "%s\n    \"%s\": %" PRId64, i == 0 ? "" : ",",
           EscapeJson(g.name).c_str(), g.value);
  }
  out += "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    const HistogramSummary& s = h.summary;
    Append(&out,
           "%s\n    \"%s\": {\"count\": %" PRId64 ", \"sum\": %" PRId64
           ", \"min\": %" PRId64 ", \"max\": %" PRId64
           ", \"mean\": %.3f, \"p50\": %" PRId64 ", \"p95\": %" PRId64
           ", \"p99\": %" PRId64 ", \"p999\": %" PRId64 "}",
           i == 0 ? "" : ",", EscapeJson(h.name).c_str(), s.count, s.sum,
           s.min, s.max, s.Mean(), s.p50, s.p95, s.p99, s.p999);
  }
  out += "\n  }\n}\n";
  return out;
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  const std::string json = ToJson(Snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = (std::fclose(f) == 0) && written == json.size();
  return ok;
}

size_t MetricsRegistry::NumMetrics() const {
  MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace obs
}  // namespace lapse
