// zipf-serve: closed-loop embedding serving. One client per worker issues
// requests of 8 asynchronous single-key ops (90% lookups, 10% updates),
// then WaitAll. Keys follow Zipf 1.1 over a hot set every node shares,
// with the adaptive placement engine, replication and request coalescing
// on: the only workload on the remote path, the replica store, the
// coalescer and the placement engine.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/zipf.h"
#include "workloads.h"

namespace lapse {
namespace perfbench {
namespace {

constexpr int kNodes = 2;
constexpr int kWorkersPerNode = 1;
constexpr int kClients = kNodes * kWorkersPerNode;
constexpr uint64_t kKeys = 65536;  // a power of two: KeyFor is a bijection
constexpr size_t kLen = 16;
constexpr double kZipfExponent = 1.1;
constexpr int kOpsPerRequest = 8;
constexpr uint64_t kUpdateOneIn = 10;  // 10% of requests are updates
// Phases are counted in requests per client, not in seconds: the
// placement engine's state (keys tracked, pinned, relocated) follows the
// requests served, so every run covers the same stretch of it whatever
// the host's speed. A window takes about 1 s on a 4-vCPU host.
constexpr int64_t kWarmupRequests = 6000;
constexpr int kWindows = 3;  // measured windows per trial
constexpr int64_t kWindowRequests = 12500;
constexpr int kPinPollEvery = 16;  // requests between placement polls

// Rank -> key scatter shared by all nodes (so the hot set is common) and
// spread uniformly over the homes; the seed picks the rotation.
Key KeyFor(uint64_t rank, uint64_t seed) {
  return (rank * 0x9E3779B1ULL + Mix64(seed)) & (kKeys - 1);
}

// Initial values and update deltas are multiples of 2^-10 well inside the
// float mantissa, so the expected final value of a key is exact whatever
// order its updates are applied or folded in.
Val InitialValue(Key k, size_t d, uint64_t seed) {
  return static_cast<Val>(
             static_cast<int64_t>(Mix64(seed ^ (k * kLen + d)) % 1024) - 512) /
         1024.0f;
}
Val Delta(Key k, size_t d) {
  return static_cast<Val>((k + d) % 7 + 1) / 1024.0f;
}

ps::Config ServeConfig(uint64_t seed) {
  ps::Config cfg;
  cfg.num_nodes = kNodes;
  cfg.workers_per_node = kWorkersPerNode;
  cfg.num_keys = kKeys;
  cfg.uniform_value_length = kLen;
  cfg.arch = ps::Architecture::kLapse;
  cfg.latency = bench::BenchLatency();
  cfg.seed = seed;
  cfg.adaptive.enabled = true;
  // The two placement managers tick every 20 ms, not every 0.5 ms, so
  // that next to two workers and two drain threads spinning they fit the
  // 4-CPU thread budget. Each closed policy window walks every tracked
  // key, and the tracked set grows as the Zipf tail is sampled; at 5 ms
  // ticks the managers' share of the CPUs grew with it and the request p99
  // climbed from ~120 us to 250-1000 us within 3.5 s of serving.
  cfg.adaptive.tick_micros = 20000;
  cfg.replication = true;
  cfg.coalescing = true;
  return cfg;
}

struct Client {
  Rng rng;
  std::vector<uint32_t> updates_of;  // per key: updates this client pushed
  uint64_t request = 0;
};

// One closed-loop phase of `requests` requests. With `d`, every request
// is timed and recorded; with `first_pin`, the client counts requests
// until the node's placement engine has pinned its first replica.
void Serve(ps::Worker& w, ps::PsSystem& system, const ZipfSampler& zipf,
           uint64_t seed, int64_t requests, Client& c, WorkerData* d,
           int64_t* first_pin) {
  ThreadTrace* tr = d != nullptr ? d->trace.get() : nullptr;
  std::vector<std::vector<Key>> keys(kOpsPerRequest, std::vector<Key>(1));
  std::vector<Val> vals(kOpsPerRequest * kLen);
  std::vector<Val> upd(kOpsPerRequest * kLen);
  for (int64_t served = 1; served <= requests; ++served) {
    const uint64_t req = c.request++;
    const bool update = c.rng.Uniform(kUpdateOneIn) == 0;
    for (int i = 0; i < kOpsPerRequest; ++i) {
      const Key k = KeyFor(zipf.Sample(c.rng), seed);
      keys[i][0] = k;
      if (update) {
        for (size_t j = 0; j < kLen; ++j) upd[i * kLen + j] = Delta(k, j);
        ++c.updates_of[k];
      }
    }
    const int64_t t0 = NowNanos();
    {
      Scope step(tr, kStep, req);
      for (int i = 0; i < kOpsPerRequest; ++i) {
        if (update) {
          Scope span(tr, kPush, req);
          w.PushAsync(keys[i], upd.data() + i * kLen);
        } else {
          Scope span(tr, kPull, req);
          w.PullAsync(keys[i], vals.data() + i * kLen);
        }
      }
      Scope span(tr, kWait, req);
      w.WaitAll();
    }
    if (d != nullptr) {
      const int64_t ns = NowNanos() - t0;
      d->Timed(ns);
      if (update) d->write_ns.Add(ns);
      ++d->items;
      (update ? d->pushes : d->pulls) += kOpsPerRequest;
    }
    if (first_pin != nullptr && *first_pin < 0 &&
        served % kPinPollEvery == 0 &&
        system.placement_manager(w.node()).stats().replicas_pinned > 0) {
      *first_pin = served;
    }
  }
  if (first_pin != nullptr && *first_pin < 0) *first_pin = requests;
}

}  // namespace

int RunZipfServe(const Options& opt) {
  Report report;
  const ZipfSampler zipf(kKeys, kZipfExponent);
  const SetupFn setup = [&] {
    auto system = std::make_unique<ps::PsSystem>(ServeConfig(opt.seed));
    std::vector<Val> v(kLen);
    for (Key k = 0; k < kKeys; ++k) {
      for (size_t d = 0; d < kLen; ++d) v[d] = InitialValue(k, d, opt.seed);
      system->SetValue(k, v.data());
    }
    return system;
  };

  int trial_no = 0;
  const TrialFn trial = [&](ps::PsSystem& system, PhaseData& phase) {
    std::vector<Client> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(Client{
          Rng(Mix64(opt.seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<uint64_t>(trial_no * kClients + i))),
          std::vector<uint32_t>(kKeys, 0), 0});
    }
    int64_t first_pin = -1;
    system.Run([&](ps::Worker& w) {
      w.Barrier();
      Serve(w, system, zipf, opt.seed, kWarmupRequests,
            clients[w.worker_id()], nullptr,
            w.worker_id() == 0 ? &first_pin : nullptr);
    });
    phase.adapt_warmup_requests += first_pin;

    system.ResetStats();
    const Counters before = Counters::Read(system);
    for (int window = 0; window < kWindows; ++window) {
      const std::vector<WorkerData*> data = phase.BeginWindow(kClients);
      system.Run([&](ps::Worker& w) {
        WorkerData* d = data[w.worker_id()];
        w.Barrier();
        d->start_ns = NowNanos();
        Serve(w, system, zipf, opt.seed, kWindowRequests,
              clients[w.worker_id()], d, nullptr);
        {
          Scope span(d->trace.get(), kBarrier, clients[w.worker_id()].request);
          w.Barrier();
        }
        d->end_ns = NowNanos();
      });
      phase.EndWindow();
    }
    phase.counters.AddDelta(Counters::Read(system), before);

    // Conservation: every key holds its initial value plus exactly the
    // deltas the clients pushed.
    double max_err = 0;
    int64_t bad_keys = 0, updates = 0;
    std::vector<Val> got(kLen);
    for (Key k = 0; k < kKeys; ++k) {
      int64_t n = 0;
      for (const Client& c : clients) n += c.updates_of[k];
      updates += n;
      system.GetValue(k, got.data());
      bool bad = false;
      for (size_t d = 0; d < kLen; ++d) {
        const double want = static_cast<double>(InitialValue(k, d, opt.seed)) +
                            static_cast<double>(n) * Delta(k, d);
        const double err = std::fabs(got[d] - want);
        max_err = std::max(max_err, err);
        bad = bad || err > 1e-3 + 1e-6 * std::fabs(want);
      }
      bad_keys += bad;
    }
    report.Check(Fmt("trial %d conserves every key", trial_no++),
                 bad_keys == 0,
                 Fmt("%lld of %llu keys off after %lld pushed key updates; "
                     "max error %.3g",
                     static_cast<long long>(bad_keys),
                     static_cast<unsigned long long>(kKeys),
                     static_cast<long long>(updates), max_err));
  };
  RunModes(opt, report, setup, trial, /*drain_threads=*/kNodes);
  return report.Finish();
}

}  // namespace perfbench
}  // namespace lapse
