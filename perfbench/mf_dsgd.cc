// mf-dsgd: DSGD matrix factorization on Lapse, with the access pattern of
// mf::TrainDsgdOnPs (rows localized once, each subepoch's column block
// localized before it, one barrier per subepoch). Once the blocks are
// local every Pull/Push takes the shared-memory fast path, so this
// workload loads the worker API, the trainer's compute and the barrier,
// and leaves net, server drain, replicas, coalescer and adapt idle.
#include <cmath>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "mf/block_schedule.h"
#include "mf/dsgd.h"
#include "mf/matrix_gen.h"
#include "util/timer.h"
#include "workloads.h"

namespace lapse {
namespace perfbench {
namespace {

constexpr int kNodes = 2;
constexpr int kWorkersPerNode = 2;
constexpr uint64_t kRows = 20000;
constexpr uint64_t kCols = 5000;
constexpr uint64_t kCells = 1'000'000;
constexpr int kRank = 16;
constexpr int kWarmupEpochs = 1;
constexpr int kMeasuredEpochs = 3;
constexpr int kEpochs = kWarmupEpochs + kMeasuredEpochs;
// A step takes well under a microsecond, so only every n-th is timed.
constexpr uint64_t kTimeEvery = 8;

struct Mf {
  mf::SparseMatrix matrix;
  mf::DsgdConfig cfg;
  std::unique_ptr<mf::BlockSchedule> schedule;
  std::unique_ptr<mf::DsgdPartition> partition;
};

// Runs epochs [first, first + count) of TrainDsgdOnPs's schedule in one
// Run() phase. `localize_rows` does the once-per-training row relocation
// first. With `data`, worker i records its measured window, latencies and
// spans into data[i].
void RunEpochs(ps::PsSystem& system, const Mf& m, int first, int count,
               bool localize_rows, const std::vector<WorkerData*>* data,
               EpochLosses* losses) {
  const mf::BlockSchedule& schedule = *m.schedule;
  const mf::DsgdConfig& config = m.cfg;
  const int rank = config.rank;
  system.Run([&](ps::Worker& w) {
    const int wid = w.worker_id();
    WorkerData* d = data != nullptr ? (*data)[wid] : nullptr;
    ThreadTrace* tr = d != nullptr ? d->trace.get() : nullptr;

    if (localize_rows) {
      std::vector<Key> row_keys;
      for (uint64_t r = schedule.RowBegin(wid); r < schedule.RowEnd(wid);
           ++r) {
        row_keys.push_back(mf::RowKey(r));
      }
      if (!row_keys.empty()) w.Localize(row_keys);
    }
    w.Barrier();
    if (d != nullptr) d->start_ns = NowNanos();

    std::vector<Val> factors(2 * rank);
    std::vector<Val> deltas(2 * rank);
    uint64_t step = 0;
    for (int epoch = first; epoch < first + count; ++epoch) {
      double loss = 0;
      int64_t n = 0;
      for (int sub = 0; sub < schedule.num_blocks(); ++sub) {
        const int block = schedule.BlockForWorker(wid, sub);
        {
          Scope span(tr, kLocalize, step);
          std::vector<Key> col_keys;
          for (uint64_t c = schedule.BlockBegin(block);
               c < schedule.BlockEnd(block); ++c) {
            col_keys.push_back(mf::ColKey(m.matrix.rows, c));
          }
          if (!col_keys.empty()) w.Localize(col_keys);
        }
        if (d != nullptr) ++d->localizes;
        for (const uint32_t idx : m.partition->Entries(wid, block)) {
          const bool timed = d != nullptr && step % kTimeEvery == 0;
          const int64_t t0 = timed ? NowNanos() : 0;
          int64_t t_push = 0;
          {
            Scope step_span(tr, kStep, step);
            const mf::MatrixEntry& cell = m.matrix.entries[idx];
            const std::vector<Key> keys = {
                mf::RowKey(cell.row), mf::ColKey(m.matrix.rows, cell.col)};
            {
              Scope span(tr, kPull, step);
              w.Pull(keys, factors.data());
            }
            {
              Scope span(tr, kCompute, step);
              const Val* wi = factors.data();
              const Val* hj = factors.data() + rank;
              float dot = 0;
              for (int t = 0; t < rank; ++t) dot += wi[t] * hj[t];
              const float err = dot - cell.value;
              loss += static_cast<double>(err) * err;
              ++n;
              for (int t = 0; t < rank; ++t) {
                deltas[t] = -config.lr * (err * hj[t] + config.reg * wi[t]);
                deltas[rank + t] =
                    -config.lr * (err * wi[t] + config.reg * hj[t]);
              }
            }
            if (timed) t_push = NowNanos();
            Scope span(tr, kPush, step);
            w.Push(keys, deltas.data());
          }
          if (timed) {
            const int64_t t1 = NowNanos();
            d->write_ns.Add(t1 - t_push);
            d->Timed(t1 - t0);
          }
          ++step;
        }
        Scope span(tr, kBarrier, step);
        w.Barrier();  // after each subepoch (Appendix A)
      }
      losses->Add(epoch, loss, n);
      Scope span(tr, kBarrier, step);
      w.Barrier();
    }
    if (d != nullptr) {
      d->end_ns = NowNanos();
      d->items += static_cast<int64_t>(step);
      d->pulls += static_cast<int64_t>(step);
      d->pushes += static_cast<int64_t>(step);
    }
  });
}

bool SameLoss(double a, double b) {
  // Per-worker sums are bit-identical; only the order in which the
  // workers' sums are added may differ.
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

std::string LossList(const EpochLosses& l) {
  std::string s;
  for (int e = 0; e < kEpochs; ++e) s += Fmt("%s%.9g", e ? " " : "", l.Loss(e));
  return s;
}

}  // namespace

int RunMfDsgd(const Options& opt) {
  Report report;
  mf::MatrixGenConfig gen;
  gen.rows = kRows;
  gen.cols = kCols;
  gen.nnz = kCells;
  gen.rank = kRank;
  gen.seed = opt.seed;
  Mf m;
  m.matrix = mf::GenerateLowRankMatrix(gen);
  m.cfg.rank = kRank;
  m.cfg.epochs = kEpochs;
  m.cfg.seed = opt.seed;
  m.schedule = std::make_unique<mf::BlockSchedule>(
      kRows, kCols, kNodes * kWorkersPerNode);
  m.partition = std::make_unique<mf::DsgdPartition>(m.matrix, *m.schedule);

  const SetupFn setup = [&] {
    auto system = std::make_unique<ps::PsSystem>(mf::MakeDsgdPsConfig(
        m.matrix, m.cfg, kNodes, kWorkersPerNode, bench::BenchLatency()));
    mf::InitFactorsPs(*system, m.matrix, m.cfg);
    return system;
  };

  // Reference: the repo trainer on the same matrix and seed.
  std::vector<mf::EpochResult> ref;
  int64_t ref_reloc = 0;
  {
    auto system = setup();
    ref = mf::TrainDsgdOnPs(*system, m.matrix, m.cfg);
    ref_reloc = system->TotalRelocatedKeys();
  }
  // The benchmark's own loop, one epoch per Run() so the full loss can be
  // evaluated between epochs.
  {
    auto system = setup();
    EpochLosses losses(kEpochs);
    std::vector<double> full = {mf::DsgdFullLossPs(*system, m.matrix, m.cfg)};
    for (int e = 0; e < kEpochs; ++e) {
      RunEpochs(*system, m, e, 1, e == 0, nullptr, &losses);
      full.push_back(mf::DsgdFullLossPs(*system, m.matrix, m.cfg));
    }
    bool same = true;
    std::string detail;
    for (int e = 0; e < kEpochs; ++e) {
      same = same && SameLoss(losses.Loss(e), ref[e].loss);
      detail += Fmt("%s%.9g/%.9g", e ? " " : "", losses.Loss(e), ref[e].loss);
    }
    report.Check("epoch losses match mf::TrainDsgdOnPs", same,
                 "benchmark/reference " + detail);
    const int64_t reloc = system->TotalRelocatedKeys();
    report.Check("relocated keys match mf::TrainDsgdOnPs", reloc == ref_reloc,
                 Fmt("%lld vs %lld", static_cast<long long>(reloc),
                     static_cast<long long>(ref_reloc)));
    bool decreasing = true;
    detail.clear();
    for (size_t e = 0; e < full.size(); ++e) {
      if (e > 0) decreasing = decreasing && full[e] < full[e - 1];
      detail += Fmt("%s%.6g", e ? " " : "", full[e]);
    }
    report.Check("mf::DsgdFullLossPs decreases every epoch",
                 decreasing && std::isfinite(full.back()), detail);
  }

  double final_loss = 0;
  int trial_no = 0;
  const TrialFn trial = [&](ps::PsSystem& system, PhaseData& phase) {
    EpochLosses losses(kEpochs);
    RunEpochs(system, m, 0, kWarmupEpochs, true, nullptr, &losses);
    system.ResetStats();
    const Counters before = Counters::Read(system);
    for (int e = kWarmupEpochs; e < kEpochs; ++e) {
      const std::vector<WorkerData*> data =
          phase.BeginWindow(kNodes * kWorkersPerNode);
      RunEpochs(system, m, e, 1, false, &data, &losses);
      phase.EndWindow();
    }
    phase.counters.AddDelta(Counters::Read(system), before);
    bool same = true;
    for (int e = 0; e < kEpochs; ++e) {
      same = same && SameLoss(losses.Loss(e), ref[e].loss);
    }
    report.Check(Fmt("trial %d epoch losses match the reference", trial_no++),
                 same, LossList(losses));
    final_loss = losses.Loss(kEpochs - 1);
  };
  RunModes(opt, report, setup, trial, /*drain_threads=*/kNodes);
  report.Note(Fmt("final_loss %.9g (training loss of epoch %d)", final_loss,
                  kEpochs));
  return report.Finish();
}

}  // namespace perfbench
}  // namespace lapse
