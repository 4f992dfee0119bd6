// kge-relocate: ComplEx knowledge-graph embeddings on Lapse, with the
// access pattern of kge::TrainKge: data clustering (relations pinned to the
// node that trains them) and latency hiding (the entities of the data
// point `lookahead` steps ahead are localized asynchronously). About three
// keys relocate per triple, so the relocation protocol and its round trips
// sit on the critical path whenever the lookahead fails to hide them, and
// every step pushes AdaGrad deltas.
#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "kge/kg_gen.h"
#include "kge/kge_model.h"
#include "kge/kge_train.h"
#include "ml/adagrad.h"
#include "ml/loss.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workloads.h"

namespace lapse {
namespace perfbench {
namespace {

constexpr int kNodes = 2;
constexpr int kWorkersPerNode = 1;
constexpr int kWarmupEpochs = 1;
constexpr int kMeasuredEpochs = 4;  // one measured window each
constexpr int kEpochs = kWarmupEpochs + kMeasuredEpochs;

// TrainKge's deterministic negatives for triple `idx` (kge_train.cc).
void NegativesFor(size_t idx, uint64_t seed, uint32_t num_entities,
                  int per_side, std::vector<uint32_t>* neg_s,
                  std::vector<uint32_t>* neg_o) {
  Rng rng(Mix64(seed ^ (0xbeefULL + idx * 0x9e3779b97f4a7c15ULL)));
  neg_s->clear();
  neg_o->clear();
  for (int i = 0; i < per_side; ++i) {
    neg_s->push_back(static_cast<uint32_t>(rng.Uniform(num_entities)));
    neg_o->push_back(static_cast<uint32_t>(rng.Uniform(num_entities)));
  }
}

// TrainKge's unique key set of triple `idx` (kge_train.cc).
std::vector<Key> TripleKeys(const kge::KnowledgeGraph& kg,
                            const kge::KgeConfig& cfg, const kge::Triple& t,
                            size_t idx, bool include_relation) {
  std::vector<uint32_t> neg_s, neg_o;
  NegativesFor(idx, cfg.seed, kg.num_entities, cfg.neg_samples, &neg_s,
               &neg_o);
  std::vector<Key> keys;
  keys.push_back(kge::EntityKey(t.s));
  keys.push_back(kge::EntityKey(t.o));
  for (const uint32_t e : neg_s) keys.push_back(kge::EntityKey(e));
  for (const uint32_t e : neg_o) keys.push_back(kge::EntityKey(e));
  if (include_relation) keys.push_back(kge::RelationKey(kg, t.r));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

struct Kge {
  kge::KnowledgeGraph kg;
  kge::KgeConfig cfg;
  std::vector<std::vector<size_t>> triples_of;  // per worker
  std::vector<int> node_of_relation;
};

// TrainKge's data-clustering partition: relations bin-packed onto nodes by
// triple count, a node's triples round-robin over its workers.
void Partition(Kge& k) {
  const kge::KnowledgeGraph& kg = k.kg;
  k.triples_of.assign(kNodes * kWorkersPerNode, {});
  k.node_of_relation.assign(kg.num_relations, 0);
  std::vector<int64_t> relation_count(kg.num_relations, 0);
  for (const kge::Triple& t : kg.triples) ++relation_count[t.r];
  std::vector<uint32_t> order(kg.num_relations);
  for (uint32_t r = 0; r < kg.num_relations; ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return relation_count[a] > relation_count[b];
  });
  std::vector<int64_t> node_load(kNodes, 0);
  for (const uint32_t r : order) {
    const int node = static_cast<int>(
        std::min_element(node_load.begin(), node_load.end()) -
        node_load.begin());
    k.node_of_relation[r] = node;
    node_load[node] += relation_count[r];
  }
  std::vector<int> next_worker_of_node(kNodes, 0);
  for (size_t i = 0; i < kg.triples.size(); ++i) {
    const int node = k.node_of_relation[kg.triples[i].r];
    const int local = next_worker_of_node[node];
    next_worker_of_node[node] = (local + 1) % kWorkersPerNode;
    k.triples_of[node * kWorkersPerNode + local].push_back(i);
  }
}

// Runs epochs [first, first + count) of TrainKge in one Run() phase;
// `pin_relations` does the data-clustering relation localize first. With
// `data`, worker i records its measured window, latencies and spans.
void RunEpochs(ps::PsSystem& system, const Kge& k, int first, int count,
               bool pin_relations, const std::vector<WorkerData*>* data,
               EpochLosses* losses) {
  const kge::KnowledgeGraph& kg = k.kg;
  const kge::KgeConfig& config = k.cfg;
  system.Run([&](ps::Worker& w) {
    auto model = kge::MakeKgeModel(config);
    const size_t ent_len = model->entity_dim();
    const size_t rel_len = model->relation_dim();
    const int wid = w.worker_id();
    const std::vector<size_t>& mine = k.triples_of[wid];
    WorkerData* d = data != nullptr ? (*data)[wid] : nullptr;
    ThreadTrace* tr = d != nullptr ? d->trace.get() : nullptr;

    if (pin_relations && wid % kWorkersPerNode == 0) {
      std::vector<Key> rel_keys;
      for (uint32_t r = 0; r < kg.num_relations; ++r) {
        if (k.node_of_relation[r] == w.node()) {
          rel_keys.push_back(kge::RelationKey(kg, r));
        }
      }
      if (!rel_keys.empty()) w.Localize(rel_keys);
    }
    w.Barrier();
    if (d != nullptr) d->start_ns = NowNanos();

    const size_t max_keys = 2 + 2 * static_cast<size_t>(config.neg_samples) + 1;
    std::vector<Val> values, grads, deltas;
    values.reserve(max_keys * 2 * std::max(ent_len, rel_len));
    std::vector<Val> gs(ent_len), gr(rel_len), go(ent_len);
    std::vector<uint32_t> neg_s, neg_o;
    const size_t lookahead = static_cast<size_t>(std::max(config.lookahead, 1));
    uint64_t step = 0;

    for (int epoch = first; epoch < first + count; ++epoch) {
      double loss = 0;
      int64_t loss_n = 0;
      for (size_t ti = 0; ti < lookahead && ti < mine.size(); ++ti) {
        Scope span(tr, kLocalize, step);
        w.LocalizeAsync(TripleKeys(kg, config, kg.triples[mine[ti]], mine[ti],
                                   /*include_relation=*/false));
        if (d != nullptr) ++d->localizes;
      }
      for (size_t ti = 0; ti < mine.size(); ++ti, ++step) {
        const kge::Triple& t = kg.triples[mine[ti]];
        const int64_t t0 = d != nullptr ? NowNanos() : 0;
        int64_t t_push = 0;
        {
          Scope step_span(tr, kStep, step);
          if (ti + lookahead < mine.size()) {
            Scope span(tr, kLocalize, step);
            const size_t next = mine[ti + lookahead];
            w.LocalizeAsync(TripleKeys(kg, config, kg.triples[next], next,
                                       /*include_relation=*/false));
            if (d != nullptr) ++d->localizes;
          }
          const std::vector<Key> keys =
              TripleKeys(kg, config, t, mine[ti], /*include_relation=*/true);
          std::unordered_map<Key, size_t> offset_of;
          size_t total_len = 0;
          for (const Key key : keys) {
            offset_of[key] = total_len;
            total_len += w.layout().Length(key);
          }
          values.assign(total_len, 0.0f);
          grads.assign(total_len, 0.0f);
          deltas.assign(total_len, 0.0f);
          {
            Scope span(tr, kPull, step);
            w.Pull(keys, values.data());
          }
          {
            Scope span(tr, kCompute, step);
            const size_t rel_off = offset_of[kge::RelationKey(kg, t.r)];
            const Val* rel = values.data() + rel_off;
            Val* rel_grad = grads.data() + rel_off;
            auto accumulate = [&](uint32_t s_ent, uint32_t o_ent, float label) {
              const Val* vs = values.data() + offset_of[kge::EntityKey(s_ent)];
              const Val* vo = values.data() + offset_of[kge::EntityKey(o_ent)];
              const float score = model->Score(vs, rel, vo);
              loss += ml::LogisticLoss(score, label);
              ++loss_n;
              const float g = ml::LogisticLossGrad(score, label);
              model->Gradients(vs, rel, vo, gs.data(), gr.data(), go.data());
              Val* egs = grads.data() + offset_of[kge::EntityKey(s_ent)];
              Val* ego = grads.data() + offset_of[kge::EntityKey(o_ent)];
              for (size_t i = 0; i < ent_len; ++i) {
                egs[i] += g * gs[i];
                ego[i] += g * go[i];
              }
              for (size_t i = 0; i < rel_len; ++i) rel_grad[i] += g * gr[i];
            };
            NegativesFor(mine[ti], config.seed, kg.num_entities,
                         config.neg_samples, &neg_s, &neg_o);
            accumulate(t.s, t.o, +1.0f);
            for (const uint32_t e : neg_s) accumulate(e, t.o, -1.0f);
            for (const uint32_t e : neg_o) accumulate(t.s, e, -1.0f);
            for (const Key key : keys) {
              const size_t off = offset_of[key];
              const size_t emb = w.layout().Length(key) / 2;
              ml::AdagradDelta(values.data() + off, grads.data() + off, emb,
                               config.lr, deltas.data() + off);
            }
          }
          if (d != nullptr) t_push = NowNanos();
          Scope span(tr, kPush, step);
          w.Push(keys, deltas.data());
        }
        if (d != nullptr) {
          const int64_t t1 = NowNanos();
          d->write_ns.Add(t1 - t_push);
          d->Timed(t1 - t0);
        }
      }
      losses->Add(epoch, loss, loss_n);
      {
        Scope span(tr, kBarrier, step);
        w.Barrier();
      }
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

}  // namespace

int RunKgeRelocate(const Options& opt) {
  Report report;
  kge::KgGenConfig gen;
  gen.num_entities = 20000;
  gen.num_relations = 64;
  gen.num_triples = 100000;
  gen.seed = opt.seed;
  Kge k;
  k.kg = kge::GenerateKg(gen);
  k.cfg.model = kge::KgeConfig::Model::kComplEx;
  k.cfg.dim = 16;
  k.cfg.neg_samples = 2;
  k.cfg.data_clustering = true;
  k.cfg.latency_hiding = true;
  k.cfg.lookahead = 2;
  k.cfg.epochs = kEpochs;
  k.cfg.seed = opt.seed;
  Partition(k);

  const SetupFn setup = [&] {
    auto system = std::make_unique<ps::PsSystem>(kge::MakeKgePsConfig(
        k.kg, k.cfg, kNodes, kWorkersPerNode, bench::BenchLatency()));
    kge::InitKgeParams(*system, k.kg, k.cfg);
    return system;
  };

  double final_loss = 0;
  int trial_no = 0;
  const TrialFn trial = [&](ps::PsSystem& system, PhaseData& phase) {
    EpochLosses losses(kEpochs);
    RunEpochs(system, k, 0, kWarmupEpochs, true, nullptr, &losses);
    system.ResetStats();
    const Counters before = Counters::Read(system);
    for (int e = kWarmupEpochs; e < kEpochs; ++e) {
      const std::vector<WorkerData*> data =
          phase.BeginWindow(kNodes * kWorkersPerNode);
      RunEpochs(system, k, e, 1, false, &data, &losses);
      phase.EndWindow();
    }
    phase.counters.AddDelta(Counters::Read(system), before);
    bool ok = true;
    std::string detail;
    for (int e = 0; e < kEpochs; ++e) {
      ok = ok && std::isfinite(losses.Loss(e)) &&
           (e == 0 || losses.Loss(e) < losses.Loss(e - 1));
      detail += Fmt("%s%.6g", e ? " " : "", losses.Loss(e));
    }
    report.Check(Fmt("trial %d loss is finite and decreases", trial_no++), ok,
                 detail);
    final_loss = losses.Loss(kEpochs - 1);
  };
  RunModes(opt, report, setup, trial, /*drain_threads=*/kNodes);
  report.Note(Fmt("final_loss %.6g (training loss of epoch %d)", final_loss,
                  kEpochs));
  return report.Finish();
}

}  // namespace perfbench
}  // namespace lapse
