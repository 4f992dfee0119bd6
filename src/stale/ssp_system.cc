#include "stale/ssp_system.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "stale/ssp_worker.h"
#include "util/logging.h"
#include "util/rng.h"

namespace lapse {
namespace stale {

using net::Message;
using net::MsgType;

const char* SyncModeName(SyncMode mode) {
  switch (mode) {
    case SyncMode::kClientSync:
      return "ClientSync";
    case SyncMode::kServerSync:
      return "ServerSync";
  }
  return "?";
}

SspNode::SspNode(const SspConfig* cfg, const ps::KeyLayout* lay, NodeId n)
    : node(n),
      config(cfg),
      layout(lay),
      owned(lay->TotalVals(), 0.0f),
      subscribers(lay->num_keys(), 0),
      replicas(lay),
      acc(lay->TotalVals(), 0.0f),
      acc_dirty(lay->num_keys(), 0),
      worker_clocks(cfg->workers_per_node, 0),
      node_clocks(cfg->num_nodes, 0) {
  trackers.reserve(cfg->workers_per_node + 1);
  for (int t = 0; t <= cfg->workers_per_node; ++t) {
    trackers.push_back(std::make_unique<ps::OpTracker>());
  }
}

void SspConfig::Validate() const {
  LAPSE_CHECK_GT(num_nodes, 0) << "SspConfig: num_nodes must be positive";
  LAPSE_CHECK_LE(num_nodes, 64)
      << "SspConfig: subscriber mask is 64-bit, num_nodes must be <= 64";
  LAPSE_CHECK_GT(workers_per_node, 0)
      << "SspConfig: workers_per_node must be positive";
  LAPSE_CHECK_GT(num_keys, 0u)
      << "SspConfig: num_keys is 0 -- the key space must be non-empty";
  LAPSE_CHECK_GT(value_length, 0u)
      << "SspConfig: value_length must be positive";
  LAPSE_CHECK_GE(staleness, 0)
      << "SspConfig: staleness bound must be >= 0 (got " << staleness
      << "); 0 means bulk-synchronous";
}

SspSystem::SspSystem(SspConfig config)
    : config_((config.Validate(), std::move(config))),
      layout_(config_.num_keys, config_.value_length, config_.num_nodes),
      network_(config_.num_nodes, config_.latency, config_.seed),
      worker_barrier_(static_cast<size_t>(config_.total_workers())) {
  nodes_.reserve(config_.num_nodes);
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    nodes_.push_back(std::make_unique<SspNode>(&config_, &layout_, n));
  }
  server_threads_.reserve(config_.num_nodes);
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    server_threads_.emplace_back([this, n] { ServerLoop(n); });
  }
}

SspSystem::~SspSystem() {
  network_.Shutdown();
  for (auto& t : server_threads_) t.join();
}

void SspSystem::Run(const std::function<void(SspWorker&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(config_.total_workers());
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    for (int t = 1; t <= config_.workers_per_node; ++t) {
      const int global_id = n * config_.workers_per_node + (t - 1);
      threads.emplace_back([this, n, t, global_id, &fn] {
        const uint64_t seed = Mix64(config_.seed ^
                                    (0x55f00dULL + static_cast<uint64_t>(
                                                       global_id + 1)));
        SspWorker worker(this, nodes_[n].get(), &worker_barrier_, t,
                         global_id, seed);
        fn(worker);
      });
    }
  }
  for (auto& t : threads) t.join();
  // Clock broadcasts and server-sync pushes are fire-and-forget; settle them
  // before returning so callers observe final replica/stat state.
  network_.Quiesce([this](NodeId n) {
    return nodes_[n]->processed_msgs.load(std::memory_order_acquire);
  });
}

int32_t SspSystem::GlobalClock(const SspNode& ctx) const {
  int32_t g = ctx.node_clocks[0];
  for (const int32_t c : ctx.node_clocks) g = std::min(g, c);
  return g;
}

void SspSystem::ServerLoop(NodeId node) {
  SspNode& ctx = *nodes_[node];
  auto endpoint = network_.CreateEndpoint(node, /*thread=*/0);
  Message msg;
  while (network_.Recv(node, &msg)) {
    switch (msg.type) {
      case MsgType::kSspRead:
        HandleRead(ctx, *endpoint, std::move(msg));
        break;
      case MsgType::kSspFlush:
        HandleFlush(ctx, *endpoint, std::move(msg));
        break;
      case MsgType::kSspClock:
        HandleClock(ctx, *endpoint, msg);
        break;
      case MsgType::kSspReadResp:
        HandleReadResp(ctx, msg);
        break;
      case MsgType::kSspFlushAck:
        ctx.trackers[msg.orig_thread]->CompleteKeys(msg.op_id,
                                                    msg.keys.size());
        break;
      case MsgType::kSspPushUpdates:
        HandlePushUpdates(ctx, msg);
        break;
      case MsgType::kShutdown:
        return;
      default:
        LAPSE_LOG(Fatal) << "ssp server got " << msg.DebugString();
    }
    ctx.processed_msgs.fetch_add(1, std::memory_order_release);
    msg = Message();
  }
}

void SspSystem::HandleRead(SspNode& ctx, net::Endpoint& ep, Message msg) {
  LAPSE_CHECK(!msg.aux.empty());
  const int32_t need = static_cast<int32_t>(msg.aux[0]);
  for (const Key k : msg.keys) {
    ctx.subscribers[k] |= (1ULL << msg.orig_node);
  }
  if (GlobalClock(ctx) >= need) {
    AnswerRead(ctx, ep, msg);
  } else {
    // SSP blocking: the reader is ahead of the stragglers; park the request
    // until the global clock catches up.
    ctx.pending_reads.push_back(SspNode::PendingRead{std::move(msg), need});
  }
}

void SspSystem::AnswerRead(SspNode& ctx, net::Endpoint& ep,
                           const Message& msg) {
  Message r;
  r.type = MsgType::kSspReadResp;
  r.dst_node = msg.orig_node;
  r.orig_node = msg.orig_node;
  r.orig_thread = msg.orig_thread;
  r.op_id = msg.op_id;
  r.keys = msg.keys;
  r.aux.push_back(GlobalClock(ctx));
  for (const Key k : msg.keys) {
    const Val* v = ctx.owned.data() + layout_.Offset(k);
    r.vals.insert(r.vals.end(), v, v + layout_.Length(k));
  }
  ep.Send(std::move(r));
}

void SspSystem::HandleFlush(SspNode& ctx, net::Endpoint& ep, Message msg) {
  size_t off = 0;
  for (const Key k : msg.keys) {
    const size_t len = layout_.Length(k);
    Val* slot = ctx.owned.data() + layout_.Offset(k);
    for (size_t j = 0; j < len; ++j) slot[j] += msg.vals[off + j];
    off += len;
    ctx.subscribers[k] |= (1ULL << msg.orig_node);
  }
  Message ack;
  ack.type = MsgType::kSspFlushAck;
  ack.dst_node = msg.orig_node;
  ack.orig_node = msg.orig_node;
  ack.orig_thread = msg.orig_thread;
  ack.op_id = msg.op_id;
  ack.keys = std::move(msg.keys);
  ack.vals.clear();
  ep.Send(std::move(ack));
}

void SspSystem::HandleClock(SspNode& ctx, net::Endpoint& ep,
                            const Message& msg) {
  LAPSE_CHECK(!msg.aux.empty());
  const int32_t before = GlobalClock(ctx);
  ctx.node_clocks[msg.src_node] =
      std::max(ctx.node_clocks[msg.src_node],
               static_cast<int32_t>(msg.aux[0]));
  const int32_t after = GlobalClock(ctx);
  if (after == before) return;

  // Wake parked reads that became satisfiable.
  std::vector<SspNode::PendingRead> still_pending;
  for (auto& pr : ctx.pending_reads) {
    if (after >= pr.min_clock) {
      AnswerRead(ctx, ep, pr.msg);
    } else {
      still_pending.push_back(std::move(pr));
    }
  }
  ctx.pending_reads = std::move(still_pending);

  if (config_.sync_mode == SyncMode::kServerSync) {
    PushToSubscribers(ctx, ep, after);
  }
}

void SspSystem::PushToSubscribers(SspNode& ctx, net::Endpoint& ep,
                                  int32_t clock) {
  // SSPPush eagerly replicates *every* previously-accessed key to each
  // subscriber -- the unnecessary-communication behaviour the paper blames
  // for Petuum's limited scalability (Section 4.5).
  const uint64_t begin = layout_.HomeBegin(ctx.node);
  const uint64_t end = layout_.HomeEnd(ctx.node);
  for (NodeId n = 0; n < config_.num_nodes; ++n) {
    if (n == ctx.node) continue;
    Message m;
    m.type = MsgType::kSspPushUpdates;
    m.dst_node = n;
    m.aux.push_back(clock);
    for (Key k = begin; k < end; ++k) {
      if ((ctx.subscribers[k] & (1ULL << n)) == 0) continue;
      m.keys.push_back(k);
      const Val* v = ctx.owned.data() + layout_.Offset(k);
      m.vals.insert(m.vals.end(), v, v + layout_.Length(k));
    }
    if (!m.keys.empty()) ep.Send(std::move(m));
  }
}

void SspSystem::HandleReadResp(SspNode& ctx, const Message& msg) {
  LAPSE_CHECK(!msg.aux.empty());
  const int32_t tag = static_cast<int32_t>(msg.aux[0]);
  ps::OpTracker& tracker = *ctx.trackers[msg.orig_thread];
  size_t off = 0;
  for (const Key k : msg.keys) {
    const size_t len = layout_.Length(k);
    const Val* v = msg.vals.data() + off;
    ctx.replicas.Install(k, v, tag);
    Val* dst = tracker.PullDst(msg.op_id, k);
    LAPSE_CHECK(dst != nullptr);
    std::memcpy(dst, v, len * sizeof(Val));
    off += len;
  }
  tracker.CompleteKeys(msg.op_id, msg.keys.size());
}

void SspSystem::HandlePushUpdates(SspNode& ctx, const Message& msg) {
  const int32_t tag = static_cast<int32_t>(msg.aux[0]);
  size_t off = 0;
  for (const Key k : msg.keys) {
    ctx.replicas.Install(k, msg.vals.data() + off, tag);
    off += layout_.Length(k);
  }
}

void SspSystem::SetValue(Key k, const Val* data) {
  SspNode& ctx = *nodes_[layout_.Home(k)];
  std::memcpy(ctx.owned.data() + layout_.Offset(k), data,
              layout_.Length(k) * sizeof(Val));
}

void SspSystem::GetValue(Key k, Val* dst) {
  SspNode& ctx = *nodes_[layout_.Home(k)];
  std::memcpy(dst, ctx.owned.data() + layout_.Offset(k),
              layout_.Length(k) * sizeof(Val));
}

}  // namespace stale
}  // namespace lapse
