#ifndef LAPSE_STALE_SSP_SYSTEM_H_
#define LAPSE_STALE_SSP_SYSTEM_H_

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/network.h"
#include "ps/key_layout.h"
#include "ps/op_tracker.h"
#include "stale/replica_store.h"
#include "util/barrier.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace lapse {
namespace stale {

class SspWorker;

// Synchronization strategies of Petuum (Section 4.5 of the paper):
// client-sync = SSP (readers fetch when their replica is too stale),
// server-sync = SSPPush (owners push fresh values to all past readers on
// every global clock advance).
enum class SyncMode { kClientSync, kServerSync };

const char* SyncModeName(SyncMode mode);

// Configuration of the bounded-staleness PS.
struct SspConfig {
  int num_nodes = 4;
  int workers_per_node = 4;
  uint64_t num_keys = 0;
  size_t value_length = 1;
  int staleness = 1;
  SyncMode sync_mode = SyncMode::kClientSync;
  net::LatencyConfig latency = net::LatencyConfig::Lan();
  uint64_t seed = 1;

  int total_workers() const { return num_nodes * workers_per_node; }

  // Fails fast with a clear message on invalid configurations (zero
  // nodes/workers/keys, negative staleness) instead of crashing deep in
  // system setup. Called by the SspSystem constructor.
  void Validate() const;
};

// Internal per-node state (shared by the node's server thread and workers).
struct SspNode {
  NodeId node = -1;
  const SspConfig* config = nullptr;
  const ps::KeyLayout* layout = nullptr;

  // Authoritative values for keys homed here (statically allocated; a stale
  // PS never relocates). Touched only by the server thread after startup.
  std::vector<Val> owned;
  // Which nodes ever accessed each homed key (bit i = node i); drives the
  // server-sync push set.
  std::vector<uint64_t> subscribers;

  ReplicaStore replicas;

  // Write-back buffer of local updates awaiting the next flush.
  Mutex acc_mu;
  std::vector<Val> acc LAPSE_GUARDED_BY(acc_mu);
  std::vector<uint8_t> acc_dirty LAPSE_GUARDED_BY(acc_mu);
  std::vector<Key> dirty_keys LAPSE_GUARDED_BY(acc_mu);

  // Clocks of this node's workers; the node clock is their minimum.
  Mutex clock_mu;
  std::vector<int32_t> worker_clocks LAPSE_GUARDED_BY(clock_mu);
  int32_t node_clock LAPSE_GUARDED_BY(clock_mu) = 0;

  // Server-side view of all node clocks (global clock = minimum).
  std::vector<int32_t> node_clocks;
  struct PendingRead {
    net::Message msg;
    int32_t min_clock;
  };
  std::vector<PendingRead> pending_reads;

  std::vector<std::unique_ptr<ps::OpTracker>> trackers;

  // Messages this node's server finished handling; see Network::Quiesce.
  std::atomic<int64_t> processed_msgs{0};

  SspNode(const SspConfig* cfg, const ps::KeyLayout* lay, NodeId n);
};

// A simulated bounded-staleness parameter server deployment, used as the
// paper's "stale PS" baseline (Petuum) in Figure 9.
class SspSystem {
 public:
  explicit SspSystem(SspConfig config);
  ~SspSystem();

  SspSystem(const SspSystem&) = delete;
  SspSystem& operator=(const SspSystem&) = delete;

  // Spawns all worker threads running `fn` and joins them.
  void Run(const std::function<void(SspWorker&)>& fn);

  // Direct access for initialization/verification (no workers running).
  void SetValue(Key k, const Val* data);
  void GetValue(Key k, Val* dst);

  const SspConfig& config() const { return config_; }
  const ps::KeyLayout& layout() const { return layout_; }
  net::NetStats& net_stats() { return network_.stats(); }
  SspNode& node_state(NodeId n) { return *nodes_[n]; }

 private:
  friend class SspWorker;

  void ServerLoop(NodeId node);
  void HandleRead(SspNode& ctx, net::Endpoint& ep, net::Message msg);
  void AnswerRead(SspNode& ctx, net::Endpoint& ep, const net::Message& msg);
  void HandleFlush(SspNode& ctx, net::Endpoint& ep, net::Message msg);
  void HandleClock(SspNode& ctx, net::Endpoint& ep, const net::Message& msg);
  void HandleReadResp(SspNode& ctx, const net::Message& msg);
  void HandlePushUpdates(SspNode& ctx, const net::Message& msg);
  void PushToSubscribers(SspNode& ctx, net::Endpoint& ep, int32_t clock);
  int32_t GlobalClock(const SspNode& ctx) const;

  SspConfig config_;
  ps::KeyLayout layout_;
  net::Network network_;
  Barrier worker_barrier_;
  std::vector<std::unique_ptr<SspNode>> nodes_;
  std::vector<std::thread> server_threads_;
};

}  // namespace stale
}  // namespace lapse

#endif  // LAPSE_STALE_SSP_SYSTEM_H_
