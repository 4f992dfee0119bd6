#ifndef LAPSE_NET_MESSAGE_H_
#define LAPSE_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lapse {

// Parameter key. Keys are dense integers in [0, num_keys).
using Key = uint64_t;
// Parameter value element type. A parameter is a short vector of Val.
using Val = float;
// Logical node (machine) id in [0, num_nodes).
using NodeId = int32_t;

namespace net {

// All message kinds that cross the simulated network. The PS core, the
// stale (bounded-staleness) PS, and the low-level baseline share the
// transport, so all their types are enumerated here.
enum class MsgType : uint8_t {
  // -- retired single-op formats ----------------------------------------
  // Keyed pulls and pushes travel only as kBatchOp envelopes (one sub-op
  // when not coalesced) answered by kBatchResp, so the PS core sends none
  // of these four. They stay declared because the repo benchmark's
  // per-type message counters (perfbench/harness.cc) name them, and raw
  // network tests use them as plain payload types.
  kPull,
  kPullResp,
  kPush,
  kPushAck,
  // -- dynamic parameter allocation (Section 3.2 of the paper) ----------
  kLocalize,          // requester -> home: request relocation   (msg 1)
  kRelocateInstruct,  // home -> old owner: hand the key over    (msg 2)
  kRelocateTransfer,  // old owner -> requester: key + value     (msg 3)
  kLocalizeNoop,      // home -> requester: already owner, nothing to do
  kLocationUpdate,    // broadcast-relocation strategy: direct-mail update
  // -- replication of contended read-mostly keys (ps::ReplicaManager) ---
  kReplicaRegister,   // replica holder -> home: pin notification
  kReplicaInvalidate, // home -> replica holders: ownership moved, drop copy
  kReplicaUnregister, // ex-holder -> home: unpinned, stop invalidating me
  // -- stale PS (Petuum-like, Section 4.5) ------------------------------
  kSspRead,           // replica miss/staleness: fetch from owner
  kSspReadResp,       // owner -> reader: fresh value + owner clock
  kSspFlush,          // accumulated local updates -> owner
  kSspFlushAck,       // owner -> flusher
  kSspClock,          // node clock advance notification -> owner
  kSspPushUpdates,    // server-sync mode: owner pushes values to readers
  // -- low-level matrix factorization baseline (Section 4.4) ------------
  kBlockTransfer,     // raw factor block handed node-to-node
  // -- keyed operations (ps::Coalescer envelope layout) -------------------
  kBatchOp,           // worker/server -> server: pulls/pushes of 1+ ops
  kBatchResp,         // owner -> origin node: values/acks of served entries
  // -- control -----------------------------------------------------------
  kShutdown,          // terminate a server loop
  kNumTypes
};

// Human-readable name for a message type (stats/debug output).
const char* MsgTypeName(MsgType type);

// Thread-local free lists of message payload buffers. A consumer thread that
// finishes with a message Recycle()s its buffers; outgoing messages built on
// the same thread then reuse that capacity. The server thread both receives
// requests and sends replies, so its request->reply path becomes
// allocation-free in steady state.
class BufferPool {
 public:
  static std::vector<Key> GetKeys();
  static std::vector<Val> GetVals();
  static void PutKeys(std::vector<Key> v);
  static void PutVals(std::vector<Val> v);
  static std::vector<int64_t> GetAux();
  static void PutAux(std::vector<int64_t> v);
};

// A network message. Plain struct; moved, never copied on the hot path.
struct Message {
  MsgType type = MsgType::kShutdown;

  NodeId src_node = -1;   // sending node
  int32_t src_thread = -1;  // sending thread slot (0 = server, >=1 workers)
  NodeId dst_node = -1;

  // Origin of the worker operation this message belongs to; responses are
  // routed back to (orig_node, orig_thread, op_id). Forwarded messages keep
  // the origin unchanged.
  NodeId orig_node = -1;
  int32_t orig_thread = -1;
  uint64_t op_id = 0;

  // For relocation messages: the node that asked for the localization.
  NodeId requester_node = -1;

  // Payload.
  std::vector<Key> keys;
  std::vector<Val> vals;
  std::vector<int64_t> aux;  // protocol-specific extras (clocks, block ids)

  // Returns the payload buffers to the calling thread's BufferPool. Call
  // when the message has been fully handled; the moved-from vectors stay
  // valid and empty.
  void Recycle() {
    BufferPool::PutKeys(std::move(keys));
    BufferPool::PutVals(std::move(vals));
    BufferPool::PutAux(std::move(aux));
    keys.clear();
    vals.clear();
    aux.clear();
  }

  // Simulation bookkeeping (set by the network).
  int64_t send_ns = 0;
  int64_t deliver_ns = 0;
  int32_t hops = 0;  // forwarding depth, for stats & loop guards

  // Observability: this message belongs to a sampled (traced) operation.
  // Servers record per-hop queue/net phase events for traced messages and
  // the completion event when a traced response finishes its op. The flag
  // must survive every hop of the protocol -- forwards, replies, deferral
  // copies, and the localize -> instruct -> transfer chain all propagate
  // it (the same plumbing discipline as the replication flags).
  bool traced = false;

  // Approximate wire size used by the latency model and byte counters.
  size_t WireBytes() const {
    return 48 + keys.size() * sizeof(Key) + vals.size() * sizeof(Val) +
           aux.size() * sizeof(int64_t);
  }

  std::string DebugString() const;
};

}  // namespace net
}  // namespace lapse

#endif  // LAPSE_NET_MESSAGE_H_
