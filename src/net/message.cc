#include "net/message.h"

#include <sstream>

namespace lapse {
namespace net {

namespace {

// Bounds on pooled buffers per thread: count, and per-buffer capacity (in
// elements) so a burst of large transfer payloads cannot pin hundreds of
// megabytes in the pool forever. Oversized or surplus buffers are simply
// destroyed.
constexpr size_t kMaxPooledBuffers = 64;
constexpr size_t kMaxPooledCapacity = 1 << 16;

template <typename T>
std::vector<T> PoolGet(std::vector<std::vector<T>>& pool) {
  if (pool.empty()) return {};
  std::vector<T> v = std::move(pool.back());
  pool.pop_back();
  v.clear();
  return v;
}

template <typename T>
void PoolPut(std::vector<std::vector<T>>& pool, std::vector<T> v) {
  if (v.capacity() == 0 || v.capacity() > kMaxPooledCapacity ||
      pool.size() >= kMaxPooledBuffers) {
    return;
  }
  pool.push_back(std::move(v));
}

std::vector<std::vector<Key>>& KeyPool() {
  static thread_local std::vector<std::vector<Key>> pool;
  return pool;
}

std::vector<std::vector<Val>>& ValPool() {
  static thread_local std::vector<std::vector<Val>> pool;
  return pool;
}

std::vector<std::vector<int64_t>>& AuxPool() {
  static thread_local std::vector<std::vector<int64_t>> pool;
  return pool;
}

}  // namespace

std::vector<Key> BufferPool::GetKeys() { return PoolGet(KeyPool()); }
std::vector<Val> BufferPool::GetVals() { return PoolGet(ValPool()); }
void BufferPool::PutKeys(std::vector<Key> v) {
  PoolPut(KeyPool(), std::move(v));
}
void BufferPool::PutVals(std::vector<Val> v) {
  PoolPut(ValPool(), std::move(v));
}
std::vector<int64_t> BufferPool::GetAux() { return PoolGet(AuxPool()); }
void BufferPool::PutAux(std::vector<int64_t> v) {
  PoolPut(AuxPool(), std::move(v));
}

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPull:
      return "Pull";
    case MsgType::kPullResp:
      return "PullResp";
    case MsgType::kPush:
      return "Push";
    case MsgType::kPushAck:
      return "PushAck";
    case MsgType::kLocalize:
      return "Localize";
    case MsgType::kRelocateInstruct:
      return "RelocateInstruct";
    case MsgType::kRelocateTransfer:
      return "RelocateTransfer";
    case MsgType::kLocalizeNoop:
      return "LocalizeNoop";
    case MsgType::kLocationUpdate:
      return "LocationUpdate";
    case MsgType::kReplicaRegister:
      return "ReplicaRegister";
    case MsgType::kReplicaInvalidate:
      return "ReplicaInvalidate";
    case MsgType::kReplicaUnregister:
      return "ReplicaUnregister";
    case MsgType::kSspRead:
      return "SspRead";
    case MsgType::kSspReadResp:
      return "SspReadResp";
    case MsgType::kSspFlush:
      return "SspFlush";
    case MsgType::kSspFlushAck:
      return "SspFlushAck";
    case MsgType::kSspClock:
      return "SspClock";
    case MsgType::kSspPushUpdates:
      return "SspPushUpdates";
    case MsgType::kBlockTransfer:
      return "BlockTransfer";
    case MsgType::kBatchOp:
      return "BatchOp";
    case MsgType::kBatchResp:
      return "BatchResp";
    case MsgType::kShutdown:
      return "Shutdown";
    case MsgType::kNumTypes:
      break;
  }
  return "Unknown";
}

std::string Message::DebugString() const {
  std::ostringstream os;
  os << MsgTypeName(type) << " " << src_node << ":" << src_thread << " -> "
     << dst_node << " op=" << op_id << " orig=" << orig_node << ":"
     << orig_thread << " keys=" << keys.size() << " vals=" << vals.size()
     << " hops=" << hops;
  return os.str();
}

}  // namespace net
}  // namespace lapse
