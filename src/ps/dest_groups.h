#ifndef LAPSE_PS_DEST_GROUPS_H_
#define LAPSE_PS_DEST_GROUPS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/message.h"

namespace lapse {
namespace ps {

// Flat node-indexed grouping of an operation's keys (and optionally value
// slices and envelope entry words) by destination, replacing per-op std::map grouping. Owned by one
// thread as a reusable scratch: buffers are cleared per op, never shrunk,
// so grouping allocates nothing in steady state. Usage per op:
//
//   groups.Begin();
//   groups.AddKey(dst, k);              // and AddVals / AddWord as needed
//   for (NodeId n : groups.touched()) {
//     msg.keys = groups.TakeKeys(n);    // moves the buffer out and replaces
//     msg.vals = groups.TakeVals(n);    // it with an empty one
//   }
class DestGroups {
 public:
  void Resize(size_t num_nodes) {
    keys_.resize(num_nodes);
    vals_.resize(num_nodes);
    words_.resize(num_nodes);
  }

  void Begin() { touched_.clear(); }

  void AddKey(NodeId dst, Key k) {
    auto& group = keys_[dst];
    if (group.empty()) {
      touched_.push_back(dst);
      // Keys-only callers never drain vals_ or words_; drop anything a
      // previous op left behind so it cannot leak into this op's payload.
      vals_[dst].clear();
      words_[dst].clear();
    }
    group.push_back(k);
  }

  void AddVals(NodeId dst, const Val* data, size_t n) {
    vals_[dst].insert(vals_[dst].end(), data, data + n);
  }

  void AddWord(NodeId dst, int64_t word) { words_[dst].push_back(word); }

  const std::vector<NodeId>& touched() const { return touched_; }

  const std::vector<Key>& KeysOf(NodeId dst) const { return keys_[dst]; }
  const std::vector<int64_t>& WordsOf(NodeId dst) const {
    return words_[dst];
  }

  // Move a group's buffer into a message, leaving an empty (but valid)
  // vector behind so the slot is reusable next op.
  std::vector<Key> TakeKeys(NodeId dst) {
    std::vector<Key> out = std::move(keys_[dst]);
    keys_[dst].clear();
    return out;
  }
  std::vector<Val> TakeVals(NodeId dst) {
    std::vector<Val> out = std::move(vals_[dst]);
    vals_[dst].clear();
    return out;
  }

 private:
  std::vector<std::vector<Key>> keys_;
  std::vector<std::vector<Val>> vals_;
  std::vector<std::vector<int64_t>> words_;
  std::vector<NodeId> touched_;
};

}  // namespace ps
}  // namespace lapse

#endif  // LAPSE_PS_DEST_GROUPS_H_
