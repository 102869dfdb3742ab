#include "src/comm/hierarchical.h"

#include <algorithm>

#include "src/base/math_util.h"

namespace msmoe {

HierarchicalComm::HierarchicalComm(int nodes, int gpus_per_node)
    : nodes_(nodes), gpus_per_node_(gpus_per_node) {
  MSMOE_CHECK_GT(nodes, 0);
  MSMOE_CHECK_GT(gpus_per_node, 0);
  intra_groups_.reserve(static_cast<size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    intra_groups_.push_back(std::make_unique<CollectiveGroup>(gpus_per_node));
  }
  inter_groups_.reserve(static_cast<size_t>(gpus_per_node));
  for (int i = 0; i < gpus_per_node; ++i) {
    inter_groups_.push_back(std::make_unique<CollectiveGroup>(nodes));
  }
}

CollectiveGroup& HierarchicalComm::IntraGroup(int rank) {
  return *intra_groups_[static_cast<size_t>(NodeOf(rank))];
}

CollectiveGroup& HierarchicalComm::InterGroup(int rank) {
  return *inter_groups_[static_cast<size_t>(LocalOf(rank))];
}

Status HierarchicalComm::AllReduce(int rank, const float* send, float* recv,
                                   int64_t count) {
  const int local = LocalOf(rank);
  const int node = NodeOf(rank);
  CollectiveGroup& intra = IntraGroup(rank);
  CollectiveGroup& inter = InterGroup(rank);

  // Pad so the payload divides evenly into gpus_per_node_ chunks.
  const int64_t chunk = CeilDiv(count, gpus_per_node_);
  std::vector<float> padded(static_cast<size_t>(chunk) * static_cast<size_t>(gpus_per_node_),
                            0.0f);
  std::copy(send, send + count, padded.begin());

  // Step 1: intra-node reduce-scatter; this rank owns chunk `local`.
  std::vector<float> owned(static_cast<size_t>(chunk));
  MSMOE_RETURN_IF_ERROR(intra.ReduceScatter(local, padded.data(), owned.data(), chunk));

  // Steps 2+3: inter-node reduce-scatter + all-gather over the owned chunk
  // (an all-reduce across nodes of the node-partial sums).
  std::vector<float> reduced(static_cast<size_t>(chunk));
  MSMOE_RETURN_IF_ERROR(inter.AllReduce(node, owned.data(), reduced.data(), chunk));

  // Step 4: intra-node all-gather rebuilds the full tensor on every rank.
  MSMOE_RETURN_IF_ERROR(intra.AllGather(local, reduced.data(), padded.data(), chunk));

  std::copy(padded.begin(), padded.begin() + count, recv);
  return Status::Ok();
}

uint64_t HierarchicalComm::IntraWireBytes() const {
  uint64_t total = 0;
  for (const auto& group : intra_groups_) {
    total += group->wire_bytes();
  }
  return total;
}

uint64_t HierarchicalComm::InterWireBytes() const {
  uint64_t total = 0;
  for (const auto& group : inter_groups_) {
    total += group->wire_bytes();
  }
  return total;
}

}  // namespace msmoe
