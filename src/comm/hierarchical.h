// Hierarchical (intra-node + inter-node) collectives, Appendix A.1.
//
// SP attention replicates the attention parameters across the n ranks of a
// node, so gradient synchronization involves the full parameter tensor on
// n*d devices. Modern communication libraries implement this as four steps
// (Fig 5a): intra-node reduce-scatter, inter-node reduce-scatter, inter-node
// all-gather, intra-node all-gather. The inter-node volume matches TP
// attention's 2*P/n*(d-1)/d, which is the paper's argument that SP costs
// about the same to synchronize in practice.
//
// Ranks are numbered node-major: global = node * gpus_per_node + local.
#ifndef MSMOE_SRC_COMM_HIERARCHICAL_H_
#define MSMOE_SRC_COMM_HIERARCHICAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/comm/collective_group.h"

namespace msmoe {

class HierarchicalComm {
 public:
  HierarchicalComm(int nodes, int gpus_per_node);

  int nodes() const { return nodes_; }
  int gpus_per_node() const { return gpus_per_node_; }
  int world_size() const { return nodes_ * gpus_per_node_; }

  int NodeOf(int rank) const { return rank / gpus_per_node_; }
  int LocalOf(int rank) const { return rank % gpus_per_node_; }

  // The intra-node group containing `rank` (members are the node's GPUs;
  // member index = local index).
  CollectiveGroup& IntraGroup(int rank);
  // The inter-node group containing `rank` (members are the same local index
  // across nodes; member index = node index).
  CollectiveGroup& InterGroup(int rank);

  // Four-step hierarchical all-reduce of `count` floats: every rank's recv
  // receives the global sum of the ranks' send buffers (send may equal
  // recv). All ranks must call. Stops at the first failed sub-step and
  // returns its status; recv is written only once every step succeeded.
  Status AllReduce(int rank, const float* send, float* recv, int64_t count);

  // Total analytic wire bytes by fabric.
  uint64_t IntraWireBytes() const;
  uint64_t InterWireBytes() const;
  void ResetWireBytes();

  // Fault surface, fanned out over every constituent group (a rank can be
  // blocked in its intra-node or inter-node barrier; see collective_group.h).
  void SetTimeoutMs(double timeout_ms);
  void AbortAll(const Status& status);
  void ResetAbortAll();
  // First non-OK status across the sub-groups, or OK.
  Status FirstError() const;

 private:
  const int nodes_;
  const int gpus_per_node_;
  std::vector<std::unique_ptr<CollectiveGroup>> intra_groups_;  // one per node
  std::vector<std::unique_ptr<CollectiveGroup>> inter_groups_;  // one per local index
};

}  // namespace msmoe

#endif  // MSMOE_SRC_COMM_HIERARCHICAL_H_
