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
  //
  // The sub-steps rendezvous per node and per local index only, never
  // across the world, so the outcome is all-or-nothing only for a fault
  // raised before the call. A sub-group aborted after the first sub-step
  // can split it: ranks whose last sub-step had already closed return Ok
  // while peers still blocked in a cancelled one fail. A caller that
  // commits on the result must end the call in a world barrier (and
  // abort every sub-group a rank may wait in: IntraGroup and InterGroup).
  Status AllReduce(int rank, const float* send, float* recv, int64_t count);

  // Total analytic wire bytes by fabric.
  uint64_t IntraWireBytes() const;
  uint64_t InterWireBytes() const;

 private:
  const int nodes_;
  const int gpus_per_node_;
  std::vector<std::unique_ptr<CollectiveGroup>> intra_groups_;  // one per node
  std::vector<std::unique_ptr<CollectiveGroup>> inter_groups_;  // one per local index
};

}  // namespace msmoe

#endif  // MSMOE_SRC_COMM_HIERARCHICAL_H_
