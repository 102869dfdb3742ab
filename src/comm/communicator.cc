#include "src/comm/communicator.h"

#include "src/base/logging.h"
#include "src/base/math_util.h"

namespace msmoe {

const char* CommBackendName(CommBackend backend) {
  switch (backend) {
    case CommBackend::kFlat:
      return "flat";
    case CommBackend::kHierarchical:
      return "hierarchical";
  }
  return "unknown";
}

void Communicator::set_fault_plan(FaultPlan* plan) {
  fault_plan_ = plan;
  op_counts_.assign(static_cast<size_t>(size()), 0);
}

uint64_t Communicator::wire_bytes() const {
  uint64_t total = BackendWireBytes();
  std::lock_guard<std::mutex> lock(async_mu_);
  if (async_ != nullptr) {
    total += async_->channel.wire_bytes();
  }
  return total;
}

void Communicator::ResetWireBytes() {
  ResetBackendWireBytes();
  std::lock_guard<std::mutex> lock(async_mu_);
  if (async_ != nullptr) {
    async_->channel.ResetWireBytes();
  }
}

void Communicator::SetCollectiveTimeout(double timeout_ms) {
  SetTimeoutImpl(timeout_ms);
  std::lock_guard<std::mutex> lock(async_mu_);
  timeout_ms_ = timeout_ms;
  if (async_ != nullptr) {
    async_->channel.set_timeout_ms(timeout_ms);
  }
}

void Communicator::SetWireModel(double bytes_per_us, double latency_us) {
  SetWireModelImpl(bytes_per_us, latency_us);
  std::lock_guard<std::mutex> lock(async_mu_);
  wire_bytes_per_us_ = bytes_per_us;
  wire_latency_us_ = latency_us;
  if (async_ != nullptr) {
    async_->channel.set_wire_model(bytes_per_us, latency_us);
  }
}

void Communicator::Abort(Status status, int culprit_rank) {
  if (culprit_rank >= 0) {
    int expected = -1;
    suspect_rank_.compare_exchange_strong(expected, culprit_rank,
                                          std::memory_order_acq_rel);
  }
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    if (async_ != nullptr) {
      async_->channel.Abort(status);
    }
  }
  AbortImpl(std::move(status));
}

int Communicator::SuspectRank() const {
  const int explicit_suspect = suspect_rank_.load(std::memory_order_acquire);
  if (explicit_suspect >= 0) {
    return explicit_suspect;
  }
  const int backend_suspect = BackendCulpritRank();
  if (backend_suspect >= 0) {
    return backend_suspect;
  }
  std::lock_guard<std::mutex> lock(async_mu_);
  return async_ != nullptr ? async_->channel.culprit_rank() : -1;
}

void Communicator::Retire(Status stale) {
  MSMOE_CHECK(!stale.ok()) << "Retire needs a non-OK stale status";
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    stale_status_ = stale;
    if (async_ != nullptr) {
      async_->channel.Retire(stale);
    }
  }
  RetireBackend(std::move(stale));
  retired_.store(true, std::memory_order_release);
}

Status Communicator::stale_status() const {
  std::lock_guard<std::mutex> lock(async_mu_);
  return stale_status_;
}

Status Communicator::GroupStatus() const {
  Status status = BackendStatus();
  if (!status.ok()) {
    return status;
  }
  std::lock_guard<std::mutex> lock(async_mu_);
  if (async_ != nullptr) {
    return async_->channel.status();
  }
  return Status::Ok();
}

void Communicator::RecoveryBarrier(int member) {
  MSMOE_CHECK(!retired()) << "RecoveryBarrier on a retired (stale-epoch) communicator";
  RecoveryArriveImpl();
  if (member == 0) {
    suspect_rank_.store(-1, std::memory_order_release);
    ResetBackendAbort();
    std::lock_guard<std::mutex> lock(async_mu_);
    if (async_ != nullptr) {
      async_->channel.ResetAbort();
    }
  }
  RecoveryArriveImpl();
}

Communicator::AsyncEngine& Communicator::EnsureAsync() {
  std::lock_guard<std::mutex> lock(async_mu_);
  if (async_ == nullptr) {
    async_ = std::make_unique<AsyncEngine>(size());
    async_->channel.set_timeout_ms(timeout_ms_);
    async_->channel.set_wire_model(wire_bytes_per_us_, wire_latency_us_);
    async_seq_.assign(static_cast<size_t>(size()), 0);
  }
  return *async_;
}

AsyncOpParams Communicator::AsyncParams(int member, const char* elem_type,
                                        int elem_bytes) {
  AsyncEngine& engine = EnsureAsync();
  AsyncOpParams params;
  params.channel = &engine.channel;
  params.telemetry = &telemetry_;
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    auto& slot = engine.threads[static_cast<size_t>(member)];
    if (slot == nullptr) {
      slot = std::make_unique<PooledThread>();
      // First task: take copy-engine semantics (see async_comm.h) so chunk
      // rendezvous are not starved behind compute threads' timeslices.
      slot->Submit([] { TryElevateCommThreadPriority(); });
    }
    params.thread = slot.get();
  }
  params.member = member;
  params.group_size = size();
  params.logical_op = async_seq_[static_cast<size_t>(member)]++;
  params.elem_type = elem_type;
  params.elem_bytes = elem_bytes;
  params.fault = BeginOp(member);
  return params;
}

// ---------------------------------------------------------------------------
// FlatCommunicator

Status FlatCommunicator::AllGatherBytes(int member, const void* send, void* recv,
                                        int64_t bytes, uint64_t* wire) {
  return group_.AllGather(member, static_cast<const uint8_t*>(send),
                          static_cast<uint8_t*>(recv), bytes, wire);
}

Status FlatCommunicator::ReduceScatterF32(int member, const float* send, float* recv,
                                          int64_t count, uint64_t* wire) {
  return group_.ReduceScatter(member, send, recv, count, wire);
}

Status FlatCommunicator::AllReduceF32(int member, const float* send, float* recv,
                                      int64_t count, uint64_t* wire) {
  return group_.AllReduce(member, send, recv, count, wire);
}

Status FlatCommunicator::BroadcastBytes(int member, int root, void* data, int64_t bytes,
                                        uint64_t* wire) {
  return group_.Broadcast(member, root, static_cast<uint8_t*>(data), bytes, wire);
}

Status FlatCommunicator::AllToAllBytes(int member, const void* send, void* recv,
                                       int64_t bytes_per_block, uint64_t* wire) {
  return group_.AllToAll(member, static_cast<const uint8_t*>(send),
                         static_cast<uint8_t*>(recv), bytes_per_block, wire);
}

Status FlatCommunicator::AllToAllVBytes(int member, const void* send,
                                        const std::vector<int64_t>& send_bytes, void* recv,
                                        int64_t recv_capacity_bytes,
                                        std::vector<int64_t>* recv_bytes, uint64_t* wire) {
  return group_.AllToAllV(member, static_cast<const uint8_t*>(send), send_bytes,
                          static_cast<uint8_t*>(recv), recv_capacity_bytes, recv_bytes, wire);
}

Status FlatCommunicator::ExchangeScalarsImpl(int member, double value,
                                             std::vector<double>* out, uint64_t* wire) {
  return group_.ExchangeScalars(member, value, out, wire);
}

const char* FlatCommunicator::AlgorithmName(CommOp op) const {
  switch (op) {
    case CommOp::kAllGather:
    case CommOp::kReduceScatter:
    case CommOp::kAllReduce:
      return "ring";
    case CommOp::kAllToAll:
    case CommOp::kAllToAllV:
      return "pairwise";
    case CommOp::kBroadcast:
    case CommOp::kExchangeScalars:
    case CommOp::kBarrier:
      return "direct";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// HierarchicalCommunicator

HierarchicalCommunicator::HierarchicalCommunicator(int nodes, int gpus_per_node)
    : FlatCommunicator(nodes * gpus_per_node), hier_(nodes, gpus_per_node) {
  MSMOE_CHECK_GT(nodes, 0);
  MSMOE_CHECK_GT(gpus_per_node, 0);
}

Status HierarchicalCommunicator::AllReduceF32(int member, const float* send, float* recv,
                                              int64_t count, uint64_t* wire) {
  MSMOE_RETURN_IF_ERROR(hier_.AllReduce(member, send, recv, count));
  // The sub-steps rendezvous per node and per local index only, so a rank
  // could finish while a peer's last step is still cancellable. The world
  // barrier makes the op complete on every rank or on none.
  MSMOE_RETURN_IF_ERROR(group_.Barrier(member));
  // Four-step analytic volume (Fig 5a): per node an intra RS + AG over
  // chunk floats, per local index an inter all-reduce of one chunk. It is
  // the whole hierarchy's total, which no single rank's sub-steps see.
  const int g = hier_.gpus_per_node();
  const int nodes = hier_.nodes();
  const uint64_t chunk_bytes =
      static_cast<uint64_t>(CeilDiv(count, static_cast<int64_t>(g))) * sizeof(float);
  const uint64_t intra =
      static_cast<uint64_t>(nodes) * 2 * static_cast<uint64_t>(g - 1) * chunk_bytes;
  const uint64_t inter =
      static_cast<uint64_t>(g) * 2 * static_cast<uint64_t>(nodes - 1) * chunk_bytes;
  *wire = intra + inter;
  return Status::Ok();
}

const char* HierarchicalCommunicator::AlgorithmName(CommOp op) const {
  return op == CommOp::kAllReduce ? "hierarchical" : FlatCommunicator::AlgorithmName(op);
}

std::unique_ptr<Communicator> MakeCommunicator(CommBackend backend, int world_size,
                                               int gpus_per_node) {
  MSMOE_CHECK_GT(world_size, 0);
  if (backend == CommBackend::kHierarchical && gpus_per_node > 1 &&
      world_size % gpus_per_node == 0 && world_size / gpus_per_node > 1) {
    return std::make_unique<HierarchicalCommunicator>(world_size / gpus_per_node,
                                                      gpus_per_node);
  }
  return std::make_unique<FlatCommunicator>(world_size);
}

}  // namespace msmoe
