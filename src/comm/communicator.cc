#include "src/comm/communicator.h"

#include "src/base/logging.h"

namespace msmoe {

Communicator::Communicator(int size)
    : async_seq_(static_cast<size_t>(size), 0),
      world_(size),
      async_(size),
      comm_threads_(static_cast<size_t>(size)) {}

void Communicator::set_fault_plan(FaultPlan* plan) {
  fault_plan_ = plan;
  op_counts_.assign(static_cast<size_t>(size()), 0);
}

void Communicator::ResetWireBytes() {
  world_.ResetWireBytes();
  async_.ResetWireBytes();
}

void Communicator::SetCollectiveTimeout(double timeout_ms) {
  world_.set_timeout_ms(timeout_ms);
  async_.set_timeout_ms(timeout_ms);
}

void Communicator::SetWireModel(double bytes_per_us, double latency_us) {
  world_.set_wire_model(bytes_per_us, latency_us);
  async_.set_wire_model(bytes_per_us, latency_us);
}

void Communicator::Abort(Status status, int culprit_rank) {
  if (culprit_rank >= 0) {
    int expected = -1;
    suspect_rank_.compare_exchange_strong(expected, culprit_rank,
                                          std::memory_order_acq_rel);
  }
  world_.Abort(status);
  async_.Abort(std::move(status));
}

Status Communicator::GroupStatus() const {
  Status status = world_.status();
  if (!status.ok()) {
    return status;
  }
  return async_.status();
}

int Communicator::SuspectRank() const {
  const int explicit_suspect = suspect_rank_.load(std::memory_order_acquire);
  if (explicit_suspect >= 0) {
    return explicit_suspect;
  }
  const int world_suspect = world_.culprit_rank();
  return world_suspect >= 0 ? world_suspect : async_.culprit_rank();
}

void Communicator::RecoveryBarrier(int member) {
  MSMOE_CHECK(!retired()) << "RecoveryBarrier on a retired (stale-epoch) communicator";
  world_.RecoveryArrive();
  if (member == 0) {
    suspect_rank_.store(-1, std::memory_order_release);
    world_.ResetAbort();
    async_.ResetAbort();
  }
  world_.RecoveryArrive();
}

void Communicator::Retire(Status stale) {
  MSMOE_CHECK(!stale.ok()) << "Retire needs a non-OK stale status";
  {
    std::lock_guard<std::mutex> lock(mu_);
    stale_status_ = stale;
  }
  world_.Retire(stale);
  async_.Retire(std::move(stale));
  retired_.store(true, std::memory_order_release);
}

Status Communicator::stale_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_status_;
}

void Communicator::Finish(CommOp op, int member, const char* elem_type, int elem_bytes,
                          int64_t elem_count, uint64_t wire, double start_us) {
  CommEvent event;
  event.op = op;
  switch (op) {
    case CommOp::kAllGather:
    case CommOp::kReduceScatter:
    case CommOp::kAllReduce:
      event.algorithm = "ring";
      break;
    case CommOp::kAllToAll:
    case CommOp::kAllToAllV:
      event.algorithm = "pairwise";
      break;
    case CommOp::kBroadcast:
    case CommOp::kExchangeScalars:
    case CommOp::kBarrier:
      event.algorithm = "direct";
      break;
  }
  event.group_size = size();
  event.rank = member;
  event.elem_type = elem_type;
  event.elem_bytes = elem_bytes;
  event.elem_count = elem_count;
  event.wire_bytes = wire;
  event.primary = member == 0;
  event.start_us = start_us;
  event.duration_us = telemetry_.NowUs() - start_us;
  telemetry_.Record(std::move(event));
}

AsyncOpParams Communicator::AsyncParams(int member, const char* elem_type,
                                        int elem_bytes) {
  AsyncOpParams params;
  params.channel = &async_;
  params.telemetry = &telemetry_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = comm_threads_[static_cast<size_t>(member)];
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

}  // namespace msmoe
