// The instrumented collective interface every parallel module talks to.
//
// Communicator is the seam between the algorithm code (src/parallel,
// src/core) and the collective substrate: call sites never touch a
// CollectiveGroup directly — they issue ops through this layer, which
//   1. runs blocking ops on one world group spanning all ranks (ring
//      AG/RS/AR, pairwise A2A — the flat NCCL-communicator equivalent) and
//      chunked Start* ops on a second, dedicated async channel, and
//   2. records one CommEvent per operation per rank — op kind, algorithm,
//      group size, element type, analytic wire bytes, wall-clock start and
//      duration — into a thread-safe CommTelemetry registry.
//
// The recorded events serialize to Chrome-trace JSON (src/sim/trace_export)
// and are cross-checked against the §3 analytic volume formulas
// (src/sim/comm_crosscheck). The Appendix A.1 two-level all-reduce is a
// separate building block over its own sub-groups (src/comm/hierarchical.h).
//
// Data-movement collectives (all-gather, broadcast, all-to-all(v)) are
// templated over the element type — their semantics and wire volume depend
// only on byte counts. Reducing collectives (reduce-scatter, all-reduce)
// are float-only, matching every call site in the repo (wire precision is
// emulated by converting values before the call, see src/numerics).
#ifndef MSMOE_SRC_COMM_COMMUNICATOR_H_
#define MSMOE_SRC_COMM_COMMUNICATOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/comm/async_comm.h"
#include "src/comm/collective_group.h"
#include "src/comm/fault.h"
#include "src/comm/telemetry.h"

namespace msmoe {

// Wire element-type labels recorded in CommEvents.
template <typename T>
inline const char* CommElemTypeName() {
  return "bytes";
}
template <>
inline const char* CommElemTypeName<float>() {
  return "f32";
}
template <>
inline const char* CommElemTypeName<double>() {
  return "f64";
}
template <>
inline const char* CommElemTypeName<int64_t>() {
  return "i64";
}
template <>
inline const char* CommElemTypeName<int32_t>() {
  return "i32";
}
template <>
inline const char* CommElemTypeName<uint8_t>() {
  return "u8";
}
template <>
inline const char* CommElemTypeName<uint16_t>() {
  return "u16";
}

class Communicator {
 public:
  explicit Communicator(int size);

  int size() const { return world_.size(); }
  // Analytic bytes a real fabric would have moved (total over members),
  // accumulated under the AccountOnce convention — world group plus the
  // async channel of chunked collectives.
  uint64_t wire_bytes() const { return world_.wire_bytes() + async_.wire_bytes(); }
  void ResetWireBytes();

  CommTelemetry& telemetry() { return telemetry_; }
  const CommTelemetry& telemetry() const { return telemetry_; }

  // Escape hatch for comm-layer algorithm code (src/comm) and tests;
  // algorithm code in src/parallel and src/core must not use it.
  CollectiveGroup& group() { return world_; }

  // --- Fault surface -------------------------------------------------------
  //
  // Each channel-wide hook (timeout, wire model, abort, status, suspect,
  // recovery, retire) acts on the world group, then on the async channel.

  // Installs a fault-injection schedule (not owned; may be nullptr). Call
  // before ranks start issuing collectives. Every collective consults the
  // plan with this rank's monotonically increasing op index.
  void set_fault_plan(FaultPlan* plan);
  FaultPlan* fault_plan() const { return fault_plan_; }

  // Deadline for every internal barrier wait (0 = wait forever); a rank
  // that never arrives then surfaces as kDeadlineExceeded on all peers.
  void SetCollectiveTimeout(double timeout_ms);
  // Emulated wire clock (see collective_group.h): every data-moving
  // collective — sync and async — additionally blocks for the modeled link
  // occupancy of its analytic volume. Off by default.
  void SetWireModel(double bytes_per_us, double latency_us);
  // Cancels both groups' barriers; all ranks observe `status`, in blocking
  // and in chunked collectives alike. The two-argument form additionally
  // attributes the fault to `culprit_rank` (surfaced by SuspectRank; first
  // attribution sticks); injected crashes attribute themselves
  // automatically.
  void Abort(Status status) { Abort(std::move(status), -1); }
  void Abort(Status status, int culprit_rank);
  // First error raised on either group (abort, timeout, injected crash), or
  // OK. Each collective returns its own status; this sticky one is for the
  // caller's per-step check before running recovery.
  Status GroupStatus() const;
  // Best-guess member responsible for the current failure: an explicit
  // attribution passed to Abort (injected crashes name the crashing rank),
  // else the world barrier's missing-member attribution on timeout, else
  // the async channel's. -1 when healthy or unattributed. Only the fault
  // path attributes: statistics (comm/health.h) are the trainer's fallback
  // for unattributed deadlines, never an input here.
  int SuspectRank() const;
  // Collective-safe reset after all ranks observed the failure: rendezvous,
  // clear the abort on both groups, rendezvous (see
  // CollectiveGroup::RecoveryBarrier). Outstanding CommHandles must be
  // destroyed before this is called, so the comm threads have unwound.
  // Refuses (CHECK) on a retired communicator — a stale epoch never heals.
  void RecoveryBarrier(int member);

  // --- Elastic epochs (src/comm/elastic.h) ---------------------------------

  // Permanently fails this communicator as a stale membership epoch: aborts
  // both groups (keeping the ORIGINAL fault visible via GroupStatus, so
  // the culprit rank observes the same first error as the survivors) and
  // refuses future RecoveryBarrier. Subsequent Start* calls return an
  // already-failed handle carrying `stale`, so an overlap pipeline issued
  // against the replaced membership fails loudly instead of deadlocking on
  // a rendezvous nobody will join.
  void Retire(Status stale);
  bool retired() const { return retired_.load(std::memory_order_acquire); }
  // The stale-epoch status installed by Retire (OK if not retired).
  Status stale_status() const;
  // Membership epoch stamped by the owning ElasticComm (0 standalone).
  int epoch() const { return epoch_; }
  void set_epoch(int epoch) { epoch_ = epoch; }

  // All members must call every collective, with their own member index.
  // Semantics match CollectiveGroup (see collective_group.h). Each returns
  // the op's own Status, serialized with concurrent Aborts under the group
  // mutex: a collective that completed returns Ok on EVERY member — even
  // when a fault lands right after it closes — and a cancelled one returns
  // the sticky error on every member, without recording telemetry. An op
  // started on an already-aborted group returns promptly without touching
  // its output buffers. Collective commit decisions (e.g. the trainer's
  // barrier-gated snapshot) must branch on this value; re-reading
  // GroupStatus() after the call races with faults raised between one
  // member's exit and another member's read, splitting the commit across
  // the group.

  Status Barrier(int member) {
    return RunOp(member, CommOp::kBarrier, "bytes", 0,
                 [&](OpResult*) { return world_.Barrier(member); });
  }

  template <typename T>
  Status AllGather(int member, const T* send, T* recv, int64_t count) {
    return RunOp(member, CommOp::kAllGather, CommElemTypeName<T>(), sizeof(T),
                 [&](OpResult* op) {
                   *op = {recv, size() * count * static_cast<int64_t>(sizeof(T)), count, 0};
                   return world_.AllGather(member, send, recv, count, &op->wire);
                 });
  }

  Status ReduceScatter(int member, const float* send, float* recv, int64_t count) {
    return RunOp(member, CommOp::kReduceScatter, "f32", sizeof(float), [&](OpResult* op) {
      *op = {recv, count * static_cast<int64_t>(sizeof(float)), count, 0};
      return world_.ReduceScatter(member, send, recv, count, &op->wire);
    });
  }

  Status AllReduce(int member, const float* send, float* recv, int64_t count) {
    return RunOp(member, CommOp::kAllReduce, "f32", sizeof(float), [&](OpResult* op) {
      *op = {recv, count * static_cast<int64_t>(sizeof(float)), count, 0};
      return world_.AllReduce(member, send, recv, count, &op->wire);
    });
  }

  template <typename T>
  Status Broadcast(int member, int root, T* data, int64_t count) {
    return RunOp(member, CommOp::kBroadcast, CommElemTypeName<T>(), sizeof(T),
                 [&](OpResult* op) {
                   *op = {data, count * static_cast<int64_t>(sizeof(T)), count, 0};
                   return world_.Broadcast(member, root, data, count, &op->wire);
                 });
  }

  // `count` is the per-destination block size in elements (the recorded
  // elem_count), exactly as in CollectiveGroup::AllToAll.
  template <typename T>
  Status AllToAll(int member, const T* send, T* recv, int64_t count) {
    return RunOp(member, CommOp::kAllToAll, CommElemTypeName<T>(), sizeof(T),
                 [&](OpResult* op) {
                   *op = {recv, size() * count * static_cast<int64_t>(sizeof(T)), count, 0};
                   return world_.AllToAll(member, send, recv, count, &op->wire);
                 });
  }

  // recv holds recv_capacity elements; a member that would receive more
  // fails the op on every member with kInvalidArgument (nothing is copied).
  // Recorded elem_count is the total element count this member received.
  template <typename T>
  Status AllToAllV(int member, const T* send, const std::vector<int64_t>& send_counts,
                   T* recv, int64_t recv_capacity, std::vector<int64_t>* recv_counts) {
    return RunOp(member, CommOp::kAllToAllV, CommElemTypeName<T>(), sizeof(T),
                 [&](OpResult* op) {
                   MSMOE_RETURN_IF_ERROR(world_.AllToAllV(member, send, send_counts, recv,
                                                          recv_capacity, recv_counts,
                                                          &op->wire));
                   int64_t received = 0;
                   for (const int64_t n : *recv_counts) {
                     received += n;
                   }
                   op->recv = recv;
                   op->recv_bytes = received * static_cast<int64_t>(sizeof(T));
                   op->elem_count = received;
                   return Status::Ok();
                 });
  }

  // *out receives every member's value (size() entries).
  Status ExchangeScalars(int member, double value, std::vector<double>* out) {
    return RunOp(member, CommOp::kExchangeScalars, "f64", sizeof(double),
                 [&](OpResult* op) {
                   MSMOE_RETURN_IF_ERROR(world_.ExchangeScalars(member, value, out, &op->wire));
                   op->recv = out->data();
                   op->recv_bytes = static_cast<int64_t>(out->size() * sizeof(double));
                   op->elem_count = 1;
                   return Status::Ok();
                 });
  }

  // --- Nonblocking chunked collectives (§4.2) ------------------------------
  //
  // Each Start* splits the op into num_chunks contiguous chunks and hands
  // it to this rank's persistent comm-proxy thread, which drives the chunks
  // over the DEDICATED async channel; the caller overlaps compute and
  // consumes per-chunk readiness through the returned CommHandle (see
  // async_comm.h for the ordering and fault contract). All ranks must issue
  // the same Start* sequence; handles must not outlive this Communicator.
  // Chunk boundaries fall on multiples of `quantum` elements (a row).
  // Injected faults and aborts surface through WaitChunk/WaitAll as the
  // same sticky Status the blocking ops return.

  template <typename T>
  std::unique_ptr<CommHandle> StartAllGather(int member, const T* send, T* recv,
                                             int64_t count, int num_chunks,
                                             int64_t quantum = 1) {
    if (retired()) {
      return AsyncCommDriver::MakeFailedHandle(stale_status());
    }
    return AsyncCommDriver::StartAllGather(
        AsyncParams(member, CommElemTypeName<T>(), sizeof(T)), send, recv, count,
        num_chunks, quantum);
  }

  std::unique_ptr<CommHandle> StartReduceScatter(int member, const float* send,
                                                 float* recv, int64_t count,
                                                 int num_chunks, int64_t quantum = 1) {
    if (retired()) {
      return AsyncCommDriver::MakeFailedHandle(stale_status());
    }
    return AsyncCommDriver::StartReduceScatter(AsyncParams(member, "f32", sizeof(float)),
                                               send, recv, count, num_chunks, quantum);
  }

  // *recv is resized on the comm thread once the counts exchange fixed the
  // total; do not touch it until the first WaitChunk/WaitAll returns.
  template <typename T>
  std::unique_ptr<CommHandle> StartAllToAllV(int member, const T* send,
                                             const std::vector<int64_t>& send_counts,
                                             std::vector<T>* recv, int num_chunks) {
    if (retired()) {
      return AsyncCommDriver::MakeFailedHandle(stale_status());
    }
    auto resize = [recv](int64_t elems) -> void* {
      recv->resize(static_cast<size_t>(elems));
      return recv->data();
    };
    return AsyncCommDriver::StartAllToAllV(
        AsyncParams(member, CommElemTypeName<T>(), sizeof(T)), send, send_counts,
        resize, num_chunks);
  }

 private:
  // What a completed blocking op reports for its event: the receive buffer
  // a payload fault may corrupt, the recorded element count, and the wire
  // volume the world group op reported.
  struct OpResult {
    void* recv = nullptr;
    int64_t recv_bytes = 0;
    int64_t elem_count = 0;
    uint64_t wire = 0;
  };

  // Every blocking collective: the fault hook, the timestamp, the group op
  // (which fills *OpResult), and — only when the op returned Ok — the
  // payload fault and the event. An injected crash returns the abort it
  // raised without entering the group.
  template <typename Op>
  Status RunOp(int member, CommOp kind, const char* elem_type, int elem_bytes, Op&& op) {
    const FaultAction action = BeginOp(member);
    if (action.crash) {
      return GroupStatus();
    }
    const double start = telemetry_.NowUs();
    OpResult result;
    MSMOE_RETURN_IF_ERROR(op(&result));
    if (action.corrupt) {
      FlipOneBit(result.recv, result.recv_bytes, action.corrupt_seed);
    }
    Finish(kind, member, elem_type, elem_bytes, result.elem_count, result.wire, start);
    return Status::Ok();
  }

  // Consults the fault plan with this rank's op index: sleeps out injected
  // straggler delays (BEFORE the start timestamp, so the late collective
  // entry is visible to the health detector), and on an injected crash
  // cancels the group so peers fail fast instead of hanging.
  FaultAction BeginOp(int member) {
    FaultAction action;
    if (fault_plan_ != nullptr) {
      const int64_t index = op_counts_[static_cast<size_t>(member)]++;
      action = fault_plan_->OnCollective(member, index);
      if (action.delay_us > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(action.delay_us));
      }
      if (action.crash) {
        Abort(Aborted("fault injection: rank " + std::to_string(member) +
                      " crashed at collective " + std::to_string(index)),
              /*culprit_rank=*/member);
      }
    }
    return action;
  }

  // Records the completed op's event. The algorithm label is the world
  // group's: "ring" (AG/RS/AR), "pairwise" (A2A) or "direct".
  void Finish(CommOp op, int member, const char* elem_type, int elem_bytes,
              int64_t elem_count, uint64_t wire, double start_us);

  // Assembles the driver parameters for one Start* call: runs the fault
  // hook (delays, crash-abort), bumps this rank's logical-op sequence
  // number, and binds the channel, comm thread, and telemetry.
  AsyncOpParams AsyncParams(int member, const char* elem_type, int elem_bytes);

  CommTelemetry telemetry_;
  FaultPlan* fault_plan_ = nullptr;
  // First explicit fault attribution handed to Abort; -1 = none. Cleared by
  // RecoveryBarrier (transient faults forgive the suspect on reset).
  std::atomic<int> suspect_rank_{-1};
  // Stale-epoch state (Retire): set once, never cleared.
  std::atomic<bool> retired_{false};
  int epoch_ = 0;
  // Per-rank collective-op counters (each element touched only by its own
  // rank thread); sized by set_fault_plan.
  std::vector<int64_t> op_counts_;
  // Per-rank logical-op sequence of Start* calls (each element touched only
  // by its own rank thread; identical across ranks because all issue the
  // same Start* order).
  std::vector<int64_t> async_seq_;

  // The blocking ops' group, and the channel behind Start* (its own group,
  // so async rendezvous never mix with blocking ones).
  CollectiveGroup world_;
  CollectiveGroup async_;

  mutable std::mutex mu_;
  Status stale_status_;  // guarded by mu_; set by Retire
  // One comm-proxy thread per rank, created on the rank's first Start*
  // (guarded by mu_). Declared after the channel so they are destroyed
  // (drained) first.
  std::vector<std::unique_ptr<PooledThread>> comm_threads_;
};

// The name most call sites (and e2ebench) construct the communicator by.
using FlatCommunicator = Communicator;

// The per-rank handle passed through every parallel module: the shared
// communicator plus this thread's rank within it.
struct ShardContext {
  Communicator* comm = nullptr;
  int rank = 0;

  int size() const { return comm->size(); }
};

}  // namespace msmoe

#endif  // MSMOE_SRC_COMM_COMMUNICATOR_H_
