// In-process collective communication over thread ranks.
//
// This is the repository's NCCL substitute: each "GPU rank" is a thread, and
// a CollectiveGroup provides barrier-synchronized collectives with exactly
// the semantics of the NCCL operations the paper uses (all-reduce,
// all-gather, reduce-scatter, all-to-all(v), broadcast). Reductions are
// performed in deterministic rank order so every member computes bit-
// identical results — which the numerical-equivalence tests rely on.
//
// Payload precision on the (virtual) wire is emulated by converting values
// before calling a collective (src/numerics); the group additionally keeps
// an analytic count of wire bytes per algorithm (ring AG/RS, all-to-all) so
// tests and benches can assert the communication-volume formulas of §3.
//
// Wire-byte accounting convention: every collective computes the TOTAL
// analytic volume of the operation (summed over all members' off-rank
// traffic) and adds it to wire_bytes() exactly once, on member 0
// (AccountOnce). No collective accumulates per-member shares — so
// wire_bytes() always reads as "bytes the fabric moved", regardless of
// which member queries it or how asymmetric the op was (AllToAllV). Each
// data-moving collective also reports that volume through its optional
// `wire_out` parameter (identical on every member); the Communicator and
// the chunked async path record it from there.
//
// Emulated wire clock: on this substrate a collective's data movement is a
// memcpy, so comm/compute overlap would be unmeasurable in wall-clock time.
// set_wire_model() makes every data-moving collective additionally block for
// latency_us + bytes / bytes_per_us of IDLE time (an abortable wait, not a
// spin), modeling the link occupancy of the analytic volume it accounts.
// Off by default — nothing changes for existing callers; the overlap bench
// and tests enable it to measure fused-op pipelining as real elapsed time.
//
// Fault tolerance: the internal rendezvous is a CANCELLABLE barrier, not a
// raw std::barrier, and every collective returns its own [[nodiscard]]
// Status. A member that never arrives (crashed or stuck rank) surfaces as
// Status(kDeadlineExceeded) on the first member whose configured deadline
// expires and as the same sticky error on every other member, instead of a
// process-wide hang. Abort(status) cancels the barrier explicitly (fault
// injection, failed health checks); once aborted every collective fails
// fast with the FIRST error raised until all members rendezvous through
// RecoveryBarrier(), which clears the fault. A collective that returns Ok
// completed on every member, even if a fault lands right after its exit
// barrier closed. One that fails leaves its outputs untouched when the fault
// came before its entry barrier closed, and unspecified otherwise.
//
// Algorithm code should not call this class directly — issue collectives
// through the instrumented msmoe::Communicator layer (communicator.h),
// which records per-op telemetry on top of these primitives.
#ifndef MSMOE_SRC_COMM_COLLECTIVE_GROUP_H_
#define MSMOE_SRC_COMM_COLLECTIVE_GROUP_H_

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/logging.h"
#include "src/base/status.h"

namespace msmoe {

class CollectiveGroup {
 public:
  explicit CollectiveGroup(int size);

  int size() const { return size_; }

  // Analytic bytes a real fabric would have moved (sum over members).
  uint64_t wire_bytes() const { return wire_bytes_.load(std::memory_order_relaxed); }
  void ResetWireBytes() { wire_bytes_.store(0, std::memory_order_relaxed); }

  // --- Emulated wire clock (see header comment) ---------------------------
  //
  // bytes_per_us <= 0 disables the emulation (the default). Set before ranks
  // start issuing collectives; applies to every data-moving collective.
  void set_wire_model(double bytes_per_us, double latency_us) {
    wire_bytes_per_us_ = bytes_per_us;
    wire_latency_us_ = latency_us;
  }
  bool wire_model_enabled() const { return wire_bytes_per_us_ > 0.0; }
  // Modeled occupancy of `bytes` on the emulated wire (0 when disabled).
  double WireTimeUs(uint64_t bytes) const {
    if (!wire_model_enabled()) {
      return 0.0;
    }
    return wire_latency_us_ + static_cast<double>(bytes) / wire_bytes_per_us_;
  }

  // --- Fault surface -------------------------------------------------------

  // Deadline applied to every internal barrier wait. 0 (the default) waits
  // forever — exactly the pre-fault-tolerance behavior. Set before ranks
  // start issuing collectives.
  void set_timeout_ms(double timeout_ms) { timeout_ms_ = timeout_ms; }
  double timeout_ms() const { return timeout_ms_; }

  // Cancels the barrier: every current and future wait returns the first
  // non-OK status raised (sticky until RecoveryBarrier). `status` must be
  // non-OK. `culprit_rank` optionally attributes the fault to a member
  // (e.g. the rank an injected crash targeted); the FIRST attribution
  // sticks, like the first status.
  void Abort(Status status, int culprit_rank = -1);

  // First error raised on this group, or OK.
  Status status() const;
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  // The member the sticky error is attributed to: the rank passed to
  // Abort, or — for a barrier timeout — the lowest-indexed member that had
  // not arrived at the expired sync point. -1 when healthy or when no
  // attribution exists (e.g. an external Abort without a culprit). Cleared
  // by ResetAbort.
  int culprit_rank() const;

  // Permanently decommissions the group (elastic shrink replaced it with a
  // new epoch): aborts every waiter and makes the abort UNCLEARABLE —
  // ResetAbort/RecoveryBarrier keep the sticky status, so a straggling
  // collective issued against the retired membership fails loudly instead
  // of rendezvousing with nobody. If the group already carries a fault
  // status, that first error is kept (it is more informative than the
  // stale-epoch notice).
  void Retire(Status status);
  bool retired() const { return retired_.load(std::memory_order_acquire); }

  // Collective-safe fault recovery: ALL members call with their own index
  // once they have observed the failure and unwound out of the failed
  // step's collectives. Rendezvouses on a plain (never-cancelled) barrier,
  // clears the abort state, and rendezvouses again, so no member can re-
  // enter a collective while the reset is in flight. In this thread-rank
  // world even a "crashed" rank's thread survives to call this — it plays
  // the respawned replacement process of a production restart.
  void RecoveryBarrier(int member);

  // Phases of RecoveryBarrier, exposed so a Communicator can reset its
  // world group and its async channel inside one world rendezvous.
  void RecoveryArrive() { recovery_barrier_.arrive_and_wait(); }
  void ResetAbort();

  // --- Collectives ---------------------------------------------------------
  //
  // All members must call every collective, with their own member index.
  // Each returns the op's own status (see the header comment); `wire_out`
  // (optional) receives the op's total analytic wire bytes.

  // The member-less form is kept for call sites outside any rank context
  // (tests poking a barrier from an anonymous thread); it cannot contribute
  // to timeout culprit attribution.
  Status Barrier(int member = -1);

  // recv must hold size() * count elements; member m's send block lands at
  // recv[m * count .. (m+1) * count).
  template <typename T>
  Status AllGather(int member, const T* send, T* recv, int64_t count,
                   uint64_t* wire_out = nullptr) {
    PublishSend(member, send);
    MSMOE_RETURN_IF_ERROR(EnterCollective(member));
    for (int src = 0; src < size_; ++src) {
      std::memcpy(recv + static_cast<int64_t>(src) * count, SendSlot<T>(src),
                  static_cast<size_t>(count) * sizeof(T));
    }
    return Complete(member, RingVolume(count * static_cast<int64_t>(sizeof(T))), wire_out);
  }

  // send holds size() * count elements; member m receives the sum of all
  // members' m-th blocks into recv (count elements).
  template <typename T>
  Status ReduceScatter(int member, const T* send, T* recv, int64_t count,
                       uint64_t* wire_out = nullptr) {
    PublishSend(member, send);
    MSMOE_RETURN_IF_ERROR(EnterCollective(member));
    const int64_t offset = static_cast<int64_t>(member) * count;
    for (int64_t i = 0; i < count; ++i) {
      double sum = 0.0;
      for (int src = 0; src < size_; ++src) {
        sum += static_cast<double>(SendSlot<T>(src)[offset + i]);
      }
      recv[i] = static_cast<T>(sum);
    }
    return Complete(member, RingVolume(count * static_cast<int64_t>(sizeof(T))), wire_out);
  }

  // Element-wise sum over all members; every member receives the full result.
  template <typename T>
  Status AllReduce(int member, const T* send, T* recv, int64_t count,
                   uint64_t* wire_out = nullptr) {
    PublishSend(member, send);
    MSMOE_RETURN_IF_ERROR(EnterCollective(member));
    for (int64_t i = 0; i < count; ++i) {
      double sum = 0.0;
      for (int src = 0; src < size_; ++src) {
        sum += static_cast<double>(SendSlot<T>(src)[i]);
      }
      recv[i] = static_cast<T>(sum);
    }
    return Complete(member, 2 * RingVolume(count * static_cast<int64_t>(sizeof(T))),
                    wire_out);
  }

  // Member `root`'s buffer is copied to every member.
  template <typename T>
  Status Broadcast(int member, int root, T* data, int64_t count,
                   uint64_t* wire_out = nullptr) {
    if (member == root) {
      PublishSend(member, data);
    }
    MSMOE_RETURN_IF_ERROR(EnterCollective(member));
    if (member != root) {
      std::memcpy(data, SendSlot<T>(root), static_cast<size_t>(count) * sizeof(T));
    }
    return Complete(member, RingVolume(count * static_cast<int64_t>(sizeof(T))), wire_out);
  }

  // Fixed-size all-to-all: send and recv hold size() * count elements;
  // recv[src * count ..] = member src's block addressed to this member.
  template <typename T>
  Status AllToAll(int member, const T* send, T* recv, int64_t count,
                  uint64_t* wire_out = nullptr) {
    PublishSend(member, send);
    MSMOE_RETURN_IF_ERROR(EnterCollective(member));
    for (int src = 0; src < size_; ++src) {
      std::memcpy(recv + static_cast<int64_t>(src) * count,
                  SendSlot<T>(src) + static_cast<int64_t>(member) * count,
                  static_cast<size_t>(count) * sizeof(T));
    }
    return Complete(member, A2AVolume(count * static_cast<int64_t>(sizeof(T))), wire_out);
  }

  // Variable all-to-all. send_counts[d] elements go to member d, packed
  // contiguously in destination order. On return, *recv_counts[s] holds the
  // element count received from member s and recv is packed in source order.
  // recv holds recv_capacity elements (callers can size it exactly via
  // ExchangeCounts below). Every member's capacity is published with the
  // counts, so if ANY member would receive more than its capacity, every
  // member aborts the group with kInvalidArgument before anyone copies.
  template <typename T>
  Status AllToAllV(int member, const T* send, const std::vector<int64_t>& send_counts,
                   T* recv, int64_t recv_capacity, std::vector<int64_t>* recv_counts,
                   uint64_t* wire_out = nullptr) {
    MSMOE_CHECK_EQ(static_cast<int>(send_counts.size()), size_);
    PublishSend(member, send);
    PublishCounts(member, send_counts);
    recv_capacity_[static_cast<size_t>(member)] = recv_capacity;
    MSMOE_RETURN_IF_ERROR(EnterCollective(member));
    // The published counts matrix and capacities are stable between the
    // barriers, so every member reaches the same verdict and computes the
    // same total off-rank volume.
    uint64_t total = 0;
    for (int dst = 0; dst < size_; ++dst) {
      int64_t incoming = 0;
      for (int src = 0; src < size_; ++src) {
        incoming += CountAt(src, dst);
        if (src != dst) {
          total += static_cast<uint64_t>(CountAt(src, dst)) * sizeof(T);
        }
      }
      const int64_t capacity = recv_capacity_[static_cast<size_t>(dst)];
      if (incoming > capacity) {
        Abort(InvalidArgument("AllToAllV: member " + std::to_string(dst) +
                              " would receive " + std::to_string(incoming) +
                              " elements into a buffer of " + std::to_string(capacity)));
        return ExitCollective(member);
      }
    }
    recv_counts->assign(static_cast<size_t>(size_), 0);
    int64_t recv_offset = 0;
    for (int src = 0; src < size_; ++src) {
      // Offset of the block addressed to `member` inside src's send buffer.
      int64_t src_offset = 0;
      for (int dst = 0; dst < member; ++dst) {
        src_offset += CountAt(src, dst);
      }
      const int64_t n = CountAt(src, member);
      if (n > 0) {  // an empty send or recv buffer may be null: memcpy UB
        std::memcpy(recv + recv_offset, SendSlot<T>(src) + src_offset,
                    static_cast<size_t>(n) * sizeof(T));
      }
      (*recv_counts)[static_cast<size_t>(src)] = n;
      recv_offset += n;
    }
    return Complete(member, total, wire_out);
  }

  // Shares each member's scalar value into *out (size() entries).
  // Accounted as an all-gather of one double: (size-1) * sizeof(double).
  Status ExchangeScalars(int member, double value, std::vector<double>* out,
                         uint64_t* wire_out = nullptr);

  // Shares each member's per-destination counts; *all_counts becomes the
  // full size() x size() matrix (row src, column dst). This is the
  // metadata rendezvous of AllToAllV exposed on its own, for the chunked
  // async driver — like the monolithic op's counts matrix it rides the
  // barrier's shared slots and accounts no wire bytes.
  Status ExchangeCounts(int member, const std::vector<int64_t>& send_counts,
                        std::vector<int64_t>* all_counts);

 private:
  template <typename T>
  const T* SendSlot(int src) const {
    return static_cast<const T*>(send_slots_[static_cast<size_t>(src)]);
  }

  void PublishSend(int member, const void* ptr) {
    send_slots_[static_cast<size_t>(member)] = ptr;
  }
  void PublishCounts(int member, const std::vector<int64_t>& counts);
  int64_t CountAt(int src, int dst) const {
    return counts_[static_cast<size_t>(src * size_ + dst)];
  }

  // The cancellable rendezvous every collective phase runs through: returns
  // OK when all members arrived, the sticky abort status if the group was
  // cancelled, or raises kDeadlineExceeded for everyone when this waiter's
  // deadline expires first. `member` (when >= 0) marks this waiter in the
  // arrival bitmap, so a timeout can attribute the fault to the members
  // that never showed up.
  Status SyncPoint(int member = -1);
  Status SyncPointLocked(std::unique_lock<std::mutex>& lock, int member, bool opens_reads);

  // A collective is EnterCollective (the entry barrier), this member's
  // reads of its peers' published slots and send buffers, then
  // ExitCollective. The entry barrier opens a read phase that each member
  // ends in ExitCollective, and a member that fails on an abort leaves
  // only once every read phase has ended. Without that wait it could
  // publish its next collective's counts, or rewrite or free the buffer a
  // peer is still copying from. The wait is bounded: readers are running
  // memcpys, not waiting on anything.
  Status EnterCollective(int member);
  // Ends the read phase, blocks for WireTimeUs(*wire_bytes) of idle time
  // when a volume is given and the wire model is on (every member sleeps
  // concurrently, so one collective costs one wire time; an Abort cuts the
  // sleep short), then runs the exit barrier.
  Status ExitCollective(int member, std::optional<uint64_t> wire_bytes = std::nullopt);
  // Returns the sticky abort status once no member is in a read phase.
  Status AbortedExit(std::unique_lock<std::mutex>& lock);
  // The tail of every data-moving collective: accounts `volume` once,
  // reports it through *wire_out, and exits with the volume on the wire.
  Status Complete(int member, uint64_t volume, uint64_t* wire_out) {
    AccountOnce(member, volume);
    if (wire_out != nullptr) {
      *wire_out = volume;
    }
    return ExitCollective(member, volume);
  }

  // Ring all-gather / reduce-scatter volume per the standard (g-1)/g * total.
  uint64_t RingVolume(int64_t bytes_per_member) const {
    return static_cast<uint64_t>(size_ - 1) * static_cast<uint64_t>(bytes_per_member);
  }
  // All-to-all: every member sends (g-1) off-rank blocks of `bytes` each.
  uint64_t A2AVolume(int64_t bytes_per_block) const {
    return static_cast<uint64_t>(size_) * static_cast<uint64_t>(size_ - 1) *
           static_cast<uint64_t>(bytes_per_block) / static_cast<uint64_t>(size_);
  }
  // Adds `bytes` exactly once per collective (member 0 accounts) — the
  // single accounting convention documented at the top of this header.
  void AccountOnce(int member, uint64_t bytes) {
    if (member == 0) {
      wire_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
  }

  const int size_;
  std::vector<const void*> send_slots_;
  std::vector<int64_t> counts_;
  std::vector<int64_t> recv_capacity_;  // AllToAllV receive capacity per member
  std::vector<double> scalars_;
  std::atomic<uint64_t> wire_bytes_{0};

  // Cancellable-barrier state.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
  int readers_ = 0;  // members still reading after the last entry barrier
  Status abort_status_;               // first error; OK = healthy
  std::atomic<bool> aborted_{false};  // lock-free fast-path mirror
  std::atomic<bool> retired_{false};  // abort is permanent (stale epoch)
  double timeout_ms_ = 0.0;           // 0 = wait forever
  // Which members have arrived at the OPEN sync point (cleared when the
  // barrier closes); consulted on timeout to name the missing ranks.
  std::vector<char> arrived_members_;
  int culprit_rank_ = -1;  // first fault attribution; -1 = none

  // Emulated wire clock (off when bytes_per_us <= 0).
  double wire_bytes_per_us_ = 0.0;
  double wire_latency_us_ = 0.0;

  // Recovery rendezvous: a plain barrier that is never cancelled (all rank
  // threads survive simulated faults), used only by RecoveryBarrier.
  std::barrier<> recovery_barrier_;
};

// A persistent FIFO task thread drawn from the same process-wide pool that
// backs RunOnRanks. Communicators dedicate one per rank as the "comm proxy"
// thread driving nonblocking chunked collectives (async_comm.h) — the
// thread-rank analogue of a GPU's communication stream. Tasks run strictly
// in submission order. The destructor drains the queue, waits for the loop
// to finish, and returns the thread to the shared pool for reuse.
class PooledThread {
 public:
  PooledThread();
  ~PooledThread();

  PooledThread(const PooledThread&) = delete;
  PooledThread& operator=(const PooledThread&) = delete;

  // Enqueues a task; runs after every previously submitted task completed.
  // Tasks must not throw.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished.
  void Drain();

 private:
  struct State;
  std::shared_ptr<State> state_;
};

// Runs fn(rank) on `world_size` concurrent rank threads and blocks until
// all complete. Rank threads come from a per-process persistent pool (one
// live thread is dedicated per rank for the whole call — ranks block inside
// collective barriers and can never be queued), so trainer loops issuing a
// RunOnRanks per step reuse the same threads instead of paying a
// spawn/join per call. Each rank thread runs its ParallelFor shards on its
// own workers; with no worker cap set it gets max(1, budget / world_size)
// of them (src/base/parallel_for.h). A rank failure (thrown exception, or
// MSMOE_CHECK failure — converted to an exception for the rank threads) is
// re-raised as a CHECK failure on the calling thread after all ranks
// finished. NOTE: without an abort_group, a rank that fails while its peers
// wait inside a collective leaves those peers blocked — use
// RunOnRanksStatus with the group for fault-prone code.
void RunOnRanks(int world_size, const std::function<void(int)>& fn);

// As RunOnRanks, but the first rank failure (1) immediately cancels
// `abort_group` (when non-null) so surviving ranks fall out of any
// collective with Status(kAborted) instead of deadlocking, and (2) is
// returned to the caller as a Status once every rank thread joined.
Status RunOnRanksStatus(int world_size, const std::function<void(int)>& fn,
                        CollectiveGroup* abort_group = nullptr);

}  // namespace msmoe

#endif  // MSMOE_SRC_COMM_COLLECTIVE_GROUP_H_
