// Nonblocking chunked collectives over the thread-rank substrate — the
// functional analogue of §4.2's tile-signaled communication kernels.
//
// A Communicator::Start* call (communicator.h) splits one logical
// collective into C contiguous chunks and enqueues a driver onto the rank's
// persistent comm-proxy thread (PooledThread — the "communication stream").
// The driver runs the chunks one by one over a DEDICATED async-channel
// CollectiveGroup and publishes each chunk's readiness through the
// returned CommHandle; the rank's main thread keeps computing and consumes
// chunks with WaitChunk(i) / WaitAll(). Producer-gated ops (reduce-scatter:
// the input of chunk i is a GEMM tile that lands mid-pipeline) go the other
// way: the comm thread blocks in WaitSignal(i) until the caller's
// SignalChunkReady(i).
//
// Ordering contract (why determinism survives overlap):
//   * every rank must issue the same Start* sequence — comm threads execute
//     ops FIFO, so the async channel's rendezvous pair up exactly like the
//     equivalent synchronous call sequence;
//   * chunk boundaries are a pure function of (count, num_chunks, quantum),
//     identical on all ranks;
//   * chunks complete in index order on the wire, but the CONSUMER may wait
//     on them in any order — data for chunk i is bitwise the elements
//     [begin(i), end(i)) of the monolithic result, and reductions keep the
//     group's rank-ordered double-precision sum per element, which is
//     independent of how the element range is segmented.
//
// Faults: injected crashes/timeouts/aborts surface as the same sticky
// Status from WaitChunk/WaitAll on every rank. Destroying a handle whose
// producer-gated chunks were never signalled (a mid-pipeline abort) cancels
// the op AND aborts the async channel so peer comm threads unwind instead
// of deadlocking; the channel is reset by the owning Communicator's
// RecoveryBarrier like any other group. Destroy handles in Start order:
// the comm thread retires ops FIFO, so a handle's destructor waits behind
// every earlier op, including an unsignalled producer-gated one.
//
// Wire-byte accounting: chunks cover disjoint element ranges and every
// volume formula is linear in payload, so the per-chunk AccountOnce totals
// sum exactly to the monolithic op's volume — nothing is double-counted
// (src/sim/comm_crosscheck asserts this per logical op).
#ifndef MSMOE_SRC_COMM_ASYNC_COMM_H_
#define MSMOE_SRC_COMM_ASYNC_COMM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/comm/collective_group.h"
#include "src/comm/fault.h"
#include "src/comm/telemetry.h"

namespace msmoe {

// Near-even split of `count` elements into chunks whose boundaries are
// multiples of `quantum` (an indivisible row: a token's hidden vector, an
// output row). Identical on every rank for identical inputs. `count` must
// be a multiple of `quantum`; num_chunks is clamped to the row count (and
// to >= 1, so count == 0 yields one empty chunk) unless `pad_chunks` asks
// for exactly num_chunks chunks, empty tail included — the A2AV driver
// needs every (src, dst) pair to agree on the chunk count.
class ChunkLayout {
 public:
  ChunkLayout(int64_t count, int num_chunks, int64_t quantum, bool pad_chunks = false);

  int num_chunks() const { return static_cast<int>(bounds_.size()) - 1; }
  int64_t begin(int chunk) const { return bounds_[static_cast<size_t>(chunk)]; }
  int64_t end(int chunk) const { return bounds_[static_cast<size_t>(chunk) + 1]; }
  int64_t size(int chunk) const { return end(chunk) - begin(chunk); }
  int64_t total() const { return bounds_.back(); }

 private:
  std::vector<int64_t> bounds_;  // num_chunks + 1 element offsets
};

// The two-directional per-chunk rendezvous inside a CommHandle: the comm
// thread marks chunks READY as they land (consumer side), the caller
// SIGNALs producer-gated chunks as their inputs materialize. All waits are
// cancellable; Cancel sets a sticky status that every current and future
// wait returns.
class ChunkBarrier {
 public:
  explicit ChunkBarrier(int num_chunks);

  // Consumer side (comm thread produces, caller consumes).
  void MarkReady(int chunk);
  Status WaitReady(int chunk);  // blocks; any order across chunks is fine

  // Producer side (caller produces, comm thread consumes).
  void Signal(int chunk);
  Status WaitSignal(int chunk);
  bool AllSignalled() const;

  // Sticky cancellation: wakes every waiter; chunks never marked ready
  // report `status` from WaitReady/WaitSignal. First status wins.
  void Cancel(Status status);
  Status status() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> ready_;
  std::vector<char> signalled_;
  Status status_;
  bool cancelled_ = false;
};

// Handle to one in-flight chunked collective. Returned by
// Communicator::Start*; owned by the caller. The handle must not outlive
// the Communicator that issued it. Destruction blocks until the comm
// thread retired the op (cancelling it first if the caller never signalled
// a producer-gated chunk — see the header comment).
class CommHandle {
 public:
  ~CommHandle();

  CommHandle(const CommHandle&) = delete;
  CommHandle& operator=(const CommHandle&) = delete;

  int num_chunks() const { return num_chunks_; }
  // Element layout of the chunks (all-gather / reduce-scatter). For
  // all-to-all-v the split is data-dependent and this layout is empty; use
  // recv_counts() instead.
  const ChunkLayout& layout() const { return layout_; }

  // Blocks until chunk `i`'s slice of the result is in the receive buffer
  // (or the op failed). Chunks may be waited in any order; the data of
  // chunk i is always the elements [layout().begin(i), layout().end(i)) of
  // the monolithic result.
  Status WaitChunk(int chunk);

  // Blocks until every chunk landed; returns the op's sticky status.
  Status WaitAll();

  // Producer-gated ops only (reduce-scatter): declares chunk `i`'s input
  // slice of the send buffer final. Must be called exactly once per chunk,
  // in any order; the comm thread consumes chunks in index order.
  void SignalChunkReady(int chunk);

  // All-to-all-v only: per-source element counts received by this rank.
  // Valid after the first successful WaitChunk/WaitAll.
  const std::vector<int64_t>& recv_counts() const { return recv_counts_; }

 private:
  friend class Communicator;
  friend class AsyncCommDriver;

  CommHandle(ChunkLayout layout, int num_chunks, CollectiveGroup* channel,
             bool producer_gated);

  void MarkRetired();
  void WaitRetired();

  ChunkLayout layout_;
  const int num_chunks_;
  CollectiveGroup* channel_;   // aborted by the dtor on mid-pipeline cancel
  const bool producer_gated_;
  ChunkBarrier barrier_;
  std::vector<int64_t> recv_counts_;

  std::mutex retire_mu_;
  std::condition_variable retire_cv_;
  bool retired_ = false;
};

// Elevates the calling thread to a small real-time priority, if the host
// permits it (silently a no-op otherwise). The comm-proxy thread stands in
// for hardware a GPU dedicates to communication — copy engines and NIC DMA
// make chunk transfers progress regardless of what the SMs are doing. Under
// a contended CFS scheduler the proxy thread instead waits out the compute
// threads' timeslices at every chunk rendezvous (milliseconds per chunk on
// a saturated host), which serializes exactly the comm/compute overlap the
// chunked collectives exist to create. Real-time priority restores the
// hardware semantics: the thread sleeps almost all the time (cv waits and
// the emulated wire), wakes for microsecond bursts of memcpy + barrier
// work, and preempts compute immediately when it does.
void TryElevateCommThreadPriority();

// Everything a chunked driver needs besides the op payload. Assembled by
// Communicator::Start*; the driver closures run on `thread`.
struct AsyncOpParams {
  CollectiveGroup* channel = nullptr;
  CommTelemetry* telemetry = nullptr;
  PooledThread* thread = nullptr;
  int member = 0;
  int group_size = 0;
  int64_t logical_op = 0;
  const char* elem_type = "bytes";
  int elem_bytes = 1;
  FaultAction fault;  // applied to the final chunk's slice (bit flips)
};

// Internal byte/element-level entry points behind Communicator::Start*.
// `count` is in elements of `elem_bytes` each; quantum as in ChunkLayout.
class AsyncCommDriver {
 public:
  static std::unique_ptr<CommHandle> StartAllGather(const AsyncOpParams& params,
                                                    const void* send, void* recv,
                                                    int64_t count, int num_chunks,
                                                    int64_t quantum);
  static std::unique_ptr<CommHandle> StartReduceScatter(const AsyncOpParams& params,
                                                        const float* send, float* recv,
                                                        int64_t count, int num_chunks,
                                                        int64_t quantum);
  // resize_recv(total_elements) must resize the caller's receive storage and
  // return its base pointer; it runs on the comm thread once the counts
  // exchange fixed the receive size, so the caller must not touch the
  // receive buffer until the first WaitChunk returns.
  static std::unique_ptr<CommHandle> StartAllToAllV(
      const AsyncOpParams& params, const void* send,
      const std::vector<int64_t>& send_counts,
      const std::function<void*(int64_t)>& resize_recv, int num_chunks);

  // A handle that is already failed: every WaitChunk/WaitAll returns
  // `status` immediately and no comm thread is involved. Returned by
  // Communicator::Start* on a retired (stale-epoch) communicator, so an
  // overlap pipeline issued against a replaced membership fails loudly
  // instead of deadlocking on a rendezvous nobody else will join.
  static std::unique_ptr<CommHandle> MakeFailedHandle(Status status);
};

}  // namespace msmoe

#endif  // MSMOE_SRC_COMM_ASYNC_COMM_H_
