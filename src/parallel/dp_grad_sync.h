// Data-parallel gradient synchronization paths (§5, Fig 10).
//
// Three strategies over a DP group of n ranks, all returning this rank's
// reduced gradient shard (ZeRO-style — the owner then updates its optimizer
// shard and parameters are re-gathered):
//
//   kFp32ReduceScatter:  the safe baseline — FP32 on the wire.
//   kBf16AllToAll:       the paper's compression — one-time FP32->BF16 cast,
//                        all-to-all of BF16 shards, LOCAL accumulation in
//                        FP32. Halves wire volume; avoids repeated BF16
//                        accumulation entirely.
//   kBf16RingReduce:     the risky design the paper rejects — emulates a
//                        ring reduce-scatter whose partial sums are kept in
//                        BF16 at every hop, compounding rounding error
//                        (included to demonstrate why §5 uses all-to-all).
//
// Includes the memory-efficient in-place packing trick: BF16 codes are
// packed into the first half of the FP32 input buffer and the second half
// serves as the receive buffer, so peak memory never exceeds the original
// FP32 allocation.
#ifndef MSMOE_SRC_PARALLEL_DP_GRAD_SYNC_H_
#define MSMOE_SRC_PARALLEL_DP_GRAD_SYNC_H_

#include <cstdint>
#include <memory>

#include "src/comm/communicator.h"

namespace msmoe {

enum class GradSyncMode {
  kFp32ReduceScatter,
  kBf16AllToAll,
  kBf16RingReduce,
};

const char* GradSyncModeName(GradSyncMode mode);

// Canonical padded gradient/optimizer-state length for n-way ZeRO-1
// sharding: ceil(total / n) * n, so every rank owns an equal
// PaddedGradCount / n slice and the tail rank's slice is zero-padded. The
// trainer's initial geometry, the elastic post-shrink re-plan, and the
// checkpoint reshard helpers (src/model/checkpoint.h) all route through
// this one definition so their layouts can never drift apart.
inline int64_t PaddedGradCount(int64_t total_elems, int n) {
  return (total_elems + n - 1) / n * n;
}

// Reduces `grads` (count floats, identical layout on every rank) across the
// group and writes this rank's shard into `shard_out` (count / n floats,
// caller-owned; count must divide). The reduction is a plain sum (callers
// average by pre-scaling). The BF16 wire copies are staged in the calling
// thread's workspace, so a steady-state step acquires no fresh memory.
void SyncGradShardInto(Communicator& comm, int rank, const float* grads, int64_t count,
                       GradSyncMode mode, float* shard_out);

// Nonblocking FP32 reduce-scatter of a gradient segment (the §5 inter-op
// overlap primitive): the transfer runs chunk by chunk on the rank's
// comm-proxy thread while the caller keeps computing (e.g. the remaining
// layers' backward). WaitAll() on the returned handle blocks until
// shard_out (count / n floats) holds this rank's summed shard; failures
// surface there as the communicator's sticky status. Every rank must issue
// the same Start sequence. The per-element reduction is identical to the
// synchronous kFp32ReduceScatter path, so results are bitwise equal however
// the gradient buffer is segmented.
//
// With signal_now = true the segment must already be final: every producer
// chunk is released up front and the transfer streams immediately. With
// signal_now = false the collective is only REGISTERED (producer-gated);
// the caller fills `grads` later and releases it with
// SignalGradSegmentReady — the graph-recorded trainer starts every
// segment's sync before backward runs and signals per layer as gradients
// become final.
std::unique_ptr<CommHandle> StartGradShardSync(Communicator& comm, int rank,
                                               const float* grads, int64_t count,
                                               float* shard_out, int num_chunks,
                                               bool signal_now = true);

// Marks every chunk of a deferred (signal_now = false) segment sync as
// final, releasing the comm-proxy thread to read the send buffer.
void SignalGradSegmentReady(CommHandle& handle);

// Convenience: full all-reduced gradients via shard sync + all-gather, so
// trainers that keep replicated optimizer state can use any mode.
void AllReduceGrads(Communicator& comm, int rank, float* grads, int64_t count,
                    GradSyncMode mode);

// Wire bytes each mode moves for `count` FP32 gradients on n ranks (per
// rank-pair volume, for the Fig 10 "50% reduction" claim).
int64_t GradSyncWireBytes(GradSyncMode mode, int64_t count, int n);

// In-place packing used by kBf16AllToAll: stores the BF16 codes of
// buffer[0..count) in the first count/2 float slots (two codes per float).
// UnpackBf16InPlace expands them back to floats. Round-trips exactly to
// BF16 precision while never growing the allocation.
void PackBf16InPlace(float* buffer, int64_t count);
void UnpackBf16InPlace(float* buffer, int64_t count);

}  // namespace msmoe

#endif  // MSMOE_SRC_PARALLEL_DP_GRAD_SYNC_H_
