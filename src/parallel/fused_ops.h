// Functional (CPU) versions of the §4.2 fused communication-computation
// kernels, expressed as recorded task graphs on the runtime executor.
//
// On GPUs these fuse tile-level communication signals into GEMM kernels; on
// the thread-rank substrate the same dataflow is expressed as an ExecGraph
// (src/core/exec_graph.h): the chunked collective is STARTED at record time
// on the rank's comm-proxy thread, per-chunk wait/signal ops live on a
// communication stream, and per-tile GEMM closures live on the compute
// stream with explicit deps. Executing the graph with its declared schedule
// reproduces the hand-written double-buffered pipeline; because the
// schedule is data, any dependency-respecting reordering (including
// auto_scheduler output) produces bitwise the same result — processing
// tiles in arrival order, with any tile split, matches the unfused
// collective-then-GEMM sequence exactly. The timing benefit is modeled
// separately by src/sim/overlap_sim.
#ifndef MSMOE_SRC_PARALLEL_FUSED_OPS_H_
#define MSMOE_SRC_PARALLEL_FUSED_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/arena.h"
#include "src/core/exec_graph.h"
#include "src/parallel/sp_attention.h"
#include "src/tensor/tensor.h"

namespace msmoe {

// One recorded fused pipeline: the graph plus every buffer its closures
// touch. Execute the graph (declared schedule or any valid reordering),
// then take `y`. Field order is load-bearing for abort semantics: `handle`
// is declared after the buffers so on destruction it cancels/retires the
// in-flight collective BEFORE the staging buffer and output die, and the
// graph (whose closures reference everything) dies first.
//
// The recorded closures also reference the caller's input tensors (x_local,
// weights), which must outlive execution — the usual eager call pattern.
struct FusedPipeline {
  // Pool-backed and UNINITIALIZED on record: the all-gather overwrites every
  // gathered row, and the reduce-scatter send slices are all written by
  // beta == 0 tile GEMMs before their signal releases them.
  PooledBuffer staging;            // gathered input (AG) or send buffer (RS)
  Tensor y;                        // pipeline output
  std::unique_ptr<CommHandle> handle;
  ExecGraph graph;
};

// all-gather + GEMM (the TP-attention entry kernel, Fig 9 pattern):
//   Y = AllGather(x_local) @ w
// x_local is [rows_local, k]; w is [k, cols]; Y is [n * rows_local, cols].
// The GEMM over source-rank chunk r starts as soon as chunk r "arrives";
// row_tile controls the tile granularity within each chunk.
//
// Record* starts the collective and returns the recorded graph without
// executing it; the plain entry point records and executes the declared
// two-stream schedule. Graph shape: chunk waits chained on stream 1 (chunks
// complete in index order on the wire), chunk GEMMs on stream 0, each
// depending on its wait.
std::unique_ptr<FusedPipeline> RecordFusedAllGatherGemm(const ShardContext& ctx,
                                                        const Tensor& x_local,
                                                        const Tensor& w, int64_t row_tile);
Tensor FusedAllGatherGemm(const ShardContext& ctx, const Tensor& x_local, const Tensor& w,
                          int64_t row_tile);

// GEMM + reduce-scatter (the TP-attention exit kernel):
//   Y_local = ReduceScatter(x_local @ w_shard)
// Row-parallel linear: x_local is [rows, k_shard] (this rank's slice of the
// contraction dim), w_shard is [k_shard, cols]; every rank's partial output
// is summed and row-chunk r lands on rank r: Y_local is [rows / n, cols].
// Graph shape: independent per-tile partial GEMMs on stream 0, a signal op
// per tile on stream 1 (releasing the producer-gated chunk), and a final
// wait-all depending on every signal.
std::unique_ptr<FusedPipeline> RecordFusedGemmReduceScatter(const ShardContext& ctx,
                                                            const Tensor& x_local,
                                                            const Tensor& w_shard,
                                                            int64_t row_tile);
Tensor FusedGemmReduceScatter(const ShardContext& ctx, const Tensor& x_local,
                              const Tensor& w_shard, int64_t row_tile);

}  // namespace msmoe

#endif  // MSMOE_SRC_PARALLEL_FUSED_OPS_H_
