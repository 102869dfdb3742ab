#include "src/parallel/fused_ops.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/base/math_util.h"
#include "src/base/parallel_for.h"
#include "src/comm/telemetry.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {

namespace {

// Declared stream of the chunk wait/signal ops. The collective itself runs
// on the rank's comm-proxy thread regardless; this stream only carries the
// rendezvous ops so a single-stream schedule serializes them against
// compute the way an unfused sequence would.
constexpr int kCommStream = 1;

std::string ChunkName(const char* base, int chunk) {
  return std::string(base) + "[" + std::to_string(chunk) + "]";
}

}  // namespace

std::unique_ptr<FusedPipeline> RecordFusedAllGatherGemm(const ShardContext& ctx,
                                                        const Tensor& x_local,
                                                        const Tensor& w,
                                                        int64_t row_tile) {
  MSMOE_CHECK_EQ(x_local.ndim(), 2);
  MSMOE_CHECK_EQ(w.ndim(), 2);
  MSMOE_CHECK_EQ(x_local.dim(1), w.dim(0));
  MSMOE_CHECK_GT(row_tile, 0);
  const int n = ctx.size();
  const int rank = ctx.rank;
  Communicator* comm = ctx.comm;
  const int64_t rows_local = x_local.dim(0);
  const int64_t k = x_local.dim(1);
  const int64_t cols = w.dim(1);

  auto pipe = std::make_unique<FusedPipeline>();
  pipe->staging.Resize(static_cast<int64_t>(n) * rows_local * k);
  pipe->y = Tensor::Uninit({static_cast<int64_t>(n) * rows_local, cols});
  const int num_chunks = static_cast<int>(CeilDiv(rows_local, row_tile));
  // Start at record time, on the rank's main thread: the per-rank Start*
  // FIFO contract is schedule-independent by construction.
  pipe->handle = comm->StartAllGather(rank, x_local.data(), pipe->staging.data(),
                                      rows_local * k, num_chunks, /*quantum=*/k);

  FusedPipeline* p = pipe.get();
  const float* w_data = w.data();
  int prev_wait = -1;
  for (int c = 0; c < pipe->handle->num_chunks(); ++c) {
    // Chunk waits are chained: chunks complete in index order on the wire,
    // so the chain makes that order an explicit graph dep and any valid
    // schedule keeps waits non-blocking beyond the wire itself.
    std::vector<int> wait_deps;
    if (prev_wait >= 0) {
      wait_deps.push_back(prev_wait);
    }
    const int wait = p->graph.AddComm(
        ChunkName("ag_wait", c), kCommStream, [p, c] { return p->handle->WaitChunk(c); },
        std::move(wait_deps));
    p->graph.AddCompute(
        ChunkName("ag_gemm", c),
        [p, comm, rank, w_data, n, rows_local, k, cols, c] {
          const int64_t row0 = p->handle->layout().begin(c) / k;
          const int64_t tile_rows = p->handle->layout().size(c) / k;
          ScopedCompSpan span(&comm->telemetry(), "fused_ag_gemm", rank);
          // Per-row GEMMs are independent, so processing sources in ring
          // order inside an arrival chunk keeps the output bitwise equal to
          // the unfused collective-then-GEMM sequence.
          for (int step = 0; step < n; ++step) {
            const int src = (rank + step) % n;
            const int64_t row = static_cast<int64_t>(src) * rows_local + row0;
            Gemm(false, false, tile_rows, cols, k, 1.0f, p->staging.data() + row * k,
                 w_data, 0.0f, p->y.data() + row * cols);
          }
          return Status::Ok();
        },
        {wait});
    prev_wait = wait;
  }
  return pipe;
}

Tensor FusedAllGatherGemm(const ShardContext& ctx, const Tensor& x_local, const Tensor& w,
                          int64_t row_tile) {
  std::unique_ptr<FusedPipeline> pipe = RecordFusedAllGatherGemm(ctx, x_local, w, row_tile);
  // On a chunk failure the graph aborts and the partially-computed output is
  // returned — the caller observes the failure via GroupStatus(), exactly
  // like the eager pipeline did.
  (void)pipe->graph.Execute(2);
  return std::move(pipe->y);
}

std::unique_ptr<FusedPipeline> RecordFusedGemmReduceScatter(const ShardContext& ctx,
                                                            const Tensor& x_local,
                                                            const Tensor& w_shard,
                                                            int64_t row_tile) {
  MSMOE_CHECK_EQ(x_local.ndim(), 2);
  MSMOE_CHECK_EQ(x_local.dim(1), w_shard.dim(0));
  MSMOE_CHECK_GT(row_tile, 0);
  const int n = ctx.size();
  const int rank = ctx.rank;
  Communicator* comm = ctx.comm;
  const int64_t rows = x_local.dim(0);
  MSMOE_CHECK_EQ(rows % n, 0);
  const int64_t k_shard = x_local.dim(1);
  const int64_t cols = w_shard.dim(1);
  const int64_t rows_out = rows / n;
  const int64_t count = rows_out * cols;

  auto pipe = std::make_unique<FusedPipeline>();
  pipe->staging.Resize(rows * cols);
  pipe->y = Tensor::Uninit({rows_out, cols});
  const int num_chunks = static_cast<int>(CeilDiv(rows_out, row_tile));
  // Producer-gated: the comm thread blocks per chunk until the signal op
  // below declares the tile's slice of the send buffer final.
  pipe->handle = comm->StartReduceScatter(rank, pipe->staging.data(), pipe->y.data(),
                                          count, num_chunks, /*quantum=*/cols);

  FusedPipeline* p = pipe.get();
  const float* x_data = x_local.data();
  const float* w_data = w_shard.data();
  std::vector<int> signals;
  for (int c = 0; c < pipe->handle->num_chunks(); ++c) {
    // Each tile's partial GEMMs write a disjoint slice of the send buffer
    // for EVERY destination, so the tile ops are mutually independent.
    const int gemm = p->graph.AddCompute(
        ChunkName("rs_gemm", c),
        [p, comm, rank, x_data, w_data, n, rows_out, k_shard, cols, count, c] {
          const int64_t begin = p->handle->layout().begin(c);
          const int64_t row0 = begin / cols;
          const int64_t tile_rows = p->handle->layout().size(c) / cols;
          ScopedCompSpan span(&comm->telemetry(), "fused_gemm_rs", rank);
          for (int dst = 0; dst < n; ++dst) {
            const int64_t src_row = static_cast<int64_t>(dst) * rows_out + row0;
            Gemm(false, false, tile_rows, cols, k_shard, 1.0f,
                 x_data + src_row * k_shard, w_data, 0.0f,
                 p->staging.data() + static_cast<int64_t>(dst) * count + begin);
          }
          return Status::Ok();
        });
    signals.push_back(p->graph.AddComm(
        ChunkName("rs_signal", c), kCommStream,
        [p, c] {
          p->handle->SignalChunkReady(c);
          return Status::Ok();
        },
        {gemm}));
  }
  // The wait-all depends on every signal: a schedule can never queue it
  // ahead of a signal on the same stream, which would deadlock the
  // producer-gated transfer it is waiting for.
  p->graph.AddComm(
      "rs_wait_all", kCommStream, [p] { return p->handle->WaitAll(); }, signals);
  return pipe;
}

Tensor FusedGemmReduceScatter(const ShardContext& ctx, const Tensor& x_local,
                              const Tensor& w_shard, int64_t row_tile) {
  std::unique_ptr<FusedPipeline> pipe =
      RecordFusedGemmReduceScatter(ctx, x_local, w_shard, row_tile);
  (void)pipe->graph.Execute(2);
  return std::move(pipe->y);
}

}  // namespace msmoe
