#include <gtest/gtest.h>

#include <vector>

#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/parallel/fused_ops.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// The fused kernels must be bitwise equal to the unfused collective-then-
// GEMM sequence for any tile size — the §4.2 functional contract.

class FusedAgGemmTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(FusedAgGemmTest, MatchesUnfusedForAnyTileSize) {
  const int n = 4;
  const int64_t rows_local = 6;
  const int64_t k = 8;
  const int64_t cols = 5;
  const int64_t tile = GetParam();

  Rng rng(1);
  std::vector<Tensor> x_locals;
  for (int rank = 0; rank < n; ++rank) {
    x_locals.push_back(Tensor::Randn({rows_local, k}, rng));
  }
  Tensor w = Tensor::Randn({k, cols}, rng);

  // Reference: gather then one GEMM.
  Tensor x_full({n * rows_local, k});
  for (int rank = 0; rank < n; ++rank) {
    std::copy(x_locals[static_cast<size_t>(rank)].data(),
              x_locals[static_cast<size_t>(rank)].data() + rows_local * k,
              x_full.data() + rank * rows_local * k);
  }
  Tensor y_ref = MatMul(x_full, w);

  FlatCommunicator group(n);
  std::vector<Tensor> y(n);
  RunOnRanks(n, [&](int rank) {
    ShardContext ctx{&group, rank};
    y[static_cast<size_t>(rank)] =
        FusedAllGatherGemm(ctx, x_locals[static_cast<size_t>(rank)], w, tile);
  });
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_EQ(y[static_cast<size_t>(rank)].RelativeL2Diff(y_ref), 0.0)
        << "rank " << rank << " tile " << tile;
  }
}

INSTANTIATE_TEST_SUITE_P(TileSizes, FusedAgGemmTest,
                         ::testing::Values<int64_t>(1, 2, 3, 6, 100));

class FusedGemmRsTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(FusedGemmRsTest, MatchesUnfusedForAnyTileSize) {
  const int n = 4;
  const int64_t rows = 8;  // divisible by n
  const int64_t k_total = 12;
  const int64_t cols = 5;
  const int64_t k_shard = k_total / n;
  const int64_t tile = GetParam();

  Rng rng(2);
  Tensor x_full({rows, k_total});
  Tensor w_full({k_total, cols});
  x_full = Tensor::Randn({rows, k_total}, rng);
  w_full = Tensor::Randn({k_total, cols}, rng);
  Tensor y_ref = MatMul(x_full, w_full);

  FlatCommunicator group(n);
  std::vector<Tensor> y(n);
  RunOnRanks(n, [&](int rank) {
    // Rank's contraction-dim slices.
    Tensor x_shard({rows, k_shard});
    for (int64_t r = 0; r < rows; ++r) {
      std::copy(x_full.data() + r * k_total + rank * k_shard,
                x_full.data() + r * k_total + (rank + 1) * k_shard,
                x_shard.data() + r * k_shard);
    }
    Tensor w_shard = w_full.SliceRows(rank * k_shard, (rank + 1) * k_shard);
    ShardContext ctx{&group, rank};
    y[static_cast<size_t>(rank)] = FusedGemmReduceScatter(ctx, x_shard, w_shard, tile);
  });
  const int64_t rows_out = rows / n;
  for (int rank = 0; rank < n; ++rank) {
    Tensor ref_chunk = y_ref.SliceRows(rank * rows_out, (rank + 1) * rows_out);
    EXPECT_LT(y[static_cast<size_t>(rank)].RelativeL2Diff(ref_chunk), 1e-6)
        << "rank " << rank << " tile " << tile;
  }
}

INSTANTIATE_TEST_SUITE_P(TileSizes, FusedGemmRsTest,
                         ::testing::Values<int64_t>(1, 2, 8));

// The full pipeline grid: every (worker count x ragged tile size) cell of
// the double-buffered pipeline must reproduce the unfused reference BITWISE.
// The GEMM backend guarantees bit-identical results across worker counts and
// row-tile splits (tensor_ops.h), and the chunked collectives deliver the
// same bytes regardless of segmentation, so no cell gets a tolerance.
TEST(FusedPipelineGridTest, AgGemmBitwiseAcrossWorkersAndTiles) {
  const int n = 4;
  const int64_t rows_local = 7;  // ragged: never splits evenly into tiles
  const int64_t k = 9;
  const int64_t cols = 5;

  Rng rng(11);
  std::vector<Tensor> x_locals;
  for (int rank = 0; rank < n; ++rank) {
    x_locals.push_back(Tensor::Randn({rows_local, k}, rng));
  }
  Tensor w = Tensor::Randn({k, cols}, rng);

  Tensor x_full({n * rows_local, k});
  for (int rank = 0; rank < n; ++rank) {
    std::copy(x_locals[static_cast<size_t>(rank)].data(),
              x_locals[static_cast<size_t>(rank)].data() + rows_local * k,
              x_full.data() + rank * rows_local * k);
  }
  Tensor y_ref = MatMul(x_full, w);

  for (const int workers : {1, 2, 4}) {
    const int restore = SetParallelWorkerCount(workers);
    for (const int64_t tile : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{5},
                               rows_local, int64_t{100}}) {
      FlatCommunicator group(n);
      std::vector<Tensor> y(n);
      RunOnRanks(n, [&](int rank) {
        ShardContext ctx{&group, rank};
        y[static_cast<size_t>(rank)] =
            FusedAllGatherGemm(ctx, x_locals[static_cast<size_t>(rank)], w, tile);
      });
      for (int rank = 0; rank < n; ++rank) {
        EXPECT_EQ(y[static_cast<size_t>(rank)].RelativeL2Diff(y_ref), 0.0)
            << "workers=" << workers << " tile=" << tile << " rank=" << rank;
      }
    }
    SetParallelWorkerCount(restore);
  }
}

// Same grid for the producer-gated GEMM+reduce-scatter pipeline. The ring
// reduction is a rank-ordered double-precision sum per element, independent
// of chunk segmentation, so every cell must be bitwise equal to the
// monolithic (tile = rows, workers = 1) fused result.
TEST(FusedPipelineGridTest, GemmRsBitwiseAcrossWorkersAndTiles) {
  const int n = 4;
  const int64_t rows = 8;  // divisible by n
  const int64_t k_total = 12;
  const int64_t cols = 5;
  const int64_t k_shard = k_total / n;

  Rng rng(12);
  Tensor x_full = Tensor::Randn({rows, k_total}, rng);
  Tensor w_full = Tensor::Randn({k_total, cols}, rng);

  auto run_grid_cell = [&](int64_t tile) {
    FlatCommunicator group(n);
    std::vector<Tensor> y(n);
    RunOnRanks(n, [&](int rank) {
      Tensor x_shard({rows, k_shard});
      for (int64_t r = 0; r < rows; ++r) {
        std::copy(x_full.data() + r * k_total + rank * k_shard,
                  x_full.data() + r * k_total + (rank + 1) * k_shard,
                  x_shard.data() + r * k_shard);
      }
      Tensor w_shard = w_full.SliceRows(rank * k_shard, (rank + 1) * k_shard);
      ShardContext ctx{&group, rank};
      y[static_cast<size_t>(rank)] = FusedGemmReduceScatter(ctx, x_shard, w_shard, tile);
    });
    return y;
  };

  const int restore = SetParallelWorkerCount(1);
  const std::vector<Tensor> baseline = run_grid_cell(rows);
  for (const int workers : {1, 2, 4}) {
    SetParallelWorkerCount(workers);
    for (const int64_t tile : {int64_t{1}, int64_t{3}, int64_t{5}, rows}) {
      const std::vector<Tensor> y = run_grid_cell(tile);
      for (int rank = 0; rank < n; ++rank) {
        EXPECT_EQ(
            y[static_cast<size_t>(rank)].RelativeL2Diff(baseline[static_cast<size_t>(rank)]),
            0.0)
            << "workers=" << workers << " tile=" << tile << " rank=" << rank;
      }
    }
  }
  SetParallelWorkerCount(restore);
}

}  // namespace
}  // namespace msmoe
