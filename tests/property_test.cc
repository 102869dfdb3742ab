// Property-based sweeps: invariants that must hold across parameter ranges,
// exercised with parameterized gtest over shapes, group sizes, and formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>
#include <vector>

#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/comm/hierarchical.h"
#include "src/core/exec_graph.h"
#include "src/model/attention.h"
#include "src/model/config.h"
#include "src/model/router.h"
#include "src/numerics/bf16.h"
#include "src/numerics/quantize.h"
#include "src/parallel/ep_ffn.h"
#include "src/parallel/fused_ops.h"
#include "src/parallel/sp_attention.h"
#include "src/tensor/tensor_ops.h"
#include "tests/ref_ffn.h"

namespace msmoe {
namespace {

// --- Collectives: linearity, consistency, and cross-op identities over a
// sweep of group sizes and payload sizes. ---

class CollectiveSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(CollectiveSweepTest, AllReduceEqualsGatherThenSum) {
  const auto [n, count] = GetParam();
  FlatCommunicator ar_group(n);
  FlatCommunicator ag_group(n);
  // One byte per rank: rank threads write concurrently, and vector<bool>'s
  // packed bit references would race on the shared word.
  std::vector<char> ok(static_cast<size_t>(n), 0);
  RunOnRanks(n, [&, n = n, count = count](int rank) {
    Rng rng(static_cast<uint64_t>(rank * 7919 + count));
    std::vector<float> send(static_cast<size_t>(count));
    for (auto& v : send) {
      v = static_cast<float>(rng.NextGaussian());
    }
    std::vector<float> reduced(static_cast<size_t>(count));
    EXPECT_TRUE(ar_group.AllReduce(rank, send.data(), reduced.data(), count).ok());

    std::vector<float> gathered(static_cast<size_t>(n * count));
    EXPECT_TRUE(ag_group.AllGather(rank, send.data(), gathered.data(), count).ok());
    bool match = true;
    for (int64_t i = 0; i < count; ++i) {
      double sum = 0.0;
      for (int src = 0; src < n; ++src) {
        sum += static_cast<double>(gathered[static_cast<size_t>(src * count + i)]);
      }
      if (std::fabs(static_cast<float>(sum) - reduced[static_cast<size_t>(i)]) > 1e-5) {
        match = false;
      }
    }
    ok[static_cast<size_t>(rank)] = match;
  });
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_TRUE(ok[static_cast<size_t>(rank)]) << rank;
  }
}

TEST_P(CollectiveSweepTest, AllToAllIsSelfInverse) {
  // A2A twice with symmetric block layout returns the original buffer.
  const auto [n, count] = GetParam();
  FlatCommunicator group(n);
  // One byte per rank: rank threads write concurrently, and vector<bool>'s
  // packed bit references would race on the shared word.
  std::vector<char> ok(static_cast<size_t>(n), 0);
  RunOnRanks(n, [&, n = n, count = count](int rank) {
    Rng rng(static_cast<uint64_t>(rank + 31));
    std::vector<float> original(static_cast<size_t>(n * count));
    for (auto& v : original) {
      v = static_cast<float>(rng.NextGaussian());
    }
    std::vector<float> once(original.size());
    std::vector<float> twice(original.size());
    EXPECT_TRUE(group.AllToAll(rank, original.data(), once.data(), count).ok());
    EXPECT_TRUE(group.AllToAll(rank, once.data(), twice.data(), count).ok());
    ok[static_cast<size_t>(rank)] = twice == original;
  });
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_TRUE(ok[static_cast<size_t>(rank)]) << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, CollectiveSweepTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                                            ::testing::Values<int64_t>(1, 7, 64)));

class HierarchicalSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HierarchicalSweepTest, MatchesFlatForAnyTopology) {
  const auto [nodes, per_node] = GetParam();
  const int world = nodes * per_node;
  const int64_t count = 53;  // not divisible by per_node: exercises padding
  HierarchicalComm hier(nodes, per_node);
  FlatCommunicator flat(world);
  std::vector<double> max_err(static_cast<size_t>(world), 0.0);
  RunOnRanks(world, [&](int rank) {
    Rng rng(static_cast<uint64_t>(rank + 1));
    std::vector<float> data(static_cast<size_t>(count));
    for (auto& v : data) {
      v = static_cast<float>(rng.NextGaussian());
    }
    std::vector<float> expected(static_cast<size_t>(count));
    EXPECT_TRUE(flat.AllReduce(rank, data.data(), expected.data(), count).ok());
    EXPECT_TRUE(hier.AllReduce(rank, data.data(), data.data(), count).ok());
    double err = 0.0;
    for (int64_t i = 0; i < count; ++i) {
      err = std::max(err, static_cast<double>(std::fabs(
                              data[static_cast<size_t>(i)] -
                              expected[static_cast<size_t>(i)])));
    }
    max_err[static_cast<size_t>(rank)] = err;
  });
  for (int rank = 0; rank < world; ++rank) {
    EXPECT_LT(max_err[static_cast<size_t>(rank)], 1e-4) << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, HierarchicalSweepTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 3)));

// --- GEMM vs a naive triple loop over a shape sweep. ---

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(GemmShapeTest, MatchesNaiveReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + n * 101 + k));
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double expected = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        expected += static_cast<double>(a.At(i, p)) * b.At(p, j);
      }
      EXPECT_NEAR(c.At(i, j), expected, 1e-4 * std::max(1.0, std::fabs(expected)))
          << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapeTest,
                         ::testing::Values(std::make_tuple<int64_t, int64_t, int64_t>(1, 1, 1),
                                           std::make_tuple<int64_t, int64_t, int64_t>(1, 5, 3),
                                           std::make_tuple<int64_t, int64_t, int64_t>(7, 1, 4),
                                           std::make_tuple<int64_t, int64_t, int64_t>(8, 8, 8),
                                           std::make_tuple<int64_t, int64_t, int64_t>(13, 7,
                                                                                      11)));

// --- RoPE: rotation-group property and norm preservation across shapes. ---

class RopeSweepTest : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(RopeSweepTest, RotationsCompose) {
  // rotate(x, p) then rotate(., q) == rotate(x, p + q) elementwise.
  const auto [heads, head_dim] = GetParam();
  Rng rng(17);
  const int64_t tokens = 3;
  Tensor x = Tensor::Randn({tokens, heads, head_dim}, rng);
  Tensor sequential = x;
  RopeInPlace(sequential, {2, 5, 9}, heads, head_dim);
  // Second rotation by +3 for every token.
  RopeInPlace(sequential, {3, 3, 3}, heads, head_dim);
  Tensor direct = x;
  RopeInPlace(direct, {5, 8, 12}, heads, head_dim);
  EXPECT_LT(sequential.RelativeL2Diff(direct), 1e-5);
}

TEST_P(RopeSweepTest, PreservesPairNorms) {
  const auto [heads, head_dim] = GetParam();
  Rng rng(19);
  Tensor x = Tensor::Randn({4, heads, head_dim}, rng);
  Tensor rotated = x;
  RopeInPlace(rotated, {1, 100, 10000, 123456}, heads, head_dim);
  double before = 0.0;
  double after = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    before += static_cast<double>(x[i]) * x[i];
    after += static_cast<double>(rotated[i]) * rotated[i];
  }
  EXPECT_NEAR(after, before, 1e-3 * before);
}

INSTANTIATE_TEST_SUITE_P(HeadShapes, RopeSweepTest,
                         ::testing::Combine(::testing::Values<int64_t>(1, 2, 4),
                                            ::testing::Values<int64_t>(2, 8, 64)));

// --- Router invariants over (experts, top-k). ---

class RouterSweepTest : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(RouterSweepTest, InvariantsHold) {
  const auto [experts, k] = GetParam();
  if (k > experts) {
    GTEST_SKIP();
  }
  Rng rng(static_cast<uint64_t>(experts * 100 + k));
  const int64_t tokens = 24;
  Tensor logits = Tensor::Randn({tokens, experts}, rng);
  RouterConfig config;
  config.num_experts = experts;
  config.top_k = k;
  RoutingResult routing = RouteTokens(logits, config);

  // (1) combine weights sum to 1 per token and are non-negative.
  for (int64_t t = 0; t < tokens; ++t) {
    double sum = 0.0;
    for (int64_t slot = 0; slot < k; ++slot) {
      EXPECT_GE(routing.combine_weight.At(t, slot), 0.0f);
      sum += routing.combine_weight.At(t, slot);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5) << t;
  }
  // (2) each token's selected experts are distinct.
  for (int64_t t = 0; t < tokens; ++t) {
    for (int64_t a = 0; a < k; ++a) {
      for (int64_t b = a + 1; b < k; ++b) {
        EXPECT_NE(routing.expert_index[static_cast<size_t>(t * k + a)],
                  routing.expert_index[static_cast<size_t>(t * k + b)]);
      }
    }
  }
  // (3) selected experts have the k highest probabilities.
  for (int64_t t = 0; t < tokens; ++t) {
    float min_selected = 1.0f;
    for (int64_t slot = 0; slot < k; ++slot) {
      min_selected = std::min(
          min_selected,
          routing.probs.At(t, routing.expert_index[static_cast<size_t>(t * k + slot)]));
    }
    int num_higher = 0;
    for (int64_t e = 0; e < experts; ++e) {
      if (routing.probs.At(t, e) > min_selected) {
        ++num_higher;
      }
    }
    EXPECT_LT(num_higher, k) << t;
  }
  // (4) counts match the dispatch plan.
  const int64_t total = std::accumulate(routing.expert_counts.begin(),
                                        routing.expert_counts.end(), int64_t{0});
  EXPECT_EQ(total, tokens * k);
  DispatchPlan plan = BuildDispatchPlan(routing, experts);
  EXPECT_EQ(plan.total_rows(), total);
}

INSTANTIATE_TEST_SUITE_P(ExpertTopK, RouterSweepTest,
                         ::testing::Combine(::testing::Values<int64_t>(2, 4, 8, 16, 64),
                                            ::testing::Values<int64_t>(1, 2, 3, 6)));

// --- Quantization idempotence across granularities and shapes. ---

class QuantIdempotenceTest
    : public ::testing::TestWithParam<std::tuple<QuantGranularity, int64_t, int64_t>> {};

TEST_P(QuantIdempotenceTest, RoundTripIsIdempotent) {
  const auto [granularity, rows, cols] = GetParam();
  Rng rng(static_cast<uint64_t>(rows * 131 + cols));
  std::vector<float> data(static_cast<size_t>(rows * cols));
  for (auto& v : data) {
    v = static_cast<float>(rng.NextGaussian(0.0, 3.0));
  }
  QuantConfig config;
  config.granularity = granularity;
  config.group_size = 4;
  const std::vector<float> once = QuantizeRoundTrip(data.data(), rows, cols, config);
  const std::vector<float> twice = QuantizeRoundTrip(once.data(), rows, cols, config);
  for (size_t i = 0; i < once.size(); ++i) {
    // Re-quantizing an already-quantized tensor (with its own amax as the
    // new scale) must reproduce it within one ulp of the E4M3 grid.
    EXPECT_NEAR(twice[i], once[i], std::fabs(once[i]) / 64.0f + 1e-6f) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GranularityShapes, QuantIdempotenceTest,
    ::testing::Combine(::testing::Values(QuantGranularity::kPerTensor,
                                         QuantGranularity::kPerToken,
                                         QuantGranularity::kPerChannel,
                                         QuantGranularity::kPerChannelGrouped),
                       ::testing::Values<int64_t>(1, 5, 16),
                       ::testing::Values<int64_t>(1, 8)));

// --- BF16 ordering: rounding preserves <= over a random sample. ---

TEST(Bf16PropertyTest, RoundingIsMonotone) {
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    const float a = static_cast<float>(rng.NextGaussian(0.0, 100.0));
    const float b = static_cast<float>(rng.NextGaussian(0.0, 100.0));
    const float lo = std::min(a, b);
    const float hi = std::max(a, b);
    EXPECT_LE(Bf16Round(lo), Bf16Round(hi));
  }
}

// --- Attention over a GQA-ratio sweep: output rows are convex combinations
// of value rows (causal attention is an average over the prefix). ---

class AttentionSweepTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(AttentionSweepTest, OutputWithinValueHull) {
  const int64_t m = GetParam();  // query:kv head ratio
  Rng rng(static_cast<uint64_t>(m));
  const int64_t s = 6;
  const int64_t hkv = 2;
  const int64_t hq = hkv * m;
  const int64_t d = 4;
  Tensor q = Tensor::Randn({s, hq, d}, rng);
  Tensor k = Tensor::Randn({s, hkv, d}, rng);
  Tensor v = Tensor::Randn({s, hkv, d}, rng);
  AttentionCoreCache cache;
  Tensor out = AttentionCore(q, k, v, m, &cache);
  for (int64_t t = 0; t < s; ++t) {
    for (int64_t head = 0; head < hq; ++head) {
      const int64_t kv_head = head / m;
      for (int64_t e = 0; e < d; ++e) {
        float lo = 1e30f;
        float hi = -1e30f;
        for (int64_t u = 0; u <= t; ++u) {
          lo = std::min(lo, v.At(u, kv_head, e));
          hi = std::max(hi, v.At(u, kv_head, e));
        }
        EXPECT_GE(out.At(t, head, e), lo - 1e-5f);
        EXPECT_LE(out.At(t, head, e), hi + 1e-5f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GqaRatios, AttentionSweepTest, ::testing::Values<int64_t>(1, 2, 4));

// --- SP attention at n = 4 (the suite's other tests use n = 2). ---

TEST(SpAttentionWideTest, FourRanksMatchReference) {
  ModelConfig config = TinyMoeConfig(4, 2);
  config.hidden = 32;
  config.num_heads = 8;
  config.gqa_ratio = 2;
  config.seq_len = 8;
  const int n = 4;
  const int64_t batch = 1;
  Rng rng(5);
  Tensor w_qkv = Tensor::Randn({config.hidden, config.qkv_out_dim()}, rng, 0.0f, 0.2f);
  Tensor w_out = Tensor::Randn({config.hidden, config.hidden}, rng, 0.0f, 0.2f);
  Tensor x = Tensor::Randn({batch * config.seq_len, config.hidden}, rng);

  // Single-rank reference via the n=1 path of the same module.
  FlatCommunicator solo(1);
  Tensor y_ref;
  RunOnRanks(1, [&](int) {
    ShardContext ctx{&solo, 0};
    SpAttentionCache cache;
    y_ref = SpAttentionForward(ctx, config, w_qkv, w_out, x, batch, config.seq_len, &cache);
  });

  FlatCommunicator group(n);
  std::vector<Tensor> y(n);
  RunOnRanks(n, [&](int rank) {
    ShardContext ctx{&group, rank};
    const int64_t s_local = config.seq_len / n;
    Tensor x_local = x.SliceRows(rank * s_local, (rank + 1) * s_local);
    SpAttentionCache cache;
    y[static_cast<size_t>(rank)] =
        SpAttentionForward(ctx, config, w_qkv, w_out, x_local, batch, config.seq_len,
                           &cache);
  });
  for (int rank = 0; rank < n; ++rank) {
    const int64_t s_local = config.seq_len / n;
    Tensor ref_chunk = y_ref.SliceRows(rank * s_local, (rank + 1) * s_local);
    EXPECT_LT(y[static_cast<size_t>(rank)].RelativeL2Diff(ref_chunk), 1e-5) << rank;
  }
}

// --- Config accounting: parameter counts scale as expected. ---

TEST(ConfigPropertyTest, ParamsScaleLinearlyWithExperts) {
  ModelConfig base = TinyMoeConfig(8, 2);
  ModelConfig doubled = TinyMoeConfig(16, 2);
  EXPECT_EQ(doubled.ExpertParams(), 2 * base.ExpertParams());
  EXPECT_EQ(doubled.AttentionParams(), base.AttentionParams());
}

TEST(ConfigPropertyTest, ActivatedParamsIndependentOfExpertCount) {
  // Sparse activation: adding experts does not change activated params.
  ModelConfig a = TinyMoeConfig(8, 2);
  ModelConfig b = TinyMoeConfig(64, 2);
  // Router grows by h per expert; subtract that negligible term.
  const int64_t router_diff = (b.num_experts - a.num_experts) * b.hidden * b.num_layers;
  EXPECT_EQ(b.ActivatedParamsPerToken() - router_diff, a.ActivatedParamsPerToken());
}

// --- Runtime executor: ANY dependency-respecting schedule of a recorded
// fused pipeline terminates and is bitwise identical to the unfused
// reference, across worker counts, stream counts, and random seeds. To
// shrink a failing cell, rerun with the printed (workers, streams, seed)
// and reduce the tile count (larger `tile` = fewer ops). ---

class RandomizedScheduleTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(RandomizedScheduleTest, AnyValidScheduleIsBitwiseEqualToEager) {
  const auto [workers, num_streams, seed] = GetParam();
  const int n = 4;
  const int64_t rows_local = 7;  // ragged tiles
  const int64_t k = 8;
  const int64_t cols = 5;
  const int64_t tile = 2;

  Rng rng(seed * 101 + 3);
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

  const int restore = SetParallelWorkerCount(workers);

  // All-gather + GEMM pipeline under a seeded random schedule. Every rank
  // derives the schedule from the same (graph shape, seed), so ranks agree.
  {
    FlatCommunicator group(n);
    std::vector<Tensor> y(n);
    std::vector<Status> statuses(static_cast<size_t>(n));
    RunOnRanks(n, [&, num_streams = num_streams, seed = seed](int rank) {
      ShardContext ctx{&group, rank};
      std::unique_ptr<FusedPipeline> pipe =
          RecordFusedAllGatherGemm(ctx, x_locals[static_cast<size_t>(rank)], w, tile);
      std::vector<int> order;
      std::vector<int> streams;
      RandomSchedule(pipe->graph.ops(), seed, num_streams, &order, &streams);
      statuses[static_cast<size_t>(rank)] =
          pipe->graph.ExecuteSchedule(order, streams, num_streams).status;
      y[static_cast<size_t>(rank)] = std::move(pipe->y);
    });
    for (int rank = 0; rank < n; ++rank) {
      ASSERT_TRUE(statuses[static_cast<size_t>(rank)].ok())
          << "AG-GEMM workers=" << workers << " streams=" << num_streams
          << " seed=" << seed << " rank=" << rank;
      EXPECT_EQ(y[static_cast<size_t>(rank)].RelativeL2Diff(y_ref), 0.0)
          << "AG-GEMM workers=" << workers << " streams=" << num_streams
          << " seed=" << seed << " rank=" << rank;
    }
  }

  // Producer-gated GEMM + reduce-scatter pipeline: the schedule can reorder
  // signals, tile GEMMs, and the wait-all any dependency-respecting way and
  // must still terminate (the wait-all deps on every signal) bitwise equal.
  {
    const int64_t rows = 8;
    const int64_t k_total = 12;
    const int64_t k_shard = k_total / n;
    Rng rs_rng(seed * 977 + 5);
    Tensor rs_x = Tensor::Randn({rows, k_total}, rs_rng);
    Tensor rs_w = Tensor::Randn({k_total, cols}, rs_rng);

    const auto shard_inputs = [&](int rank, Tensor* x_shard, Tensor* w_shard) {
      *x_shard = Tensor({rows, k_shard});
      *w_shard = Tensor({k_shard, cols});
      for (int64_t r = 0; r < rows; ++r) {
        std::copy(rs_x.data() + r * k_total + rank * k_shard,
                  rs_x.data() + r * k_total + (rank + 1) * k_shard,
                  x_shard->data() + r * k_shard);
      }
      std::copy(rs_w.data() + rank * k_shard * cols,
                rs_w.data() + (rank + 1) * k_shard * cols, w_shard->data());
    };

    // Bitwise reference: the eager fused pipeline (declared schedule). The
    // ring reduction is a rank-ordered sum, so it is NOT bit-equal to a
    // monolithic full-k GEMM — the invariant under test is schedule
    // independence, fused-vs-fused.
    std::vector<Tensor> y_eager(n);
    {
      FlatCommunicator group(n);
      RunOnRanks(n, [&](int rank) {
        Tensor x_shard;
        Tensor w_shard;
        shard_inputs(rank, &x_shard, &w_shard);
        ShardContext ctx{&group, rank};
        y_eager[static_cast<size_t>(rank)] =
            FusedGemmReduceScatter(ctx, x_shard, w_shard, tile);
      });
    }

    FlatCommunicator group(n);
    std::vector<Tensor> y(n);
    std::vector<Status> statuses(static_cast<size_t>(n));
    RunOnRanks(n, [&, num_streams = num_streams, seed = seed](int rank) {
      Tensor x_shard;
      Tensor w_shard;
      shard_inputs(rank, &x_shard, &w_shard);
      ShardContext ctx{&group, rank};
      std::unique_ptr<FusedPipeline> pipe =
          RecordFusedGemmReduceScatter(ctx, x_shard, w_shard, tile);
      std::vector<int> order;
      std::vector<int> streams;
      RandomSchedule(pipe->graph.ops(), seed, num_streams, &order, &streams);
      statuses[static_cast<size_t>(rank)] =
          pipe->graph.ExecuteSchedule(order, streams, num_streams).status;
      y[static_cast<size_t>(rank)] = std::move(pipe->y);
    });
    for (int rank = 0; rank < n; ++rank) {
      ASSERT_TRUE(statuses[static_cast<size_t>(rank)].ok())
          << "GEMM-RS workers=" << workers << " streams=" << num_streams
          << " seed=" << seed << " rank=" << rank;
      EXPECT_EQ(y[static_cast<size_t>(rank)].RelativeL2Diff(
                    y_eager[static_cast<size_t>(rank)]),
                0.0)
          << "GEMM-RS workers=" << workers << " streams=" << num_streams
          << " seed=" << seed << " rank=" << rank;
    }
  }

  SetParallelWorkerCount(restore);
}

INSTANTIATE_TEST_SUITE_P(
    ScheduleGrid, RandomizedScheduleTest,
    ::testing::Combine(::testing::Values(1, 2, 4),       // workers
                       ::testing::Values(1, 2, 3),       // streams
                       ::testing::Values<uint64_t>(1, 7, 23)));

// --- Fused EP dispatch pipelines: both dispatch modes must match the
// single-rank reference (tests/ref_ffn.h) — outputs, gradients, AND the
// rematerialized ffn_in — for every (dispatch mode, worker count, chunk
// count, routing skew, top-k) cell. Every expert sees its rows in global
// token order, so ffn_in, dW and dcombine are bitwise the reference's at
// any top-k. y and dx sum a token's copies grouped by owner rank (slot
// order within a rank; the all-gather mode's reduce-scatter then adds the
// ranks' partials) where the reference uses slot order: with two copies
// the sum is order-free and they are bitwise too; at top-4 they are pinned
// bitwise to the workers=1, chunks=1 cell and to the reference within
// 1e-5. Skewed logits concentrate tokens on one or two experts so ragged
// per-(chunk, rank) segments (including empty ones) are exercised, and
// chunk counts that don't divide the token count produce uneven chunks.
// To shrink a failing cell, rerun with the printed parameters. ---

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

struct EpPipelineRun {
  std::vector<Tensor> y, dx, dcombine, ffn_in;
  std::vector<std::vector<Tensor>> dw1, dw3, dw2;
};

class EpPipelineSweepTest
    : public ::testing::TestWithParam<
          std::tuple<EpDispatchMode, int, int, uint64_t, int64_t>> {};

TEST_P(EpPipelineSweepTest, PipelineMatchesSingleRankReference) {
  const auto [mode, workers, chunks, seed, top_k] = GetParam();
  const int n = 4;
  ModelConfig config = TinyMoeConfig(8, top_k);
  config.hidden = 32;
  config.ffn_hidden = 24;
  const int64_t t_local = 12;  // chunks=5/8 -> uneven or sub-token chunks
  const int64_t tokens = n * t_local;

  Rng rng(seed * 131 + 7);
  std::vector<Tensor> w1, w3, w2;
  for (int64_t e = 0; e < config.num_experts; ++e) {
    w1.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.2f));
    w3.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.2f));
    w2.push_back(Tensor::Randn({config.ffn_hidden, config.hidden}, rng, 0.0f, 0.2f));
  }
  Tensor w_gate = Tensor::Randn({config.hidden, config.num_experts}, rng, 0.0f, 0.3f);
  Tensor x_full = Tensor::Randn({tokens, config.hidden}, rng);
  Tensor dy_full = Tensor::Randn({tokens, config.hidden}, rng);
  // Skew the routing: two experts get a large logit bias, so some ranks
  // receive most rows while (chunk, src) segments elsewhere come up empty.
  Tensor logits_full = MatMul(x_full, w_gate);
  const int64_t hot_a = static_cast<int64_t>(seed % 8);
  const int64_t hot_b = static_cast<int64_t>((seed * 3 + 1) % 8);
  for (int64_t t = 0; t < tokens; ++t) {
    logits_full.At(t, hot_a) += 2.5f;
    logits_full.At(t, hot_b) += 1.5f;
  }
  RouterConfig router;
  router.num_experts = config.num_experts;
  router.top_k = config.top_k;
  const RefFfnResult ref =
      ReferenceFfn(config, w1, w3, w2, x_full, RouteTokens(logits_full, router), dy_full);

  // Drops ffn_in, fc2_in and x_all after the forward and rebuilds them
  // with the collective replay before the backward, so the backward result
  // also pins the rematerialized dispatch.
  const auto run = [&](int run_workers, int run_chunks, EpPipelineRun* out) {
    const int restore = SetParallelWorkerCount(run_workers);
    EpPipelineConfig pc;
    pc.num_chunks = run_chunks;
    FlatCommunicator group(n);
    out->y.resize(static_cast<size_t>(n));
    out->dx.resize(static_cast<size_t>(n));
    out->dcombine.resize(static_cast<size_t>(n));
    out->ffn_in.resize(static_cast<size_t>(n));
    out->dw1.resize(static_cast<size_t>(n));
    out->dw3.resize(static_cast<size_t>(n));
    out->dw2.resize(static_cast<size_t>(n));
    RunOnRanks(n, [&](int rank) {
      const size_t r = static_cast<size_t>(rank);
      ShardContext ctx{&group, rank};
      Tensor x_local = x_full.SliceRows(rank * t_local, (rank + 1) * t_local);
      Tensor dy_local = dy_full.SliceRows(rank * t_local, (rank + 1) * t_local);
      RoutingResult routing = RouteTokens(
          logits_full.SliceRows(rank * t_local, (rank + 1) * t_local), router);
      EpFfnCache cache;
      out->y[r] = EpFfnForward(ctx, config, mode, w1, w3, w2, x_local, routing, &cache, pc);
      cache.ffn_in = Tensor();
      cache.fc2_in = Tensor();
      cache.x_all = Tensor();
      EpFfnRematerialize(ctx, config, mode, x_local, &cache);
      EpFfnGrads grads =
          EpFfnBackward(ctx, config, mode, w1, w3, w2, dy_local, routing, cache);
      out->ffn_in[r] = std::move(cache.ffn_in);
      out->dx[r] = std::move(grads.dx_local);
      out->dcombine[r] = std::move(grads.dcombine_local);
      out->dw1[r] = std::move(grads.dw1);
      out->dw3[r] = std::move(grads.dw3);
      out->dw2[r] = std::move(grads.dw2);
    });
    SetParallelWorkerCount(restore);
  };

  EpPipelineRun pipelined, anchor;
  run(workers, chunks, &pipelined);
  const bool order_free = top_k <= 2;
  if (!order_free) {
    run(/*run_workers=*/1, /*run_chunks=*/1, &anchor);
  }

  const int64_t e_local = config.num_experts / n;
  for (int rank = 0; rank < n; ++rank) {
    const size_t r = static_cast<size_t>(rank);
    const auto cell = [&](const char* what) {
      return ::testing::Message()
             << what << " mode=" << EpDispatchModeName(mode) << " workers=" << workers
             << " chunks=" << chunks << " seed=" << seed << " top_k=" << top_k
             << " rank=" << rank;
    };
    const auto rows = [&](const Tensor& full) {
      return full.SliceRows(rank * t_local, (rank + 1) * t_local);
    };
    const Tensor y_ref = rows(ref.y);
    const Tensor dx_ref = rows(ref.dx);
    if (order_free) {
      EXPECT_TRUE(BitwiseEqual(pipelined.y[r], y_ref)) << cell("y");
      EXPECT_TRUE(BitwiseEqual(pipelined.dx[r], dx_ref)) << cell("dx");
    } else {
      EXPECT_TRUE(BitwiseEqual(pipelined.y[r], anchor.y[r])) << cell("y vs C=1");
      EXPECT_TRUE(BitwiseEqual(pipelined.dx[r], anchor.dx[r])) << cell("dx vs C=1");
      EXPECT_LT(pipelined.y[r].RelativeL2Diff(y_ref), 1e-5) << cell("y");
      EXPECT_LT(pipelined.dx[r].RelativeL2Diff(dx_ref), 1e-5) << cell("dx");
    }
    EXPECT_TRUE(BitwiseEqual(pipelined.dcombine[r], rows(ref.dcombine)))
        << cell("dcombine");
    const int64_t row_begin = ref.expert_offsets[static_cast<size_t>(rank * e_local)];
    const int64_t row_end = ref.expert_offsets[static_cast<size_t>((rank + 1) * e_local)];
    EXPECT_TRUE(BitwiseEqual(pipelined.ffn_in[r], ref.ffn_in.SliceRows(row_begin, row_end)))
        << cell("remat ffn_in");
    for (int64_t e = 0; e < e_local; ++e) {
      const size_t le = static_cast<size_t>(e);
      const size_t ge = static_cast<size_t>(rank * e_local + e);
      EXPECT_TRUE(BitwiseEqual(pipelined.dw1[r][le], ref.dw1[ge]))
          << cell("dw1") << " expert=" << e;
      EXPECT_TRUE(BitwiseEqual(pipelined.dw3[r][le], ref.dw3[ge]))
          << cell("dw3") << " expert=" << e;
      EXPECT_TRUE(BitwiseEqual(pipelined.dw2[r][le], ref.dw2[ge]))
          << cell("dw2") << " expert=" << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PipelineGrid, EpPipelineSweepTest,
    ::testing::Combine(::testing::Values(EpDispatchMode::kAllToAll,
                                         EpDispatchMode::kAllGatherScatter),
                       ::testing::Values(1, 3),        // workers
                       ::testing::Values(1, 2, 5, 8),  // chunks
                       ::testing::Values<uint64_t>(11, 29),
                       ::testing::Values<int64_t>(2, 4)));  // top-k

// --- Counting-sort permutation tables: the chunked send/recv bookkeeping
// the pipeline builds must round-trip — chunk_to_sorted a bijection onto
// the grouped rows, per-chunk segment counts consistent with their prefix
// bases, send order (chunk, dst, token asc) with every non-dropped
// (token, slot) dispatched exactly once, and each receiver's per-(chunk,
// src) counts equal to the sender's mirrored per-(chunk, dst) counts. ---

TEST(EpPipelinePermutationTest, DispatchTablesRoundTrip) {
  const int n = 3;
  const int chunks = 3;
  ModelConfig config = TinyMoeConfig(6, 2);
  config.hidden = 16;
  config.ffn_hidden = 12;
  const int64_t t_local = 10;  // 10 tokens over 3 chunks: uneven chunks
  const int64_t k = config.top_k;

  Rng rng(97);
  std::vector<Tensor> w1, w3, w2;
  for (int64_t e = 0; e < config.num_experts; ++e) {
    w1.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.2f));
    w3.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.2f));
    w2.push_back(Tensor::Randn({config.ffn_hidden, config.hidden}, rng, 0.0f, 0.2f));
  }
  Tensor w_gate = Tensor::Randn({config.hidden, config.num_experts}, rng, 0.0f, 0.3f);
  Tensor x_full = Tensor::Randn({n * t_local, config.hidden}, rng);
  RouterConfig router;
  router.num_experts = config.num_experts;
  router.top_k = k;

  EpPipelineConfig pc;
  pc.num_chunks = chunks;
  FlatCommunicator group(n);
  std::vector<EpFfnCache> caches(static_cast<size_t>(n));
  std::vector<RoutingResult> routings(static_cast<size_t>(n));
  RunOnRanks(n, [&](int rank) {
    const size_t r = static_cast<size_t>(rank);
    ShardContext ctx{&group, rank};
    Tensor x_local = x_full.SliceRows(rank * t_local, (rank + 1) * t_local);
    routings[r] = RouteTokens(MatMul(x_local, w_gate), router);
    EpFfnForward(ctx, config, EpDispatchMode::kAllToAll, w1, w3, w2, x_local,
                 routings[r], &caches[r], pc);
  });

  for (int rank = 0; rank < n; ++rank) {
    const EpFfnCache& cache = caches[static_cast<size_t>(rank)];
    const RoutingResult& routing = routings[static_cast<size_t>(rank)];
    ASSERT_EQ(cache.pipeline_chunks, chunks) << rank;
    const int C = cache.pipeline_chunks;

    // Send side: prefix bases frame the per-chunk count segments, and the
    // (chunk, dst, token asc, slot asc) enumeration covers exactly the
    // non-dropped routed copies.
    ASSERT_EQ(cache.send_chunk_base.size(), static_cast<size_t>(C + 1)) << rank;
    ASSERT_EQ(cache.send_chunk_counts.size(), static_cast<size_t>(C * n)) << rank;
    EXPECT_EQ(cache.send_chunk_base[0], 0) << rank;
    const int64_t total_send = static_cast<int64_t>(cache.send_token.size());
    EXPECT_EQ(cache.send_chunk_base[static_cast<size_t>(C)], total_send) << rank;
    int64_t cursor = 0;
    for (int c = 0; c < C; ++c) {
      int64_t chunk_rows = 0;
      for (int dst = 0; dst < n; ++dst) {
        const int64_t rows = cache.send_chunk_counts[static_cast<size_t>(c * n + dst)];
        ASSERT_GE(rows, 0);
        // Within one (chunk, dst) segment tokens ascend, slots ascend
        // within a token — the counting-sort emission order.
        for (int64_t i = cursor + 1; i < cursor + rows; ++i) {
          const size_t a = static_cast<size_t>(i - 1);
          const size_t b = static_cast<size_t>(i);
          const int64_t key_a = cache.send_token[a] * k + cache.send_slot[a];
          const int64_t key_b = cache.send_token[b] * k + cache.send_slot[b];
          EXPECT_LT(key_a, key_b) << "rank=" << rank << " chunk=" << c
                                  << " dst=" << dst << " row=" << i;
        }
        cursor += rows;
      }
      chunk_rows = cursor - cache.send_chunk_base[static_cast<size_t>(c)];
      EXPECT_EQ(chunk_rows, cache.send_chunk_base[static_cast<size_t>(c + 1)] -
                                cache.send_chunk_base[static_cast<size_t>(c)])
          << "rank=" << rank << " chunk=" << c;
    }
    EXPECT_EQ(cursor, total_send) << rank;
    std::vector<int> dispatched(static_cast<size_t>(t_local * k), 0);
    for (int64_t i = 0; i < total_send; ++i) {
      const int64_t t = cache.send_token[static_cast<size_t>(i)];
      const int64_t slot = cache.send_slot[static_cast<size_t>(i)];
      ASSERT_GE(t, 0);
      ASSERT_LT(t, t_local);
      ASSERT_GE(slot, 0);
      ASSERT_LT(slot, k);
      ++dispatched[static_cast<size_t>(t * k + slot)];
    }
    for (int64_t t = 0; t < t_local; ++t) {
      for (int64_t slot = 0; slot < k; ++slot) {
        const size_t i = static_cast<size_t>(t * k + slot);
        EXPECT_EQ(dispatched[i], routing.dropped[i] != 0 ? 0 : 1)
            << "rank=" << rank << " token=" << t << " slot=" << slot;
      }
    }

    // Receive side: chunk-order prefix matches the grouped row total and
    // chunk_to_sorted is a bijection onto the grouped rows.
    const int64_t total_recv = cache.local_offsets.back();
    ASSERT_EQ(cache.recv_chunk_base.size(), static_cast<size_t>(C + 1)) << rank;
    ASSERT_EQ(cache.recv_chunk_counts.size(), static_cast<size_t>(C * n)) << rank;
    EXPECT_EQ(cache.recv_chunk_base[static_cast<size_t>(C)], total_recv) << rank;
    int64_t recv_sum = 0;
    for (int c = 0; c < C; ++c) {
      int64_t chunk_rows = 0;
      for (int src = 0; src < n; ++src) {
        chunk_rows += cache.recv_chunk_counts[static_cast<size_t>(c * n + src)];
      }
      EXPECT_EQ(chunk_rows, cache.recv_chunk_base[static_cast<size_t>(c + 1)] -
                                cache.recv_chunk_base[static_cast<size_t>(c)])
          << "rank=" << rank << " chunk=" << c;
      recv_sum += chunk_rows;
    }
    EXPECT_EQ(recv_sum, total_recv) << rank;
    ASSERT_EQ(cache.chunk_to_sorted.size(), static_cast<size_t>(total_recv)) << rank;
    std::vector<int64_t> image = cache.chunk_to_sorted;
    std::sort(image.begin(), image.end());
    for (int64_t i = 0; i < total_recv; ++i) {
      ASSERT_EQ(image[static_cast<size_t>(i)], i) << rank;
    }

    // Cross-rank: what rank `src` says it sends us per chunk is exactly
    // what we recorded as received from it.
    for (int c = 0; c < C; ++c) {
      for (int src = 0; src < n; ++src) {
        EXPECT_EQ(cache.recv_chunk_counts[static_cast<size_t>(c * n + src)],
                  caches[static_cast<size_t>(src)]
                      .send_chunk_counts[static_cast<size_t>(c * n + rank)])
            << "rank=" << rank << " chunk=" << c << " src=" << src;
      }
    }
  }
}

// --- Router top-k: the branchless streaming insertion must reproduce the
// partial_sort reference exactly — descending probability, ties broken
// toward the lower expert index — including on logits quantized to a
// coarse grid so exact float ties are common. ---

TEST(RouterTopKTest, StreamingInsertionMatchesStableSortWithTies) {
  const int64_t experts = 7;
  const int64_t k = 3;
  const int64_t tokens = 64;
  Rng rng(5);
  Tensor logits({tokens, experts});
  for (int64_t t = 0; t < tokens; ++t) {
    for (int64_t e = 0; e < experts; ++e) {
      // Half-integer grid: rows of 7 draws from ~13 distinct values force
      // frequent exact ties.
      logits.At(t, e) =
          0.5f * std::round(2.0f * static_cast<float>(rng.NextGaussian()));
    }
  }
  RouterConfig config;
  config.num_experts = experts;
  config.top_k = k;
  RoutingResult routing = RouteTokens(logits, config);

  for (int64_t t = 0; t < tokens; ++t) {
    std::vector<int64_t> order(static_cast<size_t>(experts));
    std::iota(order.begin(), order.end(), int64_t{0});
    // stable_sort on strictly-descending prob keeps the lower expert index
    // first among ties — the documented partial_sort tie-break.
    std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return routing.probs.At(t, a) > routing.probs.At(t, b);
    });
    for (int64_t slot = 0; slot < k; ++slot) {
      EXPECT_EQ(routing.expert_index[static_cast<size_t>(t * k + slot)],
                order[static_cast<size_t>(slot)])
          << "token=" << t << " slot=" << slot;
    }
  }
}

}  // namespace
}  // namespace msmoe
