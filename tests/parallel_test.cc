#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/model/attention.h"
#include "src/model/config.h"
#include "src/model/router.h"
#include "src/numerics/bf16.h"
#include "src/parallel/dp_grad_sync.h"
#include "src/parallel/ep_ffn.h"
#include "src/parallel/sp_attention.h"
#include "src/parallel/tp_attention.h"
#include "src/parallel/tp_ffn.h"
#include "src/tensor/gemm_kernel.h"
#include "src/tensor/tensor_ops.h"
#include "tests/ref_ffn.h"

namespace msmoe {
namespace {

// Test model: h=16, 4 query heads (d=4), 2 kv heads (m=2), 4 experts, k=2.
ModelConfig TestConfig() {
  ModelConfig config = TinyMoeConfig(4, 2);
  config.hidden = 16;
  config.num_heads = 4;
  config.gqa_ratio = 2;
  config.ffn_hidden = 12;
  config.seq_len = 8;
  return config;
}

// --- Single-rank reference for the attention block (QKV -> RoPE ->
// attention -> output projection), mirroring the parallel modules'
// module boundary (no RMSNorm, no residual). ---
struct RefAttnResult {
  Tensor y;
  Tensor dx;
  Tensor dw_qkv;
  Tensor dw_out;
};

RefAttnResult ReferenceAttention(const ModelConfig& config, const Tensor& w_qkv,
                                 const Tensor& w_out, const Tensor& x, const Tensor& dy,
                                 int64_t batch) {
  const int64_t tokens = x.dim(0);
  const int64_t seq_len = tokens / batch;
  const int64_t hq = config.num_heads;
  const int64_t hkv = config.kv_heads();
  const int64_t d = config.head_dim();

  Tensor qkv = MatMul(x, w_qkv);
  Tensor q({tokens, hq * d}), k({tokens, hkv * d}), v({tokens, hkv * d});
  for (int64_t t = 0; t < tokens; ++t) {
    const float* row = qkv.data() + t * config.qkv_out_dim();
    std::copy(row, row + hq * d, q.data() + t * hq * d);
    std::copy(row + hq * d, row + (hq + hkv) * d, k.data() + t * hkv * d);
    std::copy(row + (hq + hkv) * d, row + (hq + 2 * hkv) * d, v.data() + t * hkv * d);
  }
  std::vector<int64_t> positions(static_cast<size_t>(seq_len));
  for (int64_t i = 0; i < seq_len; ++i) {
    positions[static_cast<size_t>(i)] = i;
  }
  std::vector<AttentionCoreCache> caches(static_cast<size_t>(batch));
  Tensor attn_out({tokens, hq * d});
  for (int64_t b = 0; b < batch; ++b) {
    Tensor q_seq = q.SliceRows(b * seq_len, (b + 1) * seq_len).Reshaped({seq_len, hq, d});
    Tensor k_seq = k.SliceRows(b * seq_len, (b + 1) * seq_len).Reshaped({seq_len, hkv, d});
    Tensor v_seq = v.SliceRows(b * seq_len, (b + 1) * seq_len).Reshaped({seq_len, hkv, d});
    RopeInPlace(q_seq, positions, hq, d);
    RopeInPlace(k_seq, positions, hkv, d);
    std::copy(q_seq.data(), q_seq.data() + q_seq.numel(), q.data() + b * seq_len * hq * d);
    std::copy(k_seq.data(), k_seq.data() + k_seq.numel(), k.data() + b * seq_len * hkv * d);
    Tensor attn = AttentionCore(q_seq, k_seq, v_seq, config.gqa_ratio,
                                &caches[static_cast<size_t>(b)]);
    std::copy(attn.data(), attn.data() + attn.numel(),
              attn_out.data() + b * seq_len * hq * d);
  }
  RefAttnResult result;
  result.y = MatMul(attn_out, w_out);

  // Backward.
  MatMulGrads out_grads = MatMulBackward(dy, attn_out, w_out);
  result.dw_out = std::move(out_grads.db);
  Tensor dq({tokens, hq * d}), dk({tokens, hkv * d}), dv({tokens, hkv * d});
  for (int64_t b = 0; b < batch; ++b) {
    Tensor dout_seq = out_grads.da.SliceRows(b * seq_len, (b + 1) * seq_len)
                          .Reshaped({seq_len, hq, d});
    Tensor q_seq = q.SliceRows(b * seq_len, (b + 1) * seq_len).Reshaped({seq_len, hq, d});
    Tensor k_seq = k.SliceRows(b * seq_len, (b + 1) * seq_len).Reshaped({seq_len, hkv, d});
    Tensor v_seq = v.SliceRows(b * seq_len, (b + 1) * seq_len).Reshaped({seq_len, hkv, d});
    AttentionCoreGrads attn_grads = AttentionCoreBackward(
        dout_seq, q_seq, k_seq, v_seq, config.gqa_ratio, caches[static_cast<size_t>(b)]);
    RopeBackwardInPlace(attn_grads.dq, positions, hq, d);
    RopeBackwardInPlace(attn_grads.dk, positions, hkv, d);
    std::copy(attn_grads.dq.data(), attn_grads.dq.data() + attn_grads.dq.numel(),
              dq.data() + b * seq_len * hq * d);
    std::copy(attn_grads.dk.data(), attn_grads.dk.data() + attn_grads.dk.numel(),
              dk.data() + b * seq_len * hkv * d);
    std::copy(attn_grads.dv.data(), attn_grads.dv.data() + attn_grads.dv.numel(),
              dv.data() + b * seq_len * hkv * d);
  }
  Tensor dqkv({tokens, config.qkv_out_dim()});
  for (int64_t t = 0; t < tokens; ++t) {
    float* row = dqkv.data() + t * config.qkv_out_dim();
    std::copy(dq.data() + t * hq * d, dq.data() + (t + 1) * hq * d, row);
    std::copy(dk.data() + t * hkv * d, dk.data() + (t + 1) * hkv * d, row + hq * d);
    std::copy(dv.data() + t * hkv * d, dv.data() + (t + 1) * hkv * d, row + (hq + hkv) * d);
  }
  MatMulGrads qkv_grads = MatMulBackward(dqkv, x, w_qkv);
  result.dw_qkv = std::move(qkv_grads.db);
  result.dx = std::move(qkv_grads.da);
  return result;
}

// Re-partition a sequence-major [batch*s, w] tensor into the chunk each rank
// holds: rows (b, rank*s_local + t).
Tensor RankChunk(const Tensor& full, int64_t batch, int64_t seq_len, int rank, int n,
                 int64_t width) {
  const int64_t s_local = seq_len / n;
  Tensor chunk({batch * s_local, width});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t t = 0; t < s_local; ++t) {
      const float* row = full.data() + (b * seq_len + rank * s_local + t) * width;
      std::copy(row, row + width, chunk.data() + (b * s_local + t) * width);
    }
  }
  return chunk;
}

class AttentionParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestConfig();
    Rng rng(42);
    w_qkv_ = Tensor::Randn({config_.hidden, config_.qkv_out_dim()}, rng, 0.0f, 0.2f);
    w_out_ = Tensor::Randn({config_.hidden, config_.hidden}, rng, 0.0f, 0.2f);
    x_full_ = Tensor::Randn({batch_ * config_.seq_len, config_.hidden}, rng);
    dy_full_ = Tensor::Randn({batch_ * config_.seq_len, config_.hidden}, rng);
    ref_ = ReferenceAttention(config_, w_qkv_, w_out_, x_full_, dy_full_, batch_);
  }

  ModelConfig config_;
  const int64_t batch_ = 2;
  Tensor w_qkv_, w_out_, x_full_, dy_full_;
  RefAttnResult ref_;
};

TEST_F(AttentionParallelTest, SpMatchesSingleRankForwardBackward) {
  const int n = 2;
  FlatCommunicator group(n);
  std::vector<Tensor> y(n), dx(n), dw_qkv(n), dw_out(n);
  RunOnRanks(n, [&](int rank) {
    ShardContext ctx{&group, rank};
    Tensor x_local = RankChunk(x_full_, batch_, config_.seq_len, rank, n, config_.hidden);
    Tensor dy_local = RankChunk(dy_full_, batch_, config_.seq_len, rank, n, config_.hidden);
    SpAttentionCache cache;
    y[static_cast<size_t>(rank)] = SpAttentionForward(ctx, config_, w_qkv_, w_out_, x_local,
                                                      batch_, config_.seq_len, &cache);
    SpAttentionGrads grads = SpAttentionBackward(ctx, config_, w_qkv_, w_out_, dy_local,
                                                 batch_, config_.seq_len, cache);
    dx[static_cast<size_t>(rank)] = std::move(grads.dx_local);
    dw_qkv[static_cast<size_t>(rank)] = std::move(grads.dw_qkv);
    dw_out[static_cast<size_t>(rank)] = std::move(grads.dw_out);
  });
  for (int rank = 0; rank < n; ++rank) {
    Tensor y_ref = RankChunk(ref_.y, batch_, config_.seq_len, rank, n, config_.hidden);
    Tensor dx_ref = RankChunk(ref_.dx, batch_, config_.seq_len, rank, n, config_.hidden);
    EXPECT_LT(y[static_cast<size_t>(rank)].RelativeL2Diff(y_ref), 1e-5) << rank;
    EXPECT_LT(dx[static_cast<size_t>(rank)].RelativeL2Diff(dx_ref), 1e-5) << rank;
  }
  // Replicated-weight grads are partial; their sum equals the reference.
  Tensor dw_qkv_total = dw_qkv[0];
  dw_qkv_total.AddInPlace(dw_qkv[1]);
  Tensor dw_out_total = dw_out[0];
  dw_out_total.AddInPlace(dw_out[1]);
  EXPECT_LT(dw_qkv_total.RelativeL2Diff(ref_.dw_qkv), 1e-5);
  EXPECT_LT(dw_out_total.RelativeL2Diff(ref_.dw_out), 1e-5);
}

TEST_F(AttentionParallelTest, TpMatchesSingleRankForwardBackward) {
  const int n = 2;
  FlatCommunicator group(n);
  std::vector<Tensor> y(n), dx(n), dw_qkv(n), dw_out(n);
  RunOnRanks(n, [&](int rank) {
    ShardContext ctx{&group, rank};
    Tensor x_local = RankChunk(x_full_, batch_, config_.seq_len, rank, n, config_.hidden);
    Tensor dy_local = RankChunk(dy_full_, batch_, config_.seq_len, rank, n, config_.hidden);
    TpAttentionCache cache;
    y[static_cast<size_t>(rank)] = TpAttentionForward(ctx, config_, w_qkv_, w_out_, x_local,
                                                      batch_, config_.seq_len, &cache);
    TpAttentionGrads grads = TpAttentionBackward(ctx, config_, w_qkv_, w_out_, dy_local,
                                                 batch_, config_.seq_len, cache);
    dx[static_cast<size_t>(rank)] = std::move(grads.dx_local);
    dw_qkv[static_cast<size_t>(rank)] = std::move(grads.dw_qkv_shard);
    dw_out[static_cast<size_t>(rank)] = std::move(grads.dw_out_shard);
  });
  for (int rank = 0; rank < n; ++rank) {
    Tensor y_ref = RankChunk(ref_.y, batch_, config_.seq_len, rank, n, config_.hidden);
    Tensor dx_ref = RankChunk(ref_.dx, batch_, config_.seq_len, rank, n, config_.hidden);
    EXPECT_LT(y[static_cast<size_t>(rank)].RelativeL2Diff(y_ref), 1e-5) << rank;
    EXPECT_LT(dx[static_cast<size_t>(rank)].RelativeL2Diff(dx_ref), 1e-5) << rank;
    // Shard grads equal the reference slices (complete sums, no extra sync).
    Tensor ref_qkv_shard = TpQkvShard(config_, ref_.dw_qkv, rank, n);
    Tensor ref_out_shard = TpOutShard(config_, ref_.dw_out, rank, n);
    EXPECT_LT(dw_qkv[static_cast<size_t>(rank)].RelativeL2Diff(ref_qkv_shard), 1e-5) << rank;
    EXPECT_LT(dw_out[static_cast<size_t>(rank)].RelativeL2Diff(ref_out_shard), 1e-5) << rank;
  }
}

TEST_F(AttentionParallelTest, SpCommunicatesLessThanTp) {
  // Eq 1 vs Eq 2: SP volume is (2 + 2/m)/n of TP's. With m=2, n=2 the ratio
  // is 1.5/2 = 0.75; verify the measured wire bytes respect it.
  const int n = 2;
  FlatCommunicator sp_group(n);
  FlatCommunicator tp_group(n);
  RunOnRanks(n, [&](int rank) {
    ShardContext sp_ctx{&sp_group, rank};
    ShardContext tp_ctx{&tp_group, rank};
    Tensor x_local = RankChunk(x_full_, batch_, config_.seq_len, rank, n, config_.hidden);
    SpAttentionCache sp_cache;
    SpAttentionForward(sp_ctx, config_, w_qkv_, w_out_, x_local, batch_, config_.seq_len,
                       &sp_cache);
    TpAttentionCache tp_cache;
    TpAttentionForward(tp_ctx, config_, w_qkv_, w_out_, x_local, batch_, config_.seq_len,
                       &tp_cache);
  });
  EXPECT_LT(sp_group.wire_bytes(), tp_group.wire_bytes());
  const double measured_ratio = static_cast<double>(sp_group.wire_bytes()) /
                                static_cast<double>(tp_group.wire_bytes());
  const double m = static_cast<double>(config_.gqa_ratio);
  const double expected_ratio = (2.0 + 2.0 / m) / (2.0 * n);
  EXPECT_NEAR(measured_ratio, expected_ratio, 0.05);
}

class FfnParallelTest : public ::testing::TestWithParam<EpDispatchMode> {
 protected:
  void SetUp() override {
    config_ = TestConfig();
    Rng rng(77);
    for (int64_t e = 0; e < config_.num_experts; ++e) {
      w1_.push_back(Tensor::Randn({config_.hidden, config_.ffn_hidden}, rng, 0.0f, 0.2f));
      w3_.push_back(Tensor::Randn({config_.hidden, config_.ffn_hidden}, rng, 0.0f, 0.2f));
      w2_.push_back(Tensor::Randn({config_.ffn_hidden, config_.hidden}, rng, 0.0f, 0.2f));
    }
    w_gate_ = Tensor::Randn({config_.hidden, config_.num_experts}, rng, 0.0f, 0.3f);
    const int64_t tokens = 16;
    x_full_ = Tensor::Randn({tokens, config_.hidden}, rng);
    dy_full_ = Tensor::Randn({tokens, config_.hidden}, rng);
    router_.num_experts = config_.num_experts;
    router_.top_k = config_.top_k;
    Tensor logits = MatMul(x_full_, w_gate_);
    routing_full_ = RouteTokens(logits, router_);
    ref_ = ReferenceFfn(config_, w1_, w3_, w2_, x_full_, routing_full_, dy_full_);
  }

  ModelConfig config_;
  RouterConfig router_;
  std::vector<Tensor> w1_, w3_, w2_;
  Tensor w_gate_, x_full_, dy_full_;
  RoutingResult routing_full_;
  RefFfnResult ref_;
};

TEST_P(FfnParallelTest, EpMatchesSingleRankForwardBackward) {
  const int n = 2;
  const EpDispatchMode mode = GetParam();
  const int64_t t_local = x_full_.dim(0) / n;
  const int64_t e_local = config_.num_experts / n;
  FlatCommunicator group(n);
  std::vector<Tensor> y(n), dx(n), dcombine(n);
  std::vector<std::vector<Tensor>> dw1(n), dw2(n), dw3(n);
  RunOnRanks(n, [&](int rank) {
    ShardContext ctx{&group, rank};
    Tensor x_local = x_full_.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor dy_local = dy_full_.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor logits = MatMul(x_local, w_gate_);
    RoutingResult routing = RouteTokens(logits, router_);
    EpFfnCache cache;
    y[static_cast<size_t>(rank)] =
        EpFfnForward(ctx, config_, mode, w1_, w3_, w2_, x_local, routing, &cache);
    EpFfnGrads grads =
        EpFfnBackward(ctx, config_, mode, w1_, w3_, w2_, dy_local, routing, cache);
    dx[static_cast<size_t>(rank)] = std::move(grads.dx_local);
    dcombine[static_cast<size_t>(rank)] = std::move(grads.dcombine_local);
    dw1[static_cast<size_t>(rank)] = std::move(grads.dw1);
    dw2[static_cast<size_t>(rank)] = std::move(grads.dw2);
    dw3[static_cast<size_t>(rank)] = std::move(grads.dw3);
  });
  for (int rank = 0; rank < n; ++rank) {
    Tensor y_ref = ref_.y.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor dx_ref = ref_.dx.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor dc_ref = ref_.dcombine.SliceRows(rank * t_local, (rank + 1) * t_local);
    EXPECT_LT(y[static_cast<size_t>(rank)].RelativeL2Diff(y_ref), 1e-5) << rank;
    EXPECT_LT(dx[static_cast<size_t>(rank)].RelativeL2Diff(dx_ref), 1e-5) << rank;
    EXPECT_LT(dcombine[static_cast<size_t>(rank)].RelativeL2Diff(dc_ref), 1e-5) << rank;
    // Expert-weight grads are complete on the owner (no sync needed).
    for (int64_t e = 0; e < e_local; ++e) {
      const size_t global = static_cast<size_t>(rank * e_local + e);
      EXPECT_LT(dw1[static_cast<size_t>(rank)][static_cast<size_t>(e)].RelativeL2Diff(
                    ref_.dw1[global]),
                1e-5);
      EXPECT_LT(dw2[static_cast<size_t>(rank)][static_cast<size_t>(e)].RelativeL2Diff(
                    ref_.dw2[global]),
                1e-5);
      EXPECT_LT(dw3[static_cast<size_t>(rank)][static_cast<size_t>(e)].RelativeL2Diff(
                    ref_.dw3[global]),
                1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothDispatchModes, FfnParallelTest,
                         ::testing::Values(EpDispatchMode::kAllToAll,
                                           EpDispatchMode::kAllGatherScatter));

// Quantize-on-pack FP8 dispatch: quantizing each row directly into the send
// staging (codes + per-token scale on one wire payload) must be BITWISE the
// same as the single-rank reference run on x round-tripped through per-token
// FP8. Routing stays on the ORIGINAL x in both (the router is upstream of
// the dispatch quantization). Top-2, so the combine sum is order-free.
TEST_F(FfnParallelTest, PipelinedFp8DispatchMatchesRoundTripReference) {
  const int n = 2;
  const int64_t tokens = x_full_.dim(0);
  const int64_t t_local = tokens / n;
  const int64_t h = config_.hidden;
  QuantConfig quant;
  quant.granularity = QuantGranularity::kPerToken;
  const Tensor x_q =
      Tensor::FromVector({tokens, h}, QuantizeRoundTrip(x_full_.data(), tokens, h, quant));
  const RefFfnResult ref =
      ReferenceFfn(config_, w1_, w3_, w2_, x_q, routing_full_, dy_full_);

  for (int chunks : {1, 3}) {
    EpPipelineConfig pc;
    pc.num_chunks = chunks;
    pc.fp8_dispatch = true;
    pc.quant = quant;
    FlatCommunicator group(n);
    std::vector<Tensor> y_fp8(n);
    RunOnRanks(n, [&](int rank) {
      ShardContext ctx{&group, rank};
      Tensor x_local = x_full_.SliceRows(rank * t_local, (rank + 1) * t_local);
      RoutingResult routing = RouteTokens(MatMul(x_local, w_gate_), router_);
      EpFfnCache cache;
      y_fp8[static_cast<size_t>(rank)] =
          EpFfnForward(ctx, config_, EpDispatchMode::kAllToAll, w1_, w3_, w2_,
                       x_local, routing, &cache, pc);
    });
    for (int rank = 0; rank < n; ++rank) {
      const Tensor& a = y_fp8[static_cast<size_t>(rank)];
      const Tensor b = ref.y.SliceRows(rank * t_local, (rank + 1) * t_local);
      ASSERT_EQ(a.numel(), b.numel()) << rank;
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            static_cast<size_t>(a.numel()) * sizeof(float)),
                0)
          << "chunks=" << chunks << " rank=" << rank;
    }
  }
}

TEST_F(FfnParallelTest, TpFfnMatchesSingleRank) {
  const int n = 2;
  const int64_t t_local = x_full_.dim(0) / n;
  FlatCommunicator group(n);
  std::vector<Tensor> y(n), dx(n), dcombine(n);
  std::vector<std::vector<Tensor>> dw1(n), dw2(n);
  RunOnRanks(n, [&](int rank) {
    ShardContext ctx{&group, rank};
    Tensor x_local = x_full_.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor dy_local = dy_full_.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor logits = MatMul(x_local, w_gate_);
    RoutingResult routing = RouteTokens(logits, router_);
    TpFfnCache cache;
    y[static_cast<size_t>(rank)] =
        TpFfnForward(ctx, config_, w1_, w3_, w2_, x_local, routing, &cache);
    TpFfnGrads grads = TpFfnBackward(ctx, config_, w1_, w3_, w2_, dy_local, routing, cache);
    dx[static_cast<size_t>(rank)] = std::move(grads.dx_local);
    dcombine[static_cast<size_t>(rank)] = std::move(grads.dcombine_local);
    dw1[static_cast<size_t>(rank)] = std::move(grads.dw1_shard);
    dw2[static_cast<size_t>(rank)] = std::move(grads.dw2_shard);
  });
  for (int rank = 0; rank < n; ++rank) {
    Tensor y_ref = ref_.y.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor dx_ref = ref_.dx.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor dc_ref = ref_.dcombine.SliceRows(rank * t_local, (rank + 1) * t_local);
    EXPECT_LT(y[static_cast<size_t>(rank)].RelativeL2Diff(y_ref), 1e-5) << rank;
    EXPECT_LT(dx[static_cast<size_t>(rank)].RelativeL2Diff(dx_ref), 1e-5) << rank;
    EXPECT_LT(dcombine[static_cast<size_t>(rank)].RelativeL2Diff(dc_ref), 1e-4) << rank;
    for (int64_t e = 0; e < config_.num_experts; ++e) {
      Tensor ref_w1_shard = TpFfnColShard(ref_.dw1[static_cast<size_t>(e)], rank, n);
      Tensor ref_w2_shard = TpFfnRowShard(ref_.dw2[static_cast<size_t>(e)], rank, n);
      EXPECT_LT(dw1[static_cast<size_t>(rank)][static_cast<size_t>(e)].RelativeL2Diff(
                    ref_w1_shard),
                1e-5);
      EXPECT_LT(dw2[static_cast<size_t>(rank)][static_cast<size_t>(e)].RelativeL2Diff(
                    ref_w2_shard),
                1e-5);
    }
  }
}

TEST_F(FfnParallelTest, DroppedTokenCopiesHandledIdentically) {
  // Mark a few routed copies as dropped (capacity overflow): both dispatch
  // modes must skip them identically and keep gradients consistent.
  const int n = 2;
  const int64_t t_local = x_full_.dim(0) / n;
  FlatCommunicator a2a_group(n);
  FlatCommunicator ag_group(n);
  std::vector<Tensor> y_a2a(n), y_ag(n), dx_a2a(n), dx_ag(n);
  RunOnRanks(n, [&](int rank) {
    Tensor x_local = x_full_.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor dy_local = dy_full_.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor logits = MatMul(x_local, w_gate_);
    RoutingResult routing = RouteTokens(logits, router_);
    // Drop every third copy deterministically.
    for (size_t i = 0; i < routing.dropped.size(); i += 3) {
      if (routing.dropped[i] == 0) {
        const int64_t t = static_cast<int64_t>(i) / routing.top_k;
        const int64_t slot = static_cast<int64_t>(i) % routing.top_k;
        const int64_t e = routing.expert_index[i];
        routing.dropped[i] = 1;
        routing.combine_weight.At(t, slot) = 0.0f;
        --routing.expert_counts[static_cast<size_t>(e)];
      }
    }
    EpFfnCache c1, c2;
    ShardContext ctx1{&a2a_group, rank};
    ShardContext ctx2{&ag_group, rank};
    y_a2a[static_cast<size_t>(rank)] = EpFfnForward(
        ctx1, config_, EpDispatchMode::kAllToAll, w1_, w3_, w2_, x_local, routing, &c1);
    y_ag[static_cast<size_t>(rank)] =
        EpFfnForward(ctx2, config_, EpDispatchMode::kAllGatherScatter, w1_, w3_, w2_,
                     x_local, routing, &c2);
    EpFfnGrads g1 = EpFfnBackward(ctx1, config_, EpDispatchMode::kAllToAll, w1_, w3_, w2_,
                                  dy_local, routing, c1);
    EpFfnGrads g2 = EpFfnBackward(ctx2, config_, EpDispatchMode::kAllGatherScatter, w1_,
                                  w3_, w2_, dy_local, routing, c2);
    dx_a2a[static_cast<size_t>(rank)] = std::move(g1.dx_local);
    dx_ag[static_cast<size_t>(rank)] = std::move(g2.dx_local);
  });
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_LT(y_a2a[static_cast<size_t>(rank)].RelativeL2Diff(y_ag[static_cast<size_t>(rank)]),
              1e-5)
        << rank;
    EXPECT_LT(
        dx_a2a[static_cast<size_t>(rank)].RelativeL2Diff(dx_ag[static_cast<size_t>(rank)]),
        1e-5)
        << rank;
  }
}

TEST_F(FfnParallelTest, BothEpModesAgree) {
  const int n = 2;
  const int64_t t_local = x_full_.dim(0) / n;
  FlatCommunicator a2a_group(n);
  FlatCommunicator ag_group(n);
  std::vector<Tensor> y_a2a(n), y_ag(n);
  RunOnRanks(n, [&](int rank) {
    Tensor x_local = x_full_.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor logits = MatMul(x_local, w_gate_);
    RoutingResult routing = RouteTokens(logits, router_);
    EpFfnCache cache1, cache2;
    ShardContext ctx1{&a2a_group, rank};
    ShardContext ctx2{&ag_group, rank};
    y_a2a[static_cast<size_t>(rank)] = EpFfnForward(
        ctx1, config_, EpDispatchMode::kAllToAll, w1_, w3_, w2_, x_local, routing, &cache1);
    y_ag[static_cast<size_t>(rank)] =
        EpFfnForward(ctx2, config_, EpDispatchMode::kAllGatherScatter, w1_, w3_, w2_,
                     x_local, routing, &cache2);
  });
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_LT(y_a2a[static_cast<size_t>(rank)].RelativeL2Diff(y_ag[static_cast<size_t>(rank)]),
              1e-5);
  }
}

// Both fused EP pipelines run their expert GEMMs per chunk outside
// GroupedGemm and must still account for them in KernelStats: one forward
// plus backward across 4 ranks moves the grouped-GEMM FLOPs by exactly
// 6·h·f per kept copy (three forward GEMMs) plus 12·h·f per kept copy (the
// dx and dW GEMMs of each).
TEST_P(FfnParallelTest, PipelinedEpRecordsExpertGemmFlops) {
  const int n = 4;
  const EpDispatchMode mode = GetParam();
  const int64_t t_local = x_full_.dim(0) / n;
  const int64_t h = config_.hidden;
  const int64_t f = config_.ffn_hidden;
  std::vector<RoutingResult> routings;
  int64_t kept = 0;
  for (int rank = 0; rank < n; ++rank) {
    routings.push_back(RouteTokens(
        MatMul(x_full_.SliceRows(rank * t_local, (rank + 1) * t_local), w_gate_), router_));
    for (uint8_t dropped : routings.back().dropped) {
      kept += dropped == 0 ? 1 : 0;
    }
  }
  ASSERT_GT(kept, 0);
  EpPipelineConfig pc;
  pc.num_chunks = 4;
  FlatCommunicator group(n);
  const KernelStatsSnapshot before = GetKernelStats();
  RunOnRanks(n, [&](int rank) {
    ShardContext ctx{&group, rank};
    const RoutingResult& routing = routings[static_cast<size_t>(rank)];
    Tensor x_local = x_full_.SliceRows(rank * t_local, (rank + 1) * t_local);
    Tensor dy_local = dy_full_.SliceRows(rank * t_local, (rank + 1) * t_local);
    EpFfnCache cache;
    EpFfnForward(ctx, config_, mode, w1_, w3_, w2_, x_local, routing, &cache, pc);
    EpFfnBackward(ctx, config_, mode, w1_, w3_, w2_, dy_local, routing, cache);
  });
  const KernelStatsSnapshot after = GetKernelStats();
  const double per_copy = static_cast<double>(h * f);
  EXPECT_DOUBLE_EQ(after.grouped_gemm_flops - before.grouped_gemm_flops,
                   (6.0 + 12.0) * per_copy * static_cast<double>(kept));
}

TEST(GradSyncTest, Bf16AllToAllCloseToFp32) {
  const int n = 4;
  const int64_t count = 64;
  FlatCommunicator fp32_group(n);
  FlatCommunicator bf16_group(n);
  std::vector<std::vector<float>> fp32_out(n, std::vector<float>(count / n));
  std::vector<std::vector<float>> bf16_out(n, std::vector<float>(count / n));
  RunOnRanks(n, [&](int rank) {
    Rng rng(static_cast<uint64_t>(rank) + 11);
    std::vector<float> grads(static_cast<size_t>(count));
    for (auto& g : grads) {
      g = static_cast<float>(rng.NextGaussian());
    }
    SyncGradShardInto(fp32_group, rank, grads.data(), count,
                      GradSyncMode::kFp32ReduceScatter,
                      fp32_out[static_cast<size_t>(rank)].data());
    SyncGradShardInto(bf16_group, rank, grads.data(), count, GradSyncMode::kBf16AllToAll,
                      bf16_out[static_cast<size_t>(rank)].data());
  });
  for (int rank = 0; rank < n; ++rank) {
    for (size_t i = 0; i < fp32_out[rank].size(); ++i) {
      // One rounding per contribution: error <= n * 2^-8 * max|g|.
      EXPECT_NEAR(bf16_out[rank][i], fp32_out[rank][i], 0.1f) << rank << " " << i;
    }
  }
}

TEST(GradSyncTest, RingBf16WorseThanAllToAllBf16) {
  // Adversarial accumulation: large base value plus many small updates.
  // Sequential BF16 partial sums absorb the small terms; the §5 design
  // (single cast + FP32 local reduce) keeps them.
  const int n = 8;
  const int64_t count = 64;
  FlatCommunicator ring_group(n);
  FlatCommunicator a2a_group(n);
  FlatCommunicator exact_group(n);
  std::vector<double> ring_err(n), a2a_err(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> grads(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      // Rank 0 holds a big value; everyone else small ones.
      grads[static_cast<size_t>(i)] = rank == 0 ? 256.0f : 0.37f;
    }
    std::vector<float> exact(count / n), ring(count / n), a2a(count / n);
    SyncGradShardInto(exact_group, rank, grads.data(), count,
                      GradSyncMode::kFp32ReduceScatter, exact.data());
    SyncGradShardInto(ring_group, rank, grads.data(), count, GradSyncMode::kBf16RingReduce,
                      ring.data());
    SyncGradShardInto(a2a_group, rank, grads.data(), count, GradSyncMode::kBf16AllToAll,
                      a2a.data());
    double ring_total = 0.0, a2a_total = 0.0;
    for (size_t i = 0; i < exact.size(); ++i) {
      ring_total += std::fabs(ring[i] - exact[i]);
      a2a_total += std::fabs(a2a[i] - exact[i]);
    }
    ring_err[static_cast<size_t>(rank)] = ring_total;
    a2a_err[static_cast<size_t>(rank)] = a2a_total;
  });
  double ring_sum = 0.0, a2a_sum = 0.0;
  for (int rank = 0; rank < n; ++rank) {
    ring_sum += ring_err[static_cast<size_t>(rank)];
    a2a_sum += a2a_err[static_cast<size_t>(rank)];
  }
  EXPECT_GT(ring_sum, a2a_sum * 2.0) << ring_sum << " vs " << a2a_sum;
}

TEST(GradSyncTest, AllReduceGradsConsistentAcrossModes) {
  const int n = 4;
  const int64_t count = 32;
  FlatCommunicator group(n);
  std::vector<std::vector<float>> out(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> grads(static_cast<size_t>(count), static_cast<float>(rank + 1));
    AllReduceGrads(group, rank, grads.data(), count, GradSyncMode::kFp32ReduceScatter);
    out[static_cast<size_t>(rank)] = grads;
  });
  for (int rank = 0; rank < n; ++rank) {
    for (float v : out[rank]) {
      EXPECT_EQ(v, 10.0f);  // 1+2+3+4
    }
  }
}

TEST(GradSyncTest, WireBytesHalved) {
  const int64_t count = 1 << 20;
  const int n = 8;
  const int64_t fp32 = GradSyncWireBytes(GradSyncMode::kFp32ReduceScatter, count, n);
  const int64_t bf16 = GradSyncWireBytes(GradSyncMode::kBf16AllToAll, count, n);
  EXPECT_EQ(bf16 * 2, fp32);  // the paper's 50% reduction
}

TEST(GradSyncTest, InPlaceBf16PackRoundTrip) {
  Rng rng(5);
  const int64_t count = 128;
  std::vector<float> buffer(static_cast<size_t>(count));
  std::vector<float> expected(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    buffer[static_cast<size_t>(i)] = static_cast<float>(rng.NextGaussian());
    expected[static_cast<size_t>(i)] = Bf16Round(buffer[static_cast<size_t>(i)]);
  }
  PackBf16InPlace(buffer.data(), count);
  UnpackBf16InPlace(buffer.data(), count);
  for (int64_t i = 0; i < count; ++i) {
    EXPECT_EQ(buffer[static_cast<size_t>(i)], expected[static_cast<size_t>(i)]) << i;
  }
}

}  // namespace
}  // namespace msmoe
