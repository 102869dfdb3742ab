#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "src/base/rng.h"
#include "src/model/attention.h"
#include "src/model/config.h"
#include "src/model/grouped_gemm.h"
#include "src/model/lm.h"
#include "src/model/moe_layer.h"
#include "src/model/optimizer.h"
#include "src/model/router.h"
#include "src/tensor/gemm_kernel.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

TEST(ConfigTest, Table2ModelsPresent) {
  const auto& models = EvaluationModels();
  ASSERT_EQ(models.size(), 6u);
  EXPECT_EQ(models[0].name, "Internal-352B");
  EXPECT_EQ(models[1].name, "Mixtral-8x7B");
  EXPECT_EQ(models[5].name, "DeepSeekMoE");
}

TEST(ConfigTest, Mixtral8x7bShapes) {
  const ModelConfig config = ModelConfigByName("Mixtral-8x7B").value();
  EXPECT_EQ(config.hidden, 4096);
  EXPECT_EQ(config.num_heads, 32);
  EXPECT_EQ(config.head_dim(), 128);
  EXPECT_EQ(config.kv_heads(), 8);
  EXPECT_EQ(config.qkv_out_dim(), 4096 + 2 * 8 * 128);
  EXPECT_EQ(config.num_experts, 8);
  EXPECT_EQ(config.top_k, 2);
}

TEST(ConfigTest, Mixtral8x7bTotalParamsNear47B) {
  // Mixtral-8x7B has ~46.7B parameters; our accounting (which uses the
  // paper's Table 2 shapes and a 65536 vocab) should land in that ballpark.
  const ModelConfig config = ModelConfigByName("Mixtral-8x7B").value();
  const double total = static_cast<double>(config.TotalParams());
  EXPECT_GT(total, 40e9);
  EXPECT_LT(total, 55e9);
}

TEST(ConfigTest, Internal352BParamCount) {
  const ModelConfig config = ModelConfigByName("Internal-352B").value();
  const double total = static_cast<double>(config.TotalParams());
  // The paper calls it a 352B model.
  EXPECT_GT(total, 300e9);
  EXPECT_LT(total, 400e9);
}

TEST(ConfigTest, ActivatedParamsSublinear) {
  const ModelConfig config = ModelConfigByName("Internal-352B").value();
  // Sparse activation: activated params are far below total (k=3 of 32).
  EXPECT_LT(config.ActivatedParamsPerToken() * 5, config.TotalParams());
}

TEST(ConfigTest, SarActivationReduction) {
  // Appendix A.2: SAR should store roughly half (45-60% savings for the
  // Fig 16 models).
  const ModelConfig m7 = ModelConfigByName("Mixtral-8x7B").value();
  const double full = m7.ActivationBytesFull(8192, 8);
  const double sar = m7.ActivationBytesWithSar(8192, 8);
  const double savings = 1.0 - sar / full;
  EXPECT_GT(savings, 0.35);
  EXPECT_LT(savings, 0.70);
}

TEST(ConfigTest, UnknownModelRejected) {
  EXPECT_FALSE(ModelConfigByName("GPT-5").ok());
}

TEST(AttentionTest, CausalMaskRespected) {
  // Output at position 0 must not depend on later positions.
  Rng rng(1);
  const int64_t s = 4, hq = 2, hkv = 1, d = 4;
  Tensor q = Tensor::Randn({s, hq, d}, rng);
  Tensor k = Tensor::Randn({s, hkv, d}, rng);
  Tensor v = Tensor::Randn({s, hkv, d}, rng);
  AttentionCoreCache cache;
  Tensor out1 = AttentionCore(q, k, v, 2, &cache);
  // Perturb the last key/value; outputs at earlier positions must not move.
  k.At(s - 1, 0, 0) += 10.0f;
  v.At(s - 1, 0, 0) += 10.0f;
  Tensor out2 = AttentionCore(q, k, v, 2, &cache);
  for (int64_t t = 0; t < s - 1; ++t) {
    for (int64_t h = 0; h < hq; ++h) {
      for (int64_t e = 0; e < d; ++e) {
        EXPECT_EQ(out1.At(t, h, e), out2.At(t, h, e)) << t;
      }
    }
  }
}

TEST(AttentionTest, FirstTokenAttendsOnlyItself) {
  Rng rng(2);
  const int64_t s = 3, hq = 2, hkv = 2, d = 4;
  Tensor q = Tensor::Randn({s, hq, d}, rng);
  Tensor k = Tensor::Randn({s, hkv, d}, rng);
  Tensor v = Tensor::Randn({s, hkv, d}, rng);
  AttentionCoreCache cache;
  Tensor out = AttentionCore(q, k, v, 1, &cache);
  for (int64_t h = 0; h < hq; ++h) {
    for (int64_t e = 0; e < d; ++e) {
      EXPECT_NEAR(out.At(0, h, e), v.At(0, h, e), 1e-6);
    }
  }
}

TEST(AttentionTest, ProbabilitiesNormalized) {
  Rng rng(3);
  const int64_t s = 5, hq = 4, hkv = 2, d = 8;
  Tensor q = Tensor::Randn({s, hq, d}, rng);
  Tensor k = Tensor::Randn({s, hkv, d}, rng);
  Tensor v = Tensor::Randn({s, hkv, d}, rng);
  AttentionCoreCache cache;
  AttentionCore(q, k, v, 2, &cache);
  for (int64_t h = 0; h < hq; ++h) {
    for (int64_t t = 0; t < s; ++t) {
      double sum = 0.0;
      for (int64_t u = 0; u < s; ++u) {
        sum += cache.probs.At(h, t, u);
        if (u > t) {
          EXPECT_EQ(cache.probs.At(h, t, u), 0.0f);
        }
      }
      EXPECT_NEAR(sum, 1.0, 1e-5);
    }
  }
}

TEST(AttentionTest, BackwardFiniteDifference) {
  Rng rng(4);
  const int64_t s = 4, hq = 2, hkv = 1, d = 4;
  Tensor q = Tensor::Randn({s, hq, d}, rng);
  Tensor k = Tensor::Randn({s, hkv, d}, rng);
  Tensor v = Tensor::Randn({s, hkv, d}, rng);
  Tensor dout = Tensor::Randn({s, hq, d}, rng);
  AttentionCoreCache cache;
  AttentionCore(q, k, v, 2, &cache);
  AttentionCoreGrads grads = AttentionCoreBackward(dout, q, k, v, 2, cache);

  auto loss = [&] {
    AttentionCoreCache c;
    Tensor out = AttentionCore(q, k, v, 2, &c);
    double total = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i) {
      total += out[i] * dout[i];
    }
    return total;
  };
  const float eps = 1e-3f;
  auto check = [&](Tensor& x, const Tensor& dx) {
    for (int64_t i = 0; i < x.numel(); i += 3) {
      const float original = x[i];
      x[i] = original + eps;
      const double up = loss();
      x[i] = original - eps;
      const double down = loss();
      x[i] = original;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(dx[i], numeric, 2e-2 * std::max(1.0, std::fabs(numeric))) << i;
    }
  };
  check(q, grads.dq);
  check(k, grads.dk);
  check(v, grads.dv);
}

RouterConfig MakeRouterConfig(int64_t experts, int64_t k) {
  RouterConfig config;
  config.num_experts = experts;
  config.top_k = k;
  return config;
}

TEST(RouterTest, SelectsHighestProbExperts) {
  Tensor logits = Tensor::FromVector({1, 4}, {0.1f, 5.0f, 3.0f, -1.0f});
  RoutingResult routing = RouteTokens(logits, MakeRouterConfig(4, 2));
  EXPECT_EQ(routing.expert_index[0], 1);
  EXPECT_EQ(routing.expert_index[1], 2);
}

TEST(RouterTest, CombineWeightsSumToOne) {
  Rng rng(5);
  Tensor logits = Tensor::Randn({6, 8}, rng);
  RoutingResult routing = RouteTokens(logits, MakeRouterConfig(8, 3));
  for (int64_t t = 0; t < 6; ++t) {
    double sum = 0.0;
    for (int64_t slot = 0; slot < 3; ++slot) {
      sum += routing.combine_weight.At(t, slot);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(RouterTest, ExpertCountsMatchAssignments) {
  Rng rng(6);
  Tensor logits = Tensor::Randn({32, 4}, rng);
  RoutingResult routing = RouteTokens(logits, MakeRouterConfig(4, 2));
  const int64_t total = std::accumulate(routing.expert_counts.begin(),
                                        routing.expert_counts.end(), int64_t{0});
  EXPECT_EQ(total, 32 * 2);
}

TEST(RouterTest, CapacityDropsOverflow) {
  // All tokens prefer expert 0; with capacity factor 1.0 each expert keeps
  // tokens*k/E copies and the rest are dropped.
  Tensor logits = Tensor::Zeros({8, 4});
  for (int64_t t = 0; t < 8; ++t) {
    logits.At(t, 0) = 10.0f;
  }
  RouterConfig config = MakeRouterConfig(4, 1);
  config.capacity_factor = 1.0;
  RoutingResult routing = RouteTokens(logits, config);
  EXPECT_EQ(routing.expert_counts[0], 2);  // ceil(1.0 * 8 * 1 / 4)
  int64_t dropped = 0;
  for (uint8_t d : routing.dropped) {
    dropped += d;
  }
  EXPECT_EQ(dropped, 6);
  // Dropped copies have zero combine weight.
  EXPECT_EQ(routing.combine_weight.At(7, 0), 0.0f);
}

TEST(RouterTest, AuxLossMinimalWhenBalanced) {
  // Uniform logits: perfectly balanced expected load; aux loss == coeff
  // (G * sum f_g P_g = 1 when all equal).
  Tensor logits = Tensor::Zeros({16, 4});
  RouterConfig config = MakeRouterConfig(4, 2);
  config.aux_loss_coeff = 0.01;
  RoutingResult routing = RouteTokens(logits, config);
  EXPECT_NEAR(routing.aux_loss, 0.01, 1e-6);

  // Skewed routing: aux loss strictly larger.
  Rng rng(7);
  Tensor skewed = Tensor::Zeros({16, 4});
  for (int64_t t = 0; t < 16; ++t) {
    skewed.At(t, 0) = 4.0f;
    skewed.At(t, 1) = 3.5f;
  }
  RoutingResult bad = RouteTokens(skewed, config);
  EXPECT_GT(bad.aux_loss, routing.aux_loss);
}

TEST(RouterTest, GroupedAuxLossIgnoresIntraGroupImbalance) {
  // Two experts per group: skew within a group is invisible to the group
  // loss (DeepSeek-V2 / §3.2 behaviour).
  Tensor logits = Tensor::Zeros({16, 4});
  for (int64_t t = 0; t < 16; ++t) {
    logits.At(t, 0) = 6.0f;  // all to expert 0 (group 0)
  }
  RouterConfig per_expert = MakeRouterConfig(4, 1);
  per_expert.aux_loss_coeff = 0.01;
  per_expert.experts_per_group = 1;
  RouterConfig per_group = per_expert;
  per_group.experts_per_group = 2;
  const double loss_expert = RouteTokens(logits, per_expert).aux_loss;
  const double loss_group = RouteTokens(logits, per_group).aux_loss;
  EXPECT_GT(loss_expert, loss_group);
}

TEST(RouterTest, BackwardFiniteDifference) {
  Rng rng(8);
  Tensor logits = Tensor::Randn({4, 5}, rng);
  RouterConfig config = MakeRouterConfig(5, 2);
  config.aux_loss_coeff = 0.05;
  Tensor dcombine = Tensor::Randn({4, 2}, rng);

  RoutingResult routing = RouteTokens(logits, config);
  Tensor dlogits = RouterBackward(routing, dcombine, config);

  // Loss = sum(combine_weight * dcombine) + aux. Routing assignments are
  // locally constant; perturb only where the top-k set is stable.
  auto loss = [&] {
    RoutingResult r = RouteTokens(logits, config);
    double total = r.aux_loss;
    for (int64_t t = 0; t < 4; ++t) {
      for (int64_t slot = 0; slot < 2; ++slot) {
        total += static_cast<double>(r.combine_weight.At(t, slot)) * dcombine.At(t, slot);
      }
    }
    return total;
  };
  const float eps = 1e-4f;
  for (int64_t i = 0; i < logits.numel(); ++i) {
    const float original = logits[i];
    logits[i] = original + eps;
    RoutingResult up_routing = RouteTokens(logits, config);
    const double up = loss();
    logits[i] = original - eps;
    RoutingResult down_routing = RouteTokens(logits, config);
    const double down = loss();
    logits[i] = original;
    // Skip points where the perturbation flipped the routing (kink).
    if (up_routing.expert_index != routing.expert_index ||
        down_routing.expert_index != routing.expert_index) {
      continue;
    }
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(dlogits[i], numeric, 5e-2 * std::max(1.0, std::fabs(numeric))) << i;
  }
}

TEST(DispatchPlanTest, RowsGroupedByExpert) {
  Rng rng(9);
  Tensor logits = Tensor::Randn({16, 4}, rng);
  RoutingResult routing = RouteTokens(logits, MakeRouterConfig(4, 2));
  DispatchPlan plan = BuildDispatchPlan(routing, 4);
  EXPECT_EQ(plan.total_rows(), 32);
  EXPECT_EQ(plan.expert_offsets.front(), 0);
  EXPECT_EQ(plan.expert_offsets.back(), 32);
  // Every kept (token, slot) maps into its expert's row range.
  for (int64_t t = 0; t < 16; ++t) {
    for (int64_t slot = 0; slot < 2; ++slot) {
      const int64_t row = plan.slot_to_row[static_cast<size_t>(t * 2 + slot)];
      const int64_t e = routing.expert_index[static_cast<size_t>(t * 2 + slot)];
      ASSERT_GE(row, 0);
      EXPECT_GE(row, plan.expert_offsets[static_cast<size_t>(e)]);
      EXPECT_LT(row, plan.expert_offsets[static_cast<size_t>(e + 1)]);
      EXPECT_EQ(plan.row_map[static_cast<size_t>(row)], t);
    }
  }
}

TEST(GroupedGemmTest, MatchesPerExpertMatMul) {
  Rng rng(10);
  const int64_t h = 6, f = 4;
  std::vector<Tensor> weights;
  for (int e = 0; e < 3; ++e) {
    weights.push_back(Tensor::Randn({h, f}, rng));
  }
  Tensor x = Tensor::Randn({10, h}, rng);
  std::vector<int64_t> offsets = {0, 4, 4, 10};  // expert 1 gets zero rows
  Tensor y = GroupedGemm(x, offsets, weights);
  Tensor x0 = x.SliceRows(0, 4);
  Tensor y0 = MatMul(x0, weights[0]);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < f; ++c) {
      EXPECT_NEAR(y.At(r, c), y0.At(r, c), 1e-6);
    }
  }
  Tensor x2 = x.SliceRows(4, 10);
  Tensor y2 = MatMul(x2, weights[2]);
  for (int64_t r = 0; r < 6; ++r) {
    for (int64_t c = 0; c < f; ++c) {
      EXPECT_NEAR(y.At(4 + r, c), y2.At(r, c), 1e-6);
    }
  }
}

TEST(GroupedGemmTest, BackwardMatchesPerExpert) {
  Rng rng(11);
  const int64_t h = 5, f = 3;
  std::vector<Tensor> weights = {Tensor::Randn({h, f}, rng), Tensor::Randn({h, f}, rng)};
  Tensor x = Tensor::Randn({6, h}, rng);
  std::vector<int64_t> offsets = {0, 2, 6};
  Tensor dy = Tensor::Randn({6, f}, rng);
  GroupedGemmGrads grads = GroupedGemmBackward(dy, x, offsets, weights);

  Tensor dy0 = dy.SliceRows(0, 2);
  Tensor x0 = x.SliceRows(0, 2);
  MatMulGrads ref0 = MatMulBackward(dy0, x0, weights[0]);
  EXPECT_LT(grads.dweights[0].RelativeL2Diff(ref0.db), 1e-6);
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < h; ++c) {
      EXPECT_NEAR(grads.dx.At(r, c), ref0.da.At(r, c), 1e-6);
    }
  }
}

// The dW half on its own (the EP pipeline defers it behind the dx return):
// bitwise the full backward's dweights, zeros for an expert with no rows,
// and one forward's worth of FLOPs in KernelStats (the full backward
// records two).
TEST(GroupedGemmTest, WeightGradsMatchFullBackwardBitwise) {
  Rng rng(12);
  const int64_t h = 7, f = 5;
  std::vector<Tensor> weights;
  for (int e = 0; e < 3; ++e) {
    weights.push_back(Tensor::Randn({h, f}, rng));
  }
  Tensor x = Tensor::Randn({150, h}, rng);  // expert 2 spans several row panels
  Tensor dy = Tensor::Randn({150, f}, rng);
  const std::vector<int64_t> offsets = {0, 9, 9, 150};
  const GroupedGemmGrads full = GroupedGemmBackward(dy, x, offsets, weights);
  const KernelStatsSnapshot before = GetKernelStats();
  const std::vector<Tensor> dweights = GroupedGemmWeightGrads(dy, x, offsets, 3);
  const KernelStatsSnapshot after = GetKernelStats();
  ASSERT_EQ(dweights.size(), 3u);
  for (size_t e = 0; e < 3; ++e) {
    ASSERT_EQ(dweights[e].shape(), full.dweights[e].shape()) << e;
    EXPECT_EQ(std::memcmp(dweights[e].data(), full.dweights[e].data(),
                          static_cast<size_t>(h * f) * sizeof(float)),
              0)
        << e;
  }
  EXPECT_EQ(dweights[1].MaxAbs(), 0.0);
  EXPECT_DOUBLE_EQ(after.grouped_gemm_flops - before.grouped_gemm_flops, 2.0 * 150 * h * f);
  EXPECT_EQ(after.grouped_gemm_calls - before.grouped_gemm_calls, 1u);
}

TEST(MoeLayerTest, ForwardShapes) {
  const ModelConfig config = TinyMoeConfig();
  RouterConfig router = MakeRouterConfig(config.num_experts, config.top_k);
  Rng rng(12);
  MoeLayerParams params = MoeLayerParams::Init(config, rng);
  const int64_t batch = 2;
  const int64_t tokens = batch * config.seq_len;
  Tensor hidden = Tensor::Randn({tokens, config.hidden}, rng);
  MoeLayerCache cache;
  Tensor out = MoeLayerForward(params, config, router, hidden, batch, &cache);
  EXPECT_EQ(out.dim(0), tokens);
  EXPECT_EQ(out.dim(1), config.hidden);
  EXPECT_EQ(cache.ffn_in.dim(0), tokens * config.top_k);
}

TEST(MoeLayerTest, ParameterGradientsFiniteDifference) {
  ModelConfig config = TinyMoeConfig(4, 2);
  config.hidden = 16;
  config.num_heads = 2;
  config.gqa_ratio = 2;
  config.ffn_hidden = 12;
  config.seq_len = 6;
  RouterConfig router = MakeRouterConfig(4, 2);
  router.aux_loss_coeff = 0.01;
  Rng rng(13);
  MoeLayerParams params = MoeLayerParams::Init(config, rng);
  const int64_t batch = 1;
  const int64_t tokens = batch * config.seq_len;
  Tensor hidden = Tensor::Randn({tokens, config.hidden}, rng);
  Tensor dout = Tensor::Randn({tokens, config.hidden}, rng);

  MoeLayerCache cache;
  MoeLayerForward(params, config, router, hidden, batch, &cache);
  MoeLayerGrads grads = MoeLayerBackward(params, config, router, cache, dout, batch);
  const std::vector<int64_t> base_assignment = cache.routing.expert_index;

  auto loss = [&]() -> double {
    MoeLayerCache c;
    Tensor out = MoeLayerForward(params, config, router, hidden, batch, &c);
    if (c.routing.expert_index != base_assignment) {
      return std::nan("");  // routing flipped; skip this probe
    }
    double total = c.routing.aux_loss;
    for (int64_t i = 0; i < out.numel(); ++i) {
      total += out[i] * dout[i];
    }
    return total;
  };

  // Probe a few entries in each parameter tensor and the input.
  auto check = [&](Tensor& x, const Tensor& dx, const char* name) {
    const float eps = 1e-3f;
    const int64_t stride = std::max<int64_t>(1, x.numel() / 5);
    for (int64_t i = 0; i < x.numel(); i += stride) {
      const float original = x[i];
      x[i] = original + eps;
      const double up = loss();
      x[i] = original - eps;
      const double down = loss();
      x[i] = original;
      if (std::isnan(up) || std::isnan(down)) {
        continue;
      }
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(dx[i], numeric, 3e-2 * std::max(1.0, std::fabs(numeric)))
          << name << " index " << i;
    }
  };
  check(params.w_qkv, grads.dparams.w_qkv, "w_qkv");
  check(params.w_out, grads.dparams.w_out, "w_out");
  check(params.w_gate, grads.dparams.w_gate, "w_gate");
  check(params.ln1_gain, grads.dparams.ln1_gain, "ln1_gain");
  check(params.ln2_gain, grads.dparams.ln2_gain, "ln2_gain");
  check(params.w1[0], grads.dparams.w1[0], "w1.0");
  check(params.w2[1], grads.dparams.w2[1], "w2.1");
  check(params.w3[2], grads.dparams.w3[2], "w3.2");
  check(hidden, grads.dhidden, "hidden");
}

TEST(MoeLayerTest, ResidualPathIdentityWhenWeightsZero) {
  // With zero projection weights the layer must reduce to the identity.
  ModelConfig config = TinyMoeConfig(2, 1);
  RouterConfig router = MakeRouterConfig(2, 1);
  Rng rng(14);
  MoeLayerParams params = MoeLayerParams::ZerosLike(config);
  params.ln1_gain.Fill(1.0f);
  params.ln2_gain.Fill(1.0f);
  const int64_t tokens = config.seq_len;
  Tensor hidden = Tensor::Randn({tokens, config.hidden}, rng);
  MoeLayerCache cache;
  Tensor out = MoeLayerForward(params, config, router, hidden, 1, &cache);
  EXPECT_LT(out.RelativeL2Diff(hidden), 1e-6);
}

TEST(MoeLayerTest, CapacityDroppingDegradesToResidual) {
  // With capacity 0 effectively dropping everything (tiny factor), the FFN
  // contributes nothing and the layer output equals ln2_in (attention +
  // residual only) — dropped copies must not inject garbage.
  ModelConfig config = TinyMoeConfig(4, 2);
  RouterConfig router;
  router.num_experts = 4;
  router.top_k = 2;
  router.capacity_factor = 1e-9;  // ceil() still allows 1 copy per expert
  Rng rng(31);
  MoeLayerParams params = MoeLayerParams::Init(config, rng);
  const int64_t tokens = config.seq_len;
  Tensor hidden = Tensor::Randn({tokens, config.hidden}, rng);
  MoeLayerCache cache;
  Tensor out = MoeLayerForward(params, config, router, hidden, 1, &cache);
  // At most 1 copy per expert survives.
  for (int64_t count : cache.routing.expert_counts) {
    EXPECT_LE(count, 1);
  }
  // Tokens whose copies were ALL dropped produce exactly ln2_in.
  for (int64_t t = 0; t < tokens; ++t) {
    bool all_dropped = true;
    for (int64_t slot = 0; slot < router.top_k; ++slot) {
      if (cache.routing.dropped[static_cast<size_t>(t * router.top_k + slot)] == 0) {
        all_dropped = false;
      }
    }
    if (all_dropped) {
      for (int64_t c = 0; c < config.hidden; ++c) {
        EXPECT_EQ(out.At(t, c), cache.ln2_in.At(t, c)) << t;
      }
    }
  }
}

TEST(MoeLayerTest, BackwardWithDroppingAndAuxLossRuns) {
  ModelConfig config = TinyMoeConfig(4, 2);
  RouterConfig router;
  router.num_experts = 4;
  router.top_k = 2;
  router.capacity_factor = 1.0;
  router.aux_loss_coeff = 0.02;
  router.experts_per_group = 2;
  Rng rng(33);
  MoeLayerParams params = MoeLayerParams::Init(config, rng);
  const int64_t tokens = config.seq_len;
  Tensor hidden = Tensor::Randn({tokens, config.hidden}, rng);
  Tensor dout = Tensor::Randn({tokens, config.hidden}, rng);
  MoeLayerCache cache;
  MoeLayerForward(params, config, router, hidden, 1, &cache);
  MoeLayerGrads grads = MoeLayerBackward(params, config, router, cache, dout, 1);
  // Gradients are finite everywhere.
  double total = 0.0;
  grads.dparams.ForEachConst([&total](const std::string&, const Tensor& tensor) {
    total += tensor.SumAbs();
  });
  EXPECT_TRUE(std::isfinite(total));
  EXPECT_GT(total, 0.0);
  EXPECT_TRUE(std::isfinite(grads.dhidden.SumAbs()));
}

TEST(ConfigTest, ActivationBytesMonotoneInTopK) {
  ModelConfig config = ModelConfigByName("Mixtral-8x7B").value();
  const double k2 = config.ActivationBytesFull(8192, 8);
  config.top_k = 4;
  const double k4 = config.ActivationBytesFull(8192, 8);
  EXPECT_GT(k4, k2);
}

TEST(OptimizerTest, ConvergesOnQuadratic) {
  // Minimize ||x - target||^2 with Adam.
  Tensor x = Tensor::Full({4}, 5.0f);
  Tensor target = Tensor::FromVector({4}, {1.0f, -2.0f, 0.5f, 3.0f});
  AdamConfig config;
  config.lr = 0.1;
  AdamOptimizer adam(config);
  adam.Register(&x);
  for (int step = 0; step < 300; ++step) {
    Tensor grad({4});
    for (int64_t i = 0; i < 4; ++i) {
      grad[i] = 2.0f * (x[i] - target[i]);
    }
    adam.Step({&grad});
  }
  EXPECT_LT(x.RelativeL2Diff(target), 1e-2);
}

TEST(OptimizerTest, GradClipBoundsUpdate) {
  Tensor x = Tensor::Full({1}, 0.0f);
  AdamConfig config;
  config.lr = 1.0;
  config.grad_clip_norm = 1.0;
  AdamOptimizer adam(config);
  adam.Register(&x);
  Tensor huge = Tensor::Full({1}, 1e6f);
  adam.Step({&huge});
  // Clipped gradient -> Adam step magnitude ~ lr.
  EXPECT_LE(std::fabs(x[0]), 1.001f);
}

TEST(OptimizerTest, StateSaveRestoreDeterministic) {
  auto run = [](bool reload) {
    Tensor x = Tensor::Full({3}, 2.0f);
    AdamConfig config;
    config.lr = 0.05;
    AdamOptimizer adam(config);
    adam.Register(&x);
    std::vector<float> snapshot_state;
    Tensor snapshot_x({3});
    for (int step = 0; step < 20; ++step) {
      if (step == 10) {
        snapshot_state = adam.SaveState();
        snapshot_x = x;
        if (reload) {
          // Perturb then restore: must land on the same trajectory.
          Tensor junk = Tensor::Full({3}, 1.0f);
          adam.Step({&junk});
          x = snapshot_x;
          adam.LoadState(snapshot_state);
        }
      }
      Tensor grad({3});
      for (int64_t i = 0; i < 3; ++i) {
        grad[i] = x[i];
      }
      adam.Step({&grad});
    }
    return x;
  };
  Tensor a = run(false);
  Tensor b = run(true);
  EXPECT_LT(a.RelativeL2Diff(b), 1e-6);
}

TEST(LmTest, LossDecreasesWithTraining) {
  ModelConfig config = TinyMoeConfig(4, 2);
  config.num_layers = 1;
  config.vocab = 32;
  config.seq_len = 8;
  RouterConfig router = MakeRouterConfig(4, 2);
  router.aux_loss_coeff = 0.01;
  Rng rng(15);
  LmParams params = LmParams::Init(config, rng);

  AdamConfig adam_config;
  adam_config.lr = 3e-3;
  AdamOptimizer adam(adam_config);
  for (Tensor* t : params.TensorList()) {
    adam.Register(t);
  }

  // Fixed synthetic batch: memorize a simple sequence task.
  const int64_t batch = 2;
  const int64_t tokens = batch * config.seq_len;
  std::vector<int64_t> inputs(static_cast<size_t>(tokens));
  std::vector<int64_t> targets(static_cast<size_t>(tokens));
  Rng data_rng(99);
  for (int64_t t = 0; t < tokens; ++t) {
    inputs[static_cast<size_t>(t)] = static_cast<int64_t>(data_rng.NextIndex(32));
    targets[static_cast<size_t>(t)] = (inputs[static_cast<size_t>(t)] + 1) % 32;
  }

  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 30; ++step) {
    LmParams grads = LmParams::ZerosLike(config);
    LmStepStats stats =
        LmForwardBackward(params, config, router, inputs, targets, batch, &grads);
    if (step == 0) {
      first_loss = stats.ce_loss;
    }
    last_loss = stats.ce_loss;
    std::vector<const Tensor*> grad_list = grads.TensorListConst();
    adam.Step(grad_list);
  }
  EXPECT_LT(last_loss, first_loss * 0.7) << first_loss << " -> " << last_loss;
}

TEST(LmTest, GradientsMatchFiniteDifferenceSpotCheck) {
  ModelConfig config = TinyMoeConfig(2, 1);
  config.num_layers = 1;
  config.vocab = 16;
  config.seq_len = 4;
  config.hidden = 8;
  config.num_heads = 2;
  config.gqa_ratio = 1;
  config.ffn_hidden = 8;
  RouterConfig router = MakeRouterConfig(2, 1);
  Rng rng(16);
  LmParams params = LmParams::Init(config, rng);
  std::vector<int64_t> inputs = {1, 2, 3, 4};
  std::vector<int64_t> targets = {2, 3, 4, 5};

  LmParams grads = LmParams::ZerosLike(config);
  LmForwardBackward(params, config, router, inputs, targets, 1, &grads);

  auto loss = [&] {
    return LmForwardLoss(params, config, router, inputs, targets, 1);
  };
  const float eps = 1e-3f;
  // Spot-check the LM head gradient.
  for (int64_t i = 0; i < params.lm_head.numel(); i += params.lm_head.numel() / 7) {
    const float original = params.lm_head[i];
    params.lm_head[i] = original + eps;
    const double up = loss();
    params.lm_head[i] = original - eps;
    const double down = loss();
    params.lm_head[i] = original;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grads.lm_head[i], numeric, 2e-2 * std::max(0.1, std::fabs(numeric))) << i;
  }
}

TEST(LmTest, ParamNamingStable) {
  ModelConfig config = TinyMoeConfig(2, 1);
  config.num_layers = 2;
  Rng rng(17);
  LmParams params = LmParams::Init(config, rng);
  std::vector<std::string> names;
  params.ForEach([&names](const std::string& name, Tensor&) { names.push_back(name); });
  EXPECT_EQ(names.front(), "embedding");
  EXPECT_EQ(names.back(), "lm_head");
  EXPECT_NE(std::find(names.begin(), names.end(), "layer.1.w_gate"), names.end());
}

}  // namespace
}  // namespace msmoe
