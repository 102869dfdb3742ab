// Single-rank reference for the expert FFN block (dispatch -> grouped GEMMs
// -> SwiGLU -> weighted combine) and its backward, shared by the tests that
// pin the expert-parallel FFN against it. It shares no dispatch code with
// src/parallel/ep_ffn: rows are grouped by BuildDispatchPlan over all
// experts at once, and each token's copies are combined in slot order.
#ifndef MSMOE_TESTS_REF_FFN_H_
#define MSMOE_TESTS_REF_FFN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/model/config.h"
#include "src/model/grouped_gemm.h"
#include "src/model/router.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {

struct RefFfnResult {
  Tensor y;
  Tensor dx;
  Tensor dcombine;
  std::vector<Tensor> dw1, dw3, dw2;
  // Expert inputs grouped by expert (token order within one expert); expert
  // e's rows are [expert_offsets[e], expert_offsets[e + 1]).
  Tensor ffn_in;
  std::vector<int64_t> expert_offsets;
};

inline RefFfnResult ReferenceFfn(const ModelConfig& config, const std::vector<Tensor>& w1,
                                 const std::vector<Tensor>& w3,
                                 const std::vector<Tensor>& w2, const Tensor& x,
                                 const RoutingResult& routing, const Tensor& dy) {
  const int64_t tokens = x.dim(0);
  const int64_t h = config.hidden;
  const int64_t k = routing.top_k;
  DispatchPlan plan = BuildDispatchPlan(routing, config.num_experts);
  Tensor ffn_in = GatherRows(x, plan.row_map);
  Tensor fc1 = GroupedGemm(ffn_in, plan.expert_offsets, w1);
  Tensor fc3 = GroupedGemm(ffn_in, plan.expert_offsets, w3);
  Tensor fc2_in = SwiGlu(fc1, fc3);
  Tensor fc2_out = GroupedGemm(fc2_in, plan.expert_offsets, w2);

  RefFfnResult result;
  result.y = Tensor({tokens, h});
  for (int64_t t = 0; t < tokens; ++t) {
    for (int64_t slot = 0; slot < k; ++slot) {
      const int64_t row = plan.slot_to_row[static_cast<size_t>(t * k + slot)];
      if (row < 0) {
        continue;
      }
      const float weight = routing.combine_weight.At(t, slot);
      for (int64_t c = 0; c < h; ++c) {
        result.y.At(t, c) += weight * fc2_out.At(row, c);
      }
    }
  }

  Tensor dfc2_out({fc2_out.dim(0), h});
  result.dcombine = Tensor({tokens, k});
  for (int64_t t = 0; t < tokens; ++t) {
    for (int64_t slot = 0; slot < k; ++slot) {
      const int64_t row = plan.slot_to_row[static_cast<size_t>(t * k + slot)];
      if (row < 0) {
        continue;
      }
      const float weight = routing.combine_weight.At(t, slot);
      float dot = 0.0f;
      for (int64_t c = 0; c < h; ++c) {
        dfc2_out.At(row, c) += weight * dy.At(t, c);
        dot += dy.At(t, c) * fc2_out.At(row, c);
      }
      result.dcombine.At(t, slot) = dot;
    }
  }
  GroupedGemmGrads fc2_grads = GroupedGemmBackward(dfc2_out, fc2_in, plan.expert_offsets, w2);
  result.dw2 = std::move(fc2_grads.dweights);
  SwiGluGrads swiglu_grads = SwiGluBackward(fc2_grads.dx, fc1, fc3);
  GroupedGemmGrads fc1_grads =
      GroupedGemmBackward(swiglu_grads.dgate, ffn_in, plan.expert_offsets, w1);
  GroupedGemmGrads fc3_grads =
      GroupedGemmBackward(swiglu_grads.dlinear, ffn_in, plan.expert_offsets, w3);
  result.dw1 = std::move(fc1_grads.dweights);
  result.dw3 = std::move(fc3_grads.dweights);
  Tensor dffn_in = Add(fc1_grads.dx, fc3_grads.dx);
  result.dx = ScatterAddRows(dffn_in, plan.row_map, tokens);
  result.ffn_in = std::move(ffn_in);
  result.expert_offsets = std::move(plan.expert_offsets);
  return result;
}

}  // namespace msmoe

#endif  // MSMOE_TESTS_REF_FFN_H_
