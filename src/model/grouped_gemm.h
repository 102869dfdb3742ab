// Grouped GEMM: one matmul per expert over contiguous row ranges of a
// dispatched token tensor (the GroupedGEMM operator of the paper).
//
// Load balancing: skewed routing concentrates rows on a few hot experts, so
// distributing whole experts across the worker pool serializes on the
// hottest one. Instead the non-empty (expert × row-panel) tiles are
// flattened into a single work queue and that queue is what ParallelFor
// shards — a hot expert contributes many tiles and spreads over the pool.
// Row-panel splits are bitwise safe (each output row's k-accumulation is
// untouched); the one reduction over rows — dW = xᵀ @ dy in the backward —
// stays a whole-expert task inside the same queue.
#ifndef MSMOE_SRC_MODEL_GROUPED_GEMM_H_
#define MSMOE_SRC_MODEL_GROUPED_GEMM_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace msmoe {

// x is [total_rows, in_dim]; rows [offsets[e], offsets[e+1]) belong to expert
// e and are multiplied by weights[e] ([in_dim, out_dim]). Returns
// [total_rows, out_dim]. The span form lets callers pass a window of a
// larger per-expert weight array (e.g. rank-local experts) without copying.
Tensor GroupedGemm(const Tensor& x, const std::vector<int64_t>& offsets,
                   const Tensor* weights, int64_t num_experts);
Tensor GroupedGemm(const Tensor& x, const std::vector<int64_t>& offsets,
                   const std::vector<Tensor>& weights);

struct GroupedGemmGrads {
  Tensor dx;
  std::vector<Tensor> dweights;
};

GroupedGemmGrads GroupedGemmBackward(const Tensor& dy, const Tensor& x,
                                     const std::vector<int64_t>& offsets,
                                     const Tensor* weights, int64_t num_experts);
GroupedGemmGrads GroupedGemmBackward(const Tensor& dy, const Tensor& x,
                                     const std::vector<int64_t>& offsets,
                                     const std::vector<Tensor>& weights);

// The dW half of GroupedGemmBackward on its own: dweights[e] = xᵀ @ dy over
// expert e's rows, each a whole-expert task (the row reduction is never
// split), through the same task queue and KernelStats accounting — for
// callers that compute dx elsewhere (the EP pipeline's per-chunk dgrad).
// Bitwise equal to GroupedGemmBackward(...).dweights.
std::vector<Tensor> GroupedGemmWeightGrads(const Tensor& dy, const Tensor& x,
                                           const std::vector<int64_t>& offsets,
                                           int64_t num_experts);

}  // namespace msmoe

#endif  // MSMOE_SRC_MODEL_GROUPED_GEMM_H_
