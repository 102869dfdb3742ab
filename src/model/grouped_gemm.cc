#include "src/model/grouped_gemm.h"

#include <algorithm>
#include <chrono>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/base/parallel_for.h"
#include "src/tensor/gemm_kernel.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

double GroupedFlops(const Tensor& x, const std::vector<int64_t>& offsets,
                    int64_t out_dim, bool backward) {
  // Forward: 2*rows*in*out per expert. Backward adds dx and dW GEMMs.
  const double fwd = 2.0 * static_cast<double>(x.dim(0)) *
                     static_cast<double>(x.dim(1)) * static_cast<double>(out_dim);
  (void)offsets;
  return backward ? 2.0 * fwd : fwd;
}

// Tile height of the flattened work queue. Small enough that a hot expert
// fans out over every worker, large enough that one task amortizes the
// blocked kernel's panel setup.
constexpr int64_t kRowPanel = 64;

// One entry of the flattened queue. weight_grad tasks (backward only) cover
// the expert's whole row range: dW accumulates over rows, so splitting it
// would change the reduction order and break bitwise determinism.
struct GemmTask {
  int64_t expert = 0;
  int64_t begin = 0;  // absolute row in x / y / dy
  int64_t rows = 0;
  bool weight_grad = false;
};

// Flattens the non-empty experts' (expert × row-panel) tiles — zero-row
// experts are short-circuited here, before any worker sees them. With
// `with_weight_grad`, each expert's dW task is emitted next to its row
// tiles so ParallelFor's contiguous shards mix the two task kinds; without
// `with_row_tiles` the queue holds only the dW tasks. The queue lives in
// the calling thread's workspace: zero steady-state allocs.
GemmTask* BuildTaskQueue(const std::vector<int64_t>& offsets, int64_t num_experts,
                         bool with_row_tiles, bool with_weight_grad, int64_t* task_count) {
  int64_t tasks = 0;
  for (int64_t e = 0; e < num_experts; ++e) {
    const int64_t rows =
        offsets[static_cast<size_t>(e) + 1] - offsets[static_cast<size_t>(e)];
    if (rows == 0) {
      continue;
    }
    tasks += (with_row_tiles ? (rows + kRowPanel - 1) / kRowPanel : 0) +
             (with_weight_grad ? 1 : 0);
  }
  GemmTask* queue = reinterpret_cast<GemmTask*>(ThreadWorkspace().Bytes(
      "grouped_gemm.tasks", std::max<int64_t>(1, tasks) * static_cast<int64_t>(sizeof(GemmTask))));
  int64_t at = 0;
  for (int64_t e = 0; e < num_experts; ++e) {
    const int64_t begin = offsets[static_cast<size_t>(e)];
    const int64_t rows = offsets[static_cast<size_t>(e) + 1] - begin;
    if (rows == 0) {
      continue;
    }
    if (with_weight_grad) {
      queue[at++] = GemmTask{e, begin, rows, /*weight_grad=*/true};
    }
    for (int64_t r = 0; with_row_tiles && r < rows; r += kRowPanel) {
      queue[at++] = GemmTask{e, begin + r, std::min(kRowPanel, rows - r), false};
    }
  }
  *task_count = at;
  return queue;
}

// Backward over one flattened queue: every expert's dW task plus, when `dx`
// is non-null, the row-panel dx tiles (dx rows and dweights[e] are disjoint
// across tasks). Returns the dweights.
std::vector<Tensor> RunBackwardQueue(const Tensor& dy, const Tensor& x,
                                     const std::vector<int64_t>& offsets,
                                     const Tensor* weights, int64_t num_experts, Tensor* dx) {
  const int64_t in_dim = x.dim(1);
  const int64_t out_dim = dy.dim(1);
  MSMOE_CHECK_EQ(dy.dim(0), x.dim(0));
  MSMOE_CHECK_GT(num_experts, 0);
  MSMOE_CHECK_EQ(static_cast<int64_t>(offsets.size()), num_experts + 1);

  const auto start = std::chrono::steady_clock::now();
  std::vector<Tensor> dweights;
  dweights.reserve(static_cast<size_t>(num_experts));
  for (int64_t e = 0; e < num_experts; ++e) {
    // Zeros, NOT Uninit: an expert with zero rows never writes its dW.
    dweights.emplace_back(std::vector<int64_t>{in_dim, out_dim});
  }
  int64_t task_count = 0;
  const GemmTask* queue =
      BuildTaskQueue(offsets, num_experts, dx != nullptr, true, &task_count);
  ParallelFor(task_count, /*grain=*/1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const GemmTask& task = queue[t];
      if (task.weight_grad) {
        // dW = x^T @ dy over the expert's FULL row range (row reduction).
        GemmBlocked(true, false, in_dim, out_dim, task.rows, 1.0f,
                    x.data() + task.begin * in_dim, dy.data() + task.begin * out_dim,
                    0.0f, dweights[static_cast<size_t>(task.expert)].data());
      } else {
        // dx = dy @ W^T, row-split safe.
        GemmBlocked(false, true, task.rows, in_dim, out_dim, 1.0f,
                    dy.data() + task.begin * out_dim, weights[task.expert].data(), 0.0f,
                    dx->data() + task.begin * in_dim);
      }
    }
  });
  const double micros =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
          .count();
  // dW alone is one forward's worth of FLOPs; dx doubles it.
  internal::RecordGroupedGemmCall(
      GroupedFlops(x, offsets, out_dim, /*backward=*/dx != nullptr), micros);
  return dweights;
}

}  // namespace

Tensor GroupedGemm(const Tensor& x, const std::vector<int64_t>& offsets,
                   const Tensor* weights, int64_t num_experts) {
  MSMOE_CHECK_EQ(x.ndim(), 2);
  MSMOE_CHECK_GT(num_experts, 0);
  MSMOE_CHECK_EQ(static_cast<int64_t>(offsets.size()), num_experts + 1);
  MSMOE_CHECK_EQ(offsets.back(), x.dim(0));
  const int64_t in_dim = x.dim(1);
  const int64_t out_dim = weights[0].dim(1);
  for (int64_t e = 0; e < num_experts; ++e) {
    MSMOE_CHECK_EQ(weights[e].dim(0), in_dim);
    MSMOE_CHECK_EQ(weights[e].dim(1), out_dim);
  }

  const auto start = std::chrono::steady_clock::now();
  // Every row of y belongs to exactly one expert's contiguous range and is
  // written by exactly one tile's beta == 0 GEMM (empty experts own no rows).
  Tensor y = Tensor::Uninit({x.dim(0), out_dim});
  // The flattened tile queue splits across the worker pool; tiles are
  // near-uniform row panels, so grain 1 is the balanced choice and the
  // effective granularity scales with total rows, not expert count. Each
  // output row's accumulation is a single GEMM over the full k dimension —
  // independent of the tile-to-worker assignment — so results are
  // bit-identical for any worker count and any panel size.
  int64_t task_count = 0;
  const GemmTask* queue =
      BuildTaskQueue(offsets, num_experts, true, false, &task_count);
  ParallelFor(task_count, /*grain=*/1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const GemmTask& task = queue[t];
      GemmBlocked(false, false, task.rows, out_dim, in_dim, 1.0f,
                  x.data() + task.begin * in_dim, weights[task.expert].data(), 0.0f,
                  y.data() + task.begin * out_dim);
    }
  });
  const double micros =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
          .count();
  internal::RecordGroupedGemmCall(GroupedFlops(x, offsets, out_dim, /*backward=*/false),
                                  micros);
  return y;
}

Tensor GroupedGemm(const Tensor& x, const std::vector<int64_t>& offsets,
                   const std::vector<Tensor>& weights) {
  MSMOE_CHECK(!weights.empty());
  return GroupedGemm(x, offsets, weights.data(), static_cast<int64_t>(weights.size()));
}

GroupedGemmGrads GroupedGemmBackward(const Tensor& dy, const Tensor& x,
                                     const std::vector<int64_t>& offsets,
                                     const Tensor* weights, int64_t num_experts) {
  GroupedGemmGrads grads;
  grads.dx = Tensor::Uninit({x.dim(0), x.dim(1)});  // fully written, as y above
  grads.dweights = RunBackwardQueue(dy, x, offsets, weights, num_experts, &grads.dx);
  return grads;
}

GroupedGemmGrads GroupedGemmBackward(const Tensor& dy, const Tensor& x,
                                     const std::vector<int64_t>& offsets,
                                     const std::vector<Tensor>& weights) {
  MSMOE_CHECK(!weights.empty());
  return GroupedGemmBackward(dy, x, offsets, weights.data(),
                             static_cast<int64_t>(weights.size()));
}

std::vector<Tensor> GroupedGemmWeightGrads(const Tensor& dy, const Tensor& x,
                                           const std::vector<int64_t>& offsets,
                                           int64_t num_experts) {
  return RunBackwardQueue(dy, x, offsets, /*weights=*/nullptr, num_experts, /*dx=*/nullptr);
}

}  // namespace msmoe
