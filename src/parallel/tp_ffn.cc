#include "src/parallel/tp_ffn.h"

#include "src/base/logging.h"
#include "src/model/grouped_gemm.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

std::vector<Tensor> ColShards(const std::vector<Tensor>& all, int rank, int size) {
  std::vector<Tensor> shards;
  shards.reserve(all.size());
  for (const Tensor& w : all) {
    shards.push_back(TpFfnColShard(w, rank, size));
  }
  return shards;
}

std::vector<Tensor> RowShards(const std::vector<Tensor>& all, int rank, int size) {
  std::vector<Tensor> shards;
  shards.reserve(all.size());
  for (const Tensor& w : all) {
    shards.push_back(TpFfnRowShard(w, rank, size));
  }
  return shards;
}

}  // namespace

Tensor TpFfnColShard(const Tensor& w, int rank, int size) {
  const int64_t rows = w.dim(0);
  const int64_t cols = w.dim(1);
  MSMOE_CHECK_EQ(cols % size, 0);
  const int64_t shard_cols = cols / size;
  Tensor out({rows, shard_cols});
  for (int64_t r = 0; r < rows; ++r) {
    std::copy(w.data() + r * cols + rank * shard_cols,
              w.data() + r * cols + (rank + 1) * shard_cols, out.data() + r * shard_cols);
  }
  return out;
}

Tensor TpFfnRowShard(const Tensor& w, int rank, int size) {
  const int64_t rows = w.dim(0);
  MSMOE_CHECK_EQ(rows % size, 0);
  const int64_t shard_rows = rows / size;
  return w.SliceRows(rank * shard_rows, (rank + 1) * shard_rows);
}

Tensor TpFfnForward(const ShardContext& ctx, const ModelConfig& config,
                    const std::vector<Tensor>& w1, const std::vector<Tensor>& w3,
                    const std::vector<Tensor>& w2, const Tensor& x_local,
                    const RoutingResult& routing_local, TpFfnCache* cache) {
  const int n = ctx.size();
  const int64_t experts = config.num_experts;
  const int64_t h = config.hidden;
  const int64_t t_local = x_local.dim(0);
  const int64_t t_total = t_local * n;
  const int64_t k = routing_local.top_k;

  // Gather all tokens and routing metadata (every rank runs every expert).
  cache->x_all = Tensor({t_total, h});
  Status gathered =
      ctx.comm->AllGather(ctx.rank, x_local.data(), cache->x_all.data(), t_local * h);
  std::vector<int64_t> idx_local(static_cast<size_t>(t_local * k));
  std::vector<float> weight_local(static_cast<size_t>(t_local * k));
  for (int64_t i = 0; i < t_local * k; ++i) {
    idx_local[static_cast<size_t>(i)] = routing_local.dropped[static_cast<size_t>(i)] != 0
                                            ? -1
                                            : routing_local.expert_index[static_cast<size_t>(i)];
    weight_local[static_cast<size_t>(i)] =
        routing_local.combine_weight[static_cast<size_t>(i)];
  }
  std::vector<int64_t> idx_all(static_cast<size_t>(t_total * k));
  std::vector<float> weight_all(static_cast<size_t>(t_total * k));
  if (gathered.ok()) {
    gathered = ctx.comm->AllGather(ctx.rank, idx_local.data(), idx_all.data(), t_local * k);
  }
  if (gathered.ok()) {
    gathered =
        ctx.comm->AllGather(ctx.rank, weight_local.data(), weight_all.data(), t_local * k);
  }
  if (!gathered.ok()) {
    return Tensor({t_local, h});  // degraded group: zeros, no expert compute
  }

  // Global dispatch over all experts.
  cache->copy_token.clear();
  cache->copy_slot.clear();
  cache->copy_weight.clear();
  cache->offsets.assign(static_cast<size_t>(experts + 1), 0);
  for (int64_t e = 0; e < experts; ++e) {
    for (int64_t t = 0; t < t_total; ++t) {
      for (int64_t slot = 0; slot < k; ++slot) {
        if (idx_all[static_cast<size_t>(t * k + slot)] == e) {
          cache->copy_token.push_back(t);
          cache->copy_slot.push_back(slot);
          cache->copy_weight.push_back(weight_all[static_cast<size_t>(t * k + slot)]);
        }
      }
    }
    cache->offsets[static_cast<size_t>(e + 1)] = static_cast<int64_t>(cache->copy_token.size());
  }
  cache->ffn_in = GatherRows(cache->x_all, cache->copy_token);

  // Sharded expert GEMMs (width f/n — the GEMM-efficiency penalty).
  const std::vector<Tensor> w1_shard = ColShards(w1, ctx.rank, n);
  const std::vector<Tensor> w3_shard = ColShards(w3, ctx.rank, n);
  const std::vector<Tensor> w2_shard = RowShards(w2, ctx.rank, n);
  cache->fc1_out = GroupedGemm(cache->ffn_in, cache->offsets, w1_shard);
  cache->fc3_out = GroupedGemm(cache->ffn_in, cache->offsets, w3_shard);
  cache->fc2_in = SwiGlu(cache->fc1_out, cache->fc3_out);
  cache->fc2_out = GroupedGemm(cache->fc2_in, cache->offsets, w2_shard);

  // Weighted assembly of partial outputs + reduce-scatter.
  Tensor full_out({t_total, h});
  const int64_t rows = static_cast<int64_t>(cache->copy_token.size());
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t t = cache->copy_token[static_cast<size_t>(i)];
    const float weight = cache->copy_weight[static_cast<size_t>(i)];
    const float* row = cache->fc2_out.data() + i * h;
    float* out = full_out.data() + t * h;
    for (int64_t c = 0; c < h; ++c) {
      out[c] += weight * row[c];
    }
  }
  Tensor y_local({t_local, h});
  if (!ctx.comm->ReduceScatter(ctx.rank, full_out.data(), y_local.data(), t_local * h).ok()) {
    return Tensor({t_local, h});  // degraded group: zeros
  }
  return y_local;
}

TpFfnGrads TpFfnBackward(const ShardContext& ctx, const ModelConfig& config,
                         const std::vector<Tensor>& w1, const std::vector<Tensor>& w3,
                         const std::vector<Tensor>& w2, const Tensor& dy_local,
                         const RoutingResult& routing_local, const TpFfnCache& cache) {
  const int n = ctx.size();
  const int64_t h = config.hidden;
  const int64_t t_local = dy_local.dim(0);
  const int64_t t_total = t_local * n;
  const int64_t k = routing_local.top_k;
  const int64_t rows = static_cast<int64_t>(cache.copy_token.size());

  TpFfnGrads grads;

  // Backward of reduce-scatter: all-gather.
  // Degraded group: zero input grads and no weight grads; the caller's
  // GroupStatus() check discards them.
  const auto degraded = [&] {
    TpFfnGrads zero;
    zero.dx_local = Tensor({t_local, h});
    zero.dcombine_local = Tensor({t_local, k});
    return zero;
  };
  Tensor dy_all({t_total, h});
  if (!ctx.comm->AllGather(ctx.rank, dy_local.data(), dy_all.data(), t_local * h).ok()) {
    return degraded();
  }

  Tensor dfc2_out({rows, h});
  Tensor dcombine_all({t_total, k});
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t t = cache.copy_token[static_cast<size_t>(i)];
    const int64_t slot = cache.copy_slot[static_cast<size_t>(i)];
    const float weight = cache.copy_weight[static_cast<size_t>(i)];
    const float* dy_row = dy_all.data() + t * h;
    const float* fc2_row = cache.fc2_out.data() + i * h;
    float* dfc2_row = dfc2_out.data() + i * h;
    float dot = 0.0f;
    for (int64_t c = 0; c < h; ++c) {
      dfc2_row[c] = weight * dy_row[c];
      dot += dy_row[c] * fc2_row[c];
    }
    // fc2_out here is PARTIAL (this rank's f-shard contribution); summing
    // the per-rank dots via the reduce-scatter below yields the true
    // combine-weight gradient.
    dcombine_all.At(t, slot) += dot;
  }

  const std::vector<Tensor> w1_shard = ColShards(w1, ctx.rank, n);
  const std::vector<Tensor> w3_shard = ColShards(w3, ctx.rank, n);
  const std::vector<Tensor> w2_shard = RowShards(w2, ctx.rank, n);
  GroupedGemmGrads fc2_grads =
      GroupedGemmBackward(dfc2_out, cache.fc2_in, cache.offsets, w2_shard);
  grads.dw2_shard = std::move(fc2_grads.dweights);
  SwiGluGrads swiglu_grads = SwiGluBackward(fc2_grads.dx, cache.fc1_out, cache.fc3_out);
  GroupedGemmGrads fc1_grads =
      GroupedGemmBackward(swiglu_grads.dgate, cache.ffn_in, cache.offsets, w1_shard);
  GroupedGemmGrads fc3_grads =
      GroupedGemmBackward(swiglu_grads.dlinear, cache.ffn_in, cache.offsets, w3_shard);
  grads.dw1_shard = std::move(fc1_grads.dweights);
  grads.dw3_shard = std::move(fc3_grads.dweights);
  Tensor dffn_in = Add(fc1_grads.dx, fc3_grads.dx);  // partial over f-shards

  Tensor dx_all = ScatterAddRows(dffn_in, cache.copy_token, t_total);
  grads.dx_local = Tensor({t_local, h});
  grads.dcombine_local = Tensor({t_local, k});
  // The combine-grad reduce-scatter is skipped once the dx one failed.
  if (ctx.comm->ReduceScatter(ctx.rank, dx_all.data(), grads.dx_local.data(), t_local * h)
          .ok() &&
      ctx.comm->ReduceScatter(ctx.rank, dcombine_all.data(), grads.dcombine_local.data(),
                              t_local * k)
          .ok()) {
    return grads;
  }
  return degraded();
}

}  // namespace msmoe
