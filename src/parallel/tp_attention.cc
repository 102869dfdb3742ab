#include "src/parallel/tp_attention.h"

#include "src/base/logging.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// Columns [begin, end) of a [rows, cols] matrix.
Tensor SliceCols(const Tensor& x, int64_t begin, int64_t end) {
  const int64_t rows = x.dim(0);
  const int64_t cols = x.dim(1);
  MSMOE_CHECK_LE(end, cols);
  Tensor out({rows, end - begin});
  for (int64_t r = 0; r < rows; ++r) {
    std::copy(x.data() + r * cols + begin, x.data() + r * cols + end,
              out.data() + r * (end - begin));
  }
  return out;
}

// All-gather sequence-sharded activations and reorder chunk-major layout
// ([src][b][t]) into sequence-major ([b][src*s_local + t]).
Tensor AllGatherTokens(const ShardContext& ctx, const Tensor& x_local, int64_t batch,
                       int64_t s_local, int64_t width) {
  const int n = ctx.size();
  std::vector<float> gathered(static_cast<size_t>(n) * x_local.numel());
  Tensor x_full({batch * s_local * n, width});
  if (!ctx.comm->AllGather(ctx.rank, x_local.data(), gathered.data(), x_local.numel()).ok()) {
    return x_full;  // degraded group: zeros, nothing unpacked
  }
  for (int src = 0; src < n; ++src) {
    const float* chunk = gathered.data() + static_cast<int64_t>(src) * x_local.numel();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < s_local; ++t) {
        const float* row = chunk + (b * s_local + t) * width;
        std::copy(row, row + width,
                  x_full.data() + (b * s_local * n + src * s_local + t) * width);
      }
    }
  }
  return x_full;
}

// Inverse of AllGatherTokens' data flow: reorder sequence-major partials into
// chunk-major send layout and reduce-scatter, leaving this rank's token
// chunk summed over ranks.
Tensor ReduceScatterTokens(const ShardContext& ctx, const Tensor& x_full, int64_t batch,
                           int64_t s_local, int64_t width) {
  const int n = ctx.size();
  const int64_t chunk_elems = batch * s_local * width;
  std::vector<float> send(static_cast<size_t>(n) * chunk_elems);
  for (int dst = 0; dst < n; ++dst) {
    float* chunk = send.data() + static_cast<int64_t>(dst) * chunk_elems;
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < s_local; ++t) {
        const float* row = x_full.data() + (b * s_local * n + dst * s_local + t) * width;
        std::copy(row, row + width, chunk + (b * s_local + t) * width);
      }
    }
  }
  Tensor x_local({batch * s_local, width});
  if (!ctx.comm->ReduceScatter(ctx.rank, send.data(), x_local.data(), chunk_elems).ok()) {
    return Tensor({batch * s_local, width});  // degraded group: zeros
  }
  return x_local;
}

std::vector<int64_t> FullPositions(int64_t seq_len) {
  std::vector<int64_t> positions(static_cast<size_t>(seq_len));
  for (int64_t i = 0; i < seq_len; ++i) {
    positions[static_cast<size_t>(i)] = i;
  }
  return positions;
}

}  // namespace

Tensor TpQkvShard(const ModelConfig& config, const Tensor& w_qkv, int rank, int size) {
  const int64_t hq = config.num_heads;
  const int64_t hkv = config.kv_heads();
  const int64_t d = config.head_dim();
  const int64_t hq_loc = hq / size;
  const int64_t hkv_loc = hkv / size;
  Tensor q_cols = SliceCols(w_qkv, rank * hq_loc * d, (rank + 1) * hq_loc * d);
  Tensor k_cols = SliceCols(w_qkv, hq * d + rank * hkv_loc * d,
                            hq * d + (rank + 1) * hkv_loc * d);
  Tensor v_cols = SliceCols(w_qkv, (hq + hkv) * d + rank * hkv_loc * d,
                            (hq + hkv) * d + (rank + 1) * hkv_loc * d);
  Tensor shard({config.hidden, (hq_loc + 2 * hkv_loc) * d});
  const int64_t shard_cols = shard.dim(1);
  for (int64_t r = 0; r < config.hidden; ++r) {
    float* row = shard.data() + r * shard_cols;
    std::copy(q_cols.data() + r * hq_loc * d, q_cols.data() + (r + 1) * hq_loc * d, row);
    std::copy(k_cols.data() + r * hkv_loc * d, k_cols.data() + (r + 1) * hkv_loc * d,
              row + hq_loc * d);
    std::copy(v_cols.data() + r * hkv_loc * d, v_cols.data() + (r + 1) * hkv_loc * d,
              row + (hq_loc + hkv_loc) * d);
  }
  return shard;
}

Tensor TpOutShard(const ModelConfig& config, const Tensor& w_out, int rank, int size) {
  const int64_t rows_per_rank = config.hidden / size;  // Hq/n * d
  return w_out.SliceRows(rank * rows_per_rank, (rank + 1) * rows_per_rank);
}

Tensor TpAttentionForward(const ShardContext& ctx, const ModelConfig& config,
                          const Tensor& w_qkv, const Tensor& w_out, const Tensor& x_local,
                          int64_t batch, int64_t seq_len, TpAttentionCache* cache) {
  const int n = ctx.size();
  const int64_t s_local = seq_len / n;
  const int64_t hq_loc = config.num_heads / n;
  const int64_t hkv_loc = config.kv_heads() / n;
  const int64_t d = config.head_dim();
  MSMOE_CHECK_EQ(x_local.dim(0), batch * s_local);

  // All-gather the full token set (the Eq 1 entry communication).
  cache->x_full = AllGatherTokens(ctx, x_local, batch, s_local, config.hidden);

  const Tensor qkv_shard = TpQkvShard(config, w_qkv, ctx.rank, n);
  Tensor qkv = MatMul(cache->x_full, qkv_shard);

  const int64_t tokens = batch * seq_len;
  cache->q = Tensor({tokens, hq_loc * d});
  cache->k = Tensor({tokens, hkv_loc * d});
  cache->v = Tensor({tokens, hkv_loc * d});
  const int64_t shard_cols = (hq_loc + 2 * hkv_loc) * d;
  for (int64_t t = 0; t < tokens; ++t) {
    const float* row = qkv.data() + t * shard_cols;
    std::copy(row, row + hq_loc * d, cache->q.data() + t * hq_loc * d);
    std::copy(row + hq_loc * d, row + (hq_loc + hkv_loc) * d,
              cache->k.data() + t * hkv_loc * d);
    std::copy(row + (hq_loc + hkv_loc) * d, row + shard_cols,
              cache->v.data() + t * hkv_loc * d);
  }

  const std::vector<int64_t> positions = FullPositions(seq_len);
  cache->attn.assign(static_cast<size_t>(batch), AttentionCoreCache{});
  cache->attn_out = Tensor({tokens, hq_loc * d});
  for (int64_t b = 0; b < batch; ++b) {
    Tensor q_seq = cache->q.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hq_loc, d});
    Tensor k_seq = cache->k.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    Tensor v_seq = cache->v.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    RopeInPlace(q_seq, positions, hq_loc, d);
    RopeInPlace(k_seq, positions, hkv_loc, d);
    std::copy(q_seq.data(), q_seq.data() + q_seq.numel(),
              cache->q.data() + b * seq_len * hq_loc * d);
    std::copy(k_seq.data(), k_seq.data() + k_seq.numel(),
              cache->k.data() + b * seq_len * hkv_loc * d);
    Tensor attn = AttentionCore(q_seq, k_seq, v_seq, config.gqa_ratio,
                                &cache->attn[static_cast<size_t>(b)]);
    std::copy(attn.data(), attn.data() + attn.numel(),
              cache->attn_out.data() + b * seq_len * hq_loc * d);
  }

  // Partial output projection + reduce-scatter (the Eq 1 exit communication).
  const Tensor out_shard = TpOutShard(config, w_out, ctx.rank, n);
  Tensor partial = MatMul(cache->attn_out, out_shard);
  return ReduceScatterTokens(ctx, partial, batch, s_local, config.hidden);
}

TpAttentionGrads TpAttentionBackward(const ShardContext& ctx, const ModelConfig& config,
                                     const Tensor& w_qkv, const Tensor& w_out,
                                     const Tensor& dy_local, int64_t batch, int64_t seq_len,
                                     const TpAttentionCache& cache) {
  const int n = ctx.size();
  const int64_t s_local = seq_len / n;
  const int64_t hq_loc = config.num_heads / n;
  const int64_t hkv_loc = config.kv_heads() / n;
  const int64_t d = config.head_dim();
  const int64_t tokens = batch * seq_len;

  TpAttentionGrads grads;

  // Backward of reduce-scatter is all-gather.
  Tensor dy_full = AllGatherTokens(ctx, dy_local, batch, s_local, config.hidden);

  const Tensor out_shard = TpOutShard(config, w_out, ctx.rank, n);
  MatMulGrads out_grads = MatMulBackward(dy_full, cache.attn_out, out_shard);
  grads.dw_out_shard = std::move(out_grads.db);

  // Attention + RoPE backward on local heads.
  Tensor dq({tokens, hq_loc * d});
  Tensor dk({tokens, hkv_loc * d});
  Tensor dv({tokens, hkv_loc * d});
  const std::vector<int64_t> positions = FullPositions(seq_len);
  for (int64_t b = 0; b < batch; ++b) {
    Tensor dout_seq = out_grads.da.SliceRows(b * seq_len, (b + 1) * seq_len)
                          .Reshaped({seq_len, hq_loc, d});
    Tensor q_seq = cache.q.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hq_loc, d});
    Tensor k_seq = cache.k.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    Tensor v_seq = cache.v.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    AttentionCoreGrads attn_grads = AttentionCoreBackward(
        dout_seq, q_seq, k_seq, v_seq, config.gqa_ratio, cache.attn[static_cast<size_t>(b)]);
    RopeBackwardInPlace(attn_grads.dq, positions, hq_loc, d);
    RopeBackwardInPlace(attn_grads.dk, positions, hkv_loc, d);
    std::copy(attn_grads.dq.data(), attn_grads.dq.data() + attn_grads.dq.numel(),
              dq.data() + b * seq_len * hq_loc * d);
    std::copy(attn_grads.dk.data(), attn_grads.dk.data() + attn_grads.dk.numel(),
              dk.data() + b * seq_len * hkv_loc * d);
    std::copy(attn_grads.dv.data(), attn_grads.dv.data() + attn_grads.dv.numel(),
              dv.data() + b * seq_len * hkv_loc * d);
  }

  const int64_t shard_cols = (hq_loc + 2 * hkv_loc) * d;
  Tensor dqkv({tokens, shard_cols});
  for (int64_t t = 0; t < tokens; ++t) {
    float* row = dqkv.data() + t * shard_cols;
    std::copy(dq.data() + t * hq_loc * d, dq.data() + (t + 1) * hq_loc * d, row);
    std::copy(dk.data() + t * hkv_loc * d, dk.data() + (t + 1) * hkv_loc * d,
              row + hq_loc * d);
    std::copy(dv.data() + t * hkv_loc * d, dv.data() + (t + 1) * hkv_loc * d,
              row + (hq_loc + hkv_loc) * d);
  }

  const Tensor qkv_shard = TpQkvShard(config, w_qkv, ctx.rank, n);
  MatMulGrads qkv_grads = MatMulBackward(dqkv, cache.x_full, qkv_shard);
  grads.dw_qkv_shard = std::move(qkv_grads.db);

  // Backward of all-gather is reduce-scatter over the partial dx.
  grads.dx_local = ReduceScatterTokens(ctx, qkv_grads.da, batch, s_local, config.hidden);
  return grads;
}

}  // namespace msmoe
