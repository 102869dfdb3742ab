#include "src/parallel/sp_attention.h"

#include <vector>

#include "src/base/logging.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// All-to-all re-partition seq->head: input [batch*s_local, H*d] (local token
// chunk, all H heads) -> output [batch*s, H_loc*d] (full sequence, local
// head block). The inverse (head->seq) is the same exchange transposed.
Tensor SeqToHeadA2A(const ShardContext& ctx, const Tensor& x_local, int64_t batch,
                    int64_t s_local, int64_t heads, int64_t d) {
  const int n = ctx.size();
  const int64_t h_loc = heads / n;
  const int64_t block = batch * s_local * h_loc * d;  // elements per rank pair
  std::vector<float> send(static_cast<size_t>(block) * n);
  for (int dst = 0; dst < n; ++dst) {
    float* out = send.data() + static_cast<int64_t>(dst) * block;
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < s_local; ++t) {
        const float* row = x_local.data() + (b * s_local + t) * heads * d;
        for (int64_t hh = 0; hh < h_loc; ++hh) {
          const float* src = row + (dst * h_loc + hh) * d;
          std::copy(src, src + d, out);
          out += d;
        }
      }
    }
  }
  std::vector<float> recv(send.size());
  Tensor x_heads({batch * s_local * n, h_loc * d});
  if (!ctx.comm->AllToAll(ctx.rank, send.data(), recv.data(), block).ok()) {
    return x_heads;  // degraded group: zeros, nothing unpacked
  }
  for (int src = 0; src < n; ++src) {
    const float* in = recv.data() + static_cast<int64_t>(src) * block;
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < s_local; ++t) {
        float* row = x_heads.data() + (b * s_local * n + src * s_local + t) * h_loc * d;
        std::copy(in, in + h_loc * d, row);
        in += h_loc * d;
      }
    }
  }
  return x_heads;
}

// Inverse of SeqToHeadA2A.
Tensor HeadToSeqA2A(const ShardContext& ctx, const Tensor& x_heads, int64_t batch,
                    int64_t s_local, int64_t heads, int64_t d) {
  const int n = ctx.size();
  const int64_t h_loc = heads / n;
  const int64_t block = batch * s_local * h_loc * d;
  std::vector<float> send(static_cast<size_t>(block) * n);
  for (int dst = 0; dst < n; ++dst) {
    float* out = send.data() + static_cast<int64_t>(dst) * block;
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < s_local; ++t) {
        const float* row =
            x_heads.data() + (b * s_local * n + dst * s_local + t) * h_loc * d;
        std::copy(row, row + h_loc * d, out);
        out += h_loc * d;
      }
    }
  }
  std::vector<float> recv(send.size());
  Tensor x_local({batch * s_local, heads * d});
  if (!ctx.comm->AllToAll(ctx.rank, send.data(), recv.data(), block).ok()) {
    return x_local;  // degraded group: zeros, nothing unpacked
  }
  for (int src = 0; src < n; ++src) {
    const float* in = recv.data() + static_cast<int64_t>(src) * block;
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < s_local; ++t) {
        float* row = x_local.data() + (b * s_local + t) * heads * d;
        for (int64_t hh = 0; hh < h_loc; ++hh) {
          std::copy(in, in + d, row + (src * h_loc + hh) * d);
          in += d;
        }
      }
    }
  }
  return x_local;
}

std::vector<int64_t> GlobalPositions(int64_t s_local, int rank) {
  std::vector<int64_t> positions(static_cast<size_t>(s_local));
  for (int64_t i = 0; i < s_local; ++i) {
    positions[static_cast<size_t>(i)] = static_cast<int64_t>(rank) * s_local + i;
  }
  return positions;
}

}  // namespace

Tensor SpAttentionForward(const ShardContext& ctx, const ModelConfig& config,
                          const Tensor& w_qkv, const Tensor& w_out, const Tensor& x_local,
                          int64_t batch, int64_t seq_len, SpAttentionCache* cache) {
  const int n = ctx.size();
  const int64_t s_local = seq_len / n;
  const int64_t hq = config.num_heads;
  const int64_t hkv = config.kv_heads();
  const int64_t d = config.head_dim();
  MSMOE_CHECK_EQ(seq_len % n, 0);
  MSMOE_CHECK_EQ(hq % n, 0);
  MSMOE_CHECK_EQ(hkv % n, 0);
  MSMOE_CHECK_EQ(x_local.dim(0), batch * s_local);

  cache->ln_in_local = x_local;
  Tensor qkv = MatMul(x_local, w_qkv);

  // Split into q/k/v and apply RoPE with this rank's global positions.
  Tensor q({batch * s_local, hq * d});
  Tensor k({batch * s_local, hkv * d});
  Tensor v({batch * s_local, hkv * d});
  for (int64_t t = 0; t < batch * s_local; ++t) {
    const float* row = qkv.data() + t * config.qkv_out_dim();
    std::copy(row, row + hq * d, q.data() + t * hq * d);
    std::copy(row + hq * d, row + (hq + hkv) * d, k.data() + t * hkv * d);
    std::copy(row + (hq + hkv) * d, row + (hq + 2 * hkv) * d, v.data() + t * hkv * d);
  }
  const std::vector<int64_t> positions = GlobalPositions(s_local, ctx.rank);
  for (int64_t b = 0; b < batch; ++b) {
    Tensor q_seq = q.SliceRows(b * s_local, (b + 1) * s_local).Reshaped({s_local, hq, d});
    Tensor k_seq = k.SliceRows(b * s_local, (b + 1) * s_local).Reshaped({s_local, hkv, d});
    RopeInPlace(q_seq, positions, hq, d);
    RopeInPlace(k_seq, positions, hkv, d);
    std::copy(q_seq.data(), q_seq.data() + q_seq.numel(), q.data() + b * s_local * hq * d);
    std::copy(k_seq.data(), k_seq.data() + k_seq.numel(), k.data() + b * s_local * hkv * d);
  }

  // A2A(q_rope, k_rope, v): sequence-sharded -> head-sharded.
  cache->q_heads = SeqToHeadA2A(ctx, q, batch, s_local, hq, d);
  cache->k_heads = SeqToHeadA2A(ctx, k, batch, s_local, hkv, d);
  cache->v_heads = SeqToHeadA2A(ctx, v, batch, s_local, hkv, d);

  // Full-sequence attention over the local head block.
  const int64_t hq_loc = hq / n;
  const int64_t hkv_loc = hkv / n;
  cache->attn.assign(static_cast<size_t>(batch), AttentionCoreCache{});
  cache->attn_heads = Tensor({batch * seq_len, hq_loc * d});
  for (int64_t b = 0; b < batch; ++b) {
    Tensor q_seq = cache->q_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hq_loc, d});
    Tensor k_seq = cache->k_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    Tensor v_seq = cache->v_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    Tensor attn = AttentionCore(q_seq, k_seq, v_seq, config.gqa_ratio,
                                &cache->attn[static_cast<size_t>(b)]);
    std::copy(attn.data(), attn.data() + attn.numel(),
              cache->attn_heads.data() + b * seq_len * hq_loc * d);
  }

  // A2A(attn): head-sharded -> sequence-sharded, then output projection.
  cache->attn_local = HeadToSeqA2A(ctx, cache->attn_heads, batch, s_local, hq, d);
  return MatMul(cache->attn_local, w_out);
}

SpAttentionGrads SpAttentionBackward(const ShardContext& ctx, const ModelConfig& config,
                                     const Tensor& w_qkv, const Tensor& w_out,
                                     const Tensor& dy_local, int64_t batch, int64_t seq_len,
                                     const SpAttentionCache& cache) {
  const int n = ctx.size();
  const int64_t s_local = seq_len / n;
  const int64_t hq = config.num_heads;
  const int64_t hkv = config.kv_heads();
  const int64_t d = config.head_dim();
  const int64_t hq_loc = hq / n;
  const int64_t hkv_loc = hkv / n;

  SpAttentionGrads grads;

  // Output projection backward.
  MatMulGrads out_grads = MatMulBackward(dy_local, cache.attn_local, w_out);
  grads.dw_out = std::move(out_grads.db);

  // A2A backward: sequence-sharded grad -> head-sharded grad.
  Tensor dattn_heads = SeqToHeadA2A(ctx, out_grads.da, batch, s_local, hq, d);

  // Attention core backward per sequence, then RoPE inverse.
  Tensor dq_heads({batch * seq_len, hq_loc * d});
  Tensor dk_heads({batch * seq_len, hkv_loc * d});
  Tensor dv_heads({batch * seq_len, hkv_loc * d});
  for (int64_t b = 0; b < batch; ++b) {
    Tensor dout_seq = dattn_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                          .Reshaped({seq_len, hq_loc, d});
    Tensor q_seq = cache.q_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hq_loc, d});
    Tensor k_seq = cache.k_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    Tensor v_seq = cache.v_heads.SliceRows(b * seq_len, (b + 1) * seq_len)
                       .Reshaped({seq_len, hkv_loc, d});
    AttentionCoreGrads attn_grads = AttentionCoreBackward(
        dout_seq, q_seq, k_seq, v_seq, config.gqa_ratio, cache.attn[static_cast<size_t>(b)]);
    std::copy(attn_grads.dq.data(), attn_grads.dq.data() + attn_grads.dq.numel(),
              dq_heads.data() + b * seq_len * hq_loc * d);
    std::copy(attn_grads.dk.data(), attn_grads.dk.data() + attn_grads.dk.numel(),
              dk_heads.data() + b * seq_len * hkv_loc * d);
    std::copy(attn_grads.dv.data(), attn_grads.dv.data() + attn_grads.dv.numel(),
              dv_heads.data() + b * seq_len * hkv_loc * d);
  }

  // A2A backward to sequence-sharded dq/dk/dv.
  Tensor dq = HeadToSeqA2A(ctx, dq_heads, batch, s_local, hq, d);
  Tensor dk = HeadToSeqA2A(ctx, dk_heads, batch, s_local, hkv, d);
  Tensor dv = HeadToSeqA2A(ctx, dv_heads, batch, s_local, hkv, d);

  // RoPE backward (inverse rotation) with global positions.
  const std::vector<int64_t> positions = GlobalPositions(s_local, ctx.rank);
  for (int64_t b = 0; b < batch; ++b) {
    Tensor dq_seq = dq.SliceRows(b * s_local, (b + 1) * s_local).Reshaped({s_local, hq, d});
    Tensor dk_seq = dk.SliceRows(b * s_local, (b + 1) * s_local).Reshaped({s_local, hkv, d});
    RopeBackwardInPlace(dq_seq, positions, hq, d);
    RopeBackwardInPlace(dk_seq, positions, hkv, d);
    std::copy(dq_seq.data(), dq_seq.data() + dq_seq.numel(),
              dq.data() + b * s_local * hq * d);
    std::copy(dk_seq.data(), dk_seq.data() + dk_seq.numel(),
              dk.data() + b * s_local * hkv * d);
  }

  // Reassemble dqkv and QKV projection backward.
  Tensor dqkv({batch * s_local, config.qkv_out_dim()});
  for (int64_t t = 0; t < batch * s_local; ++t) {
    float* row = dqkv.data() + t * config.qkv_out_dim();
    std::copy(dq.data() + t * hq * d, dq.data() + (t + 1) * hq * d, row);
    std::copy(dk.data() + t * hkv * d, dk.data() + (t + 1) * hkv * d, row + hq * d);
    std::copy(dv.data() + t * hkv * d, dv.data() + (t + 1) * hkv * d, row + (hq + hkv) * d);
  }
  MatMulGrads qkv_grads = MatMulBackward(dqkv, cache.ln_in_local, w_qkv);
  grads.dw_qkv = std::move(qkv_grads.db);
  grads.dx_local = std::move(qkv_grads.da);
  return grads;
}

}  // namespace msmoe
