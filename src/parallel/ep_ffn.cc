#include "src/parallel/ep_ffn.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/base/parallel_for.h"
#include "src/comm/async_comm.h"
#include "src/comm/communicator.h"
#include "src/core/exec_graph.h"
#include "src/model/grouped_gemm.h"
#include "src/tensor/gemm_kernel.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// Same expression as SwiGlu in tensor_ops.cc — the pipeline applies it per
// expert row range and must stay bitwise identical to the whole-tensor call
// the rematerialization and the single-rank reference make.
inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Workspace-backed int64 scratch (tags are literals; buffers are grow-only
// and thread-persistent, so the steady state allocates nothing).
int64_t* WsInts(const char* tag, int64_t count) {
  return reinterpret_cast<int64_t*>(ThreadWorkspace().Bytes(
      tag, std::max<int64_t>(count, 1) * static_cast<int64_t>(sizeof(int64_t))));
}

// Per-rank-thread receive staging for the chunked wire. StartAllToAllV
// resizes the inner vectors on the comm thread once the counts exchange
// fixes the totals; rank threads are persistent, so capacities carry over
// across steps and the steady state performs no fresh heap allocation.
// The outer vectors are only resized before any handle holds an inner
// pointer (a grow would otherwise move the inner vectors).
struct PipelineScratch {
  std::vector<std::vector<float>> recv_f32;
  std::vector<std::vector<uint8_t>> recv_u8;
  std::vector<std::vector<float>> ret_recv;
};

PipelineScratch& TlsScratch() {
  thread_local PipelineScratch scratch;
  return scratch;
}

// One DispatchEvent per forward dispatch round: the per-expert load profile
// rendered on the Chrome trace's "dispatch" lane.
void RecordDispatchTelemetry(const ShardContext& ctx, const char* name, int chunks,
                             const std::vector<int64_t>& local_offsets, double start_us) {
  CommTelemetry& telemetry = ctx.comm->telemetry();
  if (!telemetry.enabled() || local_offsets.empty()) {
    return;
  }
  const int64_t e_local = static_cast<int64_t>(local_offsets.size()) - 1;
  DispatchEvent event;
  event.name = name;
  event.rank = ctx.rank;
  event.experts = e_local;
  event.chunks = chunks;
  event.rows_total = local_offsets.back();
  for (int64_t e = 0; e < e_local; ++e) {
    event.rows_max = std::max(
        event.rows_max, local_offsets[static_cast<size_t>(e + 1)] -
                            local_offsets[static_cast<size_t>(e)]);
  }
  event.imbalance =
      event.rows_total > 0
          ? static_cast<double>(event.rows_max) * static_cast<double>(e_local) /
                static_cast<double>(event.rows_total)
          : 1.0;
  event.start_us = start_us;
  event.duration_us = telemetry.NowUs() - start_us;
  telemetry.RecordDispatch(std::move(event));
}

// This rank's expert weights: spans into the caller's full per-expert
// vectors — no copies.
struct LocalExperts {
  const Tensor* w1;
  const Tensor* w3;
  const Tensor* w2;
};

LocalExperts LocalWeights(const ShardContext& ctx, int64_t e_local,
                          const std::vector<Tensor>& w1, const std::vector<Tensor>& w3,
                          const std::vector<Tensor>& w2) {
  const int64_t first = ctx.rank * e_local;
  return {w1.data() + first, w3.data() + first, w2.data() + first};
}

// Packs this rank's dispatch rows chunk by chunk and starts one A2AV
// handle per chunk as soon as its rows are staged — packing (and, in FP8
// mode, quantizing) chunk i+1 overlaps the wire of chunk i. FP8 rows carry
// h codes plus their per-token scale in one payload (quantize-on-pack: no
// separate quantization pre-pass or scale exchange).
std::vector<std::unique_ptr<CommHandle>> StartDispatchChunks(
    const ShardContext& ctx, const EpFfnCache& cache, const Tensor& x_local,
    int64_t h, PipelineScratch* scratch) {
  const int n = ctx.size();
  const int C = cache.pipeline_chunks;
  const int64_t total_send = static_cast<int64_t>(cache.send_token.size());
  const bool fp8 = cache.fp8_wire;
  const QuantConfig quant = cache.wire_quant;
  const int64_t row_bytes = h + static_cast<int64_t>(sizeof(float));
  Workspace& ws = ThreadWorkspace();
  scratch->recv_f32.resize(static_cast<size_t>(C));
  scratch->recv_u8.resize(static_cast<size_t>(C));
  float* stage_f = nullptr;
  uint8_t* stage_q = nullptr;
  if (fp8) {
    stage_q = ws.Bytes("ep.a2a.dispatch8", std::max<int64_t>(total_send * row_bytes, 1));
  } else {
    stage_f = ws.Floats("ep.a2a.dispatch", std::max<int64_t>(total_send * h, 1));
  }
  std::vector<std::unique_ptr<CommHandle>> handles(static_cast<size_t>(C));
  std::vector<int64_t> counts(static_cast<size_t>(n));
  for (int c = 0; c < C; ++c) {
    const int64_t base = cache.send_chunk_base[static_cast<size_t>(c)];
    const int64_t rows_c = cache.send_chunk_base[static_cast<size_t>(c) + 1] - base;
    if (fp8) {
      ParallelFor(rows_c, 16, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t p = base + r;
          const float* row =
              x_local.data() + cache.send_token[static_cast<size_t>(p)] * h;
          uint8_t* out = stage_q + p * row_bytes;
          float scale = 0.0f;
          QuantizeInto(row, 1, h, quant, out, &scale);
          std::memcpy(out + h, &scale, sizeof(float));
        }
      });
      for (int d = 0; d < n; ++d) {
        counts[static_cast<size_t>(d)] =
            cache.send_chunk_counts[static_cast<size_t>(c * n + d)] * row_bytes;
      }
      handles[static_cast<size_t>(c)] = ctx.comm->StartAllToAllV<uint8_t>(
          ctx.rank, stage_q + base * row_bytes, counts,
          &scratch->recv_u8[static_cast<size_t>(c)], /*num_chunks=*/1);
    } else {
      ParallelFor(rows_c, 32, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t p = base + r;
          std::memcpy(stage_f + p * h,
                      x_local.data() + cache.send_token[static_cast<size_t>(p)] * h,
                      static_cast<size_t>(h) * sizeof(float));
        }
      });
      for (int d = 0; d < n; ++d) {
        counts[static_cast<size_t>(d)] =
            cache.send_chunk_counts[static_cast<size_t>(c * n + d)] * h;
      }
      handles[static_cast<size_t>(c)] = ctx.comm->StartAllToAllV<float>(
          ctx.rank, stage_f + base * h, counts,
          &scratch->recv_f32[static_cast<size_t>(c)], /*num_chunks=*/1);
    }
  }
  return handles;
}

// Delivers one landed dispatch chunk's rows into `dst` at their grouped
// positions (dequantizing on the fly in FP8 mode).
Status ScatterChunkRows(const EpFfnCache& cache, PipelineScratch* scratch, int c,
                        int64_t h, bool fp8, const QuantConfig& quant, Tensor* dst) {
  const int64_t row_bytes = h + static_cast<int64_t>(sizeof(float));
  const int64_t base = cache.recv_chunk_base[static_cast<size_t>(c)];
  const int64_t rows_c = cache.recv_chunk_base[static_cast<size_t>(c) + 1] - base;
  if (fp8) {
    const uint8_t* buf = scratch->recv_u8[static_cast<size_t>(c)].data();
    ParallelFor(rows_c, 16, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const uint8_t* src = buf + r * row_bytes;
        float scale = 0.0f;
        std::memcpy(&scale, src + h, sizeof(float));
        DequantizeInto(src, &scale, 1, h, quant,
                       dst->data() +
                           cache.chunk_to_sorted[static_cast<size_t>(base + r)] * h);
      }
    });
  } else {
    const float* buf = scratch->recv_f32[static_cast<size_t>(c)].data();
    ParallelFor(rows_c, 32, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        std::memcpy(dst->data() +
                        cache.chunk_to_sorted[static_cast<size_t>(base + r)] * h,
                    buf + r * h, static_cast<size_t>(h) * sizeof(float));
      }
    });
  }
  return Status::Ok();
}

// Per-chunk op name: "name[c]".
std::string ChunkOpName(const char* name, int c) {
  std::string out(name);
  out += '[';
  out += std::to_string(c);
  out += ']';
  return out;
}

// Last op ids of a recorded chain: the stream-1 wait and the stream-0 op
// that the next recorded ops chain after.
struct ChainTail {
  int wait = -1;
  int s0 = -1;
};

// Records the receive side of a chunked dispatch on `graph`: per chunk a
// chained stream-1 wait plus a chained stream-0 scatter delivering that
// chunk's rows into `dst` at their grouped positions (dequantizing on the
// fly in FP8 mode), followed by whatever stream-0 ops `consume(c, scatter)`
// records for the chunk; it returns the last of them, which the next
// scatter chains after. Chaining every stream-0 op keeps the declared
// order, so Starts issued by consumers run on the calling rank thread in
// the same order on every rank and the per-rank Start FIFO contract of
// async_comm.h holds exactly as in eager code.
template <typename ConsumeFn>
ChainTail AddScatterChain(ExecGraph* graph, const EpFfnCache& cache,
                          const std::vector<std::unique_ptr<CommHandle>>& handles,
                          PipelineScratch* scratch, int64_t h, bool fp8, Tensor* dst,
                          const char* wait_name, const char* scatter_name,
                          const ConsumeFn& consume) {
  const QuantConfig quant = cache.wire_quant;
  const EpFfnCache* cache_p = &cache;
  ChainTail tail;
  for (int c = 0; c < cache.pipeline_chunks; ++c) {
    std::vector<int> wait_deps;
    if (tail.wait >= 0) {
      wait_deps.push_back(tail.wait);
    }
    CommHandle* handle = handles[static_cast<size_t>(c)].get();
    tail.wait = graph->AddComm(ChunkOpName(wait_name, c), /*stream=*/1,
                               [handle] { return handle->WaitAll(); }, wait_deps);
    std::vector<int> deps{tail.wait};
    if (tail.s0 >= 0) {
      deps.push_back(tail.s0);
    }
    const int scatter = graph->AddCompute(
        ChunkOpName(scatter_name, c),
        [cache_p, scratch, dst, c, h, fp8, quant] {
          return ScatterChunkRows(*cache_p, scratch, c, h, fp8, quant, dst);
        },
        deps, "scatter");
    tail.s0 = consume(c, scatter);
  }
  return tail;
}

// Per-chunk gather order: chunk c's grouped rows, ascending, at
// gather[recv_chunk_base[c]...]. Sorting each chunk's chunk_to_sorted
// slice groups its rows by (expert, source, token) — the grouped order
// restricted to the chunk — which RunChunkExperts relies on.
int64_t* BuildChunkGather(const EpFfnCache& cache) {
  const int C = cache.pipeline_chunks;
  int64_t* gather = WsInts("ep.chunk_gather", cache.recv_chunk_base[static_cast<size_t>(C)]);
  for (int c = 0; c < C; ++c) {
    const int64_t chunk_begin = cache.recv_chunk_base[static_cast<size_t>(c)];
    const int64_t chunk_end = cache.recv_chunk_base[static_cast<size_t>(c) + 1];
    std::copy(cache.chunk_to_sorted.begin() + chunk_begin,
              cache.chunk_to_sorted.begin() + chunk_end, gather + chunk_begin);
    std::sort(gather + chunk_begin, gather + chunk_end);
  }
  return gather;
}

// Row copies between a grouped tensor ([R, width], rows in grouped order)
// and a chunk's dense staging: staged row r is grouped row gidx[r].
struct RowCopy {
  const float* from;
  float* to;
  int64_t width;
};

// Gathers (staged row r <- grouped row gidx[r]) or, with `scatter`, writes
// back (grouped row gidx[r] <- staged row r) every copy in `copies`.
void CopyChunkRows(const int64_t* gidx, int64_t rows, bool scatter,
                   std::initializer_list<RowCopy> copies) {
  ParallelFor(rows, 32, [&](int64_t r0, int64_t r1) {
    for (const RowCopy& copy : copies) {
      const size_t bytes = static_cast<size_t>(copy.width) * sizeof(float);
      for (int64_t r = r0; r < r1; ++r) {
        const int64_t from = scatter ? r : gidx[r];
        const int64_t to = scatter ? gidx[r] : r;
        std::memcpy(copy.to + to * copy.width, copy.from + from * copy.width, bytes);
      }
    }
  });
}

// The per-chunk expert body both pipeline directions share. `gidx` lists
// the chunk's grouped rows ascending, so each local expert's rows form one
// contiguous staged span: after gathering `inputs`, `expert(e, lo, m)` runs
// once per local expert with rows in the chunk (staged rows [lo, lo + m)),
// i.e. ONE dense GEMM per weight instead of hundreds of 1-row GEMMs (within
// a (chunk, source) segment rows alternate experts in token order). Row
// gather + row-partitioned GEMM leaves every row's arithmetic untouched
// (gemm_kernel.h), so the results are bitwise the whole-tensor grouped
// GEMMs'. Either direction runs three h x f GEMMs per row; that work is
// recorded as one grouped-GEMM call.
template <typename ExpertFn>
void RunChunkExperts(const int64_t* gidx, int64_t rows, const std::vector<int64_t>& offsets,
                     int64_t h, int64_t f, std::initializer_list<RowCopy> inputs,
                     const ExpertFn& expert) {
  CopyChunkRows(gidx, rows, /*scatter=*/false, inputs);
  const auto start = std::chrono::steady_clock::now();
  const int64_t e_local = static_cast<int64_t>(offsets.size()) - 1;
  for (int64_t e = 0; e < e_local; ++e) {
    const int64_t lo =
        std::lower_bound(gidx, gidx + rows, offsets[static_cast<size_t>(e)]) - gidx;
    const int64_t hi =
        std::lower_bound(gidx, gidx + rows, offsets[static_cast<size_t>(e + 1)]) - gidx;
    if (hi > lo) {
      expert(e, lo, hi - lo);
    }
  }
  const double micros =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
          .count();
  internal::RecordGroupedGemmCall(
      6.0 * static_cast<double>(h) * static_cast<double>(f) * static_cast<double>(rows),
      micros);
}

// The forward expert body of one chunk, shared by both dispatch modes:
// FC1/FC3 -> SwiGLU -> FC2 over the chunk's grouped rows `gidx` (ascending,
// already delivered into cache->ffn_in), results written back to grouped
// order in fc1_out/fc3_out/fc2_in/fc2_out.
void ForwardChunk(EpFfnCache* cache, const int64_t* gidx, int64_t rows,
                  const LocalExperts& w, int64_t h, int64_t f) {
  if (rows == 0) {
    return;
  }
  Workspace& ws = ThreadWorkspace();
  float* in_s = ws.Floats("ep.chunk.in", rows * h);
  float* fc1_s = ws.Floats("ep.chunk.fc1", rows * f);
  float* fc3_s = ws.Floats("ep.chunk.fc3", rows * f);
  float* mid_s = ws.Floats("ep.chunk.mid", rows * f);
  float* out_s = ws.Floats("ep.chunk.out", rows * h);
  RunChunkExperts(gidx, rows, cache->local_offsets, h, f, {{cache->ffn_in.data(), in_s, h}},
                  [&](int64_t e, int64_t lo, int64_t m) {
                    GemmBlocked(false, false, m, f, h, 1.0f, in_s + lo * h, w.w1[e].data(),
                                0.0f, fc1_s + lo * f);
                    GemmBlocked(false, false, m, f, h, 1.0f, in_s + lo * h, w.w3[e].data(),
                                0.0f, fc3_s + lo * f);
                    float* gated = mid_s + lo * f;
                    const float* gate = fc1_s + lo * f;
                    const float* linear = fc3_s + lo * f;
                    for (int64_t i = 0; i < m * f; ++i) {
                      gated[i] = gate[i] * Sigmoid(gate[i]) * linear[i];
                    }
                    GemmBlocked(false, false, m, h, f, 1.0f, gated, w.w2[e].data(), 0.0f,
                                out_s + lo * h);
                  });
  CopyChunkRows(gidx, rows, /*scatter=*/true,
                {{fc1_s, cache->fc1_out.data(), f},
                 {fc3_s, cache->fc3_out.data(), f},
                 {mid_s, cache->fc2_in.data(), f},
                 {out_s, cache->fc2_out.data(), h}});
}

// The input-grad (dgrad) body of one chunk, shared by both dispatch modes:
// dmid = dy·W2ᵀ, the SwiGLU backward, then dx = dgate·W1ᵀ + dlinear·W3ᵀ
// over the chunk's grouped rows `gidx`. Reads dfc2_out and the cached
// fc1/fc3 outputs, writes dgate/dlinear (for the deferred wgrad) and dx
// ([R, h], the input grads) at the same grouped rows.
void DgradChunk(const EpFfnCache& cache, const int64_t* gidx, int64_t rows,
                const LocalExperts& w, int64_t h, int64_t f, const float* dfc2_out,
                float* dgate, float* dlinear, float* dx) {
  if (rows == 0) {
    return;
  }
  // The forward's five staging slots, each updated in place once its old
  // contents are dead: in holds dy, then dlinear·W3ᵀ; fc1 the gate; fc3 the
  // linear, then dlinear; mid dy·W2ᵀ, then dgate; out dx.
  Workspace& ws = ThreadWorkspace();
  float* dy_s = ws.Floats("ep.chunk.in", rows * h);
  float* gate_s = ws.Floats("ep.chunk.fc1", rows * f);
  float* linear_s = ws.Floats("ep.chunk.fc3", rows * f);
  float* dgate_s = ws.Floats("ep.chunk.mid", rows * f);
  float* dx_s = ws.Floats("ep.chunk.out", rows * h);
  RunChunkExperts(gidx, rows, cache.local_offsets, h, f,
                  {{dfc2_out, dy_s, h},
                   {cache.fc1_out.data(), gate_s, f},
                   {cache.fc3_out.data(), linear_s, f}},
                  [&](int64_t e, int64_t lo, int64_t m) {
                    float* dgate_e = dgate_s + lo * f;
                    GemmBlocked(false, true, m, f, h, 1.0f, dy_s + lo * h, w.w2[e].data(),
                                0.0f, dgate_e);
                    const float* gate = gate_s + lo * f;
                    float* linear = linear_s + lo * f;
                    // Same expressions as SwiGluBackward (tensor_ops.cc).
                    for (int64_t i = 0; i < m * f; ++i) {
                      const float sig = Sigmoid(gate[i]);
                      const float silu = gate[i] * sig;
                      const float dsilu = sig * (1.0f + gate[i] * (1.0f - sig));
                      const float dmid = dgate_e[i];
                      dgate_e[i] = dmid * linear[i] * dsilu;
                      linear[i] = dmid * silu;
                    }
                    float* dx_e = dx_s + lo * h;
                    float* dx3 = dy_s + lo * h;
                    GemmBlocked(false, true, m, h, f, 1.0f, dgate_e, w.w1[e].data(), 0.0f,
                                dx_e);
                    GemmBlocked(false, true, m, h, f, 1.0f, linear, w.w3[e].data(), 0.0f,
                                dx3);
                    for (int64_t i = 0; i < m * h; ++i) {
                      dx_e[i] += dx3[i];
                    }
                  });
  CopyChunkRows(gidx, rows, /*scatter=*/true,
                {{dgate_s, dgate, f}, {linear_s, dlinear, f}, {dx_s, dx, h}});
}

// The deferred weight gradients, one op after the last dgrad: dW2/dW1/dW3
// over every grouped row at once, so each expert keeps its whole-row
// reduction in grouped order whatever the chunking.
std::function<Status()> WgradOp(EpFfnGrads* grads, const EpFfnCache& cache,
                                const Tensor& dfc2_out, const Tensor& dgate,
                                const Tensor& dlinear) {
  return [grads, &cache, &dfc2_out, &dgate, &dlinear] {
    const int64_t e_local = static_cast<int64_t>(cache.local_offsets.size()) - 1;
    grads->dw2 = GroupedGemmWeightGrads(dfc2_out, cache.fc2_in, cache.local_offsets, e_local);
    grads->dw1 = GroupedGemmWeightGrads(dgate, cache.ffn_in, cache.local_offsets, e_local);
    grads->dw3 = GroupedGemmWeightGrads(dlinear, cache.ffn_in, cache.local_offsets, e_local);
    return Status::Ok();
  };
}

// dst[0, h) += weight * row[0, h): a token's accumulation of one copy.
void AddScaledRow(float weight, const float* row, float* dst, int64_t h) {
  for (int64_t col = 0; col < h; ++col) {
    dst[col] += weight * row[col];
  }
}

// Packs chunk c's rows of the grouped tensor `grouped` ([R, h]) back into
// chunk order — the layout they arrived in — and starts their return A2AV
// to the source ranks. Called from chained stream-0 ops.
std::unique_ptr<CommHandle> StartReturnChunk(Communicator* comm, int rank,
                                             const EpFfnCache& cache,
                                             PipelineScratch* scratch, const float* grouped,
                                             float* ret_stage, int c, int64_t h) {
  const int n = static_cast<int>(cache.recv_counts.size());
  const int64_t base = cache.recv_chunk_base[static_cast<size_t>(c)];
  const int64_t rows_c = cache.recv_chunk_base[static_cast<size_t>(c) + 1] - base;
  ParallelFor(rows_c, 32, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      std::memcpy(ret_stage + (base + r) * h,
                  grouped + cache.chunk_to_sorted[static_cast<size_t>(base + r)] * h,
                  static_cast<size_t>(h) * sizeof(float));
    }
  });
  std::vector<int64_t> counts(static_cast<size_t>(n));
  for (int src = 0; src < n; ++src) {
    counts[static_cast<size_t>(src)] =
        cache.recv_chunk_counts[static_cast<size_t>(c * n + src)] * h;
  }
  return comm->StartAllToAllV<float>(rank, ret_stage + base * h, counts,
                                     &scratch->ret_recv[static_cast<size_t>(c)],
                                     /*num_chunks=*/1);
}

// Records the source side of a return wire after `tail`: per chunk a
// chained stream-1 wait on handle c, issued once op `start_ids[c]` has
// Started it, then a chained stream-0 `accumulate(base, rows, buf)` over
// the chunk's landed rows — send rows [base, base + rows) in (dst, token,
// slot) order, so each token sums its copies in (owner rank asc, slot asc)
// order for every chunk count.
template <typename AccumulateFn>
void AddReturnChain(ExecGraph* graph, const EpFfnCache& cache,
                    std::vector<std::unique_ptr<CommHandle>>* handles,
                    PipelineScratch* scratch, const std::vector<int>& start_ids,
                    ChainTail tail, const char* wait_name, const char* acc_name,
                    const AccumulateFn& accumulate) {
  const EpFfnCache* cache_p = &cache;
  for (int c = 0; c < cache.pipeline_chunks; ++c) {
    std::vector<int> wait_deps{start_ids[static_cast<size_t>(c)]};
    if (tail.wait >= 0) {
      wait_deps.push_back(tail.wait);
    }
    tail.wait = graph->AddComm(
        ChunkOpName(wait_name, c), /*stream=*/1,
        [handles, c] { return (*handles)[static_cast<size_t>(c)]->WaitAll(); }, wait_deps);
    std::vector<int> acc_deps{tail.wait};
    if (tail.s0 >= 0) {
      acc_deps.push_back(tail.s0);
    }
    tail.s0 = graph->AddCompute(
        ChunkOpName(acc_name, c),
        [cache_p, scratch, accumulate, c] {
          const int64_t base = cache_p->send_chunk_base[static_cast<size_t>(c)];
          const int64_t rows_c = cache_p->send_chunk_base[static_cast<size_t>(c) + 1] - base;
          if (rows_c > 0) {
            accumulate(base, rows_c, scratch->ret_recv[static_cast<size_t>(c)].data());
          }
          return Status::Ok();
        },
        acc_deps, "combine");
  }
}

// The fused kAllToAll forward (§4.2, Fig 7). Chunks partition the local
// token range in ascending order, so every per-destination send order, the
// grouped receive order and each token's combine accumulation order are the
// same for every chunk count — only the schedule changes. `pipe` arrives
// clamped by EpFfnForward.
Tensor PipelinedForwardA2A(const ShardContext& ctx, const ModelConfig& config,
                           const EpPipelineConfig& pipe, const LocalExperts& w,
                           const Tensor& x_local, const RoutingResult& routing,
                           EpFfnCache* cache) {
  const int n = ctx.size();
  const int64_t e_local = config.num_experts / n;
  const int64_t h = config.hidden;
  const int64_t t_local = x_local.dim(0);
  const int64_t k = routing.top_k;
  const int C = pipe.num_chunks;
  const double start_us = ctx.comm->telemetry().NowUs();

  cache->pipeline_chunks = C;
  cache->fp8_wire = pipe.fp8_dispatch;
  cache->wire_quant = pipe.quant;

  // --- Counting-sort permutation: one O(T·k) counting pass plus one
  // cursor pass build the send tables. Send order is (chunk, dst, token
  // asc, slot asc); per destination the concatenated chunks are token-
  // ascending whatever the chunk count. ---
  const ChunkLayout tokens(t_local, C, /*quantum=*/1, /*pad_chunks=*/true);
  cache->send_chunk_counts.assign(static_cast<size_t>(C) * static_cast<size_t>(n), 0);
  const auto copy_dst = [&](int64_t idx) -> int {  // -1 = dropped copy
    if (routing.dropped[static_cast<size_t>(idx)] != 0) {
      return -1;
    }
    return static_cast<int>(routing.expert_index[static_cast<size_t>(idx)] / e_local);
  };
  for (int c = 0; c < C; ++c) {
    for (int64_t t = tokens.begin(c); t < tokens.end(c); ++t) {
      for (int64_t slot = 0; slot < k; ++slot) {
        const int dst = copy_dst(t * k + slot);
        if (dst >= 0) {
          ++cache->send_chunk_counts[static_cast<size_t>(c * n + dst)];
        }
      }
    }
  }
  const int64_t num_segs = static_cast<int64_t>(C) * n;
  int64_t* seg_off = WsInts("ep.send_seg", num_segs + 1);
  seg_off[0] = 0;
  for (int64_t i = 0; i < num_segs; ++i) {
    seg_off[i + 1] = seg_off[i] + cache->send_chunk_counts[static_cast<size_t>(i)];
  }
  cache->send_chunk_base.assign(static_cast<size_t>(C) + 1, 0);
  for (int c = 0; c <= C; ++c) {
    cache->send_chunk_base[static_cast<size_t>(c)] = seg_off[static_cast<int64_t>(c) * n];
  }
  const int64_t total_send = seg_off[num_segs];
  cache->send_token.assign(static_cast<size_t>(total_send), 0);
  cache->send_slot.assign(static_cast<size_t>(total_send), 0);
  int64_t* send_expert = WsInts("ep.send_expert", total_send);
  int64_t* cursor = WsInts("ep.send_cursor", n);
  for (int c = 0; c < C; ++c) {
    for (int d = 0; d < n; ++d) {
      cursor[d] = seg_off[static_cast<int64_t>(c) * n + d];
    }
    for (int64_t t = tokens.begin(c); t < tokens.end(c); ++t) {
      for (int64_t slot = 0; slot < k; ++slot) {
        const int dst = copy_dst(t * k + slot);
        if (dst < 0) {
          continue;
        }
        const int64_t p = cursor[dst]++;
        cache->send_token[static_cast<size_t>(p)] = t;
        cache->send_slot[static_cast<size_t>(p)] = slot;
        send_expert[p] = routing.expert_index[static_cast<size_t>(t * k + slot)];
      }
    }
  }

  // --- One metadata all-to-all: per destination the C per-chunk row
  // counts followed by every row's expert id in send order. Lets the
  // receiver build the full grouped permutation before any row data
  // lands. ---
  int64_t* meta_send = WsInts("ep.meta_send", static_cast<int64_t>(n) * C + total_send);
  std::vector<int64_t> meta_counts(static_cast<size_t>(n));
  {
    int64_t at = 0;
    for (int d = 0; d < n; ++d) {
      const int64_t mark = at;
      for (int c = 0; c < C; ++c) {
        meta_send[at++] = cache->send_chunk_counts[static_cast<size_t>(c * n + d)];
      }
      for (int c = 0; c < C; ++c) {
        const int64_t seg_begin = seg_off[static_cast<int64_t>(c) * n + d];
        const int64_t seg_end =
            seg_begin + cache->send_chunk_counts[static_cast<size_t>(c * n + d)];
        for (int64_t p = seg_begin; p < seg_end; ++p) {
          meta_send[at++] = send_expert[p];
        }
      }
      meta_counts[static_cast<size_t>(d)] = at - mark;
    }
  }
  // Sized for every rank holding t_local tokens (uniform shards). The
  // all-to-all checks the capacity: a peer holding more tokens fails the op
  // on every rank with kInvalidArgument instead of overrunning the buffer.
  const int64_t meta_capacity = static_cast<int64_t>(n) * (C + t_local * k);
  int64_t* meta_recv = WsInts("ep.meta_recv", meta_capacity);
  std::vector<int64_t> meta_recv_counts;
  Tensor y_local({t_local, h});
  if (!ctx.comm
           ->AllToAllV(ctx.rank, meta_send, meta_counts, meta_recv, meta_capacity,
                       &meta_recv_counts)
           .ok()) {
    return y_local;  // degraded group: zero output, no dispatch
  }

  // --- Receiver tables. Grouped rows are numbered (expert, source rank,
  // token): within one source, chunk-ascending equals token-ascending, so
  // enumerating (src, chunk, row) yields the same numbering for every chunk
  // count — each expert sees its rows in global token order, as in the
  // single-rank reference. ---
  cache->recv_counts.assign(static_cast<size_t>(n), 0);
  cache->recv_chunk_counts.assign(static_cast<size_t>(C) * static_cast<size_t>(n), 0);
  int64_t* src_off = WsInts("ep.meta_src_off", n);
  {
    int64_t off = 0;
    for (int src = 0; src < n; ++src) {
      src_off[src] = off;
      off += meta_recv_counts[static_cast<size_t>(src)];
    }
  }
  for (int src = 0; src < n; ++src) {
    MSMOE_CHECK_GE(meta_recv_counts[static_cast<size_t>(src)], C);
    for (int c = 0; c < C; ++c) {
      const int64_t cnt = meta_recv[src_off[src] + c];
      cache->recv_chunk_counts[static_cast<size_t>(c * n + src)] = cnt;
      cache->recv_counts[static_cast<size_t>(src)] += cnt;
    }
  }
  int64_t total_recv = 0;
  for (int64_t v : cache->recv_counts) {
    total_recv += v;
  }
  // Chunk-order segment offsets: within chunk c segments are ordered by
  // source rank — exactly the layout of handle c's receive buffer.
  cache->recv_chunk_base.assign(static_cast<size_t>(C) + 1, 0);
  int64_t* rseg_off = WsInts("ep.recv_seg", num_segs);
  {
    int64_t at = 0;
    for (int c = 0; c < C; ++c) {
      cache->recv_chunk_base[static_cast<size_t>(c)] = at;
      for (int src = 0; src < n; ++src) {
        rseg_off[static_cast<int64_t>(c) * n + src] = at;
        at += cache->recv_chunk_counts[static_cast<size_t>(c * n + src)];
      }
    }
    cache->recv_chunk_base[static_cast<size_t>(C)] = at;
    MSMOE_CHECK_EQ(at, total_recv);
  }
  std::vector<int64_t>& offsets = cache->local_offsets;
  offsets.assign(static_cast<size_t>(e_local) + 1, 0);
  int64_t* counts_e = WsInts("ep.expert_counts", e_local);
  std::fill(counts_e, counts_e + e_local, 0);
  for (int src = 0; src < n; ++src) {
    const int64_t* ids = meta_recv + src_off[src] + C;
    const int64_t rows_src = cache->recv_counts[static_cast<size_t>(src)];
    for (int64_t j = 0; j < rows_src; ++j) {
      const int64_t e = ids[j] - ctx.rank * e_local;
      MSMOE_CHECK_GE(e, 0);
      MSMOE_CHECK_LT(e, e_local);
      ++counts_e[e];
    }
  }
  for (int64_t e = 0; e < e_local; ++e) {
    offsets[static_cast<size_t>(e + 1)] = offsets[static_cast<size_t>(e)] + counts_e[e];
  }
  int64_t* cursor_e = WsInts("ep.expert_cursor", e_local);
  for (int64_t e = 0; e < e_local; ++e) {
    cursor_e[e] = offsets[static_cast<size_t>(e)];
  }
  cache->chunk_to_sorted.assign(static_cast<size_t>(total_recv), 0);
  for (int src = 0; src < n; ++src) {
    const int64_t* ids = meta_recv + src_off[src] + C;
    int64_t j = 0;
    for (int c = 0; c < C; ++c) {
      const int64_t cnt = cache->recv_chunk_counts[static_cast<size_t>(c * n + src)];
      const int64_t seg = rseg_off[static_cast<int64_t>(c) * n + src];
      for (int64_t jj = 0; jj < cnt; ++jj, ++j) {
        const int64_t e = ids[j] - ctx.rank * e_local;
        cache->chunk_to_sorted[static_cast<size_t>(seg + jj)] = cursor_e[e]++;
      }
    }
  }

  // --- Dispatch wire, expert compute, and combine wire on ONE exec graph.
  // Stream 0 (the rank thread) runs the declared order
  //   scatter[0], ffn_chunk[0], combine_pack[0], scatter[1], ...
  // while stream 1 waits chunks off the wire — so while chunk c is in the
  // expert GEMMs, chunk c+1's dispatch and chunk c-1's combine are both in
  // flight (the §4.2 pipeline). Packing (and FP8 quantizing) of dispatch
  // chunk i+1 already overlapped chunk i's wire inside
  // StartDispatchChunks. Combine Starts are issued from the CHAINED
  // combine_pack ops, in declared order on every rank.
  const int64_t f = w.w1[0].dim(1);
  const int64_t* gather = BuildChunkGather(*cache);
  cache->ffn_in = Tensor::Uninit({total_recv, h});
  cache->fc1_out = Tensor::Uninit({total_recv, f});
  cache->fc3_out = Tensor::Uninit({total_recv, f});
  cache->fc2_in = Tensor::Uninit({total_recv, f});
  cache->fc2_out = Tensor::Uninit({total_recv, h});
  cache->returned_rows = Tensor::Uninit({total_send, h});
  PipelineScratch& scratch = TlsScratch();
  scratch.ret_recv.resize(static_cast<size_t>(C));
  float* ret_stage =
      ThreadWorkspace().Floats("ep.a2a.combine", std::max<int64_t>(total_recv * h, 1));
  std::vector<std::unique_ptr<CommHandle>> ret_handles(static_cast<size_t>(C));
  std::vector<std::unique_ptr<CommHandle>> handles =
      StartDispatchChunks(ctx, *cache, x_local, h, &scratch);
  {
    ExecGraph graph;
    EpFfnCache* cache_p = cache;
    PipelineScratch* scratch_p = &scratch;
    std::vector<std::unique_ptr<CommHandle>>* ret_handles_p = &ret_handles;
    Communicator* comm = ctx.comm;
    const int rank = ctx.rank;
    std::vector<int> pack_ids(static_cast<size_t>(C), -1);
    const ChainTail tail = AddScatterChain(
        &graph, *cache, handles, &scratch, h, cache->fp8_wire, &cache->ffn_in,
        "ep_dispatch_wait", "ep_scatter", [&](int c, int scatter) {
          const int ffn = graph.AddCompute(
              ChunkOpName("ep_ffn_chunk", c),
              [cache_p, gather, c, w, h, f] {
                const int64_t base = cache_p->recv_chunk_base[static_cast<size_t>(c)];
                ForwardChunk(cache_p, gather + base,
                             cache_p->recv_chunk_base[static_cast<size_t>(c) + 1] - base, w,
                             h, f);
                return Status::Ok();
              },
              {scatter}, "gemm");
          pack_ids[static_cast<size_t>(c)] = graph.AddCompute(
              ChunkOpName("ep_combine_pack", c),
              [cache_p, scratch_p, ret_handles_p, comm, rank, ret_stage, c, h] {
                (*ret_handles_p)[static_cast<size_t>(c)] =
                    StartReturnChunk(comm, rank, *cache_p, scratch_p,
                                     cache_p->fc2_out.data(), ret_stage, c, h);
                return Status::Ok();
              },
              {ffn}, "pack");
          return pack_ids[static_cast<size_t>(c)];
        });
    const RoutingResult* routing_p = &routing;
    float* y = y_local.data();
    AddReturnChain(&graph, *cache, &ret_handles, &scratch, pack_ids, tail, "ep_combine_wait",
                   "ep_combine",
                   [cache_p, routing_p, y, h](int64_t base, int64_t rows_c, const float* buf) {
                     std::memcpy(cache_p->returned_rows.data() + base * h, buf,
                                 static_cast<size_t>(rows_c * h) * sizeof(float));
                     for (int64_t j = 0; j < rows_c; ++j) {
                       const int64_t p = base + j;
                       const int64_t t = cache_p->send_token[static_cast<size_t>(p)];
                       AddScaledRow(routing_p->combine_weight.At(
                                        t, cache_p->send_slot[static_cast<size_t>(p)]),
                                    buf + j * h, y + t * h, h);
                     }
                   });
    const ExecResult result = graph.Execute(/*num_streams=*/2);
    handles.clear();
    ret_handles.clear();
    if (!result.status.ok()) {
      return Tensor({t_local, h});
    }
  }
  RecordDispatchTelemetry(ctx, "ep_dispatch_fwd", C, offsets, start_us);
  return y_local;
}

// Backward of the fused pipeline: both wire directions run as per-chunk
// handles on ONE exec graph shaped like the forward's (FP32 — only the
// forward dispatch optionally quantizes). Stream 0 runs the declared order
//   dy_scatter[0], dgrad[0], dy_scatter[1], dgrad[1], ..., wgrad,
//   dx_acc[0], dx_acc[1], ...
// while stream 1 waits chunks off both wires. dgrad[c] computes chunk c's
// input grads only (dmid = dy·W2ᵀ, the SwiGLU backward, then
// dx = dgate·W1ᵀ + dlinear·W3ᵀ) and Starts return chunk c, so the dx
// return of chunk c overlaps the dgrad of chunks c+1.. and the deferred
// whole-expert weight gradients (wgrad) — the return wire no longer waits
// for the dW GEMMs. Bitwise: dx rows are row-split safe, exactly as in the
// forward; dW keeps its full-row reduction in grouped order; dx accumulates
// per token in (owner rank asc, slot asc) order.
EpFfnGrads PipelinedBackwardA2A(const ShardContext& ctx, const ModelConfig& config,
                                const LocalExperts& w, const Tensor& dy_local,
                                const RoutingResult& routing, const EpFfnCache& cache) {
  const int n = ctx.size();
  const int64_t h = config.hidden;
  const int64_t f = w.w1[0].dim(1);
  const int64_t t_local = dy_local.dim(0);
  const int64_t k = routing.top_k;
  const int C = cache.pipeline_chunks;
  const int64_t total_send = static_cast<int64_t>(cache.send_token.size());
  const int64_t total_recv = cache.recv_chunk_base[static_cast<size_t>(C)];

  EpFfnGrads grads;
  grads.dcombine_local = Tensor({t_local, k});
  grads.dx_local = Tensor({t_local, h});

  Workspace& ws = ThreadWorkspace();
  PipelineScratch& scratch = TlsScratch();
  scratch.recv_f32.resize(static_cast<size_t>(C));
  scratch.ret_recv.resize(static_cast<size_t>(C));

  // --- Combine backward at the source: weight the incoming grads per
  // copy, read off the combine-weight grads, ship chunk by chunk. ---
  float* ship = ws.Floats("ep.a2a.dispatch", std::max<int64_t>(total_send * h, 1));
  std::vector<std::unique_ptr<CommHandle>> handles(static_cast<size_t>(C));
  {
    std::vector<int64_t> counts(static_cast<size_t>(n));
    for (int c = 0; c < C; ++c) {
      const int64_t base = cache.send_chunk_base[static_cast<size_t>(c)];
      const int64_t rows_c = cache.send_chunk_base[static_cast<size_t>(c) + 1] - base;
      ParallelFor(rows_c, 16, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t p = base + r;
          const int64_t t = cache.send_token[static_cast<size_t>(p)];
          const int64_t slot = cache.send_slot[static_cast<size_t>(p)];
          const float weight = routing.combine_weight.At(t, slot);
          const float* dy_row = dy_local.data() + t * h;
          const float* ret_row = cache.returned_rows.data() + p * h;
          float* out = ship + p * h;
          float dot = 0.0f;
          for (int64_t col = 0; col < h; ++col) {
            out[col] = weight * dy_row[col];
            dot += dy_row[col] * ret_row[col];
          }
          grads.dcombine_local.At(t, slot) = dot;
        }
      });
      for (int d = 0; d < n; ++d) {
        counts[static_cast<size_t>(d)] =
            cache.send_chunk_counts[static_cast<size_t>(c * n + d)] * h;
      }
      handles[static_cast<size_t>(c)] = ctx.comm->StartAllToAllV<float>(
          ctx.rank, ship + base * h, counts,
          &scratch.recv_f32[static_cast<size_t>(c)], /*num_chunks=*/1);
    }
  }

  // Grouped-order grads: dfc2_out lands per chunk; dgate/dlinear feed the
  // deferred wgrad; dffn_in (the input grads) stages the dx return.
  const int64_t* gather = BuildChunkGather(cache);
  Tensor dfc2_out = Tensor::Uninit({total_recv, h});
  Tensor dgate = Tensor::Uninit({total_recv, f});
  Tensor dlinear = Tensor::Uninit({total_recv, f});
  float* dffn_in = ws.Floats("ep.bwd.dx", std::max<int64_t>(total_recv * h, 1));
  float* ret_stage = ws.Floats("ep.a2a.combine", std::max<int64_t>(total_recv * h, 1));
  std::vector<std::unique_ptr<CommHandle>> ret_handles(static_cast<size_t>(C));
  {
    ExecGraph graph;
    const EpFfnCache* cache_p = &cache;
    PipelineScratch* scratch_p = &scratch;
    std::vector<std::unique_ptr<CommHandle>>* ret_handles_p = &ret_handles;
    Communicator* comm = ctx.comm;
    const int rank = ctx.rank;
    const float* dfc2_out_p = dfc2_out.data();
    float* dgate_p = dgate.data();
    float* dlinear_p = dlinear.data();
    std::vector<int> dgrad_ids(static_cast<size_t>(C), -1);
    ChainTail tail = AddScatterChain(
        &graph, cache, handles, &scratch, h, /*fp8=*/false, &dfc2_out, "ep_dy_wait",
        "ep_dy_scatter", [&](int c, int scatter) {
          dgrad_ids[static_cast<size_t>(c)] = graph.AddCompute(
              ChunkOpName("ep_dgrad", c),
              [cache_p, scratch_p, ret_handles_p, comm, rank, gather, dfc2_out_p, dgate_p,
               dlinear_p, dffn_in, ret_stage, w, c, h, f] {
                const int64_t base = cache_p->recv_chunk_base[static_cast<size_t>(c)];
                DgradChunk(*cache_p, gather + base,
                           cache_p->recv_chunk_base[static_cast<size_t>(c) + 1] - base, w, h,
                           f, dfc2_out_p, dgate_p, dlinear_p, dffn_in);
                (*ret_handles_p)[static_cast<size_t>(c)] = StartReturnChunk(
                    comm, rank, *cache_p, scratch_p, dffn_in, ret_stage, c, h);
                return Status::Ok();
              },
              {scatter}, "gemm");
          return dgrad_ids[static_cast<size_t>(c)];
        });
    tail.s0 = graph.AddCompute("ep_wgrad", WgradOp(&grads, cache, dfc2_out, dgate, dlinear),
                               {tail.s0}, "gemm");
    float* dx = grads.dx_local.data();
    AddReturnChain(&graph, cache, &ret_handles, &scratch, dgrad_ids, tail, "ep_dx_wait",
                   "ep_dx_acc",
                   [cache_p, dx, h](int64_t base, int64_t rows_c, const float* buf) {
                     for (int64_t j = 0; j < rows_c; ++j) {
                       AddScaledRow(1.0f, buf + j * h,
                                    dx + cache_p->send_token[static_cast<size_t>(base + j)] * h,
                                    h);
                     }
                   });
    graph.Execute(/*num_streams=*/2);
    handles.clear();
    ret_handles.clear();
  }
  return grads;
}

// Grouped rows of a kAllGatherScatter layer, split by token chunk: chunk c
// holds local tokens [chunks.begin(c), chunks.end(c)) of EVERY source rank —
// the rows that chunk c of the all-gather and reduce-scatter handles carry
// (ChunkLayout splits a row-quantum count by rows). gather lists chunk c's
// grouped rows ascending at gather[base[c]..base[c + 1]).
struct TokenChunkRows {
  const int64_t* gather;
  const int64_t* base;
};

TokenChunkRows BuildTokenChunkRows(const EpFfnCache& cache, const ChunkLayout& chunks) {
  const int C = chunks.num_chunks();
  const int64_t rows = static_cast<int64_t>(cache.copy_token.size());
  int64_t* chunk_of = WsInts("ep.ag.token_chunk", chunks.total());
  for (int c = 0; c < C; ++c) {
    std::fill(chunk_of + chunks.begin(c), chunk_of + chunks.end(c), c);
  }
  int64_t* row_chunk = WsInts("ep.ag.row_chunk", rows);
  int64_t* base = WsInts("ep.ag.chunk_base", C + 1);
  std::fill(base, base + C + 1, 0);
  for (int64_t i = 0; i < rows; ++i) {
    row_chunk[i] = chunk_of[cache.copy_token[static_cast<size_t>(i)] % chunks.total()];
    ++base[row_chunk[i] + 1];
  }
  std::partial_sum(base, base + C + 1, base);
  int64_t* cursor = WsInts("ep.ag.chunk_cursor", C);
  std::copy(base, base + C, cursor);
  int64_t* gather = WsInts("ep.chunk_gather", rows);
  for (int64_t i = 0; i < rows; ++i) {
    gather[cursor[row_chunk[i]]++] = i;
  }
  return {gather, base};
}

// Runs one all-gather-mode pipeline on a two-stream exec graph. handles[0]
// is the all-gather (token or dy rows); the rest are producer-gated
// reduce-scatters Started after it. Per chunk c: a chained stream-1 wait on
// all-gather chunk c, then a chained stream-0 op running body(gidx, rows)
// over the chunk's grouped rows — every copy of the chunk's tokens — and
// releasing chunk c of each reduce-scatter. `wgrad`, if set, runs on
// stream 0 after the last chunk while the reduce-scatters drain.
template <typename BodyFn>
Status RunAgPipeline(std::vector<std::unique_ptr<CommHandle>> handles,
                     const TokenChunkRows& rows, int chunks, const char* op_name,
                     const BodyFn& body, std::function<Status()> wgrad = nullptr) {
  ExecGraph graph;
  ChainTail tail;
  for (int c = 0; c < chunks; ++c) {
    std::vector<int> wait_deps;
    if (tail.wait >= 0) {
      wait_deps.push_back(tail.wait);
    }
    tail.wait = graph.AddComm(ChunkOpName("ep_ag_wait", c), /*stream=*/1,
                              [&handles, c] { return handles[0]->WaitChunk(c); }, wait_deps);
    std::vector<int> deps{tail.wait};
    if (tail.s0 >= 0) {
      deps.push_back(tail.s0);
    }
    tail.s0 = graph.AddCompute(
        ChunkOpName(op_name, c),
        [&handles, &rows, &body, c] {
          body(rows.gather + rows.base[c], rows.base[c + 1] - rows.base[c]);
          for (size_t i = 1; i < handles.size(); ++i) {
            handles[i]->SignalChunkReady(c);
          }
          return Status::Ok();
        },
        deps, "gemm");
  }
  if (wgrad) {
    graph.AddCompute("ep_wgrad", std::move(wgrad), {tail.s0}, "gemm");
  }
  graph.AddComm(
      "ep_rs_wait", /*stream=*/1,
      [&handles] {
        Status status = Status::Ok();
        for (size_t i = 1; i < handles.size(); ++i) {
          const Status handle_status = handles[i]->WaitAll();
          status = status.ok() ? handle_status : status;
        }
        return status;
      },
      {tail.wait, tail.s0});
  const Status status = graph.Execute(/*num_streams=*/2).status;
  // Retire in Start order: the comm thread runs ops FIFO, so a handle's
  // destructor would wait behind an earlier unsignalled one.
  for (std::unique_ptr<CommHandle>& handle : handles) {
    handle.reset();
  }
  return status;
}

// The fused kAllGatherScatter forward (§3.2 Fig 6/7, §4.2): as token chunk
// c lands, its grouped rows run through the experts and add weight·row into
// full_out; those full_out rows are then final, so reduce-scatter chunk c
// ships while later chunks compute. Bitwise: expert rows are row-split
// safe, each token's copies all lie in its chunk and are added in ascending
// grouped order, and the chunked reduce-scatter keeps the rank-ordered
// per-element sum — the chunk count changes no bit.
Tensor PipelinedForwardAG(const ShardContext& ctx, const ModelConfig& config, int num_chunks,
                          const LocalExperts& w, const Tensor& x_local,
                          const RoutingResult& routing, EpFfnCache* cache) {
  const int n = ctx.size();
  const int64_t e_local = config.num_experts / n;
  const int64_t h = config.hidden;
  const int64_t f = w.w1[0].dim(1);
  const int64_t t_local = x_local.dim(0);
  const int64_t t_total = t_local * n;
  const int64_t k = routing.top_k;
  const double start_us = ctx.comm->telemetry().NowUs();

  // --- One routing all-gather: per copy the expert id (-1 = dropped) in
  // the low 32 bits, the combine weight's float bits in the high 32. ---
  int64_t* meta = WsInts("ep.ag.meta_local", t_local * k);
  for (int64_t i = 0; i < t_local * k; ++i) {
    const size_t s = static_cast<size_t>(i);
    const auto expert = static_cast<uint32_t>(
        routing.dropped[s] != 0 ? -1 : static_cast<int32_t>(routing.expert_index[s]));
    const auto weight = std::bit_cast<uint32_t>(routing.combine_weight[s]);
    meta[i] = static_cast<int64_t>(static_cast<uint64_t>(weight) << 32 | expert);
  }
  int64_t* meta_all = WsInts("ep.ag.meta_all", t_total * k);
  Tensor y_local({t_local, h});
  if (!ctx.comm->AllGather(ctx.rank, meta, meta_all, t_local * k).ok()) {
    return y_local;  // degraded group: zero output, no dispatch
  }

  // --- Local scatter: the copies routed to this rank's experts, grouped by
  // (expert, global token, slot) in one counting and one cursor pass. ---
  const auto local_expert = [&](int64_t i) -> int64_t {  // -1 = not ours
    const int64_t e = static_cast<int32_t>(meta_all[i]) - ctx.rank * e_local;
    return e >= 0 && e < e_local ? e : -1;
  };
  std::vector<int64_t>& offsets = cache->local_offsets;
  offsets.assign(static_cast<size_t>(e_local) + 1, 0);
  for (int64_t i = 0; i < t_total * k; ++i) {
    if (const int64_t e = local_expert(i); e >= 0) {
      ++offsets[static_cast<size_t>(e) + 1];
    }
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  const int64_t rows = offsets.back();
  cache->copy_token.resize(static_cast<size_t>(rows));
  cache->copy_slot.resize(static_cast<size_t>(rows));
  cache->copy_weight.resize(static_cast<size_t>(rows));
  int64_t* cursor = WsInts("ep.expert_cursor", e_local);
  std::copy(offsets.begin(), offsets.end() - 1, cursor);
  for (int64_t i = 0; i < t_total * k; ++i) {
    if (const int64_t e = local_expert(i); e >= 0) {
      const size_t p = static_cast<size_t>(cursor[e]++);
      cache->copy_token[p] = i / k;
      cache->copy_slot[p] = i % k;
      cache->copy_weight[p] = std::bit_cast<float>(static_cast<uint32_t>(
          static_cast<uint64_t>(meta_all[i]) >> 32));
    }
  }

  const ChunkLayout chunks(t_local, num_chunks, /*quantum=*/1);
  const int C = chunks.num_chunks();
  cache->pipeline_chunks = C;
  const TokenChunkRows chunk_rows = BuildTokenChunkRows(*cache, chunks);
  cache->x_all = Tensor::Uninit({t_total, h});
  cache->ffn_in = Tensor::Uninit({rows, h});
  cache->fc1_out = Tensor::Uninit({rows, f});
  cache->fc3_out = Tensor::Uninit({rows, f});
  cache->fc2_in = Tensor::Uninit({rows, f});
  cache->fc2_out = Tensor::Uninit({rows, h});
  Tensor full_out({t_total, h});
  std::vector<std::unique_ptr<CommHandle>> handles;
  handles.push_back(ctx.comm->StartAllGather(ctx.rank, x_local.data(), cache->x_all.data(),
                                             t_local * h, C, /*quantum=*/h));
  handles.push_back(ctx.comm->StartReduceScatter(ctx.rank, full_out.data(), y_local.data(),
                                                 t_local * h, C, /*quantum=*/h));
  const Status status = RunAgPipeline(
      std::move(handles), chunk_rows, C, "ep_ag_ffn",
      [&](const int64_t* gidx, int64_t rows_c) {
        ParallelFor(rows_c, 32, [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            std::memcpy(cache->ffn_in.data() + gidx[r] * h,
                        cache->x_all.data() + cache->copy_token[static_cast<size_t>(gidx[r])] * h,
                        static_cast<size_t>(h) * sizeof(float));
          }
        });
        ForwardChunk(cache, gidx, rows_c, w, h, f);
        for (int64_t r = 0; r < rows_c; ++r) {
          const size_t i = static_cast<size_t>(gidx[r]);
          AddScaledRow(cache->copy_weight[i], cache->fc2_out.data() + gidx[r] * h,
                       full_out.data() + cache->copy_token[i] * h, h);
        }
      });
  if (!status.ok()) {
    return Tensor({t_local, h});
  }
  RecordDispatchTelemetry(ctx, "ep_dispatch_fwd", C, offsets, start_us);
  return y_local;
}

// Backward of the fused kAllGatherScatter layer, shaped like its forward:
// as dy chunk c lands, the chunk's grouped rows get dfc2_out = w·dy and
// their combine-weight dots, run the shared dgrad body and scatter-add
// their input grads into dx_all, releasing chunk c of the dx and the
// dcombine reduce-scatters. The whole-expert weight gradients run after
// the last chunk while those chunks are on the wire.
EpFfnGrads PipelinedBackwardAG(const ShardContext& ctx, const ModelConfig& config,
                               const LocalExperts& w, const Tensor& dy_local,
                               const RoutingResult& routing, const EpFfnCache& cache) {
  const int64_t h = config.hidden;
  const int64_t f = w.w1[0].dim(1);
  const int64_t t_local = dy_local.dim(0);
  const int64_t t_total = t_local * ctx.size();
  const int64_t k = routing.top_k;
  const int64_t rows = static_cast<int64_t>(cache.copy_token.size());
  const ChunkLayout chunks(t_local, cache.pipeline_chunks, /*quantum=*/1);
  const int C = chunks.num_chunks();
  const TokenChunkRows chunk_rows = BuildTokenChunkRows(cache, chunks);

  EpFfnGrads grads;
  grads.dcombine_local = Tensor({t_local, k});
  grads.dx_local = Tensor({t_local, h});
  Tensor dy_all = Tensor::Uninit({t_total, h});
  Tensor dx_all({t_total, h});  // zeroed: each rank adds only its copies
  Tensor dcombine_all({t_total, k});
  Tensor dfc2_out = Tensor::Uninit({rows, h});
  Tensor dgate = Tensor::Uninit({rows, f});
  Tensor dlinear = Tensor::Uninit({rows, f});
  float* dffn_in = ThreadWorkspace().Floats("ep.bwd.dx", std::max<int64_t>(rows * h, 1));
  std::vector<std::unique_ptr<CommHandle>> handles;
  handles.push_back(ctx.comm->StartAllGather(ctx.rank, dy_local.data(), dy_all.data(),
                                             t_local * h, C, /*quantum=*/h));
  handles.push_back(ctx.comm->StartReduceScatter(
      ctx.rank, dx_all.data(), grads.dx_local.data(), t_local * h, C, /*quantum=*/h));
  handles.push_back(ctx.comm->StartReduceScatter(ctx.rank, dcombine_all.data(),
                                                 grads.dcombine_local.data(), t_local * k, C,
                                                 /*quantum=*/k));
  // A failed pipeline surfaces through GroupStatus(), as in the A2A backward.
  (void)RunAgPipeline(
      std::move(handles), chunk_rows, C, "ep_ag_dgrad",
      [&](const int64_t* gidx, int64_t rows_c) {
        ParallelFor(rows_c, 16, [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            const size_t i = static_cast<size_t>(gidx[r]);
            const float* dy_row = dy_all.data() + cache.copy_token[i] * h;
            const float* fc2_row = cache.fc2_out.data() + gidx[r] * h;
            float* dfc2_row = dfc2_out.data() + gidx[r] * h;
            float dot = 0.0f;
            for (int64_t col = 0; col < h; ++col) {
              dfc2_row[col] = cache.copy_weight[i] * dy_row[col];
              dot += dy_row[col] * fc2_row[col];
            }
            dcombine_all.At(cache.copy_token[i], cache.copy_slot[i]) = dot;
          }
        });
        DgradChunk(cache, gidx, rows_c, w, h, f, dfc2_out.data(), dgate.data(),
                   dlinear.data(), dffn_in);
        for (int64_t r = 0; r < rows_c; ++r) {
          AddScaledRow(1.0f, dffn_in + gidx[r] * h,
                       dx_all.data() + cache.copy_token[static_cast<size_t>(gidx[r])] * h, h);
        }
      },
      WgradOp(&grads, cache, dfc2_out, dgate, dlinear));
  return grads;
}

}  // namespace

const char* EpDispatchModeName(EpDispatchMode mode) {
  switch (mode) {
    case EpDispatchMode::kAllToAll:
      return "all-to-all";
    case EpDispatchMode::kAllGatherScatter:
      return "all-gather+scatter";
  }
  return "unknown";
}

Tensor EpFfnForward(const ShardContext& ctx, const ModelConfig& config, EpDispatchMode mode,
                    const std::vector<Tensor>& w1, const std::vector<Tensor>& w3,
                    const std::vector<Tensor>& w2, const Tensor& x_local,
                    const RoutingResult& routing_local, EpFfnCache* cache,
                    const EpPipelineConfig& pipe) {
  const int n = ctx.size();
  MSMOE_CHECK_EQ(config.num_experts % n, 0);
  MSMOE_CHECK_EQ(routing_local.tokens, x_local.dim(0));
  const LocalExperts w = LocalWeights(ctx, config.num_experts / n, w1, w3, w2);
  EpPipelineConfig clamped = pipe;
  clamped.num_chunks = std::clamp(pipe.num_chunks, 1, 64);
  clamped.quant.granularity = QuantGranularity::kPerToken;
  if (mode == EpDispatchMode::kAllToAll) {
    return PipelinedForwardA2A(ctx, config, clamped, w, x_local, routing_local, cache);
  }
  return PipelinedForwardAG(ctx, config, clamped.num_chunks, w, x_local, routing_local, cache);
}

EpFfnGrads EpFfnBackward(const ShardContext& ctx, const ModelConfig& config,
                         EpDispatchMode mode, const std::vector<Tensor>& w1,
                         const std::vector<Tensor>& w3, const std::vector<Tensor>& w2,
                         const Tensor& dy_local, const RoutingResult& routing_local,
                         const EpFfnCache& cache) {
  const LocalExperts w = LocalWeights(ctx, config.num_experts / ctx.size(), w1, w3, w2);
  if (mode == EpDispatchMode::kAllToAll) {
    return PipelinedBackwardA2A(ctx, config, w, dy_local, routing_local, cache);
  }
  return PipelinedBackwardAG(ctx, config, w, dy_local, routing_local, cache);
}

void EpFfnRematerialize(const ShardContext& ctx, const ModelConfig& config,
                        EpDispatchMode mode, const Tensor& x_local, EpFfnCache* cache) {
  const int n = ctx.size();
  const int64_t h = config.hidden;
  const int64_t t_local = x_local.dim(0);

  if (cache->ffn_in.empty()) {
    if (mode == EpDispatchMode::kAllToAll) {
      // Replay the pipelined chunked dispatch (re-quantizing in FP8 mode —
      // per-token scales make the codes bitwise the forward's).
      const int C = cache->pipeline_chunks;
      const int64_t total_recv = cache->recv_chunk_base[static_cast<size_t>(C)];
      PipelineScratch& scratch = TlsScratch();
      std::vector<std::unique_ptr<CommHandle>> handles =
          StartDispatchChunks(ctx, *cache, x_local, h, &scratch);
      cache->ffn_in = Tensor::Uninit({total_recv, h});
      ExecGraph graph;
      AddScatterChain(&graph, *cache, handles, &scratch, h, cache->fp8_wire,
                      &cache->ffn_in, "ep_dispatch_wait", "ep_scatter",
                      [](int, int scatter) { return scatter; });
      graph.Execute(/*num_streams=*/2);
      handles.clear();
    } else {
      if (cache->x_all.empty()) {
        cache->x_all = Tensor({t_local * n, h});
        if (!ctx.comm->AllGather(ctx.rank, x_local.data(), cache->x_all.data(), t_local * h)
                 .ok()) {
          return;  // degraded group: the backward's collectives fail as well
        }
      }
      cache->ffn_in = GatherRows(cache->x_all, cache->copy_token);
    }
  }
  if (cache->fc2_in.empty()) {
    cache->fc2_in = SwiGlu(cache->fc1_out, cache->fc3_out);
  }
}

}  // namespace msmoe
