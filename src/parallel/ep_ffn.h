// Expert-parallel feed-forward network (§3.2) with the two dispatch modes
// the paper's adaptive communication strategy chooses between:
//
//   kAllToAll:         classic EP — all-to-all token dispatch to expert
//                      owners, grouped GEMM, all-to-all combine. Volume
//                      2k/n * bsh(n-1)/n (Eq 3).
//   kAllGatherScatter: for large top-k — all-gather every rank's tokens,
//                      fuse a local scatter that keeps only rows routed to
//                      local experts, grouped GEMM, weighted assembly into a
//                      full tensor, reduce-scatter combine. Volume
//                      2bsh(n-1)/n, identical to TP (Eq 4) but ring-friendly
//                      (Fig 6/7).
//
// Rank r owns experts [r*E/n, (r+1)*E/n). Both modes match the single-rank
// reference (same routing in, same combine out); expert-weight gradients
// are complete on the owner rank (no extra sync).
//
// Both modes are fused pipelines (the paper's §4.2 fused kernels, Fig 7):
// the wire runs as chunked async collectives recorded on one two-stream
// ExecGraph per direction, and each chunk's expert GEMMs run as soon as its
// rows land, hiding the rest of the wire. Chunks partition the LOCAL token
// range in ascending order (EpPipelineConfig::num_chunks of them, per call).
//
//   kAllToAll: a counting-sort permutation built in one O(T·k) pass feeds
//     per-chunk StartAllToAllV handles, so packing (optionally FP8
//     quantize-on-pack: QuantizeInto per row straight into the send
//     staging, codes + per-token scale in one payload) of chunk i+1
//     overlaps the transfer of chunk i; each chunk's expert outputs start
//     their combine return as soon as they are computed.
//   kAllGatherScatter: one routing all-gather (expert id and combine
//     weight packed in one int64 per copy), then a chunked token
//     all-gather; chunk c carries local tokens of chunk c of EVERY rank, so
//     once it lands every grouped row of those tokens runs, its weighted
//     outputs complete those tokens' full-tensor rows, and chunk c of the
//     producer-gated reduce-scatter ships while later chunks compute.
//
// The backward has the same shape in both modes: as each dy chunk lands, a
// dgrad op computes that chunk's input grads only (dy·W2ᵀ, the SwiGLU
// backward, dgate·W1ᵀ + dlinear·W3ᵀ) and releases its dx return (A2A) or
// dx/dcombine reduce-scatter chunk (AG); the weight gradients run once,
// after the last dgrad, while those chunks are on the wire. Expert rows are
// row-split safe, dW keeps its whole-expert row reduction in grouped order
// and each token accumulates its copies in a fixed order, so the schedule
// changes no bit. Every expert sees its rows in global token order (source
// rank, then token) for every chunk and worker count. Expert activations
// and weight gradients, the rematerialized ffn_in and the combine-weight
// gradients are therefore bitwise equal to the single-rank reference. y
// and dx are too at top-k <= 2; at larger top-k they are bitwise equal
// across chunk and worker counts and match the reference only to rounding,
// because each token's copies are summed grouped by owner rank while the
// reference sums them in slot order, and float addition of three or more
// terms is order-dependent.
#ifndef MSMOE_SRC_PARALLEL_EP_FFN_H_
#define MSMOE_SRC_PARALLEL_EP_FFN_H_

#include <cstdint>
#include <vector>

#include "src/model/config.h"
#include "src/model/router.h"
#include "src/numerics/quantize.h"
#include "src/parallel/sp_attention.h"
#include "src/tensor/tensor.h"

namespace msmoe {

enum class EpDispatchMode {
  kAllToAll,
  kAllGatherScatter,
};

const char* EpDispatchModeName(EpDispatchMode mode);

// Configuration of the fused EP pipelines, passed to each EpFfnForward call
// (ParallelMoeLayerForward passes the default). Every rank of a group
// must pass the same values: the chunk count shapes the collective sequence
// of both dispatch modes. EpFfnForward clamps num_chunks to [1, 64] (and, in
// kAllGatherScatter mode, to the local token count) and records the clamped
// chunk count and wire format in EpFfnCache; the backward and the
// rematerialization read them from there. fp8_dispatch (kAllToAll only)
// quantizes the forward dispatch wire (activations) per token, fusing
// QuantizeInto into the pack; the combine and backward wires stay FP32 (the
// reference the FP8 path is tested against applies the same per-row round
// trip). quant.granularity is forced to kPerToken — the only granularity
// whose scales are per-row and therefore identical whether rows are
// quantized packed or in place.
struct EpPipelineConfig {
  int num_chunks = 4;
  bool fp8_dispatch = false;
  QuantConfig quant;
};

struct EpFfnCache {
  // Expert computation inputs/outputs, rows grouped by local expert.
  Tensor ffn_in;    // [R, h]
  Tensor fc1_out;   // [R, f]
  Tensor fc3_out;   // [R, f]
  Tensor fc2_in;    // [R, f]
  Tensor fc2_out;   // [R, h]
  std::vector<int64_t> local_offsets;  // [E_local + 1] row ranges
  int pipeline_chunks = 0;             // C used by the forward (both modes)

  // kAllToAll bookkeeping. Send rows are enumerated chunk-major — (chunk,
  // dst rank, token asc, slot asc) — where chunks partition the local token
  // range in ascending order; send_token/send_slot/returned_rows use this
  // order. Received rows are enumerated in "chunk order" (chunk-major, the
  // order rows land on the wire), which chunk_to_sorted maps to grouped
  // rows (expert, source rank, token).
  std::vector<int64_t> recv_counts;        // rows received from each rank
  std::vector<int64_t> send_token;         // per sent row: local token index
  std::vector<int64_t> send_slot;          // per sent row: top-k slot
  Tensor returned_rows;                    // expert outputs back at the source
  bool fp8_wire = false;                   // forward dispatch was quantize-on-pack
  QuantConfig wire_quant;
  std::vector<int64_t> send_chunk_counts;  // [C*n] rows in (chunk, dst) segment
  std::vector<int64_t> send_chunk_base;    // [C+1] send-row prefix per chunk
  std::vector<int64_t> recv_chunk_counts;  // [C*n] rows in (chunk, src) segment
  std::vector<int64_t> recv_chunk_base;    // [C+1] chunk-order recv prefix
  std::vector<int64_t> chunk_to_sorted;    // chunk-order recv pos -> grouped row

  // kAllGatherScatter bookkeeping.
  Tensor x_all;                         // [t_total, h] gathered tokens
  std::vector<int64_t> copy_token;      // per grouped row: global token index
  std::vector<int64_t> copy_slot;       // per grouped row: slot of that token
  std::vector<float> copy_weight;       // per grouped row: combine weight
};

// x_local: [t_local, h]; routing_local: routing of exactly those tokens.
// weights w1/w3/w2 hold ALL experts; the module touches only rank r's range.
// Returns the weighted expert output [t_local, h] (no residual).
Tensor EpFfnForward(const ShardContext& ctx, const ModelConfig& config, EpDispatchMode mode,
                    const std::vector<Tensor>& w1, const std::vector<Tensor>& w3,
                    const std::vector<Tensor>& w2, const Tensor& x_local,
                    const RoutingResult& routing_local, EpFfnCache* cache,
                    const EpPipelineConfig& pipe = {});

struct EpFfnGrads {
  Tensor dx_local;       // [t_local, h]
  Tensor dcombine_local; // [t_local, k] gradient w.r.t. combine weights
  // Gradients for this rank's experts only, indexed 0..E_local-1.
  std::vector<Tensor> dw1, dw3, dw2;
};

EpFfnGrads EpFfnBackward(const ShardContext& ctx, const ModelConfig& config,
                         EpDispatchMode mode, const std::vector<Tensor>& w1,
                         const std::vector<Tensor>& w3, const std::vector<Tensor>& w2,
                         const Tensor& dy_local, const RoutingResult& routing_local,
                         const EpFfnCache& cache);

// Selective-activation-rematerialization support (§4.1): rebuilds cache
// fields the forward pass dropped — `ffn_in` (and `x_all` in AG mode) by
// RE-RUNNING the dispatch communication from the recomputed layer input
// (the paper's "re-performing RMSNorm and all-gather"), and `fc2_in` by
// re-applying SwiGLU to the retained fc1/fc3 outputs. Collective: all ranks
// of the group must call it together. Fields already present are left
// untouched. In kAllToAll mode it replays the forward's chunked
// (quantize-on-pack) dispatch, so the rebuilt ffn_in is bitwise the
// forward's; in kAllGatherScatter mode it repeats the token all-gather as
// one blocking collective.
void EpFfnRematerialize(const ShardContext& ctx, const ModelConfig& config,
                        EpDispatchMode mode, const Tensor& x_local, EpFfnCache* cache);

}  // namespace msmoe

#endif  // MSMOE_SRC_PARALLEL_EP_FFN_H_
