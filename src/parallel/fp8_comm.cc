#include "src/parallel/fp8_comm.h"

#include <algorithm>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/base/math_util.h"

namespace msmoe {

Tensor Fp8ReduceScatter(Communicator& comm, int rank, const Tensor& data,
                        int64_t shard_rows, const QuantConfig& config) {
  const int n = comm.size();
  MSMOE_CHECK_EQ(data.ndim(), 2);
  MSMOE_CHECK_EQ(data.dim(0), n * shard_rows);
  const int64_t cols = data.dim(1);
  const int64_t chunk_codes = shard_rows * cols;
  const int64_t chunk_scales = QuantScalesCount(shard_rows, cols, config);

  // Quantize each destination chunk directly into its slice of the send
  // staging; the staging lives in the calling rank thread's workspace, so a
  // steady-state step reuses the previous step's buffers.
  Workspace& ws = ThreadWorkspace();
  uint8_t* send_codes = ws.Bytes("fp8.rs.send_codes", n * chunk_codes);
  float* send_scales = ws.Floats("fp8.rs.send_scales", n * chunk_scales);
  for (int dst = 0; dst < n; ++dst) {
    QuantizeInto(data.data() + static_cast<int64_t>(dst) * chunk_codes, shard_rows, cols,
                 config, send_codes + static_cast<int64_t>(dst) * chunk_codes,
                 send_scales + static_cast<int64_t>(dst) * chunk_scales);
  }

  uint8_t* recv_codes = ws.Bytes("fp8.rs.recv_codes", n * chunk_codes);
  float* recv_scales = ws.Floats("fp8.rs.recv_scales", n * chunk_scales);
  if (!comm.AllToAll(rank, send_codes, recv_codes, chunk_codes).ok() ||
      !comm.AllToAll(rank, send_scales, recv_scales, chunk_scales).ok()) {
    return Tensor({shard_rows, cols});  // degraded group: zeros, nothing dequantized
  }

  // Dequantize each source's chunk and reduce in FP32 (double accumulator).
  // `out` is fully written by the acc copy-out loop below, so Uninit is safe.
  Tensor out = Tensor::Uninit({shard_rows, cols});
  double* acc = ws.Doubles("fp8.rs.acc", chunk_codes);
  std::fill(acc, acc + chunk_codes, 0.0);
  float* dequant = ws.Floats("fp8.rs.dequant", chunk_codes);
  for (int src = 0; src < n; ++src) {
    DequantizeInto(recv_codes + static_cast<int64_t>(src) * chunk_codes,
                   recv_scales + static_cast<int64_t>(src) * chunk_scales, shard_rows,
                   cols, config, dequant);
    for (int64_t i = 0; i < chunk_codes; ++i) {
      acc[i] += dequant[i];
    }
  }
  for (int64_t i = 0; i < chunk_codes; ++i) {
    out[i] = static_cast<float>(acc[i]);
  }
  return out;
}

Tensor Fp8AllGather(Communicator& comm, int rank, const Tensor& local,
                    const QuantConfig& config) {
  const int n = comm.size();
  MSMOE_CHECK_EQ(local.ndim(), 2);
  const int64_t rows = local.dim(0);
  const int64_t cols = local.dim(1);
  const int64_t chunk_codes = rows * cols;
  const int64_t chunk_scales = QuantScalesCount(rows, cols, config);

  Workspace& ws = ThreadWorkspace();
  uint8_t* local_codes = ws.Bytes("fp8.ag.local_codes", chunk_codes);
  float* local_scales = ws.Floats("fp8.ag.local_scales", chunk_scales);
  QuantizeInto(local.data(), rows, cols, config, local_codes, local_scales);

  uint8_t* all_codes = ws.Bytes("fp8.ag.all_codes", n * chunk_codes);
  float* all_scales = ws.Floats("fp8.ag.all_scales", n * chunk_scales);
  if (!comm.AllGather(rank, local_codes, all_codes, chunk_codes).ok() ||
      !comm.AllGather(rank, local_scales, all_scales, chunk_scales).ok()) {
    return Tensor({n * rows, cols});  // degraded group: zeros, nothing dequantized
  }

  // Each source chunk dequantizes into its contiguous row range, covering
  // every element of the gathered output.
  Tensor out = Tensor::Uninit({n * rows, cols});
  for (int src = 0; src < n; ++src) {
    DequantizeInto(all_codes + static_cast<int64_t>(src) * chunk_codes,
                   all_scales + static_cast<int64_t>(src) * chunk_scales, rows, cols,
                   config, out.data() + static_cast<int64_t>(src) * chunk_codes);
  }
  return out;
}

int64_t Fp8ReduceScatterWireBytes(int64_t rows, int64_t cols, const QuantConfig& config,
                                  int n) {
  const int64_t per_chunk = rows * cols + QuantScalesCount(rows, cols, config) * 4;
  return (n - 1) * per_chunk;
}

int64_t Bf16ReduceScatterWireBytes(int64_t rows, int64_t cols, int n) {
  return (n - 1) * rows * cols * 2;
}

}  // namespace msmoe
