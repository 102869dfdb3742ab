#include "src/parallel/dp_grad_sync.h"

#include <cstring>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/numerics/bf16.h"

namespace msmoe {

const char* GradSyncModeName(GradSyncMode mode) {
  switch (mode) {
    case GradSyncMode::kFp32ReduceScatter:
      return "fp32-reduce-scatter";
    case GradSyncMode::kBf16AllToAll:
      return "bf16-all-to-all";
    case GradSyncMode::kBf16RingReduce:
      return "bf16-ring-reduce";
  }
  return "unknown";
}

namespace {

// SyncGradShardInto's body, returning the status of its collective so
// AllReduceGrads can stop before gathering a shard that was never reduced.
// A failed exchange leaves *shard_out unreduced.
Status SyncShard(Communicator& comm, int rank, const float* grads, int64_t count,
                 GradSyncMode mode, float* shard_out) {
  const int n = comm.size();
  MSMOE_CHECK_EQ(count % n, 0);
  const int64_t shard = count / n;
  float* out = shard_out;

  switch (mode) {
    case GradSyncMode::kFp32ReduceScatter:
      return comm.ReduceScatter(rank, grads, out, shard);
    case GradSyncMode::kBf16AllToAll: {
      // One-time cast to BF16, then each rank collects its shard from every
      // peer and reduces LOCALLY in FP32 (Fig 10's design). The wire/recv
      // staging lives in the rank thread's workspace (reused every step).
      Workspace& ws = ThreadWorkspace();
      float* wire = ws.Floats("gradsync.wire", count);
      for (int64_t i = 0; i < count; ++i) {
        wire[i] = Bf16Round(grads[i]);
      }
      float* recv = ws.Floats("gradsync.recv", count);
      MSMOE_RETURN_IF_ERROR(comm.AllToAll(rank, wire, recv, shard));
      for (int64_t i = 0; i < shard; ++i) {
        double sum = 0.0;  // FP32/FP64 accumulation of BF16 values
        for (int src = 0; src < n; ++src) {
          sum += static_cast<double>(recv[src * shard + i]);
        }
        out[i] = static_cast<float>(sum);
      }
      return Status::Ok();
    }
    case GradSyncMode::kBf16RingReduce: {
      // Ring reduce-scatter with BF16 partial sums: in a real ring, the
      // chunk that ends on rank r passes through the other n-1 ranks, each
      // hop adding one contribution and re-rounding the partial to BF16 for
      // the wire. The exchange below gathers every rank's BF16 contribution
      // for this rank's chunk, then replays exactly that sequential
      // rounded accumulation (ring order starting at rank+1).
      Workspace& ws = ThreadWorkspace();
      float* wire = ws.Floats("gradsync.wire", count);
      for (int64_t i = 0; i < count; ++i) {
        wire[i] = Bf16Round(grads[i]);
      }
      float* recv = ws.Floats("gradsync.recv", count);
      MSMOE_RETURN_IF_ERROR(comm.AllToAll(rank, wire, recv, shard));
      for (int64_t i = 0; i < shard; ++i) {
        float partial = recv[((rank + 1) % n) * shard + i];
        for (int step = 2; step <= n; ++step) {
          const int src = (rank + step) % n;
          partial = Bf16Round(partial + recv[src * shard + i]);
        }
        out[i] = partial;
      }
      return Status::Ok();
    }
  }
  return Status::Ok();
}

}  // namespace

void SyncGradShardInto(Communicator& comm, int rank, const float* grads, int64_t count,
                       GradSyncMode mode, float* shard_out) {
  // A failure stays visible as the communicator's sticky GroupStatus(),
  // which callers check per step.
  (void)SyncShard(comm, rank, grads, count, mode, shard_out);
}

std::unique_ptr<CommHandle> StartGradShardSync(Communicator& comm, int rank,
                                               const float* grads, int64_t count,
                                               float* shard_out, int num_chunks,
                                               bool signal_now) {
  const int n = comm.size();
  MSMOE_CHECK_EQ(count % n, 0);
  const int64_t shard = count / n;
  std::unique_ptr<CommHandle> handle =
      comm.StartReduceScatter(rank, grads, shard_out, shard, num_chunks);
  if (signal_now) {
    // The segment is already final: release every producer chunk up front;
    // chunking still lets the transfer stream while the caller computes.
    SignalGradSegmentReady(*handle);
  }
  return handle;
}

void SignalGradSegmentReady(CommHandle& handle) {
  for (int c = 0; c < handle.num_chunks(); ++c) {
    handle.SignalChunkReady(c);
  }
}

void AllReduceGrads(Communicator& comm, int rank, float* grads, int64_t count,
                    GradSyncMode mode) {
  const int n = comm.size();
  MSMOE_CHECK_EQ(count % n, 0);
  float* shard = ThreadWorkspace().Floats("gradsync.shard", count / n);
  // A failure stays visible as the communicator's sticky GroupStatus(),
  // which callers check per step; a failed shard sync skips the gather.
  if (SyncShard(comm, rank, grads, count, mode, shard).ok()) {
    (void)comm.AllGather(rank, shard, grads, count / n);
  }
}

int64_t GradSyncWireBytes(GradSyncMode mode, int64_t count, int n) {
  const int64_t shard = count / n;
  switch (mode) {
    case GradSyncMode::kFp32ReduceScatter:
      return (n - 1) * shard * 4;  // ring RS of FP32
    case GradSyncMode::kBf16AllToAll:
      return (n - 1) * shard * 2;  // same pattern, 2-byte payload
    case GradSyncMode::kBf16RingReduce:
      return (n - 1) * shard * 2;
  }
  return 0;
}

void PackBf16InPlace(float* buffer, int64_t count) {
  // Two BF16 codes per float slot; codes land in the first half of the
  // buffer so the second half is free as a receive buffer.
  uint16_t* codes = reinterpret_cast<uint16_t*>(buffer);
  for (int64_t i = 0; i < count; ++i) {
    // Reading buffer[i] before writing codes[i] is safe: codes[i] occupies
    // the first half of float slot i/2 <= i.
    const uint16_t code = BF16(buffer[i]).bits();
    codes[i] = code;
  }
}

void UnpackBf16InPlace(float* buffer, int64_t count) {
  const uint16_t* codes = reinterpret_cast<const uint16_t*>(buffer);
  // Expand back-to-front so codes are not overwritten before being read.
  for (int64_t i = count - 1; i >= 0; --i) {
    const float value = BF16::FromBits(codes[i]).ToFloat();
    buffer[i] = value;
  }
}

}  // namespace msmoe
