#include "src/comm/async_comm.h"

#include <cstring>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "src/base/arena.h"
#include "src/base/logging.h"

namespace msmoe {

void TryElevateCommThreadPriority() {
#if defined(__linux__)
  sched_param param{};
  param.sched_priority = 1;
  // EPERM (unprivileged host) leaves the thread on the default policy; the
  // pipeline stays correct, only the overlap is at the scheduler's mercy.
  (void)pthread_setschedparam(pthread_self(), SCHED_FIFO, &param);
#endif
}

// ---------------------------------------------------------------------------
// ChunkLayout

ChunkLayout::ChunkLayout(int64_t count, int num_chunks, int64_t quantum,
                         bool pad_chunks) {
  MSMOE_CHECK_GE(count, 0);
  MSMOE_CHECK_GT(quantum, 0);
  MSMOE_CHECK_EQ(count % quantum, 0)
      << "chunk boundaries must align to the quantum (indivisible row)";
  const int64_t rows = count / quantum;
  int64_t chunks = num_chunks;
  if (chunks < 1) {
    chunks = 1;
  }
  if (!pad_chunks && (rows == 0 || chunks > rows)) {
    chunks = rows > 0 ? rows : 1;
  }
  bounds_.resize(static_cast<size_t>(chunks) + 1);
  const int64_t base = rows / chunks;
  const int64_t rem = rows % chunks;
  bounds_[0] = 0;
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t chunk_rows = base + (c < rem ? 1 : 0);
    bounds_[static_cast<size_t>(c) + 1] =
        bounds_[static_cast<size_t>(c)] + chunk_rows * quantum;
  }
  MSMOE_CHECK_EQ(bounds_.back(), count);
}

// ---------------------------------------------------------------------------
// ChunkBarrier

ChunkBarrier::ChunkBarrier(int num_chunks)
    : ready_(static_cast<size_t>(num_chunks), 0),
      signalled_(static_cast<size_t>(num_chunks), 0) {
  MSMOE_CHECK_GT(num_chunks, 0);
}

void ChunkBarrier::MarkReady(int chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  ready_[static_cast<size_t>(chunk)] = 1;
  cv_.notify_all();
}

Status ChunkBarrier::WaitReady(int chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this, chunk] {
    return ready_[static_cast<size_t>(chunk)] != 0 || cancelled_;
  });
  if (ready_[static_cast<size_t>(chunk)] != 0) {
    // The chunk landed before any cancellation: its data is valid even if
    // the op failed later.
    return Status::Ok();
  }
  return status_;
}

void ChunkBarrier::Signal(int chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  signalled_[static_cast<size_t>(chunk)] = 1;
  cv_.notify_all();
}

Status ChunkBarrier::WaitSignal(int chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this, chunk] {
    return signalled_[static_cast<size_t>(chunk)] != 0 || cancelled_;
  });
  if (signalled_[static_cast<size_t>(chunk)] != 0) {
    return Status::Ok();
  }
  return status_;
}

bool ChunkBarrier::AllSignalled() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const char s : signalled_) {
    if (s == 0) {
      return false;
    }
  }
  return true;
}

void ChunkBarrier::Cancel(Status status) {
  MSMOE_CHECK(!status.ok()) << "ChunkBarrier::Cancel needs a non-OK status";
  std::lock_guard<std::mutex> lock(mu_);
  if (!cancelled_) {
    cancelled_ = true;
    status_ = std::move(status);
  }
  cv_.notify_all();
}

Status ChunkBarrier::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_ ? status_ : Status::Ok();
}

// ---------------------------------------------------------------------------
// CommHandle

CommHandle::CommHandle(ChunkLayout layout, int num_chunks, CollectiveGroup* channel,
                       bool producer_gated)
    : layout_(std::move(layout)),
      num_chunks_(num_chunks),
      channel_(channel),
      producer_gated_(producer_gated),
      barrier_(num_chunks) {}

CommHandle::~CommHandle() {
  if (producer_gated_ && channel_ != nullptr && !barrier_.AllSignalled()) {
    // Mid-pipeline abort: the comm thread may be blocked waiting for input
    // that will never come, and peer comm threads may be blocked in the
    // chunk rendezvous waiting for THIS rank. Cancel our waits and poison
    // the async channel so every rank's pipeline unwinds; the channel is
    // healed by the Communicator's next RecoveryBarrier.
    const Status cancel =
        Aborted("CommHandle destroyed before all producer chunks were signalled");
    barrier_.Cancel(cancel);
    channel_->Abort(cancel);
  }
  WaitRetired();
}

Status CommHandle::WaitChunk(int chunk) {
  MSMOE_CHECK_GE(chunk, 0);
  MSMOE_CHECK_LT(chunk, num_chunks());
  return barrier_.WaitReady(chunk);
}

Status CommHandle::WaitAll() {
  Status first = Status::Ok();
  for (int c = 0; c < num_chunks(); ++c) {
    const Status status = barrier_.WaitReady(c);
    if (!status.ok() && first.ok()) {
      first = status;
    }
  }
  return first;
}

void CommHandle::SignalChunkReady(int chunk) {
  MSMOE_CHECK(producer_gated_) << "SignalChunkReady on a non-producer-gated op";
  MSMOE_CHECK_GE(chunk, 0);
  MSMOE_CHECK_LT(chunk, num_chunks());
  barrier_.Signal(chunk);
}

void CommHandle::MarkRetired() {
  std::lock_guard<std::mutex> lock(retire_mu_);
  retired_ = true;
  retire_cv_.notify_all();
}

void CommHandle::WaitRetired() {
  std::unique_lock<std::mutex> lock(retire_mu_);
  retire_cv_.wait(lock, [this] { return retired_; });
}

// ---------------------------------------------------------------------------
// Drivers — each runs as one FIFO task on the rank's comm-proxy thread.

namespace {

CommEvent ChunkEvent(const AsyncOpParams& params, CommOp op, const char* algorithm,
                     int64_t elem_count, uint64_t wire, int chunk, int chunk_count,
                     double start_us) {
  CommEvent event;
  event.op = op;
  event.algorithm = algorithm;
  event.group_size = params.group_size;
  event.rank = params.member;
  event.elem_type = params.elem_type;
  event.elem_bytes = params.elem_bytes;
  event.elem_count = elem_count;
  event.wire_bytes = wire;
  event.primary = params.member == 0;
  event.start_us = start_us;
  event.duration_us = params.telemetry->NowUs() - start_us;
  event.logical_op = params.logical_op;
  event.chunk_index = chunk;
  event.chunk_count = chunk_count;
  event.async_lane = true;
  return event;
}

}  // namespace

std::unique_ptr<CommHandle> AsyncCommDriver::StartAllGather(
    const AsyncOpParams& params, const void* send, void* recv, int64_t count,
    int num_chunks, int64_t quantum) {
  ChunkLayout layout(count, num_chunks, quantum);
  const int chunks = layout.num_chunks();
  std::unique_ptr<CommHandle> handle(new CommHandle(
      std::move(layout), chunks, params.channel, /*producer_gated=*/false));
  CommHandle* h = handle.get();
  const auto* send_bytes = static_cast<const uint8_t*>(send);
  auto* recv_bytes = static_cast<uint8_t*>(recv);
  params.thread->Submit([params, h, send_bytes, recv_bytes, count] {
    const int n = params.group_size;
    const int eb = params.elem_bytes;
    const int chunk_count = h->num_chunks();
    // Comm-proxy threads are persistent, so the workspace slot survives the
    // op and later steps reuse it verbatim.
    Workspace& ws = ThreadWorkspace();
    for (int c = 0; c < chunk_count; ++c) {
      const double start = params.telemetry->NowUs();
      const int64_t begin = h->layout().begin(c);
      const int64_t elems = h->layout().size(c);
      const int64_t chunk_bytes = elems * eb;
      uint8_t* scratch = ws.Bytes("asynccomm.ag.scratch", n * chunk_bytes);
      uint64_t wire = 0;
      const Status status = params.channel->AllGather(
          params.member, send_bytes + begin * eb, scratch, chunk_bytes, &wire);
      if (!status.ok()) {
        h->barrier_.Cancel(status);
        break;
      }
      if (c == chunk_count - 1 && params.fault.corrupt) {
        // The monolithic EndOp flips one bit anywhere in the receive
        // buffer; chunked ops restrict the flip to the final chunk's slice
        // (still unpublished, so consumers never race with the injection).
        FlipOneBit(scratch, static_cast<int64_t>(n) * chunk_bytes,
                   params.fault.corrupt_seed);
      }
      for (int src = 0; src < n; ++src) {
        std::memcpy(recv_bytes + (static_cast<int64_t>(src) * count + begin) * eb,
                    scratch + static_cast<int64_t>(src) * chunk_bytes,
                    static_cast<size_t>(chunk_bytes));
      }
      params.telemetry->Record(
          ChunkEvent(params, CommOp::kAllGather, "ring", elems, wire, c, chunk_count, start));
      h->barrier_.MarkReady(c);
    }
    h->MarkRetired();
  });
  return handle;
}

std::unique_ptr<CommHandle> AsyncCommDriver::StartReduceScatter(
    const AsyncOpParams& params, const float* send, float* recv, int64_t count,
    int num_chunks, int64_t quantum) {
  ChunkLayout layout(count, num_chunks, quantum);
  const int chunks = layout.num_chunks();
  std::unique_ptr<CommHandle> handle(new CommHandle(
      std::move(layout), chunks, params.channel, /*producer_gated=*/true));
  CommHandle* h = handle.get();
  params.thread->Submit([params, h, send, recv, count] {
    const int n = params.group_size;
    const int chunk_count = h->num_chunks();
    Workspace& ws = ThreadWorkspace();
    for (int c = 0; c < chunk_count; ++c) {
      Status status = h->barrier_.WaitSignal(c);
      if (!status.ok()) {
        h->barrier_.Cancel(status);
        break;
      }
      const double start = params.telemetry->NowUs();
      const int64_t begin = h->layout().begin(c);
      const int64_t elems = h->layout().size(c);
      // Pack every destination's slice of this chunk contiguously: block d
      // of the chunked reduce-scatter is rows [begin, begin+elems) of the
      // full op's block d.
      float* scratch = ws.Floats("asynccomm.rs.scratch", n * elems);
      for (int dst = 0; dst < n; ++dst) {
        std::memcpy(scratch + static_cast<int64_t>(dst) * elems,
                    send + static_cast<int64_t>(dst) * count + begin,
                    static_cast<size_t>(elems) * sizeof(float));
      }
      uint64_t wire = 0;
      status = params.channel->ReduceScatter(params.member, scratch, recv + begin, elems,
                                             &wire);
      if (!status.ok()) {
        h->barrier_.Cancel(status);
        break;
      }
      if (c == chunk_count - 1 && params.fault.corrupt) {
        FlipOneBit(recv + begin, elems * static_cast<int64_t>(sizeof(float)),
                   params.fault.corrupt_seed);
      }
      params.telemetry->Record(ChunkEvent(params, CommOp::kReduceScatter, "ring", elems,
                                          wire, c, chunk_count, start));
      h->barrier_.MarkReady(c);
    }
    h->MarkRetired();
  });
  return handle;
}

std::unique_ptr<CommHandle> AsyncCommDriver::StartAllToAllV(
    const AsyncOpParams& params, const void* send,
    const std::vector<int64_t>& send_counts,
    const std::function<void*(int64_t)>& resize_recv, int num_chunks) {
  const int n = params.group_size;
  MSMOE_CHECK_EQ(static_cast<int>(send_counts.size()), n);
  int chunks = num_chunks < 1 ? 1 : num_chunks;
  // The recv split is data-dependent (counts are exchanged on the comm
  // thread), so the handle's element layout is empty; chunk c always
  // delivers the c-th near-even slice of every source's block.
  ChunkLayout layout(0, 1, 1);
  std::unique_ptr<CommHandle> handle(new CommHandle(
      std::move(layout), chunks, params.channel, /*producer_gated=*/false));
  CommHandle* h = handle.get();
  const auto* send_bytes = static_cast<const uint8_t*>(send);
  params.thread->Submit([params, h, send_bytes, send_counts, resize_recv, chunks, n] {
    const int eb = params.elem_bytes;
    // Metadata rendezvous: publish the counts matrix through the channel's
    // shared slots exactly like the monolithic AllToAllV (no wire bytes, no
    // event — it is not payload).
    std::vector<int64_t> all_counts;
    Status status =
        params.channel->ExchangeCounts(params.member, send_counts, &all_counts);
    if (!status.ok()) {
      h->barrier_.Cancel(status);
      h->MarkRetired();
      return;
    }
    auto count_at = [&all_counts, n](int src, int dst) {
      return all_counts[static_cast<size_t>(src) * static_cast<size_t>(n) +
                        static_cast<size_t>(dst)];
    };
    // Per-(src,dst) chunk layouts — linear in payload, so per-chunk volumes
    // sum exactly to the monolithic A2AV volume.
    std::vector<ChunkLayout> pair_layout;
    pair_layout.reserve(static_cast<size_t>(n) * static_cast<size_t>(n));
    for (int src = 0; src < n; ++src) {
      for (int dst = 0; dst < n; ++dst) {
        pair_layout.emplace_back(count_at(src, dst), chunks, 1, /*pad_chunks=*/true);
      }
    }
    auto pair_at = [&pair_layout, n](int src, int dst) -> const ChunkLayout& {
      return pair_layout[static_cast<size_t>(src) * static_cast<size_t>(n) +
                         static_cast<size_t>(dst)];
    };
    // Full-op send/recv offsets (dest-major send, source-major recv).
    std::vector<int64_t> send_prefix(static_cast<size_t>(n) + 1, 0);
    std::vector<int64_t> recv_prefix(static_cast<size_t>(n) + 1, 0);
    for (int peer = 0; peer < n; ++peer) {
      send_prefix[static_cast<size_t>(peer) + 1] =
          send_prefix[static_cast<size_t>(peer)] + count_at(params.member, peer);
      recv_prefix[static_cast<size_t>(peer) + 1] =
          recv_prefix[static_cast<size_t>(peer)] + count_at(peer, params.member);
    }
    h->recv_counts_.assign(static_cast<size_t>(n), 0);
    for (int src = 0; src < n; ++src) {
      h->recv_counts_[static_cast<size_t>(src)] = count_at(src, params.member);
    }
    auto* recv_bytes =
        static_cast<uint8_t*>(resize_recv(recv_prefix[static_cast<size_t>(n)]));
    Workspace& ws = ThreadWorkspace();
    std::vector<int64_t> chunk_send_bytes(static_cast<size_t>(n), 0);
    std::vector<int64_t> chunk_recv_counts;
    // A chunk's sub-layout within each pair block mirrors the monolithic
    // layout, so after the last chunk the receive buffer is bitwise the
    // monolithic result.
    for (int c = 0; c < chunks; ++c) {
      const double start = params.telemetry->NowUs();
      int64_t send_total = 0;
      for (int dst = 0; dst < n; ++dst) {
        chunk_send_bytes[static_cast<size_t>(dst)] = pair_at(params.member, dst).size(c) * eb;
        send_total += pair_at(params.member, dst).size(c);
      }
      uint8_t* send_scratch = ws.Bytes("asynccomm.a2av.send", send_total * eb);
      int64_t packed = 0;
      for (int dst = 0; dst < n; ++dst) {
        const ChunkLayout& pl = pair_at(params.member, dst);
        if (pl.size(c) == 0) {
          continue;  // empty vectors may hand out null data(): memcpy UB
        }
        std::memcpy(send_scratch + packed * eb,
                    send_bytes + (send_prefix[static_cast<size_t>(dst)] + pl.begin(c)) * eb,
                    static_cast<size_t>(pl.size(c)) * static_cast<size_t>(eb));
        packed += pl.size(c);
      }
      int64_t recv_total = 0;
      for (int src = 0; src < n; ++src) {
        recv_total += pair_at(src, params.member).size(c);
      }
      uint8_t* recv_scratch = ws.Bytes("asynccomm.a2av.recv", recv_total * eb);
      uint64_t wire = 0;
      Status st = params.channel->AllToAllV(params.member, send_scratch, chunk_send_bytes,
                                            recv_scratch, recv_total * eb,
                                            &chunk_recv_counts, &wire);
      if (!st.ok()) {
        h->barrier_.Cancel(st);
        break;
      }
      if (c == chunks - 1 && params.fault.corrupt) {
        FlipOneBit(recv_scratch, recv_total * eb, params.fault.corrupt_seed);
      }
      int64_t unpacked = 0;
      for (int src = 0; src < n; ++src) {
        const ChunkLayout& pl = pair_at(src, params.member);
        if (pl.size(c) == 0) {
          continue;
        }
        std::memcpy(recv_bytes + (recv_prefix[static_cast<size_t>(src)] + pl.begin(c)) * eb,
                    recv_scratch + unpacked * eb,
                    static_cast<size_t>(pl.size(c)) * static_cast<size_t>(eb));
        unpacked += pl.size(c);
      }
      params.telemetry->Record(ChunkEvent(params, CommOp::kAllToAllV, "pairwise",
                                          recv_total, wire, c, chunks, start));
      h->barrier_.MarkReady(c);
    }
    h->MarkRetired();
  });
  return handle;
}

std::unique_ptr<CommHandle> AsyncCommDriver::MakeFailedHandle(Status status) {
  MSMOE_CHECK(!status.ok()) << "MakeFailedHandle needs a non-OK status";
  std::unique_ptr<CommHandle> handle(new CommHandle(
      ChunkLayout(0, 1, 1), /*num_chunks=*/1, /*channel=*/nullptr,
      /*producer_gated=*/false));
  handle->barrier_.Cancel(std::move(status));
  handle->MarkRetired();
  return handle;
}

}  // namespace msmoe
