// Fault injection, cancellable collectives, straggler detection, checkpoint
// corruption, and the trainer's loss-transparent recovery loop.
//
// The central claims under test:
//   1. a crashed or stuck rank surfaces as a Status on EVERY peer instead of
//      a process-wide hang (cancellable barrier);
//   2. after recovery, training resumes from the last checkpoint and the
//      loss trajectory is bit-identical to a fault-free run;
//   3. corrupt checkpoints never load silently (v2 CRC + validation matrix).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/comm/collective_group.h"
#include "src/comm/communicator.h"
#include "src/comm/fault.h"
#include "src/comm/health.h"
#include "src/comm/hierarchical.h"
#include "src/core/trainer.h"
#include "src/model/checkpoint.h"
#include "src/model/config.h"
#include "src/model/lm.h"
#include "src/model/router.h"
#include "src/parallel/ep_ffn.h"
#include "src/sim/fault_sim.h"
#include "src/sim/trace_export.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// --- Cancellable barrier ----------------------------------------------------

TEST(CancellableBarrierTest, TimeoutSurfacesDeadlineExceededInsteadOfHanging) {
  CollectiveGroup group(2);
  group.set_timeout_ms(50.0);
  const auto start = Clock::now();
  const Status status = group.Barrier();  // the peer never arrives
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(ElapsedMs(start), 10000.0);
  // The error is sticky: subsequent collectives fail fast.
  float send = 1.0f;
  float recv = 0.0f;
  const auto retry = Clock::now();
  EXPECT_EQ(group.AllReduce(0, &send, &recv, 1).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_LT(ElapsedMs(retry), 1000.0);
}

TEST(CancellableBarrierTest, AbortReleasesBlockedWaiter) {
  CollectiveGroup group(2);  // no timeout: waits forever unless cancelled
  Status observed;
  std::thread waiter([&] { observed = group.Barrier(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  group.Abort(Aborted("test abort"));
  waiter.join();
  EXPECT_EQ(observed.code(), StatusCode::kAborted);
  EXPECT_TRUE(group.aborted());
  EXPECT_EQ(group.status().code(), StatusCode::kAborted);
}

TEST(CancellableBarrierTest, TimeoutReleasesEveryWaiterWithTheSameError) {
  CollectiveGroup group(3);
  group.set_timeout_ms(50.0);
  std::vector<Status> observed(2);
  std::vector<std::thread> waiters;
  for (int member = 0; member < 2; ++member) {  // member 2 never arrives
    waiters.emplace_back(
        [&group, &observed, member] { observed[member] = group.Barrier(); });
  }
  for (std::thread& t : waiters) {
    t.join();
  }
  for (const Status& status : observed) {
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(CancellableBarrierTest, RecoveryBarrierRestoresTheGroup) {
  CollectiveGroup group(2);
  group.Abort(Aborted("induced fault"));
  std::vector<float> results(2, 0.0f);
  RunOnRanks(2, [&](int rank) {
    float send = static_cast<float>(rank + 1);
    float recv = 0.0f;
    EXPECT_EQ(group.AllReduce(rank, &send, &recv, 1).code(), StatusCode::kAborted);
    group.RecoveryBarrier(rank);
    EXPECT_TRUE(group.AllReduce(rank, &send, &recv, 1).ok());
    results[static_cast<size_t>(rank)] = recv;
  });
  EXPECT_TRUE(group.status().ok());
  EXPECT_EQ(results[0], 3.0f);
  EXPECT_EQ(results[1], 3.0f);
}

// --- RunOnRanksStatus -------------------------------------------------------

TEST(RunOnRanksStatusTest, PropagatesFirstRankException) {
  const Status status = RunOnRanksStatus(3, [&](int rank) {
    if (rank == 1) {
      throw std::runtime_error("boom");
    }
  });
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("rank 1"), std::string::npos);
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST(RunOnRanksStatusTest, PropagatesCheckFailureWithoutKillingTheProcess) {
  const Status status = RunOnRanksStatus(2, [&](int rank) {
    MSMOE_CHECK(rank != 0) << "injected check failure";
  });
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("rank 0"), std::string::npos);
  EXPECT_NE(status.message().find("injected check failure"), std::string::npos);
}

TEST(RunOnRanksStatusTest, AbortsGroupSoSurvivorsDoNotDeadlock) {
  CollectiveGroup group(2);  // no timeout — a hang here would be forever
  Status survivor;
  const Status status = RunOnRanksStatus(
      2,
      [&](int rank) {
        if (rank == 0) {
          throw std::runtime_error("rank died before the collective");
        }
        survivor = group.Barrier();
      },
      &group);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("rank 0"), std::string::npos);
  EXPECT_FALSE(survivor.ok());
}

// --- FaultPlan --------------------------------------------------------------

TEST(FaultPlanTest, CrashFiresExactlyOnce) {
  FaultPlan plan(42);
  plan.AddCrash(/*rank=*/1, /*at_op=*/3);
  EXPECT_FALSE(plan.OnCollective(1, 2).crash);
  EXPECT_FALSE(plan.OnCollective(0, 3).crash);  // other rank, same index
  EXPECT_TRUE(plan.OnCollective(1, 3).crash);
  EXPECT_FALSE(plan.OnCollective(1, 3).crash);  // one-shot: replay is clean
  EXPECT_EQ(plan.crashes_fired(), 1);
}

TEST(FaultPlanTest, SlowRankWindowDelaysOnlyItsOps) {
  FaultPlan plan;
  plan.AddSlowRank(/*rank=*/0, /*delay_us=*/5.0, /*from_op=*/2, /*num_ops=*/3);
  EXPECT_EQ(plan.OnCollective(0, 1).delay_us, 0.0);
  EXPECT_EQ(plan.OnCollective(0, 2).delay_us, 5.0);
  EXPECT_EQ(plan.OnCollective(0, 4).delay_us, 5.0);
  EXPECT_EQ(plan.OnCollective(0, 5).delay_us, 0.0);
  EXPECT_EQ(plan.OnCollective(1, 3).delay_us, 0.0);  // other rank unaffected
}

TEST(FaultPlanTest, FlipOneBitIsDeterministicAndFlipsExactlyOneBit) {
  std::vector<uint8_t> original = {0x00, 0xFF, 0x55, 0xAA, 0x12, 0x34, 0x56, 0x78};
  std::vector<uint8_t> a = original;
  std::vector<uint8_t> b = original;
  FlipOneBit(a.data(), static_cast<int64_t>(a.size()), /*seed=*/99);
  FlipOneBit(b.data(), static_cast<int64_t>(b.size()), /*seed=*/99);
  EXPECT_EQ(a, b);
  int differing_bits = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    uint8_t diff = static_cast<uint8_t>(original[i] ^ a[i]);
    while (diff != 0) {
      differing_bits += diff & 1;
      diff = static_cast<uint8_t>(diff >> 1);
    }
  }
  EXPECT_EQ(differing_bits, 1);
}

// --- Communicator fault injection -------------------------------------------

// Every blocking collective: rank `kCulprit` crashes at its second op (op
// index 1), after one clean op. Every rank's failed op must return kAborted
// naming the culprit, record no event and leave its receive buffer
// untouched; after RecoveryBarrier the same op returns Ok and records
// exactly one event per rank.
class CommunicatorFaultTest : public ::testing::TestWithParam<CommOp> {};

constexpr int kSweepRanks = 4;
constexpr int kCulprit = 2;
constexpr int64_t kSweepBlock = 3;  // elements per rank block
constexpr float kSentinel = -7.0f;

// Runs `op` with every output in *recv (kSweepRanks blocks of floats) or
// *scalars (ExchangeScalars).
Status RunSweepOp(Communicator& comm, CommOp op, int rank, std::vector<float>* recv,
                    std::vector<double>* scalars) {
  const std::vector<float> send(static_cast<size_t>(kSweepRanks * kSweepBlock),
                                static_cast<float>(rank + 1));
  switch (op) {
    case CommOp::kBarrier:
      return comm.Barrier(rank);
    case CommOp::kAllGather:
      return comm.AllGather(rank, send.data(), recv->data(), kSweepBlock);
    case CommOp::kReduceScatter:
      return comm.ReduceScatter(rank, send.data(), recv->data(), kSweepBlock);
    case CommOp::kAllReduce:
      return comm.AllReduce(rank, send.data(), recv->data(), kSweepRanks * kSweepBlock);
    case CommOp::kBroadcast: {
      // The root broadcasts its own copy, so only the peers' recv is written.
      std::vector<float> root_data = send;
      float* data = rank == 0 ? root_data.data() : recv->data();
      return comm.Broadcast(rank, /*root=*/0, data, kSweepRanks * kSweepBlock);
    }
    case CommOp::kAllToAll:
      return comm.AllToAll(rank, send.data(), recv->data(), kSweepBlock);
    case CommOp::kAllToAllV: {
      std::vector<int64_t> recv_counts;
      return comm.AllToAllV(rank, send.data(),
                            std::vector<int64_t>(kSweepRanks, kSweepBlock), recv->data(),
                            static_cast<int64_t>(recv->size()), &recv_counts);
    }
    case CommOp::kExchangeScalars:
      return comm.ExchangeScalars(rank, rank + 1.0, scalars);
  }
  return Internal("unknown op");
}

TEST_P(CommunicatorFaultTest, CrashFailsEveryRankLoudlyThenRecovers) {
  const CommOp op = GetParam();
  FlatCommunicator comm(kSweepRanks);
  comm.SetCollectiveTimeout(10000.0);  // backstop: never a hang
  FaultPlan plan(3);
  plan.AddCrash(kCulprit, /*at_op=*/1);
  comm.set_fault_plan(&plan);

  const size_t recv_size = static_cast<size_t>(kSweepRanks * kSweepBlock);
  std::vector<Status> clean(kSweepRanks), failed(kSweepRanks), recovered(kSweepRanks);
  std::vector<char> untouched(kSweepRanks, 0);
  std::vector<int> suspect(kSweepRanks, -1);
  size_t events_after_failure = 0;
  RunOnRanks(kSweepRanks, [&](int rank) {
    const size_t r = static_cast<size_t>(rank);
    std::vector<float> recv(recv_size, kSentinel);
    std::vector<double> scalars(kSweepRanks, kSentinel);
    clean[r] = RunSweepOp(comm, op, rank, &recv, &scalars);
    std::fill(recv.begin(), recv.end(), kSentinel);
    scalars.assign(kSweepRanks, kSentinel);
    failed[r] = RunSweepOp(comm, op, rank, &recv, &scalars);
    suspect[r] = comm.SuspectRank();
    untouched[r] = recv == std::vector<float>(recv_size, kSentinel) &&
                   scalars == std::vector<double>(kSweepRanks, kSentinel);
    comm.RecoveryBarrier(rank);
    if (rank == 0) {
      events_after_failure = comm.telemetry().Events().size();
    }
    comm.RecoveryBarrier(rank);  // the count above precedes every recovered op
    recovered[r] = RunSweepOp(comm, op, rank, &recv, &scalars);
  });

  EXPECT_EQ(plan.crashes_fired(), 1);
  // Only the clean op recorded events: none for the failed one.
  EXPECT_EQ(events_after_failure, static_cast<size_t>(kSweepRanks));
  for (int rank = 0; rank < kSweepRanks; ++rank) {
    const size_t r = static_cast<size_t>(rank);
    EXPECT_TRUE(clean[r].ok()) << rank << ": " << clean[r].ToString();
    EXPECT_EQ(failed[r].code(), StatusCode::kAborted) << rank;
    EXPECT_NE(failed[r].message().find("rank " + std::to_string(kCulprit)),
              std::string::npos)
        << rank << ": " << failed[r].ToString();
    EXPECT_EQ(suspect[r], kCulprit) << rank;
    EXPECT_TRUE(untouched[r]) << rank;
    EXPECT_TRUE(recovered[r].ok()) << rank << ": " << recovered[r].ToString();
  }
  EXPECT_EQ(comm.SuspectRank(), -1);  // recovery clears the attribution
  EXPECT_TRUE(comm.GroupStatus().ok());
  // Exactly one event per rank for the recovered op, none for the failed one.
  std::vector<int> per_rank(kSweepRanks, 0);
  for (const CommEvent& event : comm.telemetry().Events()) {
    EXPECT_EQ(event.op, op);
    ++per_rank[static_cast<size_t>(event.rank)];
  }
  EXPECT_EQ(per_rank, std::vector<int>(kSweepRanks, 2));
}

INSTANTIATE_TEST_SUITE_P(
    Ops, CommunicatorFaultTest,
    ::testing::Values(CommOp::kBarrier, CommOp::kAllGather, CommOp::kReduceScatter,
                      CommOp::kAllReduce, CommOp::kBroadcast, CommOp::kAllToAll,
                      CommOp::kAllToAllV, CommOp::kExchangeScalars),
    [](const ::testing::TestParamInfo<CommOp>& param_info) {
      return std::string(CommOpName(param_info.param));
    });

// --- Async chunked collective faults ----------------------------------------

TEST(AsyncCommFaultTest, CrashMidPipelineSurfacesFromWaitAllOnEveryRank) {
  const int n = 4;
  const int64_t count = 24;
  FlatCommunicator comm(n);
  comm.SetCollectiveTimeout(10000.0);  // backstop: never a hang
  FaultPlan plan(7);
  plan.AddCrash(/*rank=*/2, /*at_op=*/0);
  comm.set_fault_plan(&plan);

  std::vector<Status> statuses(static_cast<size_t>(n));
  const auto start = Clock::now();
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(static_cast<size_t>(count), static_cast<float>(rank));
    std::vector<float> recv(static_cast<size_t>(n) * count, -1.0f);
    // Rank 2 "dies" issuing this op: every peer's comm thread is already
    // committed to the chunk rendezvous, and every rank's WaitAll must
    // report the same sticky abort instead of hanging.
    auto handle = comm.StartAllGather(rank, send.data(), recv.data(), count, 4);
    statuses[static_cast<size_t>(rank)] = handle->WaitAll();
    comm.RecoveryBarrier(rank);
    // The comm-proxy thread and async channel survive recovery: a fresh
    // chunked op on the same communicator runs to completion.
    auto clean = comm.StartAllGather(rank, send.data(), recv.data(), count, 3);
    ASSERT_TRUE(clean->WaitAll().ok());
    for (int src = 0; src < n; ++src) {
      EXPECT_EQ(recv[static_cast<size_t>(src) * count], static_cast<float>(src));
    }
  });
  EXPECT_LT(ElapsedMs(start), 60000.0);
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kAborted);
    EXPECT_NE(status.message().find("rank 2"), std::string::npos);
  }
  EXPECT_TRUE(comm.GroupStatus().ok());
  EXPECT_EQ(plan.crashes_fired(), 1);
}

TEST(AsyncCommFaultTest, DroppedProducerHandleAbortsWithoutHangingOrLeaking) {
  const int n = 4;
  const int64_t count = 16;
  FlatCommunicator comm(n);
  comm.SetCollectiveTimeout(10000.0);
  std::vector<Status> statuses(static_cast<size_t>(n));
  const auto start = Clock::now();
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(static_cast<size_t>(n) * count, 1.0f);
    std::vector<float> recv(static_cast<size_t>(count), 0.0f);
    {
      // Producer-gated reduce-scatter, abandoned mid-pipeline: chunk 0 is
      // signalled and flows, chunks 1+ never get their inputs. Destroying
      // the handle must cancel the op and abort the channel so every peer's
      // comm thread unwinds out of its rendezvous instead of deadlocking.
      auto rs = comm.StartReduceScatter(rank, send.data(), recv.data(), count, 4);
      rs->SignalChunkReady(0);
    }  // dtor: cancel + abort + wait for the comm thread to retire the op
    statuses[static_cast<size_t>(rank)] = comm.GroupStatus();
    comm.RecoveryBarrier(rank);
    // Post-recovery the same comm-proxy thread drives a clean chunked op.
    auto rs = comm.StartReduceScatter(rank, send.data(), recv.data(), count, 2);
    for (int c = 0; c < rs->num_chunks(); ++c) {
      rs->SignalChunkReady(c);
    }
    ASSERT_TRUE(rs->WaitAll().ok());
    EXPECT_EQ(recv[0], static_cast<float>(n));
  });
  EXPECT_LT(ElapsedMs(start), 60000.0);
  for (const Status& status : statuses) {
    EXPECT_FALSE(status.ok()) << "abandoned pipeline must poison the channel";
  }
  EXPECT_TRUE(comm.GroupStatus().ok());
}

TEST(AsyncCommFaultTest, BitFlipThroughChunkedOpCorruptsExactlyOneBit) {
  const int n = 2;
  const int64_t count = 20;
  FlatCommunicator clean(n), faulty(n);
  FaultPlan plan(13);
  plan.AddBitFlip(/*rank=*/1, /*at_op=*/0);
  faulty.set_fault_plan(&plan);

  std::vector<std::vector<float>> clean_out(static_cast<size_t>(n)),
      faulty_out(static_cast<size_t>(n));
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      send[static_cast<size_t>(i)] = static_cast<float>(rank * 100 + i);
    }
    std::vector<float> a(static_cast<size_t>(n) * count), b(static_cast<size_t>(n) * count);
    auto ch = clean.StartAllGather(rank, send.data(), a.data(), count, 3);
    ASSERT_TRUE(ch->WaitAll().ok());
    auto fh = faulty.StartAllGather(rank, send.data(), b.data(), count, 3);
    ASSERT_TRUE(fh->WaitAll().ok());
    clean_out[static_cast<size_t>(rank)] = std::move(a);
    faulty_out[static_cast<size_t>(rank)] = std::move(b);
  });

  // The injected flip hits rank 1's receive path only, and exactly one bit.
  EXPECT_EQ(clean_out[0], faulty_out[0]);
  int differing_bits = 0;
  for (size_t i = 0; i < clean_out[1].size(); ++i) {
    uint32_t x, y;
    std::memcpy(&x, &clean_out[1][i], sizeof(x));
    std::memcpy(&y, &faulty_out[1][i], sizeof(y));
    uint32_t diff = x ^ y;
    while (diff != 0) {
      differing_bits += static_cast<int>(diff & 1u);
      diff >>= 1;
    }
  }
  EXPECT_EQ(differing_bits, 1);
  EXPECT_EQ(plan.bit_flips_fired(), 1);
}

TEST(AsyncCommFaultTest, ChunkedOpsIssuedAfterAnAbortReturnItOnEveryRank) {
  // The abort lands before any rank's first Start*: the async channel must
  // carry it like the world group does, so no chunked op completes on a
  // cancelled communicator.
  const int n = 2;
  const int64_t count = 6;
  FlatCommunicator comm(n);
  comm.SetCollectiveTimeout(10000.0);  // backstop: never a hang
  comm.Abort(Aborted("abort before any chunked op"));

  std::vector<std::vector<Status>> statuses(static_cast<size_t>(n));
  std::vector<char> untouched(static_cast<size_t>(n), 0);
  RunOnRanks(n, [&](int rank) {
    const std::vector<float> send(static_cast<size_t>(n) * count,
                                  static_cast<float>(rank + 1));
    std::vector<float> gathered(static_cast<size_t>(n) * count, kSentinel);
    std::vector<float> reduced(static_cast<size_t>(count), kSentinel);
    std::vector<float> exchanged;
    std::vector<Status>& mine = statuses[static_cast<size_t>(rank)];
    mine.push_back(comm.StartAllGather(rank, send.data(), gathered.data(), count, 2)->WaitAll());
    auto rs = comm.StartReduceScatter(rank, send.data(), reduced.data(), count, 2);
    for (int c = 0; c < rs->num_chunks(); ++c) {
      rs->SignalChunkReady(c);
    }
    mine.push_back(rs->WaitAll());
    mine.push_back(comm.StartAllToAllV(rank, send.data(), std::vector<int64_t>(n, count),
                                       &exchanged, 2)
                       ->WaitAll());
    untouched[static_cast<size_t>(rank)] =
        gathered == std::vector<float>(gathered.size(), kSentinel) &&
        reduced == std::vector<float>(reduced.size(), kSentinel) && exchanged.empty();
  });
  for (int rank = 0; rank < n; ++rank) {
    const std::vector<Status>& mine = statuses[static_cast<size_t>(rank)];
    ASSERT_EQ(mine.size(), 3u);
    for (size_t op = 0; op < mine.size(); ++op) {
      EXPECT_EQ(mine[op].code(), StatusCode::kAborted) << "rank " << rank << " op " << op;
      EXPECT_NE(mine[op].message().find("abort before any chunked op"), std::string::npos)
          << "rank " << rank << " op " << op << ": " << mine[op].ToString();
    }
    EXPECT_TRUE(untouched[static_cast<size_t>(rank)]) << rank;
  }
}

// --- Hierarchical all-reduce under a sub-group abort -------------------------

// One sub-group of a 2 x 2 HierarchicalComm is aborted before the call. A
// rank whose sub-step fails fans the returned status out to every
// sub-group, as a caller of the hierarchy must (a peer may be blocked in
// any of them); the first status sticks, so every rank's AllReduce returns
// the original abort and no rank writes recv.
class HierarchicalCommFaultTest : public ::testing::TestWithParam<bool> {};

TEST_P(HierarchicalCommFaultTest, SubGroupAbortFailsEveryRankWithoutWritingRecv) {
  const bool abort_intra = GetParam();
  const int nodes = 2, per_node = 2, world = nodes * per_node;
  const int64_t count = 5;
  HierarchicalComm hier(nodes, per_node);
  // IntraGroup / InterGroup take a global rank: node * per_node + local.
  auto for_each_group = [&](const std::function<void(CollectiveGroup&)>& fn) {
    for (int node = 0; node < nodes; ++node) {
      fn(hier.IntraGroup(node * per_node));
    }
    for (int local = 0; local < per_node; ++local) {
      fn(hier.InterGroup(local));
    }
  };
  for_each_group([](CollectiveGroup& group) { group.set_timeout_ms(10000.0); });  // backstop
  // Intra: node 0's group (ranks 0, 1). Inter: local index 1 (ranks 1, 3).
  CollectiveGroup& victim = abort_intra ? hier.IntraGroup(0) : hier.InterGroup(1);
  victim.Abort(Aborted("sub-group aborted before the all-reduce"));

  std::vector<Status> statuses(static_cast<size_t>(world));
  std::vector<char> untouched(static_cast<size_t>(world), 0);
  RunOnRanks(world, [&](int rank) {
    const std::vector<float> send(static_cast<size_t>(count), static_cast<float>(rank + 1));
    std::vector<float> recv(static_cast<size_t>(count), kSentinel);
    const Status status = hier.AllReduce(rank, send.data(), recv.data(), count);
    if (!status.ok()) {
      for_each_group([&](CollectiveGroup& group) { group.Abort(status); });
    }
    statuses[static_cast<size_t>(rank)] = status;
    untouched[static_cast<size_t>(rank)] =
        recv == std::vector<float>(static_cast<size_t>(count), kSentinel);
  });
  for (int rank = 0; rank < world; ++rank) {
    const Status& status = statuses[static_cast<size_t>(rank)];
    EXPECT_EQ(status.code(), StatusCode::kAborted) << rank;
    EXPECT_NE(status.message().find("sub-group aborted before"), std::string::npos)
        << rank << ": " << status.ToString();
    EXPECT_TRUE(untouched[static_cast<size_t>(rank)]) << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(IntraOrInter, HierarchicalCommFaultTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return std::string(param_info.param ? "Intra" : "Inter");
                         });

// --- Fused EP pipeline under a crash ----------------------------------------

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// The kAllToAll backward Starts its dx return chunks from inside exec-graph
// ops, so a rank that dies issuing return chunk 1 aborts graphs in which
// the later Starts never run on some ranks. Every rank must still return
// (peer comm threads unwind instead of waiting on the missing Starts), see
// the abort, and after RecoveryBarrier rerun the backward bitwise equal to
// a fault-free run.
TEST(EpPipelineFaultTest, CrashDuringDxReturnAbortsEveryRankThenRerunsBitwise) {
  const int n = 4;
  const int chunks = 4;
  ModelConfig config = TinyMoeConfig(8, 2);
  config.hidden = 16;
  config.ffn_hidden = 12;
  const int64_t t_local = 8;
  Rng rng(23);
  std::vector<Tensor> w1, w3, w2;
  for (int64_t e = 0; e < config.num_experts; ++e) {
    w1.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.2f));
    w3.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.2f));
    w2.push_back(Tensor::Randn({config.ffn_hidden, config.hidden}, rng, 0.0f, 0.2f));
  }
  const Tensor w_gate = Tensor::Randn({config.hidden, config.num_experts}, rng, 0.0f, 0.3f);
  const Tensor x_full = Tensor::Randn({n * t_local, config.hidden}, rng);
  const Tensor dy_full = Tensor::Randn({n * t_local, config.hidden}, rng);
  RouterConfig router;
  router.num_experts = config.num_experts;
  router.top_k = config.top_k;

  EpPipelineConfig pc;
  pc.num_chunks = chunks;
  FlatCommunicator comm(n);
  comm.SetCollectiveTimeout(10000.0);  // backstop: never a hang
  std::vector<RoutingResult> routings(static_cast<size_t>(n));
  std::vector<EpFfnCache> caches(static_cast<size_t>(n));
  const auto backward = [&](int rank) {
    const size_t r = static_cast<size_t>(rank);
    ShardContext ctx{&comm, rank};
    return EpFfnBackward(ctx, config, EpDispatchMode::kAllToAll, w1, w3, w2,
                         dy_full.SliceRows(rank * t_local, (rank + 1) * t_local),
                         routings[r], caches[r]);
  };
  std::vector<EpFfnGrads> clean(static_cast<size_t>(n));
  RunOnRanks(n, [&](int rank) {
    const size_t r = static_cast<size_t>(rank);
    ShardContext ctx{&comm, rank};
    Tensor x_local = x_full.SliceRows(rank * t_local, (rank + 1) * t_local);
    routings[r] = RouteTokens(MatMul(x_local, w_gate), router);
    EpFfnForward(ctx, config, EpDispatchMode::kAllToAll, w1, w3, w2, x_local, routings[r],
                 &caches[r], pc);
    clean[r] = backward(rank);
  });

  // Op indices count from the plan's installation: a backward issues
  // `chunks` dy Starts, then `chunks` return Starts.
  FaultPlan plan(31);
  plan.AddCrash(/*rank=*/2, /*at_op=*/chunks + 1);
  comm.set_fault_plan(&plan);
  std::vector<Status> failed(static_cast<size_t>(n));
  std::vector<EpFfnGrads> rerun(static_cast<size_t>(n));
  const auto start = Clock::now();
  RunOnRanks(n, [&](int rank) {
    backward(rank);
    failed[static_cast<size_t>(rank)] = comm.GroupStatus();
    comm.RecoveryBarrier(rank);
    rerun[static_cast<size_t>(rank)] = backward(rank);
  });
  EXPECT_LT(ElapsedMs(start), 60000.0);
  comm.set_fault_plan(nullptr);

  EXPECT_EQ(plan.crashes_fired(), 1);
  EXPECT_TRUE(comm.GroupStatus().ok());
  for (int rank = 0; rank < n; ++rank) {
    const size_t r = static_cast<size_t>(rank);
    EXPECT_EQ(failed[r].code(), StatusCode::kAborted) << rank;
    EXPECT_NE(failed[r].message().find("rank 2"), std::string::npos) << rank;
    EXPECT_TRUE(BitwiseEqual(rerun[r].dx_local, clean[r].dx_local)) << rank;
    EXPECT_TRUE(BitwiseEqual(rerun[r].dcombine_local, clean[r].dcombine_local)) << rank;
    ASSERT_EQ(rerun[r].dw1.size(), clean[r].dw1.size()) << rank;
    for (size_t e = 0; e < clean[r].dw1.size(); ++e) {
      EXPECT_TRUE(BitwiseEqual(rerun[r].dw1[e], clean[r].dw1[e])) << rank << " " << e;
      EXPECT_TRUE(BitwiseEqual(rerun[r].dw3[e], clean[r].dw3[e])) << rank << " " << e;
      EXPECT_TRUE(BitwiseEqual(rerun[r].dw2[e], clean[r].dw2[e])) << rank << " " << e;
    }
  }
}

// The fused A2A dispatch sizes its metadata receive buffer for every rank
// holding as many tokens as this one. A peer holding more must fail the
// all-to-all on EVERY rank with kInvalidArgument instead of overrunning the
// buffer (under ASan an overrun would be reported). Rank 1 holds three
// times rank 0's tokens and routes every copy to rank 0's expert.
TEST(EpCapacityTest, PeerWithMoreTokensFailsEveryRankInsteadOfOverrunning) {
  const int n = 2;
  ModelConfig config = TinyMoeConfig(4, 1);
  config.hidden = 8;
  config.ffn_hidden = 8;
  Rng rng(17);
  std::vector<Tensor> w1, w3, w2;
  for (int64_t e = 0; e < config.num_experts; ++e) {
    w1.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.2f));
    w3.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.2f));
    w2.push_back(Tensor::Randn({config.ffn_hidden, config.hidden}, rng, 0.0f, 0.2f));
  }
  RouterConfig router;
  router.num_experts = config.num_experts;
  router.top_k = config.top_k;

  FlatCommunicator comm(n);
  comm.SetCollectiveTimeout(10000.0);  // backstop: never a hang
  std::vector<Status> status(static_cast<size_t>(n));
  std::vector<char> zero_output(static_cast<size_t>(n), 0);
  RunOnRanks(n, [&](int rank) {
    const int64_t tokens = rank == 0 ? 2 : 6;
    Tensor logits({tokens, config.num_experts});
    for (int64_t t = 0; t < tokens; ++t) {
      logits.At(t, 0) = 10.0f;  // expert 0 lives on rank 0
    }
    Rng x_rng(static_cast<uint64_t>(rank) + 1);
    const Tensor x_local = Tensor::Randn({tokens, config.hidden}, x_rng);
    EpFfnCache cache;
    ShardContext ctx{&comm, rank};
    const Tensor y = EpFfnForward(ctx, config, EpDispatchMode::kAllToAll, w1, w3, w2,
                                  x_local, RouteTokens(logits, router), &cache);
    status[static_cast<size_t>(rank)] = comm.GroupStatus();
    zero_output[static_cast<size_t>(rank)] = BitwiseEqual(y, Tensor({tokens, config.hidden}));
  });
  for (int rank = 0; rank < n; ++rank) {
    const Status& s = status[static_cast<size_t>(rank)];
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << rank << ": " << s.ToString();
    EXPECT_NE(s.message().find("member 0"), std::string::npos) << s.ToString();
    EXPECT_TRUE(zero_output[static_cast<size_t>(rank)]) << rank;
  }
}

// The kAllGatherScatter forward and backward Start producer-gated
// reduce-scatters before their graphs run; the graph ops signal them chunk
// by chunk. A rank that dies issuing one of those Starts aborts graphs in
// which some chunks are never signalled, so destroying the handles must
// cancel them mid-graph. Every rank must still return, see the abort, and
// after RecoveryBarrier rerun bitwise equal to a fault-free run. Op indices
// count from the plan's installation: the forward issues the routing
// all-gather, the token all-gather Start, then the reduce-scatter Start
// (op 2); the backward issues the dy all-gather Start, then the dx
// reduce-scatter Start (op 1).
TEST(EpPipelineFaultTest, CrashAtAllGatherModeReduceScatterStartRerunsBitwise) {
  const int n = 4;
  ModelConfig config = TinyMoeConfig(8, 4);
  config.hidden = 16;
  config.ffn_hidden = 12;
  const int64_t t_local = 8;
  const EpDispatchMode mode = EpDispatchMode::kAllGatherScatter;
  Rng rng(29);
  std::vector<Tensor> w1, w3, w2;
  for (int64_t e = 0; e < config.num_experts; ++e) {
    w1.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.2f));
    w3.push_back(Tensor::Randn({config.hidden, config.ffn_hidden}, rng, 0.0f, 0.2f));
    w2.push_back(Tensor::Randn({config.ffn_hidden, config.hidden}, rng, 0.0f, 0.2f));
  }
  const Tensor w_gate = Tensor::Randn({config.hidden, config.num_experts}, rng, 0.0f, 0.3f);
  const Tensor x_full = Tensor::Randn({n * t_local, config.hidden}, rng);
  const Tensor dy_full = Tensor::Randn({n * t_local, config.hidden}, rng);
  RouterConfig router;
  router.num_experts = config.num_experts;
  router.top_k = config.top_k;

  EpPipelineConfig pc;
  pc.num_chunks = 4;
  for (const bool in_backward : {false, true}) {
    SCOPED_TRACE(in_backward ? "crash at the dx reduce-scatter Start"
                             : "crash at the forward reduce-scatter Start");
    FlatCommunicator comm(n);
    comm.SetCollectiveTimeout(10000.0);  // backstop: never a hang
    std::vector<RoutingResult> routings(static_cast<size_t>(n));
    std::vector<EpFfnCache> caches(static_cast<size_t>(n));
    const auto forward = [&](int rank, EpFfnCache* cache) {
      ShardContext ctx{&comm, rank};
      return EpFfnForward(ctx, config, mode, w1, w3, w2,
                          x_full.SliceRows(rank * t_local, (rank + 1) * t_local),
                          routings[static_cast<size_t>(rank)], cache, pc);
    };
    const auto backward = [&](int rank, const EpFfnCache& cache) {
      ShardContext ctx{&comm, rank};
      return EpFfnBackward(ctx, config, mode, w1, w3, w2,
                           dy_full.SliceRows(rank * t_local, (rank + 1) * t_local),
                           routings[static_cast<size_t>(rank)], cache);
    };
    std::vector<Tensor> clean_y(static_cast<size_t>(n)), rerun_y(static_cast<size_t>(n));
    std::vector<EpFfnGrads> clean(static_cast<size_t>(n)), rerun(static_cast<size_t>(n));
    RunOnRanks(n, [&](int rank) {
      const size_t r = static_cast<size_t>(rank);
      routings[r] = RouteTokens(
          MatMul(x_full.SliceRows(rank * t_local, (rank + 1) * t_local), w_gate), router);
      clean_y[r] = forward(rank, &caches[r]);
      clean[r] = backward(rank, caches[r]);
    });

    FaultPlan plan(31);
    plan.AddCrash(/*rank=*/2, /*at_op=*/in_backward ? 1 : 2);
    comm.set_fault_plan(&plan);
    std::vector<Status> failed(static_cast<size_t>(n));
    const auto start = Clock::now();
    RunOnRanks(n, [&](int rank) {
      const size_t r = static_cast<size_t>(rank);
      if (in_backward) {
        backward(rank, caches[r]);
      } else {
        EpFfnCache cache;
        forward(rank, &cache);
      }
      failed[r] = comm.GroupStatus();
      comm.RecoveryBarrier(rank);
      EpFfnCache cache;
      rerun_y[r] = forward(rank, &cache);
      rerun[r] = backward(rank, cache);
    });
    EXPECT_LT(ElapsedMs(start), 60000.0);
    comm.set_fault_plan(nullptr);

    EXPECT_EQ(plan.crashes_fired(), 1);
    EXPECT_TRUE(comm.GroupStatus().ok());
    for (int rank = 0; rank < n; ++rank) {
      const size_t r = static_cast<size_t>(rank);
      EXPECT_EQ(failed[r].code(), StatusCode::kAborted) << rank;
      EXPECT_NE(failed[r].message().find("rank 2"), std::string::npos) << rank;
      EXPECT_TRUE(BitwiseEqual(rerun_y[r], clean_y[r])) << rank;
      EXPECT_TRUE(BitwiseEqual(rerun[r].dx_local, clean[r].dx_local)) << rank;
      EXPECT_TRUE(BitwiseEqual(rerun[r].dcombine_local, clean[r].dcombine_local)) << rank;
      ASSERT_EQ(rerun[r].dw1.size(), clean[r].dw1.size()) << rank;
      for (size_t e = 0; e < clean[r].dw1.size(); ++e) {
        EXPECT_TRUE(BitwiseEqual(rerun[r].dw1[e], clean[r].dw1[e])) << rank << " " << e;
        EXPECT_TRUE(BitwiseEqual(rerun[r].dw3[e], clean[r].dw3[e])) << rank << " " << e;
        EXPECT_TRUE(BitwiseEqual(rerun[r].dw2[e], clean[r].dw2[e])) << rank << " " << e;
      }
    }
  }
}

// --- Straggler detection ----------------------------------------------------

std::vector<CommEvent> SyntheticEvents(int ranks, int collectives, int slow_rank,
                                       double lag_us) {
  std::vector<CommEvent> events;
  for (int i = 0; i < collectives; ++i) {
    for (int rank = 0; rank < ranks; ++rank) {
      CommEvent event;
      event.op = CommOp::kAllReduce;
      event.rank = rank;
      event.group_size = ranks;
      event.start_us = i * 1000.0 + (rank == slow_rank ? lag_us : 0.0);
      event.duration_us = 10.0;
      events.push_back(event);
    }
  }
  return events;
}

TEST(StragglerDetectorTest, FlagsOnlyTheLaggingRank) {
  const std::vector<CommEvent> events =
      SyntheticEvents(/*ranks=*/3, /*collectives=*/5, /*slow_rank=*/2, /*lag_us=*/500.0);
  StragglerConfig config;
  config.threshold_us = 100.0;
  config.min_collectives = 4;
  const StragglerReport report = DetectStragglers(events, config);
  ASSERT_EQ(report.ranks.size(), 3u);
  EXPECT_EQ(report.collectives_matched, 5);
  EXPECT_FALSE(report.ranks[0].straggler);
  EXPECT_FALSE(report.ranks[1].straggler);
  EXPECT_TRUE(report.ranks[2].straggler);
  EXPECT_NEAR(report.ranks[2].mean_entry_lag_us, 500.0, 1e-9);
  EXPECT_NEAR(report.ranks[2].max_entry_lag_us, 500.0, 1e-9);
  EXPECT_EQ(report.straggler_count(), 1);
}

TEST(StragglerDetectorTest, TooFewCollectivesNeverFlags) {
  const std::vector<CommEvent> events =
      SyntheticEvents(/*ranks=*/2, /*collectives=*/2, /*slow_rank=*/1, /*lag_us=*/900.0);
  StragglerConfig config;
  config.threshold_us = 100.0;
  config.min_collectives = 4;
  const StragglerReport report = DetectStragglers(events, config);
  EXPECT_EQ(report.straggler_count(), 0);
}

TEST(StragglerDetectorTest, RotatingLagFlagsNobody) {
  // Rank i % 4 enters collective i 4400 us late: every rank's mean lag is
  // 1100 us, above the default 1000 us threshold, but no rank lags its
  // peers — skew the whole group shares is not a straggler.
  std::vector<CommEvent> events;
  for (int i = 0; i < 8; ++i) {
    for (int rank = 0; rank < 4; ++rank) {
      CommEvent event;
      event.rank = rank;
      event.start_us = i * 10000.0 + (rank == i % 4 ? 4400.0 : 0.0);
      events.push_back(event);
    }
  }
  const StragglerReport report = DetectStragglers(events);
  ASSERT_EQ(report.ranks.size(), 4u);
  for (const RankHealth& health : report.ranks) {
    EXPECT_DOUBLE_EQ(health.mean_entry_lag_us, 1100.0) << "rank " << health.rank;
  }
  EXPECT_EQ(report.straggler_count(), 0);
}

TEST(StragglerDetectorTest, MatchesOnlyTheRanksOwnEntries) {
  // Every rank enters its collectives on time; rank 2's async-lane chunks
  // (started by its comm proxy) start 5 ms after its peers'. Proxy starts
  // are not rank entries, so rank 2 is healthy.
  std::vector<CommEvent> events;
  for (int i = 0; i < 6; ++i) {
    for (int rank = 0; rank < 3; ++rank) {
      CommEvent entry;
      entry.rank = rank;
      entry.start_us = i * 10000.0;
      events.push_back(entry);
      CommEvent chunk = entry;
      chunk.async_lane = true;
      chunk.start_us += 2000.0 + (rank == 2 ? 5000.0 : 0.0);
      events.push_back(chunk);
    }
  }
  const StragglerReport report = DetectStragglers(events);
  ASSERT_EQ(report.ranks.size(), 3u);
  EXPECT_EQ(report.collectives_matched, 6);
  EXPECT_DOUBLE_EQ(report.ranks[2].mean_entry_lag_us, 0.0);
  EXPECT_EQ(report.straggler_count(), 0);
}

TEST(StragglerDetectorTest, DetectsInjectedSlowRankOnLiveCommunicator) {
  auto comm = std::make_unique<Communicator>(3);
  FaultPlan plan(17);
  plan.AddSlowRank(/*rank=*/2, /*delay_us=*/30000.0);
  comm->set_fault_plan(&plan);
  RunOnRanks(3, [&](int rank) {
    float send = 1.0f;
    float recv = 0.0f;
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(comm->AllReduce(rank, &send, &recv, 1).ok());
    }
  });
  StragglerConfig config;
  config.threshold_us = 10000.0;  // injected 30 ms vs sub-ms natural skew
  const StragglerReport report =
      DetectStragglers(comm->telemetry().Events(), config);
  ASSERT_EQ(report.ranks.size(), 3u);
  EXPECT_FALSE(report.ranks[0].straggler);
  EXPECT_FALSE(report.ranks[1].straggler);
  EXPECT_TRUE(report.ranks[2].straggler);
  EXPECT_GT(report.ranks[2].mean_entry_lag_us, 10000.0);
}

TEST(StragglerDetectorTest, FlagsAppearInChromeTrace) {
  const std::vector<CommEvent> events =
      SyntheticEvents(/*ranks=*/2, /*collectives=*/5, /*slow_rank=*/1, /*lag_us=*/800.0);
  StragglerConfig config;
  config.threshold_us = 100.0;
  const StragglerReport report = DetectStragglers(events, config);
  const std::string trace = CommEventsToChromeTrace(events, "fault-test", &report);
  EXPECT_NE(trace.find("rank 1 [STRAGGLER]"), std::string::npos);
  EXPECT_NE(trace.find("\"straggler\""), std::string::npos);
  EXPECT_NE(trace.find("mean_entry_lag_us"), std::string::npos);
  // The healthy rank is not renamed.
  EXPECT_NE(trace.find("\"rank 0\""), std::string::npos);
}

// --- Checkpoint v2: round trip, atomicity, corruption matrix ----------------

class CheckpointFile : public ::testing::Test {
 protected:
  void SetUp() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  static bool Exists(const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file != nullptr) {
      std::fclose(file);
      return true;
    }
    return false;
  }

  static std::vector<uint8_t> ReadAll(const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    MSMOE_CHECK(file != nullptr);
    std::vector<uint8_t> bytes;
    uint8_t buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      bytes.insert(bytes.end(), buffer, buffer + n);
    }
    std::fclose(file);
    return bytes;
  }

  static void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    MSMOE_CHECK(file != nullptr);
    MSMOE_CHECK_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
  }

  LmParams MakeParams() {
    ModelConfig model = TinyMoeConfig(2, 1);
    model.num_layers = 1;
    model.vocab = 16;
    model.seq_len = 8;
    Rng rng(7);
    return LmParams::Init(model, rng);
  }

  // v2 header: magic(4) | version(4) | param_count(8) | opt_count(8) | crc(4).
  static constexpr size_t kHeaderBytes = 28;
  const std::string path_ = "fault_test_checkpoint.bin";
};

TEST_F(CheckpointFile, RoundTripsAndLeavesNoTempFile) {
  LmParams params = MakeParams();
  const std::vector<float> opt = {1.5f, -2.25f, 3.0f};
  ASSERT_TRUE(SaveCheckpoint(path_, params, opt).ok());
  EXPECT_FALSE(Exists(path_ + ".tmp"));

  Result<Checkpoint> loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().params, FlattenParams(params));
  EXPECT_EQ(loaded.value().optimizer_state, opt);
  EXPECT_TRUE(RestoreParams(params, loaded.value().params).ok());
}

TEST_F(CheckpointFile, SaveOverwritesAtomicallyAndClearsStaleTemp) {
  LmParams params = MakeParams();
  ASSERT_TRUE(SaveCheckpoint(path_, params, {1.0f}).ok());
  // A stale temp from a simulated crashed writer must not break the next
  // save or leak into the loaded state.
  WriteAll(path_ + ".tmp", {0xDE, 0xAD, 0xBE, 0xEF});
  ASSERT_TRUE(SaveCheckpoint(path_, params, {2.0f}).ok());
  EXPECT_FALSE(Exists(path_ + ".tmp"));
  Result<Checkpoint> loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().optimizer_state, std::vector<float>{2.0f});
}

TEST_F(CheckpointFile, MissingFileFailsCleanly) {
  EXPECT_EQ(LoadCheckpoint("does_not_exist.bin").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointFile, CorruptionMatrixRejectsEveryDamagedVariant) {
  LmParams params = MakeParams();
  ASSERT_TRUE(SaveCheckpoint(path_, params, {4.0f, 5.0f}).ok());
  const std::vector<uint8_t> good = ReadAll(path_);
  ASSERT_GT(good.size(), kHeaderBytes);

  {  // Truncated header.
    WriteAll(path_, std::vector<uint8_t>(good.begin(), good.begin() + 10));
    const Status status = LoadCheckpoint(path_).status();
    ASSERT_FALSE(status.ok());
  }
  {  // Truncated payload.
    WriteAll(path_, std::vector<uint8_t>(good.begin(), good.end() - 5));
    const Status status = LoadCheckpoint(path_).status();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("truncated"), std::string::npos);
  }
  {  // Bad magic.
    std::vector<uint8_t> bytes = good;
    bytes[0] ^= 0xFF;
    WriteAll(path_, bytes);
    const Status status = LoadCheckpoint(path_).status();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("not a MegaScale-MoE checkpoint"),
              std::string::npos);
  }
  {  // Unsupported version.
    std::vector<uint8_t> bytes = good;
    const uint32_t version = 99;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    WriteAll(path_, bytes);
    const Status status = LoadCheckpoint(path_).status();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("version"), std::string::npos);
  }
  {  // Flipped payload bit -> CRC mismatch.
    std::vector<uint8_t> bytes = good;
    bytes[kHeaderBytes + 3] ^= 0x01;
    WriteAll(path_, bytes);
    const Status status = LoadCheckpoint(path_).status();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("CRC"), std::string::npos);
  }
  // The undamaged original still loads.
  WriteAll(path_, good);
  EXPECT_TRUE(LoadCheckpoint(path_).ok());
}

TEST_F(CheckpointFile, RestoreParamsRejectsSizeMismatch) {
  LmParams params = MakeParams();
  std::vector<float> wrong_size = FlattenParams(params);
  wrong_size.pop_back();
  EXPECT_EQ(RestoreParams(params, wrong_size).code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointFile, Version1FilesStillLoad) {
  const std::vector<float> v1_params = {1.0f, 2.0f, 3.0f};
  const std::vector<float> v1_opt = {4.0f, 5.0f};
  // v1 layout: magic | u32 version=1 | u64 counts | payload, no CRC word.
  std::vector<uint8_t> bytes;
  const char magic[4] = {'M', 'S', 'M', 'C'};
  const uint32_t version = 1;
  const uint64_t param_count = v1_params.size();
  const uint64_t opt_count = v1_opt.size();
  auto append = [&bytes](const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + n);
  };
  append(magic, sizeof(magic));
  append(&version, sizeof(version));
  append(&param_count, sizeof(param_count));
  append(&opt_count, sizeof(opt_count));
  append(v1_params.data(), v1_params.size() * sizeof(float));
  append(v1_opt.data(), v1_opt.size() * sizeof(float));
  WriteAll(path_, bytes);

  Result<Checkpoint> loaded = LoadCheckpoint(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().params, v1_params);
  EXPECT_EQ(loaded.value().optimizer_state, v1_opt);
}

// --- Trainer recovery loop --------------------------------------------------

NumericTrainConfig SmallTrainConfig() {
  NumericTrainConfig config;
  config.model = TinyMoeConfig(4, 2);
  config.model.num_layers = 1;
  config.model.vocab = 32;
  config.model.seq_len = 8;
  config.router.num_experts = 4;
  config.router.top_k = 2;
  config.dp_size = 2;
  config.batch_per_rank = 2;
  config.steps = 12;
  config.checkpoint_every = 4;
  config.collective_timeout_ms = 30000.0;
  return config;
}

void ExpectBitIdenticalLoss(const TrainCurve& expected, const TrainCurve& actual) {
  ASSERT_EQ(expected.loss.size(), actual.loss.size());
  for (size_t i = 0; i < expected.loss.size(); ++i) {
    EXPECT_EQ(expected.loss[i], actual.loss[i]) << "step " << i;
  }
}

TEST(TrainerRecoveryTest, CrashRestoresFromFileCheckpointBitIdentically) {
  const std::string path = "fault_test_trainer_checkpoint.bin";
  std::remove(path.c_str());

  NumericTrainConfig clean_config = SmallTrainConfig();
  const TrainCurve clean = TrainLm(clean_config);
  ASSERT_TRUE(clean.recoveries.empty());

  // Per-rank op layout (2 ops/step + snapshot barrier at steps 4 and 8):
  // op 13 is step 6's reduce-scatter, so the crash lands between the step-4
  // and step-8 checkpoints.
  FaultPlan plan(2);
  plan.AddCrash(/*rank=*/1, /*at_op=*/13);
  NumericTrainConfig faulty_config = SmallTrainConfig();
  faulty_config.fault_plan = &plan;
  faulty_config.checkpoint_path = path;
  const TrainCurve recovered = TrainLm(faulty_config);

  ASSERT_EQ(recovered.recoveries.size(), 1u);
  // The crash fires at step 6's reduce-scatter. The abort can surface on
  // rank 0's status check while it is still completing step 5, but
  // failed_step is the crashing rank's step, so it does not depend on when
  // rank 0 looked.
  EXPECT_EQ(recovered.recoveries[0].failed_step, 6);
  EXPECT_EQ(recovered.recoveries[0].resumed_step, 4);
  EXPECT_EQ(recovered.recoveries[0].steps_lost,
            recovered.recoveries[0].failed_step - 4);
  EXPECT_NE(recovered.recoveries[0].cause.find("ABORTED"), std::string::npos);
  EXPECT_EQ(plan.crashes_fired(), 1);
  ExpectBitIdenticalLoss(clean, recovered);
  std::remove(path.c_str());
}

TEST(TrainerRecoveryTest, BitFlipCaughtByChecksumGuardAndRecovered) {
  NumericTrainConfig clean_config = SmallTrainConfig();
  clean_config.steps = 10;
  clean_config.checkpoint_every = 3;
  clean_config.guard_grad_checksum = true;
  const TrainCurve clean = TrainLm(clean_config);
  ASSERT_TRUE(clean.recoveries.empty());

  // With the guard, steps cost 3 ops (+1 snapshot barrier every 3 steps);
  // op 14 is step 4's all-gather — corrupting its receive buffer diverges
  // exactly one replica, which the cross-rank checksum must catch.
  FaultPlan plan(9);
  plan.AddBitFlip(/*rank=*/0, /*at_op=*/14);
  NumericTrainConfig faulty_config = clean_config;
  faulty_config.fault_plan = &plan;
  const TrainCurve recovered = TrainLm(faulty_config);

  ASSERT_EQ(recovered.recoveries.size(), 1u);
  EXPECT_EQ(recovered.recoveries[0].failed_step, 4);
  EXPECT_EQ(recovered.recoveries[0].resumed_step, 3);
  EXPECT_NE(recovered.recoveries[0].cause.find("checksum"), std::string::npos);
  EXPECT_EQ(plan.bit_flips_fired(), 1);
  ExpectBitIdenticalLoss(clean, recovered);
}

TEST(TrainerRecoveryTest, GuardAbortInTheLastStepRecoversOnEveryRank) {
  // The checksum guard aborts after its exchange, so a peer may already
  // have read OK. Mid-run the next step's collectives carry the abort to
  // it; after the last step only TrainLm's exit barrier does. Without it
  // the peer leaves the loop and the aborting rank waits in RecoveryBarrier
  // forever.
  NumericTrainConfig clean_config = SmallTrainConfig();
  clean_config.guard_grad_checksum = true;
  clean_config.capture_comm_events = true;
  const TrainCurve clean = TrainLm(clean_config);
  ASSERT_TRUE(clean.recoveries.empty());

  // Rank 1's op index of the last step's guard exchange: flipping a bit of
  // its receive buffer makes rank 1 alone see a mismatch.
  std::vector<CommEvent> rank1;
  for (const CommEvent& event : clean.comm_events) {
    if (event.rank == 1) rank1.push_back(event);
  }
  std::sort(rank1.begin(), rank1.end(), [](const CommEvent& a, const CommEvent& b) {
    return a.start_us < b.start_us;
  });
  int64_t last_guard = -1;
  for (size_t i = 0; i < rank1.size(); ++i) {
    if (rank1[i].op == CommOp::kExchangeScalars) last_guard = static_cast<int64_t>(i);
  }
  ASSERT_GE(last_guard, 0);

  // The plan seed picks the flipped bit: seed 4 lands in rank 1's copy of
  // its OWN checksum, seed 5 in rank 1's copy of rank 0's. The
  // guard must name the latter as corruption in the exchange, never as a
  // rank disagreeing with itself, and still abort and recover.
  struct Case {
    uint64_t seed;
    const char* expected_cause;
  };
  for (const Case& c : {Case{4, "rank 1's own checksum arrived corrupted"},
                        Case{5, "rank 1 disagrees with rank 0"}}) {
    SCOPED_TRACE("plan seed " + std::to_string(c.seed));
    FaultPlan plan(c.seed);
    plan.AddBitFlip(/*rank=*/1, last_guard);
    NumericTrainConfig faulty_config = clean_config;
    faulty_config.capture_comm_events = false;
    faulty_config.fault_plan = &plan;
    const TrainCurve recovered = TrainLm(faulty_config);

    ASSERT_EQ(recovered.recoveries.size(), 1u);
    EXPECT_EQ(recovered.recoveries[0].failed_step, faulty_config.steps - 1);
    EXPECT_EQ(recovered.recoveries[0].resumed_step, 8);
    const std::string& cause = recovered.recoveries[0].cause;
    EXPECT_NE(cause.find("checksum"), std::string::npos) << cause;
    EXPECT_NE(cause.find(c.expected_cause), std::string::npos) << cause;
    EXPECT_EQ(cause.find("rank 1 disagrees with rank 1"), std::string::npos) << cause;
    EXPECT_EQ(plan.bit_flips_fired(), 1);
    ExpectBitIdenticalLoss(clean, recovered);
  }
}

TEST(TrainerRecoveryTest, CollectiveTimeoutTriggersRecoveryNotAHang) {
  NumericTrainConfig clean_config = SmallTrainConfig();
  clean_config.steps = 6;
  clean_config.checkpoint_every = 2;
  const TrainCurve clean = TrainLm(clean_config);

  // Rank 1 stalls 5 s at one op while peers time out after 1 s; the stall
  // window is one op long, so the replay runs clean.
  FaultPlan plan(4);
  plan.AddSlowRank(/*rank=*/1, /*delay_us=*/5e6, /*from_op=*/4, /*num_ops=*/1);
  NumericTrainConfig faulty_config = clean_config;
  faulty_config.fault_plan = &plan;
  faulty_config.collective_timeout_ms = 1000.0;
  const auto start = Clock::now();
  const TrainCurve recovered = TrainLm(faulty_config);
  EXPECT_LT(ElapsedMs(start), 120000.0);

  ASSERT_GE(recovered.recoveries.size(), 1u);
  EXPECT_NE(recovered.recoveries[0].cause.find("DEADLINE_EXCEEDED"),
            std::string::npos);
  ExpectBitIdenticalLoss(clean, recovered);
}

TEST(TrainerRecoveryTest, ZeroShardedRunRecoversFromInMemorySnapshots) {
  NumericTrainConfig clean_config = SmallTrainConfig();
  clean_config.zero_shard_optimizer = true;
  clean_config.steps = 10;
  clean_config.checkpoint_every = 3;
  const TrainCurve clean = TrainLm(clean_config);

  FaultPlan plan(8);
  plan.AddCrash(/*rank=*/0, /*at_op=*/12);
  NumericTrainConfig faulty_config = clean_config;
  faulty_config.fault_plan = &plan;
  const TrainCurve recovered = TrainLm(faulty_config);

  ASSERT_EQ(recovered.recoveries.size(), 1u);
  ExpectBitIdenticalLoss(clean, recovered);
}

// --- Simulated fault cost ---------------------------------------------------

TEST(FaultSimTest, NoEventsMatchesFaultFreeBaseline) {
  FaultSimConfig config;
  config.ranks = 4;
  config.iterations = 10;
  config.compute_us = 100.0;
  config.comm_us = 100.0;
  const FaultSimResult result = SimulateFaultyRun(config);
  EXPECT_DOUBLE_EQ(result.total_us, 2000.0);
  EXPECT_DOUBLE_EQ(result.fault_free_us, 2000.0);
  EXPECT_DOUBLE_EQ(result.slowdown, 1.0);
  EXPECT_EQ(result.failures, 0);
  EXPECT_EQ(result.iterations_replayed, 0);
}

TEST(FaultSimTest, DegradedLinkStretchesEveryIteration) {
  FaultSimConfig config;
  config.ranks = 4;
  config.iterations = 10;
  config.compute_us = 100.0;
  config.comm_us = 100.0;
  SimFaultEvent degrade;
  degrade.type = SimFaultType::kDegradeLink;
  degrade.rank = 1;
  degrade.at_us = 0.0;
  degrade.bandwidth_factor = 0.5;
  config.events = {degrade};
  const FaultSimResult result = SimulateFaultyRun(config);
  // Synchronous job: comm moves at the slowest link, 100 -> 200 us.
  EXPECT_DOUBLE_EQ(result.iteration_us, 300.0);
  EXPECT_DOUBLE_EQ(result.total_us, 3000.0);
  EXPECT_DOUBLE_EQ(result.slowdown, 1.5);
  EXPECT_EQ(result.failures, 0);
}

TEST(FaultSimTest, RankDeathStallsRollsBackAndReplays) {
  FaultSimConfig config;
  config.ranks = 4;
  config.iterations = 10;
  config.compute_us = 100.0;
  config.comm_us = 100.0;
  config.detect_timeout_us = 1000.0;
  config.restart_us = 2000.0;
  config.checkpoint_every = 5;
  SimFaultEvent fail;
  fail.type = SimFaultType::kFailRank;
  fail.rank = 2;
  fail.at_us = 1250.0;  // mid-iteration 6; last checkpoint at iteration 5
  config.events = {fail};
  const FaultSimResult result = SimulateFaultyRun(config);
  EXPECT_EQ(result.failures, 1);
  EXPECT_EQ(result.iterations_replayed, 1);
  // Stall: 50 us of wasted partial iteration + 1000 detect + 2000 restart,
  // anchored at the iteration boundary (1200): resume at 4250.
  EXPECT_DOUBLE_EQ(result.stall_us, 3050.0);
  // Resume at 4250, iterations 5..9 replayed/completed: 4250 + 5 * 200.
  EXPECT_DOUBLE_EQ(result.total_us, 5250.0);
  EXPECT_GT(result.slowdown, 2.6);
}

TEST(FaultSimTest, LateCheckpointCadenceLosesMoreWork) {
  FaultSimConfig config;
  config.ranks = 8;
  config.iterations = 50;
  config.compute_us = 100.0;
  config.comm_us = 100.0;
  SimFaultEvent fail;
  fail.type = SimFaultType::kFailRank;
  fail.rank = 0;
  fail.at_us = 40 * 200.0 + 1.0;
  config.events = {fail};

  config.checkpoint_every = 5;
  const FaultSimResult frequent = SimulateFaultyRun(config);
  config.checkpoint_every = 25;
  const FaultSimResult sparse = SimulateFaultyRun(config);
  EXPECT_LT(frequent.iterations_replayed, sparse.iterations_replayed);
  EXPECT_LT(frequent.total_us, sparse.total_us);
}

}  // namespace
}  // namespace msmoe
