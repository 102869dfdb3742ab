// Elastic degraded-mode recovery: fault classification (RecoveryPolicy),
// membership epochs (ElasticComm), world-size-crossing checkpoint
// resharding, and end-to-end shrink-to-survivors training.
//
// The load-bearing property throughout: after a PERMANENT single-rank
// failure, training continues on W-1 survivors and the post-shrink loss
// curve is BIT-IDENTICAL to a fresh W-1 run started from the resharded
// snapshot. Transient faults recover by rollback + backoff without
// shrinking. No failure mode hangs: everything surfaces as a Status under
// the collective deadline.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/comm/communicator.h"
#include "src/comm/elastic.h"
#include "src/comm/fault.h"
#include "src/core/recovery_policy.h"
#include "src/core/trainer.h"
#include "src/model/checkpoint.h"
#include "src/parallel/dp_grad_sync.h"
#include "src/sim/fault_sim.h"

namespace msmoe {
namespace {

// --- RecoveryPolicy: the verdict table ---------------------------------------

TEST(RecoveryPolicyTest, RetryableFaultIsTransientWithExponentialBackoff) {
  RecoveryPolicy policy(RecoveryPolicyConfig{});  // base 1 ms, x2, 3 retries
  const RecoveryDecision first =
      policy.OnFailure(DeadlineExceeded("peer missing"), /*suspect_rank=*/-1);
  EXPECT_EQ(first.verdict, FaultVerdict::kTransient);
  EXPECT_EQ(first.attempt, 1);
  EXPECT_DOUBLE_EQ(first.backoff_ms, 1.0);

  const RecoveryDecision second =
      policy.OnFailure(Aborted("crashed"), /*suspect_rank=*/-1);
  EXPECT_EQ(second.verdict, FaultVerdict::kTransient);
  EXPECT_DOUBLE_EQ(second.backoff_ms, 2.0);

  const RecoveryDecision third =
      policy.OnFailure(DeadlineExceeded("again"), /*suspect_rank=*/-1);
  EXPECT_EQ(third.verdict, FaultVerdict::kTransient);
  EXPECT_DOUBLE_EQ(third.backoff_ms, 4.0);
}

TEST(RecoveryPolicyTest, BackoffIsCappedAtConfiguredMax) {
  RecoveryPolicyConfig config;
  config.max_retries = 5;
  config.backoff_base_ms = 100.0;
  config.backoff_multiplier = 10.0;
  config.backoff_max_ms = 250.0;
  RecoveryPolicy policy(config);
  EXPECT_DOUBLE_EQ(policy.OnFailure(DeadlineExceeded("x"), -1).backoff_ms, 100.0);
  EXPECT_DOUBLE_EQ(policy.OnFailure(DeadlineExceeded("x"), -1).backoff_ms, 250.0);
  EXPECT_DOUBLE_EQ(policy.OnFailure(DeadlineExceeded("x"), -1).backoff_ms, 250.0);
}

TEST(RecoveryPolicyTest, StrikeLimitPromotesRecurringSuspectToPermanent) {
  RecoveryPolicy policy(RecoveryPolicyConfig{});  // strike limit 2
  const RecoveryDecision first = policy.OnFailure(Aborted("crash"), /*suspect=*/1);
  EXPECT_EQ(first.verdict, FaultVerdict::kTransient);
  EXPECT_EQ(policy.strikes(1), 1);

  // Strikes survive successful steps: a rank that fails every few hundred
  // steps is exactly the recurring-fault signature.
  policy.OnStepSuccess();
  EXPECT_EQ(policy.attempt(), 0);
  EXPECT_EQ(policy.strikes(1), 1);

  const RecoveryDecision second = policy.OnFailure(Aborted("crash"), /*suspect=*/1);
  EXPECT_EQ(second.verdict, FaultVerdict::kPermanent);
  EXPECT_EQ(second.culprit_rank, 1);
  EXPECT_NE(second.reason.find("strikes"), std::string::npos);
}

TEST(RecoveryPolicyTest, BudgetExhaustionEvictsKnownSuspect) {
  RecoveryPolicyConfig config;
  config.max_retries = 1;
  config.rank_strike_limit = 3;  // strikes alone won't trip
  RecoveryPolicy policy(config);
  EXPECT_EQ(policy.OnFailure(DeadlineExceeded("x"), /*suspect=*/2).verdict,
            FaultVerdict::kTransient);
  const RecoveryDecision out = policy.OnFailure(DeadlineExceeded("x"), /*suspect=*/4);
  EXPECT_EQ(out.verdict, FaultVerdict::kPermanent);
  EXPECT_EQ(out.culprit_rank, 4);
  EXPECT_NE(out.reason.find("budget exhausted"), std::string::npos);
}

TEST(RecoveryPolicyTest, BudgetExhaustionWithoutSuspectIsFatal) {
  RecoveryPolicyConfig config;
  config.max_retries = 1;
  RecoveryPolicy policy(config);
  EXPECT_EQ(policy.OnFailure(DeadlineExceeded("x"), -1).verdict,
            FaultVerdict::kTransient);
  EXPECT_EQ(policy.OnFailure(DeadlineExceeded("x"), -1).verdict,
            FaultVerdict::kFatal);
}

TEST(RecoveryPolicyTest, NonRetryableCodeIsFatalButDataLossIsRollbackRepairable) {
  RecoveryPolicy policy(RecoveryPolicyConfig{});
  EXPECT_EQ(policy.OnFailure(InvalidArgument("bad config"), /*suspect=*/0).verdict,
            FaultVerdict::kFatal);
  // Checksum divergence: re-running the op reproduces the corruption, but a
  // rollback discards it — classified like a retryable fault.
  EXPECT_EQ(policy.OnFailure(DataLoss("checksum mismatch"), /*suspect=*/-1).verdict,
            FaultVerdict::kTransient);
}

TEST(RecoveryPolicyTest, ValidateRejectsDegenerateConfigs) {
  RecoveryPolicyConfig bad;
  bad.max_retries = -1;
  EXPECT_FALSE(ValidateRecoveryPolicyConfig(bad).ok());
  bad = RecoveryPolicyConfig{};
  bad.backoff_multiplier = 0.5;
  EXPECT_FALSE(ValidateRecoveryPolicyConfig(bad).ok());
  bad = RecoveryPolicyConfig{};
  bad.rank_strike_limit = 0;
  EXPECT_FALSE(ValidateRecoveryPolicyConfig(bad).ok());
  EXPECT_TRUE(ValidateRecoveryPolicyConfig(RecoveryPolicyConfig{}).ok());
}

// --- ElasticComm: membership epochs ------------------------------------------

TEST(ElasticCommTest, ShrinkRemapsSurvivorsDenseAndOrderPreserving) {
  ElasticComm elastic(/*world_size=*/4);
  EXPECT_EQ(elastic.size(), 4);
  EXPECT_EQ(elastic.epoch(), 0);
  Communicator* old_comm = elastic.comm();

  std::vector<Status> results(4, Status::Ok());
  std::vector<std::thread> threads;
  for (int rank : {0, 2, 3}) {
    threads.emplace_back([&elastic, &results, rank] {
      results[static_cast<size_t>(rank)] = elastic.Shrink(rank, {1});
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int rank : {0, 2, 3}) {
    EXPECT_TRUE(results[static_cast<size_t>(rank)].ok())
        << results[static_cast<size_t>(rank)].ToString();
  }
  EXPECT_EQ(elastic.epoch(), 1);
  EXPECT_EQ(elastic.size(), 3);
  EXPECT_EQ(elastic.members(), (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(elastic.EpochRank(0), 0);
  EXPECT_EQ(elastic.EpochRank(1), -1);  // evicted
  EXPECT_EQ(elastic.EpochRank(3), 2);
  EXPECT_EQ(elastic.GlobalRank(1), 2);
  EXPECT_NE(elastic.comm(), old_comm);
  EXPECT_TRUE(old_comm->retired());
}

TEST(ElasticCommTest, StaleEpochFailsLoudlyInsteadOfDeadlocking) {
  ElasticComm elastic(/*world_size=*/3);
  Communicator* old_comm = elastic.comm();

  std::vector<std::thread> threads;
  for (int rank : {0, 1}) {
    threads.emplace_back([&elastic, rank] {
      EXPECT_TRUE(elastic.Shrink(rank, {2}).ok());
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  // The retired epoch's sticky status names the transition.
  EXPECT_EQ(old_comm->GroupStatus().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(old_comm->GroupStatus().ToString().find("stale communicator"),
            std::string::npos);
  EXPECT_EQ(old_comm->stale_status().code(), StatusCode::kFailedPrecondition);

  // Sync collectives on the stale epoch return immediately with the sticky
  // error — no barrier wait against ranks that moved on.
  std::vector<float> buf(3, 1.0f);
  EXPECT_EQ(old_comm->AllReduce(0, buf.data(), buf.data(), 3).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(old_comm->GroupStatus().ok());

  // Async Start* on the stale epoch yields an already-failed handle.
  std::vector<float> send(4, 1.0f);
  std::vector<float> recv(8, 0.0f);
  std::unique_ptr<CommHandle> handle =
      old_comm->StartAllGather(0, send.data(), recv.data(), 4, /*num_chunks=*/2);
  ASSERT_NE(handle, nullptr);
  const Status waited = handle->WaitAll();
  EXPECT_EQ(waited.code(), StatusCode::kFailedPrecondition);
}

TEST(ElasticCommTest, MismatchedDeadSetPoisonsTheWholeRound) {
  ElasticComm elastic(/*world_size=*/4);
  elastic.SetCollectiveTimeout(200.0);
  std::vector<Status> results(3, Status::Ok());
  std::vector<std::thread> threads;
  // Ranks 0 and 2 agree rank 3 died; rank 1 claims {2, 3} — replicated
  // decisions diverged, so no caller may commit a membership change. The
  // disagreeing delta also implies a different expected-arrival count, so
  // depending on arrival order a caller sees the poison (kInvalidArgument)
  // or strands in a never-completing round (kDeadlineExceeded under the
  // timeout) — both are loud failures, never a silent partial commit.
  threads.emplace_back([&] { results[0] = elastic.Shrink(0, {3}); });
  threads.emplace_back([&] { results[1] = elastic.Shrink(1, {2, 3}); });
  threads.emplace_back([&] { results[2] = elastic.Shrink(2, {3}); });
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const Status& result : results) {
    EXPECT_TRUE(result.code() == StatusCode::kInvalidArgument ||
                result.code() == StatusCode::kDeadlineExceeded)
        << result.ToString();
  }
  EXPECT_EQ(elastic.epoch(), 0);
  EXPECT_EQ(elastic.size(), 4);
}

TEST(ElasticCommTest, GrowReadmitsRepairedRank) {
  ElasticComm elastic(/*world_size=*/3);
  {
    std::vector<std::thread> threads;
    for (int rank : {0, 1}) {
      threads.emplace_back([&elastic, rank] {
        EXPECT_TRUE(elastic.Shrink(rank, {2}).ok());
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  ASSERT_EQ(elastic.size(), 2);

  std::vector<std::thread> threads;
  for (int rank : {0, 1, 2}) {  // members AND the readmitted rank rendezvous
    threads.emplace_back([&elastic, rank] {
      EXPECT_TRUE(elastic.Grow(rank, {2}).ok());
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(elastic.epoch(), 2);
  EXPECT_EQ(elastic.members(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(elastic.EpochRank(2), 2);
}

TEST(ElasticCommTest, RendezvousTimesOutWhenASurvivorNeverArrives) {
  ElasticComm elastic(/*world_size=*/3);
  elastic.SetCollectiveTimeout(100.0);
  // Only rank 0 shows up; rank 1 (the other survivor) never does.
  const Status result = elastic.Shrink(0, {2});
  EXPECT_EQ(result.code(), StatusCode::kDeadlineExceeded) << result.ToString();
  EXPECT_EQ(elastic.epoch(), 0);
  EXPECT_EQ(elastic.size(), 3);
}

TEST(ElasticCommTest, ShrinkValidatesTheTransition) {
  ElasticComm elastic(/*world_size=*/3);
  EXPECT_EQ(elastic.Shrink(0, {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(elastic.Shrink(0, {0}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(elastic.Shrink(0, {7}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(elastic.Shrink(0, {0, 1, 2}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(elastic.Grow(0, {1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(elastic.size(), 3);
}

// --- Commit-token collectives ------------------------------------------------
//
// The trainer's barrier-gated snapshot commits iff the gate barrier's OWN
// returned status is OK. That status must be a consistent commit token: a
// barrier that closed returns Ok on EVERY member even when a fault lands
// immediately after it closes. Branching on a later GroupStatus() read
// instead is a race — the fault can land between one member's barrier exit
// and another member's read, committing the snapshot on a strict subset of
// the group and diverging the resume step (observed in practice as a
// rollback to a stale checkpoint on some ranks and a group-wide hang).

TEST(CommitTokenTest, CompletedBarrierReturnsOkEvenWhenAFaultLandsRightAfter) {
  for (int trial = 0; trial < 50; ++trial) {
    auto comm = std::make_unique<Communicator>(3);
    std::vector<Status> token(3);
    std::vector<std::thread> threads;
    for (int rank = 0; rank < 3; ++rank) {
      threads.emplace_back([&, rank] {
        token[static_cast<size_t>(rank)] = comm->Barrier(rank);
        if (rank == 2) {
          // The moment rank 2 exits, the barrier has closed for everyone;
          // this abort races with the peers' own exits.
          comm->Abort(Aborted("fault right after the barrier"), /*culprit_rank=*/2);
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    for (int rank = 0; rank < 3; ++rank) {
      EXPECT_TRUE(token[static_cast<size_t>(rank)].ok())
          << "trial " << trial << " rank " << rank << ": "
          << token[static_cast<size_t>(rank)].ToString();
    }
    EXPECT_EQ(comm->GroupStatus().code(), StatusCode::kAborted);
  }
}

TEST(CommitTokenTest, CompletedAllGatherReturnsOkAndFullBufferDespiteLateFault) {
  for (int trial = 0; trial < 50; ++trial) {
    auto comm = std::make_unique<Communicator>(3);
    std::vector<Status> token(3);
    std::vector<std::vector<float>> recv(3, std::vector<float>(3, -1.0f));
    std::vector<std::thread> threads;
    for (int rank = 0; rank < 3; ++rank) {
      threads.emplace_back([&, rank] {
        const float mine = static_cast<float>(rank + 1);
        token[static_cast<size_t>(rank)] =
            comm->AllGather(rank, &mine, recv[static_cast<size_t>(rank)].data(), 1);
        if (rank == 0) {
          comm->Abort(Aborted("fault right after the gather"), /*culprit_rank=*/0);
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    for (int rank = 0; rank < 3; ++rank) {
      ASSERT_TRUE(token[static_cast<size_t>(rank)].ok())
          << "trial " << trial << " rank " << rank;
      EXPECT_EQ(recv[static_cast<size_t>(rank)],
                (std::vector<float>{1.0f, 2.0f, 3.0f}));
    }
    EXPECT_EQ(comm->GroupStatus().code(), StatusCode::kAborted);
  }
}

TEST(CommitTokenTest, CancelledBarrierReturnsTheSameErrorOnEveryMember) {
  auto comm = std::make_unique<Communicator>(3);
  comm->SetCollectiveTimeout(30000.0);
  std::vector<Status> token(3);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 2; ++rank) {
    threads.emplace_back([&, rank] {
      token[static_cast<size_t>(rank)] = comm->Barrier(rank);
    });
  }
  // Rank 2 never arrives; it aborts instead, cancelling the open barrier.
  comm->Abort(Aborted("rank 2 died before arriving"), /*culprit_rank=*/2);
  for (auto& thread : threads) {
    thread.join();
  }
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(token[static_cast<size_t>(rank)].code(), StatusCode::kAborted);
  }
}

// --- Checkpoint resharding ---------------------------------------------------

std::vector<float> PseudoRandomState(int64_t n, uint32_t seed) {
  std::vector<float> state(static_cast<size_t>(n));
  uint32_t x = seed;
  for (float& value : state) {
    x = x * 1664525u + 1013904223u;  // LCG; any nonzero pattern works
    value = static_cast<float>(x >> 8) / 16777216.0f + 0.5f;
  }
  return state;
}

TEST(ReshardTest, ShardOfFlatSlicesWithZeroPaddedTail) {
  EXPECT_EQ(PaddedShardElems(10, 4), 12);
  EXPECT_EQ(PaddedShardElems(12, 4), 12);
  EXPECT_EQ(PaddedShardElems(1, 3), 3);
  const std::vector<float> full = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(ShardOfFlat(full, 10, 4, 0), (std::vector<float>{1, 2, 3}));
  EXPECT_EQ(ShardOfFlat(full, 10, 4, 3), (std::vector<float>{10, 0, 0}));
  // world 1: the shard IS the state.
  EXPECT_EQ(ShardOfFlat(full, 10, 1, 0), full);
}

TEST(ReshardTest, GatherRejectsCorruptLayouts) {
  const std::vector<float> full = PseudoRandomState(10, 7);
  std::vector<std::vector<float>> shards;
  for (int rank = 0; rank < 4; ++rank) {
    shards.push_back(ShardOfFlat(full, 10, 4, rank));
  }
  ASSERT_TRUE(GatherFlatFromShards(shards, 10).ok());

  // Nonzero padding means the shards did NOT come from a 10-element state
  // under this layout — gathering must refuse, not silently truncate data.
  std::vector<std::vector<float>> poisoned = shards;
  poisoned[3][2] = 1.0f;
  EXPECT_FALSE(GatherFlatFromShards(poisoned, 10).ok());

  std::vector<std::vector<float>> ragged = shards;
  ragged[1].push_back(0.0f);
  EXPECT_FALSE(GatherFlatFromShards(ragged, 10).ok());
}

TEST(ReshardTest, RoundTripAcrossWorldSizesIsBitwiseLossless) {
  // Property: save at W, restore at W-1 and W+1, reshard back — bitwise
  // equal to the original, and the intermediate gather equals the direct
  // gather of the original shards.
  for (const int64_t total : {1, 7, 12, 97}) {
    for (const int from_world : {1, 2, 3, 4}) {
      const std::vector<float> full =
          PseudoRandomState(total, static_cast<uint32_t>(total * 31 + from_world));
      std::vector<std::vector<float>> shards;
      for (int rank = 0; rank < from_world; ++rank) {
        shards.push_back(ShardOfFlat(full, total, from_world, rank));
      }
      for (const int to_world : {from_world - 1, from_world + 1}) {
        if (to_world < 1) {
          continue;
        }
        Result<std::vector<std::vector<float>>> resharded =
            ReshardFlatState(shards, total, to_world);
        ASSERT_TRUE(resharded.ok()) << resharded.status().ToString();
        ASSERT_EQ(static_cast<int>(resharded.value().size()), to_world);

        Result<std::vector<float>> gathered =
            GatherFlatFromShards(resharded.value(), total);
        ASSERT_TRUE(gathered.ok());
        EXPECT_EQ(gathered.value(), full)
            << "total=" << total << " " << from_world << "->" << to_world;

        Result<std::vector<std::vector<float>>> back =
            ReshardFlatState(resharded.value(), total, from_world);
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back.value(), shards)
            << "total=" << total << " " << from_world << "->" << to_world
            << "->" << from_world;
      }
    }
  }
}

// --- End-to-end elastic training ---------------------------------------------

NumericTrainConfig ElasticBaseConfig(int dp) {
  NumericTrainConfig config;
  config.model = TinyMoeConfig(4, 2);
  config.model.num_layers = 1;
  config.model.vocab = 32;
  config.model.seq_len = 8;
  config.router.num_experts = 4;
  config.router.top_k = 2;
  config.dp_size = dp;
  config.batch_per_rank = 2;
  config.steps = 8;
  config.collective_timeout_ms = 30000.0;
  config.elastic = true;
  return config;
}

void ExpectLossRangeEqual(const TrainCurve& expected, const TrainCurve& actual,
                          size_t from, size_t to) {
  ASSERT_GE(expected.loss.size(), to);
  ASSERT_GE(actual.loss.size(), to);
  for (size_t i = from; i < to; ++i) {
    EXPECT_EQ(expected.loss[i], actual.loss[i]) << "step " << i;
  }
}

TEST(ElasticTrainerTest, TransientCrashRetriesWithBackoffWithoutShrinking) {
  NumericTrainConfig clean_config = ElasticBaseConfig(2);
  clean_config.checkpoint_every = 2;
  const TrainCurve clean = TrainLm(clean_config);
  ASSERT_TRUE(clean.recoveries.empty());
  EXPECT_EQ(clean.final_world, 2);

  // One crash, one strike: the policy classifies it transient and training
  // recovers by rollback on the SAME world.
  FaultPlan plan(3);
  plan.AddCrash(/*rank=*/1, /*at_op=*/9);
  NumericTrainConfig faulty_config = clean_config;
  faulty_config.fault_plan = &plan;
  const TrainCurve recovered = TrainLm(faulty_config);

  EXPECT_EQ(recovered.final_world, 2);
  ASSERT_EQ(recovered.recoveries.size(), 1u);
  EXPECT_EQ(recovered.recoveries[0].verdict, FaultVerdict::kTransient);
  EXPECT_EQ(recovered.recoveries[0].culprit_rank, 1);
  EXPECT_EQ(recovered.recoveries[0].world_after, 2);
  EXPECT_GT(recovered.recoveries[0].backoff_ms, 0.0);
  ExpectLossRangeEqual(clean, recovered, 0, clean.loss.size());
}

TEST(ElasticTrainerTest, PermanentCrashShrinksAndMatchesFreshSmallerWorld) {
  // The reference: a clean W-1 run. The elastic run starts at W=3, loses
  // rank 1 permanently (two strikes), rolls back to the step-0 snapshot,
  // and replays the WHOLE run on the survivors — so its final curve must be
  // bitwise the W=2 curve.
  const TrainCurve fresh_small = TrainLm(ElasticBaseConfig(2));

  // 2 ops/step, no snapshot barriers (checkpoint_every=0). A dense crash
  // window refires after the rollback (per-rank op counters never reset),
  // which is exactly the recurring-fault signature the strike limit evicts.
  FaultPlan plan(5);
  plan.AddCrash(/*rank=*/1, /*at_op=*/4);
  plan.AddCrash(/*rank=*/1, /*at_op=*/5);
  plan.AddCrash(/*rank=*/1, /*at_op=*/6);
  NumericTrainConfig faulty_config = ElasticBaseConfig(3);
  faulty_config.fault_plan = &plan;
  const TrainCurve shrunk = TrainLm(faulty_config);

  EXPECT_EQ(shrunk.final_world, 2);
  ASSERT_EQ(shrunk.recoveries.size(), 2u);
  EXPECT_EQ(shrunk.recoveries[0].verdict, FaultVerdict::kTransient);
  EXPECT_EQ(shrunk.recoveries[1].verdict, FaultVerdict::kPermanent);
  EXPECT_EQ(shrunk.recoveries[1].culprit_rank, 1);
  EXPECT_EQ(shrunk.recoveries[1].world_after, 2);
  ExpectLossRangeEqual(fresh_small, shrunk, 0, fresh_small.loss.size());
}

TEST(ElasticTrainerTest, PermanentCrashReshardsZeroOptimizerState) {
  // Same shrink, with ZeRO-1 sharded masters/moments: the snapshot is
  // gathered at W=3 boundaries and restored at W=2 boundaries, so bitwise
  // agreement with the fresh W=2 run proves the reshard path exact.
  NumericTrainConfig small_config = ElasticBaseConfig(2);
  small_config.zero_shard_optimizer = true;
  const TrainCurve fresh_small = TrainLm(small_config);

  FaultPlan plan(5);
  plan.AddCrash(/*rank=*/1, /*at_op=*/6);
  plan.AddCrash(/*rank=*/1, /*at_op=*/7);
  plan.AddCrash(/*rank=*/1, /*at_op=*/8);
  NumericTrainConfig faulty_config = ElasticBaseConfig(3);
  faulty_config.zero_shard_optimizer = true;
  faulty_config.fault_plan = &plan;
  const TrainCurve shrunk = TrainLm(faulty_config);

  EXPECT_EQ(shrunk.final_world, 2);
  ASSERT_GE(shrunk.recoveries.size(), 2u);
  EXPECT_EQ(shrunk.recoveries.back().verdict, FaultVerdict::kPermanent);
  ExpectLossRangeEqual(fresh_small, shrunk, 0, fresh_small.loss.size());
}

TEST(ElasticTrainerTest, PermanentStragglerTimesOutAndIsEvicted) {
  const TrainCurve fresh_small = TrainLm(ElasticBaseConfig(2));

  // Rank 1 stalls 1 s per op over a window of ops while peers time out
  // after 250 ms: the first deadline is a strike (transient), the refire on
  // replay is the second — permanent, classified from the barrier's
  // missing-rank attribution. Bounded wall time, no hang.
  FaultPlan plan(6);
  plan.AddSlowRank(/*rank=*/1, /*delay_us=*/1e6, /*from_op=*/4, /*num_ops=*/6);
  NumericTrainConfig faulty_config = ElasticBaseConfig(3);
  faulty_config.steps = 6;
  faulty_config.fault_plan = &plan;
  faulty_config.collective_timeout_ms = 250.0;
  const TrainCurve shrunk = TrainLm(faulty_config);

  EXPECT_EQ(shrunk.final_world, 2);
  ASSERT_GE(shrunk.recoveries.size(), 2u);
  EXPECT_EQ(shrunk.recoveries.back().verdict, FaultVerdict::kPermanent);
  EXPECT_EQ(shrunk.recoveries.back().culprit_rank, 1);
  EXPECT_NE(shrunk.recoveries[0].cause.find("DEADLINE_EXCEEDED"),
            std::string::npos);
  NumericTrainConfig small_config = ElasticBaseConfig(2);
  small_config.steps = 6;
  const TrainCurve reference = TrainLm(small_config);
  ExpectLossRangeEqual(reference, shrunk, 0, reference.loss.size());
}

TEST(ElasticTrainerTest, MidRunShrinkMatchesFreshRunFromTheSnapshotFile) {
  // The acceptance-criteria cross-check, file-based: the elastic run saves
  // its step-6 snapshot to disk, shrinks 3->2 while replaying step 6, and
  // finishes on the survivors. A FRESH W=2 run started from that same file
  // at first_step=6 must replay the post-shrink curve bit for bit.
  const std::string path = "elastic_test_midrun_checkpoint.bin";
  std::remove(path.c_str());

  // Op layout at checkpoint_every=3 (2 ops/step + snapshot barrier): the
  // step-6 snapshot barrier is op 13, so crashes at ops 14/15 land after
  // the snapshot committed and refire on the rollback replay.
  FaultPlan plan(8);
  plan.AddCrash(/*rank=*/2, /*at_op=*/14);
  plan.AddCrash(/*rank=*/2, /*at_op=*/15);
  plan.AddCrash(/*rank=*/2, /*at_op=*/16);
  NumericTrainConfig elastic_config = ElasticBaseConfig(3);
  elastic_config.steps = 9;
  elastic_config.checkpoint_every = 3;
  elastic_config.checkpoint_path = path;
  elastic_config.fault_plan = &plan;
  const TrainCurve shrunk = TrainLm(elastic_config);
  EXPECT_EQ(shrunk.final_world, 2);
  ASSERT_GE(shrunk.recoveries.size(), 2u);
  EXPECT_EQ(shrunk.recoveries.back().verdict, FaultVerdict::kPermanent);
  EXPECT_EQ(shrunk.recoveries.back().resumed_step, 6);

  NumericTrainConfig fresh_config = ElasticBaseConfig(2);
  fresh_config.steps = 9;
  fresh_config.init_checkpoint_path = path;
  fresh_config.first_step = 6;
  const TrainCurve fresh = TrainLm(fresh_config);
  EXPECT_TRUE(fresh.recoveries.empty());
  ExpectLossRangeEqual(fresh, shrunk, 6, 9);
  std::remove(path.c_str());
}

TEST(ElasticTrainerTest, ConfigValidationRejectsContradictions) {
  NumericTrainConfig config = ElasticBaseConfig(2);
  config.restart_every = 4;  // fixed-world restart pattern vs elastic world
  EXPECT_FALSE(ValidateNumericTrainConfig(config).ok());

  config = ElasticBaseConfig(2);
  config.first_step = 3;  // history without a checkpoint to stand on
  EXPECT_FALSE(ValidateNumericTrainConfig(config).ok());

  config = ElasticBaseConfig(2);
  config.init_checkpoint_path = "x.bin";
  config.zero_shard_optimizer = true;  // file checkpoints hold replicated state
  EXPECT_FALSE(ValidateNumericTrainConfig(config).ok());

  config = ElasticBaseConfig(2);
  config.min_world = 0;
  EXPECT_FALSE(ValidateNumericTrainConfig(config).ok());

  EXPECT_TRUE(ValidateNumericTrainConfig(ElasticBaseConfig(2)).ok());
}

// --- Simulated degraded-mode cost --------------------------------------------

TEST(FaultSimElasticTest, ShrinkSkipsRestartAndScalesThroughput) {
  FaultSimConfig config;
  config.ranks = 4;
  config.iterations = 10;
  config.compute_us = 100.0;
  config.comm_us = 100.0;
  config.detect_timeout_us = 1000.0;
  config.restart_us = 2000.0;  // must NOT be paid in elastic mode
  config.reshard_us = 500.0;
  config.checkpoint_every = 5;
  config.elastic = true;
  SimFaultEvent fail;
  fail.type = SimFaultType::kFailRank;
  fail.rank = 2;
  fail.at_us = 1250.0;  // mid-iteration 6; last checkpoint at iteration 5
  config.events = {fail};
  const FaultSimResult result = SimulateFaultyRun(config);

  EXPECT_EQ(result.failures, 1);
  EXPECT_EQ(result.final_ranks, 3);
  EXPECT_EQ(result.iterations_replayed, 1);
  // Stall: 50 us of wasted partial iteration + detect + reshard (no restart).
  EXPECT_DOUBLE_EQ(result.stall_us, 1550.0);
  // Post-shrink iteration: ring collectives scale by ((3-1)/3)/((4-1)/4).
  const double degraded_iteration = 100.0 + 100.0 * (2.0 / 3.0) / (3.0 / 4.0);
  EXPECT_DOUBLE_EQ(result.iteration_us, degraded_iteration);
  EXPECT_DOUBLE_EQ(result.total_us, 2750.0 + 5.0 * degraded_iteration);
  EXPECT_DOUBLE_EQ(result.throughput_factor,
                   (3.0 / 4.0) * (200.0 / degraded_iteration));
}

TEST(FaultSimElasticTest, NonElasticPathStillRestartsAtFullWorld) {
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
  fail.at_us = 1250.0;
  config.events = {fail};
  const FaultSimResult result = SimulateFaultyRun(config);
  // Exact pins from the pre-elastic behavior: byte-identical cost model.
  EXPECT_DOUBLE_EQ(result.stall_us, 3050.0);
  EXPECT_DOUBLE_EQ(result.total_us, 5250.0);
  EXPECT_EQ(result.final_ranks, 4);
  EXPECT_DOUBLE_EQ(result.throughput_factor, 1.0);
}

}  // namespace
}  // namespace msmoe
