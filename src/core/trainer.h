// Real (non-simulated) data-parallel training of a small MoE LM over the
// thread-rank collectives — the substrate for the convergence experiments:
//
//   Fig 17: BF16 all-to-all DP gradient compression vs FP32 reduce-scatter.
//   Fig 18: FP8 vs BF16 training (from scratch and continued).
//   Fig 19: long production run with periodic checkpoint restarts.
//
// Every rank holds a replica initialized from the same seed; gradients are
// synchronized with the selected GradSyncMode and averaged, so the replicas
// stay bit-identical and rank 0's loss is the curve.
//
// Precision emulation (the paper's hardware FP8/BF16 pipelines are
// substituted by software rounding, see DESIGN.md):
//   kBf16: parameters rounded to BF16 before each forward/backward
//          (FP32 masters kept by Adam).
//   kFp8:  parameters rounded through per-tensor-scaled E4M3 and hidden
//          activations rounded per-token between layers (§7's per-token
//          quantization), straight-through in backward.
#ifndef MSMOE_SRC_CORE_TRAINER_H_
#define MSMOE_SRC_CORE_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/comm/communicator.h"
#include "src/comm/fault.h"
#include "src/comm/telemetry.h"
#include "src/core/recovery_policy.h"
#include "src/model/config.h"
#include "src/model/lm.h"
#include "src/model/optimizer.h"
#include "src/model/router.h"
#include "src/obs/step_profiler.h"
#include "src/parallel/dp_grad_sync.h"

namespace msmoe {

enum class TrainPrecision { kFp32, kBf16, kFp8 };

const char* TrainPrecisionName(TrainPrecision precision);

struct NumericTrainConfig {
  ModelConfig model = TinyMoeConfig();
  RouterConfig router;
  int dp_size = 2;
  GradSyncMode grad_sync = GradSyncMode::kFp32ReduceScatter;
  TrainPrecision precision = TrainPrecision::kBf16;
  AdamConfig adam;
  int64_t batch_per_rank = 2;  // sequences per rank per micro-batch
  // Micro-batches accumulated per optimizer step (pipeline-parallel style).
  // Accumulation is ALWAYS in FP32 (§5, Fig 10): gradients are cast to the
  // wire precision exactly once, after the full accumulation.
  int64_t grad_accum_steps = 1;
  int64_t steps = 50;
  uint64_t seed = 1234;
  // Fig 19: checkpoint every `restart_every` steps and immediately restart
  // from that checkpoint (0 disables). Exercises save/restore continuity.
  int64_t restart_every = 0;
  // Fig 18 "continue training": run this many warmup steps first and treat
  // them as the loaded checkpoint (0 = train from scratch).
  int64_t warmup_steps = 0;
  // ZeRO-1 (§2.2): shard FP32 masters and Adam moments over the DP group;
  // each rank updates its shard and parameters are re-gathered every step.
  bool zero_shard_optimizer = false;
  // Wire precision of the ZeRO parameter all-gather. §7's multi-precision
  // optimizer stores FP8 compute parameters, halving this collective; the
  // FP32 masters live only in the owner's shard.
  TrainPrecision param_gather_precision = TrainPrecision::kFp32;
  // §5 inter-op overlap: the whole step is recorded as a two-stream graph
  // on the runtime executor (src/core/exec_graph.h) — each layer's DP
  // gradient reduce-scatter is registered producer-gated before backward
  // starts, released the moment that layer's backward finishes, and waited
  // on the comm stream before the optimizer step. Bitwise identical to the
  // synchronous path (per-element reductions are segmentation-independent),
  // so the loss curve does not change. Only takes effect on the replicated
  // kFp32ReduceScatter path with grad_accum_steps == 1 and no fault
  // machinery armed; those shapes fall back to the synchronous sync so
  // fault replay keeps its bit-identical op sequence. Combining it with
  // zero_shard_optimizer is a CONFIG ERROR (the ZeRO-1 path reduces one
  // flat buffer after the full backward — there are no per-layer segments
  // to overlap): ValidateNumericTrainConfig rejects it and TrainLm refuses
  // to run, instead of silently training without overlap.
  bool overlap_grad_sync = false;
  // Chunks per per-layer reduce-scatter in the overlap path.
  int overlap_grad_chunks = 2;

  // --- Fault tolerance -----------------------------------------------------
  // Injected fault schedule (not owned; nullptr = fault-free). Installed on
  // the communicator before ranks start, so every collective consults it.
  FaultPlan* fault_plan = nullptr;
  // Deadline for every collective barrier wait (0 = wait forever). With a
  // deadline, a crashed or wedged rank surfaces as kDeadlineExceeded on all
  // peers instead of a hang.
  double collective_timeout_ms = 0.0;
  // Take a recovery snapshot every N optimizer steps (0 = only the initial
  // post-warmup state). Snapshots are barrier-gated so every rank commits
  // the same checkpoint step or none does.
  int64_t checkpoint_every = 0;
  // When set (and not ZeRO-sharded), rank 0 persists every snapshot through
  // SaveCheckpoint (crash-safe v2 file) and recovery restores from the file
  // instead of memory; ZeRO keeps per-rank shards, which only exist
  // in-memory.
  std::string checkpoint_path;
  // Recovery attempts before the run gives up (guards against a fault that
  // deterministically refires, e.g. a permanent slow rank under a timeout).
  int64_t max_recoveries = 8;
  // Cross-rank bitwise checksum of the synced flat buffer after every step;
  // a divergence (e.g. an injected bit-flip) aborts the group and triggers
  // recovery instead of silently forking the replicas.
  bool guard_grad_checksum = false;
  // Copy the communicator's telemetry into TrainCurve::comm_events so the
  // caller can run straggler detection / trace export over the run.
  bool capture_comm_events = false;

  // --- Elastic degraded-mode recovery --------------------------------------
  // Classify faults through RecoveryPolicy instead of retrying every one:
  // transient verdicts roll back with exponential backoff; a PERMANENT
  // verdict evicts the culprit rank and training continues on the shrunk
  // world (src/comm/elastic.h) from a resharded snapshot. Incompatible with
  // restart_every (the Fig 19 restart pattern assumes a fixed world).
  bool elastic = false;
  RecoveryPolicyConfig recovery_policy;
  // Refuse (CHECK) to shrink below this many survivors.
  int min_world = 1;
  // Start from this checkpoint file instead of fresh init (non-ZeRO only:
  // file checkpoints hold replicated state). With first_step > 0 the run
  // continues at that step — batches, loss indices, and snapshots line up
  // with the run that wrote the file, so a fresh W-k run started from a
  // shrunk run's snapshot replays its post-shrink curve bit for bit.
  std::string init_checkpoint_path;
  int64_t first_step = 0;

  // --- Observability (src/obs/step_profiler.h) -----------------------------
  // When set, every recorded training step on every rank is bracketed by a
  // ScopedStep: per-rank StepReports (compute / exposed comm / bubble / MFU
  // / pool-hit / expert skew / loss) accumulate in the profiler and feed its
  // online anomaly detector. The trainer also reports retries and
  // evictions, and updates the profiler's world after a shrink. Before
  // TrainLm returns it calls profiler->Finish(...) with the final epoch's
  // telemetry, which computes the straggler verdict and writes
  // metrics.jsonl / the merged trace / the Prometheus snapshot (Finish is
  // idempotent — callers may call it again). The profiler only observes:
  // nothing it computes reaches fault handling, so instrumented and
  // uninstrumented runs are loss-bitwise-identical and reach the same
  // recovery verdicts (bench_observability and obs_test assert this).
  // Not owned; nullptr (the default) disables all of it.
  StepProfiler* profiler = nullptr;
};

// One recovery incident: training failed at `failed_step`, rolled back to
// the snapshot at `resumed_step`, and replayed the difference. failed_step
// is the step at which the fault was RAISED: the step of the rank the abort
// names (a crash, a timed-out barrier's missing member) or of the checksum
// guard that aborted. Peers may observe the abort one step earlier or later
// (fault observation is asynchronous, exactly as in a real job), so only an
// unattributed deadline fault falls back to the observing rank's step.
struct RecoveryEvent {
  int64_t failed_step = 0;
  int64_t resumed_step = 0;
  int64_t steps_lost = 0;  // failed_step - resumed_step (recomputed work)
  std::string cause;       // first error observed on the group
  // Elastic runs additionally classify the incident:
  FaultVerdict verdict = FaultVerdict::kTransient;
  int culprit_rank = -1;   // attributed global rank (-1 unknown)
  int world_after = 0;     // world size after handling (0 = non-elastic run)
  double backoff_ms = 0.0; // backoff slept before the transient retry
};

struct TrainCurve {
  std::vector<double> loss;            // CE loss per step (lowest live rank)
  std::vector<int64_t> restart_steps;  // steps at which a restart occurred
  std::vector<RecoveryEvent> recoveries;
  std::vector<CommEvent> comm_events;  // when capture_comm_events is set
  // Ranks still training at the end (== dp_size unless elastic shrank).
  int final_world = 0;
};

// Rejects contradictory configurations (currently: overlap_grad_sync
// together with zero_shard_optimizer) with kInvalidArgument. TrainLm
// validates on entry and CHECK-fails on a non-OK status rather than
// silently dropping the requested behavior.
[[nodiscard]] Status ValidateNumericTrainConfig(const NumericTrainConfig& config);

// Runs the training job on config.dp_size rank threads and returns the
// loss curve.
TrainCurve TrainLm(const NumericTrainConfig& config);

// The synthetic task: token i's target is input[i-1] (previous-token copy,
// solvable only through attention). Deterministic in (seed, step, rank).
void MakeTrainingBatch(const ModelConfig& model, uint64_t seed, int64_t step, int rank,
                       int64_t batch, std::vector<int64_t>* inputs,
                       std::vector<int64_t>* targets);

// Precision helpers (exposed for tests).
void RoundParams(LmParams& params, TrainPrecision precision);

}  // namespace msmoe

#endif  // MSMOE_SRC_CORE_TRAINER_H_
