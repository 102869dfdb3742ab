// The repository's real trainer: TrainLm on 2 data-parallel ranks with FP8
// compute copies, BF16 all-to-all gradient sync, a ZeRO-1 sharded
// optimizer and an FP8 parameter all-gather. TrainLm is opaque, so set-up
// is the same call with steps = 0 and the training time is the difference.
// Every call trains from the seed's init, so the timed call's loss curve is
// the run's curve. Traced runs add the program's StepProfiler and comm
// capture, and probe the trainer's per-layer building blocks on the run's
// shapes afterwards.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "e2ebench/bench.h"
#include "src/base/logging.h"
#include "src/comm/communicator.h"
#include "src/core/trainer.h"
#include "src/model/flat_adam.h"
#include "src/obs/step_profiler.h"
#include "src/parallel/dp_grad_sync.h"

namespace msmoe::e2e {
namespace {

constexpr int kRanks = 2;
constexpr int64_t kBatchPerRank = 2;

NumericTrainConfig DpConfig(uint64_t seed) {
  NumericTrainConfig config;
  config.model = BenchModel(/*top_k=*/2);
  config.router = BenchRouter(/*top_k=*/2);
  config.dp_size = kRanks;
  config.grad_sync = GradSyncMode::kBf16AllToAll;
  config.precision = TrainPrecision::kFp8;
  config.adam.lr = kAdamLr;
  config.batch_per_rank = kBatchPerRank;
  config.zero_shard_optimizer = true;
  config.param_gather_precision = TrainPrecision::kFp8;
  config.seed = seed;
  return config;
}

// The trainer's per-step building blocks, timed on both rank threads
// concurrently (as TrainLm runs them): batch generation, the FP8 parameter
// cast, the replica's forward+backward, the BF16 gradient shard sync and
// the ZeRO shard's Adam update.
void ProbeTrainerBlocks(const NumericTrainConfig& config, int reps, SpanRecorder& spans) {
  FlatCommunicator comm(kRanks);
  RunOnRanks(kRanks, [&](int rank) {
    Rng rng(config.seed);
    const LmParams params = LmParams::Init(config.model, rng);
    std::vector<int64_t> inputs, targets;
    for (int rep = 0; rep < reps; ++rep) {
      SpanRecorder::Scope span(spans, rank, "data.batch", rep);
      MakeTrainingBatch(config.model, config.seed, rep, rank, kBatchPerRank, &inputs, &targets);
    }
    LmParams compute;
    for (int rep = 0; rep < reps; ++rep) {
      compute = params;
      SpanRecorder::Scope span(spans, rank, "numerics.round_params", rep);
      RoundParams(compute, config.precision);
    }
    LmParams grads;
    for (int rep = 0; rep < reps; ++rep) {
      grads = LmParams::ZerosLike(config.model);
      SpanRecorder::Scope span(spans, rank, "model.lm_fwd_bwd", rep);
      LmForwardBackward(compute, config.model, config.router, inputs, targets, kBatchPerRank,
                        &grads);
    }
    const int64_t padded = PaddedGradCount(params.TotalElements(), kRanks);
    const int64_t shard = padded / kRanks;
    std::vector<float> flat(static_cast<size_t>(padded), 0.0f);
    size_t cursor = 0;
    grads.ForEachConst([&](const std::string&, const Tensor& t) {
      std::copy(t.data(), t.data() + t.numel(), flat.begin() + static_cast<int64_t>(cursor));
      cursor += static_cast<size_t>(t.numel());
    });
    std::vector<float> grad_shard(static_cast<size_t>(shard), 0.0f);
    for (int rep = 0; rep < reps; ++rep) {
      SpanRecorder::Scope span(spans, rank, "parallel.grad_sync", rep);
      SyncGradShardInto(comm, rank, flat.data(), padded, config.grad_sync, grad_shard.data());
    }
    FlatAdam adam(config.adam, shard);
    std::vector<float> master(flat.begin() + rank * shard, flat.begin() + (rank + 1) * shard);
    for (int rep = 0; rep < reps; ++rep) {
      SpanRecorder::Scope span(spans, rank, "model.optimizer", rep);
      adam.Step(grad_shard.data(), master.data());
    }
  });
}

}  // namespace

WorkloadResult RunDpWorkload(const RunOptions& options) {
  MSMOE_CHECK(options.workload == "dp2_fp8_zero") << "unknown dp workload " << options.workload;
  NumericTrainConfig config = DpConfig(options.seed);
  WorkloadResult result;

  // An untimed run of the warmup steps first, so the rank pool exists and
  // the arena holds a step's buffers before anything is timed.
  config.steps = options.warmup_steps;
  if (config.steps > 0) {
    TrainLm(config);
  }
  std::vector<double> setup_s;
  config.steps = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    TrainLm(config);
    setup_s.push_back(Seconds(start));
  }

  SpanRecorder spans(kRanks + 1, options.trace);
  const int main_lane = kRanks;
  std::unique_ptr<StepProfiler> profiler;
  if (options.trace) {
    StepProfilerConfig profiler_config;
    profiler_config.peak_flops_per_sec = 1e9;  // MFU is not reported; skip calibration
    profiler_config.world = kRanks;
    profiler = std::make_unique<StepProfiler>(profiler_config);
    config.profiler = profiler.get();
    config.capture_comm_events = true;
  }

  config.steps = options.steps - options.warmup_steps;
  const CounterSnapshot before = TakeCounters();
  const auto start = std::chrono::steady_clock::now();
  TrainCurve curve;
  {
    SpanRecorder::Scope span(spans, main_lane, "core.train_lm", 0);
    curve = TrainLm(config);
  }
  const double train_s = Seconds(start);
  const CounterSnapshot after = TakeCounters();

  for (int64_t step = 0; step < static_cast<int64_t>(curve.loss.size()); ++step) {
    if (!std::isfinite(curve.loss[static_cast<size_t>(step)])) {
      FailStep(&result, step, "non-finite loss");
    }
  }
  if (!curve.recoveries.empty() || curve.final_world != kRanks) {
    const std::string reason = "fault-free run recovered " +
                               std::to_string(curve.recoveries.size()) +
                               " times, final world " + std::to_string(curve.final_world);
    for (int64_t step = 0; step < config.steps; ++step) {
      FailStep(&result, step, reason);
    }
  }

  JsonObject& out = result.out;
  out.Int("ranks", kRanks)
      .Int("tokens_per_step", kRanks * kBatchPerRank * config.model.seq_len)
      .Nums("setup_s", setup_s)
      .Num("train_s", train_s)
      .Nums("loss", curve.loss)
      .Int("final_world", curve.final_world)
      .Int("recoveries", static_cast<int64_t>(curve.recoveries.size()));
  if (options.trace) {
    ProbeTrainerBlocks(config, kProbeReps, spans);
    CommSummary comm;
    AddCommEvents(curve.comm_events, &comm);
    out.Raw("counters", CountersJson(before, after))
        .Raw("comm", CommJson(comm))
        .Raw("step_reports", StepReportsJson(profiler->reports()))
        .Raw("spans", SpansJson(spans.Collect()));
  }
  return result;
}

}  // namespace msmoe::e2e
