// The paper's layout as a benchmark-owned training loop: 4 rank threads
// form one model-parallel group running SP attention + EP FFN
// (DistributedLmForwardBackward) over an emulated wire, the dense
// token-partial gradients are summed on a second, wire-free communicator,
// and each rank's Adam updates the dense parameters plus the experts it
// owns. Training is a closed loop: every step waits for the previous one.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "e2ebench/bench.h"
#include "src/base/logging.h"
#include "src/comm/communicator.h"
#include "src/core/parallelism_planner.h"
#include "src/core/trainer.h"
#include "src/model/optimizer.h"
#include "src/obs/step_profiler.h"
#include "src/parallel/distributed_lm.h"
#include "src/parallel/dp_grad_sync.h"
#include "src/parallel/ep_ffn.h"
#include "src/parallel/parallel_moe_layer.h"
#include "src/parallel/sp_attention.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe::e2e {
namespace {

constexpr int kRanks = 4;
// Fixed emulated wire of the model-parallel communicator. It is never
// re-calibrated, so a faster program shows up as a faster step instead of
// as a re-tuned wire. At this model size the MP group moves ~7.5 MB per
// step, about 300 ms on this wire — roughly the no-wire compute time.
constexpr double kWireBytesPerUs = 25.0;
constexpr double kWireLatencyUs = 5.0;
constexpr int64_t kBatch = 2;  // sequences per step (global): 512 tokens
constexpr double kOracleTolerance = 1e-5;

struct MpSpec {
  int64_t top_k = 2;
  bool sar = false;
};

MpSpec SpecFor(const std::string& workload) {
  if (workload == "mp4_ag_sar") {
    return MpSpec{.top_k = 4, .sar = true};
  }
  MSMOE_CHECK(workload == "mp4_a2a") << "unknown mp workload " << workload;
  return MpSpec{.top_k = 2, .sar = false};
}

// Parameters whose gradients DistributedLmForwardBackward leaves as
// token-partial sums: everything except the experts.
std::vector<Tensor*> DenseTensors(LmParams& params) {
  std::vector<Tensor*> out = {&params.embedding};
  for (MoeLayerParams& layer : params.layers) {
    out.insert(out.end(), {&layer.ln1_gain, &layer.w_qkv, &layer.w_out, &layer.ln2_gain,
                           &layer.w_gate});
  }
  out.push_back(&params.final_gain);
  out.push_back(&params.lm_head);
  return out;
}

// The experts `rank` owns (their gradients are complete on the owner).
std::vector<Tensor*> OwnedExperts(LmParams& params, int rank, int64_t num_experts) {
  const int64_t per_rank = num_experts / kRanks;
  std::vector<Tensor*> out;
  for (MoeLayerParams& layer : params.layers) {
    for (int64_t e = rank * per_rank; e < (rank + 1) * per_rank; ++e) {
      const size_t i = static_cast<size_t>(e);
      out.insert(out.end(), {&layer.w1[i], &layer.w3[i], &layer.w2[i]});
    }
  }
  return out;
}

// What one rank's Adam updates, in registration order: the dense
// parameters, then the rank's own experts.
std::vector<Tensor*> RankParams(LmParams& params, int rank, int64_t num_experts) {
  std::vector<Tensor*> out = DenseTensors(params);
  const std::vector<Tensor*> experts = OwnedExperts(params, rank, num_experts);
  out.insert(out.end(), experts.begin(), experts.end());
  return out;
}

struct RankState {
  LmParams params;
  std::unique_ptr<AdamOptimizer> adam;
  int64_t padded = 0;       // dense gradient count padded for the sync group
  std::vector<float> flat;  // dense gradient staging for AllReduceGrads
};

struct MpJob {
  FlatCommunicator mp{kRanks};
  FlatCommunicator sync{kRanks};
  std::vector<RankState> ranks{kRanks};
};

// Everything that happens before the first step: communicators, rank pool,
// parameter init, optimizer registration, gradient staging.
std::unique_ptr<MpJob> SetUp(const ModelConfig& model, uint64_t seed) {
  auto job = std::make_unique<MpJob>();
  job->mp.SetWireModel(kWireBytesPerUs, kWireLatencyUs);
  RunOnRanks(kRanks, [&](int rank) {
    RankState& state = job->ranks[static_cast<size_t>(rank)];
    Rng rng(seed);
    state.params = LmParams::Init(model, rng);
    state.adam = std::make_unique<AdamOptimizer>(AdamConfig{.lr = kAdamLr});
    for (Tensor* t : RankParams(state.params, rank, model.num_experts)) {
      state.adam->Register(t);
    }
    int64_t dense = 0;
    for (const Tensor* t : DenseTensors(state.params)) {
      dense += t->numel();
    }
    state.padded = PaddedGradCount(dense, kRanks);
    state.flat.assign(static_cast<size_t>(state.padded), 0.0f);
  });
  return job;
}

// Sums the dense token-partial gradients over the group, in place.
void SyncDenseGrads(Communicator& comm, int rank, RankState& state, LmParams& grads) {
  const std::vector<Tensor*> dense = DenseTensors(grads);
  float* flat = state.flat.data();
  for (const Tensor* t : dense) {
    std::copy(t->data(), t->data() + t->numel(), flat);
    flat += t->numel();
  }
  std::fill(flat, state.flat.data() + state.padded, 0.0f);
  AllReduceGrads(comm, rank, state.flat.data(), state.padded,
                 GradSyncMode::kFp32ReduceScatter);
  flat = state.flat.data();
  for (Tensor* t : dense) {
    std::copy(flat, flat + t->numel(), t->data());
    flat += t->numel();
  }
}

// Per-layer probes on the run's shapes and trained parameters, after the
// timed window: the layer forward (activation footprint, routing), SP
// attention fwd+bwd, EP FFN fwd+bwd and, under SAR, EP rematerialization.
// Collective: every rank runs the same sequence.
struct ProbeOut {
  int64_t activation_bytes = 0;
  std::vector<std::vector<int64_t>> expert_counts;  // [layer][expert]
};

ProbeOut ProbeLayers(const ShardContext& ctx, const ModelConfig& model,
                     const RouterConfig& router, const ParallelMoeLayerOptions& layer_options,
                     const LmParams& params, uint64_t seed, int64_t batch_step, int reps,
                     SpanRecorder& spans) {
  const int rank = ctx.rank;
  std::vector<int64_t> inputs, targets;
  MakeTrainingBatch(model, seed, batch_step, 0, kBatch, &inputs, &targets);
  const std::vector<int64_t> local = ShardTokenIds(inputs, kBatch, model.seq_len, rank, kRanks);
  const int64_t h = model.hidden;
  Tensor x({static_cast<int64_t>(local.size()), h});
  for (size_t t = 0; t < local.size(); ++t) {
    std::copy(params.embedding.data() + local[t] * h, params.embedding.data() + (local[t] + 1) * h,
              x.data() + static_cast<int64_t>(t) * h);
  }

  ProbeOut out;
  std::vector<ParallelMoeLayerCache> caches(static_cast<size_t>(model.num_layers));
  {
    SpanRecorder::Scope span(spans, rank, "parallel.layer_fwd", 0);
    Tensor hidden = x;
    for (size_t l = 0; l < caches.size(); ++l) {
      hidden = ParallelMoeLayerForward(ctx, model, router, params.layers[l], hidden, kBatch,
                                       model.seq_len, layer_options, &caches[l]);
      out.activation_bytes += caches[l].CacheBytes();
      out.expert_counts.push_back(caches[l].routing.expert_counts);
    }
  }

  const MoeLayerParams& layer = params.layers[0];
  const Tensor ln1 = RmsNorm(x, layer.ln1_gain, nullptr);
  for (int rep = 0; rep < reps; ++rep) {
    SpanRecorder::Scope span(spans, rank, "parallel.sp_attn", rep);
    SpAttentionCache cache;
    const Tensor y = SpAttentionForward(ctx, model, layer.w_qkv, layer.w_out, ln1, kBatch,
                                        model.seq_len, &cache);
    SpAttentionBackward(ctx, model, layer.w_qkv, layer.w_out, y, kBatch, model.seq_len, cache);
  }

  const ParallelMoeLayerCache& first = caches[0];
  const Tensor ln2 = RmsNorm(first.ln2_in, layer.ln2_gain, nullptr);
  const EpDispatchMode mode = layer_options.dispatch;
  for (int rep = 0; rep < reps; ++rep) {
    SpanRecorder::Scope span(spans, rank, "parallel.ep_ffn", rep);
    EpFfnCache cache;
    const Tensor y =
        EpFfnForward(ctx, model, mode, layer.w1, layer.w3, layer.w2, ln2, first.routing, &cache);
    EpFfnBackward(ctx, model, mode, layer.w1, layer.w3, layer.w2, y, first.routing, cache);
  }

  if (layer_options.sar) {
    EpFfnCache full;
    EpFfnForward(ctx, model, mode, layer.w1, layer.w3, layer.w2, ln2, first.routing, &full);
    for (int rep = 0; rep < reps; ++rep) {
      EpFfnCache dropped = full;
      dropped.ffn_in = Tensor();
      dropped.fc2_in = Tensor();
      dropped.x_all = Tensor();
      SpanRecorder::Scope span(spans, rank, "parallel.ep_remat", rep);
      EpFfnRematerialize(ctx, model, mode, ln2, &dropped);
    }
  }
  return out;
}

}  // namespace

WorkloadResult RunMpWorkload(const RunOptions& options) {
  const MpSpec spec = SpecFor(options.workload);
  const ModelConfig model = BenchModel(spec.top_k);
  const RouterConfig router = BenchRouter(spec.top_k);
  ParallelMoeLayerOptions layer_options;
  layer_options.dispatch = ChooseEpDispatch(spec.top_k, kRanks);
  layer_options.sar = spec.sar;
  const int64_t steps = options.steps;
  const uint64_t seed = options.seed;
  const IdlePoller idle_poller;

  WorkloadResult result;
  std::vector<double> setup_s;
  std::unique_ptr<MpJob> job;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    job.reset();
    const auto start = std::chrono::steady_clock::now();
    job = SetUp(model, seed);
    setup_s.push_back(Seconds(start));
  }

  SpanRecorder spans(kRanks + 1, options.trace);
  const int main_lane = kRanks;
  std::unique_ptr<StepProfiler> profiler;
  if (options.trace) {
    StepProfilerConfig config;
    config.peak_flops_per_sec = 1e9;  // MFU is not reported; skip calibration
    config.world = kRanks;
    profiler = std::make_unique<StepProfiler>(config);
  }

  std::vector<std::vector<double>> losses(
      kRanks, std::vector<double>(static_cast<size_t>(steps),
                                  std::numeric_limits<double>::quiet_NaN()));
  std::vector<double> step_wall_s(static_cast<size_t>(steps), 0.0);
  std::chrono::steady_clock::time_point window_start = std::chrono::steady_clock::now();
  double window_s = 0.0;
  CounterSnapshot before;
  CounterSnapshot after;
  CommSummary comm;
  std::vector<ProbeOut> probes(kRanks);

  RunOnRanks(kRanks, [&](int rank) {
    RankState& state = job->ranks[static_cast<size_t>(rank)];
    const ShardContext ctx{&job->mp, rank};
    std::vector<int64_t> inputs, targets;
    // Opens the timed window (and the counter window) with every rank idle.
    const auto window_edge = [&](bool open) {
      job->sync.Barrier(rank);
      if (rank == 0) {
        if (open) {
          job->mp.telemetry().Clear();
          job->sync.telemetry().Clear();
          before = TakeCounters();
          window_start = std::chrono::steady_clock::now();
        } else {
          window_s = Seconds(window_start);
          after = TakeCounters();
          AddCommEvents(job->mp.telemetry().Events(), &comm);
          AddCommEvents(job->sync.telemetry().Events(), &comm);
        }
      }
      job->sync.Barrier(rank);
    };

    for (int64_t step = 0; step < steps; ++step) {
      if (step == options.warmup_steps) {
        window_edge(/*open=*/true);
      }
      const auto step_start = std::chrono::steady_clock::now();
      {
        ScopedStep obs_step(profiler.get(), rank, step, &job->mp.telemetry());
        SpanRecorder::Scope step_span(spans, rank, "core.step", step);
        std::vector<int64_t> in_local, tgt_local;
        {
          SpanRecorder::Scope span(spans, rank, "data.batch", step);
          MakeTrainingBatch(model, seed, step, 0, kBatch, &inputs, &targets);
          in_local = ShardTokenIds(inputs, kBatch, model.seq_len, rank, kRanks);
          tgt_local = ShardTokenIds(targets, kBatch, model.seq_len, rank, kRanks);
        }
        LmParams grads;
        DistributedLmStats stats;
        {
          SpanRecorder::Scope span(spans, rank, "parallel.fwd_bwd", step);
          grads = LmParams::ZerosLike(model);
          stats = DistributedLmForwardBackward(ctx, model, router, layer_options, state.params,
                                               in_local, tgt_local, kBatch, model.seq_len,
                                               &grads);
        }
        {
          SpanRecorder::Scope span(spans, rank, "parallel.grad_sync", step);
          SyncDenseGrads(job->sync, rank, state, grads);
        }
        {
          SpanRecorder::Scope span(spans, rank, "model.optimizer", step);
          const std::vector<Tensor*> list = RankParams(grads, rank, model.num_experts);
          state.adam->Step({list.begin(), list.end()});
        }
        losses[static_cast<size_t>(rank)][static_cast<size_t>(step)] = stats.ce_loss;
        obs_step.set_loss(stats.ce_loss);
      }
      if (rank == 0) {
        step_wall_s[static_cast<size_t>(step)] = Seconds(step_start);
      }
    }
    window_edge(/*open=*/false);

    if (options.trace) {
      probes[static_cast<size_t>(rank)] =
          ProbeLayers(ctx, model, router, layer_options, state.params, seed, steps,
                      kProbeReps, spans);
    }
  });

  // The group's loss is the mean of the equal-sized rank shards.
  std::vector<double> loss(static_cast<size_t>(steps), 0.0);
  for (int64_t step = 0; step < steps; ++step) {
    for (int r = 0; r < kRanks; ++r) {
      loss[static_cast<size_t>(step)] +=
          losses[static_cast<size_t>(r)][static_cast<size_t>(step)] / kRanks;
    }
    if (!std::isfinite(loss[static_cast<size_t>(step)])) {
      FailStep(&result, step, "non-finite loss");
    }
  }

  // Oracle: step 0 of the distributed LM equals the single-rank LM on the
  // same parameters and batch.
  double oracle_loss = 0.0;
  {
    SpanRecorder::Scope span(spans, main_lane, "model.lm_fwd_bwd", 0);
    Rng rng(seed);
    const LmParams init = LmParams::Init(model, rng);
    std::vector<int64_t> inputs, targets;
    MakeTrainingBatch(model, seed, 0, 0, kBatch, &inputs, &targets);
    LmParams grads = LmParams::ZerosLike(model);
    oracle_loss = LmForwardBackward(init, model, router, inputs, targets, kBatch, &grads).ce_loss;
  }
  if (!(std::fabs(loss[0] - oracle_loss) <= kOracleTolerance)) {
    FailStep(&result, 0,
             "distributed loss " + std::to_string(loss[0]) +
                 " differs from single-rank LmForwardBackward " + std::to_string(oracle_loss));
  }

  JsonObject& out = result.out;
  out.Str("dispatch", EpDispatchModeName(layer_options.dispatch))
      .Bool("sar", spec.sar)
      .Int("ranks", kRanks)
      .Num("wire_bytes_per_us", kWireBytesPerUs)
      .Num("wire_latency_us", kWireLatencyUs)
      .Int("tokens_per_step", kBatch * model.seq_len)
      .Nums("setup_s", setup_s)
      .Nums("step_wall_s", step_wall_s)
      .Num("window_s", window_s)
      .Nums("loss", loss)
      .Num("oracle_loss", oracle_loss)
      .Int("idle_pollers", idle_poller.polling());
  if (options.trace) {
    std::vector<double> activation_mb;
    std::vector<double> imbalance;
    for (size_t l = 0; l < static_cast<size_t>(model.num_layers); ++l) {
      std::vector<int64_t> load(static_cast<size_t>(model.num_experts), 0);
      for (const ProbeOut& probe : probes) {
        for (size_t e = 0; e < load.size(); ++e) {
          load[e] += probe.expert_counts[l][e];
        }
      }
      const double total = static_cast<double>(std::accumulate(load.begin(), load.end(), 0LL));
      const double max = static_cast<double>(*std::max_element(load.begin(), load.end()));
      imbalance.push_back(total > 0.0 ? max * static_cast<double>(load.size()) / total : 1.0);
    }
    for (const ProbeOut& probe : probes) {
      activation_mb.push_back(static_cast<double>(probe.activation_bytes) / (1024.0 * 1024.0));
    }
    out.Raw("counters", CountersJson(before, after))
        .Raw("comm", CommJson(comm))
        .Raw("step_reports", StepReportsJson(profiler->reports()))
        .Nums("activation_mb", activation_mb)
        .Nums("expert_imbalance", imbalance)
        .Raw("spans", SpansJson(spans.Collect()));
  }
  return result;
}

}  // namespace msmoe::e2e
