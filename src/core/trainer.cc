#include "src/core/trainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/comm/elastic.h"
#include "src/comm/health.h"
#include "src/core/exec_graph.h"
#include "src/model/checkpoint.h"
#include "src/model/flat_adam.h"
#include "src/numerics/bf16.h"
#include "src/numerics/fp8.h"
#include "src/numerics/quantize.h"

namespace msmoe {

const char* TrainPrecisionName(TrainPrecision precision) {
  switch (precision) {
    case TrainPrecision::kFp32:
      return "fp32";
    case TrainPrecision::kBf16:
      return "bf16";
    case TrainPrecision::kFp8:
      return "fp8";
  }
  return "unknown";
}

void MakeTrainingBatch(const ModelConfig& model, uint64_t seed, int64_t step, int rank,
                       int64_t batch, std::vector<int64_t>* inputs,
                       std::vector<int64_t>* targets) {
  Rng rng = Rng(seed).Fork(static_cast<uint64_t>(step) * 1000003ULL +
                           static_cast<uint64_t>(rank));
  const int64_t tokens = batch * model.seq_len;
  inputs->resize(static_cast<size_t>(tokens));
  targets->resize(static_cast<size_t>(tokens));
  for (int64_t b = 0; b < batch; ++b) {
    int64_t previous = 0;
    for (int64_t i = 0; i < model.seq_len; ++i) {
      const int64_t token = static_cast<int64_t>(rng.NextIndex(
          static_cast<uint64_t>(model.vocab)));
      (*inputs)[static_cast<size_t>(b * model.seq_len + i)] = token;
      // Previous-token copy: solvable only through attention, learnable
      // quickly by a 2-layer model (unlike modular addition).
      (*targets)[static_cast<size_t>(b * model.seq_len + i)] = previous;
      previous = token;
    }
  }
}

void RoundParams(LmParams& params, TrainPrecision precision) {
  switch (precision) {
    case TrainPrecision::kFp32:
      return;
    case TrainPrecision::kBf16:
      params.ForEach([](const std::string&, Tensor& tensor) {
        for (int64_t i = 0; i < tensor.numel(); ++i) {
          tensor[i] = Bf16Round(tensor[i]);
        }
      });
      return;
    case TrainPrecision::kFp8:
      // Per-tensor amax-scaled E4M3 (the multi-precision optimizer of §7
      // stores FP8 compute copies; masters stay FP32 in Adam).
      params.ForEach([](const std::string&, Tensor& tensor) {
        Fp8RoundScaledInPlace(tensor.data(), tensor.numel());
      });
      return;
  }
}

namespace {

// Per-token (1 x h) FP8 rounding of hidden states (§7), straight-through.
void RoundActivationsPerToken(Tensor& hidden) {
  const int64_t rows = hidden.dim(0);
  const int64_t cols = hidden.dim(1);
  for (int64_t r = 0; r < rows; ++r) {
    Fp8RoundScaledInPlace(hidden.data() + r * cols, cols);
  }
}

// Rounds a flat buffer to the chosen wire precision (per-128-group scaled
// E4M3 for FP8, matching the grouped quantization of §5).
void RoundFlatForWire(float* data, int64_t count, TrainPrecision precision) {
  switch (precision) {
    case TrainPrecision::kFp32:
      return;
    case TrainPrecision::kBf16:
      for (int64_t i = 0; i < count; ++i) {
        data[i] = Bf16Round(data[i]);
      }
      return;
    case TrainPrecision::kFp8: {
      constexpr int64_t kGroup = 128;
      for (int64_t begin = 0; begin < count; begin += kGroup) {
        Fp8RoundScaledInPlace(data + begin, std::min(kGroup, count - begin));
      }
      return;
    }
  }
}

std::vector<float> SaveParams(const LmParams& params) {
  std::vector<float> blob;
  params.ForEachConst([&blob](const std::string&, const Tensor& tensor) {
    const size_t cursor = blob.size();
    blob.resize(cursor + static_cast<size_t>(tensor.numel()));
    std::memcpy(blob.data() + cursor, tensor.data(),
                static_cast<size_t>(tensor.numel()) * sizeof(float));
  });
  return blob;
}

void LoadParams(LmParams& params, const std::vector<float>& blob) {
  size_t cursor = 0;
  params.ForEach([&](const std::string&, Tensor& tensor) {
    std::memcpy(tensor.data(), blob.data() + cursor,
                static_cast<size_t>(tensor.numel()) * sizeof(float));
    cursor += static_cast<size_t>(tensor.numel());
  });
  MSMOE_CHECK_EQ(cursor, blob.size());
}

}  // namespace

Status ValidateNumericTrainConfig(const NumericTrainConfig& config) {
  if (config.overlap_grad_sync && config.zero_shard_optimizer) {
    return InvalidArgument(
        "overlap_grad_sync is incompatible with zero_shard_optimizer: ZeRO-1 "
        "reduces one flat gradient buffer after the full backward and has no "
        "per-layer segments to overlap; disable one of the two");
  }
  if (config.elastic) {
    if (config.restart_every > 0) {
      return InvalidArgument(
          "elastic is incompatible with restart_every: the Fig 19 restart "
          "pattern assumes a fixed world, while elastic recovery may shrink it");
    }
    MSMOE_RETURN_IF_ERROR(ValidateRecoveryPolicyConfig(config.recovery_policy));
    if (config.min_world < 1) {
      return InvalidArgument("min_world must be >= 1");
    }
  }
  if (!config.init_checkpoint_path.empty() && config.zero_shard_optimizer) {
    return InvalidArgument(
        "init_checkpoint_path requires a replicated optimizer: checkpoint "
        "files hold full state, which ZeRO-1 runs shard per rank");
  }
  if (config.first_step < 0) {
    return InvalidArgument("first_step must be >= 0");
  }
  if (config.first_step > 0) {
    if (config.init_checkpoint_path.empty()) {
      return InvalidArgument(
          "first_step > 0 requires init_checkpoint_path: the steps before "
          "first_step are the checkpointed run's history, not replayable here");
    }
    if (config.first_step >= config.steps) {
      return InvalidArgument("first_step must be < steps");
    }
  }
  return Status::Ok();
}

TrainCurve TrainLm(const NumericTrainConfig& config) {
  const Status config_status = ValidateNumericTrainConfig(config);
  MSMOE_CHECK(config_status.ok()) << config_status.ToString();
  const int dp = config.dp_size;
  MSMOE_CHECK_GE(dp, 1);
  // Epoch 0 of the elastic membership is exactly the fixed-world
  // communicator non-elastic runs always used; further epochs only exist if
  // a permanent fault shrinks the membership.
  ElasticComm elastic(dp);
  if (config.fault_plan != nullptr) {
    elastic.set_fault_plan(config.fault_plan);
  }
  if (config.collective_timeout_ms > 0.0) {
    elastic.SetCollectiveTimeout(config.collective_timeout_ms);
  }
  // Whether any step can fail. A fault-free run without deadlines never sees
  // a non-OK group, so the plain loop is kept byte-for-byte identical.
  const bool fault_aware = config.fault_plan != nullptr ||
                           config.collective_timeout_ms > 0.0 ||
                           config.guard_grad_checksum || config.elastic;
  // File-backed recovery needs state that is identical on every rank; ZeRO
  // shards the masters per-rank, so those runs recover from memory.
  const bool file_checkpoints =
      !config.checkpoint_path.empty() && !config.zero_shard_optimizer;
  TrainCurve curve;
  curve.loss.assign(static_cast<size_t>(config.steps), 0.0);
  if (config.profiler != nullptr) {
    config.profiler->set_world(dp);
  }
  // Where each fault was raised, for RecoveryEvent::failed_step. Every rank
  // publishes the step it is running (by global rank). The checksum guard's
  // abort names no culprit, so a guard that aborts records its own step,
  // indexed by the recovery it starts. Both are written before the abort
  // that peers observe, and read only after observing it.
  std::vector<std::atomic<int64_t>> rank_step(static_cast<size_t>(dp));
  std::mutex guard_mu;
  std::vector<int64_t> guard_raised_step;

  RunOnRanks(dp, [&](int rank) {
    // `rank` is this thread's GLOBAL (epoch-0) rank, fixed for its lifetime.
    // `my` is the dense rank within the CURRENT membership epoch and
    // `dp_now` the current world size — both are remapped when an elastic
    // shrink evicts a rank. Non-elastic runs never change them.
    Communicator* comm_now = elastic.comm();
    int my = rank;
    int dp_now = dp;
    // Global ranks of comm_now's epoch, snapshotted at bind time. Fault
    // attribution maps epoch ranks through THIS list, never through
    // elastic.GlobalRank(): a survivor that classifies late (it slept
    // through the fault) must resolve its suspect against the epoch that
    // failed, not against a membership its peers already committed.
    std::vector<int> members_now(static_cast<size_t>(dp));
    for (int i = 0; i < dp; ++i) {
      members_now[static_cast<size_t>(i)] = i;
    }

    // Identical init on every rank.
    Rng rng(config.seed);
    LmParams params = LmParams::Init(config.model, rng);

    // Replicated-optimizer path state.
    AdamOptimizer adam(config.adam);
    if (!config.zero_shard_optimizer) {
      for (Tensor* t : params.TensorList()) {
        adam.Register(t);
      }
    }

    ActivationTransform activation_transform = nullptr;
    if (config.precision == TrainPrecision::kFp8) {
      activation_transform = RoundActivationsPerToken;
    }

    const int64_t total_elems = params.TotalElements();
    // Pad the flat gradient buffer so it shards evenly over the DP group.
    // Mutable: an elastic shrink re-plans the geometry for the new world.
    int64_t padded = PaddedGradCount(total_elems, dp_now);
    int64_t shard = padded / dp_now;
    std::vector<float> flat(static_cast<size_t>(padded), 0.0f);

    // §5 inter-op overlap (see NumericTrainConfig::overlap_grad_sync): each
    // layer's gradients reduce-scatter on the comm thread while the earlier
    // layers are still in backward, with the whole step recorded as an
    // ExecGraph. Restricted to the shapes where the result is provably
    // bitwise identical to the synchronous path; fault replay keeps the
    // synchronous op sequence. (overlap + ZeRO was rejected loudly by
    // ValidateNumericTrainConfig above.)
    const bool overlap_sync = config.overlap_grad_sync &&
                              config.grad_sync == GradSyncMode::kFp32ReduceScatter &&
                              config.grad_accum_steps <= 1 && !fault_aware;
    struct GradSegment {
      int64_t elems = 0;   // real elements (padded to a dp multiple below)
      int64_t padded = 0;
      std::vector<float> send;
      std::vector<float> shard;
      std::vector<float> full;
      std::unique_ptr<CommHandle> handle;
    };
    // One segment per layer plus a tail segment (embedding + final_gain +
    // lm_head, all ready only once backward reaches the embedding).
    std::vector<GradSegment> segments;
    if (overlap_sync) {
      segments.resize(static_cast<size_t>(config.model.num_layers) + 1);
      for (int64_t l = 0; l < config.model.num_layers; ++l) {
        segments[static_cast<size_t>(l)].elems =
            params.layers[static_cast<size_t>(l)].TotalElements();
      }
      segments.back().elems = params.embedding.numel() + params.final_gain.numel() +
                              params.lm_head.numel();
      for (GradSegment& seg : segments) {
        seg.padded = ((seg.elems + dp - 1) / dp) * dp;
        seg.send.assign(static_cast<size_t>(seg.padded), 0.0f);
        seg.shard.assign(static_cast<size_t>(seg.padded / dp), 0.0f);
        seg.full.assign(static_cast<size_t>(seg.padded), 0.0f);
      }
    }

    // ZeRO-1 path state: this rank's FP32 master shard + Adam moments.
    FlatAdam flat_adam(config.adam, config.zero_shard_optimizer ? shard : 0);
    std::vector<float> master_shard;
    if (config.zero_shard_optimizer) {
      std::vector<float> full = SaveParams(params);
      full.resize(static_cast<size_t>(padded), 0.0f);
      master_shard.assign(full.begin() + my * shard, full.begin() + (my + 1) * shard);
    }

    // Elastic + ZeRO snapshots hold the FULL gathered state, not this
    // rank's shard: after a shrink the shard boundaries move, so recovery
    // reshards the gathered masters and Adam moments at the new geometry
    // (src/model/checkpoint.h reshard helpers).
    const bool elastic_zero = config.elastic && config.zero_shard_optimizer;
    std::vector<float> snapshot_master_full;
    std::vector<float> snapshot_m_full;
    std::vector<float> snapshot_v_full;
    int64_t snapshot_opt_step = 0;

    // Batch buffers, hoisted out of the step loop so MakeTrainingBatch's
    // resize is a no-op at steady state.
    std::vector<int64_t> inputs;
    std::vector<int64_t> targets;

    auto run_step = [&](int64_t step, bool record) {
      // Observability bracket: recorded steps only (warmup and replayed
      // internals use negative/duplicate step ids), and inert when no
      // profiler is configured — the uninstrumented step is byte-for-byte
      // the code below.
      ScopedStep obs_step(record ? config.profiler : nullptr, my, step,
                          &comm_now->telemetry());
      // Low-precision compute copy; masters stay FP32 (in `params` or in the
      // ZeRO master shard).
      std::optional<MemoryScope> cast_scope;
      cast_scope.emplace("param_cast");
      LmParams compute = params;
      RoundParams(compute, config.precision);

      // FP32 gradient accumulation over micro-batches (§5: the main grads
      // stay FP32 throughout; only the post-accumulation communication is
      // compressed).
      LmParams grads = LmParams::ZerosLike(config.model);
      cast_scope.reset();
      LmStepStats stats;
      const int64_t accum = std::max<int64_t>(1, config.grad_accum_steps);
      const auto run_micro_batches = [&](const LayerGradCallback& on_layer_grads) {
        MemoryScope scope("fwd_bwd");
        for (int64_t micro = 0; micro < accum; ++micro) {
          MakeTrainingBatch(config.model, config.seed, step * accum + micro, my,
                            config.batch_per_rank, &inputs, &targets);
          const LmStepStats micro_stats =
              LmForwardBackward(compute, config.model, config.router, inputs, targets,
                                config.batch_per_rank, &grads, activation_transform,
                                on_layer_grads);
          stats.ce_loss += micro_stats.ce_loss / static_cast<double>(accum);
          stats.aux_loss += micro_stats.aux_loss / static_cast<double>(accum);
        }
        if (accum > 1) {
          grads.Scale(1.0f / static_cast<float>(accum));
        }
      };

      if (overlap_sync) {
        // The overlapped step, recorded as a two-stream graph on the runtime
        // executor. Every segment's producer-gated reduce-scatter is
        // registered HERE, at record time on the rank's main thread — issue
        // order (backward production order: layer L-1 .. 0, then the tail)
        // is therefore identical on every rank no matter how the graph is
        // scheduled. The ops only signal, wait, and compute.
        for (int64_t l = config.model.num_layers - 1; l >= 0; --l) {
          GradSegment& seg = segments[static_cast<size_t>(l)];
          seg.handle =
              StartGradShardSync(*comm_now, my, seg.send.data(), seg.padded,
                                 seg.shard.data(), config.overlap_grad_chunks,
                                 /*signal_now=*/false);
        }
        GradSegment& tail = segments.back();
        tail.handle = StartGradShardSync(*comm_now, my, tail.send.data(), tail.padded,
                                         tail.shard.data(), config.overlap_grad_chunks,
                                         /*signal_now=*/false);

        ExecGraph graph;
        const int fwd_bwd = graph.AddCompute("fwd_bwd", [&] {
          // As each layer's backward finishes, flatten its (final,
          // accum == 1) gradients into the segment buffer and release the
          // in-flight reduce-scatter; the transfer streams on the comm-proxy
          // thread while the remaining layers run backward.
          LayerGradCallback on_layer_grads = [&](int64_t l) {
            GradSegment& seg = segments[static_cast<size_t>(l)];
            size_t cur = 0;
            grads.layers[static_cast<size_t>(l)].ForEachConst(
                [&](const std::string&, const Tensor& tensor) {
                  std::memcpy(seg.send.data() + cur, tensor.data(),
                              static_cast<size_t>(tensor.numel()) * sizeof(float));
                  cur += static_cast<size_t>(tensor.numel());
                });
            std::fill(seg.send.begin() + static_cast<int64_t>(cur), seg.send.end(),
                      0.0f);
            SignalGradSegmentReady(*seg.handle);
          };
          run_micro_batches(on_layer_grads);
          // Tail segment (embedding + final_gain + lm_head) becomes final
          // only once backward reaches the embedding.
          GradSegment& t = segments.back();
          size_t cur = 0;
          const auto pack = [&](const Tensor& tensor) {
            std::memcpy(t.send.data() + cur, tensor.data(),
                        static_cast<size_t>(tensor.numel()) * sizeof(float));
            cur += static_cast<size_t>(tensor.numel());
          };
          pack(grads.embedding);
          pack(grads.final_gain);
          pack(grads.lm_head);
          std::fill(t.send.begin() + static_cast<int64_t>(cur), t.send.end(), 0.0f);
          SignalGradSegmentReady(*t.handle);
          return Status::Ok();
        });
        // Per segment: rendezvous with the reduced shard on the comm stream,
        // then all-gather the summed segment. The all-gathers are blocking
        // collectives, so they live on stream 0 — the caller's FIFO — where
        // the declared order keeps their issue order identical on every
        // rank. The waits depend on fwd_bwd so an aborted step skips them
        // and the handle destructors cancel the unsignalled transfers.
        std::vector<int> gathers;
        for (size_t s = 0; s < segments.size(); ++s) {
          GradSegment* seg = &segments[s];
          const int wait = graph.AddComm(
              "grad_rs_wait[" + std::to_string(s) + "]", /*stream=*/1,
              [seg] { return seg->handle->WaitAll(); }, {fwd_bwd});
          gathers.push_back(graph.AddComm(
              "param_ag[" + std::to_string(s) + "]", /*stream=*/0,
              [&, seg] {
                return comm_now->AllGather(my, seg->shard.data(), seg->full.data(),
                                           seg->padded / dp);
              },
              {wait}));
        }
        graph.AddCompute(
            "grad_unpack+adam",
            [&] {
              MemoryScope scope("optimizer");
              for (int64_t l = 0; l < config.model.num_layers; ++l) {
                GradSegment& seg = segments[static_cast<size_t>(l)];
                size_t cur = 0;
                grads.layers[static_cast<size_t>(l)].ForEach(
                    [&](const std::string&, Tensor& tensor) {
                      for (int64_t i = 0; i < tensor.numel(); ++i) {
                        tensor[i] = seg.full[cur++] / static_cast<float>(dp);
                      }
                    });
              }
              GradSegment& t = segments.back();
              size_t cur = 0;
              const auto unpack = [&](Tensor& tensor) {
                for (int64_t i = 0; i < tensor.numel(); ++i) {
                  tensor[i] = t.full[cur++] / static_cast<float>(dp);
                }
              };
              unpack(grads.embedding);
              unpack(grads.final_gain);
              unpack(grads.lm_head);
              adam.Step(grads.TensorListConst());
              return Status::Ok();
            },
            gathers);
        // A failure surfaces as the communicator's sticky group status,
        // which the step loop below already checks; the graph result merely
        // mirrors it.
        (void)graph.Execute(2);
        for (GradSegment& seg : segments) {
          seg.handle.reset();
        }
        if (record && my == 0) {
          curve.loss[static_cast<size_t>(step)] = stats.ce_loss;
        }
        obs_step.set_loss(stats.ce_loss);
        return stats.ce_loss;
      }

      run_micro_batches(nullptr);

      // Flatten the gradients (the overlap path above flattens per segment
      // as the layer callbacks fire instead).
      size_t cursor = 0;
      grads.ForEachConst([&](const std::string&, const Tensor& tensor) {
        std::memcpy(flat.data() + cursor, tensor.data(),
                    static_cast<size_t>(tensor.numel()) * sizeof(float));
        cursor += static_cast<size_t>(tensor.numel());
      });
      std::fill(flat.begin() + static_cast<int64_t>(cursor), flat.end(), 0.0f);

      if (config.zero_shard_optimizer) {
        // ZeRO-1: reduce this rank's gradient shard, update the master
        // shard, and all-gather the updated parameters on the chosen wire.
        // The shard and wire staging live in the rank thread's workspace —
        // reused verbatim every step.
        Workspace& ws = ThreadWorkspace();
        float* grad_shard = ws.Floats("trainer.grad_shard", shard);
        {
          MemoryScope scope("grad_sync");
          SyncGradShardInto(*comm_now, my, flat.data(), padded, config.grad_sync,
                            grad_shard);
        }
        for (int64_t i = 0; i < shard; ++i) {
          grad_shard[i] /= static_cast<float>(dp_now);
        }
        {
          MemoryScope scope("optimizer");
          flat_adam.Step(grad_shard, master_shard.data());
        }
        MemoryScope scope("grad_sync");
        float* wire = ws.Floats("trainer.wire", shard);
        std::memcpy(wire, master_shard.data(), static_cast<size_t>(shard) * sizeof(float));
        RoundFlatForWire(wire, shard, config.param_gather_precision);
        // A failed gather leaves params as they were; the step loop restores
        // the snapshot on the sticky group status.
        if (comm_now->AllGather(my, wire, flat.data(), shard).ok()) {
          cursor = 0;
          params.ForEach([&](const std::string&, Tensor& tensor) {
            std::memcpy(tensor.data(), flat.data() + cursor,
                        static_cast<size_t>(tensor.numel()) * sizeof(float));
            cursor += static_cast<size_t>(tensor.numel());
          });
        }
      } else {
        {
          MemoryScope scope("grad_sync");
          AllReduceGrads(*comm_now, my, flat.data(), padded, config.grad_sync);
        }
        MemoryScope scope("optimizer");
        cursor = 0;
        grads.ForEach([&](const std::string&, Tensor& tensor) {
          float* d = tensor.data();
          for (int64_t i = 0; i < tensor.numel(); ++i) {
            d[i] = flat[cursor++] / static_cast<float>(dp_now);
          }
        });
        adam.Step(grads.TensorListConst());
      }

      if (record && my == 0) {
        curve.loss[static_cast<size_t>(step)] = stats.ce_loss;
      }
      obs_step.set_loss(stats.ce_loss);
      return stats.ce_loss;
    };

    auto save_opt = [&] {
      return config.zero_shard_optimizer ? flat_adam.SaveState() : adam.SaveState();
    };
    auto load_opt = [&](const std::vector<float>& blob) {
      if (config.zero_shard_optimizer) {
        flat_adam.LoadState(blob);
      } else {
        adam.LoadState(blob);
      }
    };

    // Warmup ("checkpoint to continue from", Fig 18's 176B scenario).
    for (int64_t step = 0; step < config.warmup_steps; ++step) {
      run_step(-config.warmup_steps + step - 1000000, /*record=*/false);
    }

    // Continue a previous run from its persisted checkpoint (the elastic
    // bit-identity cross-check starts a fresh W-k run this way).
    if (!config.init_checkpoint_path.empty()) {
      Result<Checkpoint> loaded = LoadCheckpoint(config.init_checkpoint_path);
      MSMOE_CHECK(loaded.ok()) << loaded.status().ToString();
      const Status restored = RestoreParams(params, loaded.value().params);
      MSMOE_CHECK(restored.ok()) << restored.ToString();
      load_opt(loaded.value().optimizer_state);
    }

    // Gathers the full ZeRO state (masters + Adam moments) of the CURRENT
    // membership into the elastic snapshot buffers; returns false (nothing
    // committed) if the group failed mid-gather. The gathered padding is
    // zero by construction (zero-padded grads keep zero moments and zero
    // master updates), so trimming to total_elems is lossless.
    auto gather_zero_snapshot = [&] {
      std::vector<float> opt_blob = flat_adam.SaveState();  // [step, m, v]
      MSMOE_CHECK_EQ(static_cast<int64_t>(opt_blob.size()), 1 + 2 * shard);
      std::vector<float> master_full(static_cast<size_t>(padded), 0.0f);
      std::vector<float> m_full(static_cast<size_t>(padded), 0.0f);
      std::vector<float> v_full(static_cast<size_t>(padded), 0.0f);
      // Commit on each gather's own status (the collectives' commit-token
      // contract): every rank reaches the same verdict even when a fault
      // lands right after the last gather closes.
      Status gathered =
          comm_now->AllGather(my, master_shard.data(), master_full.data(), shard);
      if (gathered.ok()) {
        gathered = comm_now->AllGather(my, opt_blob.data() + 1, m_full.data(), shard);
      }
      if (gathered.ok()) {
        gathered =
            comm_now->AllGather(my, opt_blob.data() + 1 + shard, v_full.data(), shard);
      }
      if (!gathered.ok()) {
        return false;
      }
      master_full.resize(static_cast<size_t>(total_elems));
      m_full.resize(static_cast<size_t>(total_elems));
      v_full.resize(static_cast<size_t>(total_elems));
      snapshot_master_full = std::move(master_full);
      snapshot_m_full = std::move(m_full);
      snapshot_v_full = std::move(v_full);
      snapshot_opt_step = static_cast<int64_t>(opt_blob[0]);
      return true;
    };

    std::vector<float> checkpoint_params = SaveParams(params);
    std::vector<float> checkpoint_master = master_shard;
    std::vector<float> checkpoint_opt = save_opt();
    int64_t checkpoint_step = config.first_step;
    if (elastic_zero) {
      MSMOE_CHECK(gather_zero_snapshot()) << "initial elastic snapshot failed: "
                                          << comm_now->GroupStatus().ToString();
    }
    if (file_checkpoints && my == 0) {
      const Status saved =
          SaveCheckpoint(config.checkpoint_path, params, checkpoint_opt);
      MSMOE_CHECK(saved.ok()) << saved.ToString();
    }

    // Barrier-gated snapshot: every rank commits the same checkpoint step or
    // none does. Without the gate a rank that has not yet observed an
    // in-flight fault could snapshot a step its peers never reached, and
    // recovery would resume from diverged states.
    auto try_snapshot = [&](int64_t step) {
      // The commit decision branches on the barrier's OWN returned status
      // (serialized with concurrent aborts), never on a GroupStatus() read
      // after the fact: a crash raised by a peer between one rank's barrier
      // exit and another's status read would otherwise commit the snapshot
      // on some ranks only, diverging checkpoint_step — and with it the
      // resume step — across the group.
      if (!comm_now->Barrier(my).ok()) {
        return false;
      }
      if (elastic_zero && !gather_zero_snapshot()) {
        return false;
      }
      checkpoint_params = SaveParams(params);
      checkpoint_master = master_shard;
      checkpoint_opt = save_opt();
      checkpoint_step = step;
      if (file_checkpoints && my == 0) {
        const Status saved =
            SaveCheckpoint(config.checkpoint_path, params, checkpoint_opt);
        MSMOE_CHECK(saved.ok()) << saved.ToString();
      }
      return true;
    };

    // Restores the snapshot at the CURRENT geometry (my, dp_now): after an
    // elastic shrink the ZeRO state is re-sliced from the gathered full
    // snapshot, so restoring at an unchanged world is bitwise identical to
    // the plain per-shard copy.
    auto restore_snapshot = [&] {
      if (file_checkpoints) {
        Result<Checkpoint> loaded = LoadCheckpoint(config.checkpoint_path);
        MSMOE_CHECK(loaded.ok()) << loaded.status().ToString();
        const Status restored = RestoreParams(params, loaded.value().params);
        MSMOE_CHECK(restored.ok()) << restored.ToString();
        load_opt(loaded.value().optimizer_state);
      } else if (elastic_zero) {
        LoadParams(params, checkpoint_params);
        master_shard = ShardOfFlat(snapshot_master_full, total_elems, dp_now, my);
        std::vector<float> blob;
        blob.reserve(static_cast<size_t>(1 + 2 * shard));
        blob.push_back(static_cast<float>(snapshot_opt_step));
        const std::vector<float> m =
            ShardOfFlat(snapshot_m_full, total_elems, dp_now, my);
        const std::vector<float> v =
            ShardOfFlat(snapshot_v_full, total_elems, dp_now, my);
        blob.insert(blob.end(), m.begin(), m.end());
        blob.insert(blob.end(), v.begin(), v.end());
        flat_adam = FlatAdam(config.adam, shard);
        flat_adam.LoadState(blob);
      } else {
        LoadParams(params, checkpoint_params);
        master_shard = checkpoint_master;
        load_opt(checkpoint_opt);
      }
    };

    // Cross-rank bitwise agreement on the synced flat buffer. Replicas are
    // bit-identical by construction, so any difference (a flipped payload
    // bit, a diverged update) is corruption; the first rank to see it
    // cancels the group. A mismatch in this rank's own slot means its copy
    // of its own checksum was corrupted in the exchange.
    int64_t recoveries_used = 0;
    auto checksum_guard = [&](int64_t step) {
      double sum = 0.0;
      for (float value : flat) {
        sum += static_cast<double>(value);
      }
      std::vector<double> sums;
      if (!comm_now->ExchangeScalars(my, sum, &sums).ok()) {
        return;
      }
      for (int peer = 0; peer < dp_now; ++peer) {
        if (sums[static_cast<size_t>(peer)] != sum) {
          {
            std::lock_guard<std::mutex> lock(guard_mu);
            guard_raised_step.resize(static_cast<size_t>(recoveries_used) + 1, -1);
            guard_raised_step.back() = step;
          }
          const std::string rank_name = "rank " + std::to_string(my);
          comm_now->Abort(DataLoss(
              "replica checksum mismatch after step sync: " +
              (peer == my ? rank_name + "'s own checksum arrived corrupted in the exchange"
                          : rank_name + " disagrees with rank " + std::to_string(peer))));
          return;
        }
      }
    };

    // Fault classification replica (elastic runs). Every rank classifies
    // the SAME sticky error with the SAME suspect attribution, so the
    // replicas reach identical verdicts without any extra coordination.
    RecoveryPolicy policy(config.recovery_policy);
    int64_t step = config.first_step;
    while (step < config.steps) {
      rank_step[static_cast<size_t>(rank)].store(step, std::memory_order_release);
      if (config.restart_every > 0 && step > 0 && step % config.restart_every == 0 &&
          step != checkpoint_step) {
        // Checkpoint the current state, tear down, and restore — the Fig 19
        // restart pattern. The curve must continue seamlessly.
        checkpoint_params = SaveParams(params);
        checkpoint_master = master_shard;
        checkpoint_opt = save_opt();
        checkpoint_step = step;
        LoadParams(params, checkpoint_params);
        master_shard = checkpoint_master;
        load_opt(checkpoint_opt);
        if (my == 0) {
          curve.restart_steps.push_back(step);
        }
      }
      bool step_ran = true;
      if (fault_aware && config.checkpoint_every > 0 && step > checkpoint_step &&
          step - checkpoint_step >= config.checkpoint_every) {
        step_ran = try_snapshot(step);
      }
      if (step_ran) {
        run_step(step, /*record=*/true);
        if (config.guard_grad_checksum && comm_now->GroupStatus().ok()) {
          checksum_guard(step);
        }
      }
      Status status = comm_now->GroupStatus();
      if (status.ok() && fault_aware && step + 1 == config.steps) {
        // A peer can still raise a fault after this check (the checksum
        // guard aborts after its exchange). Mid-run the next step's
        // collectives carry it here; after the last step only this barrier
        // does, so every rank leaves the loop or none does.
        status = comm_now->Barrier(my);
      }
      if (status.ok()) {
        if (config.elastic) {
          policy.OnStepSuccess();
        }
        ++step;
        continue;
      }
      // A fault surfaced somewhere in this step: every rank observes the
      // same sticky error (the collectives all route through the cancelled
      // barrier). A rank whose step completed just before a peer raised the
      // fault may read OK here and enter recovery one iteration later — the
      // rollback below re-aligns everyone at step = checkpoint_step, which
      // the barrier-gated snapshot keeps identical across the group.
      //
      // Classification. Elastic runs ask the policy replica. Attribution:
      // the communicator's shared suspect (explicit abort culprit, or the
      // barrier arrival bitmap on a timeout), falling back to the straggler
      // report over the epoch's telemetry for deadline faults with no
      // bitmap attribution. Both inputs are identical on every rank.
      // Non-elastic runs retry every rollback-repairable fault with no
      // backoff and no culprit; other codes are logic errors that would fail
      // identically on replay.
      //
      // The RecoveryEvent's failed_step is the step at which the fault was
      // RAISED, which every rank reads the same: the step of the rank the
      // abort names, else the step of the checksum guard that aborted, else
      // (an unattributed deadline) this rank's own step. The named rank
      // cannot move on before every rank has passed RecoveryBarrier, and an
      // evicted one never does.
      const int named = comm_now->SuspectRank();
      int64_t failed_step = step;
      if (named >= 0 && named < dp_now) {
        failed_step = rank_step[static_cast<size_t>(
                                    members_now[static_cast<size_t>(named)])]
                          .load(std::memory_order_acquire);
      } else {
        std::lock_guard<std::mutex> lock(guard_mu);
        const size_t index = static_cast<size_t>(recoveries_used);
        if (index < guard_raised_step.size() && guard_raised_step[index] >= 0) {
          failed_step = guard_raised_step[index];
        }
      }
      int culprit_global = -1;
      RecoveryDecision decision;
      if (config.elastic) {
        int suspect = named;
        if (suspect < 0 && status.code() == StatusCode::kDeadlineExceeded) {
          suspect =
              WorstStragglerRank(DetectStragglers(comm_now->telemetry().Events()));
        }
        if (suspect >= 0 && suspect < dp_now) {
          culprit_global = members_now[static_cast<size_t>(suspect)];
        }
        decision = policy.OnFailure(status, culprit_global);
      } else if (IsRollbackRepairable(status)) {
        decision.verdict = FaultVerdict::kTransient;
      } else {
        decision.reason = "non-recoverable status code";
      }
      MSMOE_CHECK(decision.verdict != FaultVerdict::kFatal)
          << "fatal failure at step " << step << " (" << decision.reason
          << "): " << status.ToString();
      ++recoveries_used;
      MSMOE_CHECK_LE(recoveries_used, config.max_recoveries)
          << "training failed at step " << step << " and exhausted "
          << config.max_recoveries << " recoveries: " << status.ToString();
      if (my == 0 && config.profiler != nullptr) {
        config.profiler->NoteRetry();
      }

      if (decision.verdict == FaultVerdict::kTransient) {
        comm_now->RecoveryBarrier(my);
        if (decision.backoff_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(decision.backoff_ms));
        }
        restore_snapshot();
        if (my == 0) {
          RecoveryEvent event;
          event.failed_step = failed_step;
          event.resumed_step = checkpoint_step;
          event.steps_lost = failed_step - checkpoint_step;
          event.cause = status.ToString();
          event.verdict = decision.verdict;
          event.culprit_rank = decision.culprit_rank;
          event.world_after = config.elastic ? dp_now : 0;
          event.backoff_ms = decision.backoff_ms;
          curve.recoveries.push_back(event);
        }
        step = checkpoint_step;
        continue;
      }

      // Permanent verdict: evict the culprit and continue on the survivors.
      MSMOE_CHECK_GE(culprit_global, 0)
          << "permanent verdict without a culprit: " << decision.reason;
      MSMOE_CHECK_GE(dp_now - 1, config.min_world)
          << "cannot shrink below min_world=" << config.min_world << " (world "
          << dp_now << ", evicting rank " << culprit_global << ")";
      if (rank == culprit_global) {
        // This thread IS the evicted rank. It reached the same replicated
        // verdict from the same sticky error, recognized itself, and leaves
        // the rank loop; the survivors rendezvous in Shrink WITHOUT it (a
        // dead rank can't be required for its own funeral). Its stale
        // communicator stays valid — retired — for any pointer still held.
        return;
      }
      const Status shrunk = elastic.Shrink(rank, {culprit_global});
      MSMOE_CHECK(shrunk.ok()) << "elastic shrink failed at step " << step
                               << ": " << shrunk.ToString();
      comm_now = elastic.comm();
      my = elastic.EpochRank(rank);
      MSMOE_CHECK_GE(my, 0);
      dp_now = elastic.size();
      members_now = elastic.members();
      if (my == 0 && config.profiler != nullptr) {
        config.profiler->NoteEviction();
        // New epoch => new (smaller) world for the GEMM/MFU split.
        config.profiler->set_world(dp_now);
      }
      // Re-plan the per-rank geometry for the shrunk world, then restore
      // the snapshot resharded at the new boundaries.
      padded = PaddedGradCount(total_elems, dp_now);
      shard = padded / dp_now;
      flat.assign(static_cast<size_t>(padded), 0.0f);
      restore_snapshot();
      {
        // Cross-rank checksum of the resharded state BEFORE the first
        // degraded step: a reshard bug must surface here as DataLoss, not
        // three steps later as a silently forked loss curve. Params (and
        // for ZeRO the gathered full snapshots) are replicated, so their
        // sums must agree bitwise across all survivors.
        double state_sum = 0.0;
        const std::vector<float> restored = SaveParams(params);
        for (float value : restored) {
          state_sum += static_cast<double>(value);
        }
        if (elastic_zero) {
          for (float value : snapshot_master_full) {
            state_sum += static_cast<double>(value);
          }
          for (float value : snapshot_m_full) {
            state_sum += static_cast<double>(value);
          }
          for (float value : snapshot_v_full) {
            state_sum += static_cast<double>(value);
          }
        }
        std::vector<double> sums;
        const Status guard = comm_now->ExchangeScalars(my, state_sum, &sums);
        MSMOE_CHECK(guard.ok())
            << "post-shrink validation collective failed: " << guard.ToString();
        for (int peer = 0; peer < dp_now; ++peer) {
          if (sums[static_cast<size_t>(peer)] != state_sum) {
            comm_now->Abort(
                DataLoss("resharded state diverged across survivors after the "
                         "shrink (rank " + std::to_string(my) +
                         " disagrees with rank " + std::to_string(peer) + ")"));
          }
        }
        MSMOE_CHECK(comm_now->GroupStatus().ok())
            << "post-shrink reshard validation failed: "
            << comm_now->GroupStatus().ToString();
      }
      if (my == 0) {
        RecoveryEvent event;
        event.failed_step = failed_step;
        event.resumed_step = checkpoint_step;
        event.steps_lost = failed_step - checkpoint_step;
        event.cause = status.ToString();
        event.verdict = decision.verdict;
        event.culprit_rank = culprit_global;
        event.world_after = dp_now;
        curve.recoveries.push_back(event);
      }
      step = checkpoint_step;
    }
  });
  curve.final_world = elastic.size();
  if (config.capture_comm_events) {
    curve.comm_events = elastic.Events();
  }
  if (config.profiler != nullptr) {
    // Write the run artifacts (metrics.jsonl / merged trace / prom snapshot)
    // off the final epoch's telemetry. Finish is idempotent, so a caller
    // aggregating several runs can call it again later; a write failure is
    // an observability loss, not a training failure.
    const Status obs_written =
        config.profiler->Finish(&elastic.comm()->telemetry());
    if (!obs_written.ok()) {
      MSMOE_LOG(Warning) << "profiler artifacts not written: "
                         << obs_written.ToString();
    }
  }
  return curve;
}

}  // namespace msmoe
