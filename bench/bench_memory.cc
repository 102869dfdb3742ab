// Allocation telemetry of the hot training path: measures how many arena
// acquires the real trainer performs per step, how many of those fall
// through to the system heap before vs after the pool warms up, and whether
// pooling changes any numeric result or costs any wall-clock time.
//
// Three sections, all built on the MemStats counters (src/base/arena.h):
//   1. Trainer allocation profile — a dp=1 single-worker run (fully
//      deterministic allocation sequence) and a dp=2 multi-worker run, each
//      executed twice: the first run warms the pool, the second must be
//      served ENTIRELY from recycled blocks. Steady-state heap allocs per
//      step is the headline number (0 after this PR; every acquire was a
//      heap alloc before). The same runs are repeated with
//      SetArenaPoolingEnabled(false) to reproduce the pre-pool baseline in
//      the same binary.
//   2. Bitwise identity — the loss curves of pooled and unpooled runs (both
//      the replicated BF16 path and the ZeRO-1 FP8 path) must be bitwise
//      identical: recycled uninitialized blocks may never leak into results.
//   3. Fused-pipeline wall clock — the Fig 15 measured configuration
//      (4 thread-ranks, fused all-gather + GEMM) timed pooled vs unpooled.
//
// Writes BENCH_memory.json and BENCH_memory_trace.json (a Chrome trace
// carrying the per-phase memory counters next to the collectives).
//
// With --check, gates (the Release-mode memory smoke stage of
// tools/check.sh):
//   (a) steady-state heap allocs == 0 on the deterministic dp=1 run,
//   (b) pooled loss curves bitwise equal to unpooled on both train paths,
//   (c) pooled fused-pipeline median no slower than 1.10x unpooled.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/arena.h"
#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/base/table.h"
#include "src/comm/communicator.h"
#include "src/core/trainer.h"
#include "src/parallel/fused_ops.h"
#include "src/sim/trace_export.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

constexpr int64_t kSteps = 6;

NumericTrainConfig BaseConfig(int dp) {
  NumericTrainConfig config;
  config.model = TinyMoeConfig(4, 2);
  config.model.num_layers = 2;
  config.model.vocab = 32;
  config.model.seq_len = 8;
  config.router.num_experts = 4;
  config.router.top_k = 2;
  config.dp_size = dp;
  config.batch_per_rank = 1;
  config.steps = kSteps;
  return config;
}

NumericTrainConfig ReplicatedConfig(int dp) {
  NumericTrainConfig config = BaseConfig(dp);
  config.precision = TrainPrecision::kBf16;
  config.grad_sync = GradSyncMode::kFp32ReduceScatter;
  return config;
}

NumericTrainConfig ZeroConfig(int dp) {
  NumericTrainConfig config = BaseConfig(dp);
  config.precision = TrainPrecision::kFp8;
  config.grad_sync = GradSyncMode::kBf16AllToAll;
  config.zero_shard_optimizer = true;
  config.param_gather_precision = TrainPrecision::kBf16;
  return config;
}

struct TrainerProfile {
  std::string label;
  bool pooled = false;
  // First (cold) run: the pool fills here.
  uint64_t cold_heap_allocs = 0;
  // Second (steady) run of the identical config: must be all pool hits.
  uint64_t steady_acquires = 0;
  uint64_t steady_heap_allocs = 0;
  double steady_hit_rate = 1.0;
  std::vector<double> loss;
};

// Runs the config twice under the requested pooling mode and returns the
// cold/steady allocation profile plus the (second run's) loss curve. The
// curves of both runs are identical by construction — the second run exists
// only to measure the warmed pool.
TrainerProfile ProfileTrainer(const std::string& label, const NumericTrainConfig& config,
                              bool pooled) {
  TrainerProfile profile;
  profile.label = label;
  profile.pooled = pooled;
  SetArenaPoolingEnabled(pooled);
  ArenaTrim();
  ResetMemStats();
  TrainCurve cold = TrainLm(config);
  const MemStatsSnapshot after_cold = GetMemStats();
  TrainCurve steady = TrainLm(config);
  const MemStatsSnapshot after_steady = GetMemStats();
  SetArenaPoolingEnabled(true);
  profile.cold_heap_allocs = after_cold.heap_allocs;
  profile.steady_acquires = after_steady.acquires - after_cold.acquires;
  profile.steady_heap_allocs = after_steady.heap_allocs - after_cold.heap_allocs;
  profile.steady_hit_rate =
      profile.steady_acquires == 0
          ? 1.0
          : 1.0 - static_cast<double>(profile.steady_heap_allocs) /
                      static_cast<double>(profile.steady_acquires);
  MSMOE_CHECK_EQ(cold.loss.size(), steady.loss.size());
  MSMOE_CHECK_EQ(std::memcmp(cold.loss.data(), steady.loss.data(),
                             cold.loss.size() * sizeof(double)),
                 0)
      << label << ": repeat run diverged from its own first run";
  profile.loss = steady.loss;
  return profile;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Fig 15 measured configuration: fused all-gather + GEMM over 4 thread
// ranks (bench_fig15_intra_overlap's shapes, without the wire model so the
// measurement isolates allocator cost rather than emulated transfer time).
struct FusedTiming {
  double pooled_ms = 0.0;
  double unpooled_ms = 0.0;
  TimingStats pooled_stats;    // p10/p90 spread + rep count behind pooled_ms
  TimingStats unpooled_stats;  // ... and behind unpooled_ms
  bool bitwise = false;
};

FusedTiming TimeFusedPipeline() {
  constexpr int kRanks = 4;
  constexpr int64_t kRowsLocal = 384;
  constexpr int64_t kK = 384;
  constexpr int64_t kCols = 512;
  constexpr int64_t kTile = 96;
  Rng rng(7);
  std::vector<Tensor> x_locals;
  for (int rank = 0; rank < kRanks; ++rank) {
    x_locals.push_back(Tensor::Randn({kRowsLocal, kK}, rng));
  }
  const Tensor w = Tensor::Randn({kK, kCols}, rng);
  FlatCommunicator comm(kRanks);
  std::vector<Tensor> y(kRanks);

  auto run_fused = [&] {
    RunOnRanks(kRanks, [&](int rank) {
      ShardContext ctx{&comm, rank};
      y[static_cast<size_t>(rank)] =
          FusedAllGatherGemm(ctx, x_locals[static_cast<size_t>(rank)], w, kTile);
    });
  };

  FusedTiming timing;
  SetArenaPoolingEnabled(false);
  ArenaTrim();
  timing.unpooled_stats = TimedStatsOfN(1, 5, run_fused);
  timing.unpooled_ms = timing.unpooled_stats.median_s * 1e3;
  std::vector<Tensor> y_unpooled;
  for (int rank = 0; rank < kRanks; ++rank) {
    y_unpooled.push_back(y[static_cast<size_t>(rank)]);
  }
  SetArenaPoolingEnabled(true);
  timing.pooled_stats = TimedStatsOfN(1, 5, run_fused);
  timing.pooled_ms = timing.pooled_stats.median_s * 1e3;
  timing.bitwise = true;
  for (int rank = 0; rank < kRanks; ++rank) {
    timing.bitwise =
        timing.bitwise &&
        std::memcmp(y[static_cast<size_t>(rank)].data(),
                    y_unpooled[static_cast<size_t>(rank)].data(),
                    static_cast<size_t>(kRanks * kRowsLocal * kCols) * sizeof(float)) ==
            0;
  }
  return timing;
}

struct Report {
  TrainerProfile dp1_pooled;
  TrainerProfile dp1_unpooled;
  TrainerProfile dp2_pooled;
  TrainerProfile dp2_unpooled;
  TrainerProfile zero_pooled;
  TrainerProfile zero_unpooled;
  FusedTiming fused;
  MemStatsSnapshot phases;  // phase breakdown of the last pooled dp=2 run
  bool replicated_bitwise = false;
  bool zero_bitwise = false;
};

Report RunAll() {
  Report report;
  // dp=1, single worker: every allocation happens on one thread in one
  // deterministic order — the strict zero-alloc gate.
  const int default_workers = SetParallelWorkerCount(1);
  report.dp1_unpooled = ProfileTrainer("dp1/bf16 unpooled", ReplicatedConfig(1), false);
  report.dp1_pooled = ProfileTrainer("dp1/bf16 pooled", ReplicatedConfig(1), true);
  SetParallelWorkerCount(default_workers);

  // dp=2 with the default worker pool: reported (concurrent ranks interleave
  // arbitrarily in the bucket free lists, so steady-state heap allocs are
  // near — not provably — zero), and the source of the phase breakdown.
  report.dp2_unpooled = ProfileTrainer("dp2/bf16 unpooled", ReplicatedConfig(2), false);
  NumericTrainConfig traced = ReplicatedConfig(2);
  traced.capture_comm_events = true;
  report.dp2_pooled = ProfileTrainer("dp2/bf16 pooled", traced, true);
  report.phases = GetMemStats();

  // ZeRO-1 FP8 path (sharded masters, BF16 wire, FP8 compute round-trip).
  report.zero_unpooled = ProfileTrainer("dp2/fp8-zero unpooled", ZeroConfig(2), false);
  report.zero_pooled = ProfileTrainer("dp2/fp8-zero pooled", ZeroConfig(2), true);

  report.replicated_bitwise =
      BitwiseEqual(report.dp2_pooled.loss, report.dp2_unpooled.loss) &&
      BitwiseEqual(report.dp1_pooled.loss, report.dp1_unpooled.loss);
  report.zero_bitwise = BitwiseEqual(report.zero_pooled.loss, report.zero_unpooled.loss);

  report.fused = TimeFusedPipeline();
  return report;
}

void PrintReport(const Report& report) {
  TablePrinter table({"Run", "Pooling", "Cold heap allocs", "Steady acquires",
                      "Steady heap allocs", "Steady allocs/step", "Pool hit rate"});
  const auto row = [&](const TrainerProfile& profile) {
    table.AddRow({profile.label, profile.pooled ? "on" : "off",
                  std::to_string(profile.cold_heap_allocs),
                  std::to_string(profile.steady_acquires),
                  std::to_string(profile.steady_heap_allocs),
                  TablePrinter::Fmt(static_cast<double>(profile.steady_heap_allocs) /
                                        static_cast<double>(kSteps),
                                    1),
                  TablePrinter::Fmt(100.0 * profile.steady_hit_rate, 1) + "%"});
  };
  row(report.dp1_unpooled);
  row(report.dp1_pooled);
  row(report.dp2_unpooled);
  row(report.dp2_pooled);
  row(report.zero_unpooled);
  row(report.zero_pooled);
  table.Print("Trainer allocation profile (" + std::to_string(kSteps) +
              " steps per run; steady = second run on the warmed pool):");

  TablePrinter phase_table(
      {"Phase", "Acquires", "Pool hits", "Heap allocs", "Acquired MB", "Hit rate"});
  for (const MemPhaseSnapshot& phase : report.phases.phases) {
    phase_table.AddRow({phase.name, std::to_string(phase.acquires),
                        std::to_string(phase.pool_hits),
                        std::to_string(phase.heap_allocs),
                        TablePrinter::Fmt(static_cast<double>(phase.acquired_bytes) / 1e6,
                                          1),
                        TablePrinter::Fmt(100.0 * phase.hit_rate(), 1) + "%"});
  }
  phase_table.Print("Per-phase arena traffic (pooled dp=2 runs, cold + steady):");

  std::printf("bitwise loss identity pooled vs unpooled: replicated %s, zero-1 %s\n",
              report.replicated_bitwise ? "yes" : "NO",
              report.zero_bitwise ? "yes" : "NO");
  std::printf("fused all-gather+GEMM (fig15 shapes): pooled %.2f ms vs unpooled %.2f "
              "ms (%.2fx), bitwise %s\n",
              report.fused.pooled_ms, report.fused.unpooled_ms,
              report.fused.unpooled_ms / report.fused.pooled_ms,
              report.fused.bitwise ? "yes" : "NO");
}

void WriteJson(const Report& report) {
  const char* json_path = "BENCH_memory.json";
  std::FILE* json = std::fopen(json_path, "wb");
  if (json == nullptr) {
    return;
  }
  std::fprintf(json, "{\"bench\": \"memory\", \"steps\": %lld, \"runs\": [",
               static_cast<long long>(kSteps));
  const TrainerProfile* profiles[] = {&report.dp1_unpooled, &report.dp1_pooled,
                                      &report.dp2_unpooled, &report.dp2_pooled,
                                      &report.zero_unpooled, &report.zero_pooled};
  for (size_t i = 0; i < 6; ++i) {
    const TrainerProfile& profile = *profiles[i];
    std::fprintf(json,
                 "%s\n  {\"run\": \"%s\", \"pooled\": %s, \"cold_heap_allocs\": %llu, "
                 "\"steady_acquires\": %llu, \"steady_heap_allocs\": %llu, "
                 "\"steady_hit_rate\": %.4f}",
                 i == 0 ? "" : ",", profile.label.c_str(),
                 profile.pooled ? "true" : "false",
                 static_cast<unsigned long long>(profile.cold_heap_allocs),
                 static_cast<unsigned long long>(profile.steady_acquires),
                 static_cast<unsigned long long>(profile.steady_heap_allocs),
                 profile.steady_hit_rate);
  }
  std::fprintf(json, "\n], \"phases\": [");
  for (size_t i = 0; i < report.phases.phases.size(); ++i) {
    const MemPhaseSnapshot& phase = report.phases.phases[i];
    std::fprintf(json,
                 "%s\n  {\"phase\": \"%s\", \"acquires\": %llu, \"pool_hits\": %llu, "
                 "\"heap_allocs\": %llu, \"acquired_bytes\": %llu}",
                 i == 0 ? "" : ",", phase.name.c_str(),
                 static_cast<unsigned long long>(phase.acquires),
                 static_cast<unsigned long long>(phase.pool_hits),
                 static_cast<unsigned long long>(phase.heap_allocs),
                 static_cast<unsigned long long>(phase.acquired_bytes));
  }
  std::string spread;
  AppendTimingSpreadJson(&spread, "pooled", report.fused.pooled_stats);
  spread += ", ";
  AppendTimingSpreadJson(&spread, "unpooled", report.fused.unpooled_stats);
  std::fprintf(json,
               "\n], \"bitwise\": {\"replicated\": %s, \"zero\": %s, \"fused\": %s}, "
               "\"fused_ms\": {\"pooled\": %.3f, \"unpooled\": %.3f, %s}}\n",
               report.replicated_bitwise ? "true" : "false",
               report.zero_bitwise ? "true" : "false",
               report.fused.bitwise ? "true" : "false", report.fused.pooled_ms,
               report.fused.unpooled_ms, spread.c_str());
  std::fclose(json);
  std::printf("machine-readable output: %s\n", json_path);
}

void WriteTrace(const Report& report) {
  // The traced dp=2 pooled run captured its collectives; the memory lane
  // carries the phase counters next to them.
  const Status written = WriteCommTrace("BENCH_memory_trace.json", {}, "msmoe-memory",
                                        /*health=*/nullptr, /*comp_events=*/nullptr,
                                        &report.phases);
  if (written.ok()) {
    std::printf("chrome trace with memory lane: BENCH_memory_trace.json\n");
  }
}

int CheckMode() {
  const Report report = RunAll();
  PrintReport(report);
  WriteJson(report);
  WriteTrace(report);
  int failures = 0;
  if (report.dp1_pooled.steady_heap_allocs != 0) {
    std::printf("\nMEMORY SMOKE FAILED: steady-state dp=1 run performed %llu heap "
                "allocs (expected 0)\n",
                static_cast<unsigned long long>(report.dp1_pooled.steady_heap_allocs));
    ++failures;
  }
  if (!report.replicated_bitwise || !report.zero_bitwise || !report.fused.bitwise) {
    std::printf("\nMEMORY SMOKE FAILED: pooled results not bitwise identical to "
                "unpooled (replicated %s, zero %s, fused %s)\n",
                report.replicated_bitwise ? "ok" : "DIVERGED",
                report.zero_bitwise ? "ok" : "DIVERGED",
                report.fused.bitwise ? "ok" : "DIVERGED");
    ++failures;
  }
  if (report.fused.pooled_ms > 1.10 * report.fused.unpooled_ms) {
    std::printf("\nMEMORY SMOKE FAILED: pooled fused pipeline (%.2f ms) slower than "
                "1.10x unpooled (%.2f ms)\n",
                report.fused.pooled_ms, report.fused.unpooled_ms);
    ++failures;
  }
  if (failures == 0) {
    std::printf("\nmemory smoke ok: steady-state heap allocs 0/step, results bitwise "
                "identical, fused %.2f ms pooled vs %.2f ms unpooled\n",
                report.fused.pooled_ms, report.fused.unpooled_ms);
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      return CheckMode();
    }
  }
  PrintHeader("BENCH memory",
              "allocation telemetry of the hot training path: arena acquires, pool "
              "hits, and steady-state heap allocations per trainer step, before "
              "(pooling off) vs after (pooling on)");
  const Report report = RunAll();
  PrintReport(report);
  WriteJson(report);
  WriteTrace(report);
  return 0;
}

}  // namespace
}  // namespace msmoe

int main(int argc, char** argv) { return msmoe::Main(argc, argv); }
