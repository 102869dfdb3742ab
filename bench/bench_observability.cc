// Observability overhead and efficacy (the src/obs subsystem end to end):
//
//   1. Recording overhead — the Fig 15 fused all-gather + GEMM pipeline
//      (4 thread-ranks, the bench_memory shapes) timed with the metrics
//      registry enabled vs disabled. Every collective, parallel region,
//      and arena acquire records into the registry on this path, so the
//      delta is the registry's real hot-path cost.
//   2. Loss identity — a dp=2 training run with a StepProfiler attached
//      (writing metrics.jsonl, the merged Chrome trace, and the Prometheus
//      snapshot) vs the identical run uninstrumented. Profiling must never
//      change a bit of the numerics.
//   3. Anomaly efficacy — the same run with a FaultPlan slow rank (30ms
//      per collective from roughly step 6): the online detector must flag
//      the regression within five steps of the fault and name the injected
//      rank, and the anomaly lane must land in the merged trace.
//   4. Disabled-registry guarantee — with the registry disabled, the
//      steady-state (warmed-pool) training step must stay at zero heap
//      allocations: a disabled record path is a relaxed load + branch.
//
// Writes BENCH_obs.json. With --check, gates (the observability smoke
// stage of tools/check.sh):
//   (a) metrics-enabled fused-pipeline median within 2% of disabled (plus
//       a 0.15ms absolute jitter floor so sub-10ms medians don't flake),
//   (b) instrumented loss curve bitwise equal to uninstrumented, with all
//       three artifacts written,
//   (c) slow rank flagged within five steps, attributed to the right rank,
//       and present in the trace's anomaly lane,
//   (d) zero steady-state heap allocs with the registry disabled.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/arena.h"
#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/comm/fault.h"
#include "src/core/trainer.h"
#include "src/obs/metrics.h"
#include "src/obs/step_profiler.h"
#include "src/parallel/fused_ops.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// --- 1. Registry overhead on the fused fig15 pipeline -----------------------

struct OverheadTiming {
  double enabled_ms = 0.0;
  double disabled_ms = 0.0;
  TimingStats enabled_stats;
  TimingStats disabled_stats;
  double overhead_pct = 0.0;  // (enabled - disabled) / disabled * 100
};

OverheadTiming TimeRegistryOverhead() {
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

  MetricsRegistry& registry = MetricsRegistry::Global();
  OverheadTiming timing;
  registry.set_enabled(false);
  timing.disabled_stats = TimedStatsOfN(3, 15, run_fused);
  timing.disabled_ms = timing.disabled_stats.median_s * 1e3;
  registry.set_enabled(true);
  timing.enabled_stats = TimedStatsOfN(3, 15, run_fused);
  timing.enabled_ms = timing.enabled_stats.median_s * 1e3;
  timing.overhead_pct =
      timing.disabled_ms > 0.0
          ? 100.0 * (timing.enabled_ms - timing.disabled_ms) / timing.disabled_ms
          : 0.0;
  return timing;
}

// --- 2/3. Trainer instrumentation -------------------------------------------

NumericTrainConfig ObsConfig() {
  NumericTrainConfig config;
  config.model = TinyMoeConfig(4, 2);
  config.model.num_layers = 1;
  config.model.vocab = 32;
  config.model.seq_len = 8;
  config.router.num_experts = 4;
  config.router.top_k = 2;
  config.dp_size = 2;
  config.batch_per_rank = 2;
  config.steps = 8;
  return config;
}

// Detector thresholds for wall-clock-driven runs on a loaded CI host: only
// a >=2x, >=10ms, z>=6 excursion is a verdict — unreachable for scheduler
// jitter on single-digit-ms steps, trivial for a 30ms-per-collective stall.
AnomalyConfig RobustAnomalyConfig() {
  AnomalyConfig anomaly;
  anomaly.z_threshold = 6.0;
  anomaly.min_ratio = 2.0;
  anomaly.min_delta_ms = 10.0;
  return anomaly;
}

struct InstrumentedResult {
  std::vector<double> bare_loss;
  std::vector<double> profiled_loss;
  bool bitwise = false;
  bool jsonl_written = false;
  bool trace_written = false;
  bool prom_written = false;
  size_t jsonl_lines = 0;
  int64_t collectives_per_step = 0;  // pilot for the fault aim below
};

bool FileNonEmpty(const char* path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() && in.tellg() > 0;
}

InstrumentedResult RunInstrumented() {
  InstrumentedResult result;
  const NumericTrainConfig bare = ObsConfig();
  result.bare_loss = TrainLm(bare).loss;

  const char* jsonl_path = "BENCH_obs_metrics.jsonl";
  const char* trace_path = "BENCH_obs_trace.json";
  const char* prom_path = "BENCH_obs_metrics.prom";
  std::remove(jsonl_path);
  std::remove(trace_path);
  std::remove(prom_path);

  StepProfilerConfig profiler_config;
  profiler_config.jsonl_path = jsonl_path;
  profiler_config.trace_path = trace_path;
  profiler_config.prom_path = prom_path;
  profiler_config.anomaly = RobustAnomalyConfig();
  profiler_config.world = bare.dp_size;
  StepProfiler profiler(profiler_config);
  NumericTrainConfig instrumented = ObsConfig();
  instrumented.profiler = &profiler;
  result.profiled_loss = TrainLm(instrumented).loss;

  result.bitwise =
      result.bare_loss.size() == result.profiled_loss.size() &&
      std::memcmp(result.bare_loss.data(), result.profiled_loss.data(),
                  result.bare_loss.size() * sizeof(double)) == 0;
  result.jsonl_written = FileNonEmpty(jsonl_path);
  result.trace_written = FileNonEmpty(trace_path);
  result.prom_written = FileNonEmpty(prom_path);
  std::ifstream jsonl(jsonl_path);
  std::string line;
  while (std::getline(jsonl, line)) {
    StepReport report;
    if (ParseStepReportJson(line, &report)) {
      ++result.jsonl_lines;
      if (report.rank == 1 && report.step == 0) {
        result.collectives_per_step = report.collectives;
      }
    }
  }
  return result;
}

struct AnomalyResult {
  bool detected = false;
  int64_t fault_step = 0;        // step the injected stall starts at (aimed)
  int64_t first_anomaly_step = -1;
  int64_t detection_latency = -1;  // first_anomaly_step - fault_step
  int straggler_suspect = -1;
  std::vector<double> mean_entry_lag_us;  // the straggler verdict, per rank
  size_t anomaly_events = 0;
  bool trace_has_anomaly_lane = false;
};

AnomalyResult RunSlowRankDetection(int64_t collectives_per_step) {
  AnomalyResult result;
  constexpr int64_t kFaultStep = 6;
  result.fault_step = kFaultStep;

  const char* trace_path = "BENCH_obs_anomaly_trace.json";
  std::remove(trace_path);

  // Rank 1 stalls 30ms before every collective from roughly step 6 onward
  // (the op-index aim is approximate by the pre-step setup collectives — the
  // fault can land a step or two early, never late). No timeout is armed, so
  // nothing fails: the run is just slow, and only the detector notices.
  FaultPlan plan;
  plan.AddSlowRank(/*rank=*/1, /*delay_us=*/30000.0,
                   /*from_op=*/kFaultStep * collectives_per_step, /*num_ops=*/-1);

  StepProfilerConfig profiler_config;
  profiler_config.trace_path = trace_path;
  profiler_config.anomaly = RobustAnomalyConfig();
  profiler_config.world = 2;
  StepProfiler profiler(profiler_config);
  NumericTrainConfig config = ObsConfig();
  config.steps = 14;
  config.fault_plan = &plan;
  config.profiler = &profiler;
  TrainLm(config);

  const std::vector<AnomalyEvent> anomalies = profiler.anomalies();
  result.anomaly_events = anomalies.size();
  result.detected = !anomalies.empty();
  for (const AnomalyEvent& event : anomalies) {
    if (result.first_anomaly_step < 0 || event.step < result.first_anomaly_step) {
      result.first_anomaly_step = event.step;
    }
  }
  if (result.detected) {
    result.detection_latency = result.first_anomaly_step - kFaultStep;
  }
  result.straggler_suspect = profiler.StragglerSuspect();
  for (const RankHealth& health : profiler.straggler_report().ranks) {
    result.mean_entry_lag_us.push_back(health.mean_entry_lag_us);
  }

  std::ifstream trace(trace_path);
  if (trace.good()) {
    std::stringstream buffer;
    buffer << trace.rdbuf();
    const std::string text = buffer.str();
    result.trace_has_anomaly_lane =
        text.find("\"anomaly\"") != std::string::npos &&
        text.find("step_time_regression") != std::string::npos;
  }
  return result;
}

// --- 4. Disabled registry preserves the zero-alloc steady state -------------

struct DisabledAllocResult {
  uint64_t steady_heap_allocs = 0;
  uint64_t steady_acquires = 0;
};

DisabledAllocResult RunDisabledAllocCheck() {
  // The bench_memory zero-alloc configuration: dp=1, one worker, pooled —
  // a fully deterministic allocation sequence. First run warms the pool;
  // the second must be served entirely from recycled blocks, and with the
  // registry disabled the record path may not add a single allocation.
  DisabledAllocResult result;
  NumericTrainConfig config = ObsConfig();
  config.dp_size = 1;
  config.batch_per_rank = 1;
  const int default_workers = SetParallelWorkerCount(1);
  MetricsRegistry::Global().set_enabled(false);
  SetArenaPoolingEnabled(true);
  ArenaTrim();
  ResetMemStats();
  TrainLm(config);
  const MemStatsSnapshot after_cold = GetMemStats();
  TrainLm(config);
  const MemStatsSnapshot after_steady = GetMemStats();
  MetricsRegistry::Global().set_enabled(true);
  SetParallelWorkerCount(default_workers);
  result.steady_heap_allocs = after_steady.heap_allocs - after_cold.heap_allocs;
  result.steady_acquires = after_steady.acquires - after_cold.acquires;
  return result;
}

// --- Reporting ---------------------------------------------------------------

struct Report {
  OverheadTiming overhead;
  InstrumentedResult instrumented;
  AnomalyResult anomaly;
  DisabledAllocResult disabled_allocs;
};

Report RunAll() {
  Report report;
  report.overhead = TimeRegistryOverhead();
  report.instrumented = RunInstrumented();
  report.anomaly = RunSlowRankDetection(report.instrumented.collectives_per_step);
  report.disabled_allocs = RunDisabledAllocCheck();
  return report;
}

void PrintReport(const Report& report) {
  std::printf("fused fig15 pipeline: registry enabled %.3f ms vs disabled %.3f ms "
              "(overhead %+.2f%%)\n",
              report.overhead.enabled_ms, report.overhead.disabled_ms,
              report.overhead.overhead_pct);
  std::printf("instrumented dp=2 run: loss bitwise %s; artifacts jsonl=%s (%zu lines) "
              "trace=%s prom=%s\n",
              report.instrumented.bitwise ? "identical" : "DIVERGED",
              report.instrumented.jsonl_written ? "yes" : "NO",
              report.instrumented.jsonl_lines,
              report.instrumented.trace_written ? "yes" : "NO",
              report.instrumented.prom_written ? "yes" : "NO");
  std::printf("slow-rank injection (30ms/collective from step %lld): %s",
              static_cast<long long>(report.anomaly.fault_step),
              report.anomaly.detected ? "" : "NOT DETECTED\n");
  if (report.anomaly.detected) {
    std::printf("flagged at step %lld (latency %lld steps, %zu events), suspect rank "
                "%d, anomaly lane in trace: %s\n",
                static_cast<long long>(report.anomaly.first_anomaly_step),
                static_cast<long long>(report.anomaly.detection_latency),
                report.anomaly.anomaly_events, report.anomaly.straggler_suspect,
                report.anomaly.trace_has_anomaly_lane ? "yes" : "NO");
  }
  std::printf("disabled registry steady state: %llu heap allocs over %llu acquires\n",
              static_cast<unsigned long long>(report.disabled_allocs.steady_heap_allocs),
              static_cast<unsigned long long>(report.disabled_allocs.steady_acquires));
}

void WriteJson(const Report& report) {
  const char* json_path = "BENCH_obs.json";
  std::FILE* json = std::fopen(json_path, "wb");
  if (json == nullptr) {
    return;
  }
  std::string lags;
  for (const double lag : report.anomaly.mean_entry_lag_us) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", lags.empty() ? "" : ", ", lag);
    lags += buf;
  }
  std::string spread;
  AppendTimingSpreadJson(&spread, "enabled", report.overhead.enabled_stats);
  spread += ", ";
  AppendTimingSpreadJson(&spread, "disabled", report.overhead.disabled_stats);
  std::fprintf(
      json,
      "{\"bench\": \"observability\",\n"
      " \"overhead\": {\"enabled_ms\": %.4f, \"disabled_ms\": %.4f, "
      "\"overhead_pct\": %.3f, %s},\n"
      " \"instrumented\": {\"loss_bitwise\": %s, \"jsonl_written\": %s, "
      "\"jsonl_lines\": %zu, \"trace_written\": %s, \"prom_written\": %s},\n"
      " \"anomaly\": {\"detected\": %s, \"fault_step\": %lld, "
      "\"first_anomaly_step\": %lld, \"detection_latency_steps\": %lld, "
      "\"straggler_suspect\": %d, \"mean_entry_lag_us\": [%s], \"events\": %zu, "
      "\"trace_lane\": %s},\n"
      " \"disabled_registry\": {\"steady_heap_allocs\": %llu, "
      "\"steady_acquires\": %llu}}\n",
      report.overhead.enabled_ms, report.overhead.disabled_ms,
      report.overhead.overhead_pct, spread.c_str(),
      report.instrumented.bitwise ? "true" : "false",
      report.instrumented.jsonl_written ? "true" : "false",
      report.instrumented.jsonl_lines,
      report.instrumented.trace_written ? "true" : "false",
      report.instrumented.prom_written ? "true" : "false",
      report.anomaly.detected ? "true" : "false",
      static_cast<long long>(report.anomaly.fault_step),
      static_cast<long long>(report.anomaly.first_anomaly_step),
      static_cast<long long>(report.anomaly.detection_latency),
      report.anomaly.straggler_suspect, lags.c_str(), report.anomaly.anomaly_events,
      report.anomaly.trace_has_anomaly_lane ? "true" : "false",
      static_cast<unsigned long long>(report.disabled_allocs.steady_heap_allocs),
      static_cast<unsigned long long>(report.disabled_allocs.steady_acquires));
  std::fclose(json);
  std::printf("machine-readable output: %s\n", json_path);
}

int CheckMode() {
  const Report report = RunAll();
  PrintReport(report);
  WriteJson(report);
  int failures = 0;
  // 2% relative with a 0.15ms absolute floor: on a sub-10ms median, 2% is
  // inside scheduler jitter, and the registry's real cost (a few dozen
  // relaxed atomics per pipeline run) is far below both.
  const double budget_ms =
      std::max(1.02 * report.overhead.disabled_ms,
               report.overhead.disabled_ms + 0.15);
  if (report.overhead.enabled_ms > budget_ms) {
    std::printf("\nOBS SMOKE FAILED: metrics-enabled fused pipeline %.3f ms exceeds "
                "the 2%% overhead budget over disabled %.3f ms\n",
                report.overhead.enabled_ms, report.overhead.disabled_ms);
    ++failures;
  }
  if (!report.instrumented.bitwise) {
    std::printf("\nOBS SMOKE FAILED: instrumented loss curve diverged from the "
                "uninstrumented run\n");
    ++failures;
  }
  if (!report.instrumented.jsonl_written || !report.instrumented.trace_written ||
      !report.instrumented.prom_written || report.instrumented.jsonl_lines == 0) {
    std::printf("\nOBS SMOKE FAILED: missing artifacts (jsonl %s/%zu lines, trace %s, "
                "prom %s)\n",
                report.instrumented.jsonl_written ? "ok" : "MISSING",
                report.instrumented.jsonl_lines,
                report.instrumented.trace_written ? "ok" : "MISSING",
                report.instrumented.prom_written ? "ok" : "MISSING");
    ++failures;
  }
  if (!report.anomaly.detected || report.anomaly.detection_latency > 5 ||
      report.anomaly.straggler_suspect != 1 ||
      !report.anomaly.trace_has_anomaly_lane) {
    std::printf("\nOBS SMOKE FAILED: slow rank not properly flagged (detected %s, "
                "latency %lld steps, suspect %d, trace lane %s)\n",
                report.anomaly.detected ? "yes" : "NO",
                static_cast<long long>(report.anomaly.detection_latency),
                report.anomaly.straggler_suspect,
                report.anomaly.trace_has_anomaly_lane ? "ok" : "MISSING");
    ++failures;
  }
  if (report.disabled_allocs.steady_heap_allocs != 0) {
    std::printf("\nOBS SMOKE FAILED: disabled registry steady state performed %llu "
                "heap allocs (expected 0)\n",
                static_cast<unsigned long long>(
                    report.disabled_allocs.steady_heap_allocs));
    ++failures;
  }
  if (failures == 0) {
    std::printf("\nobs smoke ok: %+.2f%% overhead, loss bitwise, slow rank flagged "
                "in %lld steps, 0 steady-state allocs disabled\n",
                report.overhead.overhead_pct,
                static_cast<long long>(report.anomaly.detection_latency));
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      return CheckMode();
    }
  }
  PrintHeader("BENCH observability",
              "metrics registry overhead on the fused pipeline, instrumented-vs-"
              "bare loss identity, slow-rank anomaly detection latency, and the "
              "disabled-registry zero-alloc guarantee");
  const Report report = RunAll();
  PrintReport(report);
  WriteJson(report);
  return 0;
}

}  // namespace
}  // namespace msmoe

int main(int argc, char** argv) { return msmoe::Main(argc, argv); }
