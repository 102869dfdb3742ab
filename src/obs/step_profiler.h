// StepProfiler: per-rank, per-step rollup of every instrumentation stream.
//
// The trainer brackets each training step on each rank thread with a
// ScopedStep. On destruction the scope differences the global stat blocks
// (KernelStats, MemStats), filters the run's CommTelemetry down to this
// rank's spans inside the step window, folds in the exec-graph executor's
// per-step feed (ExecStepStats, installed thread-locally for the scope's
// lifetime), and assembles one StepReport:
//
//   step_ms           wall time of the step on this rank
//   exposed_comm_ms   synchronous-lane collective time (the rank thread was
//                     blocked in a collective — comm the overlap machinery
//                     failed to hide)
//   comm_ms           all collective time attributed to the rank, including
//                     the async comm-proxy lane (overlap-hidden comm)
//   compute_ms        step_ms - exposed_comm_ms
//   bubble_ms         exec-graph makespan minus compute-stream busy time
//                     (pipeline bubble inside overlapped sections)
//   gemm_gflop        GEMM work this step (global KernelStats delta split
//                     evenly across live ranks — approximate, see below)
//   achieved_gflops   gemm_gflop / step seconds
//   mfu               achieved_gflops vs calibrated single-thread peak
//   wire_bytes        full-collective analytic volume of the collectives
//                     this rank entered during the step
//   collectives       how many collective events the rank recorded
//   expert_imbalance  worst rows_max/mean over the step's dispatch rounds
//   dispatch_rows     rows routed to this rank's experts this step
//   pool_hit_rate     arena pool-hit rate over the step window (global)
//   heap_allocs       arena pool misses over the step window (global)
//   retries/evictions cumulative recovery totals at the time of the report
//   loss              set by the trainer via ScopedStep::set_loss
//
// Determinism: fields derived from the rank's own event streams (loss,
// wire_bytes, collectives, dispatch_rows, expert_imbalance) are bitwise
// stable across MSMOE_NUM_THREADS worker counts; fields differenced from
// process-global counters (gemm_gflop, pool_hit_rate, heap_allocs) see
// concurrent ranks' traffic inside the window and are attribution
// *estimates* — obs_test pins the former set only.
//
// Every report feeds the MetricsRegistry and the online AnomalyDetector,
// which pages on per-rank regressions. Finish() computes the run's one
// straggler verdict (comm/health.h DetectStragglers over the telemetry) and
// writes the run artifacts: metrics.jsonl (one JSON object per rank-step),
// a merged multi-lane Chrome trace (compute / comm / dispatch / memory /
// anomaly lanes in one file, stragglers marked), and a Prometheus text
// snapshot.
#ifndef MSMOE_SRC_OBS_STEP_PROFILER_H_
#define MSMOE_SRC_OBS_STEP_PROFILER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/arena.h"
#include "src/base/status.h"
#include "src/comm/health.h"
#include "src/comm/telemetry.h"
#include "src/obs/anomaly.h"
#include "src/obs/metrics.h"
#include "src/tensor/gemm_kernel.h"

namespace msmoe {

struct StepProfilerConfig {
  // Output paths; empty disables that artifact. Finish() writes them.
  std::string jsonl_path;  // per-rank-per-step JSONL ("metrics.jsonl")
  std::string trace_path;  // merged multi-lane Chrome trace
  std::string prom_path;   // Prometheus text snapshot
  // Single-thread peak FLOP/s for the MFU denominator. 0 => calibrate once
  // at construction with a short blocked-GEMM burst.
  double peak_flops_per_sec = 0.0;
  AnomalyConfig anomaly;
  // Live ranks sharing the GEMM/MFU split; set_world updates it (under the
  // profiler's lock) after an elastic shrink.
  int world = 1;
  bool enabled = true;
};

struct StepReport {
  int64_t step = 0;
  int rank = 0;
  double ts_us = 0.0;  // telemetry-epoch end-of-step time
  double step_ms = 0.0;
  double compute_ms = 0.0;
  double comm_ms = 0.0;
  double exposed_comm_ms = 0.0;
  double bubble_ms = 0.0;
  double gemm_gflop = 0.0;
  double achieved_gflops = 0.0;
  double mfu = 0.0;
  uint64_t wire_bytes = 0;
  int64_t collectives = 0;
  double expert_imbalance = 1.0;
  int64_t dispatch_rows = 0;
  double pool_hit_rate = 1.0;
  uint64_t heap_allocs = 0;
  int64_t retries = 0;
  int64_t evictions = 0;
  double loss = 0.0;
};

// Serializes a report as one JSON object (the metrics.jsonl line format).
std::string StepReportToJson(const StepReport& report);
// Parses a metrics.jsonl line back into a report (round-trip testing and
// offline tooling). Returns false on malformed input.
bool ParseStepReportJson(const std::string& line, StepReport* report);

class StepProfiler {
 public:
  explicit StepProfiler(StepProfilerConfig config);

  bool enabled() const { return config_.enabled; }
  int world() const;
  // The trainer updates this after an elastic shrink so the GEMM/MFU split
  // tracks the surviving world size.
  void set_world(int ranks);

  // Recovery bookkeeping (trainer calls these as events happen).
  void NoteRetry();
  void NoteEviction();

  // The straggler verdict the last Finish() computed from its telemetry
  // (ranks are the final epoch's); empty before Finish. Reporting only:
  // recovery never reads it.
  StragglerReport straggler_report() const;
  // The rank the run's pages are attributed to: the verdict's worst flagged
  // rank when the anomaly detector raised at least one event, else -1 (and
  // -1 before Finish). A steady entry lag that never regressed a step is in
  // straggler_report() but names no suspect: with one peer, a few percent
  // of compute imbalance (a sanitizer build) is as late as a stall.
  int StragglerSuspect() const;

  std::vector<StepReport> reports() const;
  std::vector<AnomalyEvent> anomalies() const;

  // Computes the straggler verdict from `telemetry` and writes the
  // configured artifacts. `telemetry` supplies the event streams for the
  // verdict and the merged trace (pass the final epoch's telemetry; nullptr
  // skips both). Idempotent per call — later calls rewrite with more data.
  Status Finish(const CommTelemetry* telemetry);

  double peak_flops_per_sec() const { return peak_flops_per_sec_; }

 private:
  friend class ScopedStep;
  void Submit(StepReport report);

  StepProfilerConfig config_;
  double peak_flops_per_sec_ = 0.0;
  mutable std::mutex mu_;
  std::vector<StepReport> reports_;
  AnomalyDetector detector_;
  StragglerReport stragglers_;
  int64_t retries_ = 0;
  int64_t evictions_ = 0;

  struct Ids {
    MetricId steps;
    MetricId step_ms;
    MetricId exposed_ms;
    MetricId anomalies;
    MetricId retries;
    MetricId evictions;
    MetricId mfu;
  };
  Ids ids_;
};

// RAII step bracket, one per rank thread per step. Inert when profiler is
// null or disabled (no snapshots, no sink installation, zero overhead
// beyond the null checks).
class ScopedStep {
 public:
  ScopedStep(StepProfiler* profiler, int rank, int64_t step,
             CommTelemetry* telemetry);
  ~ScopedStep();

  ScopedStep(const ScopedStep&) = delete;
  ScopedStep& operator=(const ScopedStep&) = delete;

  void set_loss(double loss) { loss_ = loss; }
  bool active() const { return profiler_ != nullptr; }

 private:
  StepProfiler* profiler_ = nullptr;  // null when inert
  CommTelemetry* telemetry_ = nullptr;
  int rank_ = 0;
  int64_t step_ = 0;
  double loss_ = 0.0;
  double begin_us_ = 0.0;
  KernelStatsSnapshot kernel_begin_;
  MemStatsSnapshot mem_begin_;
  ExecStepStats exec_stats_;
  ExecStepStats* prev_sink_ = nullptr;
};

}  // namespace msmoe

#endif  // MSMOE_SRC_OBS_STEP_PROFILER_H_
