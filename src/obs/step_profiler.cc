#include "src/obs/step_profiler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/sim/trace_export.h"
#include "src/tensor/gemm_kernel.h"

namespace msmoe {
namespace {

// Calibrates a single-thread peak FLOP/s for the MFU denominator: best rate
// over a few blocked-GEMM bursts at a cache-friendly shape. Deliberately
// short (a few ms) — MFU needs a stable yardstick, not a perfect roofline.
double CalibratePeakFlops() {
  constexpr int64_t kDim = 192;
  const int64_t elems = kDim * kDim;
  std::vector<float> a(static_cast<size_t>(elems), 1.0f);
  std::vector<float> b(static_cast<size_t>(elems), 1.0f);
  std::vector<float> c(static_cast<size_t>(elems), 0.0f);
  const double flops = 2.0 * static_cast<double>(kDim) * kDim * kDim;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    GemmBlocked(false, false, kDim, kDim, kDim, 1.0f, a.data(), b.data(), 0.0f,
                c.data());
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (seconds > 0.0) best = std::max(best, flops / seconds);
  }
  return best > 0.0 ? best : 1e9;
}

void AppendField(std::string* out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g,", key, value);
  *out += buf;
}

void AppendField(std::string* out, const char* key, int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%lld,", key,
                static_cast<long long>(value));
  *out += buf;
}

// Pulls `"key":<number>` out of a JSON object line. Flat numeric schema, so
// a scan is all the parsing metrics.jsonl needs.
bool FindNumber(const std::string& line, const char* key, double* value) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  return std::sscanf(line.c_str() + pos + needle.size(), "%lf", value) == 1;
}

}  // namespace

std::string StepReportToJson(const StepReport& r) {
  std::string out = "{";
  AppendField(&out, "step", r.step);
  AppendField(&out, "rank", static_cast<int64_t>(r.rank));
  AppendField(&out, "ts_us", r.ts_us);
  AppendField(&out, "step_ms", r.step_ms);
  AppendField(&out, "compute_ms", r.compute_ms);
  AppendField(&out, "comm_ms", r.comm_ms);
  AppendField(&out, "exposed_comm_ms", r.exposed_comm_ms);
  AppendField(&out, "bubble_ms", r.bubble_ms);
  AppendField(&out, "gemm_gflop", r.gemm_gflop);
  AppendField(&out, "achieved_gflops", r.achieved_gflops);
  AppendField(&out, "mfu", r.mfu);
  AppendField(&out, "wire_bytes", static_cast<int64_t>(r.wire_bytes));
  AppendField(&out, "collectives", r.collectives);
  AppendField(&out, "expert_imbalance", r.expert_imbalance);
  AppendField(&out, "dispatch_rows", r.dispatch_rows);
  AppendField(&out, "pool_hit_rate", r.pool_hit_rate);
  AppendField(&out, "heap_allocs", static_cast<int64_t>(r.heap_allocs));
  AppendField(&out, "retries", r.retries);
  AppendField(&out, "evictions", r.evictions);
  AppendField(&out, "loss", r.loss);
  out.back() = '}';  // replace trailing comma
  return out;
}

bool ParseStepReportJson(const std::string& line, StepReport* report) {
  double v = 0.0;
  if (!FindNumber(line, "step", &v)) return false;
  report->step = static_cast<int64_t>(v);
  if (!FindNumber(line, "rank", &v)) return false;
  report->rank = static_cast<int>(v);
  struct Field {
    const char* key;
    double* dst;
  };
  double wire = 0.0, collectives = 0.0, rows = 0.0, heap = 0.0, retries = 0.0,
         evictions = 0.0;
  const Field fields[] = {
      {"ts_us", &report->ts_us},
      {"step_ms", &report->step_ms},
      {"compute_ms", &report->compute_ms},
      {"comm_ms", &report->comm_ms},
      {"exposed_comm_ms", &report->exposed_comm_ms},
      {"bubble_ms", &report->bubble_ms},
      {"gemm_gflop", &report->gemm_gflop},
      {"achieved_gflops", &report->achieved_gflops},
      {"mfu", &report->mfu},
      {"wire_bytes", &wire},
      {"collectives", &collectives},
      {"expert_imbalance", &report->expert_imbalance},
      {"dispatch_rows", &rows},
      {"pool_hit_rate", &report->pool_hit_rate},
      {"heap_allocs", &heap},
      {"retries", &retries},
      {"evictions", &evictions},
      {"loss", &report->loss},
  };
  for (const Field& field : fields) {
    if (!FindNumber(line, field.key, field.dst)) return false;
  }
  report->wire_bytes = static_cast<uint64_t>(wire);
  report->collectives = static_cast<int64_t>(collectives);
  report->dispatch_rows = static_cast<int64_t>(rows);
  report->heap_allocs = static_cast<uint64_t>(heap);
  report->retries = static_cast<int64_t>(retries);
  report->evictions = static_cast<int64_t>(evictions);
  return true;
}

StepProfiler::StepProfiler(StepProfilerConfig config)
    : config_(std::move(config)),
      detector_(config_.anomaly) {
  config_.world = std::max(1, config_.world);
  if (config_.enabled) {
    peak_flops_per_sec_ = config_.peak_flops_per_sec > 0.0
                              ? config_.peak_flops_per_sec
                              : CalibratePeakFlops();
    MetricsRegistry& r = MetricsRegistry::Global();
    ids_.steps = r.Counter("obs.steps", "Profiled rank-steps");
    ids_.step_ms = r.Histogram(
        "obs.step_ms", "Per-rank step wall time (ms)",
        {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0});
    ids_.exposed_ms = r.Histogram(
        "obs.exposed_comm_ms", "Per-rank exposed (non-overlapped) comm (ms)",
        {0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0});
    ids_.anomalies = r.Counter("obs.anomalies", "Anomaly detector verdicts");
    ids_.retries = r.Counter("obs.retries", "Recovery retries observed");
    ids_.evictions = r.Counter("obs.evictions", "Elastic rank evictions");
    ids_.mfu = r.Gauge("obs.last_mfu", "Most recent per-rank MFU");
  }
}

int StepProfiler::world() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_.world;
}

void StepProfiler::set_world(int ranks) {
  std::lock_guard<std::mutex> lock(mu_);
  config_.world = std::max(1, ranks);
}

void StepProfiler::NoteRetry() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++retries_;
  }
  MetricsRegistry::Global().Add(ids_.retries, 1.0);
}

void StepProfiler::NoteEviction() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++evictions_;
  }
  MetricsRegistry::Global().Add(ids_.evictions, 1.0);
}

StragglerReport StepProfiler::straggler_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stragglers_;
}

int StepProfiler::StragglerSuspect() const {
  std::lock_guard<std::mutex> lock(mu_);
  return detector_.events().empty() ? -1 : WorstStragglerRank(stragglers_);
}

std::vector<StepReport> StepProfiler::reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

std::vector<AnomalyEvent> StepProfiler::anomalies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return detector_.events();
}

void StepProfiler::Submit(StepReport report) {
  std::vector<AnomalyEvent> fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.retries = retries_;
    report.evictions = evictions_;
    reports_.push_back(report);
    StepSample sample;
    sample.rank = report.rank;
    sample.step = report.step;
    sample.ts_us = report.ts_us;
    sample.step_ms = report.step_ms;
    sample.exposed_comm_ms = report.exposed_comm_ms;
    fired = detector_.Observe(sample);
  }
  MetricsRegistry& r = MetricsRegistry::Global();
  r.Add(ids_.steps, 1.0);
  r.Add(ids_.step_ms, report.step_ms);
  r.Add(ids_.exposed_ms, report.exposed_comm_ms);
  r.Set(ids_.mfu, report.mfu);
  if (!fired.empty()) r.Add(ids_.anomalies, static_cast<double>(fired.size()));
}

Status StepProfiler::Finish(const CommTelemetry* telemetry) {
  std::vector<StepReport> reports;
  std::vector<AnomalyEvent> anomaly_events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reports = reports_;
    anomaly_events = detector_.events();
  }
  if (!config_.jsonl_path.empty()) {
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
        std::fopen(config_.jsonl_path.c_str(), "wb"), &std::fclose);
    if (file == nullptr) {
      return Internal("cannot open metrics jsonl: " + config_.jsonl_path);
    }
    for (const StepReport& report : reports) {
      const std::string line = StepReportToJson(report) + "\n";
      if (std::fwrite(line.data(), 1, line.size(), file.get()) != line.size()) {
        return Internal("metrics jsonl write failed: " + config_.jsonl_path);
      }
    }
  }
  if (telemetry != nullptr) {
    const std::vector<CommEvent> events = telemetry->Events();
    const StragglerReport health = DetectStragglers(events);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stragglers_ = health;
    }
    if (!config_.trace_path.empty()) {
      const std::vector<CompEvent> comp = telemetry->CompEvents();
      const std::vector<DispatchEvent> dispatch = telemetry->DispatchEvents();
      const MemStatsSnapshot mem = GetMemStats();
      const TelemetryDropCounts drops = telemetry->drop_counts();
      MSMOE_RETURN_IF_ERROR(WriteCommTrace(config_.trace_path, events,
                                           "msmoe-run", &health, &comp, &mem,
                                           &dispatch, &anomaly_events, &drops));
    }
  }
  if (!config_.prom_path.empty()) {
    const std::string text = MetricsRegistry::Global().PrometheusText();
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
        std::fopen(config_.prom_path.c_str(), "wb"), &std::fclose);
    if (file == nullptr) {
      return Internal("cannot open prom snapshot: " + config_.prom_path);
    }
    if (std::fwrite(text.data(), 1, text.size(), file.get()) != text.size()) {
      return Internal("prom snapshot write failed: " + config_.prom_path);
    }
  }
  return Status::Ok();
}

ScopedStep::ScopedStep(StepProfiler* profiler, int rank, int64_t step,
                       CommTelemetry* telemetry)
    : profiler_(profiler != nullptr && profiler->enabled() ? profiler : nullptr),
      telemetry_(telemetry),
      rank_(rank),
      step_(step) {
  if (profiler_ == nullptr) return;
  begin_us_ = telemetry_ != nullptr ? telemetry_->NowUs() : 0.0;
  kernel_begin_ = GetKernelStats();
  mem_begin_ = GetMemStats();
  prev_sink_ = SetCurrentThreadExecStats(&exec_stats_);
}

ScopedStep::~ScopedStep() {
  if (profiler_ == nullptr) return;
  SetCurrentThreadExecStats(prev_sink_);
  const double end_us = telemetry_ != nullptr ? telemetry_->NowUs() : 0.0;
  const KernelStatsSnapshot kernel_end = GetKernelStats();
  const MemStatsSnapshot mem_end = GetMemStats();

  StepReport report;
  report.step = step_;
  report.rank = rank_;
  report.loss = loss_;
  report.ts_us = end_us;
  report.step_ms = (end_us - begin_us_) / 1000.0;
  report.bubble_ms = exec_stats_.bubble_us / 1000.0;

  if (telemetry_ != nullptr) {
    // The rank's own collective spans inside the step window. Sync-lane
    // events block the rank thread => exposed comm; async-lane events ran
    // on the comm proxy => hidden (counted in comm_ms only).
    for (const CommEvent& event : telemetry_->Events()) {
      if (event.rank != rank_) continue;
      if (event.start_us < begin_us_ || event.start_us >= end_us) continue;
      report.comm_ms += event.duration_us / 1000.0;
      if (!event.async_lane) report.exposed_comm_ms += event.duration_us / 1000.0;
      report.wire_bytes += event.wire_bytes;
      ++report.collectives;
    }
    for (const DispatchEvent& event : telemetry_->DispatchEvents()) {
      if (event.rank != rank_) continue;
      if (event.start_us < begin_us_ || event.start_us >= end_us) continue;
      report.dispatch_rows += event.rows_total;
      report.expert_imbalance = std::max(report.expert_imbalance, event.imbalance);
    }
  }
  report.compute_ms = std::max(0.0, report.step_ms - report.exposed_comm_ms);

  // Global-counter deltas: concurrent ranks' traffic lands in everyone's
  // window, so split the GEMM work evenly across the live world — an
  // attribution estimate, deliberately excluded from the bitwise-stable
  // field set (see header).
  const int world = std::max(1, profiler_->world());
  const double gflop_delta =
      (kernel_end.gemm_flops - kernel_begin_.gemm_flops) +
      (kernel_end.grouped_gemm_flops - kernel_begin_.grouped_gemm_flops);
  report.gemm_gflop = gflop_delta / 1e9 / static_cast<double>(world);
  if (report.step_ms > 0.0) {
    report.achieved_gflops = report.gemm_gflop / (report.step_ms / 1000.0);
  }
  if (profiler_->peak_flops_per_sec() > 0.0) {
    report.mfu = report.achieved_gflops * 1e9 / profiler_->peak_flops_per_sec();
  }
  const uint64_t acquires = mem_end.acquires - mem_begin_.acquires;
  const uint64_t hits = mem_end.pool_hits - mem_begin_.pool_hits;
  report.heap_allocs = mem_end.heap_allocs - mem_begin_.heap_allocs;
  report.pool_hit_rate =
      acquires == 0 ? 1.0
                    : static_cast<double>(hits) / static_cast<double>(acquires);

  // A synthetic span on the rank's main trace lane bracketing the step, so
  // the merged trace reads step-by-step without counting collective rows.
  if (telemetry_ != nullptr) {
    CompEvent span;
    char name[32];
    std::snprintf(name, sizeof(name), "step %lld", static_cast<long long>(step_));
    span.name = name;
    span.rank = rank_;
    span.start_us = begin_us_;
    span.duration_us = end_us - begin_us_;
    telemetry_->RecordComp(std::move(span));
  }

  profiler_->Submit(std::move(report));
}

}  // namespace msmoe
