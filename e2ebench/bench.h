// Shared pieces of the end-to-end training benchmark driver (e2e_train):
// the workload model, the in-memory span recorder used by traced runs, the
// counter snapshots read from the program's exported stat blocks, and a
// minimal JSON object writer for the per-run result file.
//
// The driver measures; e2ebench/run.py turns the result file into the
// benchmark's metrics, applies the cross-run correctness checks and writes
// the Chrome trace.
#ifndef MSMOE_E2EBENCH_BENCH_H_
#define MSMOE_E2EBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/base/arena.h"
#include "src/comm/telemetry.h"
#include "src/model/config.h"
#include "src/model/lm.h"
#include "src/model/router.h"
#include "src/obs/step_profiler.h"
#include "src/tensor/gemm_kernel.h"

namespace msmoe::e2e {

// The model every workload trains: h=256, 8 heads (GQA 2), FFN 512 per
// expert, 8 experts, 2 layers, vocab 64, seq 256.
ModelConfig BenchModel(int64_t top_k);
RouterConfig BenchRouter(int64_t top_k);
constexpr double kAdamLr = 4e-3;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int64_t steps = 0;         // optimizer steps, warmup included
  int64_t warmup_steps = 0;  // leading steps excluded from the timed window
  bool trace = false;
};

// Set-up is repeated (and reported per repetition, so the median can be
// taken); every per-layer probe is repeated too.
constexpr int kSetupReps = 5;
constexpr int kProbeReps = 3;

// ---------------------------------------------------------------------------
// Idle polling
// ---------------------------------------------------------------------------

// Keeps every CPU of the process busy with one SCHED_IDLE spinning thread
// for its lifetime. On a virtual machine an idle vCPU halts and waking it
// again costs a hypervisor round trip whose latency follows the host's
// load; the mp4 workloads block and wake their rank threads hundreds of
// times per step (wire sleeps, barriers), so without this their step time
// tracks the neighbours' load. SCHED_IDLE threads run only when nothing
// else is runnable and are preempted at once, so the program keeps every
// CPU it had. Threads that cannot drop to SCHED_IDLE exit instead of
// competing with the program. The compute-bound DP workload runs without
// it: its CPUs rarely idle, and spinning would only cost it host time.
class IdlePoller {
 public:
  IdlePoller();
  ~IdlePoller();
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

  // Threads that are spinning (0 when SCHED_IDLE is not permitted).
  int polling() const { return polling_.load(); }

 private:
  void Stop();

  std::atomic<bool> stop_{false};
  std::atomic<int> polling_{0};
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  int lane = 0;        // rank thread, or the driver thread's lane
  int64_t step = -1;   // training step or probe repetition
  int parent = -1;     // index of the enclosing span in the same lane
  double start_us = 0.0;
  double end_us = 0.0;
};

// Records nested spans per lane into preallocated in-memory vectors; each
// lane must be written by one thread at a time. A disabled recorder makes
// every scope inert (no clock reads). Collect() once the lanes are idle.
class SpanRecorder {
 public:
  SpanRecorder(int lanes, bool enabled);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  class Scope {
   public:
    Scope(SpanRecorder& recorder, int lane, const char* name, int64_t step);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;  // null when inert
    int lane_ = 0;
    int index_ = -1;
  };

  std::vector<Span> Collect() const;

 private:
  double NowUs() const;

  struct alignas(64) Lane {
    std::vector<Span> spans;
    std::vector<int> open;  // stack of open span indices
  };
  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Lane> lanes_;
};

// ---------------------------------------------------------------------------
// Counters exported by the program
// ---------------------------------------------------------------------------

// Process-global stat blocks and registry counters at one instant.
struct CounterSnapshot {
  KernelStatsSnapshot kernel;
  MemStatsSnapshot mem;
  double exec_graphs = 0.0;
  double exec_makespan_us = 0.0;
  double exec_compute_busy_us = 0.0;
  double exec_comm_busy_us = 0.0;
  double par_regions = 0.0;
  double par_shards = 0.0;
};
CounterSnapshot TakeCounters();

// Data-moving collective activity summed over a set of CommEvents
// (barriers are skipped).
struct CommSummary {
  double wire_bytes = 0.0;    // analytic volume of primary events
  int64_t collectives = 0;    // logical collectives issued by rank 0
  double busy_us = 0.0;       // all event durations, summed over ranks
  double exposed_us = 0.0;    // rank-thread (synchronous lane) durations
};
void AddCommEvents(const std::vector<CommEvent>& events, CommSummary* summary);

// ---------------------------------------------------------------------------
// Result file
// ---------------------------------------------------------------------------

// Appends "key": value members; Str escapes, Raw inserts pre-built JSON.
// Non-finite numbers are written as null.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Nums(const std::string& key, const std::vector<double>& values);
  JsonObject& Ints(const std::string& key, const std::vector<int64_t>& values);
  JsonObject& Strs(const std::string& key, const std::vector<std::string>& values);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string SpansJson(const std::vector<Span>& spans);
std::string CountersJson(const CounterSnapshot& before, const CounterSnapshot& after);
std::string CommJson(const CommSummary& summary);
// Rows: [step, rank, step_ms, bubble_ms, exposed_comm_ms, comm_ms].
std::string StepReportsJson(const std::vector<StepReport>& reports);

// Wall seconds elapsed since `since`.
double Seconds(std::chrono::steady_clock::time_point since);

// Peak resident set of this process so far, in MB.
double PeakRssMb();

// What a workload hands back to main(): everything is written into `out`;
// failed_steps lists the steps that broke an in-process correctness check.
struct WorkloadResult {
  JsonObject out;
  std::vector<int64_t> failed_steps;
  std::vector<std::string> failures;
};

// Marks `step` failed (once) with a reason.
void FailStep(WorkloadResult* result, int64_t step, const std::string& reason);

WorkloadResult RunMpWorkload(const RunOptions& options);
WorkloadResult RunDpWorkload(const RunOptions& options);

}  // namespace msmoe::e2e

#endif  // MSMOE_E2EBENCH_BENCH_H_
