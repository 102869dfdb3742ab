#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "e2ebench/bench.h"
#include "src/obs/metrics.h"

namespace msmoe::e2e {

ModelConfig BenchModel(int64_t top_k) {
  ModelConfig config = TinyMoeConfig(/*num_experts=*/8, top_k);
  config.name = "e2ebench";
  config.num_layers = 2;
  config.hidden = 256;
  config.num_heads = 8;
  config.gqa_ratio = 2;
  config.ffn_hidden = 512;
  config.vocab = 64;
  config.seq_len = 256;
  return config;
}

RouterConfig BenchRouter(int64_t top_k) {
  RouterConfig router;
  router.num_experts = 8;
  router.top_k = top_k;
  router.aux_loss_coeff = 0.01;
  return router;
}

// --- IdlePoller ---------------------------------------------------------------

IdlePoller::IdlePoller() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  try {
    for (unsigned i = 0; i < cpus; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        param.sched_priority = 0;
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;
        }
        polling_.fetch_add(1);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  } catch (...) {
    Stop();
    throw;
  }
}

IdlePoller::~IdlePoller() { Stop(); }

void IdlePoller::Stop() {
  stop_.store(true);
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

// --- SpanRecorder ------------------------------------------------------------

SpanRecorder::SpanRecorder(int lanes, bool enabled)
    : enabled_(enabled),
      epoch_(std::chrono::steady_clock::now()),
      lanes_(static_cast<size_t>(lanes)) {
  if (enabled_) {
    for (Lane& lane : lanes_) {
      lane.spans.reserve(8192);
      lane.open.reserve(16);
    }
  }
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, int lane, const char* name, int64_t step) {
  if (!recorder.enabled_) {
    return;
  }
  recorder_ = &recorder;
  lane_ = lane;
  Lane& l = recorder.lanes_[static_cast<size_t>(lane)];
  Span span;
  span.name = name;
  span.lane = lane;
  span.step = step;
  span.parent = l.open.empty() ? -1 : l.open.back();
  index_ = static_cast<int>(l.spans.size());
  l.open.push_back(index_);
  span.start_us = recorder.NowUs();
  l.spans.push_back(span);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) {
    return;
  }
  Lane& l = recorder_->lanes_[static_cast<size_t>(lane_)];
  l.spans[static_cast<size_t>(index_)].end_us = recorder_->NowUs();
  l.open.pop_back();
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> all;
  for (const Lane& lane : lanes_) {
    all.insert(all.end(), lane.spans.begin(), lane.spans.end());
  }
  return all;
}

// --- Counters ------------------------------------------------------------------

CounterSnapshot TakeCounters() {
  CounterSnapshot snap;
  snap.kernel = GetKernelStats();
  snap.mem = GetMemStats();
  const MetricsSnapshot registry = MetricsRegistry::Global().Snapshot();
  const auto value = [&registry](const char* name) {
    const MetricSnapshot* metric = registry.Find(name);
    return metric == nullptr ? 0.0 : metric->value;
  };
  snap.exec_graphs = value("exec.graphs");
  snap.exec_makespan_us = value("exec.makespan_us");
  snap.exec_compute_busy_us = value("exec.compute_busy_us");
  snap.exec_comm_busy_us = value("exec.comm_busy_us");
  snap.par_regions = value("par.regions");
  snap.par_shards = value("par.shards");
  return snap;
}

void AddCommEvents(const std::vector<CommEvent>& events, CommSummary* summary) {
  for (const CommEvent& event : events) {
    if (event.op == CommOp::kBarrier) {
      continue;  // moves no data; the mp4 loop brackets its timed window with barriers
    }
    if (event.primary) {
      summary->wire_bytes += static_cast<double>(event.wire_bytes);
    }
    if (event.rank == 0 && event.chunk_index == 0) {
      ++summary->collectives;
    }
    summary->busy_us += event.duration_us;
    if (!event.async_lane) {
      summary->exposed_us += event.duration_us;
    }
  }
}

// --- JSON ------------------------------------------------------------------------

namespace {

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) {
    body_ += ", ";
  }
  body_ += Quote(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += Number(value);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += Quote(value);
  return *this;
}

JsonObject& JsonObject::Nums(const std::string& key, const std::vector<double>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    body_ += (i == 0 ? "" : ", ") + Number(values[i]);
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Ints(const std::string& key, const std::vector<int64_t>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    body_ += (i == 0 ? "" : ", ") + std::to_string(values[i]);
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Strs(const std::string& key, const std::vector<std::string>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    body_ += (i == 0 ? "" : ", ") + Quote(values[i]);
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string SpansJson(const std::vector<Span>& spans) {
  // Compact rows: [name, lane, step, parent, start_us, end_us].
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += (i == 0 ? "[" : ",\n[") + Quote(s.name) + ", " + std::to_string(s.lane) + ", " +
           std::to_string(s.step) + ", " + std::to_string(s.parent) + ", " +
           Number(s.start_us) + ", " + Number(s.end_us) + "]";
  }
  return out + "]";
}

std::string CountersJson(const CounterSnapshot& before, const CounterSnapshot& after) {
  const MemStatsSnapshot mem = MemStatsDelta(before.mem, after.mem);
  JsonObject out;
  out.Num("gemm_flops", (after.kernel.gemm_flops - before.kernel.gemm_flops) +
                            (after.kernel.grouped_gemm_flops - before.kernel.grouped_gemm_flops))
      .Num("gemm_us", (after.kernel.gemm_micros - before.kernel.gemm_micros) +
                          (after.kernel.grouped_gemm_micros - before.kernel.grouped_gemm_micros))
      .Int("gemm_calls",
           static_cast<int64_t>((after.kernel.gemm_calls - before.kernel.gemm_calls) +
                                (after.kernel.grouped_gemm_calls -
                                 before.kernel.grouped_gemm_calls)))
      .Int("arena_acquires", static_cast<int64_t>(mem.acquires))
      .Int("arena_pool_hits", static_cast<int64_t>(mem.pool_hits))
      .Int("arena_heap_allocs", static_cast<int64_t>(mem.heap_allocs))
      .Num("arena_high_water_bytes", static_cast<double>(after.mem.high_water_bytes))
      .Num("exec_graphs", after.exec_graphs - before.exec_graphs)
      .Num("exec_makespan_us", after.exec_makespan_us - before.exec_makespan_us)
      .Num("exec_compute_busy_us", after.exec_compute_busy_us - before.exec_compute_busy_us)
      .Num("exec_comm_busy_us", after.exec_comm_busy_us - before.exec_comm_busy_us)
      .Num("par_regions", after.par_regions - before.par_regions)
      .Num("par_shards", after.par_shards - before.par_shards);
  return out.str();
}

std::string CommJson(const CommSummary& summary) {
  JsonObject out;
  out.Num("wire_bytes", summary.wire_bytes)
      .Int("collectives", summary.collectives)
      .Num("busy_us", summary.busy_us)
      .Num("exposed_us", summary.exposed_us);
  return out.str();
}

std::string StepReportsJson(const std::vector<StepReport>& reports) {
  std::string out = "[";
  for (size_t i = 0; i < reports.size(); ++i) {
    const StepReport& r = reports[i];
    out += (i == 0 ? "[" : ", [") + std::to_string(r.step) + ", " + std::to_string(r.rank) +
           ", " + Number(r.step_ms) + ", " + Number(r.bubble_ms) + ", " +
           Number(r.exposed_comm_ms) + ", " + Number(r.comm_ms) + "]";
  }
  return out + "]";
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

void FailStep(WorkloadResult* result, int64_t step, const std::string& reason) {
  result->failures.push_back("step " + std::to_string(step) + ": " + reason);
  if (std::find(result->failed_steps.begin(), result->failed_steps.end(), step) ==
      result->failed_steps.end()) {
    result->failed_steps.push_back(step);
  }
}

}  // namespace msmoe::e2e
