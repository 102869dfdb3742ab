#include "src/comm/telemetry.h"

#include "src/obs/metrics.h"

namespace msmoe {
namespace {

// Registry mirror for the unified observability layer: every telemetry
// append also bumps the process-wide metrics. Registration happens once
// (function-local statics); the per-record cost is a few relaxed atomic
// ops on the calling thread's shard. The ring buffers stay the primary
// storage — the registry carries totals, not events.
struct TelemetryMetrics {
  MetricId comm_events;
  MetricId comm_wire_bytes;
  MetricId comm_duration_us;
  MetricId comp_spans;
  MetricId dispatch_rounds;
  MetricId dispatch_rows;
  MetricId drops;
  static const TelemetryMetrics& Get() {
    static const TelemetryMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      TelemetryMetrics out;
      out.comm_events = r.Counter("comm.events", "Collective events recorded");
      out.comm_wire_bytes =
          r.Counter("comm.wire_bytes", "Analytic wire bytes (primary events)");
      out.comm_duration_us = r.Histogram(
          "comm.duration_us", "Per-event collective duration (us)",
          {10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 20000.0, 100000.0});
      out.comp_spans = r.Counter("comp.spans", "Compute spans recorded");
      out.dispatch_rounds = r.Counter("dispatch.rounds", "EP dispatch rounds");
      out.dispatch_rows =
          r.Counter("dispatch.rows", "Rows routed to local experts");
      out.drops = r.Counter("telemetry.drops", "Events dropped at capacity");
      return out;
    }();
    return m;
  }
};

}  // namespace

const char* CommOpName(CommOp op) {
  switch (op) {
    case CommOp::kAllGather:
      return "all_gather";
    case CommOp::kReduceScatter:
      return "reduce_scatter";
    case CommOp::kAllReduce:
      return "all_reduce";
    case CommOp::kBroadcast:
      return "broadcast";
    case CommOp::kAllToAll:
      return "all_to_all";
    case CommOp::kAllToAllV:
      return "all_to_all_v";
    case CommOp::kExchangeScalars:
      return "exchange_scalars";
    case CommOp::kBarrier:
      return "barrier";
  }
  return "unknown";
}

const char* AnomalyKindName(AnomalyEvent::Kind kind) {
  switch (kind) {
    case AnomalyEvent::Kind::kStepTimeRegression:
      return "step_time_regression";
    case AnomalyEvent::Kind::kExposedCommSpike:
      return "exposed_comm_spike";
  }
  return "unknown";
}

CommTelemetry::CommTelemetry() : epoch_(std::chrono::steady_clock::now()) {}

double CommTelemetry::NowUs() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

void CommTelemetry::Record(CommEvent event) {
  if (!enabled_) {
    return;
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    const TelemetryMetrics& m = TelemetryMetrics::Get();
    registry.Add(m.comm_events, 1.0);
    if (event.primary) {
      registry.Add(m.comm_wire_bytes, static_cast<double>(event.wire_bytes));
    }
    registry.Add(m.comm_duration_us, event.duration_us);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++drops_.comm;
    registry.Add(TelemetryMetrics::Get().drops, 1.0);
    return;
  }
  events_.push_back(std::move(event));
}

void CommTelemetry::RecordComp(CompEvent event) {
  if (!enabled_) {
    return;
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    registry.Add(TelemetryMetrics::Get().comp_spans, 1.0);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (comp_events_.size() >= capacity_) {
    ++drops_.comp;
    registry.Add(TelemetryMetrics::Get().drops, 1.0);
    return;
  }
  comp_events_.push_back(std::move(event));
}

void CommTelemetry::RecordDispatch(DispatchEvent event) {
  if (!enabled_) {
    return;
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    const TelemetryMetrics& m = TelemetryMetrics::Get();
    registry.Add(m.dispatch_rounds, 1.0);
    registry.Add(m.dispatch_rows, static_cast<double>(event.rows_total));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (dispatch_events_.size() >= capacity_) {
    ++drops_.dispatch;
    registry.Add(TelemetryMetrics::Get().drops, 1.0);
    return;
  }
  dispatch_events_.push_back(std::move(event));
}

std::vector<CommEvent> CommTelemetry::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<CompEvent> CommTelemetry::CompEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return comp_events_;
}

std::vector<DispatchEvent> CommTelemetry::DispatchEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatch_events_;
}

size_t CommTelemetry::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

uint64_t CommTelemetry::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drops_.total();
}

TelemetryDropCounts CommTelemetry::drop_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drops_;
}

void CommTelemetry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  comp_events_.clear();
  dispatch_events_.clear();
  drops_ = TelemetryDropCounts{};
  epoch_ = std::chrono::steady_clock::now();
}

uint64_t CommTelemetry::TotalWireBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const CommEvent& event : events_) {
    if (event.primary) {
      total += event.wire_bytes;
    }
  }
  return total;
}

}  // namespace msmoe
