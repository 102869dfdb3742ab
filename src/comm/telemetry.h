// Per-collective telemetry for the instrumented Communicator layer.
//
// Every collective issued through a Communicator records one CommEvent per
// participating rank: which operation ran, with which algorithm, over which
// group, how many analytic wire bytes it moved, and when (wall-clock start
// and duration relative to the registry's epoch). The registry is
// thread-safe because ranks are threads — all of them record concurrently.
//
// Events are the bridge between the live system and the simulator: they
// serialize to the same Chrome-trace JSON as simulated SimOp timelines
// (src/sim/trace_export) and are cross-checked against the analytic §3
// volume formulas (src/sim/comm_crosscheck).
#ifndef MSMOE_SRC_COMM_TELEMETRY_H_
#define MSMOE_SRC_COMM_TELEMETRY_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace msmoe {

enum class CommOp {
  kAllGather,
  kReduceScatter,
  kAllReduce,
  kBroadcast,
  kAllToAll,
  kAllToAllV,
  kExchangeScalars,
  kBarrier,
};

const char* CommOpName(CommOp op);

struct CommEvent {
  CommOp op = CommOp::kBarrier;
  // Algorithm the op models: "ring", "pairwise" or "direct".
  std::string algorithm;
  int group_size = 0;
  int rank = 0;
  // Element type on the (virtual) wire, e.g. "f32", "u8", "i64", "bytes".
  std::string elem_type;
  int elem_bytes = 0;
  int64_t elem_count = 0;  // per the op's natural unit (see communicator.h)
  // TOTAL analytic wire volume of the collective (summed over members) —
  // identical on every rank's event. Sum over `primary` events only to
  // aggregate without multi-counting.
  uint64_t wire_bytes = 0;
  bool primary = false;  // true on member 0's event
  double start_us = 0.0;     // relative to the telemetry epoch
  double duration_us = 0.0;  // wall-clock, includes barrier wait

  // Chunked async collectives (async_comm.h): every chunk of one logical
  // collective records its own event; all of a rank's chunk events share
  // that rank's per-op sequence number `logical_op` (identical across ranks
  // because every rank issues the same Start* order). The per-chunk
  // wire_bytes of one logical op sum exactly to the AccountOnce volume of
  // the equivalent monolithic op — aggregate per (rank, logical_op), never
  // by adding a monolithic event on top (comm_crosscheck verifies this).
  // Monolithic ops keep logical_op = -1, chunk_count = 1.
  int64_t logical_op = -1;
  int chunk_index = 0;
  int chunk_count = 1;
  bool async_lane = false;  // recorded by a comm-proxy thread, not the rank
};

// A compute-busy span (e.g. one fused-op GEMM tile), recorded next to the
// CommEvents so the Chrome trace shows comm-busy vs comp-busy overlap.
struct CompEvent {
  std::string name;
  int rank = 0;
  double start_us = 0.0;
  double duration_us = 0.0;
};

// One EP dispatch/combine round: how many rows this rank's experts received
// and how skewed the routing was. rows_max / mean rows is the expert-load
// imbalance the load-balanced GroupedGemm tile queue exists to absorb —
// 1.0 means perfectly balanced, E_local means one expert took everything.
// Rendered on the Chrome trace's dedicated "dispatch" lane
// (src/sim/trace_export).
struct DispatchEvent {
  std::string name;          // e.g. "ep_dispatch_fwd"
  int rank = 0;
  int64_t experts = 0;       // local experts on this rank
  int64_t rows_total = 0;    // rows dispatched to this rank this step
  int64_t rows_max = 0;      // hottest local expert's row count
  double imbalance = 1.0;    // rows_max / mean rows (1.0 when rows_total == 0)
  int chunks = 1;            // wire chunks (all-gather mode always 1)
  double start_us = 0.0;
  double duration_us = 0.0;
};

// An online-detector verdict about one rank at one step (emitted by
// obs/anomaly.h, rendered on the Chrome trace's "anomaly" lane by
// sim/trace_export). Defined here — next to the other trace row types —
// so the trace exporter does not depend on the obs layer.
struct AnomalyEvent {
  enum class Kind {
    kStepTimeRegression,  // rank's step time spiked vs its own rolling window
    kExposedCommSpike,    // rank's exposed (non-overlapped) comm spiked
  };
  Kind kind = Kind::kStepTimeRegression;
  int rank = 0;
  int64_t step = 0;
  double ts_us = 0.0;        // telemetry-epoch time (trace placement)
  double value_ms = 0.0;     // observed sample
  double baseline_ms = 0.0;  // rolling-window mean it deviated from
  double zscore = 0.0;
  std::string detail;        // human-readable explanation for the trace row
};

const char* AnomalyKindName(AnomalyEvent::Kind kind);

// Ring-buffer overflow accounting, split by event kind so a saturated
// capacity names which stream went dark instead of folding every loss into
// one number. Rendered as a trace-metadata warning row when total() > 0.
struct TelemetryDropCounts {
  uint64_t comm = 0;
  uint64_t comp = 0;
  uint64_t dispatch = 0;
  uint64_t total() const { return comm + comp + dispatch; }
};

class CommTelemetry {
 public:
  CommTelemetry();

  // Microseconds since this registry's epoch (construction / last Clear).
  double NowUs() const;

  // Thread-safe append. Beyond `capacity()` events the registry drops
  // (counted per kind by drop_counts()) instead of growing without bound.
  void Record(CommEvent event);
  void RecordComp(CompEvent event);
  void RecordDispatch(DispatchEvent event);

  std::vector<CommEvent> Events() const;
  std::vector<CompEvent> CompEvents() const;
  std::vector<DispatchEvent> DispatchEvents() const;
  size_t event_count() const;
  uint64_t dropped() const;  // total across kinds
  TelemetryDropCounts drop_counts() const;
  void Clear();  // also re-anchors the epoch

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity) { capacity_ = capacity; }

  // Sum of wire_bytes over primary events (one per collective).
  uint64_t TotalWireBytes() const;

 private:
  mutable std::mutex mu_;
  std::vector<CommEvent> events_;
  std::vector<CompEvent> comp_events_;
  std::vector<DispatchEvent> dispatch_events_;
  std::chrono::steady_clock::time_point epoch_;
  TelemetryDropCounts drops_;
  size_t capacity_ = 1 << 20;
  bool enabled_ = true;
};

// RAII compute span: records a CompEvent covering its own lifetime.
// No-op when telemetry is null or disabled.
class ScopedCompSpan {
 public:
  ScopedCompSpan(CommTelemetry* telemetry, const char* name, int rank)
      : telemetry_(telemetry != nullptr && telemetry->enabled() ? telemetry : nullptr),
        name_(name),
        rank_(rank),
        start_us_(telemetry_ != nullptr ? telemetry_->NowUs() : 0.0) {}
  ~ScopedCompSpan() {
    if (telemetry_ != nullptr) {
      CompEvent event;
      event.name = name_;
      event.rank = rank_;
      event.start_us = start_us_;
      event.duration_us = telemetry_->NowUs() - start_us_;
      telemetry_->RecordComp(std::move(event));
    }
  }

 private:
  CommTelemetry* telemetry_;
  const char* name_;
  int rank_;
  double start_us_;
};

}  // namespace msmoe

#endif  // MSMOE_SRC_COMM_TELEMETRY_H_
