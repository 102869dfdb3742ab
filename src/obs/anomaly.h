// Online anomaly detection over per-step, per-rank profiler samples.
//
// The detector keeps a short rolling window per rank for each watched
// signal (total step time, exposed non-overlapped comm) and flags a sample
// whose z-score against its own rank's window history crosses the
// threshold — a per-rank temporal test, so a uniformly slow machine does
// not page while one drifting rank does. It pages; it does not attribute.
// Synchronous data-parallel training equalizes step times (everyone waits
// at the gradient all-reduce), so a straggler's spike shows on every rank;
// naming the culprit is the collective-entry verdict of comm/health.h
// (DetectStragglers), which the owning StepProfiler computes at Finish.
//
// Flagged samples are NOT folded into the baseline window, so a sustained
// regression keeps firing instead of teaching the detector that slow is
// the new normal. Not thread-safe: the owning StepProfiler serializes
// Observe() under its own mutex.
#ifndef MSMOE_SRC_OBS_ANOMALY_H_
#define MSMOE_SRC_OBS_ANOMALY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/comm/telemetry.h"  // AnomalyEvent

namespace msmoe {

struct AnomalyConfig {
  int window = 16;       // rolling baseline samples per rank per signal
  int min_samples = 4;   // no verdicts before the window has this many
  double z_threshold = 4.0;
  // A spike must also clear both a relative and an absolute floor — pure
  // z-scores page on microsecond jitter when the baseline variance is tiny.
  double min_ratio = 1.5;
  double min_delta_ms = 0.05;
};

// One rank's contribution to one step (a projection of obs StepReport).
struct StepSample {
  int rank = 0;
  int64_t step = 0;
  double ts_us = 0.0;  // telemetry-epoch end-of-step time (trace placement)
  double step_ms = 0.0;
  double exposed_comm_ms = 0.0;
};

class AnomalyDetector {
 public:
  explicit AnomalyDetector(AnomalyConfig config = {});

  // Feed one sample; its verdicts fire immediately. Returns the events this
  // call produced (also appended to events()).
  std::vector<AnomalyEvent> Observe(const StepSample& sample);

  const std::vector<AnomalyEvent>& events() const { return events_; }

  void Reset();

 private:
  struct Window {
    std::vector<double> samples;  // ring, newest overwrites oldest
    size_t next = 0;
    size_t count = 0;
    void Push(double v);
    bool Ready(int min_samples) const;
    double Mean() const;
    double Stddev(double mean) const;
  };
  struct RankState {
    Window step_ms;
    Window exposed_ms;
  };
  // Appends an event when `value` spikes vs `window`.
  void Judge(Window* window, double value, AnomalyEvent::Kind kind,
             const StepSample& sample, std::vector<AnomalyEvent>* out);

  AnomalyConfig config_;
  std::map<int, RankState> ranks_;
  std::vector<AnomalyEvent> events_;
};

}  // namespace msmoe

#endif  // MSMOE_SRC_OBS_ANOMALY_H_
