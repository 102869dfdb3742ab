#include "src/obs/anomaly.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace msmoe {

AnomalyDetector::AnomalyDetector(AnomalyConfig config) : config_(config) {
  if (config_.window < 2) config_.window = 2;
  if (config_.min_samples < 2) config_.min_samples = 2;
  if (config_.min_samples > config_.window) config_.min_samples = config_.window;
}

void AnomalyDetector::Window::Push(double v) {
  if (samples.empty()) return;  // sized lazily by the detector
  samples[next] = v;
  next = (next + 1) % samples.size();
  if (count < samples.size()) ++count;
}

bool AnomalyDetector::Window::Ready(int min_samples) const {
  return count >= static_cast<size_t>(min_samples);
}

double AnomalyDetector::Window::Mean() const {
  // The ring is dense in [0, count); order is irrelevant for moments.
  double sum = 0.0;
  for (size_t i = 0; i < count; ++i) sum += samples[i];
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double AnomalyDetector::Window::Stddev(double mean) const {
  if (count < 2) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const double d = samples[i] - mean;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(count - 1));
}

void AnomalyDetector::Judge(Window* window, double value, AnomalyEvent::Kind kind,
                            const StepSample& sample,
                            std::vector<AnomalyEvent>* out) {
  if (window->samples.empty()) {
    window->samples.assign(static_cast<size_t>(config_.window), 0.0);
    window->next = 0;
    window->count = 0;
  }
  bool fired = false;
  if (window->Ready(config_.min_samples)) {
    const double mean = window->Mean();
    const double sd = window->Stddev(mean);
    const double delta = value - mean;
    // Floor the deviation scale so a near-constant baseline (sd -> 0)
    // cannot turn scheduler jitter into an infinite z-score.
    const double scale = std::max(sd, std::max(0.05 * mean, 1e-3));
    const double z = delta / scale;
    if (z >= config_.z_threshold && value >= config_.min_ratio * mean &&
        delta >= config_.min_delta_ms) {
      AnomalyEvent event;
      event.kind = kind;
      event.rank = sample.rank;
      event.step = sample.step;
      event.ts_us = sample.ts_us;
      event.value_ms = value;
      event.baseline_ms = mean;
      event.zscore = z;
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%.3fms vs baseline %.3fms (z=%.1f)",
                    value, mean, z);
      event.detail = buf;
      out->push_back(event);
      fired = true;
    }
  }
  // Anomalous samples stay out of the baseline so sustained regressions
  // keep firing rather than becoming the new normal.
  if (!fired) window->Push(value);
}

std::vector<AnomalyEvent> AnomalyDetector::Observe(const StepSample& sample) {
  std::vector<AnomalyEvent> fired;
  RankState& state = ranks_[sample.rank];
  Judge(&state.step_ms, sample.step_ms, AnomalyEvent::Kind::kStepTimeRegression,
        sample, &fired);
  Judge(&state.exposed_ms, sample.exposed_comm_ms,
        AnomalyEvent::Kind::kExposedCommSpike, sample, &fired);
  events_.insert(events_.end(), fired.begin(), fired.end());
  return fired;
}

void AnomalyDetector::Reset() {
  ranks_.clear();
  events_.clear();
}

}  // namespace msmoe
