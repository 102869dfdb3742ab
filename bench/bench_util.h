// Shared helpers for the reproduction benches (one binary per paper
// table/figure; each prints the same rows/series the paper reports).
#ifndef MSMOE_BENCH_BENCH_UTIL_H_
#define MSMOE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace msmoe {

inline void PrintHeader(const std::string& experiment, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================\n\n");
}

inline void PrintPaperNote(const std::string& note) {
  std::printf("paper reference: %s\n\n", note.c_str());
}

// Distribution summary of one timed region: median plus the p10/p90 spread
// and the repetition count, so every BENCH_*.json block records how noisy
// the measurement was instead of a bare point estimate.
struct TimingStats {
  double median_s = 0.0;
  double p10_s = 0.0;
  double p90_s = 0.0;
  int reps = 0;
};

// Wall-clock timing with warmup + N timed repetitions, so BENCH JSON
// numbers are stable run-to-run (a single cold measurement can be 2x off:
// first-touch page faults, frequency ramp, pool-thread spawn). Runs fn()
// `warmup` times untimed, then `reps` timed times, and summarizes the timed
// repetitions. Percentiles use the nearest-rank method on the sorted
// samples (exact sample values, no interpolation).
template <typename Fn>
TimingStats TimedStatsOfN(int warmup, int reps, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) {
    fn();
  }
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  std::sort(seconds.begin(), seconds.end());
  const auto rank = [&](double pct) {
    const auto n = static_cast<double>(seconds.size());
    auto index = static_cast<size_t>(pct * (n - 1.0) + 0.5);
    return seconds[std::min(index, seconds.size() - 1)];
  };
  TimingStats stats;
  stats.median_s = seconds[seconds.size() / 2];
  stats.p10_s = rank(0.10);
  stats.p90_s = rank(0.90);
  stats.reps = static_cast<int>(seconds.size());
  return stats;
}

// Appends the distribution fields every BENCH_*.json block carries next to
// its headline number: "p10_<label>_ms":..,"p90_<label>_ms":..,
// "reps_<label>":N. The rep count is label-scoped so a block that reports
// several timed regions (e.g. fused AND unfused) stays free of duplicate
// keys.
inline void AppendTimingSpreadJson(std::string* out, const std::string& label,
                                   const TimingStats& stats) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "\"p10_%s_ms\": %.4f, \"p90_%s_ms\": %.4f, \"reps_%s\": %d",
                label.c_str(), stats.p10_s * 1e3, label.c_str(),
                stats.p90_s * 1e3, label.c_str(), stats.reps);
  *out += buffer;
}

}  // namespace msmoe

#endif  // MSMOE_BENCH_BENCH_UTIL_H_
