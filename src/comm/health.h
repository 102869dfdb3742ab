// Straggler detection over recorded collective telemetry.
//
// In a synchronous training job one slow rank stalls every collective: its
// peers enter the barrier on time and then sit in the barrier wait until the
// straggler arrives. That signature is visible in CommTelemetry — for each
// collective, the straggler's entry (event start) is LATE relative to the
// earliest member entry, while healthy peers show inflated durations.
// DetectStragglers matches up the per-rank event streams collective by
// collective, measures each rank's entry lag against the earliest member,
// and flags ranks whose mean lag is both above an absolute threshold and
// above twice the median of the other ranks' mean lags. The peer-relative
// half keeps skew that every rank suffers alike (a loaded host, lag that
// rotates between ranks) from flagging healthy ranks. Only sync-lane events
// are matched: they are the rank thread's own entries, while async-lane
// chunk events are started by the comm proxy.
//
// This is the program's one straggler verdict: the trainer's elastic fault
// attribution falls back to it for unattributed deadlines, and the obs
// StepProfiler computes it once at Finish for the trace and to name the
// rank behind its anomaly pages (StragglerSuspect()). Flags export into the
// same Chrome trace as the raw events (src/sim/trace_export takes an
// optional StragglerReport), so a flagged rank is visible right on the
// timeline it slowed down.
#ifndef MSMOE_SRC_COMM_HEALTH_H_
#define MSMOE_SRC_COMM_HEALTH_H_

#include <cstdint>
#include <vector>

#include "src/comm/telemetry.h"

namespace msmoe {

struct StragglerConfig {
  // A flagged rank's MEAN entry lag must exceed this, and also twice the
  // median of its peers' mean lags.
  double threshold_us = 1000.0;
  // Don't flag on fewer matched collectives than this (startup noise).
  int64_t min_collectives = 4;
};

struct RankHealth {
  int rank = 0;
  int64_t collectives = 0;        // collectives this rank participated in
  double mean_entry_lag_us = 0.0;  // mean (entry - earliest present entry)
  double max_entry_lag_us = 0.0;
  bool straggler = false;
};

struct StragglerReport {
  std::vector<RankHealth> ranks;   // indexed by rank
  // Longest per-rank stream = number of collective instances analyzed.
  int64_t collectives_matched = 0;
  double threshold_us = 0.0;

  int straggler_count() const {
    int count = 0;
    for (const RankHealth& health : ranks) {
      count += health.straggler ? 1 : 0;
    }
    return count;
  }
};

// Analyzes events recorded by one Communicator run. Sync-lane events are
// grouped by rank and ordered by start time; the i-th event of each rank is
// matched as one collective instance (ranks issue collectives in the same
// global order). Ranks are inferred from the events. Uneven per-rank counts (a
// crashed rank's truncated stream) do NOT truncate the analysis: instance i
// is matched over the ranks whose streams reach it, so the healthy
// survivors' late collectives — the fault signature — are still scored;
// per-rank `collectives` then differ and the mean is over each rank's own
// participation.
StragglerReport DetectStragglers(const std::vector<CommEvent>& events,
                                 const StragglerConfig& config = {});

// The flagged rank with the worst mean entry lag in `report`, or -1 when no
// rank was flagged. The single-suspect projection both the trainer's elastic
// fault attribution and the obs layer's health summaries use.
int WorstStragglerRank(const StragglerReport& report);

}  // namespace msmoe

#endif  // MSMOE_SRC_COMM_HEALTH_H_
