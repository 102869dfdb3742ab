// Cross-check of recorded Communicator telemetry against the analytic
// communication model — the §3 volume formulas as a runtime assertion.
//
// The CostModel predicts collective times from analytic wire volumes; the
// instrumented Communicator records what a live threaded run actually
// accounted. This utility closes the loop: for every recorded CommEvent it
// recomputes the expected volume for the same (op, algorithm, element
// count, group) and reports any event whose recorded wire bytes disagree.
// Ops with data-dependent volume (all-to-all-v) or multi-level algorithms
// are skipped — their volume is not a closed-form function of the event
// fields alone.
#ifndef MSMOE_SRC_SIM_COMM_CROSSCHECK_H_
#define MSMOE_SRC_SIM_COMM_CROSSCHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/comm/telemetry.h"
#include "src/sim/cost_model.h"

namespace msmoe {

// Closed-form wire volume for one event per the §3 formulas (ring AG/RS =
// (n-1)*b, ring AR = 2(n-1)*b, pairwise A2A = (n-1)*block, direct broadcast
// = (n-1)*b). Returns false when no closed form exists for the event's
// (op, algorithm) — all-to-all-v, non-ring reductions, barriers.
bool AnalyticWireBytes(const CommEvent& event, uint64_t* bytes);

// Predicted wall-clock (us) for the event under the analytic cost model.
// Events without a time model (barrier, exchange-scalars) predict 0.
double PredictedTimeUs(const CostModel& cost, const CommEvent& event, bool internode);

struct CommCheckReport {
  int64_t checked = 0;  // events with a closed-form prediction
  int64_t skipped = 0;  // events without one (see AnalyticWireBytes)
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }
};

// Verifies every event's recorded wire bytes against AnalyticWireBytes.
CommCheckReport CrossCheckCommEvents(const std::vector<CommEvent>& events);

struct ChunkCheckReport {
  int64_t logical_ops = 0;    // distinct chunked collectives aggregated
  int64_t chunk_events = 0;   // per-chunk primary events consumed
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }
};

// Verifies that the per-chunk events of each chunked (async-lane) logical
// collective aggregate to exactly the monolithic op's accounting — the
// AccountOnce no-double-counting invariant:
//   * every logical op's chunks 0..chunk_count-1 are present exactly once
//     (no missing or duplicated chunk events);
//   * for ops with a closed-form volume (ring AG/RS), the SUM of per-chunk
//     wire bytes equals AnalyticWireBytes of the aggregate element count —
//     chunking must not inflate or lose a single wire byte;
//   * for data-dependent ops (all-to-all-v) completeness alone is checked.
// Only primary (rank 0) events are aggregated, mirroring AccountOnce.
ChunkCheckReport CrossCheckChunkAggregation(const std::vector<CommEvent>& events);

}  // namespace msmoe

#endif  // MSMOE_SRC_SIM_COMM_CROSSCHECK_H_
