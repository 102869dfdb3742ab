#include "src/sim/comm_crosscheck.h"

#include <cstdio>
#include <map>

namespace msmoe {

bool AnalyticWireBytes(const CommEvent& event, uint64_t* bytes) {
  const uint64_t n = static_cast<uint64_t>(event.group_size);
  if (n == 0) {
    return false;
  }
  const uint64_t payload = static_cast<uint64_t>(event.elem_count) *
                           static_cast<uint64_t>(event.elem_bytes);
  switch (event.op) {
    case CommOp::kAllGather:
    case CommOp::kReduceScatter:
      if (event.algorithm != "ring") {
        return false;
      }
      *bytes = (n - 1) * payload;
      return true;
    case CommOp::kAllReduce:
      // Ring AR = RS + AG. Any other algorithm's volume depends on a shape
      // the event does not carry — skip.
      if (event.algorithm != "ring") {
        return false;
      }
      *bytes = 2 * (n - 1) * payload;
      return true;
    case CommOp::kAllToAll:
      // elem_count is the per-destination block; each rank keeps its own
      // block and sends n-1 off-rank.
      *bytes = (n - 1) * payload;
      return true;
    case CommOp::kBroadcast:
      *bytes = (n - 1) * payload;
      return true;
    case CommOp::kExchangeScalars:
      *bytes = (n - 1) * payload;
      return true;
    case CommOp::kAllToAllV:  // data-dependent: volume lives in the event
    case CommOp::kBarrier:
      return false;
  }
  return false;
}

double PredictedTimeUs(const CostModel& cost, const CommEvent& event, bool internode) {
  const int n = event.group_size;
  const int64_t payload = event.elem_count * event.elem_bytes;
  switch (event.op) {
    case CommOp::kAllGather:
    case CommOp::kReduceScatter:
      return cost.RingCollectiveTime(payload, n, internode);
    case CommOp::kAllReduce:
      return 2.0 * cost.RingCollectiveTime(payload, n, internode);
    case CommOp::kAllToAll:
      // CostModel's bytes_per_rank is the rank's full send buffer (1/n per
      // peer); the event records the per-destination block.
      return cost.AllToAllTime(payload * n, n, internode);
    case CommOp::kAllToAllV: {
      // Approximate with a balanced A2A moving the event's total volume.
      if (n <= 1) {
        return 0.0;
      }
      const int64_t per_rank =
          static_cast<int64_t>(event.wire_bytes) * n / (n - 1) / n;
      return cost.AllToAllTime(per_rank * n, n, internode);
    }
    case CommOp::kBroadcast:
      return cost.P2PTime(payload * (n - 1), internode);
    case CommOp::kExchangeScalars:
    case CommOp::kBarrier:
      return 0.0;
  }
  return 0.0;
}

ChunkCheckReport CrossCheckChunkAggregation(const std::vector<CommEvent>& events) {
  ChunkCheckReport report;
  struct Aggregate {
    CommOp op = CommOp::kBarrier;
    std::string algorithm;
    int group_size = 0;
    int elem_bytes = 0;
    int chunk_count = 0;
    int64_t elem_total = 0;
    uint64_t wire_total = 0;
    std::vector<int> seen;  // occurrences per chunk index
  };
  std::map<int64_t, Aggregate> ops;
  auto complain = [&report](const Aggregate& agg, int64_t id, const std::string& what) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer), "logical op %lld (%s[%s], n=%d): %s",
                  static_cast<long long>(id), CommOpName(agg.op),
                  agg.algorithm.c_str(), agg.group_size, what.c_str());
    report.mismatches.push_back(buffer);
  };
  for (const CommEvent& event : events) {
    if (!event.async_lane || !event.primary) {
      continue;
    }
    ++report.chunk_events;
    Aggregate& agg = ops[event.logical_op];
    if (agg.seen.empty()) {
      agg.op = event.op;
      agg.algorithm = event.algorithm;
      agg.group_size = event.group_size;
      agg.elem_bytes = event.elem_bytes;
      agg.chunk_count = event.chunk_count;
      agg.seen.assign(static_cast<size_t>(event.chunk_count), 0);
    } else if (event.op != agg.op || event.chunk_count != agg.chunk_count) {
      complain(agg, event.logical_op, "inconsistent op/chunk_count across chunks");
      continue;
    }
    if (event.chunk_index < 0 || event.chunk_index >= agg.chunk_count) {
      complain(agg, event.logical_op, "chunk index out of range");
      continue;
    }
    ++agg.seen[static_cast<size_t>(event.chunk_index)];
    agg.elem_total += event.elem_count;
    agg.wire_total += event.wire_bytes;
  }
  for (const auto& [id, agg] : ops) {
    ++report.logical_ops;
    for (int c = 0; c < agg.chunk_count; ++c) {
      if (agg.seen[static_cast<size_t>(c)] != 1) {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "chunk %d recorded %d times", c,
                      agg.seen[static_cast<size_t>(c)]);
        complain(agg, id, buffer);
      }
    }
    // Rebuild the monolithic event and compare the chunk sum against its
    // closed-form volume; data-dependent ops (A2AV) have no closed form and
    // are completeness-checked only.
    CommEvent whole;
    whole.op = agg.op;
    whole.algorithm = agg.algorithm;
    whole.group_size = agg.group_size;
    whole.elem_bytes = agg.elem_bytes;
    whole.elem_count = agg.elem_total;
    uint64_t expected = 0;
    if (AnalyticWireBytes(whole, &expected) && expected != agg.wire_total) {
      char buffer[128];
      std::snprintf(buffer, sizeof(buffer),
                    "chunk wire bytes sum to %llu, monolithic closed form is %llu",
                    static_cast<unsigned long long>(agg.wire_total),
                    static_cast<unsigned long long>(expected));
      complain(agg, id, buffer);
    }
  }
  return report;
}

CommCheckReport CrossCheckCommEvents(const std::vector<CommEvent>& events) {
  CommCheckReport report;
  for (const CommEvent& event : events) {
    uint64_t expected = 0;
    if (!AnalyticWireBytes(event, &expected)) {
      ++report.skipped;
      continue;
    }
    ++report.checked;
    if (expected != event.wire_bytes) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer),
                    "%s[%s] rank %d/%d %lld x %s: recorded %llu wire bytes, "
                    "analytic %llu",
                    CommOpName(event.op), event.algorithm.c_str(), event.rank,
                    event.group_size, static_cast<long long>(event.elem_count),
                    event.elem_type.c_str(),
                    static_cast<unsigned long long>(event.wire_bytes),
                    static_cast<unsigned long long>(expected));
      report.mismatches.push_back(buffer);
    }
  }
  return report;
}

}  // namespace msmoe
