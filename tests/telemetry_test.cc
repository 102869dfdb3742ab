// End-to-end check of the instrumented Communicator layer: a real
// multi-threaded run records per-collective telemetry, serializes to
// Chrome-trace JSON, and every recorded wire volume matches the analytic
// CostModel prediction for the same (op, bytes, group) — the §3 formulas
// asserted against the live system rather than the simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/communicator.h"
#include "src/comm/health.h"
#include "src/hw/gpu_spec.h"
#include "src/sim/comm_crosscheck.h"
#include "src/sim/cost_model.h"
#include "src/sim/trace_export.h"

namespace msmoe {
namespace {

// Runs one of each core collective on real thread ranks.
void RunCoreCollectives(Communicator& comm, int64_t count) {
  const int n = comm.size();
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(static_cast<size_t>(n * count),
                            static_cast<float>(rank + 1));
    std::vector<float> gathered(static_cast<size_t>(n * count));
    std::vector<float> reduced(static_cast<size_t>(count));
    std::vector<float> recv(static_cast<size_t>(n * count));
    EXPECT_TRUE(comm.AllGather(rank, send.data(), gathered.data(), count).ok());
    EXPECT_TRUE(comm.ReduceScatter(rank, send.data(), reduced.data(), count).ok());
    EXPECT_TRUE(comm.AllReduce(rank, send.data(), recv.data(), count).ok());
    EXPECT_TRUE(comm.AllToAll(rank, send.data(), recv.data(), count).ok());
  });
}

// Extracts (name, wire_bytes) for every duration ("ph":"X") event.
std::vector<std::pair<std::string, uint64_t>> ParseTraceEvents(const std::string& json) {
  std::vector<std::pair<std::string, uint64_t>> out;
  size_t pos = 0;
  while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    const size_t obj_start = json.rfind('{', pos);
    const size_t name_pos = json.find("\"name\":\"", obj_start);
    const size_t name_end = json.find('"', name_pos + 8);
    const std::string name = json.substr(name_pos + 8, name_end - name_pos - 8);
    const size_t wb_pos = json.find("\"wire_bytes\":", pos);
    EXPECT_NE(wb_pos, std::string::npos);
    const uint64_t wb = std::strtoull(json.c_str() + wb_pos + 13, nullptr, 10);
    out.emplace_back(name, wb);
    pos = wb_pos;
  }
  return out;
}

TEST(CommTelemetryTest, RealRunTraceMatchesCostModelVolumes) {
  const int n = 4;
  const int64_t count = 96;
  FlatCommunicator comm(n);
  RunCoreCollectives(comm, count);

  const std::vector<CommEvent> events = comm.telemetry().Events();
  ASSERT_EQ(events.size(), static_cast<size_t>(4 * n));  // 4 ops x n ranks

  // Every event agrees with the closed-form §3 volume for its op.
  const CommCheckReport report = CrossCheckCommEvents(events);
  EXPECT_EQ(report.checked, 4 * n);
  EXPECT_EQ(report.skipped, 0);
  EXPECT_TRUE(report.ok()) << (report.mismatches.empty() ? "" : report.mismatches[0]);

  // The same volumes fall out of the CostModel time formulas: time * bus
  // bandwidth recovers the bytes the model believes each collective moves.
  const CostModel cost(MakeCluster("H800", n).value());
  const double bw = cost.BusBw(/*internode=*/false);
  const int64_t bytes_per_rank = count * 4;
  for (const CommEvent& event : events) {
    double model_bytes = 0.0;
    switch (event.op) {
      case CommOp::kAllGather:
      case CommOp::kReduceScatter:
        model_bytes = cost.RingCollectiveTime(bytes_per_rank, n, false) * bw;
        break;
      case CommOp::kAllReduce:
        model_bytes = 2.0 * cost.RingCollectiveTime(bytes_per_rank, n, false) * bw;
        break;
      case CommOp::kAllToAll:
        model_bytes = cost.AllToAllTime(n * bytes_per_rank, n, false) * bw *
                      CostModel::kA2AEfficiency;
        break;
      default:
        FAIL() << "unexpected op " << CommOpName(event.op);
    }
    EXPECT_NEAR(static_cast<double>(event.wire_bytes), model_bytes, 0.5)
        << CommOpName(event.op);
    EXPECT_GT(PredictedTimeUs(cost, event, false), 0.0);
    EXPECT_GE(event.duration_us, 0.0);
    EXPECT_EQ(event.group_size, n);
    EXPECT_EQ(event.primary, event.rank == 0);
  }

  // Summing primary events reproduces the backend's total accounting.
  EXPECT_EQ(comm.telemetry().TotalWireBytes(), comm.wire_bytes());

  // The run serializes to Chrome-trace JSON (ranks as threads) and the
  // serialized wire bytes round-trip.
  const std::string path = testing::TempDir() + "/msmoe_comm_trace.json";
  ASSERT_TRUE(WriteCommTrace(path, events).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 3\""), std::string::npos);

  const auto parsed = ParseTraceEvents(json);
  ASSERT_EQ(parsed.size(), events.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].first, CommOpName(events[i].op));
    EXPECT_EQ(parsed[i].second, events[i].wire_bytes);
  }
}

TEST(CommTelemetryTest, AllToAllVRecordsTotalOffRankVolume) {
  const int n = 3;
  FlatCommunicator comm(n);
  // rank r sends (r + dst) int64 elements to dst.
  RunOnRanks(n, [&](int rank) {
    std::vector<int64_t> send_counts(static_cast<size_t>(n));
    int64_t total_send = 0;
    for (int dst = 0; dst < n; ++dst) {
      send_counts[static_cast<size_t>(dst)] = rank + dst;
      total_send += rank + dst;
    }
    std::vector<int64_t> send(static_cast<size_t>(total_send), rank);
    std::vector<int64_t> recv(64);
    std::vector<int64_t> recv_counts;
    EXPECT_TRUE(comm.AllToAllV(rank, send.data(), send_counts, recv.data(),
                               static_cast<int64_t>(recv.size()), &recv_counts)
                    .ok());
  });

  // Off-rank elements: sum over src != dst of (src + dst) = 12; 8 bytes each.
  uint64_t expected = 0;
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src != dst) {
        expected += static_cast<uint64_t>(src + dst) * sizeof(int64_t);
      }
    }
  }
  EXPECT_EQ(comm.wire_bytes(), expected);
  const std::vector<CommEvent> events = comm.telemetry().Events();
  ASSERT_EQ(events.size(), static_cast<size_t>(n));
  for (const CommEvent& event : events) {
    EXPECT_EQ(event.op, CommOp::kAllToAllV);
    // The total volume is identical on every rank's event.
    EXPECT_EQ(event.wire_bytes, expected);
    EXPECT_EQ(event.elem_type, "i64");
  }
  EXPECT_EQ(comm.telemetry().TotalWireBytes(), expected);
}

TEST(CommTelemetryTest, ChunkedOpsAggregateToMonolithicAccounting) {
  // The async lane's per-chunk events must reassemble into exactly the
  // monolithic op's accounting: every chunk present once, and the summed
  // per-chunk wire bytes equal to the closed-form volume of the aggregate
  // element count (the AccountOnce no-double-counting invariant).
  const int n = 4;
  const int64_t count = 36;
  const int ag_chunks = 5;
  const int rs_chunks = 3;
  FlatCommunicator comm(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(static_cast<size_t>(n) * count,
                            static_cast<float>(rank + 1));
    std::vector<float> gathered(static_cast<size_t>(n) * count);
    std::vector<float> reduced(static_cast<size_t>(count));
    auto ag = comm.StartAllGather(rank, send.data(), gathered.data(), count, ag_chunks);
    ASSERT_TRUE(ag->WaitAll().ok());
    auto rs = comm.StartReduceScatter(rank, send.data(), reduced.data(), count,
                                      rs_chunks);
    for (int c = 0; c < rs->num_chunks(); ++c) {
      rs->SignalChunkReady(c);
    }
    ASSERT_TRUE(rs->WaitAll().ok());
  });

  const std::vector<CommEvent> events = comm.telemetry().Events();
  const ChunkCheckReport report = CrossCheckChunkAggregation(events);
  EXPECT_EQ(report.logical_ops, 2);
  EXPECT_EQ(report.chunk_events, ag_chunks + rs_chunks);  // primary lane only
  EXPECT_TRUE(report.ok()) << (report.mismatches.empty() ? ""
                                                         : report.mismatches[0]);
  // And the telemetry total equals the backend's own wire accounting.
  EXPECT_EQ(comm.telemetry().TotalWireBytes(), comm.wire_bytes());
}

TEST(CommTelemetryTest, CapacityBoundsEventGrowth) {
  FlatCommunicator comm(2);
  comm.telemetry().set_capacity(4);
  RunOnRanks(2, [&](int rank) {
    std::vector<float> send(8, 1.0f), recv(8);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(comm.AllReduce(rank, send.data(), recv.data(), 4).ok());
    }
  });
  EXPECT_EQ(comm.telemetry().event_count(), 4u);
  EXPECT_EQ(comm.telemetry().dropped(), 4u);
  comm.telemetry().Clear();
  EXPECT_EQ(comm.telemetry().event_count(), 0u);
  EXPECT_EQ(comm.telemetry().dropped(), 0u);
}

TEST(StragglerDetectorTest, TruncatedStreamKeepsTheHealthyRanksLateCollectives) {
  // Regression: a crashed rank's event stream ends early. Truncating every
  // stream to the shortest one would discard the surviving ranks' later
  // collectives — exactly the instances that carry the fault signature
  // here: rank 1 only starts lagging AFTER rank 2's stream ends.
  auto event = [](int rank, double start_us) {
    CommEvent e;
    e.rank = rank;
    e.start_us = start_us;
    return e;
  };
  const std::vector<CommEvent> events = {
      event(0, 0.0),   event(1, 0.0),   event(2, 0.0),    // instance 0
      event(0, 100.0), event(1, 100.0), event(2, 100.0),  // instance 1
      event(0, 200.0), event(1, 250.0),                   // rank 2 crashed
      event(0, 300.0), event(1, 350.0),
  };
  StragglerConfig config;
  config.threshold_us = 20.0;
  config.min_collectives = 2;
  const StragglerReport report = DetectStragglers(events, config);

  // All four instances are matched over the ranks that reached them.
  EXPECT_EQ(report.collectives_matched, 4);
  ASSERT_EQ(report.ranks.size(), 3u);
  EXPECT_EQ(report.ranks[0].collectives, 4);
  EXPECT_EQ(report.ranks[1].collectives, 4);
  EXPECT_EQ(report.ranks[2].collectives, 2);  // its own participation only
  // Rank 1's lag lives entirely in instances 2 and 3: mean (0+0+50+50)/4.
  EXPECT_DOUBLE_EQ(report.ranks[1].mean_entry_lag_us, 25.0);
  EXPECT_TRUE(report.ranks[1].straggler);
  EXPECT_FALSE(report.ranks[0].straggler);
  EXPECT_FALSE(report.ranks[2].straggler);
}

TEST(CommTelemetryTest, TraceEmbedsMemStatsPhases) {
  ResetMemStats();
  {
    MemoryScope scope("trace_test_phase");
    void* p = ArenaAcquire(1024);
    ArenaRelease(p, 1024);
  }
  const MemStatsSnapshot mem = GetMemStats();
  const std::string json = CommEventsToChromeTrace(
      {}, "msmoe-run", /*health=*/nullptr, /*comp_events=*/nullptr, &mem);
  EXPECT_NE(json.find("\"name\":\"memory\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mem total\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mem trace_test_phase\""), std::string::npos);
  EXPECT_NE(json.find("\"pool_hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"heap_allocs\""), std::string::npos);
}

}  // namespace
}  // namespace msmoe
