#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/sim/trace_export.h"

namespace msmoe {
namespace {

// --- Chrome trace export ---

TEST(TraceExportTest, ContainsAllOps) {
  std::vector<SimOp> ops = {
      {"qkv_gemm", 10.0, false, 0, {}, "gemm"},
      {"a2a", 5.0, true, 1, {}, "comm"},
      {"flash", 20.0, false, 0, {0, 1}, "flash"},
  };
  GraphResult result = ExecuteGraph(ops, 2);
  const std::string json = ToChromeTrace(ops, result, "unit-test");
  EXPECT_NE(json.find("\"qkv_gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"a2a\""), std::string::npos);
  EXPECT_NE(json.find("\"flash\""), std::string::npos);
  EXPECT_NE(json.find("\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);  // comm stream
  EXPECT_NE(json.find("\"comm\":true"), std::string::npos);
  // Valid-ish JSON: brackets balance.
  int depth = 0;
  for (char c : json) {
    if (c == '{') {
      ++depth;
    }
    if (c == '}') {
      --depth;
    }
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceExportTest, EscapesSpecialCharacters) {
  std::vector<SimOp> ops = {{"na\"me\\with\nweird", 1.0, false, 0, {}, "x"}};
  GraphResult result = ExecuteGraph(ops, 1);
  const std::string json = ToChromeTrace(ops, result);
  EXPECT_EQ(json.find("\"na\"me"), std::string::npos);  // raw quote must not appear
  EXPECT_NE(json.find("na\\\"me"), std::string::npos);
}

TEST(TraceExportTest, WritesFile) {
  const std::string path = std::string(::testing::TempDir()) + "/msmoe_trace_test.json";
  std::vector<SimOp> ops = {{"op", 2.0, false, 0, {}, "x"}};
  GraphResult result = ExecuteGraph(ops, 1);
  ASSERT_TRUE(WriteChromeTrace(path, ops, result).ok());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  EXPECT_GT(std::ftell(file), 50);
  std::fclose(file);
  std::remove(path.c_str());
}

// --- Random-DAG properties of the graph executor ---

TEST(GraphPropertyTest, MakespanBoundedByCriticalPathAndSum) {
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    const int count = 2 + static_cast<int>(rng.NextIndex(18));
    std::vector<SimOp> ops;
    std::vector<double> longest_to(static_cast<size_t>(count), 0.0);
    double total = 0.0;
    for (int i = 0; i < count; ++i) {
      SimOp op;
      op.name = "op" + std::to_string(i);
      op.duration = 1.0 + rng.NextUniform() * 9.0;
      op.is_comm = rng.NextUniform() < 0.3;
      op.stream = op.is_comm ? 1 : 0;
      op.category = op.is_comm ? "comm" : "gemm";
      // Random subset of earlier ops as deps.
      for (int j = 0; j < i; ++j) {
        if (rng.NextUniform() < 0.25) {
          op.deps.push_back(j);
        }
      }
      double start_lb = 0.0;
      for (int dep : op.deps) {
        start_lb = std::max(start_lb, longest_to[static_cast<size_t>(dep)]);
      }
      longest_to[static_cast<size_t>(i)] = start_lb + op.duration;
      total += op.duration;
      ops.push_back(std::move(op));
    }
    double critical_path = 0.0;
    for (double v : longest_to) {
      critical_path = std::max(critical_path, v);
    }
    const GraphResult result = ExecuteGraph(ops, 2);
    EXPECT_GE(result.makespan, critical_path - 1e-9) << trial;
    EXPECT_LE(result.makespan, total + 1e-9) << trial;
    EXPECT_LE(result.exposed_comm, result.comm_busy + 1e-9) << trial;
    // Every op ran within the makespan with its declared duration.
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_NEAR(result.timings[i].end - result.timings[i].start, ops[i].duration, 1e-9);
      EXPECT_LE(result.timings[i].end, result.makespan + 1e-9);
    }
  }
}

TEST(GraphPropertyTest, DependenciesAlwaysRespected) {
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const int count = 3 + static_cast<int>(rng.NextIndex(12));
    std::vector<SimOp> ops;
    for (int i = 0; i < count; ++i) {
      SimOp op;
      op.name = "op" + std::to_string(i);
      op.duration = 1.0 + rng.NextUniform() * 4.0;
      op.stream = static_cast<int>(rng.NextIndex(3));
      for (int j = 0; j < i; ++j) {
        if (rng.NextUniform() < 0.3) {
          op.deps.push_back(j);
        }
      }
      ops.push_back(std::move(op));
    }
    const GraphResult result = ExecuteGraph(ops, 3);
    for (size_t i = 0; i < ops.size(); ++i) {
      for (int dep : ops[i].deps) {
        EXPECT_GE(result.timings[i].start,
                  result.timings[static_cast<size_t>(dep)].end - 1e-9)
            << trial << " op " << i << " dep " << dep;
      }
    }
  }
}

}  // namespace
}  // namespace msmoe
