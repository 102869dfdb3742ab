// Figure 7: comparison of all-gather, reduce-scatter, and all-to-all for
// token dispatch in Mixtral-8x7B as a function of top-k, on one 8-GPU H800
// node. Reports both the simulated collective times (the paper's
// measurement) and the analytic communication volumes (Eqs 3-4), and the
// dispatch mode the planner consequently selects.
//
// Besides the analytic table, a MEASURED section times the real fused EP
// dispatch/combine pipeline (src/parallel/ep_ffn) at several chunk counts
// against the same pipeline at one chunk — no overlap: the whole dispatch
// lands before any expert GEMM runs, and the whole combine leaves after —
// on the thread-rank substrate, across worker counts, and does the same for
// the backward (one chunk = the whole dy dispatch, then the whole expert
// backward, then the whole dx return). The Communicator's
// emulated wire clock is calibrated from the measured wire_bytes of one
// one-chunk step so comm ~= comp (the regime where the §4.2 overlap pays);
// the chunked pipeline's expert GEMMs and chunk packing then genuinely
// overlap the emulated dispatch/combine transfers. Results go to
// BENCH_fig7.json: the analytic per-top-k rows as before, plus a
// "measured" object with the overlap sweep ("baseline": "pipelined_c1"),
// each point carrying its forward and backward ("bwd_") timings.
//
// With --check, runs only the measured sweep and exits non-zero unless
// (a) every chunked output — y forward, dx / combine-weight grads / dW
// backward — is bitwise equal to the one-chunk output at the same worker
// count, (b) chunking beats one chunk by >= 1.3x at the best forward
// point, and (c) the steady-state forward dispatch path performs zero heap
// (pool-miss) allocations — the Release-mode dispatch smoke of
// tools/check.sh. The backward speedup is reported, not gated.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/arena.h"
#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/base/table.h"
#include "src/base/units.h"
#include "src/comm/communicator.h"
#include "src/core/parallelism_planner.h"
#include "src/model/config.h"
#include "src/model/router.h"
#include "src/parallel/ep_ffn.h"
#include "src/sim/cost_model.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// Measured-mode problem shape: 4 thread-ranks, top-2 routing over 8
// experts. Sized so one expert-compute phase is a few ms — the per-chunk
// pipeline overhead (comm-thread dispatch, rendezvous, cv signaling) must
// stay well under the overlapped wire time.
constexpr int kRanks = 4;
constexpr int64_t kExperts = 8;
constexpr int64_t kHidden = 256;
constexpr int64_t kFfnHidden = 512;
constexpr int64_t kTokensLocal = 192;
constexpr int64_t kTopK = 2;
constexpr int kWarmup = 1;
constexpr int kReps = 3;
constexpr double kWireLatencyUs = 5.0;

struct MeasuredPoint {
  int workers = 0;
  int chunks = 0;
  double c1_ms = 0.0;         // one-chunk baseline at the same worker count
  double pipelined_ms = 0.0;
  double speedup = 0.0;
  bool bitwise_equal = false;
  TimingStats c1_stats;         // p10/p90 spread + rep count behind c1_ms
  TimingStats pipelined_stats;  // ... and behind pipelined_ms
  // The backward at the same point: dx, combine-weight grads and dW.
  double c1_bwd_ms = 0.0;
  double pipelined_bwd_ms = 0.0;
  double bwd_speedup = 0.0;
  bool bwd_bitwise_equal = false;
  TimingStats c1_bwd_stats;
  TimingStats pipelined_bwd_stats;
};

struct MeasuredReport {
  double comp_ms = 0.0;       // one-chunk step wall time with the wire model off
  TimingStats comp_stats;     // spread behind comp_ms
  double wire_ms = 0.0;       // modeled wire occupancy of one step after calibration
  uint64_t step_wire_bytes = 0;
  uint64_t steady_heap_allocs = 0;  // pool misses across steady-state pipelined steps
  std::vector<MeasuredPoint> points;
  bool all_bitwise = true;  // forward and backward

  const MeasuredPoint* Best() const {
    const MeasuredPoint* best = nullptr;
    for (const MeasuredPoint& point : points) {
      if (best == nullptr || point.speedup > best->speedup) {
        best = &point;
      }
    }
    return best;
  }
};

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool SameBits(const EpFfnGrads& a, const EpFfnGrads& b) {
  bool same = SameBits(a.dx_local, b.dx_local) &&
              SameBits(a.dcombine_local, b.dcombine_local) && a.dw1.size() == b.dw1.size();
  for (size_t e = 0; same && e < a.dw1.size(); ++e) {
    same = SameBits(a.dw1[e], b.dw1[e]) && SameBits(a.dw3[e], b.dw3[e]) &&
           SameBits(a.dw2[e], b.dw2[e]);
  }
  return same;
}

MeasuredReport RunMeasured() {
  ModelConfig model;
  model.hidden = kHidden;
  model.ffn_hidden = kFfnHidden;
  model.num_experts = kExperts;
  model.top_k = kTopK;

  Rng rng(21);
  std::vector<Tensor> w1, w3, w2;
  for (int64_t e = 0; e < kExperts; ++e) {
    w1.push_back(Tensor::Randn({kHidden, kFfnHidden}, rng, 0.0f, 0.2f));
    w3.push_back(Tensor::Randn({kHidden, kFfnHidden}, rng, 0.0f, 0.2f));
    w2.push_back(Tensor::Randn({kFfnHidden, kHidden}, rng, 0.0f, 0.2f));
  }
  const Tensor w_gate = Tensor::Randn({kHidden, kExperts}, rng, 0.0f, 0.3f);
  RouterConfig router;
  router.num_experts = kExperts;
  router.top_k = kTopK;

  std::vector<Tensor> x_locals;
  std::vector<RoutingResult> routings;
  for (int rank = 0; rank < kRanks; ++rank) {
    x_locals.push_back(Tensor::Randn({kTokensLocal, kHidden}, rng));
    Tensor logits = MatMul(x_locals.back(), w_gate);
    routings.push_back(RouteTokens(logits, router));
  }
  std::vector<Tensor> dy_locals;
  for (int rank = 0; rank < kRanks; ++rank) {
    dy_locals.push_back(Tensor::Randn({kTokensLocal, kHidden}, rng));
  }

  FlatCommunicator comm(kRanks);
  std::vector<Tensor> y_c1(kRanks);
  std::vector<Tensor> y_pipelined(kRanks);
  std::vector<EpFfnCache> caches(kRanks);  // reused: steady-state pool hits

  EpPipelineConfig pipe;  // num_chunks is set per measurement below
  auto run_step = [&](std::vector<Tensor>* out) {
    RunOnRanks(kRanks, [&](int rank) {
      ShardContext ctx{&comm, rank};
      (*out)[static_cast<size_t>(rank)] = EpFfnForward(
          ctx, model, EpDispatchMode::kAllToAll, w1, w3, w2,
          x_locals[static_cast<size_t>(rank)], routings[static_cast<size_t>(rank)],
          &caches[static_cast<size_t>(rank)], pipe);
    });
  };
  // Backward of the last forward step (the caches carry its chunk count).
  std::vector<EpFfnGrads> g_c1(kRanks);
  std::vector<EpFfnGrads> g_pipelined(kRanks);
  auto run_backward = [&](std::vector<EpFfnGrads>* out) {
    RunOnRanks(kRanks, [&](int rank) {
      const size_t r = static_cast<size_t>(rank);
      ShardContext ctx{&comm, rank};
      (*out)[r] = EpFfnBackward(ctx, model, EpDispatchMode::kAllToAll, w1, w3, w2,
                                dy_locals[r], routings[r], caches[r]);
    });
  };
  MeasuredReport report;

  // Calibrate the emulated wire so one step's total all-to-all traffic
  // costs about one compute phase (comm ~= comp): measure a one-chunk step
  // with the wire model off, read the step's wire bytes off the
  // communicator, and size bytes/us so that volume takes that long.
  pipe.num_chunks = 1;
  report.comp_stats = TimedStatsOfN(kWarmup, kReps, [&] { run_step(&y_c1); });
  const double comp_s = report.comp_stats.median_s;
  report.comp_ms = comp_s * 1e3;
  const uint64_t bytes_before = comm.wire_bytes();
  run_step(&y_c1);
  report.step_wire_bytes = comm.wire_bytes() - bytes_before;
  const double target_us = std::max(comp_s * 1e6, 100.0);
  const double bytes_per_us = static_cast<double>(report.step_wire_bytes) / target_us;
  comm.SetWireModel(bytes_per_us, kWireLatencyUs);
  report.wire_ms = static_cast<double>(report.step_wire_bytes) / bytes_per_us / 1e3;

  for (int workers : {1, 2}) {
    const int default_workers = SetParallelWorkerCount(workers);
    pipe.num_chunks = 1;
    const TimingStats c1_stats = TimedStatsOfN(kWarmup, kReps, [&] { run_step(&y_c1); });
    const TimingStats c1_bwd_stats =
        TimedStatsOfN(kWarmup, kReps, [&] { run_backward(&g_c1); });
    for (int chunks : {2, 4, 8}) {
      MeasuredPoint point;
      point.workers = workers;
      point.chunks = chunks;
      point.c1_stats = c1_stats;
      point.c1_ms = c1_stats.median_s * 1e3;
      pipe.num_chunks = chunks;
      point.pipelined_stats =
          TimedStatsOfN(kWarmup, kReps, [&] { run_step(&y_pipelined); });
      point.pipelined_ms = point.pipelined_stats.median_s * 1e3;
      point.speedup = point.c1_ms / point.pipelined_ms;
      point.c1_bwd_stats = c1_bwd_stats;
      point.c1_bwd_ms = c1_bwd_stats.median_s * 1e3;
      point.pipelined_bwd_stats =
          TimedStatsOfN(kWarmup, kReps, [&] { run_backward(&g_pipelined); });
      point.pipelined_bwd_ms = point.pipelined_bwd_stats.median_s * 1e3;
      point.bwd_speedup = point.c1_bwd_ms / point.pipelined_bwd_ms;
      point.bitwise_equal = true;
      point.bwd_bitwise_equal = true;
      for (size_t r = 0; r < static_cast<size_t>(kRanks); ++r) {
        point.bitwise_equal = point.bitwise_equal && SameBits(y_pipelined[r], y_c1[r]);
        point.bwd_bitwise_equal = point.bwd_bitwise_equal && SameBits(g_pipelined[r], g_c1[r]);
      }
      report.all_bitwise =
          report.all_bitwise && point.bitwise_equal && point.bwd_bitwise_equal;
      report.points.push_back(point);
    }
    SetParallelWorkerCount(default_workers);
  }

  // Zero-alloc gate: after warmup, steady-state pipelined steps must be
  // all pool hits — no fresh heap allocations in the dispatch path.
  pipe.num_chunks = 4;
  for (int i = 0; i < 3; ++i) {
    run_step(&y_pipelined);
  }
  const uint64_t allocs_before = GetMemStats().heap_allocs;
  for (int i = 0; i < 3; ++i) {
    run_step(&y_pipelined);
  }
  report.steady_heap_allocs = GetMemStats().heap_allocs - allocs_before;
  return report;
}

void PrintMeasured(const MeasuredReport& report) {
  std::printf("\nMeasured chunked vs one-chunk EP dispatch/combine (%d thread-ranks, "
              "%lld experts, %lld tokens/rank, h=%lld, top-%lld; emulated wire "
              "calibrated to comm ~= comp: comp %.1f ms, wire %.1f ms/step):\n",
              kRanks, static_cast<long long>(kExperts),
              static_cast<long long>(kTokensLocal), static_cast<long long>(kHidden),
              static_cast<long long>(kTopK), report.comp_ms, report.wire_ms);
  TablePrinter table({"Workers", "Chunks", "C=1 (ms)", "Pipelined (ms)", "Speedup",
                      "Bitwise", "Bwd C=1 (ms)", "Bwd pipelined (ms)", "Bwd speedup",
                      "Bwd bitwise"});
  for (const MeasuredPoint& point : report.points) {
    table.AddRow({std::to_string(point.workers), std::to_string(point.chunks),
                  TablePrinter::Fmt(point.c1_ms, 2),
                  TablePrinter::Fmt(point.pipelined_ms, 2),
                  TablePrinter::Fmt(point.speedup, 2) + "x",
                  point.bitwise_equal ? "yes" : "NO", TablePrinter::Fmt(point.c1_bwd_ms, 2),
                  TablePrinter::Fmt(point.pipelined_bwd_ms, 2),
                  TablePrinter::Fmt(point.bwd_speedup, 2) + "x",
                  point.bwd_bitwise_equal ? "yes" : "NO"});
  }
  table.Print("Measured fused dispatch pipeline (src/parallel/ep_ffn):");
  if (const MeasuredPoint* best = report.Best()) {
    std::printf("best measured speedup %.2fx (%d chunks, %d workers); steady-state "
                "heap allocs across 3 pipelined steps: %llu\n",
                best->speedup, best->chunks, best->workers,
                static_cast<unsigned long long>(report.steady_heap_allocs));
  }
}

struct AnalyticRow {
  int64_t top_k = 0;
  double a2a_time_us = 0.0;
  double ag_time_us = 0.0;
  double a2a_volume = 0.0;
  double ag_volume = 0.0;
  const char* pick = "";
};

std::vector<AnalyticRow> AnalyticRows() {
  const ModelConfig model = ModelConfigByName("Mixtral-8x7B").value();
  const CostModel cost(MakeCluster("H800", 8).value());
  const int n = 8;
  const int64_t tokens_per_rank = model.seq_len / n;
  const int64_t bytes_per_token = model.hidden * 2;
  std::vector<AnalyticRow> rows;
  for (int64_t k = 1; k <= 8; ++k) {
    AnalyticRow row;
    row.top_k = k;
    row.a2a_time_us = cost.AllToAllTime(tokens_per_rank * k * bytes_per_token, n, false);
    row.ag_time_us = cost.RingCollectiveTime(tokens_per_rank * bytes_per_token, n, false);
    row.a2a_volume =
        EpFfnCommBytes(1, model.seq_len, model.hidden, n, k, EpDispatchMode::kAllToAll) /
        2.0;  // dispatch half of dispatch+combine
    row.ag_volume = EpFfnCommBytes(1, model.seq_len, model.hidden, n, k,
                                   EpDispatchMode::kAllGatherScatter) /
                    2.0;
    row.pick = EpDispatchModeName(ChooseEpDispatch(k, n));
    rows.push_back(row);
  }
  return rows;
}

void WriteJson(const std::vector<AnalyticRow>& rows, const MeasuredReport* measured) {
  const char* json_path = "BENCH_fig7.json";
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> json(std::fopen(json_path, "wb"),
                                                       &std::fclose);
  if (json == nullptr) {
    return;
  }
  std::fprintf(json.get(),
               "{\"bench\":\"fig7_dispatch\",\"model\":\"Mixtral-8x7B\","
               "\"gpus\":%d,\"rows\":[",
               8);
  for (size_t i = 0; i < rows.size(); ++i) {
    const AnalyticRow& row = rows[i];
    std::fprintf(json.get(),
                 "%s{\"top_k\":%lld,\"a2a_time_us\":%.3f,\"ag_time_us\":%.3f,"
                 "\"rs_time_us\":%.3f,\"a2a_volume_bytes\":%.0f,"
                 "\"ag_volume_bytes\":%.0f,\"planner_picks\":\"%s\"}",
                 i == 0 ? "" : ",", static_cast<long long>(row.top_k), row.a2a_time_us,
                 row.ag_time_us, row.ag_time_us, row.a2a_volume, row.ag_volume, row.pick);
  }
  std::fprintf(json.get(), "]");
  if (measured != nullptr) {
    const MeasuredPoint* best = measured->Best();
    std::string comp_spread;
    AppendTimingSpreadJson(&comp_spread, "comp", measured->comp_stats);
    std::fprintf(json.get(),
                 ",\"measured\":{\"baseline\":\"pipelined_c1\",\"ranks\":%d,\"experts\":%lld,\"tokens_local\":%lld,"
                 "\"hidden\":%lld,\"top_k\":%lld,\"warmup\":%d,\"reps\":%d,"
                 "\"comp_ms\":%.3f,%s,\"wire_ms\":%.3f,\"step_wire_bytes\":%llu,"
                 "\"best_speedup\":%.3f,\"all_bitwise\":%s,"
                 "\"steady_heap_allocs\":%llu,\"points\":[",
                 kRanks, static_cast<long long>(kExperts),
                 static_cast<long long>(kTokensLocal), static_cast<long long>(kHidden),
                 static_cast<long long>(kTopK), kWarmup, kReps, measured->comp_ms,
                 comp_spread.c_str(), measured->wire_ms,
                 static_cast<unsigned long long>(measured->step_wire_bytes),
                 best != nullptr ? best->speedup : 0.0,
                 measured->all_bitwise ? "true" : "false",
                 static_cast<unsigned long long>(measured->steady_heap_allocs));
    for (size_t i = 0; i < measured->points.size(); ++i) {
      const MeasuredPoint& point = measured->points[i];
      std::string spread;
      AppendTimingSpreadJson(&spread, "c1", point.c1_stats);
      spread += ", ";
      AppendTimingSpreadJson(&spread, "pipelined", point.pipelined_stats);
      std::string bwd_spread;
      AppendTimingSpreadJson(&bwd_spread, "c1_bwd", point.c1_bwd_stats);
      bwd_spread += ", ";
      AppendTimingSpreadJson(&bwd_spread, "pipelined_bwd", point.pipelined_bwd_stats);
      std::fprintf(json.get(),
                   "%s\n  {\"workers\":%d,\"chunks\":%d,\"c1_ms\":%.3f,"
                   "\"pipelined_ms\":%.3f,\"speedup\":%.3f,%s,\"bitwise\":%s,"
                   "\"c1_bwd_ms\":%.3f,\"pipelined_bwd_ms\":%.3f,\"bwd_speedup\":%.3f,%s,"
                   "\"bwd_bitwise\":%s}",
                   i == 0 ? "" : ",", point.workers, point.chunks, point.c1_ms,
                   point.pipelined_ms, point.speedup, spread.c_str(),
                   point.bitwise_equal ? "true" : "false", point.c1_bwd_ms,
                   point.pipelined_bwd_ms, point.bwd_speedup, bwd_spread.c_str(),
                   point.bwd_bitwise_equal ? "true" : "false");
    }
    std::fprintf(json.get(), "\n]}");
  }
  std::fprintf(json.get(), "}\n");
  std::printf("\nmachine-readable output: %s\n", json_path);
}

int CheckMode() {
  const MeasuredReport report = RunMeasured();
  PrintMeasured(report);
  WriteJson(AnalyticRows(), &report);
  if (!report.all_bitwise) {
    std::printf("\nPERF SMOKE FAILED: chunked dispatch output or grads not bitwise "
                "equal to the one-chunk run\n");
    return 1;
  }
  const MeasuredPoint* best = report.Best();
  if (best == nullptr || best->speedup < 1.3) {
    std::printf("\nPERF SMOKE FAILED: pipelined dispatch speedup %.2fx < 1.3x over "
                "one chunk (comm ~= comp)\n",
                best != nullptr ? best->speedup : 0.0);
    return 1;
  }
  if (report.steady_heap_allocs != 0) {
    std::printf("\nPERF SMOKE FAILED: %llu steady-state heap allocations in the "
                "pipelined dispatch path (expected 0)\n",
                static_cast<unsigned long long>(report.steady_heap_allocs));
    return 1;
  }
  std::printf("\ndispatch smoke ok: pipelined %.2fx over one chunk (%d chunks, "
              "%d workers), forward and backward bitwise identical, zero "
              "steady-state heap allocs\n",
              best->speedup, best->chunks, best->workers);
  return 0;
}

void Run() {
  PrintHeader("Figure 7 — AG / RS / A2A token-dispatch time vs top-k",
              "Mixtral-8x7B shapes (h=4096, seq 8192), one 8-GPU H800 node");
  PrintPaperNote("when top-k > 6 the all-gather-based EP implementation wins");

  const std::vector<AnalyticRow> rows = AnalyticRows();
  TablePrinter table({"top-k", "A2A time (us)", "AG time (us)", "RS time (us)",
                      "A2A volume (MiB)", "AG volume (MiB)", "Planner picks"});
  for (const AnalyticRow& row : rows) {
    table.AddRow({TablePrinter::Fmt(row.top_k), TablePrinter::Fmt(row.a2a_time_us, 1),
                  TablePrinter::Fmt(row.ag_time_us, 1),
                  TablePrinter::Fmt(row.ag_time_us, 1),
                  TablePrinter::Fmt(row.a2a_volume / kMiB, 1),
                  TablePrinter::Fmt(row.ag_volume / kMiB, 1), row.pick});
  }
  table.Print("Dispatch-communication time vs top-k (AG and RS are symmetric):");

  const MeasuredReport measured = RunMeasured();
  PrintMeasured(measured);
  WriteJson(rows, &measured);
}

}  // namespace
}  // namespace msmoe

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      return msmoe::CheckMode();
    }
  }
  msmoe::Run();
  return 0;
}
