// Figure 15: overlapped vs non-overlapped time of the four §4.2 fused
// communication-computation pairs — (i) QKV Projection + all-to-all,
// (ii) all-to-all + Output Projection, (iii) all-gather + scatter +
// GroupedGEMM, (iv) GroupedGEMM + gather + reduce-scatter — for the six
// evaluation models (M1-M6) on one 8-GPU H800 node. Also reports the
// resulting per-layer iteration-time reduction (§6.2: 7.1%-12.9%).
//
// Besides the simulated tables, a MEASURED section times the real fused
// all-gather + GEMM pipeline (src/parallel/fused_ops) against the unfused
// collective-then-GEMM sequence on the thread-rank substrate, across
// several row-tile sizes and worker counts. The Communicator's emulated
// wire clock is calibrated so comm ≈ comp (the regime Fig 15 targets);
// the fused pipeline's GEMM for chunk r then genuinely overlaps the
// emulated transfer of chunk r+1, and the observed speedup is compared
// against the overlap_sim tile-pipeline prediction. Results go to
// BENCH_fig15.json.
//
// With --check, runs only the measured sweep and exits non-zero unless
// (a) every fused result is bitwise equal to its unfused reference,
// (b) fused ≤ 1.05x unfused at the best tile size, and (c) fused beats
// unfused by ≥ 1.2x at 4 ranks / ≥ 2 workers — the Release-mode overlap
// smoke stage of tools/check.sh.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/math_util.h"
#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/base/table.h"
#include "src/comm/communicator.h"
#include "src/core/layer_program.h"
#include "src/model/config.h"
#include "src/parallel/fused_ops.h"
#include "src/sim/overlap_sim.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// Measured-mode problem shape: 4 thread-ranks, each contributing a
// [kRowsLocal, kK] shard to the all-gather feeding a [kK, kCols] GEMM.
// Sized so one compute phase is tens of ms: the per-chunk pipeline overhead
// (comm-thread dispatch, chunk rendezvous, cv signaling — a few ms/chunk on
// a saturated single-core host even with the comm thread at copy-engine
// priority) must stay well under the overlapped wire time, or the
// measurement reflects scheduler overhead rather than overlap.
constexpr int kRanks = 4;
constexpr int64_t kRowsLocal = 384;
constexpr int64_t kK = 384;
constexpr int64_t kCols = 512;
constexpr int kWarmup = 1;
constexpr int kReps = 3;
constexpr double kWireLatencyUs = 20.0;

struct MeasuredPoint {
  int workers = 0;
  int64_t row_tile = 0;
  int64_t num_chunks = 0;
  double unfused_ms = 0.0;
  double fused_ms = 0.0;
  double speedup = 0.0;
  bool bitwise_equal = false;
  TimingStats unfused_stats;  // p10/p90 spread + rep count behind unfused_ms
  TimingStats fused_stats;    // ... and behind fused_ms
};

struct MeasuredReport {
  double comp_ms = 0.0;  // unfused step wall time with the wire model off
  TimingStats comp_stats;  // spread behind comp_ms
  double wire_ms = 0.0;  // modeled all-gather wire occupancy after calibration
  double predicted_speedup = 0.0;  // overlap_sim at the best point's tiling
  std::vector<MeasuredPoint> points;
  bool all_bitwise = true;

  const MeasuredPoint* Best(int min_workers) const {
    const MeasuredPoint* best = nullptr;
    for (const MeasuredPoint& point : points) {
      if (point.workers < min_workers) {
        continue;
      }
      if (best == nullptr || point.speedup > best->speedup) {
        best = &point;
      }
    }
    return best;
  }
};

MeasuredReport RunMeasured() {
  Rng rng(7);
  std::vector<Tensor> x_locals;
  for (int rank = 0; rank < kRanks; ++rank) {
    x_locals.push_back(Tensor::Randn({kRowsLocal, kK}, rng));
  }
  const Tensor w = Tensor::Randn({kK, kCols}, rng);

  FlatCommunicator comm(kRanks);
  std::vector<Tensor> y_unfused(kRanks);
  std::vector<Tensor> y_fused(kRanks);
  std::vector<std::vector<float>> gathered(
      kRanks, std::vector<float>(static_cast<size_t>(kRanks * kRowsLocal * kK)));

  // The unfused reference: monolithic all-gather, then one GEMM over the
  // full gathered input.
  auto run_unfused = [&] {
    RunOnRanks(kRanks, [&](int rank) {
      float* recv = gathered[static_cast<size_t>(rank)].data();
      const Status status =
          comm.AllGather(rank, x_locals[static_cast<size_t>(rank)].data(), recv, kRowsLocal * kK);
      MSMOE_CHECK(status.ok()) << status.ToString();
      Tensor y({kRanks * kRowsLocal, kCols});
      Gemm(false, false, kRanks * kRowsLocal, kCols, kK, 1.0f, recv, w.data(), 0.0f,
           y.data());
      y_unfused[static_cast<size_t>(rank)] = std::move(y);
    });
  };

  MeasuredReport report;

  // Calibrate the emulated wire so the all-gather costs about one compute
  // phase (comm ≈ comp, the regime where overlap pays): measure the step
  // with the wire model off, then size bytes/us so the ring volume takes
  // that long on the wire.
  report.comp_stats = TimedStatsOfN(kWarmup, kReps, run_unfused);
  const double comp_s = report.comp_stats.median_s;
  report.comp_ms = comp_s * 1e3;
  const uint64_t ring_bytes = static_cast<uint64_t>(kRanks - 1) *
                              static_cast<uint64_t>(kRowsLocal * kK) * sizeof(float);
  const double target_us = std::max(comp_s * 1e6 - kWireLatencyUs, 1.0);
  const double bytes_per_us = static_cast<double>(ring_bytes) / target_us;
  comm.SetWireModel(bytes_per_us, kWireLatencyUs);
  report.wire_ms = (kWireLatencyUs + static_cast<double>(ring_bytes) / bytes_per_us) / 1e3;

  const int64_t out_elems = kRanks * kRowsLocal * kCols;
  for (int workers : {1, 2}) {
    const int default_workers = SetParallelWorkerCount(workers);
    for (int64_t tile : {int64_t{48}, int64_t{96}, int64_t{192}, kRowsLocal}) {
      MeasuredPoint point;
      point.workers = workers;
      point.row_tile = tile;
      point.num_chunks = CeilDiv(kRowsLocal, tile);
      point.unfused_stats = TimedStatsOfN(kWarmup, kReps, run_unfused);
      point.unfused_ms = point.unfused_stats.median_s * 1e3;
      point.fused_stats = TimedStatsOfN(kWarmup, kReps, [&] {
        RunOnRanks(kRanks, [&](int rank) {
          ShardContext ctx{&comm, rank};
          y_fused[static_cast<size_t>(rank)] = FusedAllGatherGemm(
              ctx, x_locals[static_cast<size_t>(rank)], w, tile);
        });
      });
      point.fused_ms = point.fused_stats.median_s * 1e3;
      point.speedup = point.unfused_ms / point.fused_ms;
      point.bitwise_equal = true;
      for (int rank = 0; rank < kRanks; ++rank) {
        point.bitwise_equal =
            point.bitwise_equal &&
            std::memcmp(y_fused[static_cast<size_t>(rank)].data(),
                        y_unfused[static_cast<size_t>(rank)].data(),
                        static_cast<size_t>(out_elems) * sizeof(float)) == 0;
      }
      report.all_bitwise = report.all_bitwise && point.bitwise_equal;
      report.points.push_back(point);
    }
    SetParallelWorkerCount(default_workers);
  }

  if (const MeasuredPoint* best = report.Best(0)) {
    TilePipelineConfig config;
    config.comm_us = report.wire_ms * 1e3;
    config.comp_us = report.comp_ms * 1e3;
    config.num_tiles = static_cast<int>(best->num_chunks);
    config.comm_sm_fraction = 0.0;  // AG rides the copy engines / comm thread
    report.predicted_speedup = SimulateTilePipeline(config).speedup;
  }
  return report;
}

void WriteMeasuredJson(const MeasuredReport& report) {
  const char* json_path = "BENCH_fig15.json";
  std::FILE* json = std::fopen(json_path, "wb");
  if (json == nullptr) {
    return;
  }
  const MeasuredPoint* best = report.Best(0);
  std::string comp_spread;
  AppendTimingSpreadJson(&comp_spread, "comp", report.comp_stats);
  std::fprintf(json,
               "{\"bench\": \"fig15_intra_overlap\", \"ranks\": %d, "
               "\"rows_local\": %lld, \"k\": %lld, \"cols\": %lld, "
               "\"warmup\": %d, \"reps\": %d, \"comp_ms\": %.3f, %s, "
               "\"wire_ms\": %.3f, \"predicted_speedup\": %.3f, "
               "\"best_speedup\": %.3f, \"overlap_efficiency\": %.3f, "
               "\"all_bitwise\": %s, \"points\": [",
               kRanks, static_cast<long long>(kRowsLocal), static_cast<long long>(kK),
               static_cast<long long>(kCols), kWarmup, kReps, report.comp_ms,
               comp_spread.c_str(), report.wire_ms, report.predicted_speedup,
               best != nullptr ? best->speedup : 0.0,
               report.predicted_speedup > 0.0 && best != nullptr
                   ? best->speedup / report.predicted_speedup
                   : 0.0,
               report.all_bitwise ? "true" : "false");
  for (size_t i = 0; i < report.points.size(); ++i) {
    const MeasuredPoint& point = report.points[i];
    std::string spread;
    AppendTimingSpreadJson(&spread, "unfused", point.unfused_stats);
    spread += ", ";
    AppendTimingSpreadJson(&spread, "fused", point.fused_stats);
    std::fprintf(json,
                 "%s\n  {\"workers\": %d, \"row_tile\": %lld, \"chunks\": %lld, "
                 "\"unfused_ms\": %.3f, \"fused_ms\": %.3f, \"speedup\": %.3f, "
                 "%s, \"bitwise\": %s}",
                 i == 0 ? "" : ",", point.workers,
                 static_cast<long long>(point.row_tile),
                 static_cast<long long>(point.num_chunks), point.unfused_ms,
                 point.fused_ms, point.speedup, spread.c_str(),
                 point.bitwise_equal ? "true" : "false");
  }
  std::fprintf(json, "\n]}\n");
  std::fclose(json);
  std::printf("machine-readable output: %s\n", json_path);
}

void PrintMeasured(const MeasuredReport& report) {
  std::printf("\nMeasured fused vs unfused all-gather + GEMM (%d thread-ranks, "
              "%lld x %lld x %lld per rank, emulated wire calibrated to comm ~= comp: "
              "comp %.1f ms, wire %.1f ms):\n",
              kRanks, static_cast<long long>(kRowsLocal), static_cast<long long>(kK),
              static_cast<long long>(kCols), report.comp_ms, report.wire_ms);
  TablePrinter table({"Workers", "Row tile", "Chunks", "Unfused (ms)", "Fused (ms)",
                      "Speedup", "Bitwise"});
  for (const MeasuredPoint& point : report.points) {
    table.AddRow({std::to_string(point.workers), std::to_string(point.row_tile),
                  std::to_string(point.num_chunks), TablePrinter::Fmt(point.unfused_ms, 2),
                  TablePrinter::Fmt(point.fused_ms, 2),
                  TablePrinter::Fmt(point.speedup, 2) + "x",
                  point.bitwise_equal ? "yes" : "NO"});
  }
  table.Print("Measured pipeline (src/parallel/fused_ops over chunked async collectives):");
  const MeasuredPoint* best = report.Best(0);
  if (best != nullptr && report.predicted_speedup > 0.0) {
    std::printf("best measured speedup %.2fx (tile %lld, %d workers); overlap_sim "
                "predicts %.2fx -> overlap efficiency %.0f%%\n",
                best->speedup, static_cast<long long>(best->row_tile), best->workers,
                report.predicted_speedup,
                100.0 * best->speedup / report.predicted_speedup);
  }
}

int CheckMode() {
  const MeasuredReport report = RunMeasured();
  PrintMeasured(report);
  WriteMeasuredJson(report);
  if (!report.all_bitwise) {
    std::printf("\nPERF SMOKE FAILED: fused pipeline output not bitwise equal to the "
                "unfused reference\n");
    return 1;
  }
  const MeasuredPoint* best = report.Best(0);
  if (best == nullptr || best->fused_ms > 1.05 * best->unfused_ms) {
    std::printf("\nPERF SMOKE FAILED: fused (%.2f ms) exceeds 1.05x unfused (%.2f ms) "
                "at the best tile size\n",
                best != nullptr ? best->fused_ms : 0.0,
                best != nullptr ? best->unfused_ms : 0.0);
    return 1;
  }
  const MeasuredPoint* best_mt = report.Best(2);
  if (best_mt == nullptr || best_mt->speedup < 1.2) {
    std::printf("\nPERF SMOKE FAILED: fused all-gather+GEMM speedup %.2fx < 1.2x at "
                "%d ranks / >=2 workers\n",
                best_mt != nullptr ? best_mt->speedup : 0.0, kRanks);
    return 1;
  }
  std::printf("\noverlap smoke ok: fused %.2fx over unfused at %d ranks / %d workers "
              "(tile %lld), bitwise identical\n",
              best_mt->speedup, kRanks, best_mt->workers,
              static_cast<long long>(best_mt->row_tile));
  return 0;
}

void Run() {
  PrintHeader("Figure 15 — intra-operator communication-computation overlap",
              "fused tile-pipeline kernels vs back-to-back execution, "
              "one 8-GPU H800 node, micro-batch 1 x 8192 tokens");
  PrintPaperNote(
      "1.2x-4.7x reduction in combined comm+comp time per pair; 7.1%-12.9% "
      "lower iteration time overall");

  const CostModel cost(MakeCluster("H800", 8).value());

  TablePrinter table({"Model", "Pair", "Comm (us)", "Comp (us)", "Non-overlapped (us)",
                      "Overlapped (us)", "Reduction"});
  int index = 0;
  for (const ModelConfig& model : EvaluationModels()) {
    ++index;
    ExecutionOptions options = ExecutionOptions::MegaScale(model, 8);
    const auto pairs = IntraOverlapPairs(cost, model, options, 1, model.seq_len, 8);
    for (const OverlapPairReport& pair : pairs) {
      table.AddRow({"M" + std::to_string(index) + " " + model.name, pair.name,
                    TablePrinter::Fmt(pair.comm_us, 1), TablePrinter::Fmt(pair.comp_us, 1),
                    TablePrinter::Fmt(pair.unfused_us, 1),
                    TablePrinter::Fmt(pair.fused_us, 1),
                    TablePrinter::Fmt(pair.unfused_us / pair.fused_us, 2) + "x"});
    }
  }
  table.Print("Per-pair overlapped vs non-overlapped time:");

  TablePrinter layer_table({"Model", "Layer w/ intra-overlap (us)",
                            "Layer w/o intra-overlap (us)", "Iteration reduction (%)"});
  for (const ModelConfig& model : EvaluationModels()) {
    ExecutionOptions with = ExecutionOptions::MegaScale(model, 8);
    ExecutionOptions without = with;
    without.intra_op_overlap = false;
    const LayerTimes fast = SimulateLayer(cost, model, with, 1, model.seq_len, 8);
    const LayerTimes slow = SimulateLayer(cost, model, without, 1, model.seq_len, 8);
    layer_table.AddRow({model.name, TablePrinter::Fmt(fast.total_us(), 0),
                        TablePrinter::Fmt(slow.total_us(), 0),
                        TablePrinter::Fmt((1.0 - fast.total_us() / slow.total_us()) * 100.0,
                                          1)});
  }
  layer_table.Print("Per-layer effect of intra-operator overlap:");

  const MeasuredReport measured = RunMeasured();
  PrintMeasured(measured);
  WriteMeasuredJson(measured);
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
