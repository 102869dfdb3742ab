// Microbenchmarks of the real (CPU) kernels underpinning the numeric
// substrate: GEMM (naive reference vs the blocked/SIMD production kernel,
// single- and multi-worker), grouped GEMM, attention core, router,
// quantization, the trainer's amax-scaled FP8 cast, and thread-rank
// collectives. These measure actual wall time (unlike the figure benches,
// which report simulated cluster time) using the warmup + median-of-N helper
// so numbers are stable run-to-run.
//
// Besides the human-readable table, writes BENCH_kernels.json (one record
// per kernel case, naive vs blocked GFLOP/s) — the wall-clock baseline for
// future perf PRs — and dumps the KernelStats counters.
//
// With --check, runs only the 512x512x512 GEMM comparison and exits
// non-zero if the blocked kernel is slower than the naive reference — the
// Release-mode perf smoke stage of tools/check.sh.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/comm/collective_group.h"
#include "src/comm/communicator.h"
#include "src/model/attention.h"
#include "src/model/grouped_gemm.h"
#include "src/model/router.h"
#include "src/numerics/fp8.h"
#include "src/numerics/quantize.h"
#include "src/tensor/gemm_kernel.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

constexpr int kWarmup = 1;
constexpr int kReps = 5;

struct GemmCase {
  std::string op;
  int64_t m, n, k;
  double naive_gflops = 0.0;
  double blocked_1w_gflops = 0.0;
  double blocked_4w_gflops = 0.0;
  TimingStats blocked_1w_stats;  // spread behind the headline blocked(1w) number
};

double Gflops(int64_t m, int64_t n, int64_t k, double seconds) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) / seconds * 1e-9;
}

GemmCase RunGemmCase(const std::string& op, bool trans_a, bool trans_b, int64_t m,
                     int64_t n, int64_t k) {
  Rng rng(1);
  const int64_t a_elems = m * k;
  const int64_t b_elems = k * n;
  Tensor a = Tensor::Randn({a_elems}, rng);
  Tensor b = Tensor::Randn({b_elems}, rng);
  Tensor c({m * n});

  GemmCase result{op, m, n, k, 0.0, 0.0, 0.0, {}};
  result.naive_gflops = Gflops(m, n, k, TimedStatsOfN(kWarmup, kReps, [&] {
    GemmNaive(trans_a, trans_b, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  }).median_s);
  const int restore_workers = SetParallelWorkerCount(1);
  result.blocked_1w_stats = TimedStatsOfN(kWarmup, kReps, [&] {
    GemmBlocked(trans_a, trans_b, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  });
  result.blocked_1w_gflops = Gflops(m, n, k, result.blocked_1w_stats.median_s);
  SetParallelWorkerCount(4);
  result.blocked_4w_gflops = Gflops(m, n, k, TimedStatsOfN(kWarmup, kReps, [&] {
    GemmBlocked(trans_a, trans_b, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  }).median_s);
  SetParallelWorkerCount(restore_workers);
  std::printf("%-28s %5lld %5lld %5lld %10.2f %12.2f %12.2f %7.2fx %7.2fx\n",
              op.c_str(), static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(k), result.naive_gflops, result.blocked_1w_gflops,
              result.blocked_4w_gflops, result.blocked_1w_gflops / result.naive_gflops,
              result.blocked_4w_gflops / result.naive_gflops);
  return result;
}

struct TimedCase {
  std::string op;
  double median_us = 0.0;
  TimingStats stats;  // p10/p90 spread + rep count behind median_us
};

TimedCase RunGroupedGemmCase(std::vector<GemmCase>* gemm_rows) {
  // MoE-shaped grouped GEMM: 8 experts over 1024 dispatched rows.
  const int64_t experts = 8;
  const int64_t rows = 1024;
  const int64_t h = 256;
  const int64_t f = 512;
  Rng rng(2);
  Tensor x = Tensor::Randn({rows, h}, rng);
  std::vector<Tensor> weights;
  std::vector<int64_t> offsets = {0};
  for (int64_t e = 0; e < experts; ++e) {
    weights.push_back(Tensor::Randn({h, f}, rng));
    offsets.push_back(rows * (e + 1) / experts);
  }
  Tensor y_naive({rows, f});
  const double naive_s = TimedStatsOfN(kWarmup, kReps, [&] {
    for (int64_t e = 0; e < experts; ++e) {
      const int64_t begin = offsets[static_cast<size_t>(e)];
      const int64_t r = offsets[static_cast<size_t>(e) + 1] - begin;
      GemmNaive(false, false, r, f, h, 1.0f, x.data() + begin * h,
                weights[static_cast<size_t>(e)].data(), 0.0f,
                y_naive.data() + begin * f);
    }
  }).median_s;
  const TimingStats blocked_stats = TimedStatsOfN(kWarmup, kReps, [&] {
    Tensor y = GroupedGemm(x, offsets, weights);
  });
  const double blocked_s = blocked_stats.median_s;
  GemmCase row{"grouped_gemm_e8", rows, f, h, 0.0, 0.0, 0.0, blocked_stats};
  row.naive_gflops = Gflops(rows, f, h, naive_s);
  row.blocked_1w_gflops = Gflops(rows, f, h, blocked_s);
  row.blocked_4w_gflops = row.blocked_1w_gflops;
  std::printf("%-28s %5lld %5lld %5lld %10.2f %12.2f %12s %7.2fx\n", "grouped_gemm_e8",
              static_cast<long long>(rows), static_cast<long long>(f),
              static_cast<long long>(h), row.naive_gflops, row.blocked_1w_gflops, "-",
              row.blocked_1w_gflops / row.naive_gflops);
  gemm_rows->push_back(row);
  return TimedCase{"grouped_gemm_e8", blocked_s * 1e6, blocked_stats};
}

TimedCase RunAttentionCase() {
  const int64_t seq = 128;
  Rng rng(3);
  Tensor q = Tensor::Randn({seq, 4, 16}, rng);
  Tensor k = Tensor::Randn({seq, 2, 16}, rng);
  Tensor v = Tensor::Randn({seq, 2, 16}, rng);
  const TimingStats stats = TimedStatsOfN(kWarmup, kReps, [&] {
    AttentionCoreCache cache;
    Tensor out = AttentionCore(q, k, v, 2, &cache);
  });
  return TimedCase{"attention_core_s128", stats.median_s * 1e6, stats};
}

TimedCase RunRouterCase() {
  Rng rng(4);
  Tensor logits = Tensor::Randn({256, 64}, rng);
  RouterConfig config;
  config.num_experts = 64;
  config.top_k = 2;
  config.aux_loss_coeff = 0.01;
  const TimingStats stats = TimedStatsOfN(kWarmup, kReps, [&] {
    RoutingResult routing = RouteTokens(logits, config);
  });
  return TimedCase{"route_tokens_e64", stats.median_s * 1e6, stats};
}

TimedCase RunQuantizeCase() {
  Rng rng(5);
  const int64_t rows = 128;
  const int64_t cols = 256;
  std::vector<float> data(static_cast<size_t>(rows * cols));
  for (auto& value : data) {
    value = static_cast<float>(rng.NextGaussian());
  }
  QuantConfig config;
  config.granularity = QuantGranularity::kPerToken;
  const TimingStats stats = TimedStatsOfN(kWarmup, kReps, [&] {
    QuantizedMatrix quantized = Quantize(data.data(), rows, cols, config);
  });
  return TimedCase{"quantize_fp8_per_token", stats.median_s * 1e6, stats};
}

// Throughput of Fp8RoundScaledInPlace, the trainer's FP8 parameter cast, on
// one buffer the size of the e2ebench model's parameters. Reps re-round the
// same buffer: after the warm-up it sits on the FP8 grid, which runs the
// same per-element code as a fresh tensor.
struct Fp8CastCase {
  int workers = 0;
  double ns_per_element = 0.0;
  TimingStats stats;
};

constexpr int64_t kFp8CastElements = 6'700'000;

Fp8CastCase RunFp8CastCase(int workers) {
  Rng rng(6);
  std::vector<float> data(static_cast<size_t>(kFp8CastElements));
  for (auto& value : data) {
    value = static_cast<float>(rng.NextGaussian(0.0, 0.02));
  }
  const int restore_workers = SetParallelWorkerCount(workers);
  const TimingStats stats = TimedStatsOfN(kWarmup, kReps, [&] {
    Fp8RoundScaledInPlace(data.data(), kFp8CastElements);
  });
  SetParallelWorkerCount(restore_workers);
  return Fp8CastCase{workers, stats.median_s * 1e9 / static_cast<double>(kFp8CastElements),
                     stats};
}

TimedCase RunAllToAllCase() {
  const int n = 4;
  const int64_t count = 16384;
  const TimingStats stats = TimedStatsOfN(kWarmup, kReps, [&] {
    FlatCommunicator group(n);
    RunOnRanks(n, [&](int rank) {
      std::vector<float> send(static_cast<size_t>(n) * count, 1.0f);
      std::vector<float> recv(static_cast<size_t>(n) * count);
      const Status status = group.AllToAll(rank, send.data(), recv.data(), count);
      MSMOE_CHECK(status.ok()) << status.ToString();
    });
  });
  return TimedCase{"all_to_all_4r_16k", stats.median_s * 1e6, stats};
}

int CheckMode() {
  const GemmCase big = RunGemmCase("gemm_nn", false, false, 512, 512, 512);
  if (big.blocked_1w_gflops < big.naive_gflops) {
    std::printf("\nPERF SMOKE FAILED: blocked kernel (%.2f GFLOP/s) slower than naive "
                "(%.2f GFLOP/s) on 512x512x512\n",
                big.blocked_1w_gflops, big.naive_gflops);
    return 1;
  }
  std::printf("\nperf smoke ok: blocked %.2f GFLOP/s >= naive %.2f GFLOP/s (%.2fx)\n",
              big.blocked_1w_gflops, big.naive_gflops,
              big.blocked_1w_gflops / big.naive_gflops);
  return 0;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      return CheckMode();
    }
  }
  PrintHeader("BENCH kernels",
              "CPU compute-backend microbenchmarks: naive reference vs blocked/SIMD "
              "GEMM kernel (GFLOP/s, median of " +
                  std::to_string(kReps) + " after " + std::to_string(kWarmup) +
                  " warmup)");
  std::printf("avx2/fma microkernel: %s, default workers: %d\n\n",
              GemmKernelUsesAvx2() ? "yes" : "no (portable path)",
              ParallelWorkerCount());
  std::printf("%-28s %5s %5s %5s %10s %12s %12s %7s %7s\n", "op", "m", "n", "k",
              "naive", "blocked(1w)", "blocked(4w)", "sp(1w)", "sp(4w)");

  ResetKernelStats();
  std::vector<GemmCase> gemm_rows;
  gemm_rows.push_back(RunGemmCase("gemm_nn", false, false, 128, 128, 128));
  gemm_rows.push_back(RunGemmCase("gemm_nn", false, false, 256, 256, 256));
  gemm_rows.push_back(RunGemmCase("gemm_nn", false, false, 512, 512, 512));
  gemm_rows.push_back(RunGemmCase("gemm_nt", false, true, 256, 256, 256));
  gemm_rows.push_back(RunGemmCase("gemm_tn", true, false, 256, 256, 256));
  gemm_rows.push_back(RunGemmCase("gemm_tt", true, true, 256, 256, 256));
  gemm_rows.push_back(RunGemmCase("gemm_nn_odd", false, false, 65, 193, 77));

  std::vector<TimedCase> timed_rows;
  timed_rows.push_back(RunGroupedGemmCase(&gemm_rows));
  timed_rows.push_back(RunAttentionCase());
  timed_rows.push_back(RunRouterCase());
  timed_rows.push_back(RunQuantizeCase());
  timed_rows.push_back(RunAllToAllCase());
  std::printf("\n%-28s %12s\n", "op", "median_us");
  for (size_t i = 1; i < timed_rows.size(); ++i) {
    std::printf("%-28s %12.1f\n", timed_rows[i].op.c_str(), timed_rows[i].median_us);
  }

  const std::vector<Fp8CastCase> fp8_rows = {RunFp8CastCase(1), RunFp8CastCase(2)};
  std::printf("\n%-28s %8s %12s\n", "fp8 scaled cast", "workers", "ns/element");
  for (const Fp8CastCase& row : fp8_rows) {
    std::printf("%-28s %8d %12.3f\n", "fp8_round_scaled_6.7M", row.workers,
                row.ns_per_element);
  }

  const KernelStatsSnapshot stats = GetKernelStats();
  std::printf("\nKernelStats (this process): gemm calls=%llu flops=%.3e time=%.1f ms | "
              "grouped calls=%llu flops=%.3e time=%.1f ms\n",
              static_cast<unsigned long long>(stats.gemm_calls), stats.gemm_flops,
              stats.gemm_micros / 1e3,
              static_cast<unsigned long long>(stats.grouped_gemm_calls),
              stats.grouped_gemm_flops, stats.grouped_gemm_micros / 1e3);

  const char* json_path = "BENCH_kernels.json";
  if (std::FILE* json = std::fopen(json_path, "wb")) {
    std::fprintf(json,
                 "{\"bench\": \"kernels\", \"avx2\": %s, \"warmup\": %d, \"reps\": %d, "
                 "\"gemm\": [",
                 GemmKernelUsesAvx2() ? "true" : "false", kWarmup, kReps);
    for (size_t i = 0; i < gemm_rows.size(); ++i) {
      const GemmCase& row = gemm_rows[i];
      std::string spread;
      AppendTimingSpreadJson(&spread, "blocked_1w", row.blocked_1w_stats);
      std::fprintf(json,
                   "%s\n  {\"op\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
                   "\"naive_gflops\": %.3f, \"blocked_1w_gflops\": %.3f, "
                   "\"blocked_4w_gflops\": %.3f, \"speedup_1w\": %.3f, "
                   "\"speedup_4w\": %.3f, %s}",
                   i == 0 ? "" : ",", row.op.c_str(), static_cast<long long>(row.m),
                   static_cast<long long>(row.n), static_cast<long long>(row.k),
                   row.naive_gflops, row.blocked_1w_gflops, row.blocked_4w_gflops,
                   row.blocked_1w_gflops / row.naive_gflops,
                   row.blocked_4w_gflops / row.naive_gflops, spread.c_str());
    }
    std::fprintf(json, "\n], \"timed_us\": [");
    for (size_t i = 0; i < timed_rows.size(); ++i) {
      std::string spread;
      AppendTimingSpreadJson(&spread, "wall", timed_rows[i].stats);
      std::fprintf(json, "%s\n  {\"op\": \"%s\", \"median_us\": %.1f, %s}",
                   i == 0 ? "" : ",", timed_rows[i].op.c_str(),
                   timed_rows[i].median_us, spread.c_str());
    }
    std::fprintf(json, "\n], \"fp8_cast\": [");
    for (size_t i = 0; i < fp8_rows.size(); ++i) {
      std::string spread;
      AppendTimingSpreadJson(&spread, "wall", fp8_rows[i].stats);
      std::fprintf(json,
                   "%s\n  {\"op\": \"fp8_round_scaled\", \"elements\": %lld, "
                   "\"workers\": %d, \"ns_per_element\": %.4f, %s}",
                   i == 0 ? "" : ",", static_cast<long long>(kFp8CastElements),
                   fp8_rows[i].workers, fp8_rows[i].ns_per_element, spread.c_str());
    }
    std::fprintf(json,
                 "\n], \"kernel_stats\": {\"gemm_calls\": %llu, \"gemm_flops\": %.3e, "
                 "\"gemm_micros\": %.1f, \"grouped_gemm_calls\": %llu, "
                 "\"grouped_gemm_flops\": %.3e, \"grouped_gemm_micros\": %.1f}}\n",
                 static_cast<unsigned long long>(stats.gemm_calls), stats.gemm_flops,
                 stats.gemm_micros,
                 static_cast<unsigned long long>(stats.grouped_gemm_calls),
                 stats.grouped_gemm_flops, stats.grouped_gemm_micros);
    std::fclose(json);
    std::printf("machine-readable output: %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace msmoe

int main(int argc, char** argv) { return msmoe::Main(argc, argv); }
