// Tests for the blocked GEMM compute backend (src/tensor/gemm_kernel.h) and
// the intra-rank worker pool (src/base/parallel_for.h):
//   - exhaustive oracle: every transpose combo x odd/edge sizes x alpha/beta,
//     checked against a double-precision reference and the retained naive
//     kernel
//   - NaN/Inf propagation (the old kernel's `a == 0` skip dropped 0 * Inf)
//   - bitwise determinism across worker counts (the contract fused_ops and
//     fault replay rely on)
//   - ParallelFor edge cases: empty ranges, nesting, exception propagation,
//     concurrent callers
//   - per-rank workers: each RunOnRanks rank thread runs its shards on its
//     own workers, and an unset cap is divided across the ranks
//   - KernelStats counters
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/comm/collective_group.h"
#include "src/model/grouped_gemm.h"
#include "src/tensor/gemm_kernel.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// Double-precision reference: op(A) [m x k] times op(B) [k x n] with
// alpha/beta, matching BLAS semantics (alpha == 0 skips A/B, beta == 0
// overwrites C).
void GemmReference(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                   float alpha, const std::vector<float>& a, const std::vector<float>& b,
                   float beta, std::vector<float>* c) {
  const int64_t a_rs = trans_a ? 1 : k;
  const int64_t a_cs = trans_a ? m : 1;
  const int64_t b_rs = trans_b ? 1 : n;
  const int64_t b_cs = trans_b ? k : 1;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double sum = 0.0;
      if (alpha != 0.0f) {
        for (int64_t p = 0; p < k; ++p) {
          sum += static_cast<double>(a[static_cast<size_t>(i * a_rs + p * a_cs)]) *
                 static_cast<double>(b[static_cast<size_t>(p * b_rs + j * b_cs)]);
        }
      }
      float& target = (*c)[static_cast<size_t>(i * n + j)];
      const double prior = beta == 0.0f ? 0.0 : static_cast<double>(beta) * target;
      target = static_cast<float>(prior + static_cast<double>(alpha) * sum);
    }
  }
}

std::vector<float> RandomVector(int64_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(static_cast<size_t>(size));
  for (auto& value : values) {
    value = static_cast<float>(rng.NextGaussian());
  }
  return values;
}

TEST(GemmKernelTest, ExhaustiveOracleAllTransposeCombos) {
  const std::vector<int64_t> sizes = {1, 3, 7, 17, 64, 65};
  const std::vector<float> scalars = {0.0f, 1.0f, 0.5f};
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      for (int64_t m : sizes) {
        for (int64_t n : sizes) {
          for (int64_t k : sizes) {
            for (float alpha : scalars) {
              for (float beta : scalars) {
                const std::vector<float> a = RandomVector(m * k, 1);
                const std::vector<float> b = RandomVector(k * n, 2);
                const std::vector<float> c0 = RandomVector(m * n, 3);

                std::vector<float> expected = c0;
                GemmReference(trans_a, trans_b, m, n, k, alpha, a, b, beta, &expected);
                std::vector<float> blocked = c0;
                GemmBlocked(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta,
                            blocked.data());
                std::vector<float> naive = c0;
                GemmNaive(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta,
                          naive.data());

                const double tol =
                    1e-4 * std::max<double>(1.0, std::sqrt(static_cast<double>(k)));
                for (size_t i = 0; i < expected.size(); ++i) {
                  ASSERT_NEAR(blocked[i], expected[i],
                              tol * std::max<double>(1.0, std::fabs(expected[i])))
                      << "blocked ta=" << trans_a << " tb=" << trans_b << " m=" << m
                      << " n=" << n << " k=" << k << " alpha=" << alpha
                      << " beta=" << beta << " i=" << i;
                  ASSERT_NEAR(naive[i], expected[i],
                              tol * std::max<double>(1.0, std::fabs(expected[i])))
                      << "naive ta=" << trans_a << " tb=" << trans_b << " m=" << m
                      << " n=" << n << " k=" << k << " alpha=" << alpha
                      << " beta=" << beta << " i=" << i;
                }
              }
            }
          }
        }
      }
    }
  }
}

// 0 * Inf must produce NaN in the output: a zero in A may not short-circuit
// the k loop. The seed kernel skipped `a_ip == 0.0f` rows, silently dropping
// non-finite values in B.
TEST(GemmKernelTest, ZeroTimesInfPropagatesNan) {
  const int64_t m = 3, n = 4, k = 5;
  std::vector<float> a(static_cast<size_t>(m * k), 0.0f);  // all-zero A
  std::vector<float> b(static_cast<size_t>(k * n), 1.0f);
  b[7] = std::numeric_limits<float>::infinity();
  const int64_t inf_col = 7 % n;

  for (auto* gemm : {&GemmBlocked, &GemmNaive}) {
    std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
    (*gemm)(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        const float value = c[static_cast<size_t>(i * n + j)];
        if (j == inf_col) {
          EXPECT_TRUE(std::isnan(value)) << "i=" << i << " j=" << j;
        } else {
          EXPECT_EQ(value, 0.0f) << "i=" << i << " j=" << j;
        }
      }
    }
  }
}

// BLAS corner cases: alpha == 0 must not read A/B (checked by handing
// NaN-poisoned inputs), beta == 0 must overwrite a NaN-poisoned C.
TEST(GemmKernelTest, AlphaZeroSkipsInputsBetaZeroOverwrites) {
  const int64_t m = 4, n = 4, k = 4;
  std::vector<float> poisoned(static_cast<size_t>(m * k),
                              std::numeric_limits<float>::quiet_NaN());
  for (auto* gemm : {&GemmBlocked, &GemmNaive}) {
    std::vector<float> c(static_cast<size_t>(m * n),
                         std::numeric_limits<float>::quiet_NaN());
    (*gemm)(false, false, m, n, k, 0.0f, poisoned.data(), poisoned.data(), 0.0f,
            c.data());
    for (float value : c) {
      EXPECT_EQ(value, 0.0f);
    }
  }
}

// The determinism contract: results are bitwise identical regardless of the
// worker count. fused_ops_test asserts row-tiled == monolithic GEMM results
// bitwise, and fault replay requires bit-identical recovered losses.
TEST(GemmKernelTest, BitwiseDeterministicAcrossWorkerCounts) {
  const int64_t m = 130, n = 96, k = 70;
  const std::vector<float> a = RandomVector(m * k, 11);
  const std::vector<float> b = RandomVector(k * n, 12);

  const int restore = SetParallelWorkerCount(1);
  std::vector<float> c1(static_cast<size_t>(m * n), 0.0f);
  GemmBlocked(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c1.data());

  SetParallelWorkerCount(4);
  std::vector<float> c4(static_cast<size_t>(m * n), 0.0f);
  GemmBlocked(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c4.data());
  SetParallelWorkerCount(restore);

  EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)), 0);
}

TEST(GemmKernelTest, GroupedGemmDeterministicAcrossWorkerCounts) {
  const int64_t experts = 5, rows = 64, h = 24, f = 40;
  Rng rng(21);
  Tensor x = Tensor::Randn({rows, h}, rng);
  std::vector<Tensor> weights;
  std::vector<int64_t> offsets = {0};
  for (int64_t e = 0; e < experts; ++e) {
    weights.push_back(Tensor::Randn({h, f}, rng));
    offsets.push_back(rows * (e + 1) / experts);
  }

  const int restore = SetParallelWorkerCount(1);
  Tensor y1 = GroupedGemm(x, offsets, weights);
  SetParallelWorkerCount(4);
  Tensor y4 = GroupedGemm(x, offsets, weights);
  SetParallelWorkerCount(restore);

  ASSERT_EQ(y1.numel(), y4.numel());
  EXPECT_EQ(std::memcmp(y1.data(), y4.data(),
                        static_cast<size_t>(y1.numel()) * sizeof(float)),
            0);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  const int restore = SetParallelWorkerCount(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& hit : hits) {
    hit.store(0);
  }
  ParallelFor(257, /*grain=*/8, [&](int64_t begin, int64_t end) {
    ASSERT_LE(begin, end);
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  SetParallelWorkerCount(restore);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroAndNegativeLengthAreNoops) {
  int calls = 0;
  ParallelFor(0, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(-5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// Nested ParallelFor must degrade to inline execution in the worker (no
// deadlock, full coverage).
TEST(ParallelForTest, NestedCallsRunInline) {
  const int restore = SetParallelWorkerCount(4);
  std::atomic<int64_t> total{0};
  ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    EXPECT_TRUE(InParallelWorker());
    for (int64_t i = begin; i < end; ++i) {
      ParallelFor(16, 1, [&](int64_t inner_begin, int64_t inner_end) {
        total.fetch_add(inner_end - inner_begin);
      });
    }
  });
  EXPECT_FALSE(InParallelWorker());
  SetParallelWorkerCount(restore);
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelForTest, PropagatesWorkerException) {
  const int restore = SetParallelWorkerCount(4);
  EXPECT_THROW(
      ParallelFor(64, 1,
                  [&](int64_t begin, int64_t) {
                    if (begin >= 32) {
                      throw std::runtime_error("worker boom");
                    }
                  }),
      std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<int64_t> total{0};
  ParallelFor(64, 1, [&](int64_t begin, int64_t end) { total.fetch_add(end - begin); });
  SetParallelWorkerCount(restore);
  EXPECT_EQ(total.load(), 64);
}

// Multiple external threads may call ParallelFor at once (rank threads do
// exactly this); each call must see its own complete range.
TEST(ParallelForTest, ConcurrentCallersEachCoverTheirRange) {
  const int restore = SetParallelWorkerCount(4);
  constexpr int kCallers = 4;
  std::vector<std::thread> threads;
  std::vector<int64_t> totals(kCallers, 0);
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      std::atomic<int64_t> local{0};
      for (int iter = 0; iter < 20; ++iter) {
        ParallelFor(100, 4, [&](int64_t begin, int64_t end) {
          local.fetch_add(end - begin);
        });
      }
      totals[static_cast<size_t>(t)] = local.load();
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  SetParallelWorkerCount(restore);
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(totals[static_cast<size_t>(t)], 20 * 100) << "caller " << t;
  }
}

// Every rank thread runs its shards on its own workers: at cap 2 each rank's
// two-shard calls run on exactly two threads (itself and its one worker),
// and no thread runs shards for both ranks.
TEST(ParallelForTest, RankThreadsRunShardsOnTheirOwnWorkers) {
  const int restore = SetParallelWorkerCount(2);
  constexpr int kRanks = 2;
  std::vector<std::set<std::thread::id>> ran_on(kRanks);
  RunOnRanks(kRanks, [&](int rank) {
    std::set<std::thread::id>& ids = ran_on[static_cast<size_t>(rank)];
    std::mutex mu;
    for (int iter = 0; iter < 50; ++iter) {
      ParallelFor(2, 1, [&](int64_t, int64_t) {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      });
    }
  });
  SetParallelWorkerCount(restore);
  for (int rank = 0; rank < kRanks; ++rank) {
    EXPECT_EQ(ran_on[static_cast<size_t>(rank)].size(), 2u) << "rank " << rank;
  }
  std::vector<std::thread::id> shared;
  std::set_intersection(ran_on[0].begin(), ran_on[0].end(), ran_on[1].begin(),
                        ran_on[1].end(), std::back_inserter(shared));
  EXPECT_TRUE(shared.empty()) << shared.size() << " thread(s) ran shards for both ranks";
}

// With no cap set, a rank thread of an R-rank run gets max(1, budget / R)
// workers, where the budget is hardware_concurrency clamped to 16, and
// restoring the override that SetParallelWorkerCount returns unsets it
// again. It runs in a re-executed child process ("threadsafe" style: a fork
// would not carry this thread's pool workers), so no earlier test has set
// the cap.
TEST(ParallelForDeathTest, UnsetCapIsDividedAcrossRanks) {
  const std::string style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        unsetenv("MSMOE_NUM_THREADS");
        const unsigned hc = std::thread::hardware_concurrency();
        const int budget = hc == 0 ? 1 : static_cast<int>(std::min(hc, 16u));
        const int unset = SetParallelWorkerCount(budget + 1);
        bool ok = unset == 0 && SetParallelWorkerCount(unset) == budget + 1;
        ok = ok && ParallelWorkerCount() == budget;
        for (int ranks : {1, 2, 3, 32}) {
          std::vector<int> seen(static_cast<size_t>(ranks), 0);
          RunOnRanks(ranks, [&](int rank) {
            seen[static_cast<size_t>(rank)] = ParallelWorkerCount();
          });
          for (int count : seen) {
            if (count != std::max(1, budget / ranks)) {
              std::fprintf(stderr, "%d ranks: a rank saw cap %d, budget %d\n", ranks, count,
                           budget);
              ok = false;
            }
          }
        }
        ok = ok && ParallelWorkerCount() == budget;  // the caller keeps the whole budget
        std::exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(KernelStatsTest, CountsGemmAndGroupedGemm) {
  ResetKernelStats();
  const int64_t m = 32, n = 16, k = 8;
  const std::vector<float> a = RandomVector(m * k, 31);
  const std::vector<float> b = RandomVector(k * n, 32);
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());

  KernelStatsSnapshot after_gemm = GetKernelStats();
  EXPECT_EQ(after_gemm.gemm_calls, 1u);
  EXPECT_DOUBLE_EQ(after_gemm.gemm_flops, 2.0 * m * n * k);
  EXPECT_GE(after_gemm.gemm_micros, 0.0);
  EXPECT_EQ(after_gemm.grouped_gemm_calls, 0u);

  Rng rng(33);
  Tensor x = Tensor::Randn({10, 6}, rng);
  std::vector<Tensor> weights = {Tensor::Randn({6, 4}, rng), Tensor::Randn({6, 4}, rng)};
  std::vector<int64_t> offsets = {0, 5, 10};
  Tensor y = GroupedGemm(x, offsets, weights);

  KernelStatsSnapshot after_grouped = GetKernelStats();
  EXPECT_EQ(after_grouped.gemm_calls, 1u);  // grouped path bypasses the Gemm counter
  EXPECT_EQ(after_grouped.grouped_gemm_calls, 1u);
  EXPECT_DOUBLE_EQ(after_grouped.grouped_gemm_flops, 2.0 * 10 * 4 * 6);

  ResetKernelStats();
  KernelStatsSnapshot reset = GetKernelStats();
  EXPECT_EQ(reset.gemm_calls, 0u);
  EXPECT_EQ(reset.grouped_gemm_calls, 0u);
  EXPECT_EQ(reset.gemm_flops, 0.0);
}

}  // namespace
}  // namespace msmoe
