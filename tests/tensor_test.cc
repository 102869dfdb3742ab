#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace msmoe {
namespace {

// Finite-difference gradient check helper: perturbs x[i] and compares the
// numeric derivative of `loss` against analytic_grad[i].
template <typename LossFn>
void CheckGradient(Tensor& x, const Tensor& analytic_grad, LossFn loss, double tol = 2e-2) {
  const float eps = 1e-3f;
  for (int64_t i = 0; i < x.numel(); i += std::max<int64_t>(1, x.numel() / 17)) {
    const float original = x[i];
    x[i] = original + eps;
    const double up = loss();
    x[i] = original - eps;
    const double down = loss();
    x[i] = original;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic_grad[i], numeric,
                tol * std::max(1.0, std::fabs(numeric)))
        << "index " << i;
  }
}

TEST(TensorTest, ZerosAndShape) {
  Tensor t = Tensor::Zeros({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.dim(2), 4);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t[i], 0.0f);
  }
}

TEST(TensorTest, FromVectorAndAt) {
  Tensor t = Tensor::FromVector({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_EQ(t.At(1, 1), 4.0f);
}

TEST(TensorTest, RandnDeterministic) {
  Rng rng1(42);
  Rng rng2(42);
  Tensor a = Tensor::Randn({8, 8}, rng1);
  Tensor b = Tensor::Randn({8, 8}, rng2);
  EXPECT_EQ(a.RelativeL2Diff(b), 0.0);
}

TEST(TensorTest, ReshapedPreservesData) {
  Tensor t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.At(0, 1), 2.0f);
  EXPECT_EQ(r.At(2, 1), 6.0f);
}

TEST(TensorTest, SliceRows) {
  Tensor t = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = t.SliceRows(1, 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.At(0, 0), 3.0f);
  EXPECT_EQ(s.At(1, 1), 6.0f);
}

TEST(TensorTest, InPlaceArithmetic) {
  Tensor a = Tensor::FromVector({2}, {1.0f, 2.0f});
  Tensor b = Tensor::FromVector({2}, {10.0f, 20.0f});
  a.AddInPlace(b);
  EXPECT_EQ(a[0], 11.0f);
  a.ScaleInPlace(0.5f);
  EXPECT_EQ(a[1], 11.0f);
  a.AxpyInPlace(2.0f, b);
  EXPECT_EQ(a[0], 25.5f);
}

TEST(GemmTest, MatMulSmallKnown) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.At(0, 0), 58.0f);
  EXPECT_EQ(c.At(0, 1), 64.0f);
  EXPECT_EQ(c.At(1, 0), 139.0f);
  EXPECT_EQ(c.At(1, 1), 154.0f);
}

TEST(GemmTest, TransposeVariantsAgree) {
  Rng rng(1);
  Tensor a = Tensor::Randn({4, 6}, rng);
  Tensor b = Tensor::Randn({6, 5}, rng);
  Tensor c = MatMul(a, b);

  // b_t[n, k]: MatMulNT(a, b_t) must equal c.
  Tensor b_t({5, 6});
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      b_t.At(j, i) = b.At(i, j);
    }
  }
  EXPECT_LT(MatMulNT(a, b_t).RelativeL2Diff(c), 1e-6);

  // a_t[k, m]: MatMulTN(a_t, b) must equal c.
  Tensor a_t({6, 4});
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      a_t.At(j, i) = a.At(i, j);
    }
  }
  EXPECT_LT(MatMulTN(a_t, b).RelativeL2Diff(c), 1e-6);
}

TEST(GemmTest, BetaAccumulates) {
  Tensor a = Tensor::FromVector({1, 1}, {2.0f});
  Tensor b = Tensor::FromVector({1, 1}, {3.0f});
  Tensor c = Tensor::FromVector({1, 1}, {10.0f});
  Gemm(false, false, 1, 1, 1, 1.0f, a.data(), b.data(), 1.0f, c.data());
  EXPECT_EQ(c[0], 16.0f);
}

TEST(GemmTest, MatMulGradientsFiniteDifference) {
  Rng rng(2);
  Tensor a = Tensor::Randn({3, 4}, rng);
  Tensor b = Tensor::Randn({4, 2}, rng);
  Tensor dc = Tensor::Full({3, 2}, 1.0f);
  MatMulGrads grads = MatMulBackward(dc, a, b);
  auto loss = [&] {
    Tensor c = MatMul(a, b);
    double total = 0.0;
    for (int64_t i = 0; i < c.numel(); ++i) {
      total += c[i];
    }
    return total;
  };
  CheckGradient(a, grads.da, loss);
  CheckGradient(b, grads.db, loss);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(3);
  Tensor x = Tensor::Randn({5, 7}, rng);
  Tensor y = Softmax(x);
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (int64_t c = 0; c < 7; ++c) {
      EXPECT_GT(y.At(r, c), 0.0f);
      sum += y.At(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(SoftmaxTest, StableForLargeLogits) {
  Tensor x = Tensor::FromVector({1, 3}, {1000.0f, 1001.0f, 999.0f});
  Tensor y = Softmax(x);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_GT(y.At(0, 1), y.At(0, 0));
}

TEST(SoftmaxTest, BackwardFiniteDifference) {
  Rng rng(4);
  Tensor x = Tensor::Randn({2, 5}, rng);
  Tensor dy = Tensor::Randn({2, 5}, rng);
  Tensor y = Softmax(x);
  Tensor dx = SoftmaxBackward(dy, y);
  auto loss = [&] {
    Tensor out = Softmax(x);
    double total = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i) {
      total += out[i] * dy[i];
    }
    return total;
  };
  CheckGradient(x, dx, loss);
}

TEST(RmsNormTest, UnitGainNormalizes) {
  Rng rng(5);
  Tensor x = Tensor::Randn({4, 32}, rng, 0.0f, 3.0f);
  Tensor gain = Tensor::Full({32}, 1.0f);
  Tensor inv_rms;
  Tensor y = RmsNorm(x, gain, &inv_rms);
  for (int64_t r = 0; r < 4; ++r) {
    double sum_sq = 0.0;
    for (int64_t c = 0; c < 32; ++c) {
      sum_sq += static_cast<double>(y.At(r, c)) * y.At(r, c);
    }
    EXPECT_NEAR(sum_sq / 32.0, 1.0, 1e-3);
  }
}

TEST(RmsNormTest, BackwardFiniteDifference) {
  Rng rng(6);
  Tensor x = Tensor::Randn({3, 8}, rng);
  Tensor gain = Tensor::Uniform({8}, rng, 0.5f, 1.5f);
  Tensor dy = Tensor::Randn({3, 8}, rng);
  Tensor inv_rms;
  Tensor y = RmsNorm(x, gain, &inv_rms);
  RmsNormGrads grads = RmsNormBackward(dy, x, gain, inv_rms);
  auto loss = [&] {
    Tensor out = RmsNorm(x, gain, nullptr);
    double total = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i) {
      total += out[i] * dy[i];
    }
    return total;
  };
  CheckGradient(x, grads.dx, loss);
  CheckGradient(gain, grads.dgain, loss);
}

TEST(SwiGluTest, MatchesDefinition) {
  Tensor gate = Tensor::FromVector({1, 2}, {1.0f, -2.0f});
  Tensor lin = Tensor::FromVector({1, 2}, {3.0f, 4.0f});
  Tensor y = SwiGlu(gate, lin);
  auto silu = [](float v) { return v / (1.0f + std::exp(-v)); };
  EXPECT_NEAR(y[0], silu(1.0f) * 3.0f, 1e-6);
  EXPECT_NEAR(y[1], silu(-2.0f) * 4.0f, 1e-6);
}

TEST(SwiGluTest, BackwardFiniteDifference) {
  Rng rng(7);
  Tensor gate = Tensor::Randn({2, 4}, rng);
  Tensor lin = Tensor::Randn({2, 4}, rng);
  Tensor dy = Tensor::Randn({2, 4}, rng);
  SwiGluGrads grads = SwiGluBackward(dy, gate, lin);
  auto loss = [&] {
    Tensor out = SwiGlu(gate, lin);
    double total = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i) {
      total += out[i] * dy[i];
    }
    return total;
  };
  CheckGradient(gate, grads.dgate, loss);
  CheckGradient(lin, grads.dlinear, loss);
}

TEST(RopeTest, PreservesNorm) {
  Rng rng(8);
  Tensor x = Tensor::Randn({4, 2, 8}, rng);
  const double norm_before = x.SumAbs();
  std::vector<int64_t> positions = {0, 1, 2, 3};
  Tensor rotated = x;
  RopeInPlace(rotated, positions, 2, 8);
  // Rotations preserve the L2 norm of each (pair) subspace.
  double sq_before = 0.0;
  double sq_after = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    sq_before += static_cast<double>(x[i]) * x[i];
    sq_after += static_cast<double>(rotated[i]) * rotated[i];
  }
  EXPECT_NEAR(sq_after, sq_before, 1e-3);
  (void)norm_before;
}

TEST(RopeTest, PositionZeroIsIdentity) {
  Rng rng(9);
  Tensor x = Tensor::Randn({1, 2, 8}, rng);
  Tensor rotated = x;
  RopeInPlace(rotated, {0}, 2, 8);
  EXPECT_LT(rotated.RelativeL2Diff(x), 1e-7);
}

TEST(RopeTest, BackwardInvertsForward) {
  Rng rng(10);
  Tensor x = Tensor::Randn({3, 2, 8}, rng);
  Tensor original = x;
  std::vector<int64_t> positions = {5, 9, 13};
  RopeInPlace(x, positions, 2, 8);
  RopeBackwardInPlace(x, positions, 2, 8);
  EXPECT_LT(x.RelativeL2Diff(original), 1e-5);
}

TEST(GatherScatterTest, GatherRows) {
  Tensor x = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(x, {2, 0, 0});
  EXPECT_EQ(g.dim(0), 3);
  EXPECT_EQ(g.At(0, 0), 5.0f);
  EXPECT_EQ(g.At(1, 0), 1.0f);
  EXPECT_EQ(g.At(2, 1), 2.0f);
}

TEST(GatherScatterTest, ScatterAddIsGatherTranspose) {
  // <Gather(x), y> == <x, ScatterAdd(y)> for any x, y: the adjoint property
  // that makes dispatch/combine gradients correct.
  Rng rng(11);
  Tensor x = Tensor::Randn({5, 3}, rng);
  std::vector<int64_t> map = {4, 1, 1, 0};
  Tensor y = Tensor::Randn({4, 3}, rng);
  Tensor gx = GatherRows(x, map);
  Tensor sy = ScatterAddRows(y, map, 5);
  double lhs = 0.0;
  double rhs = 0.0;
  for (int64_t i = 0; i < gx.numel(); ++i) {
    lhs += static_cast<double>(gx[i]) * y[i];
  }
  for (int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * sy[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-5);
}

TEST(CrossEntropyTest, UniformLogitsGiveLogVocab) {
  Tensor logits = Tensor::Zeros({4, 8});
  CrossEntropyResult result = CrossEntropy(logits, {0, 1, 2, 3});
  EXPECT_NEAR(result.mean_loss, std::log(8.0), 1e-6);
}

TEST(CrossEntropyTest, GradientFiniteDifference) {
  Rng rng(12);
  Tensor logits = Tensor::Randn({3, 5}, rng);
  std::vector<int64_t> targets = {1, 4, 0};
  CrossEntropyResult result = CrossEntropy(logits, targets);
  auto loss = [&] { return CrossEntropy(logits, targets).mean_loss; };
  CheckGradient(logits, result.dlogits, loss);
}

TEST(CrossEntropyTest, PerfectPredictionNearZeroLoss) {
  Tensor logits = Tensor::Zeros({2, 4});
  logits.At(0, 2) = 50.0f;
  logits.At(1, 0) = 50.0f;
  CrossEntropyResult result = CrossEntropy(logits, {2, 0});
  EXPECT_LT(result.mean_loss, 1e-6);
}

// ---------------------------------------------------------------------------
// Pooled storage (src/base/arena.h) behind Tensor.
// ---------------------------------------------------------------------------

TEST(ArenaTensorTest, UninitFullyWrittenIsWellDefined) {
  Tensor t = Tensor::Uninit({4, 8});
  EXPECT_EQ(t.numel(), 32);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(i);
  }
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t[i], static_cast<float>(i));
  }
}

TEST(ArenaTensorTest, ZerosIsZeroEvenOnRecycledBlocks) {
  // Dirty a block, return it to the pool, then demand zeros at the same
  // size class: the value constructor must clear recycled contents.
  { Tensor dirty = Tensor::Full({4, 8}, 9.0f); }
  Tensor clean = Tensor::Zeros({4, 8});
  for (int64_t i = 0; i < clean.numel(); ++i) {
    EXPECT_EQ(clean[i], 0.0f);
  }
}

TEST(ArenaTensorTest, PoolServesMatchingSizeClassAcrossShapes) {
  // LIFO reuse: a freed [4, 8] block backs the next same-class request, no
  // matter its shape ([8, 4], [32] — all 32 floats).
  const float* freed = nullptr;
  {
    Tensor a = Tensor::Uninit({4, 8});
    freed = a.data();
  }
  Tensor b = Tensor::Uninit({8, 4});
  EXPECT_EQ(b.data(), freed);
  const float* freed_b = b.data();
  b = Tensor();  // release
  Tensor c = Tensor::Uninit({32});
  EXPECT_EQ(c.data(), freed_b);
}

TEST(ArenaTensorTest, MoveStealsBlockCopyIsDeep) {
  Tensor a = Tensor::Full({16}, 3.0f);
  const float* block = a.data();
  Tensor moved = std::move(a);
  EXPECT_EQ(moved.data(), block);
  EXPECT_EQ(a.numel(), 0);
  EXPECT_EQ(a.data(), nullptr);

  Tensor copy = moved;
  EXPECT_NE(copy.data(), moved.data());
  copy[0] = -1.0f;
  EXPECT_EQ(moved[0], 3.0f);
}

TEST(ArenaTensorTest, CopyAssignReusesBufferOnMatchingNumel) {
  Tensor dst = Tensor::Zeros({4, 8});
  const float* block = dst.data();
  Tensor src = Tensor::Full({32}, 2.0f);
  dst = src;
  EXPECT_EQ(dst.data(), block);  // same numel: buffer kept, shape updated
  EXPECT_EQ(dst.ndim(), 1);
  EXPECT_EQ(dst[31], 2.0f);
}

TEST(ArenaStatsTest, SecondAcquireOfAClassIsAPoolHit) {
  ArenaTrim();
  ResetMemStats();
  void* p = ArenaAcquire(3 << 20);  // 3 MB -> 4 MB class, cold after the trim
  ArenaRelease(p, 3 << 20);
  void* q = ArenaAcquire(3 << 20);
  const MemStatsSnapshot stats = GetMemStats();
  EXPECT_EQ(q, p);
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.heap_allocs, 1u);
  EXPECT_EQ(stats.pool_hits, 1u);
  EXPECT_EQ(stats.releases, 1u);
  ArenaRelease(q, 3 << 20);
}

TEST(ArenaStatsTest, PoolingDisabledMakesEveryAcquireAHeapAlloc) {
  SetArenaPoolingEnabled(false);
  ResetMemStats();
  for (int i = 0; i < 3; ++i) {
    Tensor t = Tensor::Uninit({64});
    t[0] = 1.0f;
  }
  const MemStatsSnapshot stats = GetMemStats();
  SetArenaPoolingEnabled(true);
  EXPECT_EQ(stats.heap_allocs, 3u);
  EXPECT_EQ(stats.pool_hits, 0u);
}

TEST(ArenaStatsTest, MemoryScopeAttributesThisThreadsTraffic) {
  ResetMemStats();
  {
    MemoryScope scope("tensor_test_phase");
    Tensor t = Tensor::Uninit({128});
    t[0] = 1.0f;
  }
  Tensor outside = Tensor::Uninit({128});
  outside[0] = 1.0f;
  const MemStatsSnapshot stats = GetMemStats();
  bool found = false;
  for (const MemPhaseSnapshot& phase : stats.phases) {
    if (phase.name == "tensor_test_phase") {
      found = true;
      EXPECT_EQ(phase.acquires, 1u);
      EXPECT_EQ(phase.acquired_bytes, 128u * sizeof(float));
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(stats.acquires, 2u);
}

TEST(WorkspaceTest, SameTagReturnsSameBufferUntilItGrows) {
  Workspace& ws = ThreadWorkspace();
  float* first = ws.Floats("tensor_test.ws", 100);
  float* again = ws.Floats("tensor_test.ws", 80);  // fits: same buffer
  EXPECT_EQ(again, first);
  first[0] = 42.0f;
  EXPECT_EQ(ws.Floats("tensor_test.ws", 100)[0], 42.0f);  // contents persist
  float* other = ws.Floats("tensor_test.ws2", 100);
  EXPECT_NE(other, first);  // distinct tags are distinct slots
}

#if defined(__SANITIZE_ADDRESS__)
// Under ASan the arena poisons every byte no caller asked for. One float
// past a Workspace request is reported although it lies inside the slot's
// pow2 size class (fresh slot) or inside an earlier, larger request (reused
// slot), and so is a write to a block sitting on the free list.
TEST(WorkspaceDeathTest, WriteOnePastAFloatsRequestIsReported) {
  const auto write_one_past = [](int64_t earlier, int64_t requested) {
    Workspace ws;
    if (earlier > 0) {
      ws.Floats("tensor_test.overrun", earlier);
    }
    volatile float* p = ws.Floats("tensor_test.overrun", requested);
    p[requested] = 1.0f;
  };
  EXPECT_DEATH(write_one_past(0, 5), "use-after-poison");
  EXPECT_DEATH(write_one_past(64, 5), "use-after-poison");
  EXPECT_DEATH(
      {
        volatile float* p = ArenaAcquireFloats(16);
        ArenaReleaseFloats(const_cast<float*>(p), 16);
        p[0] = 1.0f;
      },
      "use-after-poison");
}
#endif

TEST(ArenaTensorTest, AtCheckedFailsHardOnOutOfRangeInEveryBuild) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.AtChecked(1, 2), 0.0f);
  ScopedThrowOnFatal throw_on_fatal;
  EXPECT_THROW(t.AtChecked(2, 0), FatalError);
  EXPECT_THROW(t.AtChecked(0, 3), FatalError);
  EXPECT_THROW(t.AtChecked(6), FatalError);
}

#if MSMOE_DCHECK_IS_ON
TEST(ArenaTensorTest, DcheckedAccessorsFailWhenDchecksAreOn) {
  Tensor t = Tensor::Zeros({2, 3});
  ScopedThrowOnFatal throw_on_fatal;
  EXPECT_THROW(t[-1], FatalError);
  EXPECT_THROW(t[6], FatalError);
  EXPECT_THROW(t.At(2, 0), FatalError);
}
#endif

}  // namespace
}  // namespace msmoe
