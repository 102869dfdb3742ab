#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/model/config.h"
#include "src/model/lm.h"
#include "src/model/optimizer.h"
#include "src/parallel/distributed_lm.h"

namespace msmoe {
namespace {

ModelConfig TestConfig() {
  ModelConfig config = TinyMoeConfig(4, 2);
  config.num_layers = 2;
  config.hidden = 16;
  config.num_heads = 4;
  config.gqa_ratio = 2;
  config.ffn_hidden = 12;
  config.seq_len = 8;
  config.vocab = 24;
  return config;
}

RouterConfig TestRouter() {
  RouterConfig router;
  router.num_experts = 4;
  router.top_k = 2;
  return router;
}

class DistributedLmTest : public ::testing::TestWithParam<EpDispatchMode> {};

TEST_P(DistributedLmTest, MatchesSingleRankLm) {
  const ModelConfig config = TestConfig();
  const RouterConfig router = TestRouter();
  const int64_t batch = 2;
  Rng rng(11);
  LmParams params = LmParams::Init(config, rng);

  std::vector<int64_t> inputs, targets;
  Rng data_rng(77);
  for (int64_t i = 0; i < batch * config.seq_len; ++i) {
    inputs.push_back(static_cast<int64_t>(data_rng.NextIndex(config.vocab)));
    targets.push_back(static_cast<int64_t>(data_rng.NextIndex(config.vocab)));
  }

  // Reference.
  LmParams ref_grads = LmParams::ZerosLike(config);
  const LmStepStats ref_stats =
      LmForwardBackward(params, config, router, inputs, targets, batch, &ref_grads);

  // Distributed over 2 MP ranks.
  const int n = 2;
  FlatCommunicator group(n);
  std::vector<LmParams> grads;
  for (int i = 0; i < n; ++i) {
    grads.push_back(LmParams::ZerosLike(config));
  }
  std::vector<double> losses(n);
  RunOnRanks(n, [&](int rank) {
    ShardContext ctx{&group, rank};
    ParallelMoeLayerOptions options;
    options.dispatch = GetParam();
    const std::vector<int64_t> in_local =
        ShardTokenIds(inputs, batch, config.seq_len, rank, n);
    const std::vector<int64_t> tgt_local =
        ShardTokenIds(targets, batch, config.seq_len, rank, n);
    const DistributedLmStats stats = DistributedLmForwardBackward(
        ctx, config, router, options, params, in_local, tgt_local, batch, config.seq_len,
        &grads[static_cast<size_t>(rank)]);
    losses[static_cast<size_t>(rank)] = stats.ce_loss;
  });

  // Loss: the global mean is the average of equal-sized shards.
  EXPECT_NEAR((losses[0] + losses[1]) / 2.0, ref_stats.ce_loss, 1e-5);

  // Gradients: sum of partials equals the reference everywhere.
  LmParams total = std::move(grads[0]);
  total.Accumulate(grads[1]);
  std::vector<const Tensor*> got = total.TensorListConst();
  std::vector<const Tensor*> want = ref_grads.TensorListConst();
  std::vector<std::string> names;
  total.ForEach([&names](const std::string& name, Tensor&) { names.push_back(name); });
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_LT(got[i]->RelativeL2Diff(*want[i]), 1e-4) << names[i];
  }
}

TEST_P(DistributedLmTest, SarIdenticalToFullCaching) {
  const ModelConfig config = TestConfig();
  const RouterConfig router = TestRouter();
  const int64_t batch = 1;
  Rng rng(13);
  LmParams params = LmParams::Init(config, rng);
  std::vector<int64_t> inputs, targets;
  Rng data_rng(88);
  for (int64_t i = 0; i < batch * config.seq_len; ++i) {
    inputs.push_back(static_cast<int64_t>(data_rng.NextIndex(config.vocab)));
    targets.push_back(static_cast<int64_t>(data_rng.NextIndex(config.vocab)));
  }

  auto run = [&](bool sar) {
    const int n = 2;
    FlatCommunicator group(n);
    std::vector<LmParams> grads;
    for (int i = 0; i < n; ++i) {
      grads.push_back(LmParams::ZerosLike(config));
    }
    RunOnRanks(n, [&](int rank) {
      ShardContext ctx{&group, rank};
      ParallelMoeLayerOptions options;
      options.dispatch = GetParam();
      options.sar = sar;
      DistributedLmForwardBackward(ctx, config, router, options, params,
                                   ShardTokenIds(inputs, batch, config.seq_len, rank, n),
                                   ShardTokenIds(targets, batch, config.seq_len, rank, n),
                                   batch, config.seq_len,
                                   &grads[static_cast<size_t>(rank)]);
    });
    LmParams total = std::move(grads[0]);
    total.Accumulate(grads[1]);
    return total;
  };
  LmParams without = run(false);
  LmParams with = run(true);
  std::vector<const Tensor*> a = without.TensorListConst();
  std::vector<const Tensor*> b = with.TensorListConst();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->RelativeL2Diff(*b[i]), 0.0) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(BothDispatchModes, DistributedLmTest,
                         ::testing::Values(EpDispatchMode::kAllToAll,
                                           EpDispatchMode::kAllGatherScatter));

TEST(DistributedLmTrainingTest, LossDecreasesUnderMpTraining) {
  // End-to-end: train the distributed LM (MP=2) with grads synchronized by
  // an all-reduce over the MP group, replicated Adam on every rank.
  const ModelConfig config = TestConfig();
  RouterConfig router = TestRouter();
  router.aux_loss_coeff = 0.0;
  const int64_t batch = 2;
  const int n = 2;

  FlatCommunicator group(n);
  FlatCommunicator sync_group(n);
  std::vector<double> first(n), last(n);
  RunOnRanks(n, [&](int rank) {
    Rng rng(2025);
    LmParams params = LmParams::Init(config, rng);
    AdamOptimizer adam(AdamConfig{.lr = 4e-3});
    for (Tensor* t : params.TensorList()) {
      adam.Register(t);
    }
    ShardContext ctx{&group, rank};
    ParallelMoeLayerOptions options;
    options.sar = true;  // exercise SAR in the training loop

    for (int step = 0; step < 20; ++step) {
      // Fixed batch: previous-token copy task.
      std::vector<int64_t> inputs, targets;
      Rng data_rng(4242);
      int64_t previous = 0;
      for (int64_t i = 0; i < batch * config.seq_len; ++i) {
        const int64_t token = static_cast<int64_t>(data_rng.NextIndex(config.vocab));
        inputs.push_back(token);
        targets.push_back(previous);
        previous = token;
      }
      LmParams grads = LmParams::ZerosLike(config);
      const DistributedLmStats stats = DistributedLmForwardBackward(
          ctx, config, router, options, params,
          ShardTokenIds(inputs, batch, config.seq_len, rank, n),
          ShardTokenIds(targets, batch, config.seq_len, rank, n), batch, config.seq_len,
          &grads);

      // Synchronize partial grads across the MP group (sum); experts are
      // owner-complete + zero elsewhere, so the same all-reduce completes
      // them on every rank.
      std::vector<Tensor*> tensors = grads.TensorList();
      for (Tensor* tensor : tensors) {
        std::vector<float> reduced(static_cast<size_t>(tensor->numel()));
        EXPECT_TRUE(
            sync_group.AllReduce(rank, tensor->data(), reduced.data(), tensor->numel()).ok());
        std::copy(reduced.begin(), reduced.end(), tensor->data());
      }
      adam.Step(grads.TensorListConst());
      if (step == 0) {
        first[static_cast<size_t>(rank)] = stats.ce_loss;
      }
      last[static_cast<size_t>(rank)] = stats.ce_loss;
    }
  });
  EXPECT_LT((last[0] + last[1]) / 2.0, (first[0] + first[1]) / 2.0 * 0.8);
}

}  // namespace
}  // namespace msmoe
