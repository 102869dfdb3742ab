// The full numeric MegaScale-MoE stack end to end: a distributed MoE LM
// running sequence-parallel attention + expert-parallel FFN + selective
// activation rematerialization over 2 model-parallel thread ranks, trained
// with gradients synchronized across the group.
//
//   $ ./megascale_layer_training
#include <cstdio>
#include <vector>

#include "src/base/rng.h"
#include "src/comm/communicator.h"
#include "src/core/parallelism_planner.h"
#include "src/model/config.h"
#include "src/model/optimizer.h"
#include "src/parallel/distributed_lm.h"

using namespace msmoe;

int main() {
  ModelConfig config = TinyMoeConfig(/*num_experts=*/4, /*top_k=*/2);
  config.num_layers = 2;
  config.hidden = 16;
  config.num_heads = 4;
  config.gqa_ratio = 2;
  config.ffn_hidden = 12;
  config.seq_len = 16;
  config.vocab = 32;
  RouterConfig router;
  router.num_experts = config.num_experts;
  router.top_k = config.top_k;

  const int n = 2;       // model-parallel ranks (SP = EP = 2)
  const int64_t batch = 2;
  const int steps = 80;

  ParallelMoeLayerOptions options;
  options.dispatch = ChooseEpDispatch(config.top_k, n);
  options.sar = true;  // half the activations, bit-identical gradients

  std::printf("distributed MoE LM: SP=EP=%d, dispatch=%s, SAR=on\n", n,
              EpDispatchModeName(options.dispatch));

  FlatCommunicator group(n);
  FlatCommunicator sync(n);
  std::vector<double> losses(static_cast<size_t>(steps), 0.0);
  RunOnRanks(n, [&](int rank) {
    Rng rng(7);
    LmParams params = LmParams::Init(config, rng);
    AdamOptimizer adam(AdamConfig{.lr = 4e-3});
    for (Tensor* t : params.TensorList()) {
      adam.Register(t);
    }
    ShardContext ctx{&group, rank};

    for (int step = 0; step < steps; ++step) {
      // Previous-token copy task, fresh batch each step.
      std::vector<int64_t> inputs, targets;
      Rng data_rng(Rng(99).Fork(static_cast<uint64_t>(step)).NextU64());
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

      // One all-reduce completes every gradient: token-partial entries sum
      // across ranks; expert entries are owner-complete + zero elsewhere.
      for (Tensor* tensor : grads.TensorList()) {
        std::vector<float> reduced(static_cast<size_t>(tensor->numel()));
        const Status status =
            sync.AllReduce(rank, tensor->data(), reduced.data(), tensor->numel());
        MSMOE_CHECK(status.ok()) << status.ToString();
        std::copy(reduced.begin(), reduced.end(), tensor->data());
      }
      adam.Step(grads.TensorListConst());
      if (rank == 0) {
        losses[static_cast<size_t>(step)] = stats.ce_loss;
      }
    }
  });

  for (int step = 0; step < steps; step += 5) {
    std::printf("step %2d  loss %.4f\n", step, losses[static_cast<size_t>(step)]);
  }
  std::printf("final loss %.4f (started %.4f)\n", losses.back(), losses.front());
  std::printf("wire bytes this run: layer collectives %llu, grad sync %llu\n",
              static_cast<unsigned long long>(group.wire_bytes()),
              static_cast<unsigned long long>(sync.wire_bytes()));
  return losses.back() < losses.front() ? 0 : 1;
}
