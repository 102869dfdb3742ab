#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/base/parallel_for.h"
#include "src/base/rng.h"
#include "src/comm/async_comm.h"
#include "src/comm/collective_group.h"
#include "src/comm/communicator.h"
#include "src/comm/hierarchical.h"
#include "src/numerics/bf16.h"

namespace msmoe {
namespace {

TEST(CollectiveGroupTest, AllGather) {
  const int n = 4;
  const int64_t count = 3;
  CollectiveGroup group(n);
  std::vector<std::vector<float>> results(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(count);
    for (int64_t i = 0; i < count; ++i) {
      send[static_cast<size_t>(i)] = static_cast<float>(rank * 10 + i);
    }
    std::vector<float> recv(static_cast<size_t>(n * count));
    EXPECT_TRUE(group.AllGather(rank, send.data(), recv.data(), count).ok());
    results[static_cast<size_t>(rank)] = recv;
  });
  for (int rank = 0; rank < n; ++rank) {
    for (int src = 0; src < n; ++src) {
      for (int64_t i = 0; i < count; ++i) {
        EXPECT_EQ(results[rank][static_cast<size_t>(src * count + i)],
                  static_cast<float>(src * 10 + i));
      }
    }
  }
}

TEST(CollectiveGroupTest, AllReduceSumsAcrossRanks) {
  const int n = 5;
  const int64_t count = 7;
  CollectiveGroup group(n);
  std::vector<std::vector<float>> results(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(count, static_cast<float>(rank + 1));
    std::vector<float> recv(count);
    EXPECT_TRUE(group.AllReduce(rank, send.data(), recv.data(), count).ok());
    results[static_cast<size_t>(rank)] = recv;
  });
  const float expected = static_cast<float>(n * (n + 1) / 2);
  for (int rank = 0; rank < n; ++rank) {
    for (int64_t i = 0; i < count; ++i) {
      EXPECT_EQ(results[rank][static_cast<size_t>(i)], expected);
    }
  }
}

TEST(CollectiveGroupTest, AllReduceBitIdenticalAcrossRanks) {
  // Deterministic reduction order: every rank gets the same bits even with
  // non-associative float input.
  const int n = 4;
  const int64_t count = 64;
  CollectiveGroup group(n);
  std::vector<std::vector<float>> results(n);
  RunOnRanks(n, [&](int rank) {
    Rng rng(static_cast<uint64_t>(rank) + 100);
    std::vector<float> send(count);
    for (auto& v : send) {
      v = static_cast<float>(rng.NextGaussian(0.0, 1e8));
    }
    std::vector<float> recv(count);
    EXPECT_TRUE(group.AllReduce(rank, send.data(), recv.data(), count).ok());
    results[static_cast<size_t>(rank)] = recv;
  });
  for (int rank = 1; rank < n; ++rank) {
    EXPECT_EQ(results[0], results[static_cast<size_t>(rank)]);
  }
}

TEST(CollectiveGroupTest, ReduceScatter) {
  const int n = 3;
  const int64_t count = 2;
  CollectiveGroup group(n);
  std::vector<std::vector<float>> results(n);
  RunOnRanks(n, [&](int rank) {
    // Rank r sends value (r+1) everywhere; chunk c also tagged with c.
    std::vector<float> send(static_cast<size_t>(n * count));
    for (int chunk = 0; chunk < n; ++chunk) {
      for (int64_t i = 0; i < count; ++i) {
        send[static_cast<size_t>(chunk * count + i)] =
            static_cast<float>((rank + 1) * 100 + chunk);
      }
    }
    std::vector<float> recv(count);
    EXPECT_TRUE(group.ReduceScatter(rank, send.data(), recv.data(), count).ok());
    results[static_cast<size_t>(rank)] = recv;
  });
  // Chunk r = sum over ranks of (rank+1)*100 + r = 600 + 3r.
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_EQ(results[rank][0], static_cast<float>(600 + 3 * rank));
  }
}

TEST(CollectiveGroupTest, ReduceScatterThenAllGatherEqualsAllReduce) {
  const int n = 4;
  const int64_t chunk = 5;
  const int64_t total = n * chunk;
  CollectiveGroup group(n);
  CollectiveGroup group2(n);
  std::vector<std::vector<float>> via_rs_ag(n);
  std::vector<std::vector<float>> via_ar(n);
  RunOnRanks(n, [&](int rank) {
    Rng rng(static_cast<uint64_t>(rank) + 7);
    std::vector<float> send(static_cast<size_t>(total));
    for (auto& v : send) {
      v = static_cast<float>(rng.NextGaussian());
    }
    std::vector<float> chunk_out(static_cast<size_t>(chunk));
    EXPECT_TRUE(group.ReduceScatter(rank, send.data(), chunk_out.data(), chunk).ok());
    std::vector<float> full(static_cast<size_t>(total));
    EXPECT_TRUE(group.AllGather(rank, chunk_out.data(), full.data(), chunk).ok());
    via_rs_ag[static_cast<size_t>(rank)] = full;

    std::vector<float> ar(static_cast<size_t>(total));
    EXPECT_TRUE(group2.AllReduce(rank, send.data(), ar.data(), total).ok());
    via_ar[static_cast<size_t>(rank)] = ar;
  });
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_EQ(via_rs_ag[rank], via_ar[rank]);
  }
}

TEST(CollectiveGroupTest, Broadcast) {
  const int n = 4;
  CollectiveGroup group(n);
  std::vector<std::vector<float>> results(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> data(3, rank == 2 ? 7.0f : -1.0f);
    EXPECT_TRUE(group.Broadcast(rank, /*root=*/2, data.data(), 3).ok());
    results[static_cast<size_t>(rank)] = data;
  });
  for (int rank = 0; rank < n; ++rank) {
    for (float v : results[rank]) {
      EXPECT_EQ(v, 7.0f);
    }
  }
}

TEST(CollectiveGroupTest, AllToAllTransposesBlocks) {
  const int n = 3;
  const int64_t count = 2;
  CollectiveGroup group(n);
  std::vector<std::vector<float>> results(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(static_cast<size_t>(n * count));
    for (int dst = 0; dst < n; ++dst) {
      for (int64_t i = 0; i < count; ++i) {
        send[static_cast<size_t>(dst * count + i)] =
            static_cast<float>(rank * 10 + dst);
      }
    }
    std::vector<float> recv(static_cast<size_t>(n * count));
    EXPECT_TRUE(group.AllToAll(rank, send.data(), recv.data(), count).ok());
    results[static_cast<size_t>(rank)] = recv;
  });
  for (int rank = 0; rank < n; ++rank) {
    for (int src = 0; src < n; ++src) {
      EXPECT_EQ(results[rank][static_cast<size_t>(src * count)],
                static_cast<float>(src * 10 + rank));
    }
  }
}

TEST(CollectiveGroupTest, AllToAllV) {
  const int n = 3;
  CollectiveGroup group(n);
  std::vector<std::vector<float>> results(n);
  std::vector<std::vector<int64_t>> recv_counts(n);
  RunOnRanks(n, [&](int rank) {
    // Rank r sends (dst + 1) elements to each dst, values = r*100 + dst.
    std::vector<int64_t> send_counts;
    std::vector<float> send;
    for (int dst = 0; dst < n; ++dst) {
      send_counts.push_back(dst + 1);
      for (int i = 0; i <= dst; ++i) {
        send.push_back(static_cast<float>(rank * 100 + dst));
      }
    }
    std::vector<float> recv(static_cast<size_t>(n * (rank + 1)));
    std::vector<int64_t> counts;
    EXPECT_TRUE(group
                    .AllToAllV(rank, send.data(), send_counts, recv.data(),
                               static_cast<int64_t>(recv.size()), &counts)
                    .ok());
    results[static_cast<size_t>(rank)] = recv;
    recv_counts[static_cast<size_t>(rank)] = counts;
  });
  for (int rank = 0; rank < n; ++rank) {
    int64_t offset = 0;
    for (int src = 0; src < n; ++src) {
      EXPECT_EQ(recv_counts[rank][static_cast<size_t>(src)], rank + 1);
      for (int i = 0; i <= rank; ++i) {
        EXPECT_EQ(results[rank][static_cast<size_t>(offset + i)],
                  static_cast<float>(src * 100 + rank));
      }
      offset += rank + 1;
    }
  }
}

TEST(CollectiveGroupTest, ExchangeScalars) {
  const int n = 4;
  CollectiveGroup group(n);
  std::vector<std::vector<double>> results(n);
  RunOnRanks(n, [&](int rank) {
    EXPECT_TRUE(
        group.ExchangeScalars(rank, rank * 1.5, &results[static_cast<size_t>(rank)]).ok());
  });
  for (int rank = 0; rank < n; ++rank) {
    for (int src = 0; src < n; ++src) {
      EXPECT_EQ(results[rank][static_cast<size_t>(src)], src * 1.5);
    }
  }
}

TEST(CollectiveGroupTest, WireByteAccounting) {
  const int n = 4;
  const int64_t count = 100;
  CollectiveGroup group(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(count, 1.0f);
    std::vector<float> recv(static_cast<size_t>(n * count));
    EXPECT_TRUE(group.AllGather(rank, send.data(), recv.data(), count).ok());
  });
  // Ring all-gather: (n-1) * count * 4 bytes.
  EXPECT_EQ(group.wire_bytes(), static_cast<uint64_t>((n - 1) * count * 4));
  group.ResetWireBytes();
  EXPECT_EQ(group.wire_bytes(), 0u);
}

TEST(CollectiveGroupTest, BroadcastWireByteAccounting) {
  const int n = 4;
  const int64_t count = 50;
  CollectiveGroup group(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> data(static_cast<size_t>(count), rank == 1 ? 2.0f : 0.0f);
    EXPECT_TRUE(group.Broadcast(rank, /*root=*/1, data.data(), count).ok());
    EXPECT_EQ(data[0], 2.0f);
  });
  // Root sends the payload to each of the n-1 non-roots, accounted once.
  EXPECT_EQ(group.wire_bytes(), static_cast<uint64_t>((n - 1) * count * 4));
}

TEST(CollectiveGroupTest, ExchangeScalarsWireByteAccounting) {
  const int n = 4;
  CollectiveGroup group(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<double> out;
    EXPECT_TRUE(group.ExchangeScalars(rank, 1.0, &out).ok());
  });
  // An all-gather of one double per member: (n-1) * 8 bytes total.
  EXPECT_EQ(group.wire_bytes(), static_cast<uint64_t>((n - 1) * sizeof(double)));
  RunOnRanks(n, [&](int rank) {
    std::vector<double> out;
    EXPECT_TRUE(group.ExchangeScalars(rank, 2.0, &out).ok());
  });
  EXPECT_EQ(group.wire_bytes(), 2 * static_cast<uint64_t>((n - 1) * sizeof(double)));
}

TEST(CollectiveGroupTest, AllToAllVAccountsTotalOnceAndReturnsIt) {
  // The total off-rank volume is accounted exactly once (the header
  // convention) and returned identically to every member.
  const int n = 3;
  CollectiveGroup group(n);
  std::vector<uint64_t> returned(static_cast<size_t>(n), 0);
  RunOnRanks(n, [&](int rank) {
    std::vector<int64_t> send_counts(static_cast<size_t>(n));
    int64_t total = 0;
    for (int dst = 0; dst < n; ++dst) {
      send_counts[static_cast<size_t>(dst)] = rank + dst + 1;
      total += rank + dst + 1;
    }
    std::vector<float> send(static_cast<size_t>(total), 1.0f);
    std::vector<float> recv(64);
    std::vector<int64_t> recv_counts;
    EXPECT_TRUE(group
                    .AllToAllV(rank, send.data(), send_counts, recv.data(),
                               static_cast<int64_t>(recv.size()), &recv_counts,
                               &returned[static_cast<size_t>(rank)])
                    .ok());
  });
  uint64_t expected = 0;
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src != dst) {
        expected += static_cast<uint64_t>(src + dst + 1) * sizeof(float);
      }
    }
  }
  EXPECT_EQ(group.wire_bytes(), expected);
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_EQ(returned[static_cast<size_t>(rank)], expected) << rank;
  }
}

TEST(CollectiveGroupTest, AllToAllWireBytesLessThanAllGatherTotal) {
  // A2A moves (n-1)/n of the all-gather payload per rank: for token dispatch
  // both move the same per-rank volume here by construction; just verify the
  // accounting formulas.
  const int n = 4;
  const int64_t count = 64;
  CollectiveGroup ag_group(n);
  CollectiveGroup a2a_group(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(static_cast<size_t>(n * count), 1.0f);
    std::vector<float> recv(static_cast<size_t>(n * count));
    EXPECT_TRUE(a2a_group.AllToAll(rank, send.data(), recv.data(), count).ok());
    // count per rank
    EXPECT_TRUE(ag_group.AllGather(rank, send.data(), recv.data(), count).ok());
  });
  EXPECT_EQ(a2a_group.wire_bytes(), static_cast<uint64_t>(n * (n - 1) * count * 4 / n));
  EXPECT_EQ(ag_group.wire_bytes(), static_cast<uint64_t>((n - 1) * count * 4));
}

TEST(HierarchicalCommTest, MatchesFlatAllReduce) {
  const int nodes = 2;
  const int per_node = 3;
  const int world = nodes * per_node;
  const int64_t count = 37;  // deliberately not divisible by per_node
  HierarchicalComm hier(nodes, per_node);
  CollectiveGroup flat(world);
  std::vector<std::vector<float>> hier_out(world);
  std::vector<std::vector<float>> flat_out(world);
  RunOnRanks(world, [&](int rank) {
    Rng rng(static_cast<uint64_t>(rank) + 55);
    std::vector<float> data(count);
    for (auto& v : data) {
      v = static_cast<float>(rng.NextGaussian());
    }
    std::vector<float> flat_result(count);
    EXPECT_TRUE(flat.AllReduce(rank, data.data(), flat_result.data(), count).ok());
    flat_out[static_cast<size_t>(rank)] = flat_result;

    EXPECT_TRUE(hier.AllReduce(rank, data.data(), data.data(), count).ok());
    hier_out[static_cast<size_t>(rank)] = data;
  });
  for (int rank = 0; rank < world; ++rank) {
    ASSERT_EQ(hier_out[rank].size(), flat_out[rank].size());
    for (int64_t i = 0; i < count; ++i) {
      EXPECT_NEAR(hier_out[rank][static_cast<size_t>(i)],
                  flat_out[rank][static_cast<size_t>(i)], 1e-4)
          << "rank " << rank << " index " << i;
    }
  }
}

TEST(HierarchicalCommTest, AllRanksIdentical) {
  const int nodes = 2;
  const int per_node = 4;
  const int world = nodes * per_node;
  HierarchicalComm hier(nodes, per_node);
  std::vector<std::vector<float>> out(world);
  RunOnRanks(world, [&](int rank) {
    std::vector<float> data(16, static_cast<float>(rank));
    EXPECT_TRUE(hier.AllReduce(rank, data.data(), data.data(), 16).ok());
    out[static_cast<size_t>(rank)] = data;
  });
  for (int rank = 1; rank < world; ++rank) {
    EXPECT_EQ(out[0], out[static_cast<size_t>(rank)]);
  }
  // Sum of ranks 0..7 = 28.
  EXPECT_EQ(out[0][0], 28.0f);
}

TEST(HierarchicalCommTest, InterNodeVolumeMatchesAppendixA1) {
  // Appendix A.1: inter-node volume for SP sync is 2 * P/n * (d-1)/d per
  // rank-chunk flow; intra adds 2 * P * (n-1)/n.
  const int nodes = 2;       // d
  const int per_node = 4;    // n
  const int64_t count = 4 * 1024;  // divisible by n so no padding effects
  HierarchicalComm hier(nodes, per_node);
  RunOnRanks(nodes * per_node, [&](int rank) {
    std::vector<float> data(static_cast<size_t>(count), 1.0f);
    EXPECT_TRUE(hier.AllReduce(rank, data.data(), data.data(), count).ok());
  });
  const uint64_t bytes = count * 4;
  // Intra: per node, RS + AG = 2 * (n-1) * (P/n) -> accounted as
  // (n-1)*chunk per collective with chunk = P/n... summed over both nodes.
  const uint64_t chunk_bytes = bytes / per_node;
  const uint64_t expected_intra =
      static_cast<uint64_t>(nodes) * 2 * (per_node - 1) * chunk_bytes;
  // Inter: per local index, all-reduce of chunk = 2*(d-1)*chunk.
  const uint64_t expected_inter =
      static_cast<uint64_t>(per_node) * 2 * (nodes - 1) * chunk_bytes;
  EXPECT_EQ(hier.IntraWireBytes(), expected_intra);
  EXPECT_EQ(hier.InterWireBytes(), expected_inter);
  // The paper's point: inter-node volume equals TP attention's sync volume
  // (2 * P/n * (d-1)/d summed over d ranks of each inter group).
  EXPECT_LT(hier.InterWireBytes(), hier.IntraWireBytes());
}

TEST(HierarchicalCommTest, GroupIndexing) {
  HierarchicalComm hier(3, 8);
  EXPECT_EQ(hier.world_size(), 24);
  EXPECT_EQ(hier.NodeOf(0), 0);
  EXPECT_EQ(hier.NodeOf(8), 1);
  EXPECT_EQ(hier.LocalOf(8), 0);
  EXPECT_EQ(hier.LocalOf(23), 7);
  EXPECT_EQ(hier.IntraGroup(3).size(), 8);
  EXPECT_EQ(hier.InterGroup(3).size(), 3);
}

TEST(Bf16WireTest, CompressedAllToAllHalvesPayload) {
  // The §5 DP compression path: cast FP32 -> BF16 before the A2A. Emulate by
  // rounding, then check the reduced values match FP32 within BF16 epsilon.
  const int n = 4;
  const int64_t count = 32;
  CollectiveGroup group(n);
  std::vector<std::vector<float>> results(n);
  RunOnRanks(n, [&](int rank) {
    Rng rng(static_cast<uint64_t>(rank) + 1);
    std::vector<float> grads(static_cast<size_t>(n * count));
    for (auto& v : grads) {
      v = static_cast<float>(rng.NextGaussian());
    }
    // Cast to BF16 for the wire.
    std::vector<float> wire(grads.size());
    for (size_t i = 0; i < grads.size(); ++i) {
      wire[i] = Bf16Round(grads[i]);
    }
    std::vector<float> recv(static_cast<size_t>(n * count));
    EXPECT_TRUE(group.AllToAll(rank, wire.data(), recv.data(), count).ok());
    // Local FP32 reduction of the received shards.
    std::vector<float> reduced(static_cast<size_t>(count), 0.0f);
    for (int src = 0; src < n; ++src) {
      for (int64_t i = 0; i < count; ++i) {
        reduced[static_cast<size_t>(i)] += recv[static_cast<size_t>(src * count + i)];
      }
    }
    results[static_cast<size_t>(rank)] = reduced;
  });
  // Every value is a sum of n bf16-rounded gaussians: within n * 2^-8 * max.
  for (int rank = 0; rank < n; ++rank) {
    for (float v : results[rank]) {
      EXPECT_LT(std::fabs(v), 100.0f);  // sanity: finite, reasonable
    }
  }
}

// Rank threads come from a persistent pool: back-to-back RunOnRanks calls of
// the same world size must reuse the same OS threads (the free list is LIFO
// and nothing else is running), not spawn fresh ones per call.
TEST(RunOnRanksTest, ReusesPersistentRankThreads) {
  const int n = 4;
  auto collect_ids = [&] {
    std::mutex mu;
    std::set<std::thread::id> ids;
    RunOnRanks(n, [&](int) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    return ids;
  };
  const std::set<std::thread::id> first = collect_ids();
  ASSERT_EQ(first.size(), static_cast<size_t>(n));  // distinct thread per rank
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(collect_ids(), first) << "repeat " << repeat;
  }
}

TEST(RunOnRanksTest, RankFailureStillReleasesThreadsForReuse) {
  const int n = 2;
  CollectiveGroup group(n);
  const Status status = RunOnRanksStatus(
      n,
      [&](int rank) {
        if (rank == 1) {
          throw std::runtime_error("injected rank failure");
        }
        float value = 1.0f;
        float out = 0.0f;
        // Peer aborts; the cancellable barrier must return instead of hang.
        EXPECT_FALSE(group.AllReduce(rank, &value, &out, 1).ok());
      },
      &group);
  EXPECT_FALSE(status.ok());
  // The pool must still serve subsequent calls.
  std::atomic<int> visits{0};
  RunOnRanks(n, [&](int) { visits.fetch_add(1); });
  EXPECT_EQ(visits.load(), n);
}

// A PooledThread's thread is back on the free list before its destructor
// returns, so the next acquire reuses it (LIFO) instead of spawning a cold
// thread whose workspace and ParallelFor workers start empty.
TEST(RunOnRanksTest, PooledThreadIsFreeOnceItsDestructorReturns) {
  for (int iter = 0; iter < 500; ++iter) {
    std::thread::id proxy;
    {
      PooledThread thread;
      thread.Submit([&proxy] { proxy = std::this_thread::get_id(); });
    }
    std::thread::id rank;
    RunOnRanks(1, [&rank](int) { rank = std::this_thread::get_id(); });
    ASSERT_EQ(rank, proxy) << "iteration " << iter;
  }
}

// ---------------------------------------------------------------------------
// Nonblocking chunked collectives (async_comm.h / Communicator::Start*).

TEST(ChunkLayoutTest, SplitsOnQuantumBoundaries) {
  // 7 rows of 3 elements into 3 chunks: rows split 3/2/2.
  ChunkLayout layout(21, 3, 3);
  ASSERT_EQ(layout.num_chunks(), 3);
  EXPECT_EQ(layout.begin(0), 0);
  EXPECT_EQ(layout.size(0), 9);
  EXPECT_EQ(layout.size(1), 6);
  EXPECT_EQ(layout.size(2), 6);
  EXPECT_EQ(layout.end(2), 21);
  // More chunks than rows clamps; zero count yields one empty chunk.
  EXPECT_EQ(ChunkLayout(6, 100, 3).num_chunks(), 2);
  EXPECT_EQ(ChunkLayout(0, 4, 1).num_chunks(), 1);
  EXPECT_EQ(ChunkLayout(0, 4, 1).size(0), 0);
}

TEST(AsyncCollectiveTest, StartAllGatherMatchesSyncAcrossChunkCounts) {
  const int n = 4;
  const int64_t rows = 7, k = 3;  // ragged: 7 rows never split evenly
  const int64_t count = rows * k;
  for (const int chunks : {1, 2, 3, 5, 16}) {
    FlatCommunicator comm(n);
    std::vector<std::vector<float>> sync_out(n), async_out(n);
    RunOnRanks(n, [&](int rank) {
      std::vector<float> send(static_cast<size_t>(count));
      for (int64_t i = 0; i < count; ++i) {
        send[static_cast<size_t>(i)] = static_cast<float>(rank * 1000 + i);
      }
      std::vector<float> expect(static_cast<size_t>(n) * count);
      EXPECT_TRUE(comm.AllGather(rank, send.data(), expect.data(), count).ok());
      std::vector<float> got(static_cast<size_t>(n) * count, -1.0f);
      auto handle = comm.StartAllGather(rank, send.data(), got.data(), count, chunks,
                                        /*quantum=*/k);
      // Consume out of order: odd ranks wait back to front.
      for (int c = 0; c < handle->num_chunks(); ++c) {
        const int wait = rank % 2 == 0 ? c : handle->num_chunks() - 1 - c;
        ASSERT_TRUE(handle->WaitChunk(wait).ok());
      }
      EXPECT_TRUE(handle->WaitAll().ok());
      sync_out[static_cast<size_t>(rank)] = std::move(expect);
      async_out[static_cast<size_t>(rank)] = std::move(got);
    });
    for (int rank = 0; rank < n; ++rank) {
      EXPECT_EQ(sync_out[static_cast<size_t>(rank)], async_out[static_cast<size_t>(rank)])
          << "chunks=" << chunks << " rank=" << rank;
    }
  }
}

TEST(AsyncCollectiveTest, StartReduceScatterBitwiseMatchesSync) {
  const int n = 4;
  const int64_t count = 10;  // per-member output elements
  for (const int chunks : {1, 3, 10}) {
    FlatCommunicator comm(n);
    RunOnRanks(n, [&](int rank) {
      std::vector<float> send(static_cast<size_t>(n) * count);
      for (size_t i = 0; i < send.size(); ++i) {
        send[i] = 0.25f * static_cast<float>(rank + 1) * static_cast<float>(i % 13) -
                  static_cast<float>(rank);
      }
      std::vector<float> expect(static_cast<size_t>(count));
      EXPECT_TRUE(comm.ReduceScatter(rank, send.data(), expect.data(), count).ok());
      std::vector<float> got(static_cast<size_t>(count), -1.0f);
      auto handle = comm.StartReduceScatter(rank, send.data(), got.data(), count, chunks);
      // Signal producer chunks in REVERSE order: the comm thread still
      // consumes them in index order.
      for (int c = handle->num_chunks() - 1; c >= 0; --c) {
        handle->SignalChunkReady(c);
      }
      ASSERT_TRUE(handle->WaitAll().ok());
      // Bitwise: the group's rank-ordered double sum per element does not
      // depend on how the element range was segmented.
      for (int64_t i = 0; i < count; ++i) {
        EXPECT_EQ(expect[static_cast<size_t>(i)], got[static_cast<size_t>(i)])
            << "chunks=" << chunks << " rank=" << rank << " i=" << i;
      }
    });
  }
}

TEST(AsyncCollectiveTest, StartAllToAllVMatchesSyncWithRaggedCounts) {
  const int n = 4;
  for (const int chunks : {1, 2, 5}) {
    FlatCommunicator comm(n);
    RunOnRanks(n, [&](int rank) {
      // Ragged, rank-dependent counts including zeros.
      std::vector<int64_t> send_counts(static_cast<size_t>(n));
      int64_t total = 0;
      for (int dst = 0; dst < n; ++dst) {
        send_counts[static_cast<size_t>(dst)] = (rank + dst) % 3 == 0 ? 0 : rank + 2 * dst + 1;
        total += send_counts[static_cast<size_t>(dst)];
      }
      std::vector<int32_t> send(static_cast<size_t>(total));
      for (int64_t i = 0; i < total; ++i) {
        send[static_cast<size_t>(i)] = rank * 100000 + static_cast<int32_t>(i);
      }
      std::vector<int32_t> expect(static_cast<size_t>(n) * 64);
      std::vector<int64_t> expect_counts;
      EXPECT_TRUE(comm.AllToAllV(rank, send.data(), send_counts, expect.data(),
                                 static_cast<int64_t>(expect.size()), &expect_counts)
                      .ok());
      std::vector<int32_t> got;
      auto handle = comm.StartAllToAllV(rank, send.data(), send_counts, &got, chunks);
      ASSERT_TRUE(handle->WaitAll().ok());
      ASSERT_EQ(handle->recv_counts(), expect_counts) << "chunks=" << chunks;
      int64_t received = 0;
      for (const int64_t c : expect_counts) {
        received += c;
      }
      ASSERT_EQ(static_cast<int64_t>(got.size()), received);
      for (int64_t i = 0; i < received; ++i) {
        EXPECT_EQ(got[static_cast<size_t>(i)], expect[static_cast<size_t>(i)])
            << "chunks=" << chunks << " rank=" << rank << " i=" << i;
      }
    });
  }
}

// Two handles in flight at once: FIFO comm threads keep the async channel's
// rendezvous paired up as long as every rank issues the same Start order.
TEST(AsyncCollectiveTest, TwoInFlightHandlesCompleteInIssueOrder) {
  const int n = 3;
  const int64_t count = 12;
  FlatCommunicator comm(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> a_send(static_cast<size_t>(count), static_cast<float>(rank));
    std::vector<float> a_recv(static_cast<size_t>(n) * count);
    std::vector<float> b_send(static_cast<size_t>(n) * count, 1.0f + static_cast<float>(rank));
    std::vector<float> b_recv(static_cast<size_t>(count));
    auto ag = comm.StartAllGather(rank, a_send.data(), a_recv.data(), count, 3);
    auto rs = comm.StartReduceScatter(rank, b_send.data(), b_recv.data(), count, 2);
    for (int c = 0; c < rs->num_chunks(); ++c) {
      rs->SignalChunkReady(c);
    }
    ASSERT_TRUE(rs->WaitAll().ok());
    ASSERT_TRUE(ag->WaitAll().ok());
    for (int src = 0; src < n; ++src) {
      EXPECT_EQ(a_recv[static_cast<size_t>(src) * count], static_cast<float>(src));
    }
    // Sum over ranks of (1 + rank) = n + n(n-1)/2.
    EXPECT_EQ(b_recv[0], static_cast<float>(n + n * (n - 1) / 2));
  });
}

// The per-chunk AccountOnce volumes of one logical op must sum to exactly
// the monolithic op's volume — chunking must not double count.
TEST(AsyncCollectiveTest, ChunkedWireBytesEqualMonolithic) {
  const int n = 4;
  const int64_t count = 36;
  FlatCommunicator mono(n), chunked(n);
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(static_cast<size_t>(count), 1.0f);
    std::vector<float> recv(static_cast<size_t>(n) * count);
    EXPECT_TRUE(mono.AllGather(rank, send.data(), recv.data(), count).ok());
    auto handle = chunked.StartAllGather(rank, send.data(), recv.data(), count, 5);
    ASSERT_TRUE(handle->WaitAll().ok());
  });
  EXPECT_EQ(mono.wire_bytes(), chunked.wire_bytes());
  EXPECT_EQ(mono.telemetry().TotalWireBytes(), chunked.telemetry().TotalWireBytes());
}

// Hammer WaitChunk out of order from every rank while ops queue back to
// back — the TSan target for the chunk-readiness rendezvous.
TEST(AsyncCollectiveTest, WaitChunkOutOfOrderStress) {
  const int n = 4;
  const int64_t count = 24;
  const int iters = 25;
  FlatCommunicator comm(n);
  RunOnRanks(n, [&](int rank) {
    Rng rng(0x5eedu + static_cast<uint64_t>(rank));
    std::vector<float> send(static_cast<size_t>(count));
    std::vector<float> recv(static_cast<size_t>(n) * count);
    for (int iter = 0; iter < iters; ++iter) {
      for (int64_t i = 0; i < count; ++i) {
        send[static_cast<size_t>(i)] = static_cast<float>(rank * 31 + iter * 7 + i);
      }
      const int chunks = 1 + iter % 6;
      auto handle = comm.StartAllGather(rank, send.data(), recv.data(), count, chunks);
      // Random per-rank wait order over the chunk indices.
      std::vector<int> order(static_cast<size_t>(handle->num_chunks()));
      std::iota(order.begin(), order.end(), 0);
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[static_cast<size_t>(rng.NextU64() % i)]);
      }
      for (const int c : order) {
        ASSERT_TRUE(handle->WaitChunk(c).ok());
        const int64_t b = handle->layout().begin(c);
        for (int src = 0; src < n; ++src) {
          EXPECT_EQ(recv[static_cast<size_t>(src * count + b)],
                    static_cast<float>(src * 31 + iter * 7 + b));
        }
      }
      ASSERT_TRUE(handle->WaitAll().ok());
    }
  });
}

// The emulated wire clock turns analytic volume into measurable blocking
// time, and an abort cuts the sleep short instead of serving it out.
TEST(AsyncCollectiveTest, WireModelAddsAbortableBlockingTime) {
  const int n = 2;
  const int64_t count = 1000;
  FlatCommunicator comm(n);
  // 1 byte/us would sleep (n-1)*4000 us; measure one all-gather.
  comm.SetWireModel(/*bytes_per_us=*/1000.0, /*latency_us=*/100.0);
  const double wire_us =
      comm.group().WireTimeUs(static_cast<uint64_t>((n - 1) * count * 4));
  const auto t0 = std::chrono::steady_clock::now();
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(static_cast<size_t>(count), 1.0f);
    std::vector<float> recv(static_cast<size_t>(n) * count);
    EXPECT_TRUE(comm.AllGather(rank, send.data(), recv.data(), count).ok());
  });
  const double elapsed_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed_us, wire_us);
  // Abort mid-sleep: a 50 ms wire must not be served out once cancelled.
  FlatCommunicator slow(n);
  slow.SetWireModel(/*bytes_per_us=*/0.08, /*latency_us=*/0.0);  // 4k bytes -> 50 ms
  const auto t1 = std::chrono::steady_clock::now();
  RunOnRanks(n, [&](int rank) {
    std::vector<float> send(static_cast<size_t>(count), 1.0f);
    std::vector<float> recv(static_cast<size_t>(n) * count);
    if (rank == 0) {
      slow.Abort(Aborted("test abort"));
    }
    EXPECT_FALSE(slow.AllGather(rank, send.data(), recv.data(), count).ok());
  });
  const double abort_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t1)
          .count();
  EXPECT_LT(abort_us, 40000.0);
  EXPECT_FALSE(slow.GroupStatus().ok());
}

// An abort lets a member leave its collective early. It must not then
// publish its next collective's counts, or reuse or free its send buffer,
// while a peer that passed the same entry barrier is still copying. Each
// round aborts the group at a random moment during a stream of count
// exchanges and variable all-to-alls; every member then issues the next
// ones at once and finally frees its buffers. Under TSan this is the
// regression for that race. In every build it checks that each exchange
// that succeeds delivers the right data and that every one after the
// abort fails.
TEST(CollectiveGroupAbortTest, NextExchangeAfterAbortDoesNotRaceThePeerCopy) {
  constexpr int kMembers = 4;
  constexpr int64_t kBlock = 1 << 16;  // floats per destination: a long copy phase
  constexpr int kRounds = 24;
  CollectiveGroup group(kMembers);
  Rng rng(41);
  for (int round = 0; round < kRounds; ++round) {
    const auto abort_after = std::chrono::microseconds(rng.NextIndex(3000));
    std::vector<std::atomic<int>> completed(kMembers);
    std::vector<std::thread> members;
    for (int member = 0; member < kMembers; ++member) {
      members.emplace_back([&, member] {
        const std::vector<int64_t> counts(kMembers, kBlock);
        std::vector<float> send(static_cast<size_t>(kMembers * kBlock));
        for (int dst = 0; dst < kMembers; ++dst) {
          std::fill(send.begin() + dst * kBlock, send.begin() + (dst + 1) * kBlock,
                    static_cast<float>(member * kMembers + dst));
        }
        std::vector<float> recv(static_cast<size_t>(kMembers * kBlock));
        std::vector<int64_t> all_counts;
        std::vector<int64_t> recv_counts;
        for (;;) {
          if (!group.ExchangeCounts(member, counts, &all_counts).ok()) {
            break;
          }
          EXPECT_EQ(all_counts, std::vector<int64_t>(kMembers * kMembers, kBlock));
          if (!group.AllToAllV(member, send.data(), counts, recv.data(),
                               static_cast<int64_t>(recv.size()), &recv_counts)
                   .ok()) {
            break;
          }
          for (int src = 0; src < kMembers; ++src) {
            EXPECT_EQ(recv[static_cast<size_t>(src * kBlock + kBlock - 1)],
                      static_cast<float>(src * kMembers + member));
          }
          ++completed[static_cast<size_t>(member)];
        }
        // The abort is sticky: the next exchange and all-to-all fail at once.
        EXPECT_FALSE(group.ExchangeCounts(member, counts, &all_counts).ok());
        EXPECT_FALSE(group
                         .AllToAllV(member, send.data(), counts, recv.data(),
                                    static_cast<int64_t>(recv.size()), &recv_counts)
                         .ok());
      });
    }
    // Abort at a random moment once the members are streaming collectives.
    while (std::accumulate(completed.begin(), completed.end(), 0) < kMembers) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(abort_after);
    group.Abort(Aborted("injected abort"));
    for (std::thread& thread : members) {
      thread.join();
    }
    // A collective whose exit barrier closed before the abort completed on
    // every member; one cut by it failed on every member.
    for (int member = 1; member < kMembers; ++member) {
      EXPECT_EQ(completed[static_cast<size_t>(member)].load(), completed[0].load())
          << "round " << round << " member " << member;
    }
    group.ResetAbort();
  }
}

// Rank threads are exactly the "concurrent external callers" case of the
// intra-rank worker pool: each rank may fan compute out via ParallelFor
// while its peers do the same, with no deadlock and full coverage.
TEST(RunOnRanksTest, ParallelForInsideRankThreads) {
  const int n = 4;
  const int restore = SetParallelWorkerCount(4);
  std::vector<int64_t> totals(n, 0);
  RunOnRanks(n, [&](int rank) {
    std::atomic<int64_t> local{0};
    ParallelFor(100, 4,
                [&](int64_t begin, int64_t end) { local.fetch_add(end - begin); });
    totals[static_cast<size_t>(rank)] = local.load();
  });
  SetParallelWorkerCount(restore);
  for (int rank = 0; rank < n; ++rank) {
    EXPECT_EQ(totals[static_cast<size_t>(rank)], 100) << "rank " << rank;
  }
}

}  // namespace
}  // namespace msmoe
