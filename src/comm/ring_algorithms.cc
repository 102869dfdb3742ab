#include "src/comm/ring_algorithms.h"

#include <vector>

#include "src/base/logging.h"

namespace msmoe {

void NeighborExchange(CollectiveGroup& group, int rank, const float* send, float* recv,
                      int64_t count) {
  const int n = group.size();
  // A restricted all-to-all: `count` floats to rank+1, nothing elsewhere.
  std::vector<int64_t> send_counts(static_cast<size_t>(n), 0);
  send_counts[static_cast<size_t>((rank + 1) % n)] = count;
  std::vector<int64_t> recv_counts;
  group.AllToAllV(rank, send, send_counts, recv, &recv_counts);
  // Sanity: everything arrived from the ring predecessor.
  for (int src = 0; src < n; ++src) {
    const int64_t expected = src == (rank - 1 + n) % n ? count : 0;
    MSMOE_CHECK_EQ(recv_counts[static_cast<size_t>(src)], expected);
  }
}

void RingAllGather(CollectiveGroup& group, int rank, const float* send, float* recv,
                   int64_t count) {
  const int n = group.size();
  std::copy(send, send + count, recv + static_cast<int64_t>(rank) * count);
  std::vector<float> in_flight(send, send + count);
  std::vector<float> incoming(static_cast<size_t>(count));
  for (int step = 1; step < n; ++step) {
    NeighborExchange(group, rank, in_flight.data(), incoming.data(), count);
    // The chunk arriving at step `step` originated at rank - step.
    const int origin = (rank - step + n) % n;
    std::copy(incoming.begin(), incoming.end(),
              recv + static_cast<int64_t>(origin) * count);
    in_flight.swap(incoming);
  }
}

void RingReduceScatter(CollectiveGroup& group, int rank, const float* send, float* recv,
                       int64_t count) {
  const int n = group.size();
  if (n == 1) {
    std::copy(send, send + count, recv);
    return;
  }
  // Chunk c starts at rank (c+1) % n and accumulates contributions as it
  // travels the ring, arriving fully reduced at rank c after n-1 hops.
  const int initial_chunk = (rank - 1 + n) % n;
  std::vector<float> partial(send + static_cast<int64_t>(initial_chunk) * count,
                             send + static_cast<int64_t>(initial_chunk + 1) * count);
  std::vector<float> incoming(static_cast<size_t>(count));
  for (int step = 1; step < n; ++step) {
    NeighborExchange(group, rank, partial.data(), incoming.data(), count);
    const int chunk = (rank - step - 1 + n) % n;
    const float* own = send + static_cast<int64_t>(chunk) * count;
    for (int64_t i = 0; i < count; ++i) {
      incoming[static_cast<size_t>(i)] += own[i];
    }
    partial.swap(incoming);
  }
  std::copy(partial.begin(), partial.end(), recv);
}

void RingAllReduce(CollectiveGroup& group, int rank, float* data, int64_t count) {
  std::vector<float> reduced(static_cast<size_t>(count));
  RingReduceScatter(group, rank, data, reduced.data(), count);
  RingAllGather(group, rank, reduced.data(), data, count);
}

}  // namespace msmoe
