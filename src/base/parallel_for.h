// Intra-rank data parallelism: ParallelFor, the only entry point kernel
// code uses, over worker threads that belong to the calling thread.
//
// Layering (see DESIGN.md "Compute backend"): the comm layer runs one
// long-lived thread per simulated GPU rank (RunOnRanks); *within* a rank the
// compute kernels (GEMM row panels, GroupedGemm expert groups, attention
// heads) split their index range across that rank thread's own workers, the
// thread-rank analogue of a GPU's own SMs. Every thread that calls
// ParallelFor owns a thread_local pool that grows on demand to (cap - 1)
// workers and is joined when the owning thread exits. An R-rank run with
// cap W therefore runs shards on R·W threads, and no rank queues behind
// another rank's shards. Nested ParallelFor calls (a shard that itself calls
// ParallelFor) degrade to inline execution, so workers own no pool, never
// block on further shards, and the pool cannot deadlock on itself.
//
// Determinism contract: ParallelFor only partitions the index range into
// contiguous shards; it never introduces cross-shard reductions. Kernels
// built on it keep every output element's accumulation order independent of
// the shard boundaries, so results are bit-identical for any worker count
// (MSMOE_NUM_THREADS ∈ {1, 4, ...}) — the property the fused-ops bitwise
// tests and fault-replay loss checks rely on.
//
// Sizing: the cap counts the workers of one calling thread, i.e. of one
// rank. SetParallelWorkerCount sets it at runtime (benches use it to measure
// 1-vs-N-worker scaling in one process); otherwise MSMOE_NUM_THREADS when
// set (clamped to [1, 64]); otherwise the machine budget,
// hardware_concurrency clamped to 16, divided across the ranks of the
// RunOnRanks the thread serves: max(1, budget / R). So a default R-rank run
// keeps about one compute thread per core rather than R. Outside RunOnRanks
// the whole budget applies.
#ifndef MSMOE_SRC_BASE_PARALLEL_FOR_H_
#define MSMOE_SRC_BASE_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace msmoe {

// The calling thread's worker cap used by ParallelFor (>= 1). This counts
// the calling thread: a value of 1 means every ParallelFor runs inline.
int ParallelWorkerCount();

// Sets the worker cap of every calling thread (clamped to [1, 64]); a
// count <= 0 clears the override, so MSMOE_NUM_THREADS or the divided
// default applies again. Takes effect for subsequent ParallelFor calls;
// already-spawned workers are kept. While set, the cap is not divided
// across the ranks of a run. Returns the previous override (0 when none
// was set), so `SetParallelWorkerCount(previous)` restores it exactly;
// restoring ParallelWorkerCount() instead would pin the default.
int SetParallelWorkerCount(int count);

// While alive, marks the current thread as one of the `ranks` rank threads
// of a run, which share the machine budget of an unset cap. RunOnRanks
// opens one on each rank thread.
class ScopedRankThread {
 public:
  explicit ScopedRankThread(int ranks);
  ~ScopedRankThread();

  ScopedRankThread(const ScopedRankThread&) = delete;
  ScopedRankThread& operator=(const ScopedRankThread&) = delete;

 private:
  int previous_;
};

// True while the current thread is executing a ParallelFor shard (pool
// worker or the caller running its own shard). Nested ParallelFor calls see
// this and run inline.
bool InParallelWorker();

// Invokes fn over a disjoint partition of [0, n): fn(begin, end) with
// 0 <= begin < end <= n, covering every index exactly once. Shards are
// contiguous and at least `grain` long (except possibly the last), capped at
// ParallelWorkerCount() shards. The caller executes one shard itself and
// blocks until all shards finish. Runs fn(0, n) inline when n <= grain, the
// cap is 1, or the call is nested inside another ParallelFor shard.
//
// Exceptions thrown by fn on any shard (including MSMOE_CHECK failures on
// pool workers, which are converted to FatalError) are captured; the first
// one is rethrown on the calling thread after all shards complete.
void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t begin, int64_t end)>& fn);

}  // namespace msmoe

#endif  // MSMOE_SRC_BASE_PARALLEL_FOR_H_
