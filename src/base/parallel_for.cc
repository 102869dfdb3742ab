#include "src/base/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/logging.h"
#include "src/obs/metrics.h"

namespace msmoe {
namespace {

constexpr int kMaxWorkers = 64;

// MSMOE_NUM_THREADS clamped to [1, 64], or 0 when it is unset or invalid.
int EnvWorkerCap() {
  if (const char* env = std::getenv("MSMOE_NUM_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) {
      return std::min(parsed, kMaxWorkers);
    }
  }
  return 0;
}

// The machine budget an unset cap shares out: hardware_concurrency clamped
// to 16, so a default run stays at about one compute thread per core.
int MachineWorkers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(std::min(hc, 16u));
}

// 0 = "not overridden yet": fall back to MSMOE_NUM_THREADS, then to the
// machine budget divided across the calling thread's run.
std::atomic<int> g_worker_cap{0};

thread_local bool tls_in_parallel_shard = false;
thread_local int tls_rank_share = 1;  // ranks of the run this thread serves

// One calling thread's workers. Threads are spawned on first demand (only
// the owner calls EnsureWorkers) and joined when the owner thread exits.
class WorkerPool {
 public:
  static WorkerPool& ForThisThread() {
    thread_local WorkerPool pool;
    return pool;
  }

  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void EnsureWorkers(int count) {
    while (static_cast<int>(threads_.size()) < count) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& thread : threads_) {
      thread.join();
    }
  }

 private:
  void WorkerLoop() {
    tls_in_parallel_shard = true;  // nested ParallelFor on a worker inlines
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;  // shutdown with a drained queue
        }
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;  // owner thread only
};

// Completion state of one ParallelFor call, shared by its shards.
struct ForkState {
  std::mutex mu;
  std::condition_variable cv;
  int remaining = 0;
  std::exception_ptr error;

  void Record(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (!error) {
      error = std::move(e);
    }
  }
  void Finish() {
    std::lock_guard<std::mutex> lock(mu);
    --remaining;
    if (remaining == 0) {
      cv.notify_all();
    }
  }
};

}  // namespace

int ParallelWorkerCount() {
  const int cap = g_worker_cap.load(std::memory_order_relaxed);
  if (cap > 0) {
    return cap;
  }
  static const int env_cap = EnvWorkerCap();
  if (env_cap > 0) {
    return env_cap;
  }
  static const int machine = MachineWorkers();
  return std::max(1, machine / tls_rank_share);
}

int SetParallelWorkerCount(int count) {
  return g_worker_cap.exchange(count <= 0 ? 0 : std::min(count, kMaxWorkers),
                               std::memory_order_relaxed);
}

bool InParallelWorker() { return tls_in_parallel_shard; }

ScopedRankThread::ScopedRankThread(int ranks) : previous_(tls_rank_share) {
  tls_rank_share = std::max(ranks, 1);
}

ScopedRankThread::~ScopedRankThread() { tls_rank_share = previous_; }

void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) {
    return;
  }
  grain = std::max<int64_t>(grain, 1);
  const int64_t max_shards = (n + grain - 1) / grain;
  const int shards = static_cast<int>(
      std::min<int64_t>(ParallelWorkerCount(), max_shards));
  if (shards <= 1 || tls_in_parallel_shard) {
    fn(0, n);
    return;
  }

  // Registry feed for non-inline dispatches only: the inline fast path above
  // must stay a branch, and per-region (not per-shard-iteration) granularity
  // keeps the cost off the GEMM inner loops.
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    static const MetricId regions_id =
        registry.Counter("par.regions", "ParallelFor regions fanned out");
    static const MetricId shards_id =
        registry.Counter("par.shards", "ParallelFor shards dispatched");
    registry.Add(regions_id, 1.0);
    registry.Add(shards_id, static_cast<double>(shards));
  }

  WorkerPool& pool = WorkerPool::ForThisThread();
  pool.EnsureWorkers(shards - 1);
  ForkState state;
  state.remaining = shards - 1;
  // Contiguous balanced shards; shard s covers [s*n/shards, (s+1)*n/shards).
  for (int s = 1; s < shards; ++s) {
    const int64_t begin = n * s / shards;
    const int64_t end = n * (s + 1) / shards;
    pool.Submit([&state, &fn, begin, end] {
      // CHECK failures on pool workers must not abort the process before the
      // caller gets to observe them.
      ScopedThrowOnFatal throw_on_fatal;
      try {
        fn(begin, end);
      } catch (...) {
        state.Record(std::current_exception());
      }
      state.Finish();
    });
  }
  // The caller runs shard 0 itself; mark it as a shard so nesting inlines.
  tls_in_parallel_shard = true;
  try {
    fn(0, n / shards);
  } catch (...) {
    state.Record(std::current_exception());
  }
  tls_in_parallel_shard = false;
  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.cv.wait(lock, [&state] { return state.remaining == 0; });
  }
  if (state.error) {
    std::rethrow_exception(state.error);
  }
}

}  // namespace msmoe
