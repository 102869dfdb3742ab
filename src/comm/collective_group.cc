#include "src/comm/collective_group.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <string>

#include "src/base/parallel_for.h"

namespace msmoe {
namespace {

// Persistent rank threads. RunOnRanks fires for every collective step of
// every trainer loop, so spawning and joining world_size std::threads per
// call dominated small steps; instead rank closures are dispatched onto
// long-lived threads from this pool. Each Run still dedicates one live
// thread per rank for its whole duration (ranks block inside collective
// barriers, so they can never be queued), the pool grows on demand, and
// threads return to the free list before the caller is released — so
// back-to-back Runs reuse the same threads. Nested RunOnRanks calls (a rank
// spawning sub-ranks) simply acquire more threads. Threads are joined by
// the pool destructor at process exit.
class RankThreadPool {
 public:
  static RankThreadPool& Get() {
    static RankThreadPool pool;
    return pool;
  }

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::function<void()> task;
    bool has_task = false;
    bool shutdown = false;
    std::thread thread;
  };

  // Checks out one pool thread for a long-lived occupant (PooledThread).
  // The occupant's closure must end by calling ReleaseWorker so the thread
  // rejoins the free list.
  Worker* AcquireWorker() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      all_.push_back(std::make_unique<Worker>());
      Worker* spawned = all_.back().get();
      spawned->thread = std::thread([spawned] { WorkerLoop(spawned); });
      return spawned;
    }
    Worker* worker = free_.back();
    free_.pop_back();
    return worker;
  }

  void Dispatch(Worker* worker, std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->task = std::move(task);
      worker->has_task = true;
    }
    worker->cv.notify_one();
  }

  void ReleaseWorker(Worker* worker) { Release(worker); }

  // Runs fn(0) .. fn(world_size - 1) concurrently, one dedicated pool thread
  // per rank, and returns once every rank finished AND every thread is back
  // in the free list. fn must not throw (RunOnRanksStatus wraps it).
  void Run(int world_size, const std::function<void(int)>& fn) {
    std::vector<Worker*> workers(static_cast<size_t>(world_size), nullptr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int rank = 0; rank < world_size; ++rank) {
        if (free_.empty()) {
          all_.push_back(std::make_unique<Worker>());
          Worker* spawned = all_.back().get();
          spawned->thread = std::thread([spawned] { WorkerLoop(spawned); });
          workers[static_cast<size_t>(rank)] = spawned;
        } else {
          workers[static_cast<size_t>(rank)] = free_.back();
          free_.pop_back();
        }
      }
    }
    struct Join {
      std::mutex mu;
      std::condition_variable cv;
      int remaining;
    } join{{}, {}, world_size};
    for (int rank = 0; rank < world_size; ++rank) {
      Worker* worker = workers[static_cast<size_t>(rank)];
      auto task = [this, &fn, &join, worker, rank] {
        fn(rank);
        Release(worker);  // back on the free list before the caller resumes
        std::lock_guard<std::mutex> lock(join.mu);
        if (--join.remaining == 0) {
          join.cv.notify_all();
        }
      };
      {
        std::lock_guard<std::mutex> lock(worker->mu);
        worker->task = std::move(task);
        worker->has_task = true;
      }
      worker->cv.notify_one();
    }
    std::unique_lock<std::mutex> lock(join.mu);
    join.cv.wait(lock, [&join] { return join.remaining == 0; });
  }

  ~RankThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& worker : all_) {
        std::lock_guard<std::mutex> worker_lock(worker->mu);
        worker->shutdown = true;
        worker->cv.notify_one();
      }
    }
    for (auto& worker : all_) {
      worker->thread.join();
    }
  }

 private:
  static void WorkerLoop(Worker* worker) {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(worker->mu);
        worker->cv.wait(lock, [worker] { return worker->has_task || worker->shutdown; });
        if (!worker->has_task) {
          return;  // shutdown
        }
        task = std::move(worker->task);
        worker->has_task = false;
      }
      task();
    }
  }

  void Release(Worker* worker) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(worker);
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<Worker>> all_;
  std::vector<Worker*> free_;
};

}  // namespace

// --------------------------------------------------------------------------
// PooledThread

struct PooledThread::State {
  std::mutex mu;
  std::condition_variable cv;        // wakes the loop on submit/shutdown
  std::condition_variable cv_idle;   // wakes Drain()/dtor when queue empties
  std::deque<std::function<void()>> queue;
  bool shutdown = false;
  bool running = false;  // a task is currently executing
  bool exited = false;   // the loop returned (thread back in the pool)
};

PooledThread::PooledThread() : state_(std::make_shared<State>()) {
  RankThreadPool& pool = RankThreadPool::Get();
  RankThreadPool::Worker* worker = pool.AcquireWorker();
  std::shared_ptr<State> state = state_;
  pool.Dispatch(worker, [state, worker, &pool] {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(state->mu);
        state->running = false;
        if (state->queue.empty()) {
          state->cv_idle.notify_all();
        }
        state->cv.wait(lock,
                       [&state] { return !state->queue.empty() || state->shutdown; });
        if (state->queue.empty()) {
          // Back on the free list before the destructor can return, so the
          // next acquire reuses this thread instead of spawning a cold one.
          pool.ReleaseWorker(worker);
          state->exited = true;
          state->cv_idle.notify_all();
          return;
        }
        task = std::move(state->queue.front());
        state->queue.pop_front();
        state->running = true;
      }
      task();
    }
  });
}

PooledThread::~PooledThread() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->shutdown = true;
  state_->cv.notify_one();
  // The loop drains every queued task before honoring shutdown, so pending
  // async collectives complete (or fail via their group) rather than vanish.
  state_->cv_idle.wait(lock, [this] { return state_->exited; });
}

void PooledThread::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    MSMOE_CHECK(!state_->shutdown) << "Submit on a shut-down PooledThread";
    state_->queue.push_back(std::move(task));
  }
  state_->cv.notify_one();
}

void PooledThread::Drain() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv_idle.wait(
      lock, [this] { return state_->queue.empty() && !state_->running; });
}

CollectiveGroup::CollectiveGroup(int size)
    : size_(size),
      send_slots_(static_cast<size_t>(size), nullptr),
      counts_(static_cast<size_t>(size) * static_cast<size_t>(size), 0),
      recv_capacity_(static_cast<size_t>(size), 0),
      scalars_(static_cast<size_t>(size), 0.0),
      arrived_members_(static_cast<size_t>(size), 0),
      recovery_barrier_(size) {
  MSMOE_CHECK_GT(size, 0);
}

Status CollectiveGroup::AbortedExit(std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [this] { return readers_ == 0; });
  return abort_status_;
}

Status CollectiveGroup::SyncPoint(int member) {
  std::unique_lock<std::mutex> lock(mu_);
  return SyncPointLocked(lock, member, /*opens_reads=*/false);
}

Status CollectiveGroup::EnterCollective(int member) {
  std::unique_lock<std::mutex> lock(mu_);
  return SyncPointLocked(lock, member, /*opens_reads=*/true);
}

Status CollectiveGroup::ExitCollective(int member, std::optional<uint64_t> wire_bytes) {
  const bool on_wire = wire_bytes.has_value() && wire_model_enabled();
  const auto wire_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::micro>(on_wire ? WireTimeUs(*wire_bytes) : 0.0));
  std::unique_lock<std::mutex> lock(mu_);
  // Only AbortedExit waits on readers_, and only once the group is aborted:
  // a healthy group skips the wake-up.
  if (--readers_ == 0 && !abort_status_.ok()) {
    cv_.notify_all();
  }
  if (on_wire && cv_.wait_until(lock, wire_deadline, [this] { return !abort_status_.ok(); })) {
    return AbortedExit(lock);
  }
  return SyncPointLocked(lock, member, /*opens_reads=*/false);
}

Status CollectiveGroup::SyncPointLocked(std::unique_lock<std::mutex>& lock, int member,
                                        bool opens_reads) {
  if (!abort_status_.ok()) {
    return AbortedExit(lock);
  }
  const uint64_t generation = generation_;
  if (member >= 0) {
    arrived_members_[static_cast<size_t>(member)] = 1;
  }
  if (++arrived_ == size_) {
    arrived_ = 0;
    std::fill(arrived_members_.begin(), arrived_members_.end(), 0);
    ++generation_;
    if (opens_reads) {
      readers_ = size_;
    }
    cv_.notify_all();
    return Status::Ok();
  }
  const auto released = [&] { return generation_ != generation || !abort_status_.ok(); };
  if (timeout_ms_ <= 0.0) {
    cv_.wait(lock, released);
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms_));
    if (!cv_.wait_until(lock, deadline, released)) {
      // The barrier is still open past the deadline: some member never
      // arrived. This waiter raises the first error; every peer (current
      // and future) observes the same sticky status. The arrival bitmap
      // names the missing members — the lowest-indexed one becomes the
      // culprit the recovery policy attributes the fault to.
      std::string missing;
      int culprit = -1;
      for (int m = 0; m < size_; ++m) {
        if (arrived_members_[static_cast<size_t>(m)] == 0) {
          if (culprit < 0) {
            culprit = m;
          }
          missing += (missing.empty() ? "" : ",") + std::to_string(m);
        }
      }
      abort_status_ = DeadlineExceeded(
          "collective barrier timed out after " + std::to_string(timeout_ms_) +
          " ms: a member never arrived" +
          (missing.empty() ? "" : " (missing ranks: " + missing + ")"));
      aborted_.store(true, std::memory_order_release);
      if (culprit_rank_ < 0) {
        culprit_rank_ = culprit;
      }
      cv_.notify_all();
      return AbortedExit(lock);
    }
  }
  if (generation_ != generation) {
    // The barrier closed before any cancellation: this collective phase
    // completed even if an abort was raised immediately after.
    return Status::Ok();
  }
  return AbortedExit(lock);
}

Status CollectiveGroup::Barrier(int member) { return SyncPoint(member); }

void CollectiveGroup::Abort(Status status, int culprit_rank) {
  MSMOE_CHECK(!status.ok()) << "CollectiveGroup::Abort needs a non-OK status";
  std::lock_guard<std::mutex> lock(mu_);
  if (abort_status_.ok()) {
    abort_status_ = std::move(status);
    aborted_.store(true, std::memory_order_release);
  }
  if (culprit_rank_ < 0 && culprit_rank >= 0) {
    culprit_rank_ = culprit_rank;
  }
  cv_.notify_all();
}

Status CollectiveGroup::status() const {
  if (!aborted_.load(std::memory_order_acquire)) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(mu_);
  return abort_status_;
}

int CollectiveGroup::culprit_rank() const {
  if (!aborted_.load(std::memory_order_acquire)) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return culprit_rank_;
}

void CollectiveGroup::Retire(Status status) {
  MSMOE_CHECK(!status.ok()) << "CollectiveGroup::Retire needs a non-OK status";
  retired_.store(true, std::memory_order_release);
  // Keeps the first (fault) status if one is already set — the stale-epoch
  // notice only becomes the sticky error on a healthy group.
  Abort(std::move(status));
}

void CollectiveGroup::ResetAbort() {
  std::lock_guard<std::mutex> lock(mu_);
  if (retired_.load(std::memory_order_acquire)) {
    // A retired group stays failed forever: stragglers issuing collectives
    // against the replaced membership must keep surfacing the sticky
    // status, never rendezvous.
    cv_.notify_all();
    return;
  }
  abort_status_ = Status::Ok();
  aborted_.store(false, std::memory_order_release);
  arrived_ = 0;
  std::fill(arrived_members_.begin(), arrived_members_.end(), 0);
  culprit_rank_ = -1;
  // Release any waiter stranded on the pre-abort generation (there are none
  // under the RecoveryBarrier protocol, but a bumped generation makes the
  // reset safe even against stragglers).
  ++generation_;
  cv_.notify_all();
}

void CollectiveGroup::RecoveryBarrier(int member) {
  MSMOE_CHECK(!retired()) << "RecoveryBarrier on a retired (stale-epoch) group";
  RecoveryArrive();
  if (member == 0) {
    ResetAbort();
  }
  RecoveryArrive();
}

void CollectiveGroup::PublishCounts(int member, const std::vector<int64_t>& counts) {
  for (int dst = 0; dst < size_; ++dst) {
    counts_[static_cast<size_t>(member * size_ + dst)] = counts[static_cast<size_t>(dst)];
  }
}

Status CollectiveGroup::ExchangeScalars(int member, double value, std::vector<double>* out,
                                        uint64_t* wire_out) {
  scalars_[static_cast<size_t>(member)] = value;
  MSMOE_RETURN_IF_ERROR(EnterCollective(member));
  *out = scalars_;
  const uint64_t volume = RingVolume(sizeof(double));
  AccountOnce(member, volume);
  if (wire_out != nullptr) {
    *wire_out = volume;
  }
  return ExitCollective(member);
}

Status CollectiveGroup::ExchangeCounts(int member, const std::vector<int64_t>& send_counts,
                                       std::vector<int64_t>* all_counts) {
  MSMOE_CHECK_EQ(static_cast<int>(send_counts.size()), size_);
  PublishCounts(member, send_counts);
  MSMOE_RETURN_IF_ERROR(EnterCollective(member));
  *all_counts = counts_;
  return ExitCollective(member);
}

Status RunOnRanksStatus(int world_size, const std::function<void(int)>& fn,
                        CollectiveGroup* abort_group) {
  MSMOE_CHECK_GT(world_size, 0);
  std::mutex mu;
  Status first_failure;
  auto report = [&](int rank, const std::string& what) {
    Status failure =
        Internal("rank " + std::to_string(rank) + " failed: " + what);
    {
      std::lock_guard<std::mutex> lock(mu);
      if (first_failure.ok()) {
        first_failure = failure;
      }
    }
    if (abort_group != nullptr) {
      abort_group->Abort(std::move(failure));
    }
  };
  RankThreadPool::Get().Run(world_size, [&fn, &report, world_size](int rank) {
    // CHECK failures on a rank thread throw (instead of abort) so they can
    // cancel the group and surface on the calling thread. The scopes are
    // per-task: the persistent pool thread leaves them before going idle.
    ScopedThrowOnFatal throw_on_fatal;
    const ScopedRankThread rank_thread(world_size);
    try {
      fn(rank);
    } catch (const std::exception& e) {
      report(rank, e.what());
    } catch (...) {
      report(rank, "unknown exception");
    }
  });
  return first_failure;
}

void RunOnRanks(int world_size, const std::function<void(int)>& fn) {
  const Status status = RunOnRanksStatus(world_size, fn, nullptr);
  MSMOE_CHECK(status.ok()) << status.ToString();
}

}  // namespace msmoe
