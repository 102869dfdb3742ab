// Elastic membership over the Communicator layer: shrink-to-survivors and
// re-grow without restarting the job (§ fault tolerance; the production
// systems this repo models rebuild NCCL communicators from the survivor
// set after an unrecoverable rank loss instead of tearing the job down).
//
// An ElasticComm owns a SEQUENCE of Communicators ("membership epochs").
// Epoch 0 spans global ranks [0, world_size). When the recovery policy
// (src/core/recovery_policy.h) declares a fault PERMANENT, the surviving
// ranks call Shrink(my_global_rank, dead_ranks); the last survivor to
// arrive retires the current epoch's communicator with a stale-epoch
// status and builds a fresh one over the dense survivor remap. Dead ranks
// never call Shrink — they observed the same sticky group error, reached
// the same replicated policy verdict, recognized themselves as the
// culprit, and exited their rank loop. Grow() is the inverse rendezvous
// for re-admitting repaired ranks (the re-grow path of the issue).
//
// Key semantics:
//   * Retired epochs are kept alive for the ElasticComm's lifetime, so
//     stale Communicator pointers and in-flight CommHandles from the old
//     epoch stay valid — they FAIL (Status, via the retired group's sticky
//     abort / MakeFailedHandle) rather than dangle or deadlock.
//   * Rank remap is dense and order-preserving: survivor global ranks
//     sorted ascending, epoch rank = index in that list. EpochRank()
//     returns -1 for ranks not in the current membership.
//   * The rendezvous is itself deadline-bounded by the configured
//     collective timeout: if a survivor never arrives (it died too), the
//     waiters get kDeadlineExceeded instead of hanging — no failure mode
//     blocks forever.
//   * All membership transitions are replicated decisions: every caller
//     passes the SAME dead/readmitted set; a mismatch is a logic error
//     surfaced as kInvalidArgument to all participants of that round.
//
// Thread-safety: every method may be called concurrently from rank
// threads. comm() returns the current epoch's communicator; callers must
// re-fetch it after a successful Shrink/Grow.
#ifndef MSMOE_SRC_COMM_ELASTIC_H_
#define MSMOE_SRC_COMM_ELASTIC_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/status.h"
#include "src/comm/communicator.h"

namespace msmoe {

class ElasticComm {
 public:
  // Epoch 0 is a Communicator over `world_size` ranks; every later epoch
  // spans its members (results stay bitwise deterministic for a given
  // membership).
  explicit ElasticComm(int world_size);

  ElasticComm(const ElasticComm&) = delete;
  ElasticComm& operator=(const ElasticComm&) = delete;

  // Current epoch's communicator. Stable until the next Shrink/Grow commit;
  // stale pointers remain valid (retired) for the ElasticComm's lifetime.
  Communicator* comm() const;
  int epoch() const;
  // Members of the current epoch (sorted global ranks).
  std::vector<int> members() const;
  int size() const;

  // Telemetry of every epoch (retired ones included), concatenated in
  // epoch order — the full comm history of the elastic run.
  std::vector<CommEvent> Events() const;

  // Dense epoch rank of a global rank, or -1 if it is not a member.
  int EpochRank(int global_rank) const;
  // Global rank owning an epoch rank.
  int GlobalRank(int epoch_rank) const;

  // Settings replicated onto the current and every future epoch.
  void SetCollectiveTimeout(double timeout_ms);
  void SetWireModel(double bytes_per_us, double latency_us);
  // Fault plans address epoch-0 global ranks and die with epoch 0: a new
  // epoch starts with a clean plan (the injected fault has "happened").
  void set_fault_plan(FaultPlan* plan);

  // Survivor rendezvous removing `dead_global_ranks` from the membership.
  // Every CURRENT member not in the dead set must call it with the same
  // dead set (dead ranks must not). Blocks until all survivors arrived,
  // then atomically: retire old epoch, build the new communicator, remap.
  // Errors: kInvalidArgument (mismatched dead set / caller dead or not a
  // member / empty survivor set), kDeadlineExceeded (a survivor never
  // arrived within the collective timeout). On error the membership is
  // unchanged and the old epoch stays live.
  Status Shrink(int global_rank, const std::vector<int>& dead_global_ranks);

  // Inverse rendezvous re-admitting repaired ranks: every current member
  // AND every readmitted rank calls Grow with the same readmitted set; the
  // new membership is the sorted union. Same error contract as Shrink.
  Status Grow(int global_rank, const std::vector<int>& readmitted_global_ranks);

 private:
  struct Epoch {
    std::unique_ptr<Communicator> comm;
    std::vector<int> members;  // sorted global ranks
  };

  // Shared rendezvous: `delta` is the dead set (shrink) or readmitted set
  // (grow); `expected` the number of callers this round must collect.
  Status Rendezvous(int global_rank, const std::vector<int>& delta, bool shrink);

  void CommitLocked(const std::vector<int>& next_members);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Epoch> epochs_;  // epochs_.back() is current; others retired

  // Rendezvous round state (guarded by mu_).
  int round_ = 0;            // bumped at every commit, wakes waiters
  int pending_arrivals_ = 0;
  int pending_expected_ = 0;
  bool pending_shrink_ = false;
  std::vector<int> pending_delta_;  // sorted
  Status pending_error_;            // poisons the in-flight round
  std::vector<Status> resolved_;    // per-round outcome, indexed by round

  // Replicated settings for future epochs (guarded by mu_).
  double timeout_ms_ = 0.0;
  double wire_bytes_per_us_ = 0.0;
  double wire_latency_us_ = 0.0;
};

}  // namespace msmoe

#endif  // MSMOE_SRC_COMM_ELASTIC_H_
