// Fault classification and retry policy for the elastic trainer.
//
// Production MoE training distinguishes faults a retry can clear (a slow
// link, a transient NIC stall, a preempted host that comes back) from
// faults that keep recurring on the same rank (a dying GPU, flapping HBM).
// The first kind is handled by rollback + replay; the second must remove
// the rank from the job before it burns the whole replay budget.
//
// RecoveryPolicy is a PURE, deterministic classifier: every rank runs an
// identical replica over the identical fault sequence (the sticky group
// error is the same object on all ranks, and the suspect attribution comes
// from the shared communicator state), so every replica reaches the same
// verdict without any extra coordination — the same trick the trainer's
// rollback protocol already plays.
//
// Verdict table (see DESIGN.md "Elastic recovery"):
//   kTransient  retryable code, retry budget left, suspect under the
//               strike limit        -> rollback + exponential backoff + replay
//   kPermanent  suspect accumulated `rank_strike_limit` strikes, or the
//               retry budget ran out with a known suspect
//                                   -> shrink to survivors (src/comm/elastic.h)
//   kFatal      non-retryable, non-rollback-repairable code (config/logic
//               errors), or budget exhausted with NO suspect to evict
//                                   -> surface loudly; do not retry
//
// kDataLoss (checksum divergence) is special-cased: it is NOT retryable as
// an op (re-running the op reproduces the corrupt payload) but IS
// rollback-repairable, so it classifies like a retryable fault here — the
// recovery action is a rollback, which discards the corruption.
#ifndef MSMOE_SRC_CORE_RECOVERY_POLICY_H_
#define MSMOE_SRC_CORE_RECOVERY_POLICY_H_

#include <string>
#include <vector>

#include "src/base/status.h"

namespace msmoe {

enum class FaultVerdict {
  kTransient = 0,  // rollback + backoff + replay on the same membership
  kPermanent,      // evict the culprit: shrink to survivors
  kFatal,          // unrecoverable; surface the error
};

const char* FaultVerdictName(FaultVerdict verdict);

struct RecoveryPolicyConfig {
  // Consecutive failed recovery attempts (without an intervening successful
  // step) before a fault stops being "transient".
  int max_retries = 3;
  // Exponential backoff before each retry: min(base * multiplier^(attempt-1),
  // max). Models the production drain/requeue delay, scaled down.
  double backoff_base_ms = 1.0;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 1000.0;
  // Strikes (failures attributed to the same rank) before that rank is
  // declared permanently failed even if the retry budget remains.
  int rank_strike_limit = 2;
};

Status ValidateRecoveryPolicyConfig(const RecoveryPolicyConfig& config);

// True when rolling back to the last snapshot and replaying can clear the
// fault: a retryable code (IsRetryableFault) or kDataLoss (see above).
// Every other code is a logic or config error that fails identically on
// every attempt.
bool IsRollbackRepairable(const Status& status);

struct RecoveryDecision {
  FaultVerdict verdict = FaultVerdict::kFatal;
  // Sleep before retrying (kTransient only; 0 otherwise).
  double backoff_ms = 0.0;
  // 1-based consecutive-failure attempt this decision responds to.
  int attempt = 0;
  // The rank this failure is attributed to (-1 unknown). For kPermanent
  // this is the rank to evict.
  int culprit_rank = -1;
  // Human-readable classification rationale (logged into RecoveryEvents).
  std::string reason;
};

class RecoveryPolicy {
 public:
  explicit RecoveryPolicy(const RecoveryPolicyConfig& config);

  // Classifies the first observed error of a failed step. `suspect_rank` is
  // the best attribution available (Communicator::SuspectRank, straggler
  // report, ...); -1 if unknown. Deterministic: identical call sequences
  // yield identical decisions on every replica.
  RecoveryDecision OnFailure(const Status& status, int suspect_rank);

  // A step completed cleanly: the consecutive-failure counter resets.
  // Strikes do NOT reset — a rank that keeps failing every few steps is
  // exactly the recurring-fault signature the strike limit exists for.
  void OnStepSuccess();

  int attempt() const { return attempt_; }
  int strikes(int rank) const;

 private:
  RecoveryPolicyConfig config_;
  int attempt_ = 0;                // consecutive failures, reset on success
  std::vector<int> strikes_;       // indexed by rank, grown on demand
};

}  // namespace msmoe

#endif  // MSMOE_SRC_CORE_RECOVERY_POLICY_H_
