#include "src/core/recovery_policy.h"

#include <algorithm>
#include <cmath>

#include "src/base/logging.h"

namespace msmoe {

const char* FaultVerdictName(FaultVerdict verdict) {
  switch (verdict) {
    case FaultVerdict::kTransient:
      return "transient";
    case FaultVerdict::kPermanent:
      return "permanent";
    case FaultVerdict::kFatal:
      return "fatal";
  }
  return "unknown";
}

Status ValidateRecoveryPolicyConfig(const RecoveryPolicyConfig& config) {
  if (config.max_retries < 0) {
    return InvalidArgument("max_retries must be >= 0");
  }
  if (config.backoff_base_ms < 0.0 || config.backoff_max_ms < 0.0) {
    return InvalidArgument("backoff bounds must be >= 0");
  }
  if (config.backoff_multiplier < 1.0) {
    return InvalidArgument("backoff_multiplier must be >= 1");
  }
  if (config.rank_strike_limit < 1) {
    return InvalidArgument("rank_strike_limit must be >= 1");
  }
  return Status::Ok();
}

bool IsRollbackRepairable(const Status& status) {
  return IsRetryableFault(status) || status.code() == StatusCode::kDataLoss;
}

RecoveryPolicy::RecoveryPolicy(const RecoveryPolicyConfig& config) : config_(config) {
  MSMOE_CHECK(ValidateRecoveryPolicyConfig(config).ok())
      << ValidateRecoveryPolicyConfig(config).ToString();
}

RecoveryDecision RecoveryPolicy::OnFailure(const Status& status, int suspect_rank) {
  MSMOE_CHECK(!status.ok()) << "OnFailure needs a non-OK status";
  RecoveryDecision decision;
  decision.attempt = ++attempt_;
  decision.culprit_rank = suspect_rank;

  if (!IsRollbackRepairable(status)) {
    decision.verdict = FaultVerdict::kFatal;
    decision.reason = std::string("non-recoverable status code ") +
                      StatusCodeName(status.code());
    return decision;
  }

  if (suspect_rank >= 0) {
    if (suspect_rank >= static_cast<int>(strikes_.size())) {
      strikes_.resize(static_cast<size_t>(suspect_rank) + 1, 0);
    }
    const int strikes = ++strikes_[static_cast<size_t>(suspect_rank)];
    if (strikes >= config_.rank_strike_limit) {
      decision.verdict = FaultVerdict::kPermanent;
      decision.reason = "rank " + std::to_string(suspect_rank) + " reached " +
                        std::to_string(strikes) + "/" +
                        std::to_string(config_.rank_strike_limit) +
                        " strikes (recurring fault)";
      return decision;
    }
  }

  if (attempt_ > config_.max_retries) {
    if (suspect_rank >= 0) {
      // The budget ran out but we know who keeps failing: evict rather than
      // give up on the whole job.
      decision.verdict = FaultVerdict::kPermanent;
      decision.reason = "retry budget exhausted (" + std::to_string(attempt_ - 1) +
                        "/" + std::to_string(config_.max_retries) +
                        " retries used); evicting suspect rank " +
                        std::to_string(suspect_rank);
    } else {
      decision.verdict = FaultVerdict::kFatal;
      decision.reason = "retry budget exhausted with no suspect to evict";
    }
    return decision;
  }

  decision.verdict = FaultVerdict::kTransient;
  decision.backoff_ms =
      std::min(config_.backoff_base_ms *
                   std::pow(config_.backoff_multiplier,
                            static_cast<double>(decision.attempt - 1)),
               config_.backoff_max_ms);
  decision.reason = std::string("retryable ") + StatusCodeName(status.code()) +
                    " (attempt " + std::to_string(decision.attempt) + "/" +
                    std::to_string(config_.max_retries) + ")";
  return decision;
}

void RecoveryPolicy::OnStepSuccess() { attempt_ = 0; }

int RecoveryPolicy::strikes(int rank) const {
  if (rank < 0 || rank >= static_cast<int>(strikes_.size())) {
    return 0;
  }
  return strikes_[static_cast<size_t>(rank)];
}

}  // namespace msmoe
