#include "src/comm/elastic.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <utility>

#include "src/base/logging.h"

namespace msmoe {

namespace {

std::vector<int> SortedUnique(std::vector<int> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

bool Contains(const std::vector<int>& sorted, int value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

std::string JoinRanks(const std::vector<int>& ranks) {
  std::string out;
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += std::to_string(ranks[i]);
  }
  return out;
}

}  // namespace

ElasticComm::ElasticComm(int world_size) {
  MSMOE_CHECK_GT(world_size, 0);
  Epoch first;
  first.comm = std::make_unique<Communicator>(world_size);
  first.comm->set_epoch(0);
  first.members.resize(static_cast<size_t>(world_size));
  std::iota(first.members.begin(), first.members.end(), 0);
  epochs_.push_back(std::move(first));
}

Communicator* ElasticComm::comm() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.back().comm.get();
}

int ElasticComm::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(epochs_.size()) - 1;
}

std::vector<int> ElasticComm::members() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.back().members;
}

int ElasticComm::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(epochs_.back().members.size());
}

std::vector<CommEvent> ElasticComm::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CommEvent> all;
  for (const Epoch& epoch : epochs_) {
    const std::vector<CommEvent> events = epoch.comm->telemetry().Events();
    all.insert(all.end(), events.begin(), events.end());
  }
  return all;
}

int ElasticComm::EpochRank(int global_rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<int>& members = epochs_.back().members;
  const auto it = std::lower_bound(members.begin(), members.end(), global_rank);
  if (it == members.end() || *it != global_rank) {
    return -1;
  }
  return static_cast<int>(it - members.begin());
}

int ElasticComm::GlobalRank(int epoch_rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<int>& members = epochs_.back().members;
  MSMOE_CHECK_GE(epoch_rank, 0);
  MSMOE_CHECK_LT(epoch_rank, static_cast<int>(members.size()));
  return members[static_cast<size_t>(epoch_rank)];
}

void ElasticComm::SetCollectiveTimeout(double timeout_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  timeout_ms_ = timeout_ms;
  epochs_.back().comm->SetCollectiveTimeout(timeout_ms);
}

void ElasticComm::SetWireModel(double bytes_per_us, double latency_us) {
  std::lock_guard<std::mutex> lock(mu_);
  wire_bytes_per_us_ = bytes_per_us;
  wire_latency_us_ = latency_us;
  epochs_.back().comm->SetWireModel(bytes_per_us, latency_us);
}

void ElasticComm::set_fault_plan(FaultPlan* plan) {
  std::lock_guard<std::mutex> lock(mu_);
  // Installed on the CURRENT epoch only: plans address epoch-0 global ranks
  // and the injected fault has "happened" once the membership changes.
  epochs_.back().comm->set_fault_plan(plan);
}

Status ElasticComm::Shrink(int global_rank, const std::vector<int>& dead_global_ranks) {
  return Rendezvous(global_rank, dead_global_ranks, /*shrink=*/true);
}

Status ElasticComm::Grow(int global_rank,
                         const std::vector<int>& readmitted_global_ranks) {
  return Rendezvous(global_rank, readmitted_global_ranks, /*shrink=*/false);
}

void ElasticComm::CommitLocked(const std::vector<int>& next_members) {
  const int next_epoch = static_cast<int>(epochs_.size());
  epochs_.back().comm->Retire(FailedPrecondition(
      "stale communicator: epoch " + std::to_string(next_epoch - 1) +
      " was retired by an elastic membership change; epoch " +
      std::to_string(next_epoch) + " spans global ranks [" +
      JoinRanks(next_members) + "]"));
  Epoch fresh;
  fresh.comm = std::make_unique<Communicator>(static_cast<int>(next_members.size()));
  fresh.comm->set_epoch(next_epoch);
  if (timeout_ms_ > 0.0) {
    fresh.comm->SetCollectiveTimeout(timeout_ms_);
  }
  if (wire_bytes_per_us_ > 0.0) {
    fresh.comm->SetWireModel(wire_bytes_per_us_, wire_latency_us_);
  }
  fresh.members = next_members;
  epochs_.push_back(std::move(fresh));
}

Status ElasticComm::Rendezvous(int global_rank, const std::vector<int>& delta,
                               bool shrink) {
  const std::vector<int> sorted = SortedUnique(delta);
  std::unique_lock<std::mutex> lock(mu_);
  const std::vector<int> current = epochs_.back().members;  // copy: commit reallocates
  const bool caller_is_member = Contains(current, global_rank);

  // Validate the caller's view of the transition before joining the round.
  if (sorted.empty()) {
    return InvalidArgument("elastic rendezvous: empty membership delta");
  }
  if (shrink) {
    if (!caller_is_member) {
      return InvalidArgument("Shrink caller " + std::to_string(global_rank) +
                             " is not a member of the current epoch");
    }
    if (Contains(sorted, global_rank)) {
      return InvalidArgument("Shrink caller " + std::to_string(global_rank) +
                             " is in the dead set; dead ranks must not rendezvous");
    }
    for (int dead : sorted) {
      if (!Contains(current, dead)) {
        return InvalidArgument("Shrink dead rank " + std::to_string(dead) +
                               " is not a member of the current epoch");
      }
    }
    if (sorted.size() >= current.size()) {
      return InvalidArgument("Shrink would leave no survivors");
    }
  } else {
    for (int readmitted : sorted) {
      if (Contains(current, readmitted)) {
        return InvalidArgument("Grow readmitted rank " + std::to_string(readmitted) +
                               " is already a member");
      }
    }
    if (!caller_is_member && !Contains(sorted, global_rank)) {
      return InvalidArgument("Grow caller " + std::to_string(global_rank) +
                             " is neither a member nor readmitted");
    }
  }
  const int expected = shrink
                           ? static_cast<int>(current.size() - sorted.size())
                           : static_cast<int>(current.size() + sorted.size());

  const int my_round = round_;
  if (pending_arrivals_ == 0) {
    pending_delta_ = sorted;
    pending_shrink_ = shrink;
    pending_expected_ = expected;
    pending_error_ = Status::Ok();
  } else if (pending_shrink_ != shrink || pending_delta_ != sorted) {
    // Replicated decisions diverged; poison the round so EVERY participant
    // sees the same error instead of half committing a different membership.
    pending_error_ = InvalidArgument(
        "elastic rendezvous: ranks disagree on the membership delta (["
        + JoinRanks(pending_delta_) + "] vs [" + JoinRanks(sorted) + "])");
  }
  ++pending_arrivals_;

  if (pending_arrivals_ == pending_expected_) {
    // Last arrival resolves the round: commit (or propagate the poison).
    Status result = pending_error_;
    if (result.ok()) {
      std::vector<int> next;
      if (shrink) {
        std::set_difference(current.begin(), current.end(), sorted.begin(),
                            sorted.end(), std::back_inserter(next));
      } else {
        std::set_union(current.begin(), current.end(), sorted.begin(), sorted.end(),
                       std::back_inserter(next));
      }
      CommitLocked(next);
    }
    resolved_.push_back(result);
    ++round_;
    pending_arrivals_ = 0;
    pending_delta_.clear();
    pending_error_ = Status::Ok();
    cv_.notify_all();
    return result;
  }

  // Wait for the round to resolve, bounded by the collective timeout so a
  // survivor that dies mid-rendezvous surfaces as a deadline, not a hang.
  const auto resolved = [&] { return round_ > my_round; };
  if (timeout_ms_ > 0.0) {
    const auto deadline = std::chrono::duration<double, std::milli>(timeout_ms_);
    if (!cv_.wait_for(lock, deadline, resolved)) {
      --pending_arrivals_;
      if (pending_arrivals_ == 0) {
        pending_delta_.clear();
        pending_error_ = Status::Ok();
      }
      return DeadlineExceeded(
          "elastic rendezvous timed out after " + std::to_string(timeout_ms_) +
          " ms: a survivor never arrived (" + std::to_string(pending_arrivals_ + 1) +
          "/" + std::to_string(pending_expected_) + " ranks present)");
    }
  } else {
    cv_.wait(lock, resolved);
  }
  return resolved_[static_cast<size_t>(my_round)];
}

}  // namespace msmoe
