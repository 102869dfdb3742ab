#include "src/comm/health.h"

#include <algorithm>
#include <limits>

namespace msmoe {
namespace {

// A flagged rank's mean lag must exceed this multiple of its peers' median.
constexpr double kPeerLagFactor = 2.0;

// Median of the mean lags of every rank other than `self` that took part in
// at least one matched collective (0 when there is none).
double PeerMedianLag(const std::vector<RankHealth>& ranks, int self) {
  std::vector<double> lags;
  for (const RankHealth& health : ranks) {
    if (health.rank != self && health.collectives > 0) {
      lags.push_back(health.mean_entry_lag_us);
    }
  }
  if (lags.empty()) {
    return 0.0;
  }
  std::sort(lags.begin(), lags.end());
  const size_t mid = lags.size() / 2;
  return lags.size() % 2 == 1 ? lags[mid] : 0.5 * (lags[mid - 1] + lags[mid]);
}

}  // namespace

StragglerReport DetectStragglers(const std::vector<CommEvent>& events,
                                 const StragglerConfig& config) {
  StragglerReport report;
  report.threshold_us = config.threshold_us;

  // Only the rank thread's own entries: async-lane chunk events are started
  // by the comm proxy, so their timing says nothing about the rank.
  int max_rank = -1;
  for (const CommEvent& event : events) {
    if (!event.async_lane) {
      max_rank = std::max(max_rank, event.rank);
    }
  }
  if (max_rank < 0) {
    return report;
  }
  const int num_ranks = max_rank + 1;

  // Per-rank event-start streams in issue order. Each rank thread records
  // its events sequentially, but the shared registry interleaves ranks, so
  // sort each stream by start time.
  std::vector<std::vector<double>> starts(static_cast<size_t>(num_ranks));
  for (const CommEvent& event : events) {
    if (!event.async_lane) {
      starts[static_cast<size_t>(event.rank)].push_back(event.start_us);
    }
  }
  size_t matched = 0;
  for (auto& stream : starts) {
    std::sort(stream.begin(), stream.end());
    matched = std::max(matched, stream.size());
  }

  report.collectives_matched = static_cast<int64_t>(matched);
  report.ranks.resize(static_cast<size_t>(num_ranks));
  for (int rank = 0; rank < num_ranks; ++rank) {
    report.ranks[static_cast<size_t>(rank)].rank = rank;
  }
  if (matched == 0) {
    return report;
  }

  // Match the i-th collective over the ranks that actually recorded an i-th
  // event. A crashed rank's stream simply ends early; truncating every
  // stream to the shortest one would discard the healthy ranks' late
  // collectives — exactly the events that carry the fault signature.
  for (size_t i = 0; i < matched; ++i) {
    double earliest = std::numeric_limits<double>::infinity();
    int present = 0;
    for (int rank = 0; rank < num_ranks; ++rank) {
      const auto& stream = starts[static_cast<size_t>(rank)];
      if (stream.size() > i) {
        earliest = std::min(earliest, stream[i]);
        ++present;
      }
    }
    if (present < 2) {
      // A lone participant has no peer to lag behind; skip the instance.
      continue;
    }
    for (int rank = 0; rank < num_ranks; ++rank) {
      const auto& stream = starts[static_cast<size_t>(rank)];
      if (stream.size() <= i) {
        continue;
      }
      RankHealth& health = report.ranks[static_cast<size_t>(rank)];
      const double lag = stream[i] - earliest;
      ++health.collectives;
      health.mean_entry_lag_us += lag;
      health.max_entry_lag_us = std::max(health.max_entry_lag_us, lag);
    }
  }
  for (RankHealth& health : report.ranks) {
    if (health.collectives > 0) {
      health.mean_entry_lag_us /= static_cast<double>(health.collectives);
    }
  }
  for (RankHealth& health : report.ranks) {
    health.straggler =
        health.collectives >= config.min_collectives &&
        health.mean_entry_lag_us > config.threshold_us &&
        health.mean_entry_lag_us >
            kPeerLagFactor * PeerMedianLag(report.ranks, health.rank);
  }
  return report;
}

int WorstStragglerRank(const StragglerReport& report) {
  int suspect = -1;
  double worst_lag = 0.0;
  for (const RankHealth& health : report.ranks) {
    if (health.straggler && health.mean_entry_lag_us > worst_lag) {
      worst_lag = health.mean_entry_lag_us;
      suspect = health.rank;
    }
  }
  return suspect;
}

}  // namespace msmoe
