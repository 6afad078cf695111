#include "src/core/report.h"

#include <algorithm>
#include <limits>

#include "src/support/check.h"
#include "src/support/strings.h"

namespace diablo {
namespace {

// No commit at or after a heal.
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

}  // namespace

Report BuildReport(const TxStore& txs, SimTime horizon, std::string chain,
                   std::string deployment, std::string workload,
                   double workload_duration) {
  Report report;
  report.chain = std::move(chain);
  report.deployment = std::move(deployment);
  report.workload = std::move(workload);
  report.workload_duration = workload_duration;

  // One latency sample per transaction committed within the horizon. The
  // report outlives the cell, so its buffer is sized to exactly those.
  size_t in_view = 0;
  for (TxId id = 0; id < txs.size(); ++id) {
    const Transaction& tx = txs.at(id);
    in_view += tx.phase == TxPhase::kCommitted && tx.commit_time <= horizon ? 1 : 0;
  }
  report.latencies.Reserve(in_view);

  SimTime last_commit = 0;
  for (TxId id = 0; id < txs.size(); ++id) {
    const Transaction& tx = txs.at(id);
    if (tx.phase == TxPhase::kCreated) {
      continue;  // never submitted
    }
    ++report.submitted;
    report.submitted_per_second.Add(ToSeconds(tx.submit_time));
    switch (tx.phase) {
      case TxPhase::kCommitted:
        if (tx.commit_time <= horizon) {
          ++report.committed;
          last_commit = std::max(last_commit, tx.commit_time);
          const double latency = tx.LatencySeconds();
          report.latencies.Add(latency);
          report.committed_per_second.Add(ToSeconds(tx.commit_time));
        } else {
          ++report.pending;
        }
        break;
      case TxPhase::kDropped:
        ++report.dropped;
        break;
      case TxPhase::kAborted:
        ++report.aborted;
        break;
      case TxPhase::kSubmitted:
        ++report.pending;
        break;
      case TxPhase::kCreated:
        break;
    }
  }

  if (report.workload_duration > 0) {
    report.avg_load = static_cast<double>(report.submitted) / report.workload_duration;
  }
  const double span = std::max(report.workload_duration, ToSeconds(last_commit));
  if (span > 0) {
    report.avg_throughput = static_cast<double>(report.committed) / span;
  }
  if (report.submitted > 0) {
    report.commit_ratio =
        static_cast<double>(report.committed) / static_cast<double>(report.submitted);
  }
  if (report.latencies.count() > 0) {
    report.avg_latency = report.latencies.Mean();
    report.median_latency = report.latencies.Median();
    report.p95_latency = report.latencies.Percentile(0.95);
    report.max_latency = report.latencies.Max();
  }
  return report;
}

void AddResilienceMetrics(Report* report, const TxStore& txs, SimTime horizon,
                          const std::vector<SimTime>& heal_times) {
  report->resilience = true;

  // Per-submit-second commit ratio: how much of each second's offered load
  // eventually landed. Buckets follow the submit clock, not the commit
  // clock, so a fault window shows up as a dip even when its transactions
  // commit late.
  //
  // Time-to-recovery in the same pass: each commit is filed under the last
  // heal at or before it, keeping the earliest; heal i's first commit at or
  // after it is then the least filed under heal i or a later one.
  DIABLO_CHECK(std::is_sorted(heal_times.begin(), heal_times.end()),
               "heal times must ascend");
  std::vector<uint64_t> offered;
  std::vector<uint64_t> landed;
  std::vector<SimTime> first_after(heal_times.size(), kNever);
  for (TxId id = 0; id < txs.size(); ++id) {
    const Transaction& tx = txs.at(id);
    if (tx.phase == TxPhase::kCreated) {
      continue;
    }
    const size_t second = static_cast<size_t>(ToSeconds(tx.submit_time));
    if (second >= offered.size()) {
      offered.resize(second + 1, 0);
      landed.resize(second + 1, 0);
    }
    ++offered[second];
    if (tx.phase == TxPhase::kCommitted && tx.commit_time <= horizon) {
      ++landed[second];
      const auto after =
          std::upper_bound(heal_times.begin(), heal_times.end(), tx.commit_time) -
          heal_times.begin();
      if (after > 0) {
        SimTime& filed = first_after[static_cast<size_t>(after - 1)];
        filed = std::min(filed, tx.commit_time);
      }
    }
  }
  report->interval_commit_ratio.clear();
  report->interval_commit_ratio.reserve(offered.size());
  report->min_interval_commit_ratio = offered.empty() ? 0.0 : 1.0;
  for (size_t second = 0; second < offered.size(); ++second) {
    const double ratio =
        offered[second] == 0
            ? 1.0
            : static_cast<double>(landed[second]) / static_cast<double>(offered[second]);
    report->interval_commit_ratio.push_back(ratio);
    report->min_interval_commit_ratio =
        std::min(report->min_interval_commit_ratio, ratio);
  }

  for (size_t i = first_after.size(); i-- > 1;) {
    first_after[i - 1] = std::min(first_after[i - 1], first_after[i]);
  }
  report->recoveries.clear();
  report->recoveries.reserve(heal_times.size());
  for (size_t i = 0; i < heal_times.size(); ++i) {
    const SimTime first = first_after[i];
    report->recoveries.push_back(first == kNever ? -1.0 : ToSeconds(first - heal_times[i]));
  }
}

std::string Report::ToText() const {
  std::string out;
  out += StrFormat("chain:        %s\n", chain.c_str());
  out += StrFormat("deployment:   %s\n", deployment.c_str());
  out += StrFormat("workload:     %s (%.0f s)\n", workload.c_str(), workload_duration);
  out += StrFormat("submitted:    %zu (avg load %.1f TPS)\n", submitted, avg_load);
  out += StrFormat("committed:    %zu (%.1f%%)\n", committed, 100.0 * commit_ratio);
  out += StrFormat("dropped:      %zu\n", dropped);
  out += StrFormat("aborted:      %zu\n", aborted);
  out += StrFormat("pending:      %zu\n", pending);
  out += StrFormat("throughput:   %.1f TPS\n", avg_throughput);
  out += StrFormat("latency avg:  %.2f s  median: %.2f s  p95: %.2f s  max: %.2f s\n",
                   avg_latency, median_latency, p95_latency, max_latency);
  if (resilience) {
    out += StrFormat("view changes: %llu  abandoned blocks: %llu\n",
                     static_cast<unsigned long long>(view_changes),
                     static_cast<unsigned long long>(blocks_abandoned));
    out += StrFormat("retries:      %llu  client aborts: %llu\n",
                     static_cast<unsigned long long>(client_retries),
                     static_cast<unsigned long long>(client_aborts));
    out += StrFormat("min interval commit ratio: %.1f%%\n",
                     100.0 * min_interval_commit_ratio);
    for (size_t i = 0; i < recoveries.size(); ++i) {
      if (recoveries[i] < 0) {
        out += StrFormat("recovery %zu:   never\n", i);
      } else {
        out += StrFormat("recovery %zu:   %.2f s\n", i, recoveries[i]);
      }
    }
  }
  if (byzantine) {
    out += StrFormat("equivocations: %llu  double votes: %llu  votes withheld: %llu\n",
                     static_cast<unsigned long long>(equivocations_seen),
                     static_cast<unsigned long long>(double_votes_seen),
                     static_cast<unsigned long long>(votes_withheld));
    out += StrFormat("txs censored: %llu  lazy proposals: %llu\n",
                     static_cast<unsigned long long>(txs_censored),
                     static_cast<unsigned long long>(lazy_proposals));
  }
  return out;
}

}  // namespace diablo
