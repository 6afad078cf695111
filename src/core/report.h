// Result aggregation: the metrics the paper reports — average load,
// average throughput, average/median latency, proportion of committed
// transactions, per-second time series and the latency CDF of Fig. 6.
#ifndef SRC_CORE_REPORT_H_
#define SRC_CORE_REPORT_H_

#include <string>
#include <vector>

#include "src/chain/tx.h"
#include "src/support/stats.h"

namespace diablo {

struct Report {
  std::string chain;
  std::string deployment;
  std::string workload;

  size_t submitted = 0;  // sent by secondaries
  size_t committed = 0;  // included and successful before the horizon
  size_t dropped = 0;    // rejected / evicted / expired
  size_t aborted = 0;    // execution failure (e.g. budget exceeded)
  size_t pending = 0;    // still in flight at the horizon

  double workload_duration = 0;  // seconds of trace
  double avg_load = 0;           // submitted / duration
  double avg_throughput = 0;     // committed / commit span
  double avg_latency = 0;        // seconds, over committed
  double median_latency = 0;
  double p95_latency = 0;
  double max_latency = 0;
  double commit_ratio = 0;  // committed / submitted

  TimeSeries submitted_per_second;
  TimeSeries committed_per_second;
  SampleSet latencies;

  // --- Resilience metrics (fault runs only) ---
  // `resilience` gates their emission in ToText/ReportToJson so healthy-path
  // outputs stay byte-identical whether or not the fields are populated.
  bool resilience = false;
  uint64_t view_changes = 0;      // leader/round changes across all nodes
  uint64_t blocks_abandoned = 0;  // proposals that missed quorum
  uint64_t client_retries = 0;    // re-submissions by retrying clients
  uint64_t client_aborts = 0;     // transactions clients gave up on
  // Fraction of each submit-second's transactions that eventually committed;
  // the dip during a fault window is the resilience signature.
  std::vector<double> interval_commit_ratio;
  double min_interval_commit_ratio = 1.0;
  // Time-to-recovery: seconds from each heal/restart instant to the first
  // commit at or after it; -1 when the chain never recovered in view.
  std::vector<double> recoveries;

  // --- Byzantine evidence (adversary runs only) ---
  // `byzantine` gates emission the same way `resilience` does: healthy and
  // honest-fault outputs are byte-identical to before these fields existed.
  bool byzantine = false;
  uint64_t equivocations_seen = 0;
  uint64_t double_votes_seen = 0;
  uint64_t votes_withheld = 0;
  uint64_t txs_censored = 0;
  uint64_t lazy_proposals = 0;

  // Multi-line human-readable summary (the primary's --stat output).
  std::string ToText() const;
};

// Fills the fault-run metrics on `report`: the per-submit-second commit
// ratio series and, for each instant in `heal_times` (partition heals,
// crash restarts, ascending as FaultSchedule::HealTimes returns them), the
// time to the first commit at or after it. Marks the report as a resilience
// report.
void AddResilienceMetrics(Report* report, const TxStore& txs, SimTime horizon,
                          const std::vector<SimTime>& heal_times);

// Builds the report from the transaction arena. Transactions whose commit
// time falls after `horizon` count as pending — the benchmark stopped
// observing before they landed.
Report BuildReport(const TxStore& txs, SimTime horizon, std::string chain,
                   std::string deployment, std::string workload,
                   double workload_duration);

}  // namespace diablo

#endif  // SRC_CORE_REPORT_H_
