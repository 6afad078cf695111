// The diablo Primary (§4): builds the deployment, deploys contracts,
// pre-encodes the workload, partitions it across Secondaries collocated
// with the blockchain nodes, runs the benchmark and aggregates the results.
#ifndef SRC_CORE_PRIMARY_H_
#define SRC_CORE_PRIMARY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/config/spec.h"
#include "src/core/interface.h"
#include "src/core/report.h"
#include "src/core/secondary.h"
#include "src/fault/injector.h"
#include "src/fault/schedule.h"
#include "src/workload/dapps.h"

#include "src/chain/node.h"

namespace diablo {

struct BenchmarkSetup {
  std::string chain = "quorum";
  // Overrides GetChainParams(chain) when set (ablations, custom chains).
  std::optional<ChainParams> params;
  std::string deployment = "testnet";
  int secondaries = 10;
  int accounts = 2000;  // §5.2: most configurations submit from 2,000 accounts
  uint64_t seed = 1;
  // Observation continues this long past the end of the trace.
  SimDuration drain = Seconds(120);
  // Multiplies every trace rate; < 1 shrinks heavy workloads for quick runs.
  double scale = 1.0;
  // When set, the primary writes the full results documents (summary plus
  // per-transaction records) before returning — the paper's --output flow.
  std::string results_json_path;
  std::string results_csv_path;
  // Fault schedule executed against the chain during the run. Empty (the
  // default) keeps every piece of fault machinery inert.
  FaultSchedule faults;
  // Client submission retry policy; the default is fire-and-forget.
  RetryPolicy retry;
};

// Work one run's own objects counted. Each count is exact and belongs to the
// run alone, so a sum over a grid of runs does not depend on DIABLO_JOBS.
struct RunCounts {
  uint64_t arrivals = 0;         // lane arrivals its Simulation delivered
  uint64_t vote_rounds = 0;      // vote-round facade calls on its message plane
  uint64_t vote_receivers = 0;   // receivers those calls evaluated
  uint64_t sortition_draws = 0;  // participants its Algorand selections drew
  uint64_t vm_ops = 0;           // ops its CostOracle's executions ran

  RunCounts& operator+=(const RunCounts& other);
};

// "events=… arrivals=… vote_rounds=… vote_receivers=… sortition_draws=…
// vm_ops=…", as the runner's and diablo_cli's stderr lines print counts.
std::string CountsText(uint64_t events, const RunCounts& counts);

struct RunResult {
  Report report;
  ChainStats chain_stats;
  // The DApp's contract cannot exist on this chain (Fig. 2's absent bars).
  bool unsupported = false;
  // Non-empty when invocations fail before commit, e.g. "budget exceeded"
  // (Fig. 5's X marks).
  std::string failure_reason;
  size_t behind_schedule = 0;
  // Simulator events executed by this run, lane arrivals included; the
  // parallel runner aggregates these into its events/sec figure.
  uint64_t events_executed = 0;
  RunCounts counts;
  // The setup's results_json_path / results_csv_path that could not be
  // written.
  std::vector<std::string> unwritten_files;
};

// One independent submission stream: its workload (the trace, and what
// each transaction does) plus where its clients sit. Workload-spec
// behaviors map to streams; the simple RunNative / RunDapp entry points
// build a single one.
struct WorkStream {
  DappWorkload workload;             // an empty contract sends native transfers
  std::vector<Region> locations;     // client regions; empty = collocated spread
  // Endpoint view patterns (the spec's `view:`): ".*" = every node, or
  // node indices as decimal strings. Empty = the collocated default.
  std::vector<std::string> endpoints;
};

// One run over a chain deployment, as the primary's four steps (§4). Build
// checks the streams' rates and creates the deployment: the chain, its
// connector and fault injector, the accounts, the contracts and the
// Secondaries. Encode pre-signs every transaction and deals it to its
// Secondary. Run starts the chain and the Secondaries and simulates to the
// horizon. Finish aggregates. Primary::RunStreams calls the four in order; a
// harness that reads the chain between them, or measures one, calls them.
class StreamRun {
 public:
  StreamRun(BenchmarkSetup setup, std::vector<WorkStream> streams,
            std::string workload_name);

  // False when the run is rejected before it starts; Finish carries why.
  bool Build();
  // After Build: false when a transaction has no valid encoding.
  bool Encode();
  // After Encode.
  void Run();
  // The run's result: its report once Run ran, and its counts whenever
  // Build made the chain.
  RunResult Finish();

  // Valid once Build has made the chain.
  ChainContext& context() { return chain_->context(); }

 private:
  BenchmarkSetup setup_;
  std::vector<WorkStream> streams_;
  std::string workload_name_;
  RunResult result_;
  // In the order Build makes them, so that they are destroyed in reverse:
  // the Secondaries first, the simulation last.
  Simulation sim_;
  Network net_;
  std::unique_ptr<ChainInstance> chain_;
  std::optional<SimConnector> connector_;
  std::optional<FaultInjector> injector_;
  Resource accounts_;
  std::map<std::string, Resource> contracts_;  // deduplicated across streams
  std::vector<std::unique_ptr<Secondary>> secondaries_;
  std::vector<std::vector<size_t>> stream_secondaries_;  // per stream, its clients
  size_t duration_ = 0;           // the longest stream's trace, in seconds
  std::optional<SimTime> horizon_;  // set once Run ran
};

class Primary {
 public:
  explicit Primary(BenchmarkSetup setup);

  // Native transfers following `trace` (§6.2/§6.3 synthetic workloads).
  RunResult RunNative(const Trace& trace);

  // One of the five DApp workloads (§3).
  RunResult RunDapp(const DappWorkload& dapp);

  // A parsed workload specification file (§4); every group/behavior becomes
  // its own stream with its own clients and load ramp. The spec's `!account`
  // binding, when it has one, sets the run's account count, and its
  // `faults:` section applies unless the setup already carries a schedule.
  RunResult RunSpec(const WorkloadSpec& spec);

  // General entry point: any mix of streams over one chain deployment, run
  // as one StreamRun.
  RunResult RunStreams(std::vector<WorkStream> streams,
                       const std::string& workload_name);

 private:
  BenchmarkSetup setup_;
};

}  // namespace diablo

#endif  // SRC_CORE_PRIMARY_H_
