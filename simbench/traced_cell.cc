#include "simbench/traced_cell.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/chains/chain_factory.h"
#include "src/chains/params.h"
#include "src/core/interface.h"
#include "src/core/report.h"
#include "src/core/secondary.h"
#include "src/fault/injector.h"
#include "src/net/deployment.h"
#include "src/vm/interpreter.h"
#include "src/workload/arrival.h"
#include "src/workload/dapps.h"
#include "src/workload/trace.h"

namespace simbench {

using namespace diablo;

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

// Allocator bytes in use, process-wide. Unlike resident size it falls when
// memory is freed, so a span's growth is what the span kept.
int64_t HeapInUseBytes() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
#else
  return 0;
#endif
}

// The objects one cell builds, released in reverse construction order the
// way Primary::RunStreams' stack unwinds.
struct CellObjects {
  std::vector<SimTime> arrivals;
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<ChainInstance> chain;
  std::unique_ptr<SimConnector> connector;
  std::unique_ptr<FaultInjector> injector;
  std::vector<std::unique_ptr<Secondary>> secondaries;

  void Release() {
    secondaries.clear();
    injector.reset();
    connector.reset();
    chain.reset();
    net.reset();
    sim.reset();
    std::vector<SimTime>().swap(arrivals);
  }
};

// What RunDappBenchmark / RunNativeBenchmark hand to Primary: one stream.
struct Stream {
  Trace trace;
  std::string contract;
  std::string dapp_name;
  std::string workload_name;
};

Stream MakeStream(const CellSpec& spec) {
  Stream stream;
  if (spec.kind == CellSpec::Kind::kDapp) {
    const DappWorkload dapp = GetDappWorkload(spec.dapp);
    stream.trace = dapp.trace;
    stream.contract = dapp.contract;
    stream.dapp_name = dapp.name;
    stream.workload_name = dapp.name;
  } else {
    stream.trace = ConstantTrace(spec.tps, spec.seconds);
    stream.workload_name = stream.trace.name;
  }
  if (spec.scale != 1.0) {
    stream.trace = stream.trace.Scaled(spec.scale);
  }
  return stream;
}

}  // namespace

double NowSeconds() {
  const std::chrono::duration<double> since = std::chrono::steady_clock::now() - kEpoch;
  return since.count();
}

double TracedCell::SpanSeconds(const char* name) const {
  double total = 0;
  for (const Span& span : spans) {
    if (span.name == name) {
      total += span.seconds();
    }
  }
  return total;
}

double TracedCell::SetupSeconds() const {
  double total = 0;
  for (const char* name : kSetupSpans) {
    total += SpanSeconds(name);
  }
  return total;
}

RunResult RunTracedCell(const CellSpec& spec, int cell_index, bool setup_only,
                        TracedCell* out) {
  out->spans.clear();
  out->counts = CellCounts{};
  out->spans.push_back({"cell", NowSeconds(), 0, -1, cell_index});
  auto timed = [out, cell_index](const char* name, auto&& body) {
    out->spans.push_back({name, NowSeconds(), 0, 0, cell_index});
    const size_t index = out->spans.size() - 1;
    body();
    out->spans[index].end_s = NowSeconds();
  };
  CellCounts& counts = out->counts;
  CellObjects cell;
  RunResult result;
  // Everything after the run (or the early exits) releases the cell's
  // objects inside the teardown span and closes the cell span.
  auto finish = [&]() {
    timed(kTeardownSpan, [&] { cell.Release(); });
    out->spans[0].end_s = NowSeconds();
    return result;
  };

  Stream stream;
  timed(kArrivalsSpan, [&] {
    stream = MakeStream(spec);
    cell.arrivals = ExpandArrivals(stream.trace, ArrivalProcess::kUniform, nullptr);
  });
  counts.txs = cell.arrivals.size();
  result.report.deployment = spec.deployment;
  result.report.workload = stream.workload_name;

  DeploymentConfig deployment;
  ChainParams params;
  Resource accounts;
  std::map<std::string, Resource> contracts;
  std::vector<size_t> default_set;
  timed(kBuildSpan, [&] {
    cell.sim = std::make_unique<Simulation>(spec.seed);
    cell.net = std::make_unique<Network>(cell.sim.get());
    deployment = GetDeployment(spec.deployment);
    params = GetChainParams(spec.chain);
    cell.chain = BuildChainFromParams(params, deployment, cell.sim.get(), cell.net.get());
    cell.connector = std::make_unique<SimConnector>(cell.chain.get());
    cell.connector->set_retry_policy(spec.retry);
  });
  result.report.chain = params.name;
  ChainContext& ctx = cell.chain->context();
  counts.consensus = params.consensus_name;
  counts.dense_votes = ctx.vote_delays().dense();

  std::string install_error;
  bool installed = true;
  timed(kInstallSpan, [&] {
    cell.injector = std::make_unique<FaultInjector>(spec.faults, &ctx);
    if (!spec.faults.empty()) {
      installed = cell.injector->Install(&install_error);
    }
  });
  if (!installed) {
    result.failure_reason = "fault schedule: " + install_error;
    return finish();
  }

  bool deployable = true;
  timed(kBuildSpan, [&] {
    BenchmarkSetup defaults;
    int account_count = defaults.accounts;
    if (params.name == "diem" && deployment.node_count >= 200) {
      account_count = std::min(account_count, 130);
    }
    ResourceSpec accounts_spec;
    accounts_spec.kind = ResourceSpec::Kind::kAccounts;
    accounts_spec.account_count = account_count;
    cell.connector->CreateResource(accounts_spec, &accounts);
    if (!stream.contract.empty()) {
      ResourceSpec contract_spec;
      contract_spec.kind = ResourceSpec::Kind::kContract;
      contract_spec.contract_name = stream.contract;
      Resource resource;
      if (!cell.connector->CreateResource(contract_spec, &resource)) {
        deployable = false;
        return;
      }
      contracts.emplace(stream.contract, resource);
    }
    for (int s = 0; s < defaults.secondaries; ++s) {
      const int endpoint = s % deployment.node_count;
      const Region region = deployment.NodeRegion(endpoint);
      auto client = cell.connector->CreateClient(region, {endpoint});
      cell.secondaries.push_back(std::make_unique<Secondary>(
          static_cast<int>(cell.secondaries.size()), region, cell.sim.get(),
          std::move(client)));
      default_set.push_back(cell.secondaries.size() - 1);
    }
  });
  if (!deployable) {
    result.unsupported = true;
    result.failure_reason = "contract not deployable on " + params.vm_name;
    return finish();
  }

  const int64_t heap_before_encode = HeapInUseBytes();
  timed(kEncodeSpan, [&] {
    ctx.ReserveTxs(cell.arrivals.size());
    DappWorkload mix;
    mix.name = stream.dapp_name.empty() ? stream.contract : stream.dapp_name;
    for (size_t k = 0; k < cell.arrivals.size(); ++k) {
      InteractionSpec interaction;
      if (!stream.contract.empty()) {
        const Invocation invocation = mix.InvocationFor(k);
        interaction.type = InteractionSpec::Type::kInvoke;
        interaction.contract_index = contracts.at(stream.contract).contract_index;
        interaction.function = invocation.function;
        interaction.args = invocation.args;
      }
      const TxId tx = cell.connector->Encode(interaction, accounts, cell.arrivals[k]);
      cell.secondaries[default_set[k % default_set.size()]]->Assign(cell.arrivals[k], tx);
      if (k == 0 && !stream.contract.empty() && result.failure_reason.empty()) {
        const VmStatus status = ctx.txs().at(tx).exec_status;
        if (status != VmStatus::kOk) {
          result.failure_reason = std::string(VmStatusName(status));
        }
      }
    }
  });
  counts.encode_heap_bytes = HeapInUseBytes() - heap_before_encode;
  if (setup_only) {
    return finish();
  }

  const size_t duration = stream.trace.duration_seconds();
  const SimTime horizon = Seconds(static_cast<int64_t>(duration)) + BenchmarkSetup{}.drain;
  const int64_t heap_before_run = HeapInUseBytes();
  timed(kRunSpan, [&] {
    cell.sim->Reserve(std::min<size_t>(cell.arrivals.size(), 65536));
    cell.chain->Start();
    for (const auto& secondary : cell.secondaries) {
      secondary->Start();
    }
    cell.sim->RunUntil(horizon);
  });
  counts.run_heap_bytes = HeapInUseBytes() - heap_before_run;
  result.events_executed = cell.sim->events_executed();

  timed(kReportSpan, [&] {
    result.report = BuildReport(ctx.txs(), horizon, params.name, spec.deployment,
                                stream.workload_name, static_cast<double>(duration));
    if (!spec.faults.empty() || spec.retry.enabled()) {
      result.report.view_changes = ctx.stats().view_changes;
      result.report.blocks_abandoned = ctx.stats().blocks_abandoned;
      result.report.client_retries = cell.connector->client_stats().retries;
      result.report.client_aborts = cell.connector->client_stats().aborts;
      AddResilienceMetrics(&result.report, ctx.txs(), horizon, spec.faults.HealTimes());
    }
  });
  result.chain_stats = ctx.stats();
  for (const auto& secondary : cell.secondaries) {
    result.behind_schedule += secondary->behind_schedule();
  }
  bool any_byzantine = false;
  for (const FaultEvent& event : spec.faults.events) {
    any_byzantine = any_byzantine || IsByzantine(event.kind);
  }
  if (any_byzantine) {
    result.report.byzantine = true;
    result.report.equivocations_seen = ctx.stats().equivocations_seen;
    result.report.double_votes_seen = ctx.stats().double_votes_seen;
    result.report.votes_withheld = ctx.stats().votes_withheld;
    result.report.txs_censored = ctx.stats().txs_censored;
    result.report.lazy_proposals = ctx.stats().lazy_proposals;
  }

  counts.events = result.events_executed;
  counts.mempool_admitted = ctx.mempool().admitted();
  counts.mempool_rejected = ctx.mempool().rejected();
  counts.mempool_evictions = ctx.mempool().evictions();
  counts.chain = ctx.stats();
  counts.client_retries = cell.connector->client_stats().retries;
  counts.client_aborts = cell.connector->client_stats().aborts;
  const FaultStats& faults = cell.injector->stats();
  counts.fault_windows = faults.crashes + faults.partitions + faults.loss_windows +
                         faults.delay_spikes + faults.stragglers +
                         faults.equivocate_windows + faults.double_vote_windows +
                         faults.withhold_windows + faults.censor_windows +
                         faults.lazy_windows;
  const ChainStats& stats = ctx.stats();
  counts.fault_evidence = stats.equivocations_seen + stats.double_votes_seen +
                          stats.votes_withheld + stats.txs_censored + stats.lazy_proposals;
  counts.net_sends = cell.net->stats().sends;
  counts.net_unreachable_drops = cell.net->stats().unreachable_drops;
  counts.net_loss_drops = cell.net->stats().loss_drops;
  counts.behind_schedule = result.behind_schedule;
  return finish();
}

}  // namespace simbench
