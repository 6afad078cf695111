#include "src/core/primary.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/interface.h"
#include "src/core/results.h"
#include "src/core/secondary.h"
#include "src/fault/injector.h"
#include "src/support/log.h"
#include "src/support/strings.h"
#include "src/workload/arrival.h"

namespace diablo {

Primary::Primary(BenchmarkSetup setup) : setup_(std::move(setup)) {}

RunResult Primary::RunNative(const Trace& trace) {
  WorkStream stream;
  stream.trace = trace;
  return RunStreams({std::move(stream)}, trace.name);
}

RunResult Primary::RunDapp(const DappWorkload& dapp) {
  WorkStream stream;
  stream.trace = dapp.trace;
  stream.contract = dapp.contract;
  stream.fixed = dapp.fixed;
  stream.dapp_name = dapp.name;
  return RunStreams({std::move(stream)}, dapp.name);
}

RunResult Primary::RunSpec(const WorkloadSpec& spec) {
  // A `faults:` section in the workload file configures the run unless the
  // caller already installed a schedule programmatically.
  if (setup_.faults.empty() && !spec.faults.empty()) {
    setup_.faults = spec.faults;
  }
  std::vector<WorkStream> streams;
  std::string workload_name = "spec";
  for (const WorkloadGroup& group : spec.groups) {
    // Client locations (AWS zone tags in the file) map to regions.
    std::vector<Region> locations;
    for (const std::string& tag : group.locations) {
      Region region;
      if (ParseRegion(tag, &region)) {
        locations.push_back(region);
      }
    }
    for (const ClientBehavior& behavior : group.behaviors) {
      WorkStream stream;
      stream.locations = locations;
      stream.endpoints = group.endpoints;
      // Per-client load ramp, scaled by the number of clients in the group.
      Trace trace;
      trace.name = "spec";
      if (!behavior.load.empty()) {
        const double end = behavior.load.back().at_seconds;
        trace.tps.assign(static_cast<size_t>(end), 0.0);
        for (size_t i = 0; i + 1 < behavior.load.size(); ++i) {
          const LoadPoint& from = behavior.load[i];
          const LoadPoint& to = behavior.load[i + 1];
          for (size_t s = static_cast<size_t>(from.at_seconds);
               s < static_cast<size_t>(to.at_seconds) && s < trace.tps.size(); ++s) {
            trace.tps[s] = from.tps * group.clients;
          }
        }
      }
      stream.trace = std::move(trace);
      if (behavior.interaction == "invoke") {
        stream.contract = behavior.contract;
        stream.fixed = Invocation{behavior.function, behavior.args};
        workload_name = "spec-" + behavior.contract;
      }
      streams.push_back(std::move(stream));
    }
  }
  return RunStreams(std::move(streams), workload_name);
}

RunResult Primary::RunStreams(std::vector<WorkStream> streams,
                              const std::string& workload_name) {
  RunResult result;
  result.report.chain = setup_.chain;
  result.report.deployment = setup_.deployment;
  result.report.workload = workload_name;
  if (streams.empty()) {
    return result;
  }
  for (WorkStream& stream : streams) {
    if (setup_.scale != 1.0) {
      stream.trace = stream.trace.Scaled(setup_.scale);
    }
  }

  Simulation sim(setup_.seed);
  Network net(&sim);
  const DeploymentConfig deployment = GetDeployment(setup_.deployment);
  ChainParams params =
      setup_.params.has_value() ? *setup_.params : GetChainParams(setup_.chain);
  const auto chain = BuildChainFromParams(params, deployment, &sim, &net);
  ChainContext& ctx = chain->context();
  SimConnector connector(chain.get());
  connector.set_retry_policy(setup_.retry);
  result.report.chain = params.name;

  // The injector lives on the stack for the whole run; Install only
  // schedules events when the schedule is non-empty.
  FaultInjector injector(setup_.faults, &ctx);
  if (!setup_.faults.empty()) {
    std::string error;
    if (!injector.Install(&error)) {
      result.failure_reason = "fault schedule: " + error;
      return result;
    }
  }

  // Accounts.
  int account_count = setup_.accounts;
  if (params.name == "diem" && deployment.node_count >= 200) {
    // §5.2: Diem's setup tooling fails past 130 accounts, so the community
    // and consortium runs were restricted to 130 accounts.
    account_count = std::min(account_count, 130);
  }
  ResourceSpec accounts_spec;
  accounts_spec.kind = ResourceSpec::Kind::kAccounts;
  accounts_spec.account_count = account_count;
  Resource accounts;
  connector.CreateResource(accounts_spec, &accounts);

  // Contracts, deduplicated across streams.
  std::map<std::string, Resource> contracts;
  for (const WorkStream& stream : streams) {
    if (stream.contract.empty() || contracts.contains(stream.contract)) {
      continue;
    }
    ResourceSpec contract_spec;
    contract_spec.kind = ResourceSpec::Kind::kContract;
    contract_spec.contract_name = stream.contract;
    Resource resource;
    if (!connector.CreateResource(contract_spec, &resource)) {
      // E.g. DecentralizedYoutube on the AVM (§5.2): no bar in Fig. 2.
      result.unsupported = true;
      result.failure_reason = "contract not deployable on " + params.vm_name;
      return result;
    }
    contracts.emplace(stream.contract, resource);
  }

  // Secondaries. Streams without explicit locations share a default set
  // collocated with the blockchain nodes (§5.3); located streams get their
  // own clients in the requested regions, still one endpoint each.
  std::vector<std::unique_ptr<Secondary>> secondaries;
  std::vector<std::vector<size_t>> stream_secondaries(streams.size());
  std::vector<size_t> default_set;
  auto add_secondary = [&](Region region, std::vector<int> view) {
    auto client = connector.CreateClient(region, std::move(view));
    secondaries.push_back(std::make_unique<Secondary>(
        static_cast<int>(secondaries.size()), region, &sim, std::move(client)));
    return secondaries.size() - 1;
  };
  // The spec's `view:` patterns select which nodes a client submits to.
  auto resolve_view = [&](const std::vector<std::string>& patterns,
                          int collocated) -> std::vector<int> {
    std::vector<int> view;
    for (const std::string& pattern : patterns) {
      if (pattern == ".*") {
        for (int node = 0; node < deployment.node_count; ++node) {
          view.push_back(node);
        }
        continue;
      }
      int64_t index = 0;
      if (ParseInt64(pattern, &index) && index >= 0 &&
          index < deployment.node_count) {
        view.push_back(static_cast<int>(index));
      }
    }
    if (view.empty()) {
      view.push_back(collocated);
    }
    return view;
  };
  for (size_t i = 0; i < streams.size(); ++i) {
    if (streams[i].locations.empty() && streams[i].endpoints.empty()) {
      if (default_set.empty()) {
        for (int s = 0; s < setup_.secondaries; ++s) {
          const int endpoint = s % deployment.node_count;
          default_set.push_back(
              add_secondary(deployment.NodeRegion(endpoint), {endpoint}));
        }
      }
      stream_secondaries[i] = default_set;
    } else if (streams[i].locations.empty()) {
      // View-only streams: default locations, explicit endpoints.
      for (int s = 0; s < setup_.secondaries; ++s) {
        const int collocated = s % deployment.node_count;
        stream_secondaries[i].push_back(
            add_secondary(deployment.NodeRegion(collocated),
                          resolve_view(streams[i].endpoints, collocated)));
      }
    } else {
      for (const Region region : streams[i].locations) {
        // Route to the nearest node: the first node in the same region, or
        // node 0 when the deployment does not span that region.
        int endpoint = 0;
        for (int node = 0; node < deployment.node_count; ++node) {
          if (deployment.NodeRegion(node) == region) {
            endpoint = node;
            break;
          }
        }
        stream_secondaries[i].push_back(
            add_secondary(region, resolve_view(streams[i].endpoints, endpoint)));
      }
    }
  }

  // Pre-sign and partition every stream. Arrivals are expanded for all
  // streams first so transaction storage, the mempool side tables and the
  // block-tx pool can be sized once for the whole run before encoding
  // begins.
  size_t total_txs = 0;
  std::vector<std::vector<SimTime>> stream_arrivals(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    stream_arrivals[i] = ExpandArrivals(streams[i].trace, ArrivalProcess::kUniform, nullptr);
    total_txs += stream_arrivals[i].size();
  }
  ctx.ReserveTxs(total_txs);
  for (size_t i = 0; i < streams.size(); ++i) {
    const WorkStream& stream = streams[i];
    const std::vector<SimTime>& arrivals = stream_arrivals[i];
    DappWorkload mix;  // provides InvocationFor when no fixed invocation
    mix.name = stream.dapp_name.empty() ? stream.contract : stream.dapp_name;
    mix.fixed = stream.fixed;
    for (size_t k = 0; k < arrivals.size(); ++k) {
      InteractionSpec spec;
      if (!stream.contract.empty()) {
        const Invocation invocation = mix.InvocationFor(k);
        spec.type = InteractionSpec::Type::kInvoke;
        spec.contract_index = contracts.at(stream.contract).contract_index;
        spec.function = invocation.function;
        spec.args = invocation.args;
      }
      const TxId tx = connector.Encode(spec, accounts, arrivals[k]);
      if (tx == kInvalidTx) {
        result.failure_reason = "invocation " + spec.function + ": wire size out of range";
        return result;
      }
      const auto& set = stream_secondaries[i];
      secondaries[set[k % set.size()]]->Assign(arrivals[k], tx);
      if (k == 0 && !stream.contract.empty() && result.failure_reason.empty()) {
        const VmStatus status = ctx.txs().at(tx).exec_status;
        if (status != VmStatus::kOk) {
          result.failure_reason = std::string(VmStatusName(status));
        }
      }
    }
  }

  size_t duration = 0;
  for (const WorkStream& stream : streams) {
    duration = std::max(duration, stream.trace.duration_seconds());
  }
  DIABLO_LOG(LogLevel::kInfo,
             StrFormat("primary: %zu txs over %zu s on %s/%s (%zu streams)", total_txs,
                       duration, params.name.c_str(), setup_.deployment.c_str(),
                       streams.size()));

  chain->Start();
  for (const auto& secondary : secondaries) {
    secondary->Start();
  }

  const SimTime horizon = Seconds(static_cast<int64_t>(duration)) + setup_.drain;
  sim.RunUntil(horizon);
  result.events_executed = sim.events_executed();

  result.report = BuildReport(ctx.txs(), horizon, params.name, setup_.deployment,
                              workload_name, static_cast<double>(duration));
  result.chain_stats = ctx.stats();
  for (const auto& secondary : secondaries) {
    result.behind_schedule += secondary->behind_schedule();
  }
  if (!setup_.faults.empty() || setup_.retry.enabled()) {
    result.report.view_changes = ctx.stats().view_changes;
    result.report.blocks_abandoned = ctx.stats().blocks_abandoned;
    result.report.client_retries = connector.client_stats().retries;
    result.report.client_aborts = connector.client_stats().aborts;
    AddResilienceMetrics(&result.report, ctx.txs(), horizon,
                         setup_.faults.HealTimes());
  }
  // Evidence counters are emitted only when the schedule actually declares
  // a Byzantine window, so honest-fault reports don't change shape.
  bool any_byzantine = false;
  for (const FaultEvent& event : setup_.faults.events) {
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
  if (!setup_.results_json_path.empty()) {
    WriteResultsJsonFile(setup_.results_json_path, result.report, ctx.txs());
  }
  if (!setup_.results_csv_path.empty()) {
    WriteResultsCsvFile(setup_.results_csv_path, ctx.txs());
  }
  return result;
}

}  // namespace diablo
