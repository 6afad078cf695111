#include "src/core/primary.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/call_table.h"
#include "src/core/interface.h"
#include "src/core/results.h"
#include "src/core/secondary.h"
#include "src/fault/injector.h"
#include "src/support/strings.h"
#include "src/workload/arrival.h"

namespace diablo {

Primary::Primary(BenchmarkSetup setup) : setup_(std::move(setup)) {}

RunResult Primary::RunNative(const Trace& trace) {
  WorkStream stream;
  stream.workload.trace = trace;
  return RunStreams({std::move(stream)}, trace.name);
}

RunResult Primary::RunDapp(const DappWorkload& dapp) {
  WorkStream stream;
  stream.workload = dapp;
  return RunStreams({std::move(stream)}, dapp.name);
}

RunResult Primary::RunSpec(const WorkloadSpec& spec) {
  BenchmarkSetup setup = setup_;
  if (setup.faults.empty()) {
    setup.faults = spec.faults;
  }
  if (spec.TotalAccounts() > 0) {
    setup.accounts = spec.TotalAccounts();
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
      stream.workload.trace = behavior.Ramp(group.clients);
      stream.locations = locations;
      stream.endpoints = group.endpoints;
      if (behavior.interaction == "invoke") {
        stream.workload.name = behavior.contract;
        stream.workload.contract = behavior.contract;
        stream.workload.fixed = Invocation{behavior.function, behavior.args};
        workload_name = "spec-" + behavior.contract;
      }
      streams.push_back(std::move(stream));
    }
  }
  return Primary(std::move(setup)).RunStreams(std::move(streams), workload_name);
}

RunCounts& RunCounts::operator+=(const RunCounts& other) {
  arrivals += other.arrivals;
  vote_rounds += other.vote_rounds;
  vote_receivers += other.vote_receivers;
  sortition_draws += other.sortition_draws;
  vm_ops += other.vm_ops;
  return *this;
}

std::string CountsText(uint64_t events, const RunCounts& counts) {
  return StrFormat("events=%llu arrivals=%llu vote_rounds=%llu vote_receivers=%llu "
                   "sortition_draws=%llu vm_ops=%llu",
                   static_cast<unsigned long long>(events),
                   static_cast<unsigned long long>(counts.arrivals),
                   static_cast<unsigned long long>(counts.vote_rounds),
                   static_cast<unsigned long long>(counts.vote_receivers),
                   static_cast<unsigned long long>(counts.sortition_draws),
                   static_cast<unsigned long long>(counts.vm_ops));
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
  // Every entry point's rates, checked after scaling and before anything is
  // sized from them: CountArrivals turns each second's rate into a count,
  // which TotalTxs() + duration_seconds() bounds, and every transaction
  // needs a TxId below kInvalidTx.
  double reserved_txs = 0;
  for (WorkStream& stream : streams) {
    Trace& trace = stream.workload.trace;
    if (setup_.scale != 1.0) {
      trace = trace.Scaled(setup_.scale);
    }
    for (size_t s = 0; s < trace.tps.size(); ++s) {
      const double rate = trace.tps[s];
      if (!std::isfinite(rate) || rate < 0) {
        result.failure_reason =
            StrFormat("trace rate %g at second %zu is not a finite rate >= 0", rate, s);
        return result;
      }
    }
    reserved_txs += trace.TotalTxs() + static_cast<double>(trace.duration_seconds());
  }
  if (reserved_txs >= static_cast<double>(kInvalidTx)) {
    result.failure_reason =
        StrFormat("trace total of %.4g transactions exceeds the TxId range", reserved_txs);
    return result;
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
  // Every return from here on carries what the run's own objects counted,
  // the contract deployments of a run rejected before it starts included.
  const auto counted = [&] {
    const MessagePlaneScratch& plane = *ctx.plane();
    result.events_executed = sim.events_executed();
    result.counts = {sim.arrivals_delivered(), plane.vote_rounds, plane.vote_receivers,
                     plane.sortition_draws, ctx.oracle().vm_ops()};
    return std::move(result);
  };

  // The injector lives on the stack for the whole run; Install only
  // schedules events when the schedule is non-empty.
  FaultInjector injector(setup_.faults, &ctx);
  if (!setup_.faults.empty()) {
    std::string error;
    if (!injector.Install(&error)) {
      result.failure_reason = "fault schedule: " + error;
      return counted();
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
  // The accounts are the first ones the connector creates, so signer ids
  // run from 0. A censored signer outside them would censor no one.
  for (const FaultEvent& event : setup_.faults.events) {
    for (const int signer : event.censored_signers) {
      if (signer >= account_count) {
        result.failure_reason =
            "fault schedule: " +
            FaultEventError(event, StrFormat("unknown signer: account %d of a %d-account run",
                                             signer, account_count));
        return counted();
      }
    }
  }

  // Contracts, deduplicated across streams.
  std::map<std::string, Resource> contracts;
  for (const WorkStream& stream : streams) {
    const std::string& contract = stream.workload.contract;
    if (contract.empty() || contracts.contains(contract)) {
      continue;
    }
    ResourceSpec contract_spec;
    contract_spec.kind = ResourceSpec::Kind::kContract;
    contract_spec.contract_name = contract;
    Resource resource;
    if (!connector.CreateResource(contract_spec, &resource)) {
      // E.g. DecentralizedYoutube on the AVM (§5.2): no bar in Fig. 2.
      result.unsupported = true;
      result.failure_reason = "contract not deployable on " + params.vm_name;
      return counted();
    }
    contracts.emplace(contract, resource);
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

  // Pre-sign and partition every stream. Arrivals are counted for all
  // streams first so transaction storage, the mempool side tables, the
  // block-tx pool and every Secondary's schedule can be sized once for the
  // whole run before encoding begins; encoding then walks them, so no
  // stream's times are ever stored but in its Secondaries' schedules.
  size_t total_txs = 0;
  std::vector<size_t> schedule_sizes(secondaries.size(), 0);
  for (size_t i = 0; i < streams.size(); ++i) {
    const size_t count = CountArrivals(streams[i].workload.trace);
    total_txs += count;
    // The walk below deals transaction k to set[k % set.size()].
    const std::vector<size_t>& set = stream_secondaries[i];
    for (size_t j = 0; j < set.size(); ++j) {
      schedule_sizes[set[j]] += count / set.size() + (j < count % set.size() ? 1 : 0);
    }
  }
  ctx.ReserveTxs(total_txs);
  for (size_t s = 0; s < secondaries.size(); ++s) {
    secondaries[s]->Reserve(schedule_sizes[s]);
  }
  for (size_t i = 0; i < streams.size(); ++i) {
    const DappWorkload& workload = streams[i].workload;
    const int contract_index =
        workload.contract.empty() ? -1 : contracts.at(workload.contract).contract_index;
    CallTable table(&connector, accounts, workload, contract_index);
    const std::vector<size_t>& set = stream_secondaries[i];
    uint64_t k = 0;
    const bool encoded = ForEachArrival(workload.trace, [&](SimTime time) {
      const TxId tx = table.Encode(k, time);
      if (tx == kInvalidTx) {
        result.failure_reason =
            "invocation " + workload.InvocationFor(k).function + ": wire size out of range";
        return false;
      }
      secondaries[set[k % set.size()]]->Assign(time, tx);
      if (k == 0 && contract_index >= 0 && result.failure_reason.empty()) {
        const VmStatus status = ctx.txs().at(tx).exec_status;
        if (status != VmStatus::kOk) {
          result.failure_reason = std::string(VmStatusName(status));
        }
      }
      ++k;
      return true;
    });
    if (!encoded) {
      return counted();
    }
  }

  size_t duration = 0;
  for (const WorkStream& stream : streams) {
    duration = std::max(duration, stream.workload.trace.duration_seconds());
  }
  chain->Start();
  for (const auto& secondary : secondaries) {
    secondary->Start();
  }

  const SimTime horizon = Seconds(static_cast<int64_t>(duration)) + setup_.drain;
  sim.RunUntil(horizon);

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
  if (!setup_.results_json_path.empty() &&
      !WriteResultsJsonFile(setup_.results_json_path, result.report, ctx.txs())) {
    result.unwritten_files.push_back(setup_.results_json_path);
  }
  if (!setup_.results_csv_path.empty() &&
      !WriteResultsCsvFile(setup_.results_csv_path, ctx.txs())) {
    result.unwritten_files.push_back(setup_.results_csv_path);
  }
  return counted();
}

}  // namespace diablo
