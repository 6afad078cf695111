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
    for (const ClientBehavior& behavior : group.behaviors) {
      WorkStream stream;
      stream.workload.trace = behavior.Ramp(group.clients);
      stream.locations = group.locations;
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
  StreamRun run(setup_, std::move(streams), workload_name);
  if (run.Build() && run.Encode()) {
    run.Run();
  }
  return run.Finish();
}

StreamRun::StreamRun(BenchmarkSetup setup, std::vector<WorkStream> streams,
                     std::string workload_name)
    : setup_(std::move(setup)),
      streams_(std::move(streams)),
      workload_name_(std::move(workload_name)),
      sim_(setup_.seed),
      net_(&sim_) {
  result_.report.chain = setup_.chain;
  result_.report.deployment = setup_.deployment;
  result_.report.workload = workload_name_;
}

bool StreamRun::Build() {
  if (streams_.empty()) {
    return false;
  }
  // Every entry point's rates, checked after scaling and before anything is
  // sized from them: CountArrivals turns each second's rate into a count,
  // which TotalTxs() + duration_seconds() bounds, and every transaction
  // needs a TxId below kInvalidTx.
  double reserved_txs = 0;
  for (WorkStream& stream : streams_) {
    Trace& trace = stream.workload.trace;
    if (setup_.scale != 1.0) {
      trace = trace.Scaled(setup_.scale);
    }
    for (size_t s = 0; s < trace.tps.size(); ++s) {
      const double rate = trace.tps[s];
      if (!std::isfinite(rate) || rate < 0) {
        result_.failure_reason =
            StrFormat("trace rate %g at second %zu is not a finite rate >= 0", rate, s);
        return false;
      }
    }
    reserved_txs += trace.TotalTxs() + static_cast<double>(trace.duration_seconds());
  }
  if (reserved_txs >= static_cast<double>(kInvalidTx)) {
    result_.failure_reason =
        StrFormat("trace total of %.4g transactions exceeds the TxId range", reserved_txs);
    return false;
  }

  const DeploymentConfig deployment = GetDeployment(setup_.deployment);
  const ChainParams params =
      setup_.params.has_value() ? *setup_.params : GetChainParams(setup_.chain);
  chain_ = BuildChainFromParams(params, deployment, &sim_, &net_);
  ChainContext& ctx = chain_->context();
  connector_.emplace(chain_.get());
  connector_->set_retry_policy(setup_.retry);
  result_.report.chain = params.name;

  // The injector lives as long as the run: the events Install schedules
  // point back into it.
  injector_.emplace(setup_.faults, &ctx);
  if (!setup_.faults.empty()) {
    std::string error;
    if (!injector_->Install(&error)) {
      result_.failure_reason = "fault schedule: " + error;
      return false;
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
  connector_->CreateResource(accounts_spec, &accounts_);
  // The accounts are the first ones the connector creates, so signer ids
  // run from 0. A censored signer outside them would censor no one.
  for (const FaultEvent& event : setup_.faults.events) {
    for (const int signer : event.censored_signers) {
      if (signer >= account_count) {
        result_.failure_reason =
            "fault schedule: " +
            FaultEventError(event, StrFormat("unknown signer: account %d of a %d-account run",
                                             signer, account_count));
        return false;
      }
    }
  }

  // Contracts, deduplicated across streams.
  for (const WorkStream& stream : streams_) {
    const std::string& contract = stream.workload.contract;
    if (contract.empty() || contracts_.contains(contract)) {
      continue;
    }
    ResourceSpec contract_spec;
    contract_spec.kind = ResourceSpec::Kind::kContract;
    contract_spec.contract_name = contract;
    Resource resource;
    if (!connector_->CreateResource(contract_spec, &resource)) {
      // E.g. DecentralizedYoutube on the AVM (§5.2): no bar in Fig. 2.
      result_.unsupported = true;
      result_.failure_reason = "contract not deployable on " + params.vm_name;
      return false;
    }
    contracts_.emplace(contract, resource);
  }

  // Secondaries. Streams without explicit locations share a default set
  // collocated with the blockchain nodes (§5.3); located streams get one
  // client per requested region. A client submits to the nodes its stream's
  // `view:` patterns name (".*" = every node), or to its `collocated` node
  // when the stream names none.
  const int nodes = deployment.node_count;
  const auto add_secondary = [&](Region region, const std::vector<std::string>& patterns,
                                 int collocated, std::vector<size_t>* set) {
    std::vector<int> view;
    for (const std::string& pattern : patterns) {
      int64_t index = 0;
      if (pattern == ".*") {
        for (int node = 0; node < nodes; ++node) {
          view.push_back(node);
        }
      } else if (ParseInt64(pattern, &index) && index >= 0 && index < nodes) {
        view.push_back(static_cast<int>(index));
      } else {
        result_.failure_reason = StrFormat(
            "client view '%s' names no node of a %d-node deployment", pattern.c_str(), nodes);
        return false;
      }
    }
    if (patterns.empty()) {
      view.push_back(collocated);
    }
    auto client = connector_->CreateClient(region, std::move(view));
    set->push_back(secondaries_.size());
    secondaries_.push_back(std::make_unique<Secondary>(
        static_cast<int>(secondaries_.size()), region, &sim_, std::move(client)));
    return true;
  };
  stream_secondaries_.resize(streams_.size());
  std::vector<size_t> default_set;
  for (size_t i = 0; i < streams_.size(); ++i) {
    const WorkStream& stream = streams_[i];
    std::vector<size_t>& set = stream_secondaries_[i];
    if (stream.locations.empty() && stream.endpoints.empty()) {
      if (default_set.empty()) {
        for (int s = 0; s < setup_.secondaries; ++s) {
          add_secondary(deployment.NodeRegion(s % nodes), {}, s % nodes, &default_set);
        }
      }
      set = default_set;
    } else if (stream.locations.empty()) {
      // View-only streams: default locations, explicit endpoints.
      for (int s = 0; s < setup_.secondaries; ++s) {
        if (!add_secondary(deployment.NodeRegion(s % nodes), stream.endpoints, s % nodes,
                           &set)) {
          return false;
        }
      }
    } else {
      for (const Region region : stream.locations) {
        // Route to the nearest node: the first node in the same region, or
        // node 0 when the deployment does not span that region.
        int endpoint = 0;
        for (int node = 0; node < nodes; ++node) {
          if (deployment.NodeRegion(node) == region) {
            endpoint = node;
            break;
          }
        }
        if (!add_secondary(region, stream.endpoints, endpoint, &set)) {
          return false;
        }
      }
    }
  }
  return true;
}

bool StreamRun::Encode() {
  ChainContext& ctx = chain_->context();
  // Pre-sign and partition every stream. Arrivals are counted for all
  // streams first so transaction storage, the mempool side tables, the
  // block-tx pool and every Secondary's schedule can be sized once for the
  // whole run before encoding begins; encoding then walks them, so no
  // stream's times are ever stored but in its Secondaries' schedules.
  size_t total_txs = 0;
  std::vector<size_t> schedule_sizes(secondaries_.size(), 0);
  for (size_t i = 0; i < streams_.size(); ++i) {
    const size_t count = CountArrivals(streams_[i].workload.trace);
    total_txs += count;
    // The walk below deals transaction k to set[k % set.size()].
    const std::vector<size_t>& set = stream_secondaries_[i];
    for (size_t j = 0; j < set.size(); ++j) {
      schedule_sizes[set[j]] += count / set.size() + (j < count % set.size() ? 1 : 0);
    }
  }
  ctx.ReserveTxs(total_txs);
  for (size_t s = 0; s < secondaries_.size(); ++s) {
    secondaries_[s]->Reserve(schedule_sizes[s]);
  }
  for (size_t i = 0; i < streams_.size(); ++i) {
    const DappWorkload& workload = streams_[i].workload;
    const int contract_index =
        workload.contract.empty() ? -1 : contracts_.at(workload.contract).contract_index;
    CallTable table(&*connector_, accounts_, workload, contract_index);
    const std::vector<size_t>& set = stream_secondaries_[i];
    uint64_t k = 0;
    const bool encoded = ForEachArrival(workload.trace, [&](SimTime time) {
      const TxId tx = table.Encode(k, time);
      if (tx == kInvalidTx) {
        result_.failure_reason =
            "invocation " + workload.InvocationFor(k).function + ": wire size out of range";
        return false;
      }
      secondaries_[set[k % set.size()]]->Assign(time, tx);
      if (k == 0 && contract_index >= 0 && result_.failure_reason.empty()) {
        const VmStatus status = ctx.txs().at(tx).exec_status;
        if (status != VmStatus::kOk) {
          result_.failure_reason = std::string(VmStatusName(status));
        }
      }
      ++k;
      return true;
    });
    if (!encoded) {
      return false;
    }
  }
  return true;
}

void StreamRun::Run() {
  for (const WorkStream& stream : streams_) {
    duration_ = std::max(duration_, stream.workload.trace.duration_seconds());
  }
  chain_->Start();
  for (const auto& secondary : secondaries_) {
    secondary->Start();
  }
  horizon_ = Seconds(static_cast<int64_t>(duration_)) + setup_.drain;
  sim_.RunUntil(*horizon_);
}

RunResult StreamRun::Finish() {
  if (chain_ == nullptr) {
    return std::move(result_);
  }
  ChainContext& ctx = chain_->context();
  if (horizon_.has_value()) {
    const SimTime horizon = *horizon_;
    result_.report = BuildReport(ctx.txs(), horizon, ctx.params().name, setup_.deployment,
                                 workload_name_, static_cast<double>(duration_));
    result_.chain_stats = ctx.stats();
    for (const auto& secondary : secondaries_) {
      result_.behind_schedule += secondary->behind_schedule();
    }
    if (!setup_.faults.empty() || setup_.retry.enabled()) {
      result_.report.view_changes = ctx.stats().view_changes;
      result_.report.blocks_abandoned = ctx.stats().blocks_abandoned;
      result_.report.client_retries = connector_->client_stats().retries;
      result_.report.client_aborts = connector_->client_stats().aborts;
      AddResilienceMetrics(&result_.report, ctx.txs(), horizon, setup_.faults.HealTimes());
    }
    // Evidence counters are emitted only when the schedule actually declares
    // a Byzantine window, so honest-fault reports don't change shape.
    bool any_byzantine = false;
    for (const FaultEvent& event : setup_.faults.events) {
      any_byzantine = any_byzantine || IsByzantine(event.kind);
    }
    if (any_byzantine) {
      result_.report.byzantine = true;
      result_.report.equivocations_seen = ctx.stats().equivocations_seen;
      result_.report.double_votes_seen = ctx.stats().double_votes_seen;
      result_.report.votes_withheld = ctx.stats().votes_withheld;
      result_.report.txs_censored = ctx.stats().txs_censored;
      result_.report.lazy_proposals = ctx.stats().lazy_proposals;
    }
    if (!setup_.results_json_path.empty() &&
        !WriteResultsJsonFile(setup_.results_json_path, result_.report, ctx.txs())) {
      result_.unwritten_files.push_back(setup_.results_json_path);
    }
    if (!setup_.results_csv_path.empty() &&
        !WriteResultsCsvFile(setup_.results_csv_path, ctx.txs())) {
      result_.unwritten_files.push_back(setup_.results_csv_path);
    }
  }
  // Every result from a built chain carries what the run's own objects
  // counted, the contract deployments of a run rejected before it starts
  // included.
  const MessagePlaneScratch& plane = *ctx.plane();
  result_.events_executed = sim_.events_executed();
  result_.counts = {sim_.arrivals_delivered(), plane.vote_rounds, plane.vote_receivers,
                    plane.sortition_draws, ctx.oracle().vm_ops()};
  return std::move(result_);
}

}  // namespace diablo
