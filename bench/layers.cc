// Per-layer breakdown extension (in the spirit of Blockbench's layered
// benchmarks, §7): isolate the consensus layer (empty-block cadence and
// finality), the execution layer (VM gas throughput per dialect) and the
// data layer (block dissemination time across the WAN).
#include "bench/bench_util.h"
#include "src/chain/vote_round.h"
#include "src/chains/chain_factory.h"
#include "src/chains/params.h"
#include "src/contracts/contracts.h"
#include "src/vm/interpreter.h"

namespace diablo {
namespace {

void ConsensusLayer() {
  std::printf("\nconsensus layer — empty-chain block cadence and finality"
              " (consortium, no load):\n");
  std::printf("%-10s %14s %16s\n", "chain", "blocks/min", "median finality");
  for (const std::string& name : AllChainNames()) {
    Simulation sim(5);
    Network net(&sim);
    const auto chain = BuildChain(name, GetDeployment("consortium"), &sim, &net);
    chain->Start();
    sim.RunUntil(Seconds(120));
    const Ledger& ledger = chain->context().ledger();
    SampleSet finality;
    for (size_t i = 0; i < ledger.block_count(); ++i) {
      finality.Add(ToSeconds(ledger.block(i).finalized_at - ledger.block(i).proposed_at));
    }
    std::printf("%-10s %14.1f %14.2f s\n", name.c_str(),
                static_cast<double>(ledger.block_count()) / 2.0, finality.Median());
  }
}

void ExecutionLayer() {
  std::printf("\nexecution layer — measured VM cost per DApp call, per dialect:\n");
  std::printf("%-10s", "");
  for (const char* contract : {"exchange", "dota", "counter", "uber", "youtube"}) {
    std::printf(" %14s", contract);
  }
  std::printf("\n");
  for (const VmDialect dialect :
       {VmDialect::kGeth, VmDialect::kAvm, VmDialect::kMoveVm, VmDialect::kEbpf}) {
    std::printf("%-10s", std::string(DialectName(dialect)).c_str());
    const struct {
      const char* contract;
      const char* function;
      std::vector<int64_t> args;
    } kProbes[] = {{"exchange", "buy_apple", {}},
                   {"dota", "update", {1, 1}},
                   {"counter", "add", {}},
                   {"uber", "check_distance", {5000, 5000}},
                   {"youtube", "upload", {1024}}};
    for (const auto& probe : kProbes) {
      CostOracle oracle(dialect);
      const int index = oracle.Deploy(*FindContract(probe.contract));
      if (index < 0) {
        std::printf(" %14s", "absent");
        continue;
      }
      const CallProfile& profile = oracle.Profile(index, probe.function, probe.args);
      if (profile.status != VmStatus::kOk) {
        std::printf(" %14s", "budget!");
      } else {
        std::printf(" %11lldgas", static_cast<long long>(profile.gas));
      }
    }
    std::printf("\n");
  }
}

void DataLayer() {
  std::printf("\ndata layer — 90th-percentile dissemination of a 1,000-tx block"
              " across 200 geo-distributed nodes:\n");
  Simulation sim(5);
  Network net(&sim);
  const DeploymentConfig consortium = GetDeployment("consortium");
  std::vector<HostId> hosts;
  for (int i = 0; i < consortium.node_count; ++i) {
    hosts.push_back(net.AddHost(consortium.NodeRegion(i)));
  }
  BroadcastScratch scratch;
  std::vector<SimDuration> delays;
  for (const int fanout : {4, 8, 199}) {
    net.BroadcastDelaysInto(hosts[0], hosts, 1000 * 140, fanout, &scratch, &delays);
    SampleSet arrival;
    for (const SimDuration d : delays) {
      if (d != kUnreachable) {
        arrival.Add(ToSeconds(d));
      }
    }
    std::printf("  fanout %3d (%s): p50 %5.2f s  p90 %5.2f s  max %5.2f s\n", fanout,
                fanout == 199 ? "leader star, HotStuff-style" : "gossip tree",
                arrival.Percentile(0.5), arrival.Percentile(0.9), arrival.Max());
  }
}

}  // namespace
}  // namespace diablo

int main() {
  diablo::PrintHeader("Layer breakdown — consensus / execution / data (Blockbench-style)");
  diablo::ConsensusLayer();
  diablo::ExecutionLayer();
  diablo::DataLayer();
  return 0;
}
