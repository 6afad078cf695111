#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "src/chains/registry.h"
#include "tests/chain_run.h"

namespace diablo {
namespace {

// Committed transactions per second of active commit span (avoids counting
// post-workload drain as instantaneous throughput).
double Throughput(const TxStore& txs) {
  SimTime last_commit = 0;
  size_t count = 0;
  for (TxId id = 0; id < txs.size(); ++id) {
    const Transaction& tx = txs.at(id);
    if (tx.phase == TxPhase::kCommitted) {
      last_commit = std::max(last_commit, tx.commit_time);
      ++count;
    }
  }
  return last_commit <= 0 ? 0.0 : static_cast<double>(count) / ToSeconds(last_commit);
}

double AvgLatency(const TxStore& txs) {
  double sum = 0;
  size_t count = 0;
  for (TxId id = 0; id < txs.size(); ++id) {
    const Transaction& tx = txs.at(id);
    if (tx.phase == TxPhase::kCommitted) {
      sum += tx.LatencySeconds();
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

class AllChainsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllChainsTest, CommitsModestLoadOnTestnet) {
  ChainRun run(GetChainParams(GetParam()), "testnet", 42);
  run.SubmitTransfers(/*tps=*/50, /*seconds=*/20, /*accounts=*/200);
  run.Run(/*horizon_seconds=*/90);
  const TxStore& txs = run.chain->context().txs();
  EXPECT_GE(run.Committed(), txs.size() * 8 / 10)
      << GetParam() << " committed " << run.Committed() << "/" << txs.size();
  EXPECT_GT(AvgLatency(txs), 0.0);
  EXPECT_GT(run.chain->context().stats().blocks_produced, 0u);
}

TEST_P(AllChainsTest, LatencyRespectsSubmitOrder) {
  ChainRun run(GetChainParams(GetParam()), "testnet", 7);
  run.SubmitTransfers(20, 10, 200);
  run.Run(90);
  const TxStore& txs = run.chain->context().txs();
  for (TxId id = 0; id < txs.size(); ++id) {
    const Transaction& tx = txs.at(id);
    if (tx.phase == TxPhase::kCommitted) {
      EXPECT_GT(tx.commit_time, tx.submit_time);
    }
  }
}

TEST_P(AllChainsTest, DeterministicAcrossSeeds) {
  auto outcome = [&](uint64_t seed) {
    ChainRun run(GetChainParams(GetParam()), "devnet", seed);
    run.SubmitTransfers(30, 10, 200);
    run.Run(60);
    return std::make_pair(run.Committed(), run.chain->context().stats().blocks_produced);
  };
  EXPECT_EQ(outcome(123), outcome(123));
}

INSTANTIATE_TEST_SUITE_P(SixChains, AllChainsTest,
                         ::testing::Values("algorand", "avalanche", "diem", "quorum",
                                           "ethereum", "solana"));

TEST(SolanaTest, ThirtyConfirmationLatencyFloor) {
  ChainRun run(GetChainParams("solana"), "testnet", 5);
  run.SubmitTransfers(100, 10, 200);
  run.Run(60);
  // 30 confirmations at 400 ms slots puts a ~12 s floor under latency (§5.2).
  const double latency = AvgLatency(run.chain->context().txs());
  EXPECT_GE(latency, 12.0);
  EXPECT_LE(latency, 16.0);
}

TEST(SolanaTest, SlotCadenceIndependentOfLoad) {
  ChainRun idle(GetChainParams("solana"), "testnet", 5);
  idle.Run(20);
  ChainRun busy(GetChainParams("solana"), "testnet", 5);
  busy.SubmitTransfers(1000, 15, 200);
  busy.Run(20);
  // PoH keeps ticking: block (slot) production rate is load-independent.
  EXPECT_NEAR(static_cast<double>(idle.chain->context().stats().blocks_produced),
              static_cast<double>(busy.chain->context().stats().blocks_produced), 2.0);
}

TEST(DiemTest, LowLatencyOnLan) {
  ChainRun run(GetChainParams("diem"), "datacenter", 5);
  run.SubmitTransfers(500, 10, 200);
  run.Run(60);
  // §6.2: Diem reaches its lowest latencies (~2 s) on single-datacenter
  // deployments.
  const TxStore& txs = run.chain->context().txs();
  EXPECT_GE(run.Committed(), txs.size() * 9 / 10);
  EXPECT_LT(AvgLatency(txs), 2.5);
}

TEST(DiemTest, DegradedOnLargeWanDeployment) {
  // §6.2/§6.6: Diem is designed for low-RTT networks; the leader's direct
  // broadcast to 200 geo-distributed validators throttles both throughput
  // and latency on the community configuration.
  ChainRun lan(GetChainParams("diem"), "datacenter", 5);
  lan.SubmitTransfers(1000, 10, 200);
  lan.Run(90);
  ChainRun wan(GetChainParams("diem"), "community", 5);
  wan.SubmitTransfers(1000, 10, 200);
  wan.Run(90);
  const TxStore& lan_txs = lan.chain->context().txs();
  const TxStore& wan_txs = wan.chain->context().txs();
  EXPECT_GT(AvgLatency(wan_txs), 2.0 * AvgLatency(lan_txs));
  EXPECT_LT(Throughput(wan_txs), 0.6 * Throughput(lan_txs));
}

TEST(DiemTest, PerSignerCapDropsBursts) {
  // One signer floods: the 100-tx per-signer cap rejects the excess (§5.2).
  ChainRun run(GetChainParams("diem"), "testnet", 5);
  run.SubmitTransfers(1500, 3, /*accounts=*/1);
  run.Run(60);
  EXPECT_GT(run.Dropped(), 0u);
}

TEST(QuorumTest, CollapsesUnderSustainedOverload) {
  // §6.3: Quorum's never-drop pool grows until the leader cannot assemble a
  // proposal within the round timeout; throughput goes to zero. Scaled-down
  // parameters keep the test fast.
  ChainParams params = GetChainParams("quorum");
  params.proposal_overhead_per_pending_tx = Milliseconds(2);
  params.round_timeout = Seconds(2);
  params.max_block_txs = 100;
  ChainRun run(params, "testnet", 5);
  run.SubmitTransfers(500, 20, 200);
  run.Run(60);
  EXPECT_GT(run.chain->context().stats().view_changes, 0u);
  EXPECT_LT(run.Committed(), run.chain->context().txs().size() / 2);
}

TEST(QuorumTest, NeverDropsAtAdmission) {
  ChainRun run(GetChainParams("quorum"), "testnet", 5);
  run.SubmitTransfers(2000, 5, 200);
  run.Run(30);
  // Unbounded pool: nothing is rejected on arrival.
  EXPECT_EQ(run.chain->context().mempool().rejected(), 0u);
  EXPECT_EQ(run.Dropped(), 0u);
}

TEST(EthereumTest, ConfirmationDepthDelaysFinality) {
  ChainRun run(GetChainParams("ethereum"), "testnet", 5);
  run.SubmitTransfers(50, 10, 200);
  run.Run(120);
  // 6 confirmations at a 5 s period: at least ~30 s before commit.
  EXPECT_GE(AvgLatency(run.chain->context().txs()), 30.0);
}

TEST(EthereumTest, PoolCapDropsFlood) {
  ChainRun run(GetChainParams("ethereum"), "testnet", 5);
  run.SubmitTransfers(5000, 5, 200);
  run.Run(60);
  // 25k offered against a 5120-entry pool draining ~300 TPS: most rejected.
  EXPECT_GT(run.Dropped(), run.chain->context().txs().size() / 2);
}

TEST(AvalancheTest, ThroughputCappedByBlockGas) {
  ChainRun run(GetChainParams("avalanche"), "testnet", 5);
  run.SubmitTransfers(600, 20, 200);
  run.Run(120);
  // 8M gas / 21k-gas transfers / 1.9 s >= period: ~200 TPS ceiling (§6.2).
  const double tput = Throughput(run.chain->context().txs());
  EXPECT_LT(tput, 280.0);
  EXPECT_GT(tput, 120.0);
}

TEST(AlgorandTest, RoundTimeFloorsLatency) {
  ChainRun run(GetChainParams("algorand"), "testnet", 5);
  run.SubmitTransfers(100, 10, 200);
  run.Run(90);
  // BA* step timers put a multi-second floor under every commit.
  EXPECT_GE(AvgLatency(run.chain->context().txs()), 2.0);
  EXPECT_GE(run.Committed(), run.chain->context().txs().size() * 8 / 10);
}

TEST(RegistryTest, ClaimedFiguresPresent) {
  EXPECT_EQ(ClaimedFigures().size(), 3u);
  ASSERT_NE(FindClaim("solana"), nullptr);
  EXPECT_EQ(FindClaim("solana")->claimed_throughput, "200K TPS");
  EXPECT_EQ(FindClaim("bitcoin"), nullptr);
}

TEST(FactoryTest, BuildsAllSixChains) {
  Simulation sim(1);
  Network net(&sim);
  for (const std::string& name : AllChainNames()) {
    const auto chain =
        BuildChainFromParams(GetChainParams(name), GetDeployment("testnet"), &sim, &net);
    ASSERT_NE(chain, nullptr) << name;
    EXPECT_EQ(chain->context().params().name, name);
  }
  EXPECT_THROW(
      BuildChainFromParams(GetChainParams("bitcoin"), GetDeployment("testnet"), &sim, &net),
      std::invalid_argument);
}

TEST(RedBellyTest, LeaderlessDbftCommitsNormally) {
  ChainRun run(GetChainParams("redbelly"), "testnet", 3);
  run.SubmitTransfers(500, 10, 100);
  run.Run(60);
  EXPECT_GE(run.Committed(), 4500u);
  EXPECT_EQ(run.chain->context().stats().view_changes, 0u);
}

TEST(RedBellyTest, ImmuneToTheQuorumCollapse) {
  // §6.3/§6.6: under the same sustained 10k TPS flood that collapses
  // Quorum's leader-based IBFT, leaderless DBFT keeps a high throughput.
  auto run_flood = [](const char* chain) {
    ChainRun run(GetChainParams(chain), "testnet", 3);
    run.SubmitTransfers(10000, 30, 100);
    run.Run(120);
    return run.Committed();
  };
  const size_t redbelly = run_flood("redbelly");
  const size_t quorum = run_flood("quorum");
  EXPECT_GT(redbelly, 5 * quorum);
  EXPECT_GT(redbelly, 100000u);
}

TEST(RedBellyTest, SuperblocksUniteManyProposersWork) {
  ChainRun run(GetChainParams("redbelly"), "devnet", 3);
  run.SubmitTransfers(4000, 10, 100);
  run.Run(60);
  const Ledger& ledger = run.chain->context().ledger();
  ASSERT_GT(ledger.block_count(), 0u);
  // Superblocks carry far more than a single leader's mini-block.
  size_t biggest = 0;
  for (size_t i = 0; i < ledger.block_count(); ++i) {
    biggest = std::max<size_t>(biggest, ledger.block(i).tx_count);
  }
  EXPECT_GT(biggest, 2000u);
}

TEST(FaultInjectionTest, IbftStallsWithoutQuorum) {
  ChainRun run(GetChainParams("quorum"), "testnet", 5);
  run.SubmitTransfers(100, 20, 100);
  run.chain->Start();
  // Partition 4 of 10 nodes at t = 5 s: fewer than 2f+1 = 7 remain.
  run.sim.ScheduleAt(Seconds(5), [&run] {
    for (int i = 0; i < 4; ++i) {
      run.net.SetPartitioned(run.chain->context().hosts()[static_cast<size_t>(i)], true);
    }
  });
  run.sim.RunUntil(Seconds(120));
  // Only the pre-partition seconds committed.
  EXPECT_LT(run.Committed(), 900u);
  EXPECT_GT(run.chain->context().stats().view_changes, 0u);
}

TEST(FaultInjectionTest, IbftSurvivesMinorityPartition) {
  ChainRun run(GetChainParams("quorum"), "testnet", 5);
  run.SubmitTransfers(100, 20, 100);
  run.chain->Start();
  // 3 of 10 partitioned: 7 = 2f+1 remain, the protocol keeps committing.
  run.sim.ScheduleAt(Seconds(5), [&run] {
    for (int i = 0; i < 3; ++i) {
      run.net.SetPartitioned(run.chain->context().hosts()[static_cast<size_t>(i)], true);
    }
  });
  run.sim.RunUntil(Seconds(120));
  // Progress continues, though rounds whose rotating proposer is partitioned
  // burn a view-change timeout each.
  EXPECT_GE(run.Committed(), 800u);
}

TEST(FaultInjectionTest, ExtraDelaySlowsCommits) {
  auto avg_latency = [](bool degraded) {
    ChainRun run(GetChainParams("quorum"), "devnet", 5);
    if (degraded) {
      for (int i = 0; i < kRegionCount; ++i) {
        for (int j = i + 1; j < kRegionCount; ++j) {
          run.net.SetExtraDelay(static_cast<Region>(i), static_cast<Region>(j),
                                Milliseconds(300));
        }
      }
    }
    run.SubmitTransfers(100, 10, 100);
    run.Run(90);
    const TxStore& txs = run.chain->context().txs();
    double sum = 0;
    size_t n = 0;
    for (TxId id = 0; id < txs.size(); ++id) {
      if (txs.at(id).phase == TxPhase::kCommitted) {
        sum += txs.at(id).LatencySeconds();
        ++n;
      }
    }
    return n == 0 ? 1e9 : sum / static_cast<double>(n);
  };
  EXPECT_GT(avg_latency(true), avg_latency(false) + 0.5);
}

}  // namespace
}  // namespace diablo
