#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "src/chains/chain_factory.h"
#include "src/chains/params.h"
#include "src/chains/registry.h"

namespace diablo {
namespace {

// Minimal submission driver: constant-rate native transfers straight into
// the chain's endpoints (the full diablo primary/secondary path is exercised
// by the core tests).
class Driver {
 public:
  Driver(const ChainParams& params, const std::string& deployment, uint64_t seed)
      : sim_(seed), net_(&sim_) {
    chain_ = BuildChainFromParams(params, GetDeployment(deployment), &sim_, &net_);
  }

  void SubmitConstant(double tps, int seconds, int accounts = 200) {
    ChainContext& ctx = chain_->context();
    const int n = ctx.node_count();
    const uint16_t row =
        *ctx.txs().InternRow({NativeTransferGas(ctx.params().dialect), kNativeTransferBytes});
    uint32_t seq = 0;
    for (int s = 0; s < seconds; ++s) {
      const int count = static_cast<int>(tps);
      for (int i = 0; i < count; ++i) {
        Transaction tx;
        tx.account = seq % static_cast<uint32_t>(accounts);
        tx.row = row;
        const SimTime when =
            Seconds(s) + Milliseconds(static_cast<int64_t>(1000.0 * i / count));
        tx.submit_time = when;
        const TxId id = ctx.txs().Add(tx);
        const int endpoint = static_cast<int>(seq % static_cast<uint32_t>(n));
        sim_.ScheduleAt(when, [&ctx, id, endpoint] {
          if (!ctx.SubmitAtEndpoint(id, endpoint, ctx.sim()->Now())) {
            ctx.DropTx(id);  // a one-shot client's refusal is a drop
          }
        });
        ++seq;
      }
    }
    submitted_ += static_cast<size_t>(seconds) * static_cast<size_t>(tps);
  }

  void Run(int horizon_seconds) {
    chain_->Start();
    sim_.RunUntil(Seconds(horizon_seconds));
  }

  size_t submitted() const { return submitted_; }

  size_t Committed() const {
    return chain_->context().txs().PhaseCounts()[static_cast<size_t>(TxPhase::kCommitted)];
  }

  size_t Dropped() const {
    return chain_->context().txs().PhaseCounts()[static_cast<size_t>(TxPhase::kDropped)];
  }

  // Committed transactions per second of active commit span (avoids counting
  // post-workload drain as instantaneous throughput).
  double Throughput() const {
    const TxStore& txs = chain_->context().txs();
    SimTime last_commit = 0;
    size_t count = 0;
    for (TxId id = 0; id < txs.size(); ++id) {
      const Transaction& tx = txs.at(id);
      if (tx.phase == TxPhase::kCommitted) {
        last_commit = std::max(last_commit, tx.commit_time);
        ++count;
      }
    }
    return last_commit <= 0 ? 0.0
                            : static_cast<double>(count) / ToSeconds(last_commit);
  }

  double AvgLatency() const {
    const TxStore& txs = chain_->context().txs();
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

  ChainContext& ctx() { return chain_->context(); }

 private:
  Simulation sim_;
  Network net_;
  std::unique_ptr<ChainInstance> chain_;
  size_t submitted_ = 0;
};

class AllChainsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllChainsTest, CommitsModestLoadOnTestnet) {
  Driver driver(GetChainParams(GetParam()), "testnet", 42);
  driver.SubmitConstant(/*tps=*/50, /*seconds=*/20);
  driver.Run(/*horizon_seconds=*/90);
  EXPECT_GE(driver.Committed(), driver.submitted() * 8 / 10)
      << GetParam() << " committed " << driver.Committed() << "/" << driver.submitted();
  EXPECT_GT(driver.AvgLatency(), 0.0);
  EXPECT_GT(driver.ctx().stats().blocks_produced, 0u);
}

TEST_P(AllChainsTest, LatencyRespectsSubmitOrder) {
  Driver driver(GetChainParams(GetParam()), "testnet", 7);
  driver.SubmitConstant(20, 10);
  driver.Run(90);
  const TxStore& txs = driver.ctx().txs();
  for (TxId id = 0; id < txs.size(); ++id) {
    const Transaction& tx = txs.at(id);
    if (tx.phase == TxPhase::kCommitted) {
      EXPECT_GT(tx.commit_time, tx.submit_time);
    }
  }
}

TEST_P(AllChainsTest, DeterministicAcrossSeeds) {
  auto run = [&](uint64_t seed) {
    Driver driver(GetChainParams(GetParam()), "devnet", seed);
    driver.SubmitConstant(30, 10);
    driver.Run(60);
    return std::make_pair(driver.Committed(), driver.ctx().stats().blocks_produced);
  };
  EXPECT_EQ(run(123), run(123));
}

INSTANTIATE_TEST_SUITE_P(SixChains, AllChainsTest,
                         ::testing::Values("algorand", "avalanche", "diem", "quorum",
                                           "ethereum", "solana"));

TEST(SolanaTest, ThirtyConfirmationLatencyFloor) {
  Driver driver(GetChainParams("solana"), "testnet", 5);
  driver.SubmitConstant(100, 10);
  driver.Run(60);
  // 30 confirmations at 400 ms slots puts a ~12 s floor under latency (§5.2).
  EXPECT_GE(driver.AvgLatency(), 12.0);
  EXPECT_LE(driver.AvgLatency(), 16.0);
}

TEST(SolanaTest, SlotCadenceIndependentOfLoad) {
  Driver idle(GetChainParams("solana"), "testnet", 5);
  idle.Run(20);
  Driver busy(GetChainParams("solana"), "testnet", 5);
  busy.SubmitConstant(1000, 15);
  busy.Run(20);
  // PoH keeps ticking: block (slot) production rate is load-independent.
  EXPECT_NEAR(static_cast<double>(idle.ctx().stats().blocks_produced),
              static_cast<double>(busy.ctx().stats().blocks_produced), 2.0);
}

TEST(DiemTest, LowLatencyOnLan) {
  Driver driver(GetChainParams("diem"), "datacenter", 5);
  driver.SubmitConstant(500, 10);
  driver.Run(60);
  // §6.2: Diem reaches its lowest latencies (~2 s) on single-datacenter
  // deployments.
  EXPECT_GE(driver.Committed(), driver.submitted() * 9 / 10);
  EXPECT_LT(driver.AvgLatency(), 2.5);
}

TEST(DiemTest, DegradedOnLargeWanDeployment) {
  // §6.2/§6.6: Diem is designed for low-RTT networks; the leader's direct
  // broadcast to 200 geo-distributed validators throttles both throughput
  // and latency on the community configuration.
  Driver lan(GetChainParams("diem"), "datacenter", 5);
  lan.SubmitConstant(1000, 10);
  lan.Run(90);
  Driver wan(GetChainParams("diem"), "community", 5);
  wan.SubmitConstant(1000, 10);
  wan.Run(90);
  EXPECT_GT(wan.AvgLatency(), 2.0 * lan.AvgLatency());
  EXPECT_LT(wan.Throughput(), 0.6 * lan.Throughput());
}

TEST(DiemTest, PerSignerCapDropsBursts) {
  // One signer floods: the 100-tx per-signer cap rejects the excess (§5.2).
  Driver driver(GetChainParams("diem"), "testnet", 5);
  driver.SubmitConstant(1500, 3, /*accounts=*/1);
  driver.Run(60);
  EXPECT_GT(driver.Dropped(), 0u);
}

TEST(QuorumTest, CollapsesUnderSustainedOverload) {
  // §6.3: Quorum's never-drop pool grows until the leader cannot assemble a
  // proposal within the round timeout; throughput goes to zero. Scaled-down
  // parameters keep the test fast.
  ChainParams params = GetChainParams("quorum");
  params.proposal_overhead_per_pending_tx = Milliseconds(2);
  params.round_timeout = Seconds(2);
  params.max_block_txs = 100;
  Driver driver(params, "testnet", 5);
  driver.SubmitConstant(500, 20);
  driver.Run(60);
  EXPECT_GT(driver.ctx().stats().view_changes, 0u);
  EXPECT_LT(driver.Committed(), driver.submitted() / 2);
}

TEST(QuorumTest, NeverDropsAtAdmission) {
  Driver driver(GetChainParams("quorum"), "testnet", 5);
  driver.SubmitConstant(2000, 5);
  driver.Run(30);
  // Unbounded pool: nothing is rejected on arrival.
  EXPECT_EQ(driver.ctx().mempool().rejected(), 0u);
  EXPECT_EQ(driver.Dropped(), 0u);
}

TEST(EthereumTest, ConfirmationDepthDelaysFinality) {
  Driver driver(GetChainParams("ethereum"), "testnet", 5);
  driver.SubmitConstant(50, 10);
  driver.Run(120);
  // 6 confirmations at a 5 s period: at least ~30 s before commit.
  EXPECT_GE(driver.AvgLatency(), 30.0);
}

TEST(EthereumTest, PoolCapDropsFlood) {
  Driver driver(GetChainParams("ethereum"), "testnet", 5);
  driver.SubmitConstant(5000, 5);
  driver.Run(60);
  // 25k offered against a 5120-entry pool draining ~300 TPS: most rejected.
  EXPECT_GT(driver.Dropped(), driver.submitted() / 2);
}

TEST(AvalancheTest, ThroughputCappedByBlockGas) {
  Driver driver(GetChainParams("avalanche"), "testnet", 5);
  driver.SubmitConstant(600, 20);
  driver.Run(120);
  // 8M gas / 21k-gas transfers / 1.9 s >= period: ~200 TPS ceiling (§6.2).
  const double tput = driver.Throughput();
  EXPECT_LT(tput, 280.0);
  EXPECT_GT(tput, 120.0);
}

TEST(AlgorandTest, RoundTimeFloorsLatency) {
  Driver driver(GetChainParams("algorand"), "testnet", 5);
  driver.SubmitConstant(100, 10);
  driver.Run(90);
  // BA* step timers put a multi-second floor under every commit.
  EXPECT_GE(driver.AvgLatency(), 2.0);
  EXPECT_GE(driver.Committed(), driver.submitted() * 8 / 10);
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
    const auto chain = BuildChain(name, GetDeployment("testnet"), &sim, &net);
    ASSERT_NE(chain, nullptr) << name;
    EXPECT_EQ(chain->context().params().name, name);
  }
  EXPECT_THROW(BuildChain("bitcoin", GetDeployment("testnet"), &sim, &net),
               std::invalid_argument);
}

// Fixed-cadence submission driver for the leaderless-DBFT and network
// fault cases below.
struct MiniRun {
  Simulation sim;
  Network net;
  std::unique_ptr<ChainInstance> chain;

  MiniRun(const ChainParams& params, const std::string& deployment, uint64_t seed)
      : sim(seed), net(&sim) {
    chain = BuildChainFromParams(params, GetDeployment(deployment), &sim, &net);
  }

  void Submit(int tps, int seconds) {
    ChainContext& ctx = chain->context();
    const uint16_t row =
        *ctx.txs().InternRow({NativeTransferGas(ctx.params().dialect), kNativeTransferBytes});
    uint32_t seq = 0;
    for (int s = 0; s < seconds; ++s) {
      for (int i = 0; i < tps; ++i) {
        Transaction tx;
        tx.account = seq % 100;
        tx.row = row;
        const SimTime when = Seconds(s) + Milliseconds(1000LL * i / tps);
        tx.submit_time = when;
        const TxId id = ctx.txs().Add(tx);
        const int endpoint = static_cast<int>(seq) % ctx.node_count();
        sim.ScheduleAt(when, [this, id, endpoint] {
          ChainContext& c = chain->context();
          if (!c.SubmitAtEndpoint(id, endpoint, sim.Now())) {
            c.DropTx(id);  // a one-shot client's refusal is a drop
          }
        });
        ++seq;
      }
    }
  }

  size_t Committed() {
    return chain->context().txs().PhaseCounts()[static_cast<size_t>(TxPhase::kCommitted)];
  }
};

TEST(RedBellyTest, LeaderlessDbftCommitsNormally) {
  MiniRun run(GetChainParams("redbelly"), "testnet", 3);
  run.Submit(500, 10);
  run.chain->Start();
  run.sim.RunUntil(Seconds(60));
  EXPECT_GE(run.Committed(), 4500u);
  EXPECT_EQ(run.chain->context().stats().view_changes, 0u);
}

TEST(RedBellyTest, ImmuneToTheQuorumCollapse) {
  // §6.3/§6.6: under the same sustained 10k TPS flood that collapses
  // Quorum's leader-based IBFT, leaderless DBFT keeps a high throughput.
  auto run_flood = [](const char* chain) {
    MiniRun run(GetChainParams(chain), "testnet", 3);
    run.Submit(10000, 30);
    run.chain->Start();
    run.sim.RunUntil(Seconds(120));
    return run.Committed();
  };
  const size_t redbelly = run_flood("redbelly");
  const size_t quorum = run_flood("quorum");
  EXPECT_GT(redbelly, 5 * quorum);
  EXPECT_GT(redbelly, 100000u);
}

TEST(RedBellyTest, SuperblocksUniteManyProposersWork) {
  MiniRun run(GetChainParams("redbelly"), "devnet", 3);
  run.Submit(4000, 10);
  run.chain->Start();
  run.sim.RunUntil(Seconds(60));
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
  ChainParams params = GetChainParams("quorum");
  MiniRun run(params, "testnet", 5);
  run.Submit(100, 20);
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
  ChainParams params = GetChainParams("quorum");
  MiniRun run(params, "testnet", 5);
  run.Submit(100, 20);
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
    ChainParams params = GetChainParams("quorum");
    MiniRun run(params, "devnet", 5);
    if (degraded) {
      for (int i = 0; i < kRegionCount; ++i) {
        for (int j = i + 1; j < kRegionCount; ++j) {
          run.net.SetExtraDelay(static_cast<Region>(i), static_cast<Region>(j),
                                Milliseconds(300));
        }
      }
    }
    run.Submit(100, 10);
    run.chain->Start();
    run.sim.RunUntil(Seconds(90));
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
