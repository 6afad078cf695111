// Per-engine protocol properties: cadences, pipelines, confirmation rules,
// committee math and the gossip hop-scale model.
#include <gtest/gtest.h>

#include <set>

#include "src/chains/chain_factory.h"
#include "src/chains/params.h"
#include "src/support/stats.h"

namespace diablo {
namespace {

struct EngineRun {
  Simulation sim;
  Network net;
  std::unique_ptr<ChainInstance> chain;

  EngineRun(ChainParams params, const std::string& deployment, uint64_t seed = 3)
      : sim(seed), net(&sim) {
    chain = BuildChainFromParams(params, GetDeployment(deployment), &sim, &net);
  }

  void SubmitConstant(int tps, int seconds) {
    ChainContext& ctx = chain->context();
    const uint16_t row =
        *ctx.txs().InternRow({NativeTransferGas(ctx.params().dialect), kNativeTransferBytes});
    uint32_t seq = 0;
    for (int s = 0; s < seconds; ++s) {
      for (int i = 0; i < tps; ++i) {
        Transaction tx;
        tx.account = seq % 500;
        tx.row = row;
        tx.submit_time = Seconds(s) + Milliseconds(1000LL * i / tps);
        const TxId id = ctx.txs().Add(tx);
        const int endpoint = static_cast<int>(seq) % ctx.node_count();
        sim.ScheduleAt(tx.submit_time, [this, id, endpoint] {
          ChainContext& c = chain->context();
          if (!c.SubmitAtEndpoint(id, endpoint, sim.Now())) {
            c.DropTx(id);  // a one-shot client's refusal is a drop
          }
        });
        ++seq;
      }
    }
  }

  void Go(int horizon_s) {
    chain->Start();
    sim.RunUntil(Seconds(horizon_s));
  }
};

TEST(GossipHopScaleTest, GrowsLogarithmically) {
  EXPECT_DOUBLE_EQ(GossipHopScale(10), 1.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(25), 1.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(50), 2.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(200), 4.0);
  EXPECT_GT(GossipHopScale(400), GossipHopScale(200));
}

TEST(CliqueEngineTest, BlocksFollowThePeriod) {
  ChainParams params = GetChainParams("ethereum");
  EngineRun run(params, "testnet");
  run.SubmitConstant(50, 20);
  run.Go(60);
  // ~60 s / 5 s period = ~12 produced; stats count *finalized* blocks, so
  // the 6 still awaiting confirmations are excluded.
  const uint64_t blocks = run.chain->context().stats().blocks_produced;
  EXPECT_GE(blocks, 5u);
  EXPECT_LE(blocks, 7u);
}

TEST(CliqueEngineTest, ConfirmationDepthHoldsBackTheTail) {
  // With depth 6, the last produced blocks are not yet final at any instant,
  // so a fresh transaction's latency is at least depth x period.
  ChainParams params = GetChainParams("ethereum");
  EngineRun run(params, "testnet");
  run.SubmitConstant(10, 5);
  run.Go(120);
  const TxStore& txs = run.chain->context().txs();
  for (TxId id = 0; id < txs.size(); ++id) {
    if (txs.at(id).phase == TxPhase::kCommitted) {
      EXPECT_GE(txs.at(id).LatencySeconds(),
                ToSeconds(params.block_interval) * params.confirmation_depth * 0.8);
    }
  }
}

TEST(HotStuffEngineTest, ThreeChainLeavesPipelineTail) {
  ChainParams params = GetChainParams("diem");
  EngineRun run(params, "testnet");
  run.SubmitConstant(100, 10);
  run.Go(60);
  ChainContext& ctx = run.chain->context();
  // Rounds fire every ~block_interval; the last two certified blocks are
  // still in the pipeline (not in the ledger) when the run stops.
  const uint64_t rounds_approx =
      static_cast<uint64_t>(Seconds(60) / params.block_interval);
  EXPECT_LT(ctx.ledger().block_count(), rounds_approx);
  EXPECT_GT(ctx.ledger().block_count(), rounds_approx / 2);
}

TEST(AlgorandEngineTest, StepTimersFloorTheRound) {
  ChainParams params = GetChainParams("algorand");
  EngineRun run(params, "testnet");
  run.SubmitConstant(50, 20);
  run.Go(90);
  ChainContext& ctx = run.chain->context();
  ASSERT_GE(ctx.ledger().block_count(), 2u);
  // Certification cannot precede the sequential soft+certify timers (2λ).
  for (size_t i = 0; i < ctx.ledger().block_count(); ++i) {
    const Block& block = ctx.ledger().block(i);
    EXPECT_GE(block.finalized_at - block.proposed_at, 2 * params.step_timeout);
  }
}

TEST(AlgorandEngineTest, RotatingSortitionProposers) {
  ChainParams params = GetChainParams("algorand");
  EngineRun run(params, "testnet");
  run.SubmitConstant(20, 30);
  run.Go(120);
  ChainContext& ctx = run.chain->context();
  std::set<uint32_t> proposers;
  for (size_t i = 0; i < ctx.ledger().block_count(); ++i) {
    proposers.insert(ctx.ledger().block(i).proposer);
  }
  EXPECT_GT(proposers.size(), 2u);
}

TEST(AvalancheEngineTest, DecisionTimeGrowsWithBeta) {
  auto block_interval = [](int beta) {
    ChainParams params = GetChainParams("avalanche");
    params.beta = beta;
    params.block_interval = Milliseconds(1);  // expose the decision time
    EngineRun run(params, "devnet");
    run.SubmitConstant(50, 10);
    run.Go(60);
    const Ledger& ledger = run.chain->context().ledger();
    double total = 0;
    for (size_t i = 0; i < ledger.block_count(); ++i) {
      total += ToSeconds(ledger.block(i).finalized_at - ledger.block(i).proposed_at);
    }
    return total / static_cast<double>(ledger.block_count());
  };
  EXPECT_GT(block_interval(24), 1.5 * block_interval(6));
}

TEST(SolanaEngineTest, SlotCountMatchesWallClock) {
  ChainParams params = GetChainParams("solana");
  EngineRun run(params, "testnet");
  run.SubmitConstant(100, 10);
  run.Go(40);
  // 40 s / 0.4 s slots ≈ 100 slots regardless of load.
  const uint64_t blocks = run.chain->context().stats().blocks_produced;
  EXPECT_GE(blocks, 95u);
  EXPECT_LE(blocks, 101u);
}

TEST(SolanaEngineTest, PartitionedLeaderSkipsItsWindow) {
  ChainParams params = GetChainParams("solana");
  EngineRun run(params, "testnet");
  run.SubmitConstant(100, 10);
  run.net.SetPartitioned(run.chain->context().hosts()[0], true);
  run.Go(40);
  ChainContext& ctx = run.chain->context();
  // Node 0's slots are skipped (counted as view changes); others produce.
  EXPECT_GT(ctx.stats().view_changes, 0u);
  for (size_t i = 0; i < ctx.ledger().block_count(); ++i) {
    EXPECT_NE(ctx.ledger().block(i).proposer, 0u);
  }
  EXPECT_GT(ctx.stats().txs_committed, 0u);
}

TEST(IbftEngineTest, LanRoundsFasterThanWan) {
  auto median_round = [](const std::string& deployment) {
    ChainParams params = GetChainParams("quorum");
    EngineRun run(params, deployment);
    run.SubmitConstant(100, 10);
    run.Go(60);
    const Ledger& ledger = run.chain->context().ledger();
    SampleSet rounds;
    for (size_t i = 0; i < ledger.block_count(); ++i) {
      rounds.Add(ToSeconds(ledger.block(i).finalized_at - ledger.block(i).proposed_at));
    }
    return rounds.Median();
  };
  EXPECT_LT(median_round("testnet"), 0.5 * median_round("devnet"));
}

TEST(IbftEngineTest, RotatesLeaders) {
  ChainParams params = GetChainParams("quorum");
  EngineRun run(params, "testnet");
  run.SubmitConstant(100, 15);
  run.Go(60);
  const Ledger& ledger = run.chain->context().ledger();
  std::set<uint32_t> proposers;
  for (size_t i = 0; i < ledger.block_count(); ++i) {
    proposers.insert(ledger.block(i).proposer);
  }
  EXPECT_GE(proposers.size(), 5u);
}

TEST(IbftEngineTest, RoundChangeBackoffDoublesUpToSixTimes) {
  // One pending transaction whose pool scan outlasts every round's timeout:
  // each round changes view and waits round_timeout x 2^failures, the
  // exponent capped at 6. With 1 s timeouts the rounds run at 1, 3, 7, 15,
  // 31, 63, 127, 191 and 255 s; a cap of 5 would add rounds at 95, 159, 223
  // and 287 s.
  ChainParams params = GetChainParams("quorum");
  params.block_interval = Seconds(1);
  params.round_timeout = Seconds(1);
  params.proposal_overhead_per_pending_tx = Seconds(100);
  params.proposal_overhead_quadratic = 0;
  EngineRun run(params, "testnet");
  run.SubmitConstant(1, 1);
  run.Go(300);
  ChainContext& ctx = run.chain->context();
  EXPECT_EQ(ctx.stats().view_changes, 9u);
  EXPECT_EQ(ctx.ledger().block_count(), 0u);
}

TEST(EngineTest, EmptyChainStillProducesEmptyBlocks) {
  for (const std::string& chain_name : AllChainNames()) {
    EngineRun run(GetChainParams(chain_name), "testnet");
    run.Go(90);  // long enough for Clique's 6-deep confirmation window
    const ChainStats& stats = run.chain->context().stats();
    EXPECT_GT(stats.blocks_produced, 0u) << chain_name;
    EXPECT_EQ(stats.txs_committed, 0u) << chain_name;
    EXPECT_EQ(stats.blocks_produced, stats.empty_blocks) << chain_name;
  }
}

}  // namespace
}  // namespace diablo
