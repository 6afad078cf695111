// Per-engine protocol properties: cadences, pipelines, confirmation rules,
// committee math and the gossip hop-scale model.
#include <gtest/gtest.h>

#include <set>

#include "src/support/stats.h"
#include "tests/chain_run.h"

namespace diablo {
namespace {

TEST(GossipHopScaleTest, GrowsLogarithmically) {
  EXPECT_DOUBLE_EQ(GossipHopScale(10), 1.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(25), 1.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(50), 2.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(200), 4.0);
  EXPECT_GT(GossipHopScale(400), GossipHopScale(200));
}

TEST(CliqueEngineTest, BlocksFollowThePeriod) {
  ChainParams params = GetChainParams("ethereum");
  ChainRun run(params, "testnet", 3);
  run.SubmitTransfers(50, 20, 500);
  run.Run(60);
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
  ChainRun run(params, "testnet", 3);
  run.SubmitTransfers(10, 5, 500);
  run.Run(120);
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
  ChainRun run(params, "testnet", 3);
  run.SubmitTransfers(100, 10, 500);
  run.Run(60);
  ChainContext& ctx = run.chain->context();
  // Rounds fire every ~block_interval; the last two certified blocks are
  // still in the pipeline (not in the ledger) when the run stops.
  const uint64_t rounds_approx =
      static_cast<uint64_t>(Seconds(60) / params.block_interval);
  EXPECT_LT(ctx.ledger().block_count(), rounds_approx);
  EXPECT_GT(ctx.ledger().block_count(), rounds_approx / 2);
}

TEST(HotStuffEngineTest, BlockIsFinalWhenTheBlockTwoRoundsLaterIsCertified) {
  // Three-chain commit on a quiet network: rounds start one block_interval
  // apart, and a block is final when the block two rounds later is
  // certified, so every block's finality lands two intervals plus one
  // certificate (under an interval) after its proposal.
  const ChainParams params = GetChainParams("diem");
  ChainRun run(params, "testnet", 3, /*jitter=*/0.0);
  run.Run(60);
  const Ledger& ledger = run.chain->context().ledger();
  ASSERT_GT(ledger.block_count(), 0u);
  for (size_t i = 0; i < ledger.block_count(); ++i) {
    const SimDuration offset = ledger.block(i).finalized_at - ledger.block(i).proposed_at;
    EXPECT_GE(offset, 2 * params.block_interval) << "block " << i;
    EXPECT_LT(offset, 3 * params.block_interval) << "block " << i;
  }
}

TEST(AlgorandEngineTest, StepTimersFloorTheRound) {
  ChainParams params = GetChainParams("algorand");
  ChainRun run(params, "testnet", 3);
  run.SubmitTransfers(50, 20, 500);
  run.Run(90);
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
  ChainRun run(params, "testnet", 3);
  run.SubmitTransfers(20, 30, 500);
  run.Run(120);
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
    ChainRun run(params, "devnet", 3);
    run.SubmitTransfers(50, 10, 500);
    run.Run(60);
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
  ChainRun run(params, "testnet", 3);
  run.SubmitTransfers(100, 10, 500);
  run.Run(40);
  // 40 s / 0.4 s slots ≈ 100 slots regardless of load.
  const uint64_t blocks = run.chain->context().stats().blocks_produced;
  EXPECT_GE(blocks, 95u);
  EXPECT_LE(blocks, 101u);
}

TEST(SolanaEngineTest, BlockIsFinalThirtyOneSlotsAfterItsProposal) {
  // A slot completes, then confirmation_depth (30) further slots land on
  // it; on a quiet network its propagation adds under one more slot
  // (12.400502045 s in all).
  const ChainParams params = GetChainParams("solana");
  ChainRun run(params, "testnet", 3, /*jitter=*/0.0);
  run.Run(60);
  const Ledger& ledger = run.chain->context().ledger();
  ASSERT_GT(ledger.block_count(), 0u);
  for (size_t i = 0; i < ledger.block_count(); ++i) {
    const SimDuration offset = ledger.block(i).finalized_at - ledger.block(i).proposed_at;
    EXPECT_GE(offset, (1 + params.confirmation_depth) * params.block_interval) << "block " << i;
    EXPECT_LT(offset, (2 + params.confirmation_depth) * params.block_interval) << "block " << i;
  }
}

TEST(SolanaEngineTest, PartitionedLeaderSkipsItsWindow) {
  ChainParams params = GetChainParams("solana");
  ChainRun run(params, "testnet", 3);
  run.SubmitTransfers(100, 10, 500);
  run.net.SetPartitioned(run.chain->context().hosts()[0], true);
  run.Run(40);
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
    ChainRun run(params, deployment, 3);
    run.SubmitTransfers(100, 10, 500);
    run.Run(60);
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
  ChainRun run(params, "testnet", 3);
  run.SubmitTransfers(100, 15, 500);
  run.Run(60);
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
  ChainRun run(params, "testnet", 3);
  run.SubmitTransfers(1, 1, 500);
  run.Run(300);
  ChainContext& ctx = run.chain->context();
  EXPECT_EQ(ctx.stats().view_changes, 9u);
  EXPECT_EQ(ctx.ledger().block_count(), 0u);
}

TEST(EngineTest, EmptyChainStillProducesEmptyBlocks) {
  for (const std::string& chain_name : AllChainNames()) {
    ChainRun run(GetChainParams(chain_name), "testnet", 3);
    run.Run(90);  // long enough for Clique's 6-deep confirmation window
    const ChainStats& stats = run.chain->context().stats();
    EXPECT_GT(stats.blocks_produced, 0u) << chain_name;
    EXPECT_EQ(stats.txs_committed, 0u) << chain_name;
    EXPECT_EQ(stats.blocks_produced, stats.empty_blocks) << chain_name;
  }
}

}  // namespace
}  // namespace diablo
