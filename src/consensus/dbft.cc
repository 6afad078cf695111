#include "src/consensus/dbft.h"

#include <algorithm>
#include <utility>

namespace diablo {

DbftEngine::DbftEngine(ChainContext* ctx)
    : ConsensusEngine(ctx), rng_(ctx->sim()->ForkRng()) {}

void DbftEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const int n = ctx_->node_count();

  // One representative proposer, sampled per round, stands for the n
  // mini-block proposers: its dissemination gates the round, and its
  // straggler factor and lazy or censoring bits shape the superblock, so an
  // adversary affects its share of the rounds.
  const int sampled = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(n)));

  // The superblock is the union of n mini-blocks; drafting and execution
  // are sharded across the proposers, so the per-node work is 1/n of it.
  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, sampled);
  const SimDuration per_node_work =
      built.build_time / static_cast<SimDuration>(std::max(1, n));

  // Equivocating proposers submit conflicting vice-blocks; the per-proposer
  // binary consensus decides 0 for them, so their share of the superblock is
  // excluded and its transactions return to the pool for the next round.
  if (ctx_->AnyAdversary() && built.tx_count > 0) {
    uint64_t honest = static_cast<uint64_t>(n);
    for (int i = 0; i < n; ++i) {
      honest -= ctx_->Equivocates(i) ? 1 : 0;
    }
    const uint64_t keep =
        static_cast<uint64_t>(built.tx_count) * honest / static_cast<uint64_t>(n);
    ctx_->RequeueBlockTail(&built, static_cast<uint32_t>(keep), t0);
  }

  // Reliable broadcast of the mini-blocks: every node disseminates ~1/n of
  // the payload concurrently — no leader uplink on the critical path. Then
  // binary consensus per proposer, run concurrently: two all-to-all vote
  // rounds over 2f+1 quorums decide the whole batch. Withheld votes leave
  // the sender set; double votes are discarded as evidence.
  std::vector<SimDuration>& delivered =
      ProposalArrivals(sampled, std::max<int64_t>(kBlockHeaderBytes, built.bytes / n),
                       kGossipFanout, per_node_work, 0);
  const SimDuration round_latency =
      TwoVoteRounds(&delivered, static_cast<size_t>(ByzantineQuorum(n)));
  if (round_latency == kUnreachable) {
    // The superblock missed its quorum: every mini-block's transactions
    // return to the pool for the next round.
    ctx_->AbandonBlock(built, t0 + params.round_timeout);
    ViewChange(params.round_timeout);
    return;
  }

  // Deterministic finality; every node then executes the union block.
  const SimTime final_time =
      t0 + round_latency + ctx_->ExecAndVerifyTime(built.gas, built.tx_count);
  ctx_->FinalizeBlock(height_, sampled, std::move(built), t0, final_time);
  ++height_;
  NextRound(t0, final_time);
}

ChainParams RedBellyParams() {
  ChainParams p;
  p.name = "redbelly";
  p.consensus_name = "DBFT";
  p.property = "det.";
  p.vm_name = "geth";  // Smart Red Belly runs EVM smart contracts
  p.dapp_language = "Solidity";
  p.dialect = VmDialect::kGeth;
  p.sig_scheme = SignatureScheme::kEcdsa;
  p.block_interval = Seconds(1);
  p.block_gas_limit = 0;
  p.max_block_txs = 8192;       // superblocks: the union of n mini-blocks
  p.confirmation_depth = 0;     // deterministic finality
  p.mempool.global_cap = 500000;  // bounded pool: sheds load instead of dying
  p.gas_per_sec_per_vcpu = 800e6;
  p.congestion_threshold = 0;   // leaderless: no pending-set scan on the path
  return p;
}

}  // namespace diablo
