#include "src/consensus/ibft.h"

#include <algorithm>
#include <utility>

namespace diablo {

void IbftEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const int n = ctx_->node_count();
  const int leader = static_cast<int>((height_ + round_) % static_cast<uint64_t>(n));

  // A crashed leader never even proposes: the round-change timer fires and
  // the next round picks the next leader in rotation. An equivocating leader
  // sends conflicting PRE-PREPAREs: validators cross-check the proposal
  // digests during PREPARE, record the evidence, and force a round change —
  // neither proposal can gather a quorum.
  if (ctx_->NodeDown(leader) || ctx_->Equivocates(leader)) {
    ++round_;
    ViewChange(params.round_timeout);
    return;
  }

  // View change when the leader cannot even scan the pending set within the
  // round timeout (saturation by a constantly high workload, §6.3). The
  // exponential backoff mirrors IBFT's round-change timer doubling; the
  // shift saturates rather than overflowing under pathological timeout
  // configurations.
  if (ctx_->PoolScanTime() > params.round_timeout) {
    ++round_;
    consecutive_failures_ = std::min(consecutive_failures_ + 1, 6);
    ViewChange(SaturatingBackoff(params.round_timeout, consecutive_failures_));
    return;
  }
  consecutive_failures_ = 0;

  // PRE-PREPARE: the proposal reaches every validator, which re-executes it.
  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, leader);
  std::vector<SimDuration>& preprepared =
      ProposalArrivals(leader, built.bytes, kGossipFanout, built.build_time,
                       ctx_->ExecAndVerifyTime(built.gas, built.tx_count));

  // PREPARE then COMMIT: all-to-all vote rounds over 2f+1 quorums; on large
  // deployments the n^2 vote flood relays through the devp2p mesh.
  // Withholding validators never enter the sender set (their slot turns
  // kUnreachable), so the 2f+1 quorums count only votes actually cast;
  // double votes are discarded as evidence before they reach the tally.
  const SimDuration round_latency =
      TwoVoteRounds(&preprepared, static_cast<size_t>(ByzantineQuorum(n)));
  if (round_latency == kUnreachable) {
    // No commit quorum (partition / crash fault): the drafted transactions
    // go back to the pool for the next leader.
    ctx_->AbandonBlock(built, t0 + params.round_timeout);
    ++round_;
    ViewChange(params.round_timeout);
    return;
  }

  const SimTime final_time = t0 + round_latency;
  ctx_->FinalizeBlock(height_, leader, std::move(built), t0, final_time);
  ++height_;
  round_ = 0;
  NextRound(t0, final_time);
}

}  // namespace diablo
