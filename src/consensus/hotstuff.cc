#include "src/consensus/hotstuff.h"

#include <utility>

namespace diablo {

void HotStuffEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const int n = ctx_->node_count();
  const int leader = static_cast<int>(round_ % static_cast<uint64_t>(n));
  const int next_leader = static_cast<int>((round_ + 1) % static_cast<uint64_t>(n));

  // The pacemaker moves to the next leader without a proposal when the
  // leader is crashed; when it equivocates (two blocks for the view split
  // the "vote once per view" votes, no quorum certificate forms, and the
  // evidence is recorded); and when it cannot scan the pending set within
  // the timeout (Diem's mempool caps keep the pending set bounded, so unlike
  // Quorum this rarely cascades, §6.3).
  if (ctx_->NodeDown(leader) || ctx_->Equivocates(leader) ||
      ctx_->PoolScanTime() > params.round_timeout) {
    ++round_;
    ViewChange(params.round_timeout);
    return;
  }

  // The leader sends the full proposal to every validator itself (star, no
  // relay) — LibraBFT's direct broadcast. Validators verify, then vote to
  // the next leader, which needs a 2f+1 quorum certificate.
  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, leader);
  std::vector<SimDuration>& received =
      ProposalArrivals(leader, built.bytes, /*fanout=*/n - 1, built.build_time,
                       ctx_->ExecAndVerifyTime(built.gas, built.tx_count));
  // Withheld votes never reach the next leader's certificate; double votes
  // are discarded as evidence by the one-vote-per-view rule.
  ctx_->ApplyVoteAdversaries(&received);
  const SimDuration qc_at_next_leader = QuorumArrivalInto(
      ctx_->vote_delays(), received, static_cast<size_t>(next_leader),
      static_cast<size_t>(ByzantineQuorum(n)), 1.0, ctx_->plane());
  if (qc_at_next_leader == kUnreachable) {
    // No quorum certificate: the proposal dies with the view and its
    // transactions return to the pool.
    ctx_->AbandonBlock(built, t0 + params.round_timeout);
    ++round_;
    ViewChange(params.round_timeout);
    return;
  }

  // Three-chain commit: the grandparent of the newest certified block is
  // final when that block's certificate forms.
  const SimTime round_end = t0 + qc_at_next_leader;
  finality_.Push(/*depth=*/2, height_, leader, std::move(built), t0, round_end);
  ++height_;
  ++round_;
  NextRound(t0, round_end);
}

}  // namespace diablo
