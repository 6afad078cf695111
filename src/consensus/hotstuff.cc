#include "src/consensus/hotstuff.h"

#include <algorithm>
#include <utility>

namespace diablo {

void HotStuffEngine::Start() {
  ctx_->sim()->Schedule(ctx_->params().block_interval, [this] { Round(); });
}

void HotStuffEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const int n = ctx_->node_count();
  const int leader = static_cast<int>(round_ % static_cast<uint64_t>(n));
  const int next_leader = static_cast<int>((round_ + 1) % static_cast<uint64_t>(n));
  const size_t quorum = static_cast<size_t>(ByzantineQuorum(n));
  const auto& hosts = ctx_->hosts();

  // A crashed leader triggers the pacemaker directly: no proposal, view
  // change to the next leader.
  if (ctx_->NodeDown(leader)) {
    ++ctx_->stats().view_changes;
    ++round_;
    ctx_->sim()->Schedule(params.round_timeout, [this] { Round(); });
    return;
  }

  // An equivocating leader proposes two blocks for the view; the vote rule
  // ("vote once per view") splits the votes, no quorum certificate forms,
  // and the pacemaker advances past the recorded evidence.
  if (ctx_->ProposerEquivocates(leader)) {
    ctx_->RecordEquivocation();
    ++ctx_->stats().view_changes;
    ++round_;
    ctx_->sim()->Schedule(params.round_timeout, [this] { Round(); });
    return;
  }

  // Pacemaker timeout under saturation (Diem's mempool caps keep the
  // pending set bounded, so unlike Quorum this rarely cascades, §6.3).
  const SimDuration pool_scan = ctx_->PoolScanTime();
  if (pool_scan > params.round_timeout) {
    ++ctx_->stats().view_changes;
    ++round_;
    ctx_->sim()->Schedule(params.round_timeout, [this] { Round(); });
    return;
  }

  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, leader);
  const SimDuration build_time = built.build_time;

  // The leader sends the full proposal to every validator itself (star, no
  // relay) — LibraBFT's direct broadcast. Validators verify, then vote to
  // the next leader, which needs a 2f+1 quorum certificate.
  MessagePlaneScratch* plane = ctx_->plane();
  std::vector<SimDuration>& bcast = plane->stage_a;
  ctx_->net()->BroadcastDelaysInto(hosts[static_cast<size_t>(leader)], hosts,
                                   built.bytes, /*fanout=*/n - 1, &plane->broadcast,
                                   &bcast);
  const SimDuration follower_exec = ctx_->ExecAndVerifyTime(built.gas, built.tx_count);
  std::vector<SimDuration>& received = bcast;  // arrival + execution, in place
  for (int i = 0; i < n; ++i) {
    if (bcast[static_cast<size_t>(i)] != kUnreachable) {
      received[static_cast<size_t>(i)] =
          build_time + bcast[static_cast<size_t>(i)] + follower_exec;
    }
  }
  // Withheld votes never reach the next leader's certificate; double votes
  // are discarded as evidence by the one-vote-per-view rule.
  ctx_->ApplyVoteAdversaries(&received);
  const SimDuration qc_at_next_leader =
      QuorumArrivalInto(ctx_->vote_delays(), received,
                        static_cast<size_t>(next_leader), quorum, 1.0, plane);
  if (qc_at_next_leader == kUnreachable) {
    // No quorum certificate: the proposal dies with the view and its
    // transactions return to the pool.
    ctx_->AbandonBlock(built, t0 + params.round_timeout);
    ++ctx_->stats().view_changes;
    ++round_;
    ctx_->sim()->Schedule(params.round_timeout, [this] { Round(); });
    return;
  }

  const SimTime round_end = t0 + qc_at_next_leader;
  pipeline_.push_back(PendingBlock{height_, leader, std::move(built), t0});
  ++height_;
  ++round_;

  // Three-chain commit: the grandparent of the newest certified block is
  // final.
  while (pipeline_.size() >= 3) {
    PendingBlock sealed = std::move(pipeline_.front());
    pipeline_.pop_front();
    ctx_->FinalizeBlock(sealed.height, sealed.proposer, std::move(sealed.built),
                        sealed.proposed_at, round_end);
  }

  const SimTime next = std::max(round_end, t0 + params.block_interval);
  ctx_->sim()->ScheduleAt(next, [this] { Round(); });
}

}  // namespace diablo
