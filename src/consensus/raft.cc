#include "src/consensus/raft.h"

#include <algorithm>
#include <utility>

namespace diablo {

void RaftEngine::Start() {
  ctx_->sim()->Schedule(ctx_->params().block_interval, [this] { Round(); });
}

void RaftEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const int n = ctx_->node_count();
  const size_t majority = static_cast<size_t>(n) / 2 + 1;
  const auto& hosts = ctx_->hosts();

  // A crashed leader stops heartbeating: followers elect the next node
  // after an election timeout, without a proposal this round.
  if (ctx_->NodeDown(leader_)) {
    ++ctx_->stats().view_changes;
    leader_ = (leader_ + 1) % n;
    ctx_->sim()->Schedule(params.round_timeout, [this] { Round(); });
    return;
  }

  // An equivocating Raft leader ships divergent AppendEntries; the log
  // matching property keeps the first entry per index, so the conflict dies
  // as recorded evidence rather than a fork (first-proposal-wins).
  if (ctx_->ProposerEquivocates(leader_)) {
    ctx_->RecordEquivocation();
  }

  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, leader_);
  const SimDuration build_time = built.build_time;

  // AppendEntries: the leader streams the block to every follower and
  // commits once a majority acknowledged.
  MessagePlaneScratch* plane = ctx_->plane();
  std::vector<SimDuration>& bcast = plane->stage_a;
  ctx_->net()->BroadcastDelaysInto(hosts[static_cast<size_t>(leader_)], hosts,
                                   built.bytes, /*fanout=*/n - 1, &plane->broadcast,
                                   &bcast);
  const SimDuration follower_exec = ctx_->ExecAndVerifyTime(built.gas, built.tx_count);
  std::vector<SimDuration>& acked = bcast;  // arrival + execution, in place
  for (int i = 0; i < n; ++i) {
    if (bcast[static_cast<size_t>(i)] != kUnreachable) {
      acked[static_cast<size_t>(i)] =
          build_time + bcast[static_cast<size_t>(i)] + follower_exec;
    }
  }
  // Followers that withhold their acks drop out of the majority count.
  ctx_->ApplyVoteAdversaries(&acked);
  const SimDuration commit = QuorumArrivalInto(
      ctx_->vote_delays(), acked, static_cast<size_t>(leader_), majority, 1.0, plane);
  if (commit == kUnreachable) {
    // Leader lost its majority: elect the next node and retry after an
    // election timeout. The uncommitted entries return to the pool.
    ctx_->AbandonBlock(built, t0 + params.round_timeout);
    ++ctx_->stats().view_changes;
    leader_ = (leader_ + 1) % n;
    ctx_->sim()->Schedule(params.round_timeout, [this] { Round(); });
    return;
  }

  const SimTime final_time = t0 + commit;
  ctx_->FinalizeBlock(height_, leader_, std::move(built), t0, final_time);
  ++height_;

  const SimTime next = std::max(final_time, t0 + params.block_interval);
  ctx_->sim()->ScheduleAt(next, [this] { Round(); });
}

}  // namespace diablo
