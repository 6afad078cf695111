#include "src/consensus/ibft.h"

#include <algorithm>
#include <utility>

namespace diablo {

void IbftEngine::Start() {
  ctx_->sim()->Schedule(ctx_->params().block_interval, [this] { Round(); });
}

void IbftEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const int n = ctx_->node_count();
  const int leader = static_cast<int>((height_ + round_) % static_cast<uint64_t>(n));

  // A crashed leader never even proposes: the round-change timer fires and
  // the next round picks the next leader in rotation.
  if (ctx_->NodeDown(leader)) {
    ++ctx_->stats().view_changes;
    ++round_;
    ctx_->sim()->Schedule(params.round_timeout, [this] { Round(); });
    return;
  }

  // An equivocating leader sends conflicting PRE-PREPAREs: validators
  // cross-check the proposal digests during PREPARE, record the evidence,
  // and force a round change — neither proposal can gather a quorum.
  if (ctx_->ProposerEquivocates(leader)) {
    ctx_->RecordEquivocation();
    ++ctx_->stats().view_changes;
    ++round_;
    ctx_->sim()->Schedule(params.round_timeout, [this] { Round(); });
    return;
  }

  // View change when the leader cannot even scan the pending set within the
  // round timeout (saturation by a constantly high workload, §6.3). The
  // exponential backoff mirrors IBFT's round-change timer doubling; the
  // shift saturates rather than overflowing under pathological timeout
  // configurations.
  const SimDuration pool_scan = ctx_->PoolScanTime();
  if (pool_scan > params.round_timeout) {
    ++ctx_->stats().view_changes;
    ++round_;
    consecutive_failures_ = std::min(consecutive_failures_ + 1, 6);
    const SimDuration backoff =
        SaturatingBackoff(params.round_timeout, consecutive_failures_);
    ctx_->sim()->Schedule(backoff, [this] { Round(); });
    return;
  }
  consecutive_failures_ = 0;

  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, leader);
  const SimDuration build_time = built.build_time;
  const size_t quorum = static_cast<size_t>(ByzantineQuorum(n));
  const auto& hosts = ctx_->hosts();
  MessagePlaneScratch* plane = ctx_->plane();

  // PRE-PREPARE: the proposal reaches every validator, which re-executes it.
  std::vector<SimDuration>& bcast = plane->stage_a;
  ctx_->net()->BroadcastDelaysInto(hosts[static_cast<size_t>(leader)], hosts,
                                   built.bytes, params.gossip_fanout,
                                   &plane->broadcast, &bcast);
  const SimDuration follower_exec = ctx_->ExecAndVerifyTime(built.gas, built.tx_count);
  std::vector<SimDuration>& preprepared = bcast;  // arrival + execution, in place
  for (int i = 0; i < n; ++i) {
    if (bcast[static_cast<size_t>(i)] != kUnreachable) {
      preprepared[static_cast<size_t>(i)] =
          build_time + bcast[static_cast<size_t>(i)] + follower_exec;
    }
  }

  // PREPARE then COMMIT: all-to-all vote rounds over 2f+1 quorums; on large
  // deployments the n^2 vote flood relays through the devp2p mesh.
  // Withholding validators never enter the sender set (their slot turns
  // kUnreachable), so the 2f+1 quorums count only votes actually cast;
  // double votes are discarded as evidence before they reach the tally.
  ctx_->ApplyVoteAdversaries(&preprepared);
  const double hops = GossipHopScale(n);
  std::vector<SimDuration>& prepared = plane->stage_b;
  QuorumArrivalAllInto(ctx_->vote_delays(), preprepared, quorum, hops, plane,
                       &prepared);
  ctx_->ApplyVoteAdversaries(&prepared);
  std::vector<SimDuration>& committed = plane->stage_c;
  QuorumArrivalAllInto(ctx_->vote_delays(), prepared, quorum, hops, plane,
                       &committed);

  const SimDuration round_latency = MedianDelayInto(committed, plane);
  if (round_latency == kUnreachable) {
    // No commit quorum (partition / crash fault): the drafted transactions
    // go back to the pool for the next leader.
    ctx_->AbandonBlock(built, t0 + params.round_timeout);
    ++ctx_->stats().view_changes;
    ++round_;
    ctx_->sim()->Schedule(params.round_timeout, [this] { Round(); });
    return;
  }

  const SimTime final_time = t0 + round_latency;
  ctx_->FinalizeBlock(height_, leader, std::move(built), t0, final_time);
  ++height_;
  round_ = 0;

  const SimTime next = std::max(final_time, t0 + params.block_interval);
  ctx_->sim()->ScheduleAt(next, [this] { Round(); });
}

}  // namespace diablo
