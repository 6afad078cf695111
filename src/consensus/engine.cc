#include "src/consensus/engine.h"

#include <algorithm>
#include <utility>

namespace diablo {

void FinalityWindow::Push(size_t depth, uint64_t height, int proposer,
                          ChainContext::BuiltBlock&& built, SimTime proposed_at,
                          SimTime visible) {
  pending_.push_back(Pending{height, proposer, std::move(built), proposed_at, visible});
  while (pending_.size() > depth) {
    Pending& sealed = pending_.front();
    ctx_->FinalizeBlock(sealed.height, sealed.proposer, std::move(sealed.built),
                        sealed.proposed_at, std::max(sealed.visible, visible));
    pending_.pop_front();
  }
}

void ConsensusEngine::Start() {
  ctx_->sim()->Schedule(ctx_->params().block_interval, [this] { Round(); });
}

void ConsensusEngine::ViewChange(SimDuration retry_after) {
  ++ctx_->stats().view_changes;
  ctx_->sim()->Schedule(retry_after, [this] { Round(); });
}

void ConsensusEngine::NextRound(SimTime t0, SimTime done) {
  ctx_->sim()->ScheduleAt(std::max(done, t0 + ctx_->params().block_interval),
                          [this] { Round(); });
}

bool ConsensusEngine::ProposerOffline(int node) {
  const std::vector<HostId>& hosts = ctx_->hosts();
  const size_t successor = static_cast<size_t>((node + 1) % ctx_->node_count());
  return ctx_->NodeDown(node) ||
         ctx_->net()->DelaySample(hosts[static_cast<size_t>(node)], hosts[successor],
                                  64) == kUnreachable;
}

std::vector<SimDuration>& ConsensusEngine::ProposalArrivals(int origin, int64_t bytes,
                                                            int fanout,
                                                            SimDuration before,
                                                            SimDuration after) {
  MessagePlaneScratch* plane = ctx_->plane();
  std::vector<SimDuration>& arrivals = plane->stage_a;
  ctx_->net()->BroadcastDelaysInto(ctx_->hosts()[static_cast<size_t>(origin)],
                                   ctx_->hosts(), bytes, fanout, &plane->broadcast,
                                   &arrivals);
  for (SimDuration& arrival : arrivals) {
    if (arrival != kUnreachable) {
      arrival = before + arrival + after;
    }
  }
  return arrivals;
}

SimDuration ConsensusEngine::Propagation(int origin, int64_t bytes) {
  const SimDuration median = MedianDelayInto(
      ProposalArrivals(origin, bytes, kGossipFanout, 0, 0), ctx_->plane());
  return median == kUnreachable ? Seconds(1) : median;
}

SimDuration ConsensusEngine::TwoVoteRounds(std::vector<SimDuration>* sent,
                                           size_t quorum) {
  MessagePlaneScratch* plane = ctx_->plane();
  const double hops = GossipHopScale(ctx_->node_count());
  ctx_->ApplyVoteAdversaries(sent);
  QuorumArrivalAllInto(ctx_->vote_delays(), *sent, quorum, hops, plane, &plane->stage_b);
  ctx_->ApplyVoteAdversaries(&plane->stage_b);
  QuorumArrivalAllInto(ctx_->vote_delays(), plane->stage_b, quorum, hops, plane,
                       &plane->stage_c);
  return MedianDelayInto(plane->stage_c, plane);
}

}  // namespace diablo
