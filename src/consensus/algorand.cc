#include "src/consensus/algorand.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/crypto/sortition.h"

namespace diablo {

AlgorandEngine::AlgorandEngine(ChainContext* ctx)
    : ConsensusEngine(ctx), seed_(ctx->rng().NextU64()) {}

void AlgorandEngine::VoteStep(uint64_t step, const std::vector<uint32_t>& committee,
                              const std::vector<SimDuration>& start_times,
                              std::vector<SimDuration>* voted) {
  MessagePlaneScratch* plane = ctx_->plane();
  const size_t n = static_cast<size_t>(ctx_->node_count());
  // BA* step timers are sequential: the soft vote fires after one λ, the
  // certify vote after two. Members vote after their step timer or once
  // they hold the previous step's result, whichever is later.
  const SimDuration step_floor = ctx_->params().step_timeout * static_cast<SimDuration>(step);
  std::vector<SimDuration>& times = plane->senders;  // committee-indexed
  times.clear();
  for (const uint32_t member : committee) {
    const SimDuration start = start_times[member];
    times.push_back(start == kUnreachable ? kUnreachable
                                          : std::max<SimDuration>(start, step_floor));
  }
  // Committee members that withhold (or double-cast) their votes.
  ctx_->ApplyVoteAdversaries(&times, &committee);
  // BA* thresholds sit just below 3/4 of the expected committee weight.
  const size_t threshold = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(0.685 * static_cast<double>(committee.size()))));
  // Votes flood through the gossip network (multi-hop on large meshes).
  const double hops = GossipHopScale(static_cast<int>(n));
  if (ctx_->vote_delays().dense()) {
    // Dense plane: the votes flood all n receivers.
    std::vector<SimDuration>& senders = plane->expanded;
    senders.assign(n, kUnreachable);
    for (size_t j = 0; j < committee.size(); ++j) {
      senders[committee[j]] = times[j];
    }
    QuorumArrivalAllInto(ctx_->vote_delays(), senders, threshold, hops, plane, voted);
    return;
  }
  // Large N: sortition already bounds who votes, so each step only needs
  // its result where it is consumed — at the certify committee — instead of
  // at all n receivers, keeping a round at O(committee²).
  QuorumArrivalCommitteeInto(ctx_->vote_delays().streamed(), committee, times,
                             plane->committee_b, n, threshold, hops, plane, voted);
}

void AlgorandEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const uint32_t n = static_cast<uint32_t>(ctx_->node_count());
  const SimDuration retry = params.step_timeout * 3;

  // Sortition: proposer priority and per-step committees derive from the
  // round seed; everyone computes the same outcome. A crashed sortition
  // winner simply never proposes; an equivocating one gossips two
  // credentialed proposals, the soft vote splits between them and
  // certification fails. Either way the round times out and the next seed
  // picks a fresh proposer. Each selection draws all n participants, which
  // the plane counts.
  MessagePlaneScratch* plane = ctx_->plane();
  const int proposer = static_cast<int>(SelectProposer(seed_, height_, n));
  plane->sortition_draws += n;
  if (ctx_->NodeDown(proposer) || ctx_->Equivocates(proposer)) {
    ++height_;
    ViewChange(retry);
    return;
  }

  // Proposal dissemination by gossip; nodes wait out the proposal step
  // timeout before soft-voting (the λ parameter of BA*).
  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, proposer);
  const std::vector<SimDuration>& have_proposal =
      ProposalArrivals(proposer, built.bytes, kGossipFanout, built.build_time,
                       ctx_->ExecAndVerifyTime(built.gas, built.tx_count));

  const double expected =
      params.committee_expected > 0
          ? std::min<double>(params.committee_expected, static_cast<double>(n))
          : static_cast<double>(n);
  SelectCommitteeInto(seed_, height_, /*step=*/1, n, expected, &plane->committee);
  SelectCommitteeInto(seed_, height_, /*step=*/2, n, expected, &plane->committee_b);
  plane->sortition_draws += 2 * static_cast<uint64_t>(n);
  VoteStep(/*step=*/1, plane->committee, have_proposal, &plane->stage_b);
  VoteStep(/*step=*/2, plane->committee_b, plane->stage_b, &plane->stage_c);

  const SimDuration round_latency = MedianDelayInto(plane->stage_c, plane);
  if (round_latency == kUnreachable) {
    // No certification this round (committee unlucky / partitioned): the
    // proposal's transactions return to the pool and the round retries.
    ctx_->AbandonBlock(built, t0 + retry);
    ++height_;
    ViewChange(retry);
    return;
  }

  // Immediate finality: Algorand does not fork with high probability.
  const SimTime final_time = t0 + round_latency;
  ctx_->FinalizeBlock(height_, proposer, std::move(built), t0, final_time);
  ++height_;
  NextRound(t0, final_time);
}

}  // namespace diablo
