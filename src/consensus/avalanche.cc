#include "src/consensus/avalanche.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace diablo {

AvalancheEngine::AvalancheEngine(ChainContext* ctx)
    : ConsensusEngine(ctx), rng_(ctx->sim()->ForkRng()) {}

void AvalancheEngine::Start() {
  ctx_->sim()->Schedule(ctx_->params().block_interval, [this] { ProduceBlock(); });
}

SimDuration AvalancheEngine::DecisionTime(int node, bool conflicted) {
  const ChainParams& params = ctx_->params();
  const int n = ctx_->node_count();
  const int k = std::min(params.sample_k, n - 1);
  if (k <= 0) {
    return Milliseconds(1);
  }
  const size_t alpha = std::max<size_t>(
      1, static_cast<size_t>(params.alpha_fraction * static_cast<double>(k)));

  // A conflicting issuance splits the initial preferences, so the counter
  // of consecutive successes has to climb out of the metastable state: the
  // sampling phase runs for twice as many rounds before beta is reached.
  const int rounds = conflicted ? 2 * params.beta : params.beta;
  const bool adversaries = ctx_->AnyAdversary();
  SimDuration total = 0;
  std::vector<SimDuration>& round_trips = ctx_->plane()->round_trips;
  for (int round = 0; round < rounds; ++round) {
    // One query round: ask k random peers, proceed once alpha replied.
    round_trips.clear();
    for (int q = 0; q < k; ++q) {
      const size_t peer = rng_.NextBelow(static_cast<uint64_t>(n));
      SimDuration one_way = ctx_->vote_delays().at(static_cast<size_t>(node), peer);
      if (adversaries && one_way != kUnreachable) {
        // A sampled peer that withholds its chit counts as an unresponsive
        // query; a double-casting peer's extra chit is discarded.
        const uint8_t bits = ctx_->AdversaryBits(static_cast<int>(peer));
        if ((bits & kAdversaryWithhold) != 0) {
          one_way = kUnreachable;
          ++ctx_->stats().votes_withheld;
        } else if ((bits & kAdversaryDoubleVote) != 0) {
          ++ctx_->stats().double_votes_seen;
        }
      }
      round_trips.push_back(one_way == kUnreachable ? Seconds(2) : 2 * one_way);
    }
    std::nth_element(round_trips.begin(),
                     round_trips.begin() + static_cast<long>(alpha - 1),
                     round_trips.end());
    total += round_trips[alpha - 1] + Milliseconds(2);  // reply processing
  }
  return total;
}

void AvalancheEngine::ProduceBlock() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const int n = ctx_->node_count();
  const auto& hosts = ctx_->hosts();
  // Any live node can issue the next block; sample until one responds.
  int proposer = -1;
  for (int attempt = 0; attempt < n; ++attempt) {
    const int candidate = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(n)));
    if (!ctx_->NodeDown(candidate) &&
        ctx_->net()->DelaySample(hosts[static_cast<size_t>(candidate)],
                                 hosts[static_cast<size_t>((candidate + 1) % n)],
                                 64) != kUnreachable) {
      proposer = candidate;
      break;
    }
  }
  if (proposer < 0) {
    ctx_->sim()->Schedule(params.block_interval, [this] { ProduceBlock(); });
    return;
  }

  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, proposer);
  const SimDuration build_time = built.build_time;

  MessagePlaneScratch* plane = ctx_->plane();
  std::vector<SimDuration>& bcast = plane->stage_a;
  ctx_->net()->BroadcastDelaysInto(hosts[static_cast<size_t>(proposer)], hosts,
                                   built.bytes, params.gossip_fanout,
                                   &plane->broadcast, &bcast);
  const SimDuration propagation = MedianDelayInto(bcast, plane);
  const SimDuration verify = ctx_->ExecAndVerifyTime(built.gas, built.tx_count);
  // An equivocating issuer gossips a conflicting sibling block; Snowball
  // resolves the conflict set to one winner — safety holds, convergence
  // just takes longer.
  const bool conflicted = ctx_->ProposerEquivocates(proposer);
  if (conflicted) {
    ctx_->RecordEquivocation();
  }
  const SimDuration decision = DecisionTime(proposer, conflicted);

  const SimTime final_time =
      t0 + build_time + (propagation == kUnreachable ? Seconds(1) : propagation) +
      verify + decision;
  ctx_->FinalizeBlock(height_, proposer, std::move(built), t0, final_time);
  ++height_;

  // Throttled production: at least block_interval (≥ 1.9 s) between blocks,
  // and never before the previous decision completed.
  const SimTime next = std::max(t0 + params.block_interval, final_time);
  ctx_->sim()->ScheduleAt(next, [this] { ProduceBlock(); });
}

}  // namespace diablo
