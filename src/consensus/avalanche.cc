#include "src/consensus/avalanche.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace diablo {
namespace {

// Snowball's sample size k and the fraction of it a query round waits for.
constexpr int kSampleK = 20;
constexpr double kAlphaFraction = 0.8;

}  // namespace

AvalancheEngine::AvalancheEngine(ChainContext* ctx)
    : ConsensusEngine(ctx), rng_(ctx->sim()->ForkRng()) {}

SimDuration AvalancheEngine::DecisionTime(int node, bool conflicted) {
  const int n = ctx_->node_count();
  const int k = std::min(kSampleK, n - 1);
  if (k <= 0) {
    return Milliseconds(1);
  }
  const size_t alpha = std::max<size_t>(
      1, static_cast<size_t>(kAlphaFraction * static_cast<double>(k)));

  // A conflicting issuance splits the initial preferences, so the counter
  // of consecutive successes has to climb out of the metastable state: the
  // sampling phase runs for twice as many rounds before beta is reached.
  const int beta = ctx_->params().beta;
  const int rounds = conflicted ? 2 * beta : beta;
  SimDuration total = 0;
  std::vector<SimDuration>& round_trips = ctx_->plane()->round_trips;
  for (int round = 0; round < rounds; ++round) {
    // One query round: ask k random peers, proceed once alpha replied.
    round_trips.clear();
    for (int q = 0; q < k; ++q) {
      const size_t peer = rng_.NextBelow(static_cast<uint64_t>(n));
      SimDuration one_way = ctx_->vote_delays().at(static_cast<size_t>(node), peer);
      // A sampled peer that withholds its chit counts as an unresponsive
      // query; a double-casting peer's extra chit is discarded.
      ctx_->ApplyVoteAdversary(static_cast<int>(peer), &one_way);
      round_trips.push_back(one_way == kUnreachable ? Seconds(2) : 2 * one_way);
    }
    std::nth_element(round_trips.begin(),
                     round_trips.begin() + static_cast<long>(alpha - 1),
                     round_trips.end());
    total += round_trips[alpha - 1] + Milliseconds(2);  // reply processing
  }
  return total;
}

void AvalancheEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const int n = ctx_->node_count();
  // Any live node can issue the next block; sample until one responds.
  int proposer = -1;
  for (int attempt = 0; attempt < n && proposer < 0; ++attempt) {
    const int candidate = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(n)));
    if (!ProposerOffline(candidate)) {
      proposer = candidate;
    }
  }
  if (proposer < 0) {
    NextRound(t0, t0);
    return;
  }

  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, proposer);
  const SimDuration build_time = built.build_time;
  const SimDuration propagation = Propagation(proposer, built.bytes);
  const SimDuration verify = ctx_->ExecAndVerifyTime(built.gas, built.tx_count);
  // An equivocating issuer gossips a conflicting sibling block; Snowball
  // resolves the conflict set to one winner — safety holds, convergence
  // just takes longer.
  const SimDuration decision = DecisionTime(proposer, ctx_->Equivocates(proposer));

  const SimTime final_time = t0 + build_time + propagation + verify + decision;
  ctx_->FinalizeBlock(height_, proposer, std::move(built), t0, final_time);
  ++height_;

  // Throttled production: at least block_interval (≥ 1.9 s) between blocks,
  // and never before the previous decision completed.
  NextRound(t0, final_time);
}

}  // namespace diablo
