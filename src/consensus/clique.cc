#include "src/consensus/clique.h"

#include <utility>

namespace diablo {

void CliqueEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const int proposer = static_cast<int>(height_ % static_cast<uint64_t>(ctx_->node_count()));

  // Clique: when the in-turn signer is crashed or unreachable, an
  // out-of-turn signer seals the block after a wiggle delay instead.
  if (ProposerOffline(proposer)) {
    ++height_;
    ViewChange(ctx_->params().block_interval / 2);
    return;
  }

  // An equivocating signer seals two conflicting blocks for its turn; peers
  // keep the first-received seal (lowest-hash tiebreak in geth), so the
  // conflict only leaves evidence — the confirmation window already absorbs
  // the short fork.
  ctx_->Equivocates(proposer);

  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, proposer);
  const SimDuration build_time = built.build_time;
  const SimDuration propagation = Propagation(proposer, built.bytes);
  const SimTime visible = t0 + build_time + propagation +
                          ctx_->ExecAndVerifyTime(built.gas, built.tx_count);
  // A block becomes client-final when `confirmation_depth` descendants exist:
  // the newest block's visibility seals the oldest pending one.
  finality_.Push(static_cast<size_t>(ctx_->params().confirmation_depth), height_,
                 proposer, std::move(built), t0, visible);
  ++height_;
  NextRound(t0, t0 + build_time);
}

}  // namespace diablo
