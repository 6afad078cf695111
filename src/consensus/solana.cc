#include "src/consensus/solana.h"

#include <utility>

namespace diablo {
namespace {

// Consecutive slots each leader holds.
constexpr uint64_t kLeaderWindowSlots = 4;

}  // namespace

void SolanaEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const int leader = static_cast<int>((slot_ / kLeaderWindowSlots) %
                                      static_cast<uint64_t>(ctx_->node_count()));

  // A crashed or partitioned leader simply skips its slots; PoH ticks on
  // regardless.
  if (ProposerOffline(leader)) {
    ++slot_;
    ViewChange(params.block_interval);
    return;
  }

  // A leader shredding two conflicting versions of its slot loses to the
  // first-shred-wins rule TowerBFT voters lock on; duplicate-block proofs
  // are gossiped as evidence and the slot proceeds on the winning version.
  ctx_->Equivocates(leader);

  // Turbine dissemination runs concurrently with PoH; the slot cadence does
  // not wait for it, but client-visible finality does: the slot completes,
  // then `confirmation_depth` further slots must land on top (§5.2: 30
  // confirmations).
  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, leader);
  const SimTime final_time =
      t0 + params.block_interval +
      params.block_interval * static_cast<SimDuration>(params.confirmation_depth) +
      Propagation(leader, built.bytes);
  ctx_->FinalizeBlock(slot_ + 1, leader, std::move(built), t0, final_time);
  ++slot_;
  // PoH keeps ticking: the next slot starts on schedule no matter what.
  NextRound(t0, t0);
}

}  // namespace diablo
