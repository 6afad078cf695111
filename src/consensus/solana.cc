#include "src/consensus/solana.h"

#include <algorithm>
#include <utility>

namespace diablo {

void SolanaEngine::Start() {
  ctx_->sim()->Schedule(ctx_->params().slot_duration, [this] { Slot(); });
}

void SolanaEngine::Slot() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const int n = ctx_->node_count();
  const int leader = static_cast<int>(
      (slot_ / static_cast<uint64_t>(params.leader_window_slots)) %
      static_cast<uint64_t>(n));
  const auto& hosts = ctx_->hosts();

  // A crashed or partitioned leader simply skips its slots; PoH ticks on
  // regardless.
  if (ctx_->NodeDown(leader) ||
      ctx_->net()->DelaySample(hosts[static_cast<size_t>(leader)],
                               hosts[static_cast<size_t>((leader + 1) % n)],
                               64) == kUnreachable) {
    ++ctx_->stats().view_changes;
    ++slot_;
    ctx_->sim()->ScheduleAt(t0 + params.slot_duration, [this] { Slot(); });
    return;
  }

  // A leader shredding two conflicting versions of its slot loses to the
  // first-shred-wins rule TowerBFT voters lock on; duplicate-block proofs
  // are gossiped as evidence and the slot proceeds on the winning version.
  if (ctx_->ProposerEquivocates(leader)) {
    ctx_->RecordEquivocation();
  }

  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, leader);

  // Turbine dissemination runs concurrently with PoH; the slot cadence does
  // not wait for it, but client-visible finality does.
  MessagePlaneScratch* plane = ctx_->plane();
  std::vector<SimDuration>& bcast = plane->stage_a;
  ctx_->net()->BroadcastDelaysInto(hosts[static_cast<size_t>(leader)], hosts,
                                   built.bytes, params.gossip_fanout,
                                   &plane->broadcast, &bcast);
  const SimDuration propagation = MedianDelayInto(bcast, plane);

  // Client commitment: the slot completes, then `confirmation_depth`
  // further slots must land on top (§5.2: 30 confirmations).
  const SimTime final_time =
      t0 + params.slot_duration +
      params.slot_duration * static_cast<SimDuration>(params.confirmation_depth) +
      (propagation == kUnreachable ? Seconds(1) : propagation);
  ctx_->FinalizeBlock(slot_ + 1, leader, std::move(built), t0, final_time);

  ++slot_;
  // PoH keeps ticking: the next slot starts on schedule no matter what.
  ctx_->sim()->ScheduleAt(t0 + params.slot_duration, [this] { Slot(); });
}

}  // namespace diablo
