#include "src/consensus/clique.h"

#include <algorithm>
#include <utility>

namespace diablo {

void CliqueEngine::Start() {
  ctx_->sim()->Schedule(ctx_->params().block_interval, [this] { ProduceBlock(); });
}

void CliqueEngine::ProduceBlock() {
  const SimTime t0 = ctx_->sim()->Now();
  const int n = ctx_->node_count();
  const int proposer = static_cast<int>(height_ % static_cast<uint64_t>(n));

  // Clique: when the in-turn signer is crashed or unreachable, an
  // out-of-turn signer seals the block after a wiggle delay instead.
  const auto& all_hosts = ctx_->hosts();
  if (ctx_->NodeDown(proposer) ||
      ctx_->net()->DelaySample(all_hosts[static_cast<size_t>(proposer)],
                               all_hosts[static_cast<size_t>((proposer + 1) % n)],
                               64) == kUnreachable) {
    ++height_;
    ++ctx_->stats().view_changes;
    ctx_->sim()->Schedule(ctx_->params().block_interval / 2, [this] { ProduceBlock(); });
    return;
  }

  // An equivocating signer seals two conflicting blocks for its turn; peers
  // keep the first-received seal (lowest-hash tiebreak in geth), so the
  // conflict only leaves evidence — the confirmation window already absorbs
  // the short fork.
  if (ctx_->ProposerEquivocates(proposer)) {
    ctx_->RecordEquivocation();
  }

  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, proposer);
  const SimDuration build_time = built.build_time;
  const auto& hosts = ctx_->hosts();
  MessagePlaneScratch* plane = ctx_->plane();
  std::vector<SimDuration>& bcast = plane->stage_a;
  ctx_->net()->BroadcastDelaysInto(hosts[static_cast<size_t>(proposer)], hosts,
                                   built.bytes, ctx_->params().gossip_fanout,
                                   &plane->broadcast, &bcast);
  const SimDuration propagation = MedianDelayInto(bcast, plane);
  const SimTime visible = t0 + built.build_time +
                          (propagation == kUnreachable ? Seconds(1) : propagation) +
                          ctx_->ExecAndVerifyTime(built.gas, built.tx_count);

  pending_.push_back(
      PendingBlock{height_, proposer, std::move(built), t0, visible});

  // A block becomes client-final when `confirmation_depth` descendants exist:
  // the newest block's visibility seals the oldest pending one.
  while (pending_.size() > static_cast<size_t>(ctx_->params().confirmation_depth)) {
    PendingBlock sealed = std::move(pending_.front());
    pending_.pop_front();
    const SimTime final_time = std::max(sealed.visible_at, visible);
    ctx_->FinalizeBlock(sealed.height, sealed.proposer, std::move(sealed.built),
                        sealed.proposed_at, final_time);
  }

  ++height_;
  const SimTime next = std::max(t0 + ctx_->params().block_interval, t0 + build_time);
  ctx_->sim()->ScheduleAt(next, [this] { ProduceBlock(); });
}

}  // namespace diablo
