#include "src/consensus/dbft.h"

#include <algorithm>
#include <utility>

namespace diablo {

DbftEngine::DbftEngine(ChainContext* ctx)
    : ConsensusEngine(ctx), rng_(ctx->sim()->ForkRng()) {}

void DbftEngine::Start() {
  ctx_->sim()->Schedule(ctx_->params().block_interval, [this] { Round(); });
}

void DbftEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const int n = ctx_->node_count();
  const size_t quorum = static_cast<size_t>(ByzantineQuorum(n));
  const auto& hosts = ctx_->hosts();

  // The superblock is the union of n mini-blocks; drafting and execution
  // are sharded across the proposers, so the per-node work is 1/n of it.
  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, /*proposer=*/0);
  const SimDuration per_node_work =
      built.build_time / static_cast<SimDuration>(std::max(1, n));

  // Equivocating proposers submit conflicting vice-blocks; the per-proposer
  // binary consensus decides 0 for them, so their share of the superblock is
  // excluded and its transactions return to the pool for the next round.
  if (ctx_->AnyAdversary() && built.tx_count > 0) {
    int equivocators = 0;
    for (int i = 0; i < n; ++i) {
      if (ctx_->ProposerEquivocates(i)) {
        ++equivocators;
        ctx_->RecordEquivocation();
      }
    }
    if (equivocators > 0) {
      const uint32_t keep = static_cast<uint32_t>(
          (static_cast<uint64_t>(built.tx_count) *
           static_cast<uint64_t>(n - equivocators)) /
          static_cast<uint64_t>(n));
      ctx_->RequeueBlockTail(&built, keep, t0);
    }
  }

  // Reliable broadcast of the mini-blocks: every node disseminates ~1/n of
  // the payload concurrently — no leader uplink on the critical path. The
  // slowest mini-block dissemination gates the round; sample one
  // representative proposer per round.
  const int sampled =
      static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(n)));
  MessagePlaneScratch* plane = ctx_->plane();
  std::vector<SimDuration>& bcast = plane->stage_a;
  ctx_->net()->BroadcastDelaysInto(
      hosts[static_cast<size_t>(sampled)], hosts,
      std::max<int64_t>(kBlockHeaderBytes, built.bytes / n), params.gossip_fanout,
      &plane->broadcast, &bcast);

  std::vector<SimDuration>& delivered = bcast;  // arrival + sharded work, in place
  for (int i = 0; i < n; ++i) {
    if (bcast[static_cast<size_t>(i)] != kUnreachable) {
      delivered[static_cast<size_t>(i)] = per_node_work + bcast[static_cast<size_t>(i)];
    }
  }

  // Binary consensus per proposer, run concurrently: two all-to-all vote
  // rounds over 2f+1 quorums decide the whole batch. Withheld votes leave
  // the sender set; double votes are discarded as evidence.
  ctx_->ApplyVoteAdversaries(&delivered);
  const double hops = GossipHopScale(n);
  std::vector<SimDuration>& echoed = plane->stage_b;
  QuorumArrivalAllInto(ctx_->vote_delays(), delivered, quorum, hops, plane, &echoed);
  ctx_->ApplyVoteAdversaries(&echoed);
  std::vector<SimDuration>& decided = plane->stage_c;
  QuorumArrivalAllInto(ctx_->vote_delays(), echoed, quorum, hops, plane, &decided);

  const SimDuration round_latency = MedianDelayInto(decided, plane);
  if (round_latency == kUnreachable) {
    // The superblock missed its quorum: every mini-block's transactions
    // return to the pool for the next round.
    ctx_->AbandonBlock(built, t0 + params.round_timeout);
    ++ctx_->stats().view_changes;
    ctx_->sim()->Schedule(params.round_timeout, [this] { Round(); });
    return;
  }

  // Deterministic finality; every node then executes the union block.
  const SimTime final_time =
      t0 + round_latency + ctx_->ExecAndVerifyTime(built.gas, built.tx_count);
  ctx_->FinalizeBlock(height_, sampled, std::move(built), t0, final_time);
  ++height_;

  const SimTime next = std::max(final_time, t0 + params.block_interval);
  ctx_->sim()->ScheduleAt(next, [this] { Round(); });
}

ChainParams RedBellyParams() {
  ChainParams p;
  p.name = "redbelly";
  p.consensus_name = "DBFT";
  p.property = "det.";
  p.vm_name = "geth";  // Smart Red Belly runs EVM smart contracts
  p.dapp_language = "Solidity";
  p.dialect = VmDialect::kGeth;
  p.sig_scheme = SignatureScheme::kEcdsa;
  p.block_interval = Seconds(1);
  p.block_gas_limit = 0;
  p.max_block_txs = 8192;       // superblocks: the union of n mini-blocks
  p.confirmation_depth = 0;     // deterministic finality
  p.mempool.global_cap = 500000;  // bounded pool: sheds load instead of dying
  p.gas_per_sec_per_vcpu = 800e6;
  p.congestion_threshold = 0;   // leaderless: no pending-set scan on the path
  return p;
}

}  // namespace diablo
