#include "src/consensus/algorand.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/crypto/sortition.h"

namespace diablo {

AlgorandEngine::AlgorandEngine(ChainContext* ctx)
    : ConsensusEngine(ctx), seed_(ctx->rng().NextU64()) {}

void AlgorandEngine::Start() {
  ctx_->sim()->Schedule(ctx_->params().block_interval, [this] { Round(); });
}

void AlgorandEngine::Round() {
  const SimTime t0 = ctx_->sim()->Now();
  const ChainParams& params = ctx_->params();
  const uint32_t n = static_cast<uint32_t>(ctx_->node_count());
  const auto& hosts = ctx_->hosts();

  // Sortition: proposer priority and per-step committees derive from the
  // round seed; everyone computes the same outcome.
  const int proposer = static_cast<int>(SelectProposer(seed_, height_, n));
  const double expected =
      params.committee_expected > 0
          ? std::min<double>(params.committee_expected, static_cast<double>(n))
          : static_cast<double>(n);

  // A crashed sortition winner simply never proposes; the round times out
  // and the next seed picks a fresh proposer.
  if (ctx_->NodeDown(proposer)) {
    ++ctx_->stats().view_changes;
    ++height_;
    ctx_->sim()->Schedule(params.step_timeout * 3, [this] { Round(); });
    return;
  }

  // An equivocating sortition winner gossips two credentialed proposals;
  // the soft vote splits between them, certification fails, and the next
  // seed reassigns the proposer — BA* reaches the empty block instead.
  if (ctx_->ProposerEquivocates(proposer)) {
    ctx_->RecordEquivocation();
    ++ctx_->stats().view_changes;
    ++height_;
    ctx_->sim()->Schedule(params.step_timeout * 3, [this] { Round(); });
    return;
  }

  ChainContext::BuiltBlock built = ctx_->BuildBlock(t0, proposer);
  const SimDuration build_time = built.build_time;

  // Proposal dissemination by gossip; nodes wait out the proposal step
  // timeout before soft-voting (the λ parameter of BA*).
  MessagePlaneScratch* plane = ctx_->plane();
  std::vector<SimDuration>& bcast = plane->stage_a;
  ctx_->net()->BroadcastDelaysInto(hosts[static_cast<size_t>(proposer)], hosts,
                                   built.bytes, params.gossip_fanout,
                                   &plane->broadcast, &bcast);
  const SimDuration verify = ctx_->ExecAndVerifyTime(built.gas, built.tx_count);

  auto vote_step = [&](uint64_t step, const std::vector<SimDuration>& start_times,
                       std::vector<SimDuration>* voted) {
    std::vector<uint32_t>& committee = plane->committee;
    SelectCommitteeInto(seed_, height_, step, n, expected, &committee);
    // BA* step timers are sequential: the soft vote fires after one λ, the
    // certify vote after two.
    const SimDuration step_floor =
        params.step_timeout * static_cast<SimDuration>(step);
    std::vector<SimDuration>& senders = plane->senders;
    senders.assign(n, kUnreachable);
    for (const uint32_t member : committee) {
      const SimDuration start = start_times[member];
      if (start != kUnreachable) {
        // Committee members vote after their step timer or once they hold
        // the previous step's result, whichever is later.
        senders[member] = std::max<SimDuration>(start, step_floor);
      }
    }
    // Committee members that withhold (or double-cast) their votes: the
    // slot is node-indexed here, and only committee slots are reachable, so
    // exactly the selected adversaries are affected.
    ctx_->ApplyVoteAdversaries(&senders);
    // BA* thresholds sit just below 3/4 of the expected committee weight.
    const size_t threshold = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(0.685 * static_cast<double>(committee.size()))));
    // Votes flood through the gossip network (multi-hop on large meshes).
    QuorumArrivalAllInto(ctx_->vote_delays(), senders, threshold,
                         GossipHopScale(static_cast<int>(n)), plane, voted);
  };

  std::vector<SimDuration>& have_proposal = bcast;  // arrival + verify, in place
  for (uint32_t i = 0; i < n; ++i) {
    if (bcast[i] != kUnreachable) {
      have_proposal[i] = build_time + bcast[i] + verify;
    }
  }

  std::vector<SimDuration>& soft = plane->stage_b;
  std::vector<SimDuration>& cert = plane->stage_c;
  if (!ctx_->vote_delays().dense()) {
    // Committee-sampled BA* for large N. Sortition already bounds who votes,
    // so each step only needs its result at the nodes that consume it — the
    // next step's committee — instead of flooding all n receivers, keeping a
    // round at O(committee²) while the dense path below stays O(n²). Both
    // committees derive from the round seed, so they are known up front.
    std::vector<uint32_t>& committee1 = plane->committee;
    std::vector<uint32_t>& committee2 = plane->committee_b;
    SelectCommitteeInto(seed_, height_, /*step=*/1, n, expected, &committee1);
    SelectCommitteeInto(seed_, height_, /*step=*/2, n, expected, &committee2);
    const double hops = GossipHopScale(static_cast<int>(n));
    auto sampled_step = [&](uint64_t step, const std::vector<uint32_t>& committee,
                            const std::vector<SimDuration>& start_times,
                            std::vector<SimDuration>* voted) {
      const SimDuration step_floor =
          params.step_timeout * static_cast<SimDuration>(step);
      std::vector<SimDuration>& times = plane->senders;
      times.clear();
      for (const uint32_t member : committee) {
        const SimDuration start = start_times[member];
        times.push_back(start == kUnreachable
                            ? kUnreachable
                            : std::max<SimDuration>(start, step_floor));
      }
      // `times` is committee-position-indexed; map positions back to node
      // ids to find the withholding members.
      ctx_->ApplyVoteAdversaries(&times, &committee);
      const size_t threshold = std::max<size_t>(
          1, static_cast<size_t>(
                 std::ceil(0.685 * static_cast<double>(committee.size()))));
      QuorumArrivalCommitteeInto(ctx_->vote_delays(), committee, times, committee2,
                                 n, threshold, hops, plane, voted);
    };
    sampled_step(/*step=*/1, committee1, have_proposal, &soft);
    sampled_step(/*step=*/2, committee2, soft, &cert);
  } else {
    vote_step(/*step=*/1, have_proposal, &soft);
    vote_step(/*step=*/2, soft, &cert);
  }

  const SimDuration round_latency = MedianDelayInto(cert, plane);
  if (round_latency == kUnreachable) {
    // No certification this round (committee unlucky / partitioned): the
    // proposal's transactions return to the pool and the round retries.
    ctx_->AbandonBlock(built, t0 + params.step_timeout * 3);
    ++ctx_->stats().view_changes;
    ++height_;
    ctx_->sim()->Schedule(params.step_timeout * 3, [this] { Round(); });
    return;
  }

  // Immediate finality: Algorand does not fork with high probability.
  const SimTime final_time = t0 + round_latency;
  ctx_->FinalizeBlock(height_, proposer, std::move(built), t0, final_time);
  ++height_;

  const SimTime next = std::max(final_time, t0 + params.block_interval);
  ctx_->sim()->ScheduleAt(next, [this] { Round(); });
}

}  // namespace diablo
