// ConsensusEngine: the round skeleton the seven protocol simulators share.
// The base schedules rounds, counts view changes and owns the message-plane
// steps several protocols repeat; an engine overrides Round() with its
// protocol alone: who proposes, which vote stage decides, and when a block
// is final.
#ifndef SRC_CONSENSUS_ENGINE_H_
#define SRC_CONSENSUS_ENGINE_H_

#include <deque>
#include <vector>

#include "src/chain/node.h"

namespace diablo {

// Visible blocks waiting for successors: Clique's confirmation depth and
// HotStuff's three-chain rule.
class FinalityWindow {
 public:
  explicit FinalityWindow(ChainContext* ctx) : ctx_(ctx) {}

  // Appends a block that became visible at `visible`, then finalizes each
  // block with `depth` successors at the later of its own visibility and
  // `visible`.
  void Push(size_t depth, uint64_t height, int proposer,
            ChainContext::BuiltBlock&& built, SimTime proposed_at, SimTime visible);

 private:
  struct Pending {
    uint64_t height;
    int proposer;
    ChainContext::BuiltBlock built;
    SimTime proposed_at;
    SimTime visible;
  };

  ChainContext* ctx_;
  std::deque<Pending> pending_;
};

class ConsensusEngine {
 public:
  explicit ConsensusEngine(ChainContext* ctx) : ctx_(ctx), finality_(ctx) {}
  virtual ~ConsensusEngine() = default;

  ConsensusEngine(const ConsensusEngine&) = delete;
  ConsensusEngine& operator=(const ConsensusEngine&) = delete;

  // Begins block production: the first round runs one block_interval later.
  void Start();

 protected:
  // Peers each node forwards a gossiped proposal to.
  static constexpr int kGossipFanout = 8;

  // One round at the current simulation time; it ends in exactly one call
  // to NextRound or ViewChange.
  virtual void Round() = 0;

  // The round failed: counts a view change and retries `retry_after` later.
  void ViewChange(SimDuration retry_after);

  // The round started at `t0` is done at `done`: the next one runs at the
  // later of `done` and `t0` + block_interval.
  void NextRound(SimTime t0, SimTime done);

  // True when `node` is down or a 64-byte probe to its ring successor is
  // unreachable.
  bool ProposerOffline(int node);

  // Gossips `bytes` from `origin` at `fanout` into the plane's stage_a and
  // returns it: each reachable entry becomes before + arrival + after.
  std::vector<SimDuration>& ProposalArrivals(int origin, int64_t bytes, int fanout,
                                             SimDuration before, SimDuration after);

  // Median gossip delay of `bytes` from `origin`; 1 s when none arrives.
  SimDuration Propagation(int origin, int64_t bytes);

  // Vote adversaries act on `sent`, an all-to-all `quorum` stage runs, the
  // adversaries act again, a second stage runs; returns the median of its
  // arrivals (kUnreachable without a quorum).
  SimDuration TwoVoteRounds(std::vector<SimDuration>* sent, size_t quorum);

  ChainContext* ctx_;
  FinalityWindow finality_;
};

}  // namespace diablo

#endif  // SRC_CONSENSUS_ENGINE_H_
