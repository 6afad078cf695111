// Avalanche Snowball (C-Chain, §5.2): metastable consensus by repeated
// random sampling. A decision needs beta consecutive successful query
// rounds, each querying k random peers and waiting for an alpha fraction of
// replies. The C-Chain throttles block production to a minimum period of
// ~1.9 s with an 8M-gas block cap — the ceiling that keeps Avalanche's
// throughput low regardless of hardware (§6.2) yet insensitive to overload
// (§6.3).
#ifndef SRC_CONSENSUS_AVALANCHE_H_
#define SRC_CONSENSUS_AVALANCHE_H_

#include "src/consensus/engine.h"

namespace diablo {

class AvalancheEngine : public ConsensusEngine {
 public:
  explicit AvalancheEngine(ChainContext* ctx);

 private:
  void Round() override;

  // Time for beta consecutive Snowball query rounds from `node`. A
  // `conflicted` decision (equivocating issuer) needs twice the rounds to
  // re-converge from the metastable split.
  SimDuration DecisionTime(int node, bool conflicted);

  Rng rng_;
  uint64_t height_ = 1;
};

}  // namespace diablo

#endif  // SRC_CONSENSUS_AVALANCHE_H_
