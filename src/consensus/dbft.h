// Leaderless DBFT, modelled on the Red Belly Blockchain the paper cites as
// immune to the §6.3 overload collapse ([40], §6.6): every node contributes
// a mini-block each round, the union is decided through reliable broadcast
// plus binary consensus, and no single leader's uplink or pending-set scan
// is on the critical path. Shipped as an extension chain ("redbelly") —
// the paper discusses it but does not benchmark it.
#ifndef SRC_CONSENSUS_DBFT_H_
#define SRC_CONSENSUS_DBFT_H_

#include "src/consensus/engine.h"

namespace diablo {

class DbftEngine : public ConsensusEngine {
 public:
  explicit DbftEngine(ChainContext* ctx);

 private:
  void Round() override;

  Rng rng_;
  uint64_t height_ = 1;
};

// The extension chain's parameter sheet (not part of the paper's six).
ChainParams RedBellyParams();

}  // namespace diablo

#endif  // SRC_CONSENSUS_DBFT_H_
