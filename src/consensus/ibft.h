// IBFT (Quorum, §5.2): leader-based PBFT-style consensus with PRE-PREPARE /
// PREPARE / COMMIT phases over 2f+1 quorums and immediate deterministic
// finality. Quorum's design never drops a client request, so a sustained
// overload grows the pending set until the leader can no longer assemble a
// proposal within the round timeout — the collapse of §6.3.
#ifndef SRC_CONSENSUS_IBFT_H_
#define SRC_CONSENSUS_IBFT_H_

#include "src/consensus/engine.h"

namespace diablo {

class IbftEngine : public ConsensusEngine {
 public:
  explicit IbftEngine(ChainContext* ctx) : ConsensusEngine(ctx) {}

 private:
  void Round() override;

  uint64_t height_ = 1;
  uint64_t round_ = 0;          // increments on view changes too
  int consecutive_failures_ = 0;
};

}  // namespace diablo

#endif  // SRC_CONSENSUS_IBFT_H_
