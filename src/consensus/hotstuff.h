// HotStuff (Diem, §5.2): pipelined three-phase leader-based BFT. Each round
// a rotating leader broadcasts a proposal directly to all validators and
// collects a quorum certificate at the next leader; a block is final after
// the three-chain rule (two further rounds). Leader rounds are dominated by
// the leader's uplink and the WAN round-trip — the reason Diem shines in a
// single datacenter and degrades on high-RTT networks (§6.2).
#ifndef SRC_CONSENSUS_HOTSTUFF_H_
#define SRC_CONSENSUS_HOTSTUFF_H_

#include "src/consensus/engine.h"

namespace diablo {

class HotStuffEngine : public ConsensusEngine {
 public:
  explicit HotStuffEngine(ChainContext* ctx) : ConsensusEngine(ctx) {}

 private:
  void Round() override;

  uint64_t round_ = 0;
  uint64_t height_ = 1;
};

}  // namespace diablo

#endif  // SRC_CONSENSUS_HOTSTUFF_H_
