// Algorand BA* (§5.2): pure proof-of-stake with cryptographic sortition.
// Each round a VRF lottery picks a proposer and per-step committees; the
// block is final as soon as the certify step completes (no forks with high
// probability). Step timeouts put a floor under the round time, which is
// why Algorand's latency sits in seconds even on fast networks.
#ifndef SRC_CONSENSUS_ALGORAND_H_
#define SRC_CONSENSUS_ALGORAND_H_

#include "src/chain/node.h"

namespace diablo {

class AlgorandEngine : public ConsensusEngine {
 public:
  explicit AlgorandEngine(ChainContext* ctx);

  void Start() override;

 private:
  void Round();

  uint64_t seed_;
  uint64_t height_ = 1;
};

}  // namespace diablo

#endif  // SRC_CONSENSUS_ALGORAND_H_
