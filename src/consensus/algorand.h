// Algorand BA* (§5.2): pure proof-of-stake with cryptographic sortition.
// Each round a VRF lottery picks a proposer and per-step committees; the
// block is final as soon as the certify step completes (no forks with high
// probability). Step timeouts put a floor under the round time, which is
// why Algorand's latency sits in seconds even on fast networks.
#ifndef SRC_CONSENSUS_ALGORAND_H_
#define SRC_CONSENSUS_ALGORAND_H_

#include <vector>

#include "src/consensus/engine.h"

namespace diablo {

class AlgorandEngine : public ConsensusEngine {
 public:
  explicit AlgorandEngine(ChainContext* ctx);

 private:
  void Round() override;

  // BA* step `step`: `committee` votes once its members hold the previous
  // step's result (`start_times`, node-indexed) and their step timer
  // expired; `voted` receives when each receiver holds the step's quorum.
  void VoteStep(uint64_t step, const std::vector<uint32_t>& committee,
                const std::vector<SimDuration>& start_times,
                std::vector<SimDuration>* voted);

  uint64_t seed_;
  uint64_t height_ = 1;
};

}  // namespace diablo

#endif  // SRC_CONSENSUS_ALGORAND_H_
