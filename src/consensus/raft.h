// Raft (Quorum's crash-fault-tolerant option, §5.2): a stable leader
// replicates blocks to followers and commits on a majority (f+1 of 2f+1)
// of acknowledgements — one round trip instead of IBFT's three phases, no
// Byzantine tolerance. Quorum's documentation pairs it with "minting"
// blocks as soon as transactions arrive, so there is no fixed block period,
// only a floor.
#ifndef SRC_CONSENSUS_RAFT_H_
#define SRC_CONSENSUS_RAFT_H_

#include "src/chain/node.h"

namespace diablo {

class RaftEngine : public ConsensusEngine {
 public:
  explicit RaftEngine(ChainContext* ctx) : ConsensusEngine(ctx) {}

  void Start() override;

 private:
  void Round();

  uint64_t height_ = 1;
  int leader_ = 0;  // stable unless it stalls (crash faults are injected
                    // through Network::SetPartitioned)
};

}  // namespace diablo

#endif  // SRC_CONSENSUS_RAFT_H_
