// Clique proof-of-authority (Ethereum, §5.2): authorized signers take turns
// producing a block every fixed period. Forks from out-of-turn signing are
// modelled through a confirmation depth — a block is client-final only once
// `confirmation_depth` further blocks sit on top of it.
#ifndef SRC_CONSENSUS_CLIQUE_H_
#define SRC_CONSENSUS_CLIQUE_H_

#include <deque>

#include "src/chain/node.h"

namespace diablo {

class CliqueEngine : public ConsensusEngine {
 public:
  explicit CliqueEngine(ChainContext* ctx) : ConsensusEngine(ctx) {}

  void Start() override;

 private:
  struct PendingBlock {
    uint64_t height;
    int proposer;
    ChainContext::BuiltBlock built;
    SimTime proposed_at;
    SimTime visible_at;  // block fully propagated to the network
  };

  void ProduceBlock();

  uint64_t height_ = 1;
  std::deque<PendingBlock> pending_;
};

}  // namespace diablo

#endif  // SRC_CONSENSUS_CLIQUE_H_
