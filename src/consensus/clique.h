// Clique proof-of-authority (Ethereum, §5.2): authorized signers take turns
// producing a block every fixed period. Forks from out-of-turn signing are
// modelled through a confirmation depth — a block is client-final only once
// `confirmation_depth` further blocks sit on top of it.
#ifndef SRC_CONSENSUS_CLIQUE_H_
#define SRC_CONSENSUS_CLIQUE_H_

#include "src/consensus/engine.h"

namespace diablo {

class CliqueEngine : public ConsensusEngine {
 public:
  explicit CliqueEngine(ChainContext* ctx) : ConsensusEngine(ctx) {}

 private:
  void Round() override;

  uint64_t height_ = 1;
};

}  // namespace diablo

#endif  // SRC_CONSENSUS_CLIQUE_H_
