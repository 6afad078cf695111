// Solana TowerBFT over proof-of-history (§5.2): a verifiable delay function
// paces fixed slots (the sheet's block_interval, 400 ms) regardless of
// communication, leaders rotate in fixed slot windows, and blocks stream
// through a Turbine-style gossip tree. Because Solana can fork, clients wait
// for 30 confirmations before treating a transaction as final — the
// dominant term of its ~12 s latency.
#ifndef SRC_CONSENSUS_SOLANA_H_
#define SRC_CONSENSUS_SOLANA_H_

#include "src/consensus/engine.h"

namespace diablo {

class SolanaEngine : public ConsensusEngine {
 public:
  explicit SolanaEngine(ChainContext* ctx) : ConsensusEngine(ctx) {}

 private:
  void Round() override;

  uint64_t slot_ = 0;
};

}  // namespace diablo

#endif  // SRC_CONSENSUS_SOLANA_H_
