// Assembles a runnable blockchain: a ChainContext plus the consensus engine
// matching its parameter sheet.
#ifndef SRC_CHAINS_CHAIN_FACTORY_H_
#define SRC_CHAINS_CHAIN_FACTORY_H_

#include <memory>

#include "src/chain/node.h"
#include "src/chains/params.h"
#include "src/consensus/engine.h"

namespace diablo {

class ChainInstance {
 public:
  ChainInstance(Simulation* sim, Network* net, DeploymentConfig deployment,
                ChainParams params);

  // Begins block production.
  void Start() { engine_->Start(); }

  ChainContext& context() { return *ctx_; }

 private:
  std::unique_ptr<ChainContext> ctx_;
  std::unique_ptr<ConsensusEngine> engine_;
};

// Builds a chain from its parameter sheet: GetChainParams(name) for a named
// chain (see AllChainNames()), or a custom sheet.
std::unique_ptr<ChainInstance> BuildChainFromParams(const ChainParams& params,
                                                    const DeploymentConfig& deployment,
                                                    Simulation* sim, Network* net);

}  // namespace diablo

#endif  // SRC_CHAINS_CHAIN_FACTORY_H_
