// Assembles a runnable blockchain: a ChainContext plus the consensus engine
// matching its parameter sheet.
#ifndef SRC_CHAINS_CHAIN_FACTORY_H_
#define SRC_CHAINS_CHAIN_FACTORY_H_

#include <memory>
#include <string_view>

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

// Builds the named chain (see AllChainNames()) on the given deployment.
std::unique_ptr<ChainInstance> BuildChain(std::string_view chain,
                                          const DeploymentConfig& deployment,
                                          Simulation* sim, Network* net);

// Builds a chain from a custom parameter sheet (used by the ablation benches
// and the custom-blockchain example).
std::unique_ptr<ChainInstance> BuildChainFromParams(const ChainParams& params,
                                                    const DeploymentConfig& deployment,
                                                    Simulation* sim, Network* net);

}  // namespace diablo

#endif  // SRC_CHAINS_CHAIN_FACTORY_H_
