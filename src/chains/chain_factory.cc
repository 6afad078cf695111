#include "src/chains/chain_factory.h"

#include <stdexcept>

#include "src/consensus/algorand.h"
#include "src/consensus/avalanche.h"
#include "src/consensus/clique.h"
#include "src/consensus/dbft.h"
#include "src/consensus/hotstuff.h"
#include "src/consensus/ibft.h"
#include "src/consensus/solana.h"

namespace diablo {
namespace {

std::unique_ptr<ConsensusEngine> MakeEngine(ChainContext* ctx) {
  const std::string& consensus = ctx->params().consensus_name;
  if (consensus == "Clique") {
    return std::make_unique<CliqueEngine>(ctx);
  }
  if (consensus == "IBFT") {
    return std::make_unique<IbftEngine>(ctx);
  }
  if (consensus == "DBFT") {
    return std::make_unique<DbftEngine>(ctx);
  }
  if (consensus == "HotStuff") {
    return std::make_unique<HotStuffEngine>(ctx);
  }
  if (consensus == "BA*") {
    return std::make_unique<AlgorandEngine>(ctx);
  }
  if (consensus == "Avalanche") {
    return std::make_unique<AvalancheEngine>(ctx);
  }
  if (consensus == "TowerBFT") {
    return std::make_unique<SolanaEngine>(ctx);
  }
  throw std::invalid_argument("unknown consensus: " + consensus);
}

}  // namespace

ChainInstance::ChainInstance(Simulation* sim, Network* net, DeploymentConfig deployment,
                             ChainParams params) {
  ctx_ = std::make_unique<ChainContext>(sim, net, std::move(deployment),
                                        std::move(params));
  engine_ = MakeEngine(ctx_.get());
}

std::unique_ptr<ChainInstance> BuildChainFromParams(const ChainParams& params,
                                                    const DeploymentConfig& deployment,
                                                    Simulation* sim, Network* net) {
  return std::make_unique<ChainInstance>(sim, net, deployment, params);
}

}  // namespace diablo
