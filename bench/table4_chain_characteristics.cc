// Table 4: characteristics of the evaluated blockchains — consistency
// property, consensus protocol, virtual machine and DApp language — printed
// from the parameter sheets, plus the protocol limits the simulators
// enforce (§5.2).
#include "bench/bench_util.h"
#include "src/chains/params.h"

namespace diablo {
namespace {

void Run() {
  PrintHeader("Table 4 — evaluated blockchains");
  std::printf("%-10s %-6s %-10s %-7s %-9s\n", "chain", "prop.", "consensus", "VM",
              "language");
  for (const ChainParams& params : AllChainParams()) {
    std::printf("%-10s %-6s %-10s %-7s %-9s\n", params.name.c_str(),
                params.property.c_str(), params.consensus_name.c_str(),
                params.vm_name.c_str(), params.dapp_language.c_str());
  }

  std::printf("\nprotocol limits enforced by the simulators (§5.2):\n");
  for (const ChainParams& params : AllChainParams()) {
    std::printf("%-10s", params.name.c_str());
    if (params.block_gas_limit > 0) {
      std::printf("  block gas %.3gM",
                  static_cast<double>(params.block_gas_limit) / 1e6);
    }
    if (params.block_interval >= Seconds(1)) {
      std::printf("  period >= %.1f s", ToSeconds(params.block_interval));
    }
    if (params.name == "solana") {
      std::printf("  %.0f ms slots", ToMilliseconds(params.block_interval));
    }
    if (params.confirmation_depth > 0) {
      std::printf("  %d confirmations", params.confirmation_depth);
    }
    if (params.mempool.per_signer_cap > 0) {
      std::printf("  %zu txs/signer", params.mempool.per_signer_cap);
    }
    if (params.mempool.global_cap > 0) {
      std::printf("  pool cap %zu", params.mempool.global_cap);
    }
    if (params.mempool.global_cap == 0) {
      std::printf("  unbounded pool");
    }
    if (params.mempool.ttl > 0) {
      std::printf("  tx ttl %.0f s", ToSeconds(params.mempool.ttl));
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace diablo

int main() {
  diablo::Run();
  return 0;
}
