#include "src/chains/params.h"

#include <stdexcept>

#include "src/consensus/dbft.h"
#include "src/support/strings.h"

namespace diablo {
namespace {

ChainParams AlgorandParams() {
  ChainParams p;
  p.name = "algorand";
  p.consensus_name = "BA*";
  p.property = "prob.";
  p.vm_name = "AVM";
  p.dapp_language = "PyTeal";
  p.dialect = VmDialect::kAvm;
  p.sig_scheme = SignatureScheme::kEd25519;  // Algorand uses Ed25519
  p.block_interval = Milliseconds(500);
  p.block_gas_limit = 2'500'000;       // calibrated: app-call capacity well below
                                       // payment capacity (§6.1's FIFA/Dota rows)
  p.max_block_bytes = 5'000'000;       // Algorand 5 MB blocks
  p.max_block_txs = 4000;              // calibrated: ~885 TPS ceiling at ~4.5 s rounds
  p.confirmation_depth = 0;            // no forks w.h.p. -> immediate finality (§5.2)
  p.mempool.global_cap = 4500;         // calibrated: Fig. 6 Apple plateau ~77%
  p.committee_expected = 60;           // committee-sized vote steps
  p.step_timeout = MillisecondsF(2200);  // BA* step timer λ; ~4.5 s rounds
  p.gas_per_sec_per_vcpu = 50e6;
  p.congestion_threshold = 0;
  p.ingress_capacity = 19000;          // calibrated: Fig. 4 throughput /1.45 at 10k TPS
  return p;
}

ChainParams AvalancheParams() {
  ChainParams p;
  p.name = "avalanche";
  p.consensus_name = "Avalanche";
  p.property = "prob.";
  p.vm_name = "geth";
  p.dapp_language = "Solidity";
  p.dialect = VmDialect::kGeth;
  p.sig_scheme = SignatureScheme::kEcdsa;  // the paper's fallback from RSA4096 (§5.2)
  p.block_interval = MillisecondsF(1900);  // ≥1.9 s between blocks (§5.2)
  p.block_gas_limit = 8'000'000;           // 8M gas per block (§5.2)
  p.max_block_txs = 2000;
  p.confirmation_depth = 0;                // decision time modelled explicitly
  p.mempool.global_cap = 9000;             // calibrated: Fig. 6 Apple ~90% committed
  p.beta = 12;                             // Snowball, k = 20 and alpha = 0.8
  p.gas_per_sec_per_vcpu = 800e6;
  p.congestion_threshold = 0;              // immune to overload (§6.3)
  return p;
}

ChainParams DiemParams() {
  ChainParams p;
  p.name = "diem";
  p.consensus_name = "HotStuff";
  p.property = "det.";
  p.vm_name = "MoveVM";
  p.dapp_language = "Move";
  p.dialect = VmDialect::kMoveVm;
  p.sig_scheme = SignatureScheme::kEd25519;
  p.block_interval = Milliseconds(100);  // pipelined rounds; LAN rounds are fast
  p.block_gas_limit = 0;
  p.max_block_txs = 1000;
  p.confirmation_depth = 0;  // deterministic finality
  p.mempool.per_signer_cap = 100;  // 100 txs per signer in the pool (§5.2)
  p.mempool.ttl = Seconds(20);     // client expiration window (calibrated: Fig. 6)
  p.round_timeout = Seconds(10);
  p.proposal_overhead_per_pending_tx = Microseconds(5);  // calibrated
  p.gas_per_sec_per_vcpu = 50e6;
  p.congestion_threshold = 1200;   // calibrated: Fig. 4 collapse, Fig. 2 Dota ceiling
  return p;
}

ChainParams EthereumParams() {
  ChainParams p;
  p.name = "ethereum";
  p.consensus_name = "Clique";
  p.property = "eventual";
  p.vm_name = "geth";
  p.dapp_language = "Solidity";
  p.dialect = VmDialect::kGeth;
  p.sig_scheme = SignatureScheme::kEcdsa;
  p.block_interval = Seconds(5);       // PoA block period (private-net Clique)
  p.block_gas_limit = 600'000'000;     // private-net genesis raises the cap
  p.max_block_txs = 2000;
  p.confirmation_depth = 6;            // Clique forks -> wait for descendants
  p.mempool.global_cap = 5120;         // geth txpool default (4096 exec + 1024 queue)
  p.mempool.evict_on_full = true;      // geth replaces pooled txs when full
  p.gas_per_sec_per_vcpu = 800e6;
  p.congestion_threshold = 1200;       // calibrated: sub-percent commits at 10k TPS (§6.3)
  return p;
}

ChainParams QuorumParams() {
  ChainParams p;
  p.name = "quorum";
  p.consensus_name = "IBFT";
  p.property = "det.";
  p.vm_name = "geth";
  p.dapp_language = "Solidity";
  p.dialect = VmDialect::kGeth;
  p.sig_scheme = SignatureScheme::kEcdsa;
  p.block_interval = Seconds(1);
  p.block_gas_limit = 0;               // permissioned deployments lift the cap
  p.max_block_txs = 1024;              // calibrated: geth miner defaults
  p.confirmation_depth = 0;            // immediate finality (IBFT)
  p.mempool.global_cap = 0;            // IBFT never drops a client request (§6.5)
  p.round_timeout = Seconds(10);
  p.proposal_overhead_quadratic = Microseconds(100);  // calibrated: §6.3 collapse
                                                      // at ~200k pending
  p.gas_per_sec_per_vcpu = 800e6;
  p.congestion_threshold = 0;          // collapse comes from view changes instead
  return p;
}

ChainParams SolanaParams() {
  ChainParams p;
  p.name = "solana";
  p.consensus_name = "TowerBFT";
  p.property = "eventual";
  p.vm_name = "eBPF";
  p.dapp_language = "Solidity";  // via Solang, as the paper's Table 4 lists Solidity
  p.dialect = VmDialect::kEbpf;
  p.sig_scheme = SignatureScheme::kEd25519;
  p.block_interval = Milliseconds(400);  // 400 ms slots (§5.2)
  p.block_gas_limit = 3'600'000;        // calibrated: ~9000 TPS native ceiling
  p.max_block_bytes = 1'300'000;        // Turbine shred budget per slot
  p.max_block_txs = 4000;
  p.confirmation_depth = 30;            // 30 confirmations before final (§5.2)
  p.mempool.global_cap = 4800;          // calibrated: Fig. 6 Apple plateau ~52%
  p.mempool.ttl = Seconds(120);         // recent-blockhash expiry (§5.2)
  p.gas_per_sec_per_vcpu = 50e6;
  p.congestion_threshold = 300;         // calibrated: Fig. 4 degradation at 10k TPS
  return p;
}

}  // namespace

ChainParams GetChainParams(std::string_view chain) {
  const std::string key = ToLower(chain);
  if (key == "algorand") {
    return AlgorandParams();
  }
  if (key == "avalanche") {
    return AvalancheParams();
  }
  if (key == "diem") {
    return DiemParams();
  }
  if (key == "ethereum") {
    return EthereumParams();
  }
  if (key == "quorum") {
    return QuorumParams();
  }
  if (key == "solana") {
    return SolanaParams();
  }
  if (key == "redbelly") {
    // Extension chain (§6.6's Smart Red Belly reference); excluded from
    // AllChainNames() so the paper's six-chain benches stay faithful.
    return RedBellyParams();
  }
  throw std::invalid_argument("unknown blockchain: " + std::string(chain));
}

std::vector<ChainParams> AllChainParams() {
  std::vector<ChainParams> all;
  for (const std::string& name : AllChainNames()) {
    all.push_back(GetChainParams(name));
  }
  return all;
}

const std::vector<std::string>& AllChainNames() {
  static const std::vector<std::string>* const kNames = new std::vector<std::string>{
      "algorand", "avalanche", "diem", "quorum", "ethereum", "solana"};
  return *kNames;
}

}  // namespace diablo
