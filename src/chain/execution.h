// The contract cost oracle.
//
// Nodes execute blocks at a per-chain rate of gas per second per vCPU
// (ChainContext::ExecAndVerifyTime). To keep the discrete-event simulation
// tractable at millions of transactions, contract calls are NOT interpreted
// per transaction: the CostOracle runs each (contract, function, dialect)
// once in the real VM, caches the measured gas / op count / status, and the
// chain charges the cached cost thereafter. Unit tests and the micro benches
// exercise the interpreter directly; all contracts in the suite have
// call-invariant cost profiles.
#ifndef SRC_CHAIN_EXECUTION_H_
#define SRC_CHAIN_EXECUTION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/contracts/contracts.h"
#include "src/vm/interpreter.h"
#include "src/vm/state.h"

namespace diablo {

// Cost profile of one contract function under one dialect.
struct CallProfile {
  VmStatus status = VmStatus::kOk;
  int64_t gas = 0;
  int64_t ops = 0;
  int32_t calldata_bytes = 0;  // wire size contribution of the call payload
};

// Deploys contracts for one chain instance (dialect-specific) and serves
// cached per-function cost profiles. It counts the VM ops of every execution
// it runs, deployment included.
class CostOracle {
 public:
  explicit CostOracle(VmDialect dialect);

  // Deploys (compiles + runs init). Returns the contract index Profile
  // takes, or -1 when the contract cannot be deployed on this dialect: its
  // init does not return kOk, or it cannot store its data (DecentralizedYoutube
  // on the AVM, §5.2).
  int Deploy(const ContractDef& def);

  // Profile of calling `function` with `args`; measured on first use.
  const CallProfile& Profile(int contract_index, const std::string& function,
                             const std::vector<int64_t>& args);

  // The function's index in the contract's function table; -1 when absent.
  int FunctionIndex(int contract_index, const std::string& function);

  const std::string& ContractName(int contract_index) const;

  uint64_t vm_ops() const { return vm_ops_; }

 private:
  struct Deployed {
    ContractDef def;
    Program program;
    ContractState state;
    std::vector<std::string> functions;
    std::vector<CallProfile> profiles;
    std::vector<bool> measured;
  };

  // Execute, with the ops it ran added to vm_ops_.
  ExecResult Run(const ExecRequest& request);

  VmDialect dialect_;
  std::vector<std::unique_ptr<Deployed>> deployed_;
  uint64_t vm_ops_ = 0;
};

// Intrinsic gas of a native transfer (no VM execution) and its wire size.
int64_t NativeTransferGas(VmDialect dialect);
inline constexpr int32_t kNativeTransferBytes = 110;

}  // namespace diablo

#endif  // SRC_CHAIN_EXECUTION_H_
