#include "src/chain/execution.h"

#include <cstdio>
#include <cstdlib>

namespace diablo {

CostOracle::CostOracle(VmDialect dialect) : dialect_(dialect) {}

int CostOracle::Deploy(const ContractDef& def) {
  auto deployed = std::make_unique<Deployed>();
  deployed->def = def;
  deployed->program = CompileContract(def);
  for (const FunctionEntry& f : deployed->program.functions) {
    deployed->functions.push_back(f.name);
  }
  deployed->profiles.resize(deployed->functions.size());
  deployed->measured.resize(deployed->functions.size(), false);

  const int64_t init_entry = deployed->program.EntryOf("init");
  if (init_entry >= 0) {
    ExecRequest request;
    request.program = &deployed->program;
    request.function = "init";
    request.entry = init_entry;
    request.args = def.init_args;
    request.caller = 0;
    request.state = &deployed->state;
    request.dialect = dialect_;
    // A deployment whose init does not run to completion fails. Every
    // bundled contract's init fits every dialect's budget
    // (RegistryTest.EveryInitRunsUnderEveryDialect).
    if (Run(request).status != VmStatus::kOk) {
      return -1;
    }
  }

  // The paper could not implement DecentralizedYoutube in TEAL because of
  // the 128-byte state limit: detect payload-bearing contracts that can
  // never store their data and refuse deployment.
  if (LimitsOf(dialect_).max_kv_bytes > 0 &&
      deployed->program.EntryOf("upload") >= 0) {
    return -1;
  }

  deployed_.push_back(std::move(deployed));
  return static_cast<int>(deployed_.size() - 1);
}

const CallProfile& CostOracle::Profile(int contract_index, const std::string& function,
                                       const std::vector<int64_t>& args) {
  Deployed& deployed = *deployed_[static_cast<size_t>(contract_index)];
  const int fn = FunctionIndex(contract_index, function);
  if (fn < 0) {
    std::fprintf(stderr, "no function '%s' in contract '%s'\n", function.c_str(),
                 deployed.def.name.c_str());
    std::abort();
  }
  CallProfile& profile = deployed.profiles[static_cast<size_t>(fn)];
  if (!deployed.measured[static_cast<size_t>(fn)]) {
    ExecRequest request;
    request.program = &deployed.program;
    request.function = function;
    // deployed.functions mirrors program.functions, so the FunctionIndex
    // lookup above already names the entry — no second scan in Execute.
    request.entry = deployed.program.functions[static_cast<size_t>(fn)].offset;
    request.args = args;
    request.caller = 1;
    request.state = &deployed.state;
    request.dialect = dialect_;
    const ExecResult result = Run(request);
    profile.status = result.status;
    profile.gas = result.gas_used;
    profile.ops = result.ops_executed;
    profile.calldata_bytes = static_cast<int32_t>(8 * args.size() + 16);
    deployed.measured[static_cast<size_t>(fn)] = true;
  }
  return profile;
}

int CostOracle::FunctionIndex(int contract_index, const std::string& function) {
  const Deployed& deployed = *deployed_[static_cast<size_t>(contract_index)];
  for (size_t i = 0; i < deployed.functions.size(); ++i) {
    if (deployed.functions[i] == function) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

ExecResult CostOracle::Run(const ExecRequest& request) {
  ExecResult result = Execute(request);
  vm_ops_ += static_cast<uint64_t>(result.ops_executed);
  return result;
}

const std::string& CostOracle::ContractName(int contract_index) const {
  return deployed_[static_cast<size_t>(contract_index)]->def.name;
}

int64_t NativeTransferGas(VmDialect dialect) {
  return LimitsOf(dialect).intrinsic_gas;
}

}  // namespace diablo
