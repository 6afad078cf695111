#include "src/core/call_table.h"

#include <utility>

namespace diablo {

CallTable::CallTable(SimConnector* connector, const Resource& accounts,
                     const DappWorkload& mix, int contract_index)
    : connector_(connector),
      accounts_(accounts),
      mix_(mix),
      contract_index_(contract_index),
      functions_(contract_index < 0 ? FunctionMix{} : mix.Functions()),
      rows_(functions_.count()) {}

bool CallTable::ResolveRow(uint64_t i, std::optional<Transaction>* row) {
  InteractionSpec spec;
  if (contract_index_ >= 0) {
    Invocation invocation = mix_.InvocationFor(i);
    spec.type = InteractionSpec::Type::kInvoke;
    spec.contract_index = contract_index_;
    spec.function = std::move(invocation.function);
    spec.args = std::move(invocation.args);
  }
  Transaction resolved;
  if (!connector_->Resolve(spec, &resolved)) {
    return false;
  }
  *row = resolved;
  return true;
}

}  // namespace diablo
