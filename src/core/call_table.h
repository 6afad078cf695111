// One stream's pre-signing table (§4): Primary::RunStreams encodes every
// transaction of a stream by stamping a row resolved once per function.
#ifndef SRC_CORE_CALL_TABLE_H_
#define SRC_CORE_CALL_TABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/interface.h"
#include "src/workload/dapps.h"

namespace diablo {

// A row per distinct function the stream calls, each the Resolve()d
// Transaction every call of that function encodes to before it is stamped.
// A row resolves on the first call that uses it, from that call's
// InvocationFor(i), so the cost oracle measures the same functions, in the
// same order and with the same first-caller arguments, as encoding call by
// call. Once a function is measured, no field Resolve fills depends on the
// arguments except an upload's payload, which is constant within a stream;
// every later call reuses the row.
class CallTable {
 public:
  // `contract_index` < 0 encodes native transfers; otherwise `mix` names
  // each call's invocation of that contract. `connector`, `accounts` and
  // `mix` must outlive the table.
  CallTable(SimConnector* connector, const Resource& accounts, const DappWorkload& mix,
            int contract_index);

  // Encodes the i-th call, scheduled at `time`. kInvalidTx when the call's
  // function has no valid wire size.
  TxId Encode(uint64_t i, SimTime time) {
    std::optional<Transaction>& row = rows_[functions_.IndexFor(i)];
    if (!row.has_value() && !ResolveRow(i, &row)) {
      return kInvalidTx;
    }
    return connector_->Stamp(*row, accounts_, time);
  }

 private:
  bool ResolveRow(uint64_t i, std::optional<Transaction>* row);

  SimConnector* connector_;
  const Resource& accounts_;
  const DappWorkload& mix_;
  int contract_index_;
  FunctionMix functions_;
  std::vector<std::optional<Transaction>> rows_;
};

}  // namespace diablo

#endif  // SRC_CORE_CALL_TABLE_H_
