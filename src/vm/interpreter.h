// Bytecode interpreter with gas metering and dialect budget enforcement.
//
// State writes are journaled and applied only on success, so reverts and
// budget failures leave storage untouched (transaction semantics).
//
// Every integer input has a defined result: add, sub and mul wrap in two's
// complement; INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0, as the
// EVM's SDIV and SMOD define them; a charge that would take gas past
// INT64_MAX fails the call out of gas with gas saturated there, so gas never
// decreases.
#ifndef SRC_VM_INTERPRETER_H_
#define SRC_VM_INTERPRETER_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "src/vm/dialect.h"
#include "src/vm/program.h"
#include "src/vm/state.h"

namespace diablo {

enum class VmStatus : uint8_t {
  kOk = 0,
  kReverted,            // contract-initiated revert
  kOutOfGas,            // exhausted the caller-supplied gas limit
  kBudgetExceeded,      // dialect hard cap hit — the paper's "budget exceeded"
  kStateLimitExceeded,  // key-value entry over the dialect's size limit
  kStackUnderflow,
  kStackOverflow,
  kInvalidJump,
  kInvalidOpcode,
  kDivisionByZero,
  kNoSuchFunction,
};

std::string_view VmStatusName(VmStatus status);

// Statuses that terminate the call but still consume the gas spent so far.
constexpr bool IsFailure(VmStatus status) { return status != VmStatus::kOk; }

struct ExecResult {
  VmStatus status = VmStatus::kOk;
  int64_t gas_used = 0;    // includes intrinsic gas
  int64_t ops_executed = 0;
  int64_t return_value = 0;
  int events_emitted = 0;
};

struct ExecRequest {
  const Program* program = nullptr;
  std::string_view function;
  // Pre-resolved entry offset of `function` (see Program::EntryOf). Callers
  // that dispatch repeatedly — the cost oracle — resolve the offset once and
  // set it here; when negative, Execute resolves by name (the convenient
  // form for tests and one-shot calls).
  int64_t entry = -1;
  std::span<const int64_t> args;
  uint64_t caller = 0;
  ContractState* state = nullptr;  // may be null for pure calls
  VmDialect dialect = VmDialect::kGeth;
  // Caller-supplied gas limit (e.g. remaining block gas); 0 = unlimited.
  int64_t gas_limit = 0;
};

ExecResult Execute(const ExecRequest& request);

}  // namespace diablo

#endif  // SRC_VM_INTERPRETER_H_
