#include "src/vm/interpreter.h"

#include <algorithm>
#include <vector>

#include "src/support/profile.h"
#include "src/vm/opcode.h"

namespace diablo {
namespace {

constexpr size_t kMaxStackDepth = 1024;
constexpr size_t kMaxCallDepth = 64;
constexpr size_t kMaxMemoryWords = 4096;
// Absolute safety net against non-terminating programs on unlimited-budget
// dialects; far above any legitimate contract in this suite.
constexpr int64_t kMaxOps = 100'000'000;

// Little-endian immediate; an 8-byte one is a full two's-complement word,
// narrower ones are unsigned.
int64_t ReadImmediate(const std::vector<uint8_t>& code, size_t pc, int width) {
  uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    value |= static_cast<uint64_t>(code[pc + static_cast<size_t>(i)]) << (8 * i);
  }
  return static_cast<int64_t>(value);
}

// Add, sub and mul wrap in two's complement; computing them in uint64_t
// keeps the overflow defined.
int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}
int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) - static_cast<uint64_t>(b));
}
int64_t WrappingMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
}

// Signed division and remainder as the EVM's SDIV and SMOD define them:
// INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0, where the hardware
// instruction would trap. The caller has rejected a zero divisor.
int64_t SignedDiv(int64_t a, int64_t b) { return b == -1 ? WrappingSub(0, a) : a / b; }
int64_t SignedMod(int64_t a, int64_t b) { return b == -1 ? 0 : a % b; }

struct WordWrite {
  uint64_t key;
  int64_t value;
};

struct BlobWrite {
  uint64_t key;
  int64_t bytes;
};

}  // namespace

std::string_view VmStatusName(VmStatus status) {
  switch (status) {
    case VmStatus::kOk:
      return "ok";
    case VmStatus::kReverted:
      return "reverted";
    case VmStatus::kOutOfGas:
      return "out of gas";
    case VmStatus::kBudgetExceeded:
      return "budget exceeded";
    case VmStatus::kStateLimitExceeded:
      return "state limit exceeded";
    case VmStatus::kStackUnderflow:
      return "stack underflow";
    case VmStatus::kStackOverflow:
      return "stack overflow";
    case VmStatus::kInvalidJump:
      return "invalid jump";
    case VmStatus::kInvalidOpcode:
      return "invalid opcode";
    case VmStatus::kDivisionByZero:
      return "division by zero";
    case VmStatus::kNoSuchFunction:
      return "no such function";
  }
  return "?";
}

namespace {

// Decodes each instruction from the byte stream as it executes, so a jump
// into the middle of an immediate runs those bytes as instructions.
ExecResult Interpret(const ExecRequest& request) {
  const DialectLimits& limits = LimitsOf(request.dialect);
  ExecResult result;
  result.gas_used = limits.intrinsic_gas;

  const int64_t entry =
      request.entry >= 0 ? request.entry : request.program->EntryOf(request.function);
  if (entry < 0) {
    result.status = VmStatus::kNoSuchFunction;
    return result;
  }

  const std::vector<uint8_t>& code = request.program->code;
  std::vector<int64_t> stack;
  stack.reserve(64);
  std::vector<size_t> call_stack;
  std::vector<int64_t> memory;  // transient per-call scratch, lazily grown
  std::vector<WordWrite> word_journal;
  std::vector<BlobWrite> blob_journal;
  // Reads must observe earlier writes of the same call; the journal is
  // scanned backwards (it is short for every contract in this suite).
  auto journaled_load = [&](uint64_t key) -> int64_t {
    for (auto it = word_journal.rbegin(); it != word_journal.rend(); ++it) {
      if (it->key == key) {
        return it->value;
      }
    }
    return request.state != nullptr ? request.state->Load(key) : 0;
  };

  auto fail = [&](VmStatus status) {
    result.status = status;
    return result;
  };
  // Adds `amount` to the gas used. When the sum does not fit in int64 the
  // gas saturates at INT64_MAX, so it never decreases, and this returns
  // false: the call is out of gas.
  auto charge = [&](int64_t amount) {
    if (__builtin_add_overflow(result.gas_used, amount, &result.gas_used)) {
      result.gas_used = INT64_MAX;
      return false;
    }
    return true;
  };

  size_t pc = static_cast<size_t>(entry);
  while (true) {
    if (pc >= code.size()) {
      // Falling off the end is a clean stop.
      break;
    }
    const Opcode op = static_cast<Opcode>(code[pc]);
    if (static_cast<uint8_t>(op) >= static_cast<uint8_t>(Opcode::kOpcodeCount)) {
      return fail(VmStatus::kInvalidOpcode);
    }
    const int width = ImmediateWidth(op);
    if (pc + 1 + static_cast<size_t>(width) > code.size()) {
      return fail(VmStatus::kInvalidOpcode);
    }

    ++result.ops_executed;
    if (!charge(OpcodeGas(op))) {
      return fail(VmStatus::kOutOfGas);
    }
    if (limits.op_budget > 0 && result.ops_executed > limits.op_budget) {
      return fail(VmStatus::kBudgetExceeded);
    }
    if (limits.gas_budget > 0 && result.gas_used > limits.gas_budget) {
      return fail(VmStatus::kBudgetExceeded);
    }
    if (request.gas_limit > 0 && result.gas_used > request.gas_limit) {
      return fail(VmStatus::kOutOfGas);
    }
    if (result.ops_executed > kMaxOps) {
      return fail(VmStatus::kBudgetExceeded);
    }

    const int64_t imm = width > 0 ? ReadImmediate(code, pc + 1, width) : 0;
    size_t next_pc = pc + 1 + static_cast<size_t>(width);

    auto need = [&](size_t n) { return stack.size() >= n; };
    auto binary_op = [&](auto fn) -> bool {
      if (!need(2)) {
        return false;
      }
      const int64_t rhs = stack.back();
      stack.pop_back();
      stack.back() = fn(stack.back(), rhs);
      return true;
    };

    switch (op) {
      case Opcode::kStop:
        goto done;
      case Opcode::kPush:
        if (stack.size() >= kMaxStackDepth) {
          return fail(VmStatus::kStackOverflow);
        }
        stack.push_back(imm);
        break;
      case Opcode::kPop:
        if (!need(1)) {
          return fail(VmStatus::kStackUnderflow);
        }
        stack.pop_back();
        break;
      case Opcode::kDup: {
        const size_t depth = static_cast<size_t>(imm);
        if (!need(depth + 1)) {
          return fail(VmStatus::kStackUnderflow);
        }
        if (stack.size() >= kMaxStackDepth) {
          return fail(VmStatus::kStackOverflow);
        }
        stack.push_back(stack[stack.size() - 1 - depth]);
        break;
      }
      case Opcode::kSwap: {
        const size_t depth = static_cast<size_t>(imm);
        if (depth == 0 || !need(depth + 1)) {
          return fail(VmStatus::kStackUnderflow);
        }
        std::swap(stack.back(), stack[stack.size() - 1 - depth]);
        break;
      }
      case Opcode::kAdd:
        if (!binary_op([](int64_t a, int64_t b) { return WrappingAdd(a, b); })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kSub:
        if (!binary_op([](int64_t a, int64_t b) { return WrappingSub(a, b); })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kMul:
        if (!binary_op([](int64_t a, int64_t b) { return WrappingMul(a, b); })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kDiv:
        if (!need(2)) {
          return fail(VmStatus::kStackUnderflow);
        }
        if (stack.back() == 0) {
          return fail(VmStatus::kDivisionByZero);
        }
        binary_op([](int64_t a, int64_t b) { return SignedDiv(a, b); });
        break;
      case Opcode::kMod:
        if (!need(2)) {
          return fail(VmStatus::kStackUnderflow);
        }
        if (stack.back() == 0) {
          return fail(VmStatus::kDivisionByZero);
        }
        binary_op([](int64_t a, int64_t b) { return SignedMod(a, b); });
        break;
      case Opcode::kLt:
        if (!binary_op([](int64_t a, int64_t b) { return static_cast<int64_t>(a < b); })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kGt:
        if (!binary_op([](int64_t a, int64_t b) { return static_cast<int64_t>(a > b); })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kLe:
        if (!binary_op([](int64_t a, int64_t b) { return static_cast<int64_t>(a <= b); })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kGe:
        if (!binary_op([](int64_t a, int64_t b) { return static_cast<int64_t>(a >= b); })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kEq:
        if (!binary_op([](int64_t a, int64_t b) { return static_cast<int64_t>(a == b); })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kNeq:
        if (!binary_op([](int64_t a, int64_t b) { return static_cast<int64_t>(a != b); })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kNot:
        if (!need(1)) {
          return fail(VmStatus::kStackUnderflow);
        }
        stack.back() = stack.back() == 0 ? 1 : 0;
        break;
      case Opcode::kAnd:
        if (!binary_op([](int64_t a, int64_t b) {
              return static_cast<int64_t>(a != 0 && b != 0);
            })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kOr:
        if (!binary_op([](int64_t a, int64_t b) {
              return static_cast<int64_t>(a != 0 || b != 0);
            })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kShl:
        if (!binary_op([](int64_t a, int64_t b) {
              return b < 0 || b > 63 ? 0 : static_cast<int64_t>(static_cast<uint64_t>(a) << b);
            })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kShr:
        if (!binary_op([](int64_t a, int64_t b) {
              return b < 0 || b > 63 ? 0 : static_cast<int64_t>(static_cast<uint64_t>(a) >> b);
            })) {
          return fail(VmStatus::kStackUnderflow);
        }
        break;
      case Opcode::kJump:
        if (static_cast<size_t>(imm) > code.size()) {
          return fail(VmStatus::kInvalidJump);
        }
        next_pc = static_cast<size_t>(imm);
        break;
      case Opcode::kJumpI: {
        if (!need(1)) {
          return fail(VmStatus::kStackUnderflow);
        }
        const int64_t condition = stack.back();
        stack.pop_back();
        if (condition != 0) {
          if (static_cast<size_t>(imm) > code.size()) {
            return fail(VmStatus::kInvalidJump);
          }
          next_pc = static_cast<size_t>(imm);
        }
        break;
      }
      case Opcode::kSload: {
        if (!need(1)) {
          return fail(VmStatus::kStackUnderflow);
        }
        const uint64_t key = static_cast<uint64_t>(stack.back());
        stack.back() = journaled_load(key);
        break;
      }
      case Opcode::kSstore: {
        if (!need(2)) {
          return fail(VmStatus::kStackUnderflow);
        }
        const int64_t value = stack.back();
        stack.pop_back();
        const uint64_t key = static_cast<uint64_t>(stack.back());
        stack.pop_back();
        word_journal.push_back(WordWrite{key, value});
        break;
      }
      case Opcode::kSstoreBytes: {
        if (!need(2)) {
          return fail(VmStatus::kStackUnderflow);
        }
        const int64_t bytes = stack.back();
        stack.pop_back();
        const uint64_t key = static_cast<uint64_t>(stack.back());
        stack.pop_back();
        if (limits.max_kv_bytes > 0 && bytes > limits.max_kv_bytes) {
          return fail(VmStatus::kStateLimitExceeded);
        }
        // A surcharge that does not fit in int64 is out of gas, never a wrap.
        int64_t surcharge = 0;
        if (__builtin_mul_overflow(kGasPerStoredByte, bytes < 0 ? 0 : bytes, &surcharge) ||
            !charge(surcharge)) {
          result.gas_used = INT64_MAX;
          return fail(VmStatus::kOutOfGas);
        }
        if (limits.gas_budget > 0 && result.gas_used > limits.gas_budget) {
          return fail(VmStatus::kBudgetExceeded);
        }
        if (request.gas_limit > 0 && result.gas_used > request.gas_limit) {
          return fail(VmStatus::kOutOfGas);
        }
        blob_journal.push_back(BlobWrite{key, bytes});
        break;
      }
      case Opcode::kCaller:
        if (stack.size() >= kMaxStackDepth) {
          return fail(VmStatus::kStackOverflow);
        }
        stack.push_back(static_cast<int64_t>(request.caller));
        break;
      case Opcode::kArg: {
        const size_t index = static_cast<size_t>(imm);
        if (stack.size() >= kMaxStackDepth) {
          return fail(VmStatus::kStackOverflow);
        }
        stack.push_back(index < request.args.size() ? request.args[index] : 0);
        break;
      }
      case Opcode::kArgCount:
        if (stack.size() >= kMaxStackDepth) {
          return fail(VmStatus::kStackOverflow);
        }
        stack.push_back(static_cast<int64_t>(request.args.size()));
        break;
      case Opcode::kEmit: {
        const size_t values = static_cast<size_t>(imm);
        if (!need(values)) {
          return fail(VmStatus::kStackUnderflow);
        }
        stack.resize(stack.size() - values);
        if (!charge(kGasPerEmittedValue * static_cast<int64_t>(values))) {
          return fail(VmStatus::kOutOfGas);
        }
        ++result.events_emitted;
        break;
      }
      case Opcode::kReturn:
        if (!need(1)) {
          return fail(VmStatus::kStackUnderflow);
        }
        result.return_value = stack.back();
        goto done;
      case Opcode::kRevert:
        return fail(VmStatus::kReverted);
      case Opcode::kCall:
        if (static_cast<size_t>(imm) > code.size()) {
          return fail(VmStatus::kInvalidJump);
        }
        if (call_stack.size() >= kMaxCallDepth) {
          return fail(VmStatus::kStackOverflow);
        }
        call_stack.push_back(next_pc);
        next_pc = static_cast<size_t>(imm);
        break;
      case Opcode::kRet:
        if (call_stack.empty()) {
          return fail(VmStatus::kStackUnderflow);
        }
        next_pc = call_stack.back();
        call_stack.pop_back();
        break;
      case Opcode::kMload: {
        if (!need(1)) {
          return fail(VmStatus::kStackUnderflow);
        }
        const uint64_t address = static_cast<uint64_t>(stack.back());
        if (address >= kMaxMemoryWords) {
          return fail(VmStatus::kInvalidJump);
        }
        stack.back() = address < memory.size() ? memory[address] : 0;
        break;
      }
      case Opcode::kMstore: {
        if (!need(2)) {
          return fail(VmStatus::kStackUnderflow);
        }
        const int64_t value = stack.back();
        stack.pop_back();
        const uint64_t address = static_cast<uint64_t>(stack.back());
        stack.pop_back();
        if (address >= kMaxMemoryWords) {
          return fail(VmStatus::kInvalidJump);
        }
        if (address >= memory.size()) {
          memory.resize(address + 1, 0);
        }
        memory[address] = value;
        break;
      }
      case Opcode::kOpcodeCount:
        return fail(VmStatus::kInvalidOpcode);
    }
    pc = next_pc;
  }

done:
  if (request.state != nullptr) {
    for (const WordWrite& write : word_journal) {
      request.state->Store(write.key, write.value);
    }
    for (const BlobWrite& write : blob_journal) {
      request.state->StoreBytes(write.key, write.bytes, limits.max_kv_bytes);
    }
  }
  return result;
}

}  // namespace

ExecResult Execute(const ExecRequest& request) {
  ExecResult result = Interpret(request);
  profile::AddVmOps(static_cast<uint64_t>(result.ops_executed));
  return result;
}

}  // namespace diablo
