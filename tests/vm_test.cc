#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/support/strings.h"
#include "src/vm/assembler.h"
#include "src/vm/dialect.h"
#include "src/vm/interpreter.h"
#include "src/vm/opcode.h"
#include "src/vm/state.h"

namespace diablo {
namespace {

ExecResult RunVm(const Program& program, std::string_view function,
               std::vector<int64_t> args = {}, ContractState* state = nullptr,
               VmDialect dialect = VmDialect::kGeth, int64_t gas_limit = 0) {
  ExecRequest request;
  request.program = &program;
  request.function = function;
  request.args = args;
  request.caller = 777;
  request.state = state;
  request.dialect = dialect;
  request.gas_limit = gas_limit;
  return Execute(request);
}

Program MustAssemble(std::string_view source) {
  AssembleResult result = Assemble("test", source);
  EXPECT_TRUE(result.ok) << result.error;
  return result.program;
}

TEST(OpcodeTest, NamesRoundTrip) {
  for (int i = 0; i < static_cast<int>(Opcode::kOpcodeCount); ++i) {
    const Opcode op = static_cast<Opcode>(i);
    Opcode parsed;
    ASSERT_FALSE(OpcodeName(op).empty());
    ASSERT_TRUE(ParseOpcode(OpcodeName(op), &parsed));
    EXPECT_EQ(parsed, op);
  }
  Opcode dummy;
  EXPECT_FALSE(ParseOpcode("frobnicate", &dummy));
}

TEST(OpcodeTest, StorageOpsCostMoreThanArithmetic) {
  EXPECT_GT(OpcodeGas(Opcode::kSstore), 100 * OpcodeGas(Opcode::kAdd));
  EXPECT_GT(OpcodeGas(Opcode::kSload), 10 * OpcodeGas(Opcode::kAdd));
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  AssembleResult result = Assemble("bad", "push 1\nbogus\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 2"), std::string::npos);

  result = Assemble("bad", ".func f\n  jump nowhere\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("nowhere"), std::string::npos);

  result = Assemble("bad", "push\n");
  EXPECT_FALSE(result.ok);

  result = Assemble("bad", "pop 3\n");
  EXPECT_FALSE(result.ok);

  result = Assemble("bad", "x:\nx:\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("duplicate"), std::string::npos);

  result = Assemble("bad", ".func dangling\n");
  EXPECT_FALSE(result.ok);
}

TEST(AssemblerTest, CommentsAndBlankLines) {
  const Program program = MustAssemble(R"(
; full line comment
.func main
  push 5   ; trailing comment
  return
)");
  EXPECT_EQ(RunVm(program, "main").return_value, 5);
}

TEST(AssemblerTest, DisassembleShowsFunctionsAndImmediates) {
  const Program program = MustAssemble(".func main\n  push 42\n  return\n");
  const std::string text = Disassemble(program);
  EXPECT_NE(text.find(".func main"), std::string::npos);
  EXPECT_NE(text.find("push 42"), std::string::npos);
}


TEST(AssemblerTest, FunctionNamesAreCallTargets) {
  const Program program = MustAssemble(R"(
.func helper
  push 21
  push 2
  mul
  ret
.func main
  call helper
  return
)");
  EXPECT_EQ(RunVm(program, "main").return_value, 42);
}

TEST(InterpreterTest, PreResolvedEntryMatchesNameDispatch) {
  const Program program = MustAssemble(R"(
.func other
  push 1
  return
.func main
  push 42
  return
)");
  const ExecResult by_name = RunVm(program, "main");
  ASSERT_EQ(by_name.status, VmStatus::kOk);

  ExecRequest request;
  request.program = &program;
  request.function = "main";
  request.entry = program.EntryOf("main");
  request.caller = 777;
  const ExecResult by_entry = Execute(request);
  EXPECT_EQ(by_entry.status, by_name.status);
  EXPECT_EQ(by_entry.return_value, by_name.return_value);
  EXPECT_EQ(by_entry.gas_used, by_name.gas_used);

  // A bogus name with a valid pre-resolved entry must still run: the offset
  // wins, the name is informational.
  request.function = "no-such-function";
  EXPECT_EQ(Execute(request).return_value, by_name.return_value);
}

TEST(InterpreterTest, Arithmetic) {
  const Program program = MustAssemble(R"(
.func main
  push 7
  push 3
  sub       ; 4
  push 5
  mul       ; 20
  push 6
  div       ; 3
  push 2
  mod       ; 1
  push 41
  add
  return
)");
  const ExecResult result = RunVm(program, "main");
  EXPECT_EQ(result.status, VmStatus::kOk);
  EXPECT_EQ(result.return_value, 42);
}

TEST(InterpreterTest, Comparisons) {
  const Program program = MustAssemble(R"(
.func main
  push 2
  push 3
  lt        ; 1
  push 3
  push 3
  le        ; 1
  and       ; 1
  push 5
  push 4
  gt        ; 1
  and
  push 4
  push 4
  ge
  and
  push 1
  push 2
  neq
  and
  push 9
  push 9
  eq
  and
  return
)");
  EXPECT_EQ(RunVm(program, "main").return_value, 1);
}

TEST(InterpreterTest, ShiftAndLogic) {
  const Program program = MustAssemble(R"(
.func main
  push 1
  push 6
  shl       ; 64
  push 2
  shr       ; 16
  push 0
  not       ; 1
  mul       ; 16
  return
)");
  EXPECT_EQ(RunVm(program, "main").return_value, 16);
}

TEST(InterpreterTest, LoopComputesSum) {
  // sum of 1..10 = 55
  const Program program = MustAssemble(R"(
.func main
  push 0    ; sum
  push 1    ; i
loop:
  dup 0
  push 10
  le
  jumpi body
  pop
  return
body:
  dup 0     ; [sum, i, i]
  swap 2    ; [i, i, sum]
  add       ; [i, sum']
  swap 1    ; [sum', i]
  push 1
  add
  jump loop
)");
  const ExecResult result = RunVm(program, "main");
  EXPECT_EQ(result.status, VmStatus::kOk);
  EXPECT_EQ(result.return_value, 55);
}

TEST(InterpreterTest, StatePersistsAcrossCalls) {
  const Program program = MustAssemble(R"(
.func bump
  push 9
  dup 0
  sload
  push 1
  add
  sstore
  stop
.func read
  push 9
  sload
  return
)");
  ContractState state;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(RunVm(program, "bump", {}, &state).status, VmStatus::kOk);
  }
  EXPECT_EQ(RunVm(program, "read", {}, &state).return_value, 3);
}

TEST(InterpreterTest, RevertDiscardsWrites) {
  const Program program = MustAssemble(R"(
.func failing
  push 9
  push 123
  sstore
  revert
)");
  ContractState state;
  const ExecResult result = RunVm(program, "failing", {}, &state);
  EXPECT_EQ(result.status, VmStatus::kReverted);
  EXPECT_EQ(state.Load(9), 0);
}

TEST(InterpreterTest, ReadsObserveOwnWrites) {
  const Program program = MustAssemble(R"(
.func main
  push 5
  push 11
  sstore
  push 5
  sload
  return
)");
  ContractState state;
  const ExecResult result = RunVm(program, "main", {}, &state);
  EXPECT_EQ(result.return_value, 11);
  EXPECT_EQ(state.Load(5), 11);
}

TEST(InterpreterTest, ArgsAndCaller) {
  const Program program = MustAssemble(R"(
.func main
  arg 0
  arg 1
  add
  caller
  add
  argcount
  add
  return
)");
  const ExecResult result = RunVm(program, "main", {10, 20});
  EXPECT_EQ(result.return_value, 10 + 20 + 777 + 2);
  // Missing args read as zero.
  EXPECT_EQ(RunVm(program, "main", {}).return_value, 777);
}

TEST(InterpreterTest, EventsCounted) {
  const Program program = MustAssemble(R"(
.func main
  push 1
  push 2
  emit 2
  push 3
  emit 1
  stop
)");
  const ExecResult result = RunVm(program, "main");
  EXPECT_EQ(result.status, VmStatus::kOk);
  EXPECT_EQ(result.events_emitted, 2);
}

TEST(InterpreterTest, SubroutinesCallAndReturn) {
  // A shared "double" subroutine called twice: f(x) = 4x.
  const Program program = MustAssemble(R"(
.func main
  arg 0
  call double
  call double
  return
double:
  push 2
  mul
  ret
)");
  const ExecResult result = RunVm(program, "main", {5});
  EXPECT_EQ(result.status, VmStatus::kOk);
  EXPECT_EQ(result.return_value, 20);
}

TEST(InterpreterTest, NestedCallsAndDepthLimit) {
  const Program nested = MustAssemble(R"(
.func main
  push 1
  call a
  return
a:
  call b
  ret
b:
  push 10
  add
  ret
)");
  EXPECT_EQ(RunVm(nested, "main").return_value, 11);

  // Unbounded recursion trips the call-depth limit, not the host stack.
  const Program recursive = MustAssemble(R"(
.func main
  call main
  stop
)");
  EXPECT_EQ(RunVm(recursive, "main").status, VmStatus::kStackOverflow);
}

TEST(InterpreterTest, RetWithoutCallFails) {
  EXPECT_EQ(RunVm(MustAssemble(".func f\n  ret\n"), "f").status,
            VmStatus::kStackUnderflow);
}

TEST(InterpreterTest, TransientMemory) {
  const Program program = MustAssemble(R"(
.func main
  push 7      ; mem[7] = 41
  push 41
  mstore
  push 7
  mload
  push 1
  add
  push 99     ; unset address reads as zero
  mload
  add
  return
)");
  const ExecResult result = RunVm(program, "main");
  EXPECT_EQ(result.status, VmStatus::kOk);
  EXPECT_EQ(result.return_value, 42);
}

TEST(InterpreterTest, MemoryBoundsEnforced) {
  const Program program = MustAssemble(R"(
.func f
  push 100000
  push 1
  mstore
  stop
)");
  EXPECT_EQ(RunVm(program, "f").status, VmStatus::kInvalidJump);
}

TEST(InterpreterTest, MemoryIsTransientAcrossCalls) {
  const Program program = MustAssemble(R"(
.func write
  push 0
  push 123
  mstore
  stop
.func read
  push 0
  mload
  return
)");
  ContractState state;
  EXPECT_EQ(RunVm(program, "write", {}, &state).status, VmStatus::kOk);
  // A fresh call sees fresh memory (unlike SSTORE state).
  EXPECT_EQ(RunVm(program, "read", {}, &state).return_value, 0);
}

TEST(InterpreterTest, ErrorsDetected) {
  EXPECT_EQ(RunVm(MustAssemble(".func f\n  pop\n"), "f").status, VmStatus::kStackUnderflow);
  EXPECT_EQ(RunVm(MustAssemble(".func f\n  push 1\n  push 0\n  div\n"), "f").status,
            VmStatus::kDivisionByZero);
  EXPECT_EQ(RunVm(MustAssemble(".func f\n  push 1\n  push 0\n  mod\n"), "f").status,
            VmStatus::kDivisionByZero);
  EXPECT_EQ(RunVm(MustAssemble(".func f\n  stop\n"), "nope").status,
            VmStatus::kNoSuchFunction);
  EXPECT_EQ(RunVm(MustAssemble(".func f\n  dup 5\n"), "f").status,
            VmStatus::kStackUnderflow);
}

TEST(InterpreterTest, StackOverflowDetected) {
  const Program program = MustAssemble(R"(
.func f
loop:
  push 1
  jump loop
)");
  EXPECT_EQ(RunVm(program, "f").status, VmStatus::kStackOverflow);
}

TEST(InterpreterTest, GasLimitEnforced) {
  const Program program = MustAssemble(R"(
.func f
loop:
  push 1
  pop
  jump loop
)");
  const ExecResult result = RunVm(program, "f", {}, nullptr, VmDialect::kGeth,
                                /*gas_limit=*/25000);
  EXPECT_EQ(result.status, VmStatus::kOutOfGas);
  EXPECT_LE(result.gas_used, 25000 + 20);
}

TEST(InterpreterTest, IntrinsicGasCharged) {
  const Program program = MustAssemble(".func f\n  stop\n");
  const ExecResult result = RunVm(program, "f");
  EXPECT_EQ(result.gas_used, LimitsOf(VmDialect::kGeth).intrinsic_gas);
}

TEST(DialectTest, AvmOpBudget) {
  // A loop of ~4 ops per iteration blows the 700-op AVM budget but runs
  // fine on geth.
  const Program program = MustAssemble(R"(
.func f
  push 0
loop:
  push 1
  add
  dup 0
  push 300
  lt
  jumpi loop
  return
)");
  EXPECT_EQ(RunVm(program, "f", {}, nullptr, VmDialect::kGeth).status, VmStatus::kOk);
  EXPECT_EQ(RunVm(program, "f", {}, nullptr, VmDialect::kAvm).status,
            VmStatus::kBudgetExceeded);
}

TEST(DialectTest, GasBudgetsHardCapped) {
  // 80 sstores ~= 164k gas: over MoveVM's 150k budget, under eBPF's 200k.
  const Program program = MustAssemble(R"(
.func f
  push 0
loop:
  dup 0
  dup 0
  sstore
  push 1
  add
  dup 0
  push 80
  lt
  jumpi loop
  stop
)");
  ContractState state;
  EXPECT_EQ(RunVm(program, "f", {}, &state, VmDialect::kMoveVm).status,
            VmStatus::kBudgetExceeded);
  EXPECT_EQ(RunVm(program, "f", {}, &state, VmDialect::kEbpf).status, VmStatus::kOk);
  EXPECT_EQ(RunVm(program, "f", {}, &state, VmDialect::kGeth).status, VmStatus::kOk);
}

TEST(DialectTest, AvmStateEntryLimit) {
  const Program program = MustAssemble(R"(
.func f
  push 40
  arg 0
  sstoreb
  stop
)");
  ContractState state;
  // 100 bytes fit in AVM's 128-byte entries; 1024 do not.
  EXPECT_EQ(RunVm(program, "f", {100}, &state, VmDialect::kAvm).status, VmStatus::kOk);
  EXPECT_EQ(RunVm(program, "f", {1024}, &state, VmDialect::kAvm).status,
            VmStatus::kStateLimitExceeded);
  EXPECT_EQ(RunVm(program, "f", {1024}, &state, VmDialect::kGeth).status, VmStatus::kOk);
  EXPECT_EQ(state.BlobSize(40), 1024);
}

TEST(DialectTest, StoredBytesCostGas) {
  const Program program = MustAssemble(R"(
.func f
  push 40
  arg 0
  sstoreb
  stop
)");
  ContractState s1;
  ContractState s2;
  const ExecResult small = RunVm(program, "f", {10}, &s1);
  const ExecResult large = RunVm(program, "f", {1000}, &s2);
  EXPECT_EQ(large.gas_used - small.gas_used, kGasPerStoredByte * 990);
}

TEST(DialectTest, Registry) {
  EXPECT_EQ(DialectName(VmDialect::kGeth), "geth");
  EXPECT_EQ(DialectName(VmDialect::kAvm), "avm");
  EXPECT_EQ(DialectName(VmDialect::kMoveVm), "movevm");
  EXPECT_EQ(DialectName(VmDialect::kEbpf), "ebpf");
  EXPECT_EQ(LimitsOf(VmDialect::kGeth).gas_budget, 0);
  EXPECT_EQ(LimitsOf(VmDialect::kAvm).op_budget, 700);
  EXPECT_EQ(LimitsOf(VmDialect::kAvm).max_kv_bytes, 128);
  EXPECT_EQ(LimitsOf(VmDialect::kEbpf).gas_budget, 200000);
}

TEST(StateTest, Basics) {
  ContractState state;
  EXPECT_EQ(state.Load(1), 0);
  state.Store(1, 5);
  state.Store(1, 6);
  EXPECT_EQ(state.Load(1), 6);
  EXPECT_TRUE(state.StoreBytes(2, 100, 0));
  EXPECT_FALSE(state.StoreBytes(3, 200, 128));
  EXPECT_EQ(state.BlobSize(3), 0);
  EXPECT_EQ(state.entry_count(), 2u);
  EXPECT_EQ(state.total_blob_bytes(), 100);
  EXPECT_TRUE(state.StoreBytes(2, 50, 0));
  EXPECT_EQ(state.total_blob_bytes(), 50);
}

TEST(VmStatusTest, Names) {
  EXPECT_EQ(VmStatusName(VmStatus::kOk), "ok");
  EXPECT_EQ(VmStatusName(VmStatus::kBudgetExceeded), "budget exceeded");
  EXPECT_FALSE(IsFailure(VmStatus::kOk));
  EXPECT_TRUE(IsFailure(VmStatus::kReverted));
}

// --- semantics locks for the dispatch loop ----------------------------------
// These pin edge-case behaviour of the interpreter — check ordering, failure
// statuses, exact gas/op accounting, integer edge cases, and the
// self-modifying-control-flow quirks raw bytecode can reach — as fixed
// expectations, so any rewrite of the dispatch loop must reproduce them bit
// for bit.

Program RawProgram(std::vector<uint8_t> code) {
  Program program;
  program.name = "raw";
  program.code = std::move(code);
  program.functions.push_back(FunctionEntry{"main", 0});
  return program;
}

constexpr uint8_t Raw(Opcode op) { return static_cast<uint8_t>(op); }

TEST(VmSemanticsLock, DivModCheckUnderflowBeforeZeroDivisor) {
  // With one element the need(2) check fires before the zero-divisor check.
  EXPECT_EQ(RunVm(MustAssemble(".func f\n  push 0\n  div\n"), "f").status,
            VmStatus::kStackUnderflow);
  EXPECT_EQ(RunVm(MustAssemble(".func f\n  push 0\n  mod\n"), "f").status,
            VmStatus::kStackUnderflow);
  const ExecResult div0 = RunVm(MustAssemble(".func f\n  push 1\n  push 0\n  div\n"), "f");
  EXPECT_EQ(div0.status, VmStatus::kDivisionByZero);
  EXPECT_EQ(div0.ops_executed, 3);
  EXPECT_EQ(div0.gas_used, LimitsOf(VmDialect::kGeth).intrinsic_gas +
                               2 * OpcodeGas(Opcode::kPush) + OpcodeGas(Opcode::kDiv));
}

TEST(VmSemanticsLock, FailingOpStillChargesGasAndOps) {
  // Gas and op accounting happen before the operation executes, so a failing
  // op is itself charged.
  const ExecResult result = RunVm(MustAssemble(".func f\n  pop\n"), "f");
  EXPECT_EQ(result.status, VmStatus::kStackUnderflow);
  EXPECT_EQ(result.ops_executed, 1);
  EXPECT_EQ(result.gas_used,
            LimitsOf(VmDialect::kGeth).intrinsic_gas + OpcodeGas(Opcode::kPop));
}

TEST(VmSemanticsLock, JumpToCodeSizeIsCleanStopBeyondIsInvalid) {
  // push 5; jump <target>  — 14 code bytes total. Target == code.size() is a
  // legal jump that falls off the end (clean stop); one past is invalid.
  std::vector<uint8_t> code = {Raw(Opcode::kPush), 5, 0, 0, 0, 0, 0, 0, 0,
                               Raw(Opcode::kJump), 14, 0, 0, 0};
  const ExecResult off_end = RunVm(RawProgram(code), "main");
  EXPECT_EQ(off_end.status, VmStatus::kOk);
  EXPECT_EQ(off_end.return_value, 0);  // never reached a return
  EXPECT_EQ(off_end.ops_executed, 2);
  EXPECT_EQ(off_end.gas_used, LimitsOf(VmDialect::kGeth).intrinsic_gas +
                                  OpcodeGas(Opcode::kPush) + OpcodeGas(Opcode::kJump));
  code[10] = 15;
  EXPECT_EQ(RunVm(RawProgram(code), "main").status, VmStatus::kInvalidJump);
}

TEST(VmSemanticsLock, JumpIValidatesTargetOnlyWhenTaken) {
  // push c; jumpi 255 — the wild target only matters when the branch fires.
  std::vector<uint8_t> code = {Raw(Opcode::kPush), 0, 0, 0, 0, 0, 0, 0, 0,
                               Raw(Opcode::kJumpI), 255, 0, 0, 0};
  EXPECT_EQ(RunVm(RawProgram(code), "main").status, VmStatus::kOk);
  code[1] = 1;
  EXPECT_EQ(RunVm(RawProgram(code), "main").status, VmStatus::kInvalidJump);
}

TEST(VmSemanticsLock, MisalignedJumpReinterpretsImmediateBytes) {
  // Jumping into the middle of a push immediate re-decodes those bytes as
  // instructions: byte 1 (the immediate's LSB, 30) is kReturn, which returns
  // the previously pushed value.
  ASSERT_EQ(static_cast<uint8_t>(Opcode::kReturn), 30);
  const std::vector<uint8_t> code = {Raw(Opcode::kPush), 30, 0, 0, 0, 0, 0, 0, 0,
                                     Raw(Opcode::kJump), 1, 0, 0, 0};
  const ExecResult result = RunVm(RawProgram(code), "main");
  EXPECT_EQ(result.status, VmStatus::kOk);
  EXPECT_EQ(result.return_value, 30);
  EXPECT_EQ(result.ops_executed, 3);
}

TEST(VmSemanticsLock, TruncatedImmediateAndUnknownOpcodeAreInvalid) {
  // A push with no immediate bytes, a jump with a short immediate, and an
  // out-of-range opcode byte all fail with kInvalidOpcode before executing.
  EXPECT_EQ(RunVm(RawProgram({Raw(Opcode::kPush)}), "main").status,
            VmStatus::kInvalidOpcode);
  EXPECT_EQ(RunVm(RawProgram({Raw(Opcode::kJump), 0}), "main").status,
            VmStatus::kInvalidOpcode);
  EXPECT_EQ(RunVm(RawProgram({200}), "main").status, VmStatus::kInvalidOpcode);
  // Decode failures are detected before accounting, so nothing is charged
  // beyond the intrinsic gas.
  const ExecResult result = RunVm(RawProgram({Raw(Opcode::kPush)}), "main");
  EXPECT_EQ(result.ops_executed, 0);
  EXPECT_EQ(result.gas_used, LimitsOf(VmDialect::kGeth).intrinsic_gas);
}

TEST(VmSemanticsLock, SstoreBytesGasAccounting) {
  const Program program = MustAssemble(R"(
.func f
  push 40
  arg 0
  sstoreb
  stop
)");
  const int64_t base = LimitsOf(VmDialect::kGeth).intrinsic_gas +
                       OpcodeGas(Opcode::kPush) + OpcodeGas(Opcode::kArg) +
                       OpcodeGas(Opcode::kSstoreBytes);
  ContractState state;
  const ExecResult ten = RunVm(program, "f", {10}, &state);
  EXPECT_EQ(ten.status, VmStatus::kOk);
  EXPECT_EQ(ten.gas_used, base + kGasPerStoredByte * 10);
  // Negative byte counts charge nothing per byte.
  const ExecResult negative = RunVm(program, "f", {-5}, &state);
  EXPECT_EQ(negative.status, VmStatus::kOk);
  EXPECT_EQ(negative.gas_used, base);
  // The per-byte surcharge is re-checked against the gas limit immediately:
  // a limit that covers the flat costs but not the bytes fails out-of-gas.
  const ExecResult capped = RunVm(program, "f", {1000}, &state, VmDialect::kGeth,
                                  /*gas_limit=*/base + kGasPerStoredByte * 1000 - 1);
  EXPECT_EQ(capped.status, VmStatus::kOutOfGas);
  EXPECT_EQ(capped.gas_used, base + kGasPerStoredByte * 1000);
}

TEST(VmSemanticsLock, MemoryAddressRangeBoundary) {
  // Addresses up to kMaxMemoryWords-1 read as zero; the first out-of-range
  // address fails with the (historical) kInvalidJump status.
  const Program program = MustAssemble(R"(
.func f
  arg 0
  mload
  return
)");
  const ExecResult in_range = RunVm(program, "f", {4095});
  EXPECT_EQ(in_range.status, VmStatus::kOk);
  EXPECT_EQ(in_range.return_value, 0);
  EXPECT_EQ(RunVm(program, "f", {4096}).status, VmStatus::kInvalidJump);
}

TEST(VmSemanticsLock, RawCallTargetsAndEmptyCode) {
  // call 3 lands on its own immediate's zero byte, which is kStop: a clean
  // stop after two ops. A target past the code end is an invalid jump.
  ASSERT_EQ(static_cast<uint8_t>(Opcode::kStop), 0);
  const int64_t intrinsic = LimitsOf(VmDialect::kGeth).intrinsic_gas;
  const ExecResult into_immediate = RunVm(RawProgram({Raw(Opcode::kCall), 3, 0, 0, 0}), "main");
  EXPECT_EQ(into_immediate.status, VmStatus::kOk);
  EXPECT_EQ(into_immediate.ops_executed, 2);
  EXPECT_EQ(into_immediate.gas_used,
            intrinsic + OpcodeGas(Opcode::kCall) + OpcodeGas(Opcode::kStop));
  const ExecResult past_end = RunVm(RawProgram({Raw(Opcode::kCall), 6, 0, 0, 0}), "main");
  EXPECT_EQ(past_end.status, VmStatus::kInvalidJump);
  EXPECT_EQ(past_end.ops_executed, 1);
  // Empty code falls off the end at once: nothing runs beyond intrinsic gas.
  const ExecResult empty = RunVm(RawProgram({}), "main");
  EXPECT_EQ(empty.status, VmStatus::kOk);
  EXPECT_EQ(empty.ops_executed, 0);
  EXPECT_EQ(empty.gas_used, intrinsic);
}

TEST(VmSemanticsLock, SignedDivisionOverflowFollowsEvm) {
  // INT64_MIN / -1 does not fit in int64. Like the EVM's SDIV and SMOD the
  // quotient wraps to INT64_MIN and the remainder is 0; the host division
  // would trap.
  const Program div = MustAssemble(".func f\n  arg 0\n  arg 1\n  div\n  return\n");
  const Program mod = MustAssemble(".func f\n  arg 0\n  arg 1\n  mod\n  return\n");
  const ExecResult quotient = RunVm(div, "f", {INT64_MIN, -1});
  EXPECT_EQ(quotient.status, VmStatus::kOk);
  EXPECT_EQ(quotient.return_value, INT64_MIN);
  const ExecResult remainder = RunVm(mod, "f", {INT64_MIN, -1});
  EXPECT_EQ(remainder.status, VmStatus::kOk);
  EXPECT_EQ(remainder.return_value, 0);
  // The same from raw bytes: push INT64_MIN; push -1; div|mod; return.
  for (const Opcode op : {Opcode::kDiv, Opcode::kMod}) {
    const ExecResult raw = RunVm(
        RawProgram({Raw(Opcode::kPush), 0, 0, 0, 0, 0, 0, 0, 0x80,
                    Raw(Opcode::kPush), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                    Raw(op), Raw(Opcode::kReturn)}),
        "main");
    EXPECT_EQ(raw.status, VmStatus::kOk);
    EXPECT_EQ(raw.return_value, op == Opcode::kDiv ? INT64_MIN : 0);
  }
  // Every other quotient truncates toward zero and every remainder takes the
  // dividend's sign.
  EXPECT_EQ(RunVm(div, "f", {7, -1}).return_value, -7);
  EXPECT_EQ(RunVm(mod, "f", {7, -1}).return_value, 0);
  EXPECT_EQ(RunVm(div, "f", {-7, 2}).return_value, -3);
  EXPECT_EQ(RunVm(mod, "f", {-7, 2}).return_value, -1);
  EXPECT_EQ(RunVm(div, "f", {INT64_MIN, 1}).return_value, INT64_MIN);
}

TEST(VmSemanticsLock, AddSubMulWrapInTwosComplement) {
  const Program add = MustAssemble(".func f\n  arg 0\n  arg 1\n  add\n  return\n");
  const Program sub = MustAssemble(".func f\n  arg 0\n  arg 1\n  sub\n  return\n");
  const Program mul = MustAssemble(".func f\n  arg 0\n  arg 1\n  mul\n  return\n");
  EXPECT_EQ(RunVm(add, "f", {INT64_MAX, 1}).return_value, INT64_MIN);
  EXPECT_EQ(RunVm(sub, "f", {INT64_MIN, 1}).return_value, INT64_MAX);
  EXPECT_EQ(RunVm(mul, "f", {INT64_MIN, -1}).return_value, INT64_MIN);
  EXPECT_EQ(RunVm(mul, "f", {int64_t{1} << 32, int64_t{1} << 32}).return_value, 0);
  EXPECT_EQ(RunVm(mul, "f", {INT64_MAX, 2}).return_value, -2);
}

TEST(VmSemanticsLock, StoredByteSurchargeSaturatesOutOfGas) {
  // YouTube's upload stores a blob of its argument's size. A surcharge of
  // 16 gas per byte that does not fit in int64 fails the call out of gas
  // with gas saturated at INT64_MAX, on a dialect without a gas limit.
  const Program program = MustAssemble(R"(
.func f
  push 40
  arg 0
  sstoreb
  stop
)");
  ContractState state;
  const ExecResult kib = RunVm(program, "f", {1024}, &state);
  ASSERT_EQ(kib.status, VmStatus::kOk);
  for (const int64_t bytes :
       {int64_t{864691128455135232}, int64_t{1} << 60, INT64_MAX / kGasPerStoredByte + 1,
        INT64_MAX}) {
    ContractState untouched;
    const ExecResult huge = RunVm(program, "f", {bytes}, &untouched);
    EXPECT_EQ(huge.status, VmStatus::kOutOfGas) << bytes;
    EXPECT_EQ(huge.gas_used, INT64_MAX) << bytes;
    EXPECT_GT(huge.gas_used, kib.gas_used) << bytes;
    EXPECT_EQ(untouched.entry_count(), 0u) << bytes;
  }
  // A surcharge that fits but leaves less headroom than the next charges:
  // the op after it saturates gas and fails out of gas. Gas never decreases.
  const Program then_emit = MustAssemble(R"(
.func f
  push 40
  arg 0
  sstoreb
  push 1
  emit 1
  stop
)");
  const int64_t before_surcharge = LimitsOf(VmDialect::kGeth).intrinsic_gas +
                                   OpcodeGas(Opcode::kPush) + OpcodeGas(Opcode::kArg) +
                                   OpcodeGas(Opcode::kSstoreBytes);
  const ExecResult edge = RunVm(then_emit, "f",
                                {(INT64_MAX - before_surcharge) / kGasPerStoredByte}, &state);
  EXPECT_EQ(edge.status, VmStatus::kOutOfGas);
  EXPECT_EQ(edge.gas_used, INT64_MAX);
  EXPECT_GE(edge.ops_executed, 4);
}

// Every observable field of one call on fresh state, as one line: status,
// gas, ops, return value, events, and the state it left (entry count, blob
// bytes, words 0..63).
std::string Outcome(const std::string& source, std::vector<int64_t> args, VmDialect dialect,
                    int64_t gas_limit = 0) {
  ContractState state;
  const ExecResult result =
      RunVm(MustAssemble(source), "f", std::move(args), &state, dialect, gas_limit);
  std::string line = StrFormat(
      "%d %lld %lld %lld %d %zu %lld", static_cast<int>(result.status),
      static_cast<long long>(result.gas_used), static_cast<long long>(result.ops_executed),
      static_cast<long long>(result.return_value), result.events_emitted,
      state.entry_count(), static_cast<long long>(state.total_blob_bytes()));
  for (uint64_t key = 0; key < 64; ++key) {
    line += StrFormat(" %lld", static_cast<long long>(state.Load(key)));
  }
  return line + "\n";
}

// Five programs under four dialects and five argument sets, pinned as one
// digest over every call's outcome: a change to any call's status, gas, ops,
// return value, events or state moves it.
TEST(VmSemanticsLock, ProgramGridOutcomesAreStable) {
  const std::string programs[] = {
      // Loop with jumps, memory, and comparisons.
      R"(
.func f
  push 0
  push 0
  mstore
  push 0
loop:
  dup 0
  arg 0
  ge
  jumpi end
  push 0
  mload
  dup 1
  add
  push 0
  swap 1
  mstore
  push 1
  add
  jump loop
end:
  push 0
  mload
  return
)",
      // Storage round-trip with journal-visible reads.
      R"(
.func f
  push 7
  arg 0
  sstore
  push 7
  sload
  push 2
  mul
  push 8
  swap 1
  sstore
  push 8
  sload
  return
)",
      // Subroutine call, events, caller and argcount.
      R"(
.func f
  caller
  argcount
  emit 2
  call helper
  return
.func helper
  arg 0
  arg 1
  add
  ret
)",
      // Blob store plus revert on a flag.
      R"(
.func f
  push 40
  arg 0
  sstoreb
  arg 1
  jumpi bad
  push 1
  return
bad:
  revert
)",
      // Division and failure paths.
      R"(
.func f
  arg 0
  arg 1
  div
  return
)",
  };
  const VmDialect dialects[] = {VmDialect::kGeth, VmDialect::kAvm, VmDialect::kMoveVm,
                                VmDialect::kEbpf};
  const std::vector<int64_t> arg_sets[] = {{0, 0}, {5, 1}, {100, 3}, {1024, 0}, {-5, -1}};
  std::string outcomes;
  for (const std::string& source : programs) {
    for (const VmDialect dialect : dialects) {
      for (const std::vector<int64_t>& args : arg_sets) {
        outcomes += Outcome(source, args, dialect);
      }
    }
  }
  EXPECT_EQ(DigestHex(Sha256Digest(outcomes)),
            "1f0f26d3c4bd4962f0a7d9bdbdcb1e569b0a48eef30b184bd5530eaa03818e72");
}

// A gas limit at every charge point of a blob store and an event: the call
// runs out of gas at exactly one instruction for each limit. Pinned the same
// way, as one digest over every call's outcome.
TEST(VmSemanticsLock, GasLimitSweepOutcomesAreStable) {
  const std::string blob_then_event = R"(
.func f
  push 40
  arg 0
  sstoreb
  push 1
  emit 1
  stop
)";
  std::vector<int64_t> limits;
  for (int64_t limit = 21000; limit < 21100; ++limit) {
    limits.push_back(limit);
  }
  for (const int64_t limit : {23000, 23047, 23048, 23049}) {
    limits.push_back(limit);
  }
  std::string outcomes;
  for (const int64_t limit : limits) {
    outcomes += Outcome(blob_then_event, {128}, VmDialect::kGeth, limit);
  }
  EXPECT_EQ(DigestHex(Sha256Digest(outcomes)),
            "dd4fd01b20651b4c327642c1cda0115236948d745c70338d80f0138e10d89839");
}

}  // namespace
}  // namespace diablo
