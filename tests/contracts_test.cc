#include <gtest/gtest.h>

#include <cmath>

#include "src/contracts/contracts.h"
#include "src/vm/assembler.h"
#include "src/vm/dialect.h"
#include "src/vm/interpreter.h"

namespace diablo {
namespace {

ExecResult Call(const Program& program, std::string_view function,
                std::vector<int64_t> args, ContractState* state,
                VmDialect dialect = VmDialect::kGeth, uint64_t caller = 42) {
  ExecRequest request;
  request.program = &program;
  request.function = function;
  request.args = args;
  request.caller = caller;
  request.state = state;
  request.dialect = dialect;
  return Execute(request);
}

// Deploys a contract: compiles it and runs init (when exported) with the
// bundled init args.
Program Deploy(const ContractDef& def, ContractState* state) {
  Program program = CompileContract(def);
  if (program.EntryOf("init") >= 0) {
    const ExecResult result = Call(program, "init", def.init_args, state);
    EXPECT_EQ(result.status, VmStatus::kOk) << def.name;
  }
  return program;
}

TEST(RegistryTest, AllFiveDAppsPresent) {
  EXPECT_EQ(AllContracts().size(), 5u);
  for (const char* name : {"exchange", "dota", "counter", "uber", "youtube"}) {
    EXPECT_NE(FindContract(name), nullptr) << name;
  }
  EXPECT_NE(FindContract("ExchangeContractGafam"), nullptr);
  EXPECT_NE(FindContract("DecentralizedDota"), nullptr);
  EXPECT_EQ(FindContract("doom"), nullptr);
}

TEST(RegistryTest, AllContractsAssemble) {
  for (const ContractDef& def : AllContracts()) {
    const Program program = CompileContract(def);
    EXPECT_FALSE(program.code.empty()) << def.name;
    EXPECT_FALSE(program.functions.empty()) << def.name;
  }
}

TEST(RegistryTest, EveryInitRunsUnderEveryDialect) {
  // CostOracle::Deploy fails a contract whose init does not return kOk, so
  // every bundled init must fit every dialect's budget. Exchange, dota and
  // uber have one.
  int inits = 0;
  for (const ContractDef& def : AllContracts()) {
    const Program program = CompileContract(def);
    if (program.EntryOf("init") < 0) {
      continue;
    }
    ++inits;
    for (const VmDialect dialect :
         {VmDialect::kGeth, VmDialect::kAvm, VmDialect::kMoveVm, VmDialect::kEbpf}) {
      ContractState state;
      EXPECT_EQ(Call(program, "init", def.init_args, &state, dialect, /*caller=*/0).status,
                VmStatus::kOk)
          << def.name << " on " << DialectName(dialect);
    }
  }
  EXPECT_EQ(inits, 3);
}

TEST(ExchangeTest, BuyDecrementsSupply) {
  ContractState state;
  const Program program = Deploy(*FindContract("exchange"), &state);
  EXPECT_EQ(Call(program, "check_stock", {1}, &state).return_value, 100000000);
  for (const char* fn : {"buy_google", "buy_apple", "buy_facebook", "buy_amazon",
                         "buy_microsoft"}) {
    const ExecResult result = Call(program, fn, {}, &state);
    EXPECT_EQ(result.status, VmStatus::kOk) << fn;
    EXPECT_EQ(result.events_emitted, 1) << fn;
  }
  for (int64_t key = 1; key <= 5; ++key) {
    EXPECT_EQ(Call(program, "check_stock", {key}, &state).return_value, 99999999);
  }
}

TEST(ExchangeTest, SoldOutStockReverts) {
  ContractState state;
  const Program program = CompileContract(*FindContract("exchange"));
  // Initialize with supply 2 instead of the default.
  ASSERT_EQ(Call(program, "init", {2}, &state).status, VmStatus::kOk);
  EXPECT_EQ(Call(program, "buy_apple", {}, &state).status, VmStatus::kOk);
  EXPECT_EQ(Call(program, "buy_apple", {}, &state).status, VmStatus::kOk);
  const ExecResult result = Call(program, "buy_apple", {}, &state);
  EXPECT_EQ(result.status, VmStatus::kReverted);
  EXPECT_EQ(Call(program, "check_stock", {2}, &state).return_value, 0);
  // Other stocks unaffected.
  EXPECT_EQ(Call(program, "buy_google", {}, &state).status, VmStatus::kOk);
}

TEST(ExchangeTest, RunsOnEveryDialect) {
  for (const VmDialect dialect :
       {VmDialect::kGeth, VmDialect::kAvm, VmDialect::kMoveVm, VmDialect::kEbpf}) {
    ContractState state;
    const Program program = CompileContract(*FindContract("exchange"));
    ASSERT_EQ(Call(program, "init", {1000}, &state, dialect).status, VmStatus::kOk);
    EXPECT_EQ(Call(program, "buy_microsoft", {}, &state, dialect).status, VmStatus::kOk)
        << DialectName(dialect);
  }
}

TEST(DotaTest, InitSpreadsPlayers) {
  ContractState state;
  Deploy(*FindContract("dota"), &state);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(state.Load(static_cast<uint64_t>(100 + 4 * i)), 25 * i);
    EXPECT_EQ(state.Load(static_cast<uint64_t>(101 + 4 * i)), 1);
    EXPECT_EQ(state.Load(static_cast<uint64_t>(102 + 4 * i)), 20 * i);
    EXPECT_EQ(state.Load(static_cast<uint64_t>(103 + 4 * i)), 1);
  }
}

TEST(DotaTest, UpdateMovesAllPlayers) {
  ContractState state;
  const Program program = Deploy(*FindContract("dota"), &state);
  const ExecResult result = Call(program, "update", {1, 1}, &state);
  EXPECT_EQ(result.status, VmStatus::kOk);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(state.Load(static_cast<uint64_t>(100 + 4 * i)), 25 * i + 1) << i;
    EXPECT_EQ(state.Load(static_cast<uint64_t>(102 + 4 * i)), 20 * i + 1) << i;
  }
}

TEST(DotaTest, PlayersTurnBackAtBorders) {
  ContractState state;
  const Program program = Deploy(*FindContract("dota"), &state);
  // Push player 9 (x = 225) past the right border: 4 steps reach 245, the
  // 5th crosses 250 and clamps.
  for (int step = 0; step < 5; ++step) {
    ASSERT_EQ(Call(program, "update", {5, 0}, &state).status, VmStatus::kOk);
  }
  EXPECT_EQ(state.Load(100 + 4 * 9), 249);  // clamped at the border
  EXPECT_EQ(state.Load(101 + 4 * 9), -1);   // turned back
  ASSERT_EQ(Call(program, "update", {5, 0}, &state).status, VmStatus::kOk);
  EXPECT_EQ(state.Load(100 + 4 * 9), 244);  // now moving left
}

TEST(DotaTest, PlayersTurnBackAtLeftBorder) {
  ContractState state;
  const Program program = Deploy(*FindContract("dota"), &state);
  // Player 0 starts at x = 0 and immediately bounces when pushed left.
  // Move left: direction is +1 initially, so pass dx = -3.
  ASSERT_EQ(Call(program, "update", {-3, 0}, &state).status, VmStatus::kOk);
  EXPECT_EQ(state.Load(100), 0);
  EXPECT_EQ(state.Load(101), 1);
}

TEST(DotaTest, UpdateStaysWithinAvmOpBudgetOnTypicalPath) {
  ContractState state;
  const Program program = Deploy(*FindContract("dota"), &state);
  const ExecResult result = Call(program, "update", {1, 1}, &state, VmDialect::kAvm);
  EXPECT_EQ(result.status, VmStatus::kOk);
  EXPECT_LE(result.ops_executed, LimitsOf(VmDialect::kAvm).op_budget);
}

TEST(CounterTest, AddIncrements) {
  ContractState state;
  const Program program = Deploy(*FindContract("counter"), &state);
  for (int i = 0; i < 5; ++i) {
    const ExecResult result = Call(program, "add", {}, &state);
    EXPECT_EQ(result.status, VmStatus::kOk);
  }
  EXPECT_EQ(Call(program, "get", {}, &state).return_value, 5);
}

TEST(CounterTest, CheapEnoughForEveryDialect) {
  for (const VmDialect dialect :
       {VmDialect::kGeth, VmDialect::kAvm, VmDialect::kMoveVm, VmDialect::kEbpf}) {
    ContractState state;
    const Program program = Deploy(*FindContract("counter"), &state);
    EXPECT_EQ(Call(program, "add", {}, &state, dialect).status, VmStatus::kOk)
        << DialectName(dialect);
  }
}

class IsqrtTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(IsqrtTest, MatchesFloorSqrt) {
  ContractState state;
  const Program program = Deploy(*FindContract("uber"), &state);
  const int64_t n = GetParam();
  const ExecResult result = Call(program, "isqrt", {n}, &state);
  ASSERT_EQ(result.status, VmStatus::kOk) << n;
  const int64_t expected = static_cast<int64_t>(std::sqrt(static_cast<double>(n)));
  // Guard against floating point edge cases in the oracle itself.
  int64_t want = expected;
  while ((want + 1) * (want + 1) <= n) {
    ++want;
  }
  while (want * want > n) {
    --want;
  }
  EXPECT_EQ(result.return_value, want) << n;
}

INSTANTIATE_TEST_SUITE_P(Values, IsqrtTest,
                         ::testing::Values(0, 1, 2, 3, 4, 8, 9, 15, 16, 17, 99, 100,
                                           10000, 123456, 999999, 250000000,
                                           287423001, 2147395600));

TEST(UberTest, CheckDistanceIsComputeIntensive) {
  ContractState state;
  const Program program = Deploy(*FindContract("uber"), &state);
  const ExecResult result = Call(program, "check_distance", {5000, 5000}, &state);
  EXPECT_EQ(result.status, VmStatus::kOk);
  // 10,000 probes, each with a Newton loop: the op count must dwarf every
  // hard dialect budget (the mechanism behind Fig. 5's X marks).
  EXPECT_GT(result.ops_executed, 1000000);
  EXPECT_GT(result.gas_used, 1000000);
  EXPECT_GE(result.return_value, 0);
  EXPECT_LT(result.return_value, 300000000);
}

TEST(UberTest, BudgetExceededOnCappedDialects) {
  // §6.4: Algorand, Diem and Solana report "budget exceeded" on the
  // mobility DApp; the three geth chains execute it.
  for (const VmDialect dialect :
       {VmDialect::kAvm, VmDialect::kMoveVm, VmDialect::kEbpf}) {
    ContractState state;
    const Program program = Deploy(*FindContract("uber"), &state);
    const ExecResult result = Call(program, "check_distance", {5000, 5000}, &state,
                                   dialect);
    EXPECT_EQ(result.status, VmStatus::kBudgetExceeded) << DialectName(dialect);
  }
  ContractState state;
  const Program program = Deploy(*FindContract("uber"), &state);
  EXPECT_EQ(Call(program, "check_distance", {5000, 5000}, &state, VmDialect::kGeth).status,
            VmStatus::kOk);
}

TEST(UberTest, DistanceDependsOnCustomerPosition) {
  ContractState state;
  const Program program = Deploy(*FindContract("uber"), &state);
  const int64_t near = Call(program, "check_distance", {7001, 4203}, &state).return_value;
  const int64_t far = Call(program, "check_distance", {1, 9999}, &state).return_value;
  EXPECT_LT(near, far);
  EXPECT_EQ(near, 0);  // a probe lands exactly on the customer
}

TEST(YoutubeTest, UploadRecordsOwnerAndData) {
  ContractState state;
  const Program program = Deploy(*FindContract("youtube"), &state);
  const ExecResult result = Call(program, "upload", {2048}, &state, VmDialect::kGeth,
                                 /*caller=*/99);
  EXPECT_EQ(result.status, VmStatus::kOk);
  EXPECT_EQ(result.events_emitted, 1);
  EXPECT_EQ(Call(program, "count", {}, &state).return_value, 1);
  EXPECT_EQ(state.Load(1000002), 99);      // owner record for video 1
  EXPECT_EQ(state.BlobSize(1000003), 2048);  // video data
}

TEST(YoutubeTest, MultipleUploadsGetDistinctSlots) {
  ContractState state;
  const Program program = Deploy(*FindContract("youtube"), &state);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(Call(program, "upload", {512}, &state).status, VmStatus::kOk);
  }
  EXPECT_EQ(Call(program, "count", {}, &state).return_value, 3);
  EXPECT_EQ(state.total_blob_bytes(), 3 * 512);
}

TEST(YoutubeTest, RejectedByAvmStateLimit) {
  // §5.2: "we could not implement the video sharing DApp in Teal as we
  // needed data structures that were too large to be stored in the state".
  ContractState state;
  const Program program = Deploy(*FindContract("youtube"), &state);
  const ExecResult result = Call(program, "upload", {1024}, &state, VmDialect::kAvm);
  EXPECT_EQ(result.status, VmStatus::kStateLimitExceeded);
  // The failed upload left no trace.
  EXPECT_EQ(Call(program, "count", {}, &state).return_value, 0);
}

}  // namespace
}  // namespace diablo
