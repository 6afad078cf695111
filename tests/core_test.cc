#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/config/spec.h"
#include "src/core/call_table.h"
#include "src/core/interface.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "tests/chain_run.h"

namespace diablo {
namespace {

TEST(ConnectorTest, FourPortingFunctions) {
  ChainRun run(GetChainParams("quorum"), "testnet", 1);

  // create_resource: accounts.
  ResourceSpec accounts_spec;
  accounts_spec.kind = ResourceSpec::Kind::kAccounts;
  accounts_spec.account_count = 10;
  Resource accounts;
  ASSERT_TRUE(run.connector.CreateResource(accounts_spec, &accounts));
  EXPECT_EQ(accounts.account_count, 10);

  // create_resource: contract.
  ResourceSpec contract_spec;
  contract_spec.kind = ResourceSpec::Kind::kContract;
  contract_spec.contract_name = "counter";
  Resource contract;
  ASSERT_TRUE(run.connector.CreateResource(contract_spec, &contract));
  EXPECT_GE(contract.contract_index, 0);

  contract_spec.contract_name = "not-a-contract";
  Resource bogus;
  EXPECT_FALSE(run.connector.CreateResource(contract_spec, &bogus));

  // encode.
  InteractionSpec invoke;
  invoke.type = InteractionSpec::Type::kInvoke;
  invoke.contract_index = contract.contract_index;
  invoke.function = "add";
  const TxId encoded = run.connector.Encode(invoke, accounts, Seconds(1));
  const TxStore& txs = run.chain->context().txs();
  EXPECT_GT(txs.row(encoded).gas, 0);
  EXPECT_GT(txs.row(encoded).size_bytes, 0);
  EXPECT_LT(txs.at(encoded).account, 10u);

  // create_client + trigger.
  auto client = run.connector.CreateClient(Region::kOhio, {0});
  ASSERT_NE(client, nullptr);
  client->Trigger(encoded, Seconds(1));
  run.sim.RunUntil(Seconds(2));
  EXPECT_EQ(run.chain->context().txs().at(encoded).phase, TxPhase::kSubmitted);
  EXPECT_EQ(run.chain->context().mempool().size(), 1u);
}

TEST(ConnectorTest, OneShotSendToAnUnreachableEndpointArrivesHalfASecondLate) {
  // Endpoint 0's host is partitioned off while its node stays up. A one-shot
  // client's send cannot reach it, so it arrives 500 ms after its trigger,
  // where a retrying client would fail the attempt after its timeout.
  ChainRun run(GetChainParams("quorum"), "testnet", 1);
  ChainContext& ctx = run.chain->context();
  ResourceSpec accounts_spec;
  accounts_spec.account_count = 1;
  Resource accounts;
  ASSERT_TRUE(run.connector.CreateResource(accounts_spec, &accounts));
  const TxId tx = run.connector.Encode(InteractionSpec{}, accounts, Seconds(1));
  auto client = run.connector.CreateClient(Region::kOhio, {0});
  run.net.SetPartitioned(ctx.hosts()[0], true);
  client->Trigger(tx, Seconds(1));

  const SimTime arrival = Seconds(1) + Milliseconds(500);
  run.sim.RunUntil(arrival - 1);
  EXPECT_EQ(ctx.txs().at(tx).phase, TxPhase::kCreated);
  run.sim.RunUntil(arrival);
  EXPECT_FALSE(ctx.NodeDown(0));
  EXPECT_EQ(ctx.txs().at(tx).phase, TxPhase::kSubmitted);
}

TEST(ChainContextTest, DroppedTxReported) {
  // A pool of one that rejects instead of replacing: the endpoint refuses a
  // one-shot client's second transaction, and the connector drops it.
  ChainParams params = GetChainParams("ethereum");
  params.mempool.global_cap = 1;
  params.mempool.evict_on_full = false;
  ChainRun run(params, "testnet", 17);
  ChainContext& ctx = run.chain->context();
  ResourceSpec accounts_spec;
  accounts_spec.account_count = 2;
  Resource accounts;
  ASSERT_TRUE(run.connector.CreateResource(accounts_spec, &accounts));
  const TxId a = run.connector.Encode(InteractionSpec{}, accounts, 0);
  const TxId b = run.connector.Encode(InteractionSpec{}, accounts, 0);
  auto client = run.connector.CreateClient(Region::kOhio, {0});
  client->Trigger(a, 0);
  client->Trigger(b, 0);
  run.sim.RunUntil(Seconds(1));
  EXPECT_EQ(ctx.txs().at(a).phase, TxPhase::kSubmitted);
  EXPECT_EQ(ctx.txs().at(b).phase, TxPhase::kDropped);
  EXPECT_EQ(ctx.txs().PhaseCounts()[static_cast<size_t>(TxPhase::kDropped)], 1u);
  EXPECT_EQ(ctx.stats().txs_dropped, 1u);
  EXPECT_EQ(run.connector.client_stats().aborts, 0u);
}

TEST(RetryPolicyTest, BackoffDoublesUpToThirtySeconds) {
  RetryPolicy policy;
  EXPECT_EQ(policy.BackoffAfter(0), Milliseconds(500));
  EXPECT_EQ(policy.BackoffAfter(1), Seconds(1));
  EXPECT_EQ(policy.BackoffAfter(5), Seconds(16));
  EXPECT_EQ(policy.BackoffAfter(6), Seconds(30));
  EXPECT_EQ(policy.BackoffAfter(1000), Seconds(30));
  policy.backoff = Seconds(45);
  EXPECT_EQ(policy.BackoffAfter(0), Seconds(30));
}

TEST(RetryPolicyTest, AttemptsRideTheArrivalLane) {
  // Retrying clients against a pool far too small for their load, with no
  // fault: every endpoint is reachable, so every refusal comes from
  // admission, and every attempt, first or retry, reaches its endpoint as
  // one lane arrival. The event count is the one the same run gave when
  // each attempt was a heap event.
  BenchmarkSetup setup;
  setup.chain = "ethereum";
  setup.params = GetChainParams("ethereum");
  setup.params->mempool.global_cap = 64;
  setup.params->mempool.evict_on_full = false;
  setup.retry.max_attempts = 3;
  setup.retry.timeout = Seconds(1);
  const RunResult result = Primary(setup).RunNative(ConstantTrace(200, 20));
  ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
  EXPECT_GT(result.report.client_retries, 0u);
  EXPECT_GT(result.report.client_aborts, 0u);
  EXPECT_EQ(result.counts.arrivals, result.report.submitted + result.report.client_retries);
  EXPECT_EQ(result.events_executed, 19518u);
}

TEST(ConnectorTest, EncodeRotatesAccounts) {
  ChainRun run(GetChainParams("quorum"), "testnet", 1);
  ResourceSpec spec;
  spec.kind = ResourceSpec::Kind::kAccounts;
  spec.account_count = 3;
  Resource accounts;
  run.connector.CreateResource(spec, &accounts);
  InteractionSpec transfer;
  const TxId a = run.connector.Encode(transfer, accounts, 0);
  const TxId b = run.connector.Encode(transfer, accounts, 0);
  const TxId c = run.connector.Encode(transfer, accounts, 0);
  const TxId d = run.connector.Encode(transfer, accounts, 0);
  const TxStore& txs = run.chain->context().txs();
  EXPECT_NE(txs.at(a).account, txs.at(b).account);
  EXPECT_NE(txs.at(b).account, txs.at(c).account);
  EXPECT_EQ(txs.at(a).account, txs.at(d).account);
}

TEST(ConnectorTest, EncodeRejectsWireSizesOutsideInt32) {
  // An upload carries its payload on the wire, so its argument sets the
  // transaction's int32 wire size. Sizes from 0 to INT32_MAX encode; one
  // byte either side has no encoding, and a rejected call uses up no signer
  // account.
  ChainRun run(GetChainParams("quorum"), "testnet", 1);
  ResourceSpec accounts_spec;
  accounts_spec.kind = ResourceSpec::Kind::kAccounts;
  accounts_spec.account_count = 10;
  Resource accounts;
  ASSERT_TRUE(run.connector.CreateResource(accounts_spec, &accounts));
  ResourceSpec contract_spec;
  contract_spec.kind = ResourceSpec::Kind::kContract;
  contract_spec.contract_name = "youtube";
  Resource contract;
  ASSERT_TRUE(run.connector.CreateResource(contract_spec, &contract));
  InteractionSpec upload;
  upload.type = InteractionSpec::Type::kInvoke;
  upload.contract_index = contract.contract_index;
  upload.function = "upload";
  auto encode = [&](int64_t payload) {
    upload.args = {payload};
    return run.connector.Encode(upload, accounts, 0);
  };
  const TxStore& txs = run.chain->context().txs();
  const int64_t envelope = txs.row(encode(1024)).size_bytes - 1024;
  ASSERT_GT(envelope, 0);
  EXPECT_EQ(txs.row(encode(INT32_MAX - envelope)).size_bytes, INT32_MAX);
  EXPECT_EQ(txs.row(encode(-envelope)).size_bytes, 0);
  EXPECT_EQ(encode(INT32_MAX - envelope + 1), kInvalidTx);
  EXPECT_EQ(encode(-envelope - 1), kInvalidTx);
  EXPECT_EQ(encode(INT64_MAX), kInvalidTx);
  EXPECT_EQ(encode(INT64_MIN), kInvalidTx);
  EXPECT_EQ(txs.size(), 3u);
  const TxId next = encode(1024);
  ASSERT_NE(next, kInvalidTx);
  // The fourth call signs with the fourth account, not the eighth.
  EXPECT_EQ(txs.at(next).account, accounts.first_account + 3);
  EXPECT_EQ(txs.size(), 4u);
}

TEST(ConnectorTest, EncodeRejectsARowPastTheTable) {
  // Each upload payload is its own wire size, so its own row. The chain's
  // store holds a row for each of the 65,536 values of a 16-bit index, the
  // zero row among them, so the 65,536th distinct upload has no row and no
  // encoding and stores nothing; a payload already seen still encodes.
  ChainRun run(GetChainParams("quorum"), "testnet", 1);
  ResourceSpec accounts_spec;
  accounts_spec.kind = ResourceSpec::Kind::kAccounts;
  accounts_spec.account_count = 1;
  Resource accounts;
  ASSERT_TRUE(run.connector.CreateResource(accounts_spec, &accounts));
  ResourceSpec contract_spec;
  contract_spec.kind = ResourceSpec::Kind::kContract;
  contract_spec.contract_name = "youtube";
  Resource contract;
  ASSERT_TRUE(run.connector.CreateResource(contract_spec, &contract));
  InteractionSpec upload;
  upload.type = InteractionSpec::Type::kInvoke;
  upload.contract_index = contract.contract_index;
  upload.function = "upload";
  auto encode = [&](int64_t payload) {
    upload.args = {payload};
    return run.connector.Encode(upload, accounts, 0);
  };
  const TxStore& txs = run.chain->context().txs();
  TxId last = kInvalidTx;
  for (int64_t payload = 1; payload < 65536; ++payload) {
    last = encode(payload);
    ASSERT_NE(last, kInvalidTx) << payload;
  }
  EXPECT_EQ(txs.at(last).row, 65535);
  EXPECT_EQ(encode(65536), kInvalidTx);
  EXPECT_EQ(txs.size(), 65535u);
  const TxId again = encode(1);
  ASSERT_NE(again, kInvalidTx);
  EXPECT_EQ(txs.at(again).row, 1);
  EXPECT_EQ(txs.size(), 65536u);
}

// One simulated chain with the resources Primary::RunStreams creates for a
// stream: accounts, then the stream's contract when it has one.
struct EncodeTwin : ChainRun {
  EncodeTwin(const std::string& chain_name, const std::string& contract)
      : ChainRun(GetChainParams(chain_name), "testnet", 1) {
    ResourceSpec accounts_spec;
    accounts_spec.kind = ResourceSpec::Kind::kAccounts;
    accounts_spec.account_count = 7;
    connector.CreateResource(accounts_spec, &accounts);
    if (!contract.empty()) {
      ResourceSpec contract_spec;
      contract_spec.kind = ResourceSpec::Kind::kContract;
      contract_spec.contract_name = contract;
      Resource resource;
      deployed = connector.CreateResource(contract_spec, &resource);
      contract_index = resource.contract_index;
    }
  }

  Resource accounts;
  int contract_index = -1;
  bool deployed = true;
};

TEST(CallTableTest, MatchesPerCallEncodeFieldForField) {
  // Encoding from the table and encoding call by call, through
  // InvocationFor and Encode(InteractionSpec), on twin chains: every DApp,
  // each NASDAQ stock, fixed spec invocations (uploads among them) and
  // native transfers, on the geth, Move, AVM and eBPF dialects. The stores
  // must agree field for field and the cost oracles on every profile they
  // measured, so the table measures the same functions with the same
  // first-caller arguments in the same order.
  std::vector<DappWorkload> streams;
  for (const std::string& name : AllDappNames()) {
    streams.push_back(GetDappWorkload(name));
  }
  for (const char* stock : {"google", "amazon", "facebook", "microsoft", "apple"}) {
    streams.push_back(GetDappWorkload(stock));
  }
  const struct {
    const char* contract;
    Invocation invocation;
  } fixed[] = {
      {"youtube", {"upload", {2048}}},   {"youtube", {"upload", {3000000000}}},
      {"dota", {"update", {2, 3}}},      {"counter", {"get", {}}},
      {"exchange", {"check_stock", {3}}}, {"uber", {"check_distance", {1, 2}}},
  };
  for (const auto& spec : fixed) {
    streams.push_back(DappWorkload{"spec", spec.contract, {}, spec.invocation});
  }
  streams.push_back(DappWorkload{});

  constexpr uint64_t kCalls = 600;
  for (const char* chain : {"quorum", "diem", "algorand", "solana"}) {
    for (const DappWorkload& stream : streams) {
      const std::string label = std::string(chain) + "/" + stream.name + "/" +
                                stream.contract;
      EncodeTwin table_side(chain, stream.contract);
      EncodeTwin call_side(chain, stream.contract);
      ASSERT_EQ(table_side.deployed, call_side.deployed) << label;
      if (!table_side.deployed) {
        continue;  // YouTube on the AVM
      }
      CallTable table(&table_side.connector, table_side.accounts, stream,
                      table_side.contract_index);
      // Every function the calls name: both oracles have measured these.
      std::set<std::string> functions;
      for (uint64_t k = 0; k < kCalls; ++k) {
        const SimTime time = Milliseconds(static_cast<int64_t>(3 * k));
        InteractionSpec spec;
        if (!stream.contract.empty()) {
          const Invocation invocation = stream.InvocationFor(k);
          spec.type = InteractionSpec::Type::kInvoke;
          spec.contract_index = call_side.contract_index;
          spec.function = invocation.function;
          spec.args = invocation.args;
          functions.insert(invocation.function);
        }
        const TxId expected = call_side.connector.Encode(spec, call_side.accounts, time);
        ASSERT_EQ(table.Encode(k, time), expected) << label << " call " << k;
        if (expected == kInvalidTx) {
          break;  // RunStreams stops the run at the first invalid call
        }
      }
      const TxStore& got = table_side.chain->context().txs();
      const TxStore& want = call_side.chain->context().txs();
      ASSERT_EQ(got.size(), want.size()) << label;
      for (TxId id = 0; id < got.size(); ++id) {
        const Transaction& a = got.at(id);
        const Transaction& b = want.at(id);
        EXPECT_EQ(a.account, b.account) << label << " tx " << id;
        EXPECT_EQ(a.row, b.row) << label << " tx " << id;
        EXPECT_EQ(got.row(id), want.row(id)) << label << " tx " << id;
        EXPECT_EQ(a.submit_time, b.submit_time) << label << " tx " << id;
        EXPECT_EQ(a.commit_time, b.commit_time) << label << " tx " << id;
        EXPECT_EQ(a.phase, b.phase) << label << " tx " << id;
        EXPECT_EQ(a.exec_status, b.exec_status) << label << " tx " << id;
      }
      CostOracle& got_oracle = table_side.chain->context().oracle();
      CostOracle& want_oracle = call_side.chain->context().oracle();
      for (const std::string& name : functions) {
        // Profile returns what the first measurement recorded.
        const CallProfile& a = got_oracle.Profile(table_side.contract_index, name, {});
        const CallProfile& b = want_oracle.Profile(call_side.contract_index, name, {});
        EXPECT_EQ(a.status, b.status) << label << " " << name;
        EXPECT_EQ(a.gas, b.gas) << label << " " << name;
        EXPECT_EQ(a.ops, b.ops) << label << " " << name;
        EXPECT_EQ(a.calldata_bytes, b.calldata_bytes) << label << " " << name;
      }
      if (stream.name == "exchange") {
        EXPECT_EQ(functions.size(), 5u) << label;
      }
    }
  }
}

TEST(RunnerTest, QuickstartNativeRun) {
  // The artifact's first experiment: a light native-transfer workload.
  const RunResult result = RunNativeBenchmark("algorand", "testnet", 10, 20);
  EXPECT_FALSE(result.unsupported);
  EXPECT_EQ(result.report.submitted, 200u);
  EXPECT_GT(result.report.committed, 150u);
  EXPECT_GT(result.report.avg_latency, 0.0);
  EXPECT_GT(result.chain_stats.blocks_produced, 0u);
}

TEST(RunnerTest, DappRunOnQuorum) {
  const RunResult result = RunDappBenchmark("quorum", "testnet", "fifa", 1, 0.02);
  EXPECT_FALSE(result.unsupported);
  EXPECT_TRUE(result.failure_reason.empty());
  EXPECT_GT(result.report.committed, result.report.submitted / 2);
}

TEST(RunnerTest, YoutubeUnsupportedOnAlgorand) {
  // §5.2: the video sharing DApp has no TEAL implementation.
  const RunResult result = RunDappBenchmark("algorand", "testnet", "youtube", 1, 0.001);
  EXPECT_TRUE(result.unsupported);
  EXPECT_EQ(result.report.submitted, 0u);
}

TEST(RunnerTest, UberBudgetExceededOnCappedChains) {
  // §6.4 / Fig. 5: Algorand, Diem and Solana cannot run the mobility DApp.
  for (const char* chain : {"algorand", "diem", "solana"}) {
    const RunResult result = RunDappBenchmark(chain, "testnet", "uber", 1, 0.01);
    EXPECT_FALSE(result.unsupported) << chain;
    EXPECT_EQ(result.failure_reason, "budget exceeded") << chain;
    EXPECT_EQ(result.report.committed, 0u) << chain;
    EXPECT_GT(result.report.aborted, 0u) << chain;
  }
  const RunResult quorum = RunDappBenchmark("quorum", "testnet", "uber", 1, 0.01);
  EXPECT_TRUE(quorum.failure_reason.empty());
  EXPECT_GT(quorum.report.committed, 0u);
}

TEST(RunnerTest, ScaleShrinksSubmissions) {
  const RunResult full = RunNativeBenchmark("solana", "testnet", 100, 10, 1, 1.0);
  const RunResult tenth = RunNativeBenchmark("solana", "testnet", 100, 10, 1, 0.1);
  EXPECT_EQ(full.report.submitted, 1000u);
  EXPECT_EQ(tenth.report.submitted, 100u);
}

TEST(RunnerTest, PerStockWorkloads) {
  const RunResult result = RunDappBenchmark("quorum", "testnet", "google", 1, 0.1);
  EXPECT_EQ(result.report.workload, "google");
  EXPECT_GT(result.report.submitted, 0u);
}

TEST(RunnerTest, ScaleFromEnvParsesAndClamps) {
  unsetenv("DIABLO_SCALE");
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0);
  setenv("DIABLO_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 0.25);
  setenv("DIABLO_SCALE", "7", 1);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0);
  setenv("DIABLO_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0);
  // Non-finite and non-positive values fall back to full scale instead of
  // turning every trace rate into NaN or zero.
  for (const char* bad : {"nan", "inf", "0", "-1"}) {
    setenv("DIABLO_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0) << bad;
  }
  unsetenv("DIABLO_SCALE");
}

TEST(PrimaryTest, SpecDrivenRun) {
  const SpecResult spec = ParseWorkloadSpec(R"(workloads:
  - number: 2
    client:
      behavior:
        - interaction: !invoke
            from: { sample: !account { number: 100 } }
            contract: { sample: !contract { name: "counter" } }
            function: "add"
          load:
            0: 10
            10: 0
)");
  ASSERT_TRUE(spec.ok) << spec.error;
  BenchmarkSetup setup;
  setup.chain = "quorum";
  setup.deployment = "testnet";
  Primary primary(setup);
  const RunResult result = primary.RunSpec(spec.spec);
  EXPECT_EQ(result.report.submitted, 200u);  // 2 clients x 10 TPS x 10 s
  EXPECT_GT(result.report.committed, 150u);
}

TEST(PrimaryTest, SpecUploadOutsideTheWireSizeFailsBeforeTheRun) {
  // A payload argument that does not fit the int32 wire size fails the run
  // before it starts, instead of narrowing to a negative size whose negative
  // transmission delay lands arrivals before t = 0.
  for (const char* function : {"upload(3000000000)", "upload(-3000000000)"}) {
    const SpecResult spec = ParseWorkloadSpec(StrFormat(R"(workloads:
  - number: 1
    client:
      behavior:
        - interaction: !invoke
            from: { sample: !account { number: 100 } }
            contract: { sample: !contract { name: "youtube" } }
            function: "%s"
          load:
            0: 10
            30: 0
)",
                                                        function));
    ASSERT_TRUE(spec.ok) << spec.error;
    BenchmarkSetup setup;
    setup.chain = "quorum";
    setup.deployment = "testnet";
    Primary primary(setup);
    const RunResult result = primary.RunSpec(spec.spec);
    EXPECT_EQ(result.failure_reason, "invocation upload: wire size out of range")
        << function;
    EXPECT_FALSE(result.unsupported) << function;
    EXPECT_EQ(result.report.submitted, 0u) << function;
  }
}

TEST(PrimaryTest, SpecSignsFromItsAccountBinding) {
  // The spec's `!account` set is the run's, under !invoke and !transfer
  // alike: the same load signed by one bound account runs exactly as with
  // the setup's count set to 1. Diem holds at most 100 pending transactions
  // per signer, so one account drops most of a load that 2,000 accounts
  // commit in full.
  const auto spec_text = [](const char* interaction, const char* from) {
    return StrFormat(R"(workloads:
  - number: 1
    client:
      behavior:
        - interaction: %s
%s          load:
            0: 3000
            10: 0
)",
                     interaction, from);
  };
  const char* const kBinding = "            from: { sample: !account { number: 1 } }\n";
  const std::string kCall =
      "            contract: { sample: !contract { name: \"counter\" } }\n"
      "            function: \"add\"\n";
  for (const auto& [interaction, call] :
       {std::pair<std::string, std::string>{"!invoke", kCall}, {"!transfer", ""}}) {
    const SpecResult bound =
        ParseWorkloadSpec(spec_text(interaction.c_str(), (kBinding + call).c_str()));
    const SpecResult unbound = ParseWorkloadSpec(spec_text(interaction.c_str(), call.c_str()));
    ASSERT_TRUE(bound.ok && unbound.ok) << bound.error << unbound.error;
    ASSERT_EQ(bound.spec.TotalAccounts(), 1) << interaction;
    ASSERT_EQ(unbound.spec.TotalAccounts(), 0) << interaction;
    BenchmarkSetup setup;
    setup.chain = "diem";
    setup.deployment = "testnet";
    const RunResult from_spec = Primary(setup).RunSpec(bound.spec);
    const RunResult two_thousand = Primary(setup).RunSpec(unbound.spec);
    setup.accounts = 1;
    const RunResult from_setup = Primary(setup).RunSpec(unbound.spec);
    EXPECT_EQ(from_spec.report.ToText(), from_setup.report.ToText()) << interaction;
    EXPECT_EQ(from_spec.report.submitted, 30000u) << interaction;
    EXPECT_LT(from_spec.report.committed, 30000u / 2) << interaction;
    EXPECT_EQ(two_thousand.report.committed, 30000u) << interaction;
  }
}

TEST(PrimaryTest, TraceRatesThatAreNotFiniteAndNonNegativeFailBeforeTheRun) {
  // A NaN or negative rate, from the trace or from the scale, used to size
  // the arrival vector from a negative or NaN total and abort the process
  // with std::length_error. It now fails the run before anything is sized.
  struct Case {
    double tps;
    double scale;
  };
  for (const Case c : {Case{std::nan(""), 1.0}, Case{-5, 1.0}, Case{100, -1.0},
                       Case{100, std::nan("")}}) {
    const RunResult result = RunNativeBenchmark("quorum", "testnet", c.tps, 10, 1, c.scale);
    EXPECT_NE(result.failure_reason.find("trace rate"), std::string::npos)
        << c.tps << " x " << c.scale << ": " << result.failure_reason;
    EXPECT_EQ(result.report.submitted, 0u);
    EXPECT_EQ(result.events_executed, 0u);
  }
  // One bad second among good ones is enough.
  Trace trace = ConstantTrace(100, 10);
  trace.tps[7] = -std::numeric_limits<double>::infinity();
  BenchmarkSetup setup;
  setup.chain = "quorum";
  setup.deployment = "testnet";
  Primary primary(setup);
  const RunResult result = primary.RunNative(trace);
  EXPECT_NE(result.failure_reason.find("at second 7"), std::string::npos)
      << result.failure_reason;
  EXPECT_EQ(result.report.submitted, 0u);
}

TEST(PrimaryTest, TraceTotalsBeyondTheTxIdRangeFailBeforeTheRun) {
  // Every transaction needs a TxId below kInvalidTx. A finite total past
  // that range used to cast to a meaningless count (1e30 TPS ran with no
  // transactions) or try to reserve terabytes; it now fails up front.
  for (const double tps : {1e10, 1e30, std::numeric_limits<double>::max()}) {
    const RunResult result = RunNativeBenchmark("quorum", "testnet", tps, 60);
    EXPECT_NE(result.failure_reason.find("exceeds the TxId range"), std::string::npos)
        << tps << ": " << result.failure_reason;
    EXPECT_EQ(result.report.submitted, 0u);
  }
  // Two streams that each fit can still overflow together.
  std::vector<WorkStream> streams(2);
  streams[0].workload.trace = ConstantTrace(3e9, 1);
  streams[1].workload.trace = ConstantTrace(3e9, 1);
  BenchmarkSetup setup;
  setup.chain = "quorum";
  setup.deployment = "testnet";
  Primary primary(setup);
  const RunResult result = primary.RunStreams(std::move(streams), "two");
  EXPECT_NE(result.failure_reason.find("exceeds the TxId range"), std::string::npos)
      << result.failure_reason;
}

TEST(PrimaryTest, MultiBehaviorSpecRunsEveryStream) {
  // Two groups: one invokes the counter DApp, one sends native transfers;
  // both must be scheduled and accounted.
  const SpecResult spec = ParseWorkloadSpec(R"yaml(workloads:
  - number: 1
    client:
      location: { sample: !location [ "ohio" ] }
      behavior:
        - interaction: !invoke
            from: { sample: !account { number: 50 } }
            contract: { sample: !contract { name: "counter" } }
            function: "add"
          load:
            0: 20
            10: 0
  - number: 2
    client:
      behavior:
        - interaction: !transfer
          load:
            0: 15
            10: 0
)yaml");
  ASSERT_TRUE(spec.ok) << spec.error;
  ASSERT_EQ(spec.spec.groups.size(), 2u);
  BenchmarkSetup setup;
  setup.chain = "quorum";
  setup.deployment = "testnet";
  Primary primary(setup);
  const RunResult result = primary.RunSpec(spec.spec);
  // 1 client x 20 TPS x 10 s + 2 clients x 15 TPS x 10 s.
  EXPECT_EQ(result.report.submitted, 200u + 300u);
  EXPECT_GT(result.report.committed, 400u);
  EXPECT_TRUE(result.failure_reason.empty());
}

TEST(PrimaryTest, EndpointViewPatternsResolve) {
  // A ".*" view makes every client round-robin over all nodes; an explicit
  // index pins it. Both must run to completion with full accounting.
  BenchmarkSetup setup;
  setup.chain = "quorum";
  setup.deployment = "testnet";
  Primary primary(setup);
  WorkStream all_nodes;
  all_nodes.workload.trace = ConstantTrace(40, 5);
  all_nodes.endpoints = {".*"};
  WorkStream pinned;
  pinned.workload.trace = ConstantTrace(10, 5);
  pinned.endpoints = {"3"};
  const RunResult result = primary.RunStreams({all_nodes, pinned}, "views");
  EXPECT_EQ(result.report.submitted, 200u + 50u);
  EXPECT_GT(result.report.committed, 200u);
}

TEST(PrimaryTest, ViewIndexOutsideTheDeploymentFailsBeforeTheRun) {
  // A view names only nodes the deployment has: node 10 of testnet's ten
  // fails the run, whether its clients sit at the default locations or in
  // a region of their own.
  BenchmarkSetup setup;
  setup.deployment = "testnet";
  for (const std::vector<Region>& locations :
       {std::vector<Region>{}, std::vector<Region>{Region::kTokyo}}) {
    WorkStream stream;
    stream.workload.trace = ConstantTrace(10, 5);
    stream.locations = locations;
    stream.endpoints = {".*", "10"};
    const RunResult result = Primary(setup).RunStreams({stream}, "views");
    EXPECT_EQ(result.failure_reason, "client view '10' names no node of a 10-node deployment");
    EXPECT_EQ(result.report.submitted, 0u);
  }
}

TEST(PrimaryTest, StreamsApiMixesDappsAndNative) {
  BenchmarkSetup setup;
  setup.chain = "solana";
  setup.deployment = "testnet";
  Primary primary(setup);
  WorkStream dapp;
  dapp.workload = DappWorkload{"counter", "counter", ConstantTrace(10, 5), Invocation{"add", {}}};
  WorkStream native;
  native.workload.trace = ConstantTrace(30, 5);
  native.locations = {Region::kTokyo};
  const RunResult result =
      primary.RunStreams({dapp, native}, "mixed");
  EXPECT_EQ(result.report.submitted, 50u + 150u);
  EXPECT_GT(result.report.committed, 150u);
  EXPECT_EQ(result.report.workload, "mixed");
}

TEST(PrimaryTest, DiemAccountRestrictionOnLargeDeployments) {
  // §5.2: Diem community/consortium runs used only 130 accounts. Observable
  // through per-signer mempool pressure; here just ensure the run completes
  // and transactions stay within 130 accounts.
  BenchmarkSetup setup;
  setup.chain = "diem";
  setup.deployment = "community";
  setup.accounts = 2000;
  setup.drain = Seconds(30);
  Primary primary(setup);
  const RunResult result = primary.RunNative(ConstantTrace(20, 5));
  EXPECT_GT(result.report.submitted, 0u);
  // No way to read accounts directly from the report; the restriction is
  // observable via the setup — keep this as a smoke test.
}

TEST(ReportTest, PendingAfterHorizon) {
  TxStore txs;
  Transaction tx;
  tx.submit_time = Seconds(1);
  tx.commit_time = Seconds(5);
  tx.phase = TxPhase::kCommitted;
  txs.Add(tx);
  tx.commit_time = Seconds(50);
  txs.Add(tx);  // commits after the horizon -> pending
  tx.phase = TxPhase::kDropped;
  txs.Add(tx);
  tx.phase = TxPhase::kAborted;
  txs.Add(tx);
  tx.phase = TxPhase::kCreated;
  txs.Add(tx);  // never submitted -> ignored

  const Report report = BuildReport(txs, Seconds(10), "x", "y", "z", 10.0);
  EXPECT_EQ(report.submitted, 4u);
  EXPECT_EQ(report.committed, 1u);
  EXPECT_EQ(report.pending, 1u);
  EXPECT_EQ(report.dropped, 1u);
  EXPECT_EQ(report.aborted, 1u);
  EXPECT_DOUBLE_EQ(report.commit_ratio, 0.25);
  EXPECT_DOUBLE_EQ(report.avg_latency, 4.0);
  EXPECT_NE(report.ToText().find("committed:    1"), std::string::npos);
}

TEST(ReportTest, RecoveriesMatchASearchOfSortedCommits) {
  // A heal's recovery is the time to the first commit within the horizon at
  // or after it: what one lower_bound per heal over every such commit,
  // sorted, finds. Random stores, with tied heals, heals at a commit, heals
  // after the last commit ("never") and commits past the horizon.
  Rng rng(2027);
  const SimTime horizon = Seconds(60);
  for (int trial = 0; trial < 300; ++trial) {
    TxStore txs;
    std::vector<SimTime> commits;
    const uint64_t count = rng.NextBelow(200);
    for (uint64_t i = 0; i < count; ++i) {
      Transaction tx;
      tx.submit_time = static_cast<SimTime>(rng.NextBelow(Seconds(50)));
      tx.phase = static_cast<TxPhase>(rng.NextBelow(5));
      if (tx.phase == TxPhase::kCommitted) {
        tx.commit_time = tx.submit_time + static_cast<SimTime>(rng.NextBelow(Seconds(30)));
        if (tx.commit_time <= horizon) {
          commits.push_back(tx.commit_time);
        }
      }
      txs.Add(tx);
    }
    std::sort(commits.begin(), commits.end());
    std::vector<SimTime> heals;
    for (uint64_t i = rng.NextBelow(5); i > 0; --i) {
      heals.push_back(static_cast<SimTime>(rng.NextBelow(Seconds(70))));
      if (rng.NextBernoulli(0.3)) {
        heals.push_back(heals.back());
      }
    }
    if (!commits.empty()) {
      heals.push_back(commits[rng.NextBelow(commits.size())]);
      heals.push_back(commits.back() + 1);
    }
    std::sort(heals.begin(), heals.end());

    Report report;
    AddResilienceMetrics(&report, txs, horizon, heals);
    ASSERT_EQ(report.recoveries.size(), heals.size()) << "trial " << trial;
    for (size_t i = 0; i < heals.size(); ++i) {
      const auto first = std::lower_bound(commits.begin(), commits.end(), heals[i]);
      const double want = first == commits.end() ? -1.0 : ToSeconds(*first - heals[i]);
      EXPECT_EQ(report.recoveries[i], want) << "trial " << trial << " heal " << i;
    }
  }
}

TEST(ResultsTest, JsonAndCsvOutput) {
  TxStore txs;
  Transaction tx;
  tx.submit_time = Seconds(1);
  tx.commit_time = Seconds(3);
  tx.phase = TxPhase::kCommitted;
  txs.Add(tx);
  tx.phase = TxPhase::kDropped;
  tx.commit_time = -1;
  txs.Add(tx);

  const Report report = BuildReport(txs, Seconds(100), "quorum", "testnet", "t", 10.0);
  const std::string json = ReportToJson(report);
  EXPECT_NE(json.find("\"chain\": \"quorum\""), std::string::npos);
  EXPECT_NE(json.find("\"committed\": 1"), std::string::npos);

  std::ostringstream full;
  WriteResultsJson(full, report, txs);
  EXPECT_NE(full.str().find("\"transactions\""), std::string::npos);
  EXPECT_NE(full.str().find("\"status\": \"dropped\""), std::string::npos);

  std::ostringstream csv;
  WriteResultsCsv(csv, txs);
  EXPECT_NE(csv.str().find("submit_time,latency,status"), std::string::npos);
  EXPECT_NE(csv.str().find("committed"), std::string::npos);

  // Cap on per-transaction records.
  std::ostringstream capped;
  WriteResultsJson(capped, report, txs, /*max_txs=*/1);
  EXPECT_EQ(capped.str().find("dropped", capped.str().find("transactions")),
            std::string::npos);
}

TEST(DeterminismTest, FullRunReproducible) {
  const RunResult a = RunNativeBenchmark("solana", "devnet", 200, 10, 77);
  const RunResult b = RunNativeBenchmark("solana", "devnet", 200, 10, 77);
  EXPECT_EQ(a.report.committed, b.report.committed);
  EXPECT_DOUBLE_EQ(a.report.avg_latency, b.report.avg_latency);
  const RunResult c = RunNativeBenchmark("solana", "devnet", 200, 10, 78);
  // A different seed perturbs jitter; latency will not be bit-identical.
  EXPECT_NE(a.report.avg_latency, c.report.avg_latency);
}

// A HotStuff (diem) cell's own counts: its quorum certificates come from
// the single-receiver vote kernel, which counts vote rounds too, and every
// one-shot submission reaches its endpoint through the simulation's arrival
// lane.
TEST(ProfileTest, HotStuffCellCountsVoteRoundsAndArrivals) {
  const RunResult result = RunNativeBenchmark("diem", "testnet", 50, 10, 1);
  ASSERT_GT(result.report.submitted, 0u);
  EXPECT_GT(result.counts.vote_rounds, 0u);
  EXPECT_EQ(result.counts.arrivals, result.report.submitted);
  EXPECT_GT(result.events_executed, result.counts.arrivals);
  EXPECT_EQ(result.counts.sortition_draws, 0u);
  EXPECT_EQ(result.counts.vm_ops, 0u);  // native transfers run no contract
}

// sortition_draws: every committee or proposer selection draws its whole
// population, so an Algorand cell at 1,000 validators counts a positive
// multiple of 1,000 and a cell whose engine has no sortition counts none.
TEST(ProfileTest, SortitionDrawsCountAlgorandSelections) {
  const RunResult algorand = RunNativeBenchmark("algorand", "xl-1000", 20, 10, 1);
  ASSERT_GT(algorand.report.submitted, 0u);
  const uint64_t draws = algorand.counts.sortition_draws;
  EXPECT_GT(draws, 0u);
  EXPECT_EQ(draws % 1000, 0u) << draws;

  const RunResult quorum = RunNativeBenchmark("quorum", "consortium", 20, 10, 1);
  ASSERT_GT(quorum.report.submitted, 0u);
  EXPECT_EQ(quorum.counts.sortition_draws, 0u);
}

// vote_receivers: each vote-round kernel call adds the receivers it
// evaluates. IBFT (quorum) rounds are all-receivers calls, so on the 200-node
// consortium every round adds exactly 200 and the total is a positive
// multiple of 200.
TEST(ProfileTest, VoteReceiversCountConsortiumRounds) {
  const RunResult result = RunNativeBenchmark("quorum", "consortium", 20, 10, 1);
  ASSERT_GT(result.report.submitted, 0u);
  const uint64_t receivers = result.counts.vote_receivers;
  EXPECT_GT(receivers, 0u);
  EXPECT_EQ(receivers % 200, 0u) << receivers;
  EXPECT_EQ(receivers, 200 * result.counts.vote_rounds);
}

// vm_ops: a DApp cell's CostOracle counts the ops of the executions it runs,
// its contract's deployment and one measured call per function, however
// many transactions the cell signs.
TEST(ProfileTest, DappCellCountsItsOraclesVmOps) {
  const RunResult small = RunDappBenchmark("quorum", "testnet", "uber", 1, 0.01);
  const RunResult twice = RunDappBenchmark("quorum", "testnet", "uber", 1, 0.02);
  ASSERT_GT(small.report.submitted, 0u);
  ASSERT_GT(twice.report.submitted, small.report.submitted);
  EXPECT_GT(small.counts.vm_ops, 0u);
  EXPECT_EQ(twice.counts.vm_ops, small.counts.vm_ops);
}

}  // namespace
}  // namespace diablo
