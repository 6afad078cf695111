#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "src/config/spec.h"
#include "src/core/interface.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/support/profile.h"
#include "src/support/strings.h"

namespace diablo {
namespace {

TEST(ConnectorTest, FourPortingFunctions) {
  Simulation sim(1);
  Network net(&sim);
  const auto chain = BuildChain("quorum", GetDeployment("testnet"), &sim, &net);
  SimConnector connector(chain.get());

  // create_resource: accounts.
  ResourceSpec accounts_spec;
  accounts_spec.kind = ResourceSpec::Kind::kAccounts;
  accounts_spec.account_count = 10;
  Resource accounts;
  ASSERT_TRUE(connector.CreateResource(accounts_spec, &accounts));
  EXPECT_EQ(accounts.account_count, 10);

  // create_resource: contract.
  ResourceSpec contract_spec;
  contract_spec.kind = ResourceSpec::Kind::kContract;
  contract_spec.contract_name = "counter";
  Resource contract;
  ASSERT_TRUE(connector.CreateResource(contract_spec, &contract));
  EXPECT_GE(contract.contract_index, 0);

  contract_spec.contract_name = "not-a-contract";
  Resource bogus;
  EXPECT_FALSE(connector.CreateResource(contract_spec, &bogus));

  // encode.
  InteractionSpec invoke;
  invoke.type = InteractionSpec::Type::kInvoke;
  invoke.contract_index = contract.contract_index;
  invoke.function = "add";
  const TxId encoded = connector.Encode(invoke, accounts, Seconds(1));
  const Transaction& tx = chain->context().txs().at(encoded);
  EXPECT_GT(tx.gas, 0);
  EXPECT_GT(tx.size_bytes, 0);
  EXPECT_LT(tx.account, 10u);

  // create_client + trigger.
  auto client = connector.CreateClient(Region::kOhio, {0});
  ASSERT_NE(client, nullptr);
  client->Trigger(encoded, Seconds(1));
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(chain->context().txs().at(encoded).phase, TxPhase::kSubmitted);
  EXPECT_EQ(chain->context().mempool().size(), 1u);
}

TEST(ConnectorTest, ReadOnlyQueriesSkipConsensus) {
  Simulation sim(1);
  Network net(&sim);
  const auto chain = BuildChain("quorum", GetDeployment("testnet"), &sim, &net);
  SimConnector connector(chain.get());
  ResourceSpec accounts_spec;
  accounts_spec.kind = ResourceSpec::Kind::kAccounts;
  accounts_spec.account_count = 5;
  Resource accounts;
  connector.CreateResource(accounts_spec, &accounts);
  ResourceSpec contract_spec;
  contract_spec.kind = ResourceSpec::Kind::kContract;
  contract_spec.contract_name = "exchange";
  Resource contract;
  ASSERT_TRUE(connector.CreateResource(contract_spec, &contract));

  // checkStock is a query: answered by the endpoint without a block.
  InteractionSpec query;
  query.type = InteractionSpec::Type::kQuery;
  query.contract_index = contract.contract_index;
  query.function = "check_stock";
  query.args = {1};
  const TxId q = connector.Encode(query, accounts, Seconds(1));
  const auto client = connector.CreateClient(Region::kOhio, {0});
  client->Trigger(q, Seconds(1));
  sim.RunUntil(Seconds(5));

  ChainContext& ctx = chain->context();
  const Transaction& tx = ctx.txs().at(q);
  EXPECT_TRUE(tx.read_only);
  EXPECT_EQ(tx.phase, TxPhase::kCommitted);
  // Round trip + execution, orders of magnitude below block latency.
  EXPECT_LT(tx.LatencySeconds(), 0.1);
  EXPECT_EQ(ctx.mempool().size(), 0u);     // never pooled
  EXPECT_EQ(ctx.stats().blocks_produced, 0u);  // chain not even started
}

TEST(ConnectorTest, EncodeRotatesAccounts) {
  Simulation sim(1);
  Network net(&sim);
  const auto chain = BuildChain("quorum", GetDeployment("testnet"), &sim, &net);
  SimConnector connector(chain.get());
  ResourceSpec spec;
  spec.kind = ResourceSpec::Kind::kAccounts;
  spec.account_count = 3;
  Resource accounts;
  connector.CreateResource(spec, &accounts);
  InteractionSpec transfer;
  const TxId a = connector.Encode(transfer, accounts, 0);
  const TxId b = connector.Encode(transfer, accounts, 0);
  const TxId c = connector.Encode(transfer, accounts, 0);
  const TxId d = connector.Encode(transfer, accounts, 0);
  const TxStore& txs = chain->context().txs();
  EXPECT_NE(txs.at(a).account, txs.at(b).account);
  EXPECT_NE(txs.at(b).account, txs.at(c).account);
  EXPECT_EQ(txs.at(a).account, txs.at(d).account);
}

TEST(ConnectorTest, EncodeRejectsWireSizesOutsideInt32) {
  // An upload carries its payload on the wire, so its argument sets the
  // transaction's int32 wire size. Sizes from 0 to INT32_MAX encode; one
  // byte either side has no encoding.
  Simulation sim(1);
  Network net(&sim);
  const auto chain = BuildChain("quorum", GetDeployment("testnet"), &sim, &net);
  SimConnector connector(chain.get());
  ResourceSpec accounts_spec;
  accounts_spec.kind = ResourceSpec::Kind::kAccounts;
  accounts_spec.account_count = 1;
  Resource accounts;
  ASSERT_TRUE(connector.CreateResource(accounts_spec, &accounts));
  ResourceSpec contract_spec;
  contract_spec.kind = ResourceSpec::Kind::kContract;
  contract_spec.contract_name = "youtube";
  Resource contract;
  ASSERT_TRUE(connector.CreateResource(contract_spec, &contract));
  InteractionSpec upload;
  upload.type = InteractionSpec::Type::kInvoke;
  upload.contract_index = contract.contract_index;
  upload.function = "upload";
  auto encode = [&](int64_t payload) {
    upload.args = {payload};
    return connector.Encode(upload, accounts, 0);
  };
  const TxStore& txs = chain->context().txs();
  const int64_t envelope = txs.at(encode(1024)).size_bytes - 1024;
  ASSERT_GT(envelope, 0);
  EXPECT_EQ(txs.at(encode(INT32_MAX - envelope)).size_bytes, INT32_MAX);
  EXPECT_EQ(txs.at(encode(-envelope)).size_bytes, 0);
  EXPECT_EQ(encode(INT32_MAX - envelope + 1), kInvalidTx);
  EXPECT_EQ(encode(-envelope - 1), kInvalidTx);
  EXPECT_EQ(encode(INT64_MAX), kInvalidTx);
  EXPECT_EQ(encode(INT64_MIN), kInvalidTx);
  EXPECT_EQ(txs.size(), 3u);
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
  all_nodes.trace = ConstantTrace(40, 5);
  all_nodes.endpoints = {".*"};
  WorkStream pinned;
  pinned.trace = ConstantTrace(10, 5);
  pinned.endpoints = {"3"};
  const RunResult result = primary.RunStreams({all_nodes, pinned}, "views");
  EXPECT_EQ(result.report.submitted, 200u + 50u);
  EXPECT_GT(result.report.committed, 200u);
}

TEST(PrimaryTest, StreamsApiMixesDappsAndNative) {
  BenchmarkSetup setup;
  setup.chain = "solana";
  setup.deployment = "testnet";
  Primary primary(setup);
  WorkStream dapp;
  dapp.trace = ConstantTrace(10, 5);
  dapp.contract = "counter";
  dapp.fixed = Invocation{"add", {}};
  WorkStream native;
  native.trace = ConstantTrace(30, 5);
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

// DIABLO_PROFILE's counters on a HotStuff (diem) cell: its quorum
// certificates come from the single-receiver vote kernel, which counts vote
// rounds too, and every one-shot submission reaches its endpoint through
// the simulation's arrival lane.
TEST(ProfileTest, HotStuffCellCountsVoteRoundsAndArrivals) {
  const profile::Counters before = profile::Totals();
  const RunResult result = RunNativeBenchmark("diem", "testnet", 50, 10, 1);
  const profile::Counters after = profile::Totals();
  ASSERT_GT(result.report.submitted, 0u);
  EXPECT_GT(after.vote_rounds, before.vote_rounds);
  EXPECT_EQ(after.arrivals - before.arrivals, result.report.submitted);
  EXPECT_EQ(after.events - before.events, result.events_executed);
}

// sortition_draws: every committee or proposer selection adds its whole
// population, so an Algorand cell at 1,000 validators adds a positive
// multiple of 1,000 and a cell whose engine has no sortition adds nothing.
TEST(ProfileTest, SortitionDrawsCountAlgorandSelections) {
  const profile::Counters before = profile::Totals();
  const RunResult algorand = RunNativeBenchmark("algorand", "xl-1000", 20, 10, 1);
  const profile::Counters after = profile::Totals();
  ASSERT_GT(algorand.report.submitted, 0u);
  const uint64_t draws = after.sortition_draws - before.sortition_draws;
  EXPECT_GT(draws, 0u);
  EXPECT_EQ(draws % 1000, 0u) << draws;

  const RunResult quorum = RunNativeBenchmark("quorum", "consortium", 20, 10, 1);
  ASSERT_GT(quorum.report.submitted, 0u);
  EXPECT_EQ(profile::Totals().sortition_draws, after.sortition_draws);
}

// vote_receivers: each vote-round kernel call adds the receivers it
// evaluates. IBFT (quorum) rounds are all-receivers calls, so on the 200-node
// consortium every round adds exactly 200 and the total is a positive
// multiple of 200.
TEST(ProfileTest, VoteReceiversCountConsortiumRounds) {
  const profile::Counters before = profile::Totals();
  const RunResult result = RunNativeBenchmark("quorum", "consortium", 20, 10, 1);
  const profile::Counters after = profile::Totals();
  ASSERT_GT(result.report.submitted, 0u);
  const uint64_t rounds = after.vote_rounds - before.vote_rounds;
  const uint64_t receivers = after.vote_receivers - before.vote_receivers;
  EXPECT_GT(receivers, 0u);
  EXPECT_EQ(receivers % 200, 0u) << receivers;
  EXPECT_EQ(receivers, 200 * rounds);
}

}  // namespace
}  // namespace diablo
