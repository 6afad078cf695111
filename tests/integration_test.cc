// End-to-end invariants across the full matrix of chains × deployments and
// workload kinds: transaction conservation, timestamp sanity, ledger
// consistency and report/accounting agreement.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/interface.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/core/secondary.h"
#include "tests/chain_run.h"

namespace diablo {
namespace {

using MatrixParam = std::tuple<std::string, std::string>;

class ChainDeploymentMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ChainDeploymentMatrix, ConservationAndTimestampInvariants) {
  const auto& [chain, deployment] = GetParam();
  BenchmarkSetup setup;
  setup.chain = chain;
  setup.deployment = deployment;
  setup.drain = Seconds(45);
  Primary primary(setup);
  const RunResult result = primary.RunNative(ConstantTrace(120, 8));
  const Report& report = result.report;

  // Conservation: every submitted transaction is in exactly one bucket.
  EXPECT_EQ(report.submitted,
            report.committed + report.dropped + report.aborted + report.pending)
      << chain << "/" << deployment;
  EXPECT_EQ(report.submitted, 960u);
  EXPECT_GT(report.committed, 0u) << chain << "/" << deployment;

  // Latency sanity.
  if (report.latencies.count() > 0) {
    EXPECT_GT(report.latencies.Min(), 0.0);
    EXPECT_LE(report.avg_latency, report.max_latency);
    EXPECT_LE(report.median_latency, report.p95_latency);
  }

  // Per-second series agree with the totals.
  EXPECT_EQ(report.submitted_per_second.TotalCount(), report.submitted);
  EXPECT_EQ(report.committed_per_second.TotalCount(), report.committed);

  // The ledger carried at least the committed transactions.
  EXPECT_GE(result.chain_stats.blocks_produced, 1u);
  EXPECT_GE(result.chain_stats.txs_committed, report.committed);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ChainDeploymentMatrix,
    ::testing::Combine(::testing::Values("algorand", "avalanche", "diem", "quorum",
                                         "ethereum", "solana"),
                       ::testing::Values("testnet", "devnet")),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

class DappMatrix : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(DappMatrix, DappRunsAccountForEveryTransaction) {
  const auto& [chain, dapp] = GetParam();
  const RunResult result = RunDappBenchmark(chain, "testnet", dapp, 1, /*scale=*/0.01);
  if (result.unsupported) {
    // Only youtube-on-algorand may be unsupported in this matrix.
    EXPECT_EQ(chain, "algorand");
    EXPECT_EQ(dapp, "youtube");
    return;
  }
  const Report& report = result.report;
  EXPECT_EQ(report.submitted,
            report.committed + report.dropped + report.aborted + report.pending)
      << chain << "/" << dapp;
  if (!result.failure_reason.empty()) {
    // Budget-exceeded runs abort everything client-side.
    EXPECT_EQ(report.committed, 0u);
    EXPECT_EQ(report.aborted, report.submitted - report.dropped - report.pending);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChainsByDapps, DappMatrix,
    ::testing::Combine(::testing::Values("algorand", "diem", "quorum", "solana"),
                       ::testing::Values("exchange", "fifa", "uber", "youtube")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(LedgerConsistencyTest, BlocksCarryMonotoneHeightsAndFinality) {
  ChainRun run(GetChainParams("quorum"), "testnet", 9);
  run.SubmitTransfers(100, 5, 50);
  run.Run(30);

  ChainContext& ctx = run.chain->context();
  const Ledger& ledger = ctx.ledger();
  ASSERT_GT(ledger.block_count(), 1u);
  uint64_t prev_height = 0;
  SimTime prev_final = -1;
  size_t ledger_txs = 0;
  for (size_t i = 0; i < ledger.block_count(); ++i) {
    const Block& block = ledger.block(i);
    EXPECT_GT(block.height, prev_height);
    EXPECT_GE(block.finalized_at, block.proposed_at);
    EXPECT_GE(block.finalized_at, prev_final);
    EXPECT_GE(block.bytes, kBlockHeaderBytes);
    prev_height = block.height;
    prev_final = block.finalized_at;
    ledger_txs += block.tx_count;
  }
  EXPECT_EQ(ledger_txs, ctx.stats().txs_committed);
}

TEST(ResultsRoundTripTest, CsvFileMatchesStore) {
  const std::string path = "/tmp/diablo_test_results.csv";
  TxStore txs;
  for (int i = 0; i < 10; ++i) {
    Transaction tx;
    tx.submit_time = Seconds(i);
    tx.commit_time = Seconds(i) + Milliseconds(1500);
    tx.phase = i % 3 == 0 ? TxPhase::kDropped : TxPhase::kCommitted;
    txs.Add(tx);
  }
  ASSERT_TRUE(WriteResultsCsvFile(path, txs));
  std::ifstream file(path);
  std::string line;
  std::getline(file, line);
  EXPECT_EQ(line, "submit_time,latency,status");
  size_t rows = 0;
  size_t dropped = 0;
  while (std::getline(file, line)) {
    ++rows;
    if (line.find("dropped") != std::string::npos) {
      ++dropped;
    }
  }
  EXPECT_EQ(rows, 10u);
  EXPECT_EQ(dropped, 4u);
  std::remove(path.c_str());
}

TEST(SecondaryAccountingTest, SchedulesAndSubmitsEverything) {
  ChainRun run(GetChainParams("solana"), "testnet", 4);
  ResourceSpec accounts_spec;
  accounts_spec.kind = ResourceSpec::Kind::kAccounts;
  accounts_spec.account_count = 10;
  Resource accounts;
  run.connector.CreateResource(accounts_spec, &accounts);

  Secondary secondary(0, Region::kOhio, &run.sim,
                      run.connector.CreateClient(Region::kOhio, {0}));
  for (int i = 0; i < 50; ++i) {
    const TxId id = run.connector.Encode(InteractionSpec{}, accounts,
                                         Milliseconds(100 * i));
    secondary.Assign(Milliseconds(100 * i), id);
  }
  secondary.Start();
  run.sim.RunUntil(Seconds(10));
  // Every transaction reached its endpoint.
  const TxStore& txs = run.chain->context().txs();
  ASSERT_EQ(txs.size(), 50u);
  for (TxId id = 0; id < txs.size(); ++id) {
    EXPECT_NE(txs.at(id).phase, TxPhase::kCreated) << id;
  }
  EXPECT_EQ(secondary.behind_schedule(), 0u);
}

// Records what a Secondary triggers, in order.
class RecordingClient : public BlockchainClient {
 public:
  explicit RecordingClient(std::vector<std::pair<SimTime, TxId>>* log) : log_(log) {}
  void Trigger(TxId encoded, SimTime submit_time) override {
    log_->emplace_back(submit_time, encoded);
  }

 private:
  std::vector<std::pair<SimTime, TxId>>* log_;
};

TEST(SecondaryAccountingTest, SubmitsInTimeOrderWhateverTheAssignmentOrder) {
  // Start sorts a schedule that is not strictly increasing, as two streams
  // sharing a Secondary give it, and leaves a strictly increasing one as it
  // is. Either way every transaction is triggered once, in time order.
  Simulation sim(4);
  std::vector<std::pair<SimTime, TxId>> log;
  Secondary mixed(0, Region::kOhio, &sim, std::make_unique<RecordingClient>(&log));
  const SimTime times[] = {Milliseconds(2500), Milliseconds(100), Milliseconds(1900),
                           Milliseconds(100), Milliseconds(2400), Milliseconds(0)};
  for (TxId id = 0; id < 6; ++id) {
    mixed.Assign(times[id], id);
  }
  mixed.Start();
  sim.RunUntil(Seconds(5));
  ASSERT_EQ(log.size(), 6u);
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].first, log[i].first) << "trigger " << i;
  }
  for (const auto& [time, id] : log) {
    EXPECT_EQ(time, times[id]);
  }

  Simulation sim2(4);
  std::vector<std::pair<SimTime, TxId>> sorted_log;
  Secondary sorted(1, Region::kOhio, &sim2,
                   std::make_unique<RecordingClient>(&sorted_log));
  sorted.Reserve(4);
  for (TxId id = 0; id < 4; ++id) {
    sorted.Assign(Milliseconds(700 * static_cast<int64_t>(id)), id);
  }
  sorted.Start();
  sim2.RunUntil(Seconds(5));
  ASSERT_EQ(sorted_log.size(), 4u);
  for (TxId id = 0; id < 4; ++id) {
    EXPECT_EQ(sorted_log[id].second, id);
  }
  EXPECT_EQ(sorted.behind_schedule(), 0u);
}

}  // namespace
}  // namespace diablo
