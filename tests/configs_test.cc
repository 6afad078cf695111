// The shipped configuration files (configs/) must stay parseable and
// runnable — they are the artifact's workload-native-10 / workload-contract
// experiments (§A.3/§A.4) plus the paper's §4 example.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/config/spec.h"
#include "src/core/primary.h"
#include "src/core/runner.h"
#include "src/crypto/sha256.h"
#include "src/support/check.h"
#include "src/workload/trace.h"

namespace diablo {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// tests/CMakeLists.txt sets DIABLO_CONFIG_DIR to the repository's configs/.
std::string ConfigPath(const std::string& name) {
  return std::string(DIABLO_CONFIG_DIR) + "/" + name;
}

class ShippedConfigTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ShippedConfigTest, ParsesAndAggregates) {
  const SpecResult result = ParseWorkloadSpec(ReadFile(ConfigPath(GetParam())));
  ASSERT_TRUE(result.ok) << GetParam() << ": " << result.error;
  ASSERT_FALSE(result.spec.groups.empty());
  for (const WorkloadGroup& group : result.spec.groups) {
    ASSERT_FALSE(group.behaviors.empty());
    for (const ClientBehavior& behavior : group.behaviors) {
      EXPECT_GT(behavior.Ramp(group.clients).TotalTxs(), 0.0) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFiles, ShippedConfigTest,
                         ::testing::Values("workload-native-10.yaml",
                                           "workload-native-100.yaml",
                                           "workload-native-10000.yaml",
                                           "workload-contract-10.yaml",
                                           "workload-dota.yaml",
                                           "workload-uber.yaml",
                                           "workload-faults.yaml",
                                           "workload-byzantine.yaml"));

TEST(ShippedConfigTest, ArtifactExperimentE1RunsAtBothRates) {
  // E1 (§A.4): the 10 TPS and 100 TPS native workloads produce different
  // results on the same chain — the experimental setting matters.
  BenchmarkSetup setup;
  setup.chain = "algorand";
  setup.deployment = "testnet";
  Primary primary(setup);

  const SpecResult ten =
      ParseWorkloadSpec(ReadFile(ConfigPath("workload-native-10.yaml")));
  const SpecResult hundred =
      ParseWorkloadSpec(ReadFile(ConfigPath("workload-native-100.yaml")));
  ASSERT_TRUE(ten.ok && hundred.ok);
  const RunResult low = primary.RunSpec(ten.spec);
  const RunResult high = primary.RunSpec(hundred.spec);
  EXPECT_EQ(low.report.submitted, 300u);
  EXPECT_EQ(high.report.submitted, 3000u);
  EXPECT_GT(high.report.avg_throughput, 2.0 * low.report.avg_throughput);
}

TEST(ShippedConfigTest, ArtifactExperimentE2BudgetExceeded) {
  // E2 (§A.4): the Uber workload fails with "budget exceeded" on Solana.
  const SpecResult spec =
      ParseWorkloadSpec(ReadFile(ConfigPath("workload-uber.yaml")));
  ASSERT_TRUE(spec.ok) << spec.error;
  BenchmarkSetup setup;
  setup.chain = "solana";
  setup.deployment = "testnet";
  setup.scale = 0.02;
  Primary primary(setup);
  const RunResult result = primary.RunSpec(spec.spec);
  EXPECT_EQ(result.failure_reason, "budget exceeded");
  EXPECT_EQ(result.report.committed, 0u);
}

TEST(ShippedConfigTest, FaultWorkloadRunsEndToEnd) {
  // The shipped fault scenario parses, adopts its schedule into the run,
  // and reports resilience metrics for both heal instants.
  const SpecResult spec =
      ParseWorkloadSpec(ReadFile(ConfigPath("workload-faults.yaml")));
  ASSERT_TRUE(spec.ok) << spec.error;
  ASSERT_EQ(spec.spec.faults.events.size(), 3u);
  BenchmarkSetup setup;
  setup.chain = "quorum";
  setup.deployment = "testnet";
  setup.retry.max_attempts = 3;
  setup.retry.timeout = Seconds(1);
  Primary primary(setup);
  const RunResult result = primary.RunSpec(spec.spec);
  ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
  EXPECT_TRUE(result.report.resilience);
  EXPECT_GT(result.report.committed, 0u);
  // crash restart @25, partition heal @45, loss window end @55.
  ASSERT_EQ(result.report.recoveries.size(), 3u);
  EXPECT_GE(result.report.recoveries[0], 0.0);
  EXPECT_GE(result.report.recoveries[1], 0.0);
  EXPECT_GE(result.report.recoveries[2], 0.0);
}

TEST(ShippedConfigTest, ByzantineWorkloadRunsEndToEnd) {
  // The shipped Byzantine scenario parses, arms its adversaries, and
  // reports the malicious-behavior evidence counters — while the chain
  // keeps committing (the adversaries here are always a minority).
  const SpecResult spec =
      ParseWorkloadSpec(ReadFile(ConfigPath("workload-byzantine.yaml")));
  ASSERT_TRUE(spec.ok) << spec.error;
  ASSERT_EQ(spec.spec.faults.events.size(), 4u);
  for (const FaultEvent& event : spec.spec.faults.events) {
    EXPECT_TRUE(IsByzantine(event.kind)) << FaultKindName(event.kind);
  }
  BenchmarkSetup setup;
  setup.chain = "quorum";
  setup.deployment = "testnet";
  setup.retry.max_attempts = 3;
  setup.retry.timeout = Seconds(1);
  Primary primary(setup);
  const RunResult result = primary.RunSpec(spec.spec);
  ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
  EXPECT_TRUE(result.report.byzantine);
  EXPECT_GT(result.report.committed, 0u);
  // The equivocating leader forced view changes; the double-voting window
  // left evidence; the censor and lazy windows touched transactions.
  EXPECT_GT(result.report.equivocations_seen, 0u);
  EXPECT_GT(result.report.double_votes_seen, 0u);
  EXPECT_GT(result.report.txs_censored, 0u);
  EXPECT_GT(result.report.lazy_proposals, 0u);
}

TEST(ShippedConfigTest, ByzantineGoldenReportIsStable) {
  // The rendered report of the shipped Byzantine scenario is pinned: the
  // adversary resolution, every defense path, and the evidence counters
  // are deterministic, and the checked build's safety invariant must not
  // perturb any of it (the same constant holds with kCheckedBuild on).
  const SpecResult spec =
      ParseWorkloadSpec(ReadFile(ConfigPath("workload-byzantine.yaml")));
  ASSERT_TRUE(spec.ok) << spec.error;
  BenchmarkSetup setup;
  setup.chain = "quorum";
  setup.deployment = "testnet";
  setup.retry.max_attempts = 3;
  setup.retry.timeout = Seconds(1);
  Primary primary(setup);
  const RunResult result = primary.RunSpec(spec.spec);
  ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
  const std::string digest = DigestHex(Sha256Digest(result.report.ToText()));
  EXPECT_EQ(digest,
            "4437e9586a1e3d357b829327b7c70e89e9ceaaa52d4083504786957309a57944")
      << "Byzantine report text changed; if intentional, update the golden "
         "hash (kCheckedBuild=" << kCheckedBuild << ")";
}

TEST(ShippedConfigTest, CheckedBuildDoesNotPerturbResults) {
  // The DIABLO_CHECKED invariants must be pure observers: the rendered
  // report of a reference run hashes to the same constant whether or not the
  // checks are compiled in. The constant below was produced by an unchecked
  // build; a checked build runs this same test and must reproduce it, so any
  // check that draws from an Rng, reorders events, or mutates state breaks
  // this test in exactly one of the two CI configurations.
  const SpecResult spec =
      ParseWorkloadSpec(ReadFile(ConfigPath("workload-native-10.yaml")));
  ASSERT_TRUE(spec.ok) << spec.error;
  BenchmarkSetup setup;
  setup.chain = "algorand";
  setup.deployment = "testnet";
  Primary primary(setup);
  const RunResult result = primary.RunSpec(spec.spec);
  ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
  const std::string digest = DigestHex(Sha256Digest(result.report.ToText()));
  EXPECT_EQ(digest,
            "a59ebe9091ff08e84e38855b5b020655604cb9872ab61a82f73f493f1aca56cb")
      << "report text changed; if intentional, update the golden hash "
         "(kCheckedBuild=" << kCheckedBuild << ")";
}

TEST(ShippedConfigTest, ConsortiumGoldenReportsAreStable) {
  // The goldens above run testnet (10 nodes in one region), where no vote
  // selection sees more than ten arrivals and none reaches the bucket step.
  // These pin the 200-node, 10-region dense vote plane behind the paper's
  // consortium results: IBFT, DBFT and dense BA* rounds over a 200×200 delay
  // matrix. Each hash was produced by an unchecked build and must hold with
  // kCheckedBuild on.
  struct Golden {
    const char* chain;
    const char* digest;
  };
  const Golden goldens[] = {
      {"quorum", "38636dbad5bf6e2738671a8f01ddb364be28ddd4869e5a6af90916d14fabc075"},
      {"redbelly", "19a3e1f8aa5fc9dd96bb294d9d0e30c59943f0c3b8006d769783e2bdb61616bc"},
      {"algorand", "35af7b70f888cd04d6cada91c5c9a3307619fa9af139d6176890a3913bc7d67d"},
  };
  for (const Golden& golden : goldens) {
    const RunResult result =
        RunNativeBenchmark(golden.chain, "consortium", /*tps=*/100, /*seconds=*/20);
    ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
    EXPECT_GT(result.report.committed, 0u) << golden.chain;
    EXPECT_EQ(DigestHex(Sha256Digest(result.report.ToText())), golden.digest)
        << golden.chain << " consortium report text changed; if intentional, "
        << "update the golden hash (kCheckedBuild=" << kCheckedBuild << ")";
  }
}

TEST(DappGoldenTest, SmallDappCellsAreStable) {
  // The goldens above run native transfers only. These pin small DApp cells
  // across the four VM dialects (geth, Move, AVM, eBPF): the exchange mix's
  // five functions, one NASDAQ stock, Uber's per-call arguments, the
  // YouTube upload payload and the budget failures. Each hash was produced
  // by the per-call encoder, before the call table, and must hold with
  // kCheckedBuild on.
  struct Golden {
    const char* chain;
    const char* dapp;
    double scale;
    const char* digest;
  };
  const Golden goldens[] = {
      {"quorum", "exchange", 0.05, "62829b606d3151727bce60c9329feff0a6075c554b87f321ca34e515ea2599c2"},
      {"quorum", "dota", 0.005, "a84e8271a3f53c93f476b10bdeb9e13cb7cd4826cca7ed7d262d40a51d008532"},
      {"quorum", "fifa", 0.02, "e3dfcab8c004e854a117ddb5683967a2f75c838e086f995a53325fc4e59c2bdf"},
      {"quorum", "uber", 0.05, "9ab9bd2a31627e7c949d2519a3b3acdebcc9b5b87228117aa4cc4e83d4190984"},
      {"quorum", "youtube", 0.005, "37486027b6958f05be9e89a8f3e89408dd8a11cef9b3ebf7ef1188f95dbfe403"},
      {"quorum", "apple", 0.05, "f093f540d92c10898e17da668bdd842b34f371d3c53d6a056bacee3c3dacbe0b"},
      {"diem", "exchange", 0.05, "ac9e1c4a14906e42b6fb4d28a9d5e650ccc3af2a4d5f6ef8a6c1cc55dcf969d6"},
      {"diem", "uber", 0.05, "22db29edc2c6f9314e86abcfec5a229c5e28fc1d9f4196ab6e7eba973d52a8be"},
      {"algorand", "dota", 0.005, "58d41045f7dc3c5ae3db852a43f655aeb84179626a2fbc215119fd7512c33e07"},
      {"solana", "youtube", 0.005, "e79fc29b904ce2b815c776f6230534c19e05bb0b8c79e2ef11eb25fab6588f49"},
      {"avalanche", "fifa", 0.02, "7801b80d92e17ed8f83baceb50a94497ad2b41143b59b4f1b1559c4d42ec5402"},
  };
  for (const Golden& golden : goldens) {
    const RunResult result =
        RunDappBenchmark(golden.chain, "testnet", golden.dapp, /*seed=*/1, golden.scale);
    EXPECT_GT(result.report.submitted, 0u) << golden.chain << "/" << golden.dapp;
    const std::string text = result.report.ToText() + result.failure_reason;
    EXPECT_EQ(DigestHex(Sha256Digest(text)), golden.digest)
        << golden.chain << "/" << golden.dapp << " report text changed; if "
        << "intentional, update the golden hash (kCheckedBuild=" << kCheckedBuild << ")";
  }
}

TEST(DappGoldenTest, StreamsSharingSecondariesAreStable) {
  // Two streams on the default Secondaries: the exchange mix and native
  // transfers whose submit times tie with it every 200 ms. Each Secondary's
  // schedule interleaves them, so Start sorts it, and the order the sort
  // leaves tied entries in decides which submission draws jitter first.
  // The hash was produced before Start learned to skip sorted schedules.
  BenchmarkSetup setup;
  setup.chain = "quorum";
  setup.deployment = "testnet";
  Primary primary(setup);
  WorkStream exchange;
  exchange.workload = GetDappWorkload("exchange");
  exchange.workload.trace = ConstantTrace(40, 20);
  WorkStream native;
  native.workload.trace = ConstantTrace(25, 20);
  const RunResult result = primary.RunStreams({exchange, native}, "shared");
  ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
  EXPECT_EQ(result.report.submitted, 800u + 500u);
  EXPECT_EQ(DigestHex(Sha256Digest(result.report.ToText())),
            "2c2b8fc8f9deb28148ababb727749729e1480e5fe02546862637b853adb9a64a")
      << "shared-secondary report text changed; if intentional, update the "
      << "golden hash (kCheckedBuild=" << kCheckedBuild << ")";
}

// Pins the round flow each engine shares: view changes, abandoned rounds,
// equivocation and withholding, and (for the leaderless chains) the
// representative proposer. One testnet schedule for all seven chains: a
// crash long enough to hit every rotation's turn, a minority partition, a
// loss window, then an equivocator and a withholder. It arms no lazy,
// censor or straggler window. Each hash was produced by an unchecked build
// and must hold with kCheckedBuild on.
TEST(EngineGoldenTest, FaultAndByzantinePathsAreStable) {
  const FaultSchedule faults = FaultScheduleBuilder()
                                   .Crash(1, Seconds(4), Seconds(20))
                                   .Partition({7, 8}, Seconds(8), Seconds(16))
                                   .Loss(0.05, Seconds(10), Seconds(18))
                                   .Equivocate({2}, Seconds(14), Seconds(24))
                                   .WithholdVotes({3}, Seconds(14), Seconds(24))
                                   .Build();
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.timeout = Seconds(1);
  struct Golden {
    const char* chain;
    const char* digest;
  };
  const Golden goldens[] = {
      {"algorand", "98c13c1e1ee0bf3ab57a6781e3e14a90facd0dd4f474d4d7b1cae880da5504a0"},
      {"avalanche", "a5f4c9a19c37ea4945570295a8fb3663e2b0a4bdfa625b74ffded5db66589f0b"},
      {"diem", "3055dcf23bee86a0d18cd4adbfe6261102a351c9e7899225ae2e12645a6d5c0d"},
      {"ethereum", "7858b801a91c61bde4fe6419b4c0e656eb2b83ea4431e0f57e426b0d7e2cf7d3"},
      {"quorum", "eb13e1a2a185a5f8d00e55954006f1fbf43b9e0042556b8689b26865bd7e00ac"},
      {"redbelly", "aca83af994086847bca41bfb2364ffd151e9fc51250fc4c5226bf8fd415c18d7"},
      {"solana", "2202c1c0d80f3dceea57600a9883fd3ad506505b2ba7015da66b9dd6ad3826c1"},
  };
  for (const Golden& golden : goldens) {
    const RunResult result = RunFaultBenchmark(golden.chain, "testnet", /*tps=*/100,
                                               /*seconds=*/30, faults, retry);
    ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
    EXPECT_TRUE(result.report.byzantine) << golden.chain;
    EXPECT_EQ(DigestHex(Sha256Digest(result.report.ToText())), golden.digest)
        << golden.chain << " fault report text changed; if intentional, update "
        << "the golden hash (kCheckedBuild=" << kCheckedBuild << ")";
  }
}

TEST(EngineGoldenTest, OverloadViewChangesAreStable) {
  // QuorumTest.CollapsesUnderSustainedOverload's scaled-down pool scan, at
  // a rate above both chains' 100-transaction blocks: the leader cannot scan
  // the pool within the round timeout, so IBFT backs off exponentially and
  // HotStuff's pacemaker times out.
  struct Golden {
    const char* chain;
    const char* digest;
  };
  const Golden goldens[] = {
      {"quorum", "0cf4004b038075251e1ab26b99e12dc7a3b20873e1c51c0c317edae78a260842"},
      {"diem", "5372c3e018ef92f5df8a2bc461bf1dfcfc12bfb1f8c79bc63a81b2f66d0fe714"},
  };
  for (const Golden& golden : goldens) {
    ChainParams params = GetChainParams(golden.chain);
    params.proposal_overhead_per_pending_tx = Milliseconds(2);
    params.round_timeout = Seconds(2);
    params.max_block_txs = 100;
    BenchmarkSetup setup;
    setup.chain = golden.chain;
    setup.params = params;
    Primary primary(setup);
    const RunResult result = primary.RunNative(ConstantTrace(2000, 20));
    ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
    EXPECT_GT(result.chain_stats.view_changes, 0u) << golden.chain;
    EXPECT_EQ(DigestHex(Sha256Digest(result.report.ToText())), golden.digest)
        << golden.chain << " overload report text changed; if intentional, "
        << "update the golden hash (kCheckedBuild=" << kCheckedBuild << ")";
  }
}

TEST(EngineGoldenTest, StreamedVotePlanesAreStable) {
  // 1,000 validators: the streamed delay model, BA*'s committee-sampled
  // steps and HotStuff's single-receiver certificate.
  struct Golden {
    const char* chain;
    const char* digest;
  };
  const Golden goldens[] = {
      {"algorand", "2a61ddd77a422b8315fdb6359b62f9c30ee3c19f1ab41b3feb123cfbc5272a0b"},
      {"diem", "a9dd5185ec7b08e1cd11b7289157d6d74194a5b85aee061e04a5806393db753c"},
  };
  for (const Golden& golden : goldens) {
    const RunResult result =
        RunNativeBenchmark(golden.chain, "xl-1000", /*tps=*/100, /*seconds=*/10);
    ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
    EXPECT_GT(result.report.committed, 0u) << golden.chain;
    EXPECT_EQ(DigestHex(Sha256Digest(result.report.ToText())), golden.digest)
        << golden.chain << " xl-1000 report text changed; if intentional, "
        << "update the golden hash (kCheckedBuild=" << kCheckedBuild << ")";
  }
}

}  // namespace
}  // namespace diablo
