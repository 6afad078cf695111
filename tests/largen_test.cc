// fig3-XL locks: the streamed large-N delay model against the dense matrix
// path, bitset vote tracking against vector-based counting under every
// engine's quorum rule, the SoA ValidatorTable, the xl-<n> deployments, and
// the 10k-validator memory budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/chain/validator_table.h"
#include "src/chain/vote_round.h"
#include "src/chains/chain_factory.h"
#include "src/core/runner.h"
#include "src/net/deployment.h"
#include "src/net/network.h"
#include "src/support/rng.h"

namespace diablo {
namespace {

// --- xl deployments ---------------------------------------------------------

TEST(XlDeploymentTest, ParsesValidatorCount) {
  const DeploymentConfig xl = GetDeployment("xl-10000");
  EXPECT_EQ(xl.name, "xl-10000");
  EXPECT_EQ(xl.node_count, 10000);
  EXPECT_EQ(xl.machine.vcpus, 4);
  EXPECT_EQ(xl.regions.size(), static_cast<size_t>(kRegionCount));
  EXPECT_EQ(GetDeployment("XL-1000").node_count, 1000);
}

TEST(XlDeploymentTest, RejectsMalformedCounts) {
  EXPECT_THROW(GetDeployment("xl-"), std::invalid_argument);
  EXPECT_THROW(GetDeployment("xl-abc"), std::invalid_argument);
  EXPECT_THROW(GetDeployment("xl-0"), std::invalid_argument);
  EXPECT_THROW(GetDeployment("xl--5"), std::invalid_argument);
  EXPECT_THROW(GetDeployment("xl-2000000"), std::invalid_argument);
}

TEST(XlDeploymentTest, PairwiseOverflowPredicate) {
  EXPECT_FALSE(PairwiseDelayCountOverflows(0));
  EXPECT_FALSE(PairwiseDelayCountOverflows(1));
  EXPECT_FALSE(PairwiseDelayCountOverflows(100000));
  // 2^32 squared wraps a 64-bit size_t; anything at or past it must trip.
  EXPECT_TRUE(PairwiseDelayCountOverflows(size_t{1} << 32));
  EXPECT_TRUE(PairwiseDelayCountOverflows(std::numeric_limits<size_t>::max()));
}

// --- streamed delay model ---------------------------------------------------

std::vector<HostId> MakeHosts(Network* net, const DeploymentConfig& deployment) {
  std::vector<HostId> hosts;
  for (int i = 0; i < deployment.node_count; ++i) {
    hosts.push_back(net->AddHost(deployment.NodeRegion(i)));
  }
  return hosts;
}

DeploymentConfig SmallXl(int n) {
  DeploymentConfig d = GetDeployment("devnet");
  d.node_count = n;
  return d;
}

TEST(StreamedDelaysTest, PureFunctionOfThePair) {
  Simulation sim(7);
  Network net(&sim, 0.05);
  const std::vector<HostId> hosts = MakeHosts(&net, SmallXl(40));
  StreamedDelays model(&net, hosts, 256);
  ASSERT_EQ(model.size(), hosts.size());
  for (size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_EQ(model.at(i, i), 0);
    for (size_t j = 0; j < hosts.size(); ++j) {
      if (i == j) {
        continue;
      }
      const SimDuration d = model.at(i, j);
      EXPECT_GT(d, 0) << i << "," << j;
      // Random access is a pure function: asking again gives the same delay.
      EXPECT_EQ(model.at(i, j), d);
    }
  }
}

TEST(StreamedDelaysTest, PartitionSnapshotIsUnreachable) {
  Simulation sim(7);
  Network net(&sim, 0.05);
  const std::vector<HostId> hosts = MakeHosts(&net, SmallXl(10));
  net.SetPartitioned(hosts[3], true);
  StreamedDelays model(&net, hosts, 256);
  for (size_t j = 0; j < hosts.size(); ++j) {
    if (j == 3) {
      continue;
    }
    EXPECT_EQ(model.at(3, j), kUnreachable);
    EXPECT_EQ(model.at(j, 3), kUnreachable);
  }
  EXPECT_NE(model.at(0, 1), kUnreachable);
}

TEST(StreamedDelaysTest, ApproxBytesIsLinear) {
  Simulation sim(7);
  Network net(&sim, 0.05);
  const std::vector<HostId> hosts = MakeHosts(&net, SmallXl(600));
  StreamedDelays model(&net, hosts, 256);
  // Two bytes of per-host state plus the fixed region-pair table.
  EXPECT_LE(model.ApproxBytes(), 8 * hosts.size() + sizeof(StreamedDelays) + 1024);
}

// Materialises a streamed model into a dense PairwiseDelays with identical
// entries, so dense kernels can serve as the reference for streamed ones.
PairwiseDelays Materialize(const StreamedDelays& model) {
  const size_t n = model.size();
  std::vector<SimDuration> dense(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      dense[i * n + j] = model.at(i, j);
    }
  }
  return PairwiseDelays(n, dense);
}

TEST(StreamedQuorumTest, MatchesDenseKernelOverMaterializedMatrix) {
  Simulation sim(11);
  Network net(&sim, 0.05);
  const std::vector<HostId> hosts = MakeHosts(&net, SmallXl(80));
  StreamedDelays model(&net, hosts, 256);
  const PairwiseDelays dense = Materialize(model);

  Rng rng(42);
  const size_t n = hosts.size();
  MessagePlaneScratch dense_scratch;
  MessagePlaneScratch streamed_scratch;
  for (int round = 0; round < 50; ++round) {
    std::vector<SimDuration> sends(n);
    for (size_t j = 0; j < n; ++j) {
      sends[j] = rng.NextBelow(10) == 0
                     ? kUnreachable
                     : static_cast<SimDuration>(rng.NextBelow(Milliseconds(50)));
    }
    const double hop_scale = (round % 3 == 0) ? 1.0 : (round % 3 == 1) ? 2.0 : 1.5;
    for (const size_t quorum : {size_t{1}, n / 3, 2 * n / 3, n}) {
      for (const size_t receiver : {size_t{0}, n / 2, n - 1}) {
        const SimDuration want = QuorumArrivalInto(dense, sends, receiver, quorum,
                                                   hop_scale, &dense_scratch);
        const SimDuration got =
            QuorumArrivalLargeN(model, nullptr, sends.data(), n, receiver, quorum,
                                hop_scale, &streamed_scratch);
        ASSERT_EQ(got, want) << "round " << round << " q " << quorum << " r "
                             << receiver << " scale " << hop_scale;
      }
    }
  }
}

TEST(StreamedQuorumTest, SenderListFormMatchesExpandedForm) {
  Simulation sim(13);
  Network net(&sim, 0.05);
  const std::vector<HostId> hosts = MakeHosts(&net, SmallXl(70));
  StreamedDelays model(&net, hosts, 256);

  Rng rng(7);
  const size_t n = hosts.size();
  MessagePlaneScratch scratch_a;
  MessagePlaneScratch scratch_b;
  for (int round = 0; round < 30; ++round) {
    // A sorted unique committee, the shape sortition produces.
    std::vector<uint32_t> committee;
    std::vector<SimDuration> times;
    std::vector<SimDuration> expanded(n, kUnreachable);
    for (uint32_t i = 0; i < n; ++i) {
      if (rng.NextBelow(3) == 0) {
        const SimDuration t = static_cast<SimDuration>(rng.NextBelow(Seconds(1)));
        committee.push_back(i);
        times.push_back(t);
        expanded[i] = t;
      }
    }
    if (committee.empty()) {
      continue;
    }
    const size_t quorum = 1 + committee.size() / 2;
    for (const size_t receiver : {size_t{0}, n - 1}) {
      const SimDuration want = QuorumArrivalLargeN(model, nullptr, expanded.data(), n,
                                                   receiver, quorum, 2.0, &scratch_a);
      const SimDuration got =
          QuorumArrivalLargeN(model, committee.data(), times.data(),
                              committee.size(), receiver, quorum, 2.0, &scratch_b);
      ASSERT_EQ(got, want) << "round " << round << " r " << receiver;
    }
  }
}

// --- VoteDelays facade -------------------------------------------------------

TEST(VoteDelaysTest, RepresentationFollowsThreshold) {
  Simulation sim(3);
  Network net(&sim, 0.05);
  const std::vector<HostId> hosts = MakeHosts(&net, SmallXl(20));
  const VoteDelays dense(&net, hosts, 256, /*dense_threshold=*/21);
  EXPECT_TRUE(dense.dense());
  Simulation sim2(3);
  Network net2(&sim2, 0.05);
  const std::vector<HostId> hosts2 = MakeHosts(&net2, SmallXl(20));
  const VoteDelays streamed(&net2, hosts2, 256, /*dense_threshold=*/20);
  EXPECT_FALSE(streamed.dense());
  EXPECT_EQ(dense.size(), streamed.size());
  // The streamed plane is orders of magnitude smaller even at toy scale.
  EXPECT_LT(streamed.ApproxBytes(), dense.ApproxBytes());
}

TEST(VoteDelaysTest, DenseFacadeForwardsBitIdentically) {
  // Two networks with the same seed draw the same matrix; the facade must
  // return exactly what the direct dense kernels return.
  Simulation sim_a(17);
  Network net_a(&sim_a, 0.05);
  const std::vector<HostId> hosts_a = MakeHosts(&net_a, SmallXl(30));
  const PairwiseDelays direct(&net_a, hosts_a, 256);
  Simulation sim_b(17);
  Network net_b(&sim_b, 0.05);
  const std::vector<HostId> hosts_b = MakeHosts(&net_b, SmallXl(30));
  const VoteDelays facade(&net_b, hosts_b, 256);
  ASSERT_TRUE(facade.dense());

  Rng rng(5);
  const size_t n = hosts_a.size();
  MessagePlaneScratch scratch_direct;
  MessagePlaneScratch scratch_facade;
  std::vector<SimDuration> all_direct;
  std::vector<SimDuration> all_facade;
  for (int round = 0; round < 20; ++round) {
    std::vector<SimDuration> sends(n);
    for (size_t j = 0; j < n; ++j) {
      sends[j] = static_cast<SimDuration>(rng.NextBelow(Milliseconds(20)));
    }
    const size_t quorum = 2 * n / 3;
    ASSERT_EQ(QuorumArrivalInto(facade, sends, 0, quorum, 1.0, &scratch_facade),
              QuorumArrivalInto(direct, sends, 0, quorum, 1.0, &scratch_direct));
    QuorumArrivalAllInto(direct, sends, quorum, 1.0, &scratch_direct, &all_direct);
    QuorumArrivalAllInto(facade, sends, quorum, 1.0, &scratch_facade, &all_facade);
    ASSERT_EQ(all_facade, all_direct);
  }
}

TEST(VoteDelaysTest, CommitteeKernelMatchesFullKernel) {
  Simulation sim(23);
  Network net(&sim, 0.05);
  const std::vector<HostId> hosts = MakeHosts(&net, SmallXl(60));
  const VoteDelays delays(&net, hosts, 256, /*dense_threshold=*/1);
  const size_t n = hosts.size();

  Rng rng(9);
  MessagePlaneScratch scratch;
  std::vector<SimDuration> committee_result;
  for (int round = 0; round < 10; ++round) {
    std::vector<uint32_t> committee;
    std::vector<SimDuration> times;
    std::vector<SimDuration> expanded(n, kUnreachable);
    for (uint32_t i = 0; i < n; ++i) {
      if (rng.NextBelow(2) == 0) {
        const SimDuration t =
            static_cast<SimDuration>(rng.NextBelow(Milliseconds(100)));
        committee.push_back(i);
        times.push_back(t);
        expanded[i] = t;
      }
    }
    if (committee.size() < 2) {
      continue;
    }
    // Receivers with a duplicate, which the kernel must compute once.
    std::vector<uint32_t> receivers = {0, static_cast<uint32_t>(n - 1),
                                       committee[0], 0};
    const size_t quorum = 1 + committee.size() / 2;
    QuorumArrivalCommitteeInto(delays.streamed(), committee, times, receivers, n,
                               quorum, 1.5, &scratch, &committee_result);
    ASSERT_EQ(committee_result.size(), n);
    std::vector<bool> listed(n, false);
    for (const uint32_t r : receivers) {
      listed[r] = true;
    }
    MessagePlaneScratch reference_scratch;
    for (size_t r = 0; r < n; ++r) {
      if (!listed[r]) {
        ASSERT_EQ(committee_result[r], kUnreachable);
        continue;
      }
      const SimDuration want =
          QuorumArrivalInto(delays, expanded, r, quorum, 1.5, &reference_scratch);
      ASSERT_EQ(committee_result[r], want) << "receiver " << r;
    }
  }
}

// Exercises the facade's streamed path enough times to hit the checked-build
// sampled cross-check cadence (every 257th selection through one scratch),
// so a DIABLO_CHECKED test run replays streamed answers through the dense
// matrix path.
TEST(VoteDelaysTest, StreamedFacadeSurvivesCheckedCrossCheckCadence) {
  Simulation sim(29);
  Network net(&sim, 0.05);
  const std::vector<HostId> hosts = MakeHosts(&net, SmallXl(40));
  const VoteDelays delays(&net, hosts, 256, /*dense_threshold=*/1);
  ASSERT_FALSE(delays.dense());
  const size_t n = hosts.size();
  Rng rng(31);
  MessagePlaneScratch scratch;
  std::vector<SimDuration> sends(n);
  for (int round = 0; round < 600; ++round) {
    for (size_t j = 0; j < n; ++j) {
      sends[j] = static_cast<SimDuration>(rng.NextBelow(Milliseconds(30)));
    }
    const SimDuration got =
        QuorumArrivalInto(delays, sends, round % n, 2 * n / 3, 1.0, &scratch);
    ASSERT_NE(got, kUnreachable);
  }
}

// --- bitset vote tracking ----------------------------------------------------

// One voter set per engine, of the size its quorum rule counts votes over.
// VoteBitset must agree with a plain vector over each of them.
struct QuorumRule {
  const char* engine;
  size_t n;
};

std::vector<QuorumRule> AllEngineRules() {
  return {
      {"hotstuff", 100},
      {"ibft", 40},
      {"dbft", 52},
      // BA* soft/cert votes over an expected committee of 60.
      {"algorand", 60},
      // A k=20 sample.
      {"avalanche", 20},
      // The signer set.
      {"clique", 30},
      // Stake-weighted voters.
      {"solana", 150},
  };
}

TEST(VoteBitsetTest, MatchesVectorCountingUnderEveryEngineRule) {
  for (const QuorumRule& rule : AllEngineRules()) {
    Rng rng(0x5eedULL ^ rule.n);
    VoteBitset bits;
    bits.Reset(rule.n);
    std::vector<uint8_t> reference(rule.n, 0);
    for (int op = 0; op < 2000; ++op) {
      const size_t who = rng.NextBelow(rule.n);
      if (rng.NextBelow(5) == 0) {
        bits.Clear(who);
        reference[who] = 0;
      } else {
        const bool fresh = bits.Set(who);
        ASSERT_EQ(fresh, reference[who] == 0) << rule.engine;
        reference[who] = 1;
      }
      const size_t count = static_cast<size_t>(
          std::count(reference.begin(), reference.end(), uint8_t{1}));
      ASSERT_EQ(bits.Count(), count) << rule.engine << " after op " << op;
      ASSERT_TRUE(bits.Test(who) == (reference[who] != 0));
    }
    // Reset drops everything and keeps working.
    bits.Reset(rule.n);
    EXPECT_EQ(bits.Count(), 0u);
  }
}

TEST(VoteBitsetTest, AssignAndBoundaryBits) {
  VoteBitset bits;
  bits.Reset(65);  // straddles a word boundary
  bits.Assign(0, true);
  bits.Assign(63, true);
  bits.Assign(64, true);
  EXPECT_EQ(bits.Count(), 3u);
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  bits.Assign(63, false);
  EXPECT_EQ(bits.Count(), 2u);
  EXPECT_FALSE(bits.Test(63));
  // Redundant operations do not skew the counter.
  bits.Assign(64, true);
  bits.Clear(63);
  EXPECT_EQ(bits.Count(), 2u);
}

// --- ValidatorTable ----------------------------------------------------------

TEST(ValidatorTableTest, RegionsMatchDeploymentRoundRobin) {
  const DeploymentConfig community = GetDeployment("community");
  const ValidatorTable table(community);
  ASSERT_EQ(table.count(), static_cast<size_t>(community.node_count));
  for (int i = 0; i < community.node_count; ++i) {
    EXPECT_EQ(table.region(i), community.NodeRegion(i));
  }
}

TEST(ValidatorTableTest, DownBitsAllocateLazily) {
  ValidatorTable table(GetDeployment("devnet"));
  EXPECT_FALSE(table.Down(3));
  EXPECT_EQ(table.DownCount(), 0u);
  // Clearing an untouched table must not allocate the bitset.
  table.SetDown(2, false);
  EXPECT_LE(table.ApproxBytes(), sizeof(ValidatorTable) + table.count() + 64);
  table.SetDown(3, true);
  EXPECT_TRUE(table.Down(3));
  EXPECT_FALSE(table.Down(4));
  EXPECT_EQ(table.DownCount(), 1u);
  table.SetDown(3, false);
  EXPECT_FALSE(table.Down(3));
  EXPECT_EQ(table.DownCount(), 0u);
}

TEST(ValidatorTableTest, CpuOverridesAreSparse) {
  ValidatorTable table(GetDeployment("community"));
  EXPECT_FALSE(table.AnyCpuOverride());
  EXPECT_DOUBLE_EQ(table.CpuFactor(7), 1.0);
  table.SetCpuFactor(9, 0.25);
  table.SetCpuFactor(3, 0.5);
  table.SetCpuFactor(120, 0.75);
  EXPECT_TRUE(table.AnyCpuOverride());
  EXPECT_DOUBLE_EQ(table.CpuFactor(3), 0.5);
  EXPECT_DOUBLE_EQ(table.CpuFactor(9), 0.25);
  EXPECT_DOUBLE_EQ(table.CpuFactor(120), 0.75);
  EXPECT_DOUBLE_EQ(table.CpuFactor(8), 1.0);
  table.SetCpuFactor(9, 0.1);
  EXPECT_DOUBLE_EQ(table.CpuFactor(9), 0.1);
  // Factor 1.0 erases the entry instead of storing a no-op.
  table.SetCpuFactor(3, 1.0);
  table.SetCpuFactor(9, 1.0);
  table.SetCpuFactor(120, 1.0);
  EXPECT_FALSE(table.AnyCpuOverride());
}

// --- the 10k budget ----------------------------------------------------------

// The documented fig3-XL bound: the per-deployment state that used to be
// quadratic — the vote-delay plane — plus the per-validator table must stay
// within 64 bytes per validator (docs/performance.md). The dense matrix
// alone would be 2·8·n per validator (160 KB each at 10k).
TEST(XlBudgetTest, TenThousandValidatorsStayUnder64BytesEach) {
  for (const char* chain : {"diem", "algorand"}) {
    Simulation sim(1);
    Network net(&sim);
    const DeploymentConfig xl = GetDeployment("xl-10000");
    auto instance = BuildChainFromParams(GetChainParams(chain), xl, &sim, &net);
    ASSERT_NE(instance, nullptr);
    const ChainContext& ctx = instance->context();
    EXPECT_FALSE(ctx.vote_delays().dense()) << chain;
    const size_t n = static_cast<size_t>(xl.node_count);
    EXPECT_LE(ctx.vote_delays().ApproxBytes(), 64 * n) << chain;
    EXPECT_LE(ctx.validators().ApproxBytes(), 16 * n + 4096) << chain;
  }
}

TEST(XlBudgetTest, SmallDeploymentsKeepTheDenseMatrix) {
  Simulation sim(1);
  Network net(&sim);
  auto instance =
      BuildChainFromParams(GetChainParams("quorum"), GetDeployment("community"), &sim, &net);
  EXPECT_TRUE(instance->context().vote_delays().dense());
}

// A 10k-validator cell must actually run end to end, quickly. The full-length
// cells live in bench/fig3_xl.cc; this is the correctness gate.
TEST(XlBudgetTest, TenThousandValidatorCellsComplete) {
  for (const char* chain : {"diem", "algorand", "avalanche"}) {
    const RunResult result = RunNativeBenchmark(chain, "xl-10000", /*tps=*/20,
                                                /*seconds=*/5, /*seed=*/1);
    EXPECT_FALSE(result.unsupported) << chain;
    EXPECT_TRUE(result.failure_reason.empty()) << chain << ": "
                                               << result.failure_reason;
    EXPECT_GT(result.report.submitted, 0u) << chain;
    EXPECT_GT(result.report.committed, 0u) << chain;
  }
}

}  // namespace
}  // namespace diablo
