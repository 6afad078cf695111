#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/net/deployment.h"
#include "src/net/network.h"
#include "src/net/region.h"
#include "src/net/topology.h"
#include "src/support/rng.h"

namespace diablo {
namespace {

TEST(RegionTest, NamesRoundTrip) {
  for (int i = 0; i < kRegionCount; ++i) {
    const Region region = static_cast<Region>(i);
    Region parsed;
    ASSERT_TRUE(ParseRegion(RegionName(region), &parsed)) << RegionName(region);
    EXPECT_EQ(parsed, region);
  }
}

TEST(RegionTest, ParseAliases) {
  Region region;
  EXPECT_TRUE(ParseRegion("us-east-2", &region));
  EXPECT_EQ(region, Region::kOhio);
  EXPECT_TRUE(ParseRegion("us-west-2", &region));
  EXPECT_EQ(region, Region::kOregon);
  EXPECT_TRUE(ParseRegion("sao_paulo", &region));
  EXPECT_EQ(region, Region::kSaoPaulo);
  EXPECT_TRUE(ParseRegion("CAPE TOWN", &region));
  EXPECT_EQ(region, Region::kCapeTown);
  EXPECT_FALSE(ParseRegion("atlantis", &region));
}

TEST(TopologyTest, MatchesPaperTable3) {
  // Spot checks straight out of Table 3.
  EXPECT_DOUBLE_EQ(Topology::RttMs(Region::kTokyo, Region::kCapeTown), 354.0);
  EXPECT_DOUBLE_EQ(Topology::RttMs(Region::kCapeTown, Region::kTokyo), 354.0);
  EXPECT_DOUBLE_EQ(Topology::RttMs(Region::kOregon, Region::kOhio), 55.2);
  EXPECT_DOUBLE_EQ(Topology::RttMs(Region::kMilan, Region::kStockholm), 30.2);
  EXPECT_DOUBLE_EQ(Topology::BandwidthMbps(Region::kStockholm, Region::kMilan), 404.6);
  EXPECT_DOUBLE_EQ(Topology::BandwidthMbps(Region::kMumbai, Region::kBahrain), 336.3);
  EXPECT_DOUBLE_EQ(Topology::BandwidthMbps(Region::kOhio, Region::kOregon), 105.0);
}

TEST(TopologyTest, SymmetricMatrices) {
  for (int i = 0; i < kRegionCount; ++i) {
    for (int j = 0; j < kRegionCount; ++j) {
      const Region a = static_cast<Region>(i);
      const Region b = static_cast<Region>(j);
      EXPECT_DOUBLE_EQ(Topology::RttMs(a, b), Topology::RttMs(b, a));
      EXPECT_DOUBLE_EQ(Topology::BandwidthMbps(a, b), Topology::BandwidthMbps(b, a));
      if (i != j) {
        EXPECT_GT(Topology::RttMs(a, b), 0.0);
        EXPECT_GT(Topology::BandwidthMbps(a, b), 0.0);
      }
    }
  }
}

TEST(TopologyTest, IntraRegionIsDatacenterClass) {
  EXPECT_DOUBLE_EQ(Topology::RttMs(Region::kOhio, Region::kOhio), 1.0);
  EXPECT_DOUBLE_EQ(Topology::BandwidthMbps(Region::kOhio, Region::kOhio), 10000.0);
}

TEST(TopologyTest, TransmissionDelayScalesWithBytes) {
  const LinkParams& link = Topology::Link(Region::kOhio, Region::kOregon);
  const SimDuration one = Topology::TransmissionDelayOn(link, 1000);
  const SimDuration ten = Topology::TransmissionDelayOn(link, 10000);
  EXPECT_NEAR(static_cast<double>(ten), 10.0 * static_cast<double>(one),
              static_cast<double>(one) * 0.01);
  // 1 MB over 105 Mbps is roughly 76 ms.
  const SimDuration mb = Topology::TransmissionDelayOn(link, 1000000);
  EXPECT_NEAR(ToMilliseconds(mb), 76.2, 1.0);
}

TEST(DeploymentTest, PaperConfigurations) {
  const DeploymentConfig dc = GetDeployment("datacenter");
  EXPECT_EQ(dc.node_count, 10);
  EXPECT_EQ(dc.machine.vcpus, 36);
  EXPECT_EQ(dc.machine.memory_gib, 72);
  EXPECT_EQ(dc.regions.size(), 1u);

  const DeploymentConfig community = GetDeployment("community");
  EXPECT_EQ(community.node_count, 200);
  EXPECT_EQ(community.machine.vcpus, 4);
  EXPECT_EQ(community.regions.size(), 10u);

  const DeploymentConfig consortium = GetDeployment("consortium");
  EXPECT_EQ(consortium.node_count, 200);
  EXPECT_EQ(consortium.machine.vcpus, 8);
  EXPECT_EQ(consortium.machine.memory_gib, 16);

  EXPECT_EQ(AllDeployments().size(), 5u);
  EXPECT_THROW(GetDeployment("moonbase"), std::invalid_argument);
}

TEST(DeploymentTest, RoundRobinRegions) {
  const DeploymentConfig devnet = GetDeployment("devnet");
  EXPECT_EQ(devnet.NodeRegion(0), Region::kCapeTown);
  EXPECT_EQ(devnet.NodeRegion(9), Region::kOregon);
  EXPECT_EQ(devnet.NodeRegion(10), Region::kCapeTown);
}

TEST(NetworkTest, SendDeliversAfterDelay) {
  Simulation sim(1);
  Network net(&sim);
  const HostId a = net.AddHost(Region::kOhio);
  const HostId b = net.AddHost(Region::kTokyo);
  const SimDuration delay = net.DelaySample(a, b, 100);
  // One-way Ohio->Tokyo is at least RTT/2 = 65.9 ms.
  EXPECT_GE(delay, MillisecondsF(65.9));
  EXPECT_LT(delay, MillisecondsF(100.0));
}

TEST(NetworkTest, SelfSendIsImmediate) {
  Simulation sim(1);
  Network net(&sim);
  const HostId a = net.AddHost(Region::kOhio);
  EXPECT_EQ(net.DelaySample(a, a, 1000000), 0);
}

TEST(NetworkTest, PartitionDropsMessages) {
  Simulation sim(1);
  Network net(&sim);
  const HostId a = net.AddHost(Region::kOhio);
  const HostId b = net.AddHost(Region::kTokyo);
  net.SetPartitioned(b, true);
  EXPECT_EQ(net.DelaySample(a, b, 10), kUnreachable);
  EXPECT_EQ(net.DelaySample(b, a, 10), kUnreachable);
  net.SetPartitioned(b, false);
  EXPECT_NE(net.DelaySample(a, b, 10), kUnreachable);
}

TEST(NetworkTest, ExtraDelayInjection) {
  Simulation sim(1);
  Network net(&sim, /*jitter_frac=*/0.0);
  const HostId a = net.AddHost(Region::kOhio);
  const HostId b = net.AddHost(Region::kOregon);
  const SimDuration base = net.DelaySample(a, b, 10);
  net.SetExtraDelay(Region::kOhio, Region::kOregon, Seconds(1));
  const SimDuration delayed = net.DelaySample(a, b, 10);
  EXPECT_EQ(delayed, base + Seconds(1));
  // Updating the same pair overwrites rather than stacking.
  net.SetExtraDelay(Region::kOregon, Region::kOhio, Seconds(2));
  EXPECT_EQ(net.DelaySample(a, b, 10), base + Seconds(2));
}

TEST(NetworkTest, ExtraDelayAppliesBothDirections) {
  // Pins the documented contract: one SetExtraDelay call raises the pair in
  // both directions (the delay matrix stays symmetric).
  Simulation sim(1);
  Network net(&sim, /*jitter_frac=*/0.0);
  const HostId a = net.AddHost(Region::kOhio);
  const HostId b = net.AddHost(Region::kOregon);
  const SimDuration forward = net.DelaySample(a, b, 10);
  const SimDuration reverse = net.DelaySample(b, a, 10);
  net.SetExtraDelay(Region::kOhio, Region::kOregon, Seconds(1));
  EXPECT_EQ(net.DelaySample(a, b, 10), forward + Seconds(1));
  EXPECT_EQ(net.DelaySample(b, a, 10), reverse + Seconds(1));
}

TEST(NetworkTest, LossWindowDropsAndCounts) {
  Simulation sim(1);
  Network net(&sim);
  const HostId a = net.AddHost(Region::kOhio);
  const HostId b = net.AddHost(Region::kTokyo);
  // Certain loss until t = 10 s; afterwards the link is clean again.
  net.AddLossWindow(0, Seconds(10), 1.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(net.DelaySample(a, b, 10), kUnreachable);
  }
  SimDuration late = kUnreachable;
  sim.ScheduleAt(Seconds(11), [&] { late = net.DelaySample(a, b, 10); });
  sim.Run();
  EXPECT_NE(late, kUnreachable);
  EXPECT_EQ(net.stats().loss_drops, 5u);
}

TEST(NetworkTest, RegionPairLossLeavesOtherLinksAlone) {
  Simulation sim(1);
  Network net(&sim);
  const HostId a = net.AddHost(Region::kOhio);
  const HostId b = net.AddHost(Region::kTokyo);
  const HostId c = net.AddHost(Region::kOregon);
  net.AddLossWindow(Region::kOhio, Region::kTokyo, 0, Seconds(10), 1.0);
  EXPECT_EQ(net.DelaySample(a, b, 10), kUnreachable);
  EXPECT_EQ(net.DelaySample(b, a, 10), kUnreachable);  // unordered pair
  EXPECT_NE(net.DelaySample(a, c, 10), kUnreachable);
}

TEST(NetworkTest, BroadcastReachesEveryone) {
  Simulation sim(7);
  Network net(&sim);
  const DeploymentConfig devnet = GetDeployment("devnet");
  std::vector<HostId> hosts;
  for (int i = 0; i < devnet.node_count; ++i) {
    hosts.push_back(net.AddHost(devnet.NodeRegion(i)));
  }
  BroadcastScratch scratch;
  std::vector<SimDuration> delays;
  net.BroadcastDelaysInto(hosts[0], hosts, 1000, /*fanout=*/3, &scratch, &delays);
  ASSERT_EQ(delays.size(), hosts.size());
  EXPECT_EQ(delays[0], 0);  // origin
  for (size_t i = 1; i < delays.size(); ++i) {
    EXPECT_GT(delays[i], 0) << i;
    EXPECT_LT(delays[i], Seconds(3)) << i;
  }
}

TEST(NetworkTest, BroadcastSkipsPartitioned) {
  Simulation sim(7);
  Network net(&sim);
  std::vector<HostId> hosts;
  for (int i = 0; i < 5; ++i) {
    hosts.push_back(net.AddHost(Region::kOhio));
  }
  net.SetPartitioned(hosts[3], true);
  BroadcastScratch scratch;
  std::vector<SimDuration> delays;
  net.BroadcastDelaysInto(hosts[0], hosts, 100, 2, &scratch, &delays);
  EXPECT_EQ(delays[3], kUnreachable);
  EXPECT_NE(delays[1], kUnreachable);
}

TEST(NetworkTest, LargePayloadBroadcastSlowerThanSmall) {
  Simulation sim(7);
  Network net(&sim, /*jitter_frac=*/0.0);
  std::vector<HostId> hosts;
  for (int i = 0; i < 50; ++i) {
    hosts.push_back(net.AddHost(static_cast<Region>(i % kRegionCount)));
  }
  BroadcastScratch scratch;
  std::vector<SimDuration> small;
  std::vector<SimDuration> large;
  net.BroadcastDelaysInto(hosts[0], hosts, 1000, 4, &scratch, &small);
  net.BroadcastDelaysInto(hosts[0], hosts, 4000000, 4, &scratch, &large);
  double small_max = 0;
  double large_max = 0;
  for (size_t i = 0; i < hosts.size(); ++i) {
    small_max = std::max(small_max, static_cast<double>(small[i]));
    large_max = std::max(large_max, static_cast<double>(large[i]));
  }
  EXPECT_GT(large_max, 2.0 * small_max);
}

TEST(NetworkTest, GeoBroadcastSlowerThanLan) {
  Simulation sim(7);
  Network net(&sim, 0.0);
  std::vector<HostId> lan;
  std::vector<HostId> wan;
  Network net2(&sim, 0.0);
  for (int i = 0; i < 20; ++i) {
    lan.push_back(net.AddHost(Region::kOhio));
    wan.push_back(net2.AddHost(static_cast<Region>(i % kRegionCount)));
  }
  BroadcastScratch scratch;
  std::vector<SimDuration> lan_delays;
  std::vector<SimDuration> wan_delays;
  net.BroadcastDelaysInto(lan[0], lan, 10000, 4, &scratch, &lan_delays);
  net2.BroadcastDelaysInto(wan[0], wan, 10000, 4, &scratch, &wan_delays);
  double lan_max = 0;
  double wan_max = 0;
  for (size_t i = 0; i < 20; ++i) {
    lan_max = std::max(lan_max, static_cast<double>(lan_delays[i]));
    wan_max = std::max(wan_max, static_cast<double>(wan_delays[i]));
  }
  EXPECT_GT(wan_max, 10.0 * lan_max);
}

// --- semantics locks for the broadcast tree ---------------------------------
// A broadcast is a fanout-limited dissemination tree: each relay forwards to
// its next `fanout` targets, serialising one transmission slot per child
// (slot k costs (k+1) transmission delays), and children relay from their own
// arrival instant. With zero jitter in a single region every link is
// identical, so the multiset of arrival times is a pure function of the tree
// shape — a rewrite that changes expansion order or slot accounting fails.

TEST(NetworkTest, BroadcastTreeShapeSingleRegionLock) {
  Simulation sim(11);
  Network net(&sim, /*jitter_frac=*/0.0);
  std::vector<HostId> hosts;
  for (int i = 0; i < 13; ++i) {
    hosts.push_back(net.AddHost(Region::kOhio));
  }
  const int64_t bytes = 50000;
  const SimDuration p = net.DelaySample(hosts[0], hosts[1], 0);
  const SimDuration t = net.DelaySample(hosts[0], hosts[1], bytes) - p;
  ASSERT_GT(p, 0);
  ASSERT_GT(t, 0);

  BroadcastScratch scratch;
  std::vector<SimDuration> delays;
  net.BroadcastDelaysInto(hosts[0], hosts, bytes, /*fanout=*/3, &scratch, &delays);
  ASSERT_EQ(delays.size(), hosts.size());
  EXPECT_EQ(delays[0], 0);

  // Origin feeds 3 children at p+kt; each of those relays to 3 more from its
  // own ready time, so depth-2 arrivals are 2p + (parent_slot + k)t.
  std::vector<SimDuration> expected = {
      p + 1 * t, p + 2 * t, p + 3 * t,
      2 * p + 2 * t, 2 * p + 3 * t, 2 * p + 3 * t,
      2 * p + 4 * t, 2 * p + 4 * t, 2 * p + 4 * t,
      2 * p + 5 * t, 2 * p + 5 * t, 2 * p + 6 * t};
  std::vector<SimDuration> actual(delays.begin() + 1, delays.end());
  std::sort(actual.begin(), actual.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(actual, expected);
}

TEST(NetworkTest, BroadcastFanoutBelowOneBecomesChain) {
  Simulation sim(11);
  Network net(&sim, 0.0);
  std::vector<HostId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(net.AddHost(Region::kOhio));
  }
  const int64_t bytes = 50000;
  const SimDuration p = net.DelaySample(hosts[0], hosts[1], 0);
  const SimDuration t = net.DelaySample(hosts[0], hosts[1], bytes) - p;
  BroadcastScratch scratch;
  std::vector<SimDuration> delays;
  net.BroadcastDelaysInto(hosts[0], hosts, bytes, /*fanout=*/0, &scratch, &delays);
  std::vector<SimDuration> actual(delays.begin() + 1, delays.end());
  std::sort(actual.begin(), actual.end());
  const std::vector<SimDuration> expected = {p + t, 2 * p + 2 * t};
  EXPECT_EQ(actual, expected);
}

TEST(NetworkTest, BroadcastDeterministicPerSeed) {
  const DeploymentConfig devnet = GetDeployment("devnet");
  BroadcastScratch scratch;
  auto run = [&](uint64_t seed) {
    Simulation sim(seed);
    Network net(&sim);
    std::vector<HostId> hosts;
    for (int i = 0; i < devnet.node_count; ++i) {
      hosts.push_back(net.AddHost(devnet.NodeRegion(i)));
    }
    std::vector<SimDuration> delays;
    net.BroadcastDelaysInto(hosts[0], hosts, 20000, 3, &scratch, &delays);
    return delays;
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

// |gauss| as every golden hash was recorded with it: Box–Muller through
// glibc's log, sqrt and cos, with u1 ≤ 0 clamped to 2⁻⁵³.
double ReferenceAbsGauss(double u1, double u2) {
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  return std::abs(std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2));
}

// No propagation, the shortest and the longest link of the Table 3 matrix,
// and 1 s, where the bracket spans the most ticks.
std::vector<double> JitterProps() {
  SimDuration shortest = std::numeric_limits<SimDuration>::max();
  SimDuration longest = 0;
  for (int a = 0; a < kRegionCount; ++a) {
    for (int b = 0; b < kRegionCount; ++b) {
      const SimDuration prop =
          Topology::Link(static_cast<Region>(a), static_cast<Region>(b)).propagation;
      shortest = std::min(shortest, prop);
      longest = std::max(longest, prop);
    }
  }
  return {0.0, static_cast<double>(shortest), static_cast<double>(longest), 1e9};
}

constexpr double kJitterFracs[] = {0.0, 0.05, 1.0};

// Compares JitterTicks with the reference jitter, in the association its
// contract fixes, at every (prop, jitter_frac) pair; returns how many differ
// and reports each.
int JitterMismatches(const std::vector<double>& props, double u1, double u2) {
  const double gauss = ReferenceAbsGauss(u1, u2);
  int mismatches = 0;
  for (const double prop : props) {
    for (const double frac : kJitterFracs) {
      const SimDuration got = JitterTicks(prop, frac, u1, u2);
      const auto want = static_cast<SimDuration>(prop * (frac * gauss));
      if (got != want) {
        ++mismatches;
        ADD_FAILURE() << std::hexfloat << "u1=" << u1 << " u2=" << u2 << " prop=" << prop
                      << " jitter_frac=" << frac << ": " << got << " != " << want;
      }
    }
  }
  return mismatches;
}

TEST(JitterTicksTest, MatchesBoxMullerOnSeededDraws) {
  const std::vector<double> props = JitterProps();
  Rng rng(35);
  int mismatches = 0;
  for (int i = 0; i < 10'000'000 && mismatches < 10; ++i) {
    const double u1 = rng.NextDouble();
    const double u2 = rng.NextDouble();
    mismatches += JitterMismatches(props, u1, u2);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JitterTicksTest, MatchesBoxMullerOnEdgeInputs) {
  const std::vector<double> props = JitterProps();
  const double top = 1.0 - 0x1.0p-53;  // NextDouble's largest value
  std::vector<double> u2s;
  for (const double u2 : {0.0, 0.25, 0.5, 0.75, top}) {
    for (const double v : {std::nextafter(u2, -1.0), u2, std::nextafter(u2, 1.0)}) {
      if (v >= 0.0 && v <= top) {
        u2s.push_back(v);
      }
    }
  }
  // The fold points x = 2π·u2 ≈ (k + ½)π, where |cos| touches 0 and the
  // reduction switches multiples of π: 64 ulps of u2 either side.
  for (const double fold : {0.25, 0.75}) {
    double below = fold;
    double above = fold;
    for (int i = 0; i < 64; ++i) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1.0);
      u2s.push_back(below);
      u2s.push_back(above);
    }
  }
  for (const double u1 : {0.0, 0x1.0p-53, top}) {
    for (const double u2 : u2s) {
      EXPECT_EQ(JitterMismatches(props, u1, u2), 0);
    }
  }
}

TEST(JitterTicksTest, StraddlingDrawTakesGlibcCos) {
  // prop is chosen so that the reference product sits within 1e-9 of a tick
  // boundary N. The bracket around it spans prop·jitter_frac·mag·1e-13 =
  // N·1e-13/|cos| ≥ 1e-7 ticks on each side, so one end truncates to N − 1
  // and the other to N: only glibc's cos can tell which side the draw is on.
  const double frac = 0.05;
  const SimDuration n = 1'000'000;
  const double nd = static_cast<double>(n);
  for (const auto& [u1, u2] : {std::pair{0.3, 0.1}, std::pair{0.9, 0.4},
                               std::pair{1e-3, 0.7}, std::pair{0.5, 0.95}}) {
    const double gauss = ReferenceAbsGauss(u1, u2);
    const auto product = [&](double prop) { return prop * (frac * gauss); };
    double above = nd / (frac * gauss);
    while (product(above) <= nd) {
      above = std::nextafter(above, 2.0 * above);
    }
    double below = above;
    while (product(below) >= nd) {
      below = std::nextafter(below, 0.0);
    }
    ASSERT_LT(product(above) - nd, 1e-9);
    ASSERT_LT(nd - product(below), 1e-9);
    EXPECT_EQ(JitterTicks(above, frac, u1, u2), n) << "u1=" << u1 << " u2=" << u2;
    EXPECT_EQ(JitterTicks(below, frac, u1, u2), n - 1) << "u1=" << u1 << " u2=" << u2;
  }
}

}  // namespace
}  // namespace diablo
