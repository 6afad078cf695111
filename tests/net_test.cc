#include <gtest/gtest.h>

#include <algorithm>

#include "src/net/deployment.h"
#include "src/net/network.h"
#include "src/net/region.h"
#include "src/net/topology.h"

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
  const SimDuration one = Topology::TransmissionDelay(Region::kOhio, Region::kOregon, 1000);
  const SimDuration ten = Topology::TransmissionDelay(Region::kOhio, Region::kOregon, 10000);
  EXPECT_NEAR(static_cast<double>(ten), 10.0 * static_cast<double>(one),
              static_cast<double>(one) * 0.01);
  // 1 MB over 105 Mbps is roughly 76 ms.
  const SimDuration mb = Topology::TransmissionDelay(Region::kOhio, Region::kOregon, 1000000);
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
  SimTime arrival = -1;
  net.Send(a, b, 100, [&] { arrival = sim.Now(); });
  sim.Run();
  // One-way Ohio->Tokyo is at least RTT/2 = 65.9 ms.
  EXPECT_GE(arrival, MillisecondsF(65.9));
  EXPECT_LT(arrival, MillisecondsF(100.0));
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
  bool delivered = false;
  net.Send(a, b, 10, [&] { delivered = true; });
  sim.Run();
  EXPECT_FALSE(delivered);
  net.SetPartitioned(b, false);
  net.Send(a, b, 10, [&] { delivered = true; });
  sim.Run();
  EXPECT_TRUE(delivered);
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

TEST(NetworkTest, SendStatsCountUnreachableDrops) {
  Simulation sim(1);
  Network net(&sim);
  const HostId a = net.AddHost(Region::kOhio);
  const HostId b = net.AddHost(Region::kTokyo);
  net.Send(a, b, 10, [] {});
  EXPECT_EQ(net.stats().sends, 1u);
  EXPECT_EQ(net.stats().unreachable_drops, 0u);
  net.SetPartitioned(b, true);
  net.Send(a, b, 10, [] {});
  EXPECT_EQ(net.stats().sends, 2u);
  EXPECT_EQ(net.stats().unreachable_drops, 1u);
  sim.Run();
}

TEST(NetworkTest, LossWindowDropsAndCounts) {
  Simulation sim(1);
  Network net(&sim);
  const HostId a = net.AddHost(Region::kOhio);
  const HostId b = net.AddHost(Region::kTokyo);
  // Certain loss until t = 10 s; afterwards the link is clean again.
  net.AddLossWindow(0, Seconds(10), 1.0);
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    net.Send(a, b, 10, [&] { ++delivered; });
  }
  bool late_delivered = false;
  sim.ScheduleAt(Seconds(11), [&] {
    net.Send(a, b, 10, [&] { late_delivered = true; });
  });
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_TRUE(late_delivered);
  EXPECT_EQ(net.stats().loss_drops, 5u);
  EXPECT_EQ(net.stats().unreachable_drops, 5u);
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

}  // namespace
}  // namespace diablo
