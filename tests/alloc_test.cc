// Heap-allocation lock for the consensus message plane.
//
// The whole point of MessagePlaneScratch is that steady-state vote rounds
// run without touching the allocator: broadcast, stage fills, both quorum
// reductions and the median all work over warm caller-owned buffers. This
// binary replaces global operator new/delete with counting wrappers and
// asserts that, after one warm-up round, a full engine-style round performs
// ZERO heap allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/chain/vote_round.h"
#include "src/net/deployment.h"
#include "src/net/network.h"
#include "src/sim/simulation.h"
#include "src/support/check.h"

namespace {

std::atomic<uint64_t> g_allocation_count{0};

void* CountedAlloc(size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }

namespace diablo {
namespace {

// One PBFT-shaped round over the scratch plane: proposal broadcast, arrival
// transform in place, two vote stages, commit median. Mirrors what
// IbftEngine::Round does per block.
SimDuration EngineStyleRound(Network* net, const std::vector<HostId>& hosts,
                             const PairwiseDelays& delays,
                             MessagePlaneScratch* plane, size_t quorum) {
  const size_t n = hosts.size();
  std::vector<SimDuration>& bcast = plane->stage_a;
  net->BroadcastDelaysInto(hosts[0], hosts, /*bytes=*/50'000, /*fanout=*/8,
                           &plane->broadcast, &bcast);
  for (size_t i = 0; i < n; ++i) {
    if (bcast[i] != kUnreachable) {
      bcast[i] += Milliseconds(5);  // stand-in for build + verify time
    }
  }
  std::vector<SimDuration>& prepared = plane->stage_b;
  QuorumArrivalAllInto(delays, bcast, quorum, 1.0, plane, &prepared);
  std::vector<SimDuration>& committed = plane->stage_c;
  QuorumArrivalAllInto(delays, prepared, quorum, 1.0, plane, &committed);
  return MedianDelayInto(committed, plane);
}

TEST(AllocationLock, SteadyStateVoteRoundAllocatesNothing) {
  if (kCheckedBuild) {
    // Checked builds sample nth_element cross-checks inside the vote plane,
    // and those intentionally allocate reference buffers. The zero-allocation
    // guarantee is a property of the unchecked production build.
    GTEST_SKIP() << "allocation lock does not apply under DIABLO_CHECKED";
  }
  Simulation sim(42);
  Network net(&sim);
  const DeploymentConfig testnet = GetDeployment("testnet");
  const int n = 100;
  std::vector<HostId> hosts;
  for (int i = 0; i < n; ++i) {
    hosts.push_back(net.AddHost(testnet.NodeRegion(i)));
  }
  PairwiseDelays delays(&net, hosts, 256);
  MessagePlaneScratch plane;
  const size_t quorum = static_cast<size_t>(ByzantineQuorum(n));

  // Warm-up: first round sizes every buffer in the scratch.
  const SimDuration warm = EngineStyleRound(&net, hosts, delays, &plane, quorum);
  EXPECT_NE(warm, kUnreachable);

  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  SimDuration latest = 0;
  for (int round = 0; round < 10; ++round) {
    const SimDuration finality =
        EngineStyleRound(&net, hosts, delays, &plane, quorum);
    ASSERT_NE(finality, kUnreachable);
    latest = finality;
  }
  const uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations across 10 steady-state rounds";
  EXPECT_GT(latest, 0);
}

TEST(AllocationLock, CounterSeesOrdinaryAllocations) {
  // Sanity check that the counting allocator is actually installed.
  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  std::vector<int>* v = new std::vector<int>(1000);
  v->resize(5000);
  delete v;
  const uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_GE(after - before, 2u);
}

}  // namespace
}  // namespace diablo
