// Heap-allocation locks for the per-block hot paths.
//
// The whole point of MessagePlaneScratch is that steady-state vote rounds
// run without touching the allocator: broadcast, stage fills, both quorum
// reductions and the median all work over warm caller-owned buffers. The
// same holds for block production: the mempool, the block-tx pool and the
// per-block arena are sized up front. This binary replaces global operator
// new/delete with counting wrappers and asserts that, once warm, a full
// engine-style round and a full overloaded block perform ZERO heap
// allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/chain/node.h"
#include "src/chain/vote_round.h"
#include "src/chains/params.h"
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

TEST(AllocationLock, SteadyStateBlockAssemblyAllocatesNothing) {
  if (kCheckedBuild) {
    GTEST_SKIP() << "allocation lock does not apply under DIABLO_CHECKED";
  }
  // micro_benchmarks' BM_BlockAssembly shape: geth-style overload on the
  // quorum chain. Every block admits 640 transactions and drafts 512, the
  // pool sits at its global cap, and each admission past it evicts a
  // random victim that the caller drops. Every admission policy (global
  // cap, signer accounting, TTL, eviction) is on the per-transaction path.
  constexpr int kWarmupBlocks = 64;
  constexpr int kMeasuredBlocks = 64;
  constexpr size_t kAdmitPerBlock = 640;
  constexpr size_t kBlockTxs = 512;
  constexpr size_t kSigners = 4096;
  Simulation sim(7);
  Network net(&sim);
  ChainParams params = GetChainParams("quorum");
  params.block_gas_limit = 0;
  params.max_block_bytes = 0;
  params.max_block_txs = kBlockTxs;
  params.congestion_threshold = 0;
  params.ingress_capacity = 0;
  params.mempool.global_cap = 4096;
  params.mempool.per_signer_cap = 64;
  params.mempool.ttl = Seconds(120);
  params.mempool.evict_on_full = true;
  ChainContext ctx(&sim, &net, GetDeployment("testnet"), params);
  const size_t blocks = kWarmupBlocks + kMeasuredBlocks;
  ctx.ReserveTxs(kAdmitPerBlock * blocks);
  ctx.ledger().Reserve(blocks + 1);
  for (size_t i = 0; i < kAdmitPerBlock * blocks; ++i) {
    Transaction tx;
    tx.account = static_cast<uint32_t>(i % kSigners);
    tx.gas = 21000;
    tx.size_bytes = 110;
    ctx.txs().Add(tx);
  }

  uint64_t height = 1;
  TxId next = 0;
  SimTime now = 0;
  uint64_t drafted = 0;
  auto run_block = [&] {
    for (size_t k = 0; k < kAdmitPerBlock; ++k) {
      TxId evicted = kInvalidTx;
      ctx.mempool().Add(next, next % kSigners, now, now, &evicted);
      if (evicted != kInvalidTx) {
        ctx.DropTx(evicted);
      }
      ++next;
    }
    ChainContext::BuiltBlock built = ctx.BuildBlock(now, 0);
    drafted += built.tx_count;
    ctx.FinalizeBlock(height, 0, std::move(built), now, now + Milliseconds(900));
    ++height;
    now += Seconds(1);
  };
  for (int i = 0; i < kWarmupBlocks; ++i) {
    run_block();
  }

  drafted = 0;
  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasuredBlocks; ++i) {
    run_block();
  }
  const uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << (after - before) << " heap allocations across "
                                << kMeasuredBlocks << " steady-state blocks";
  EXPECT_EQ(drafted, kBlockTxs * kMeasuredBlocks);
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
