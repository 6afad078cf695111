// Heap-allocation locks for the per-block hot paths and for pre-signing.
//
// The whole point of MessagePlaneScratch is that steady-state vote rounds
// run without touching the allocator: broadcast, stage fills, both quorum
// reductions and the median all work over warm caller-owned buffers. The
// same holds for block production: the mempool and the block-tx pool are
// sized up front, and the expired-id scratch keeps its capacity across
// blocks. This binary replaces global operator
// new/delete with counting wrappers and asserts that, once warm, a full
// engine-style round and a full overloaded block perform ZERO heap
// allocations, and that RunStreams' own Encode step performs none per
// pre-signed transaction; it also holds that step to a byte budget per
// transaction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

// Sanitizer runtimes serve malloc from their own allocator, which glibc's
// mallinfo2 does not see, so allocator bytes in use are read only without
// them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DIABLO_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DIABLO_SANITIZER_ALLOCATOR 1
#endif
#endif
#if defined(__GLIBC__) && !defined(DIABLO_SANITIZER_ALLOCATOR)
#define DIABLO_HEAP_IN_USE 1
#include <malloc.h>
#endif

#include "src/chain/node.h"
#include "src/chain/vote_round.h"
#include "src/chains/params.h"
#include "src/core/primary.h"
#include "src/net/deployment.h"
#include "src/net/network.h"
#include "src/sim/simulation.h"
#include "src/support/check.h"
#include "src/workload/dapps.h"

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

#if defined(DIABLO_HEAP_IN_USE)
// Allocator bytes in use, process-wide; unlike resident size it falls when
// memory is freed.
int64_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}
#endif

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

// The locks are properties of the unchecked production build: checked
// builds sample nth_element cross-checks inside the vote plane, and those
// intentionally allocate reference buffers. The skip sits here rather than
// at the top of each test, so that a checked build still compiles every
// test body and links what it calls.
class AllocationLock : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kCheckedBuild) {
      GTEST_SKIP() << "allocation lock does not apply under DIABLO_CHECKED";
    }
  }
};

TEST_F(AllocationLock, SteadyStateVoteRoundAllocatesNothing) {
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

TEST_F(AllocationLock, SteadyStateBlockAssemblyAllocatesNothing) {
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
    tx.row = *ctx.txs().InternRow({21000, 110});
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

// RunStreams' run of Quorum under one YouTube stream on `deployment`, at
// `scale`, built up to its Encode step.
std::unique_ptr<StreamRun> BuiltYoutubeRun(const std::string& deployment, double scale) {
  BenchmarkSetup setup;
  setup.deployment = deployment;
  setup.scale = scale;
  WorkStream stream;
  stream.workload = GetDappWorkload("youtube");
  auto run = std::make_unique<StreamRun>(setup, std::vector<WorkStream>{stream}, "youtube");
  EXPECT_TRUE(run->Build());
  return run;
}

// Heap allocations of the Encode step of BuiltYoutubeRun("testnet", scale),
// and the transactions it pre-signed.
uint64_t EncodeAllocations(double scale, size_t* txs) {
  const std::unique_ptr<StreamRun> run = BuiltYoutubeRun("testnet", scale);
  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_TRUE(run->Encode());
  const uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  *txs = run->context().txs().size();
  return after - before;
}

TEST_F(AllocationLock, PreSigningAllocatesNothing) {
  // Encode sizes the store and every schedule, and resolves the stream's
  // row on its first call (the cost oracle runs upload once): a fixed number
  // of allocations. Pre-signing a transaction and dealing it to its
  // Secondary touches no allocator, so twice the transactions cost exactly
  // as many allocations.
  size_t half = 0;
  size_t full = 0;
  const uint64_t half_allocations = EncodeAllocations(0.0108, &half);
  const uint64_t full_allocations = EncodeAllocations(0.0216, &full);
  ASSERT_GE(half, 50000u);
  ASSERT_GE(full, 100000u);
  EXPECT_EQ(full_allocations, half_allocations)
      << half << " and " << full << " pre-signed transactions";
}

TEST_F(AllocationLock, PreSigningStaysWithinItsBytesPerTransaction) {
#if defined(DIABLO_HEAP_IN_USE)
  // Fig. 2's largest cell keeps every pre-signed transaction until it ends.
  // Allocator bytes in use across the Encode step of ~930k YouTube
  // transactions on consortium, per transaction: the Transaction (24 B), its
  // schedule entry (16 B), the mempool's lifecycle byte (1 B; Quorum's pool
  // has no TTL and no signer cap, so it keeps no other side table) and its
  // block-tx slot (4 B), plus fixed reservations. 48 B leaves room for
  // those fixed parts only; a stored arrival time (8 B) or a second copy of
  // a per-transaction field does not fit.
  const std::unique_ptr<StreamRun> run = BuiltYoutubeRun("consortium", 0.2);
  const int64_t before = HeapInUseBytes();
  ASSERT_TRUE(run->Encode());
  const int64_t after = HeapInUseBytes();
  const size_t count = run->context().txs().size();
  ASSERT_GT(count, 900000u);
  const double bytes_per_tx =
      static_cast<double>(after - before) / static_cast<double>(count);
  EXPECT_LE(bytes_per_tx, 48.0) << count << " transactions";
  EXPECT_GE(bytes_per_tx, 24.0 + 16.0);
#else
  GTEST_SKIP() << "allocator bytes in use are read through glibc's mallinfo2, "
                  "which sees no sanitizer's allocator";
#endif
}

TEST_F(AllocationLock, CounterSeesOrdinaryAllocations) {
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
