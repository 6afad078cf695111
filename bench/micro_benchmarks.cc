// Micro benchmarks (google-benchmark) for the substrates: event loop
// throughput, network delay sampling, SHA-256, Merkle trees, VM execution
// per dialect, mempool operations, block assembly, the vote-round and
// broadcast kernels, trace generation and YAML parsing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "src/chain/mempool.h"
#include "src/chain/node.h"
#include "src/chain/vote_round.h"
#include "src/chains/params.h"
#include "src/config/yaml.h"
#include "src/contracts/contracts.h"
#include "src/core/parallel_runner.h"
#include "src/crypto/merkle.h"
#include "src/crypto/sha256.h"
#include "src/net/deployment.h"
#include "src/net/network.h"
#include "src/sim/simulation.h"
#include "src/support/rng.h"
#include "src/vm/interpreter.h"
#include "src/workload/trace.h"

namespace diablo {
namespace {

void BM_EventLoop(benchmark::State& state) {
  const int64_t events = state.range(0);
  for (auto _ : state) {
    Simulation sim(1);
    uint64_t sink = 0;
    for (int64_t i = 0; i < events; ++i) {
      sim.Schedule(i, [&sink] { ++sink; });
    }
    sim.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventLoop)->Arg(1000)->Arg(100000);

// Capture shape mirroring the simulator's real closures: a couple of
// pointers plus ids/sizes, ~32 bytes — over std::function's inline buffer,
// under EventFn's.
struct FatCapture {
  uint64_t* sink;
  uint64_t a, b, c;
};

void BM_EventLoopSboFunctor(benchmark::State& state) {
  const int64_t events = state.range(0);
  for (auto _ : state) {
    EventQueue queue;
    uint64_t sink = 0;
    for (int64_t i = 0; i < events; ++i) {
      FatCapture capture{&sink, static_cast<uint64_t>(i), 2, 3};
      queue.Push(i, [capture] { *capture.sink += capture.a; });
    }
    SimTime t = 0;
    while (!queue.empty()) {
      queue.Pop(&t)();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventLoopSboFunctor)->Arg(1000)->Arg(100000);

void BM_NetworkDelaySample(benchmark::State& state) {
  Simulation sim(1);
  Network net(&sim);
  std::vector<HostId> hosts;
  for (int i = 0; i < 20; ++i) {
    hosts.push_back(net.AddHost(static_cast<Region>(i % kRegionCount)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.DelaySample(hosts[i % 20], hosts[(i + 7) % 20], 256));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkDelaySample);

void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<Digest256> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256Digest(std::string("tx") + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleRoot(leaves));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleRoot)->Arg(64)->Arg(1024);

void BM_VmCounterAdd(benchmark::State& state) {
  const Program program = CompileContract(*FindContract("counter"));
  ContractState contract_state;
  ExecRequest request;
  request.program = &program;
  request.function = "add";
  request.state = &contract_state;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Execute(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VmCounterAdd);

void BM_VmUberCheckDistance(benchmark::State& state) {
  // The heavy one: 10,000 Newton square roots per call.
  const ContractDef& def = *FindContract("uber");
  const Program program = CompileContract(def);
  ContractState contract_state;
  ExecRequest init;
  init.program = &program;
  init.function = "init";
  init.args = def.init_args;
  init.state = &contract_state;
  Execute(init);

  ExecRequest request;
  request.program = &program;
  request.function = "check_distance";
  const std::vector<int64_t> args = {5000, 5000};
  request.args = args;
  request.state = &contract_state;
  request.dialect = static_cast<VmDialect>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Execute(request));
  }
}
BENCHMARK(BM_VmUberCheckDistance)
    ->Arg(static_cast<int>(VmDialect::kGeth))   // full execution
    ->Arg(static_cast<int>(VmDialect::kEbpf));  // stops at the budget

void BM_MempoolChurn(benchmark::State& state) {
  MempoolConfig config;
  Mempool pool(config);
  SimTime now = 0;
  TxId id = 0;
  std::vector<TxId> expired;
  for (auto _ : state) {
    for (int i = 0; i < 100; ++i) {
      pool.Add(id, id % 64, now, now + 1000);
      ++id;
    }
    now += Seconds(1);
    benchmark::DoNotOptimize(
        pool.TakeReady(now, 0, 0, 100, [](TxId) { return 21000; },
                       [](TxId) { return 110; }, &expired));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_MempoolChurn);

// The per-transaction admit/take data path at block-production granularity
// under geth-style overload (§6.3/§6.5): arrivals are double the pool's
// global cap, so the back half of every admission wave evicts a random
// victim, and the drain pops one zombie per taken transaction. This is the
// regime the admission machinery exists for. Ids are fresh across
// iterations (they never recur in real runs), so the bench runs a fixed
// iteration count over a fixed workload. Items/sec counts transactions
// through the full admit+take cycle.
constexpr size_t kAdmitTakeBlock = 512;
constexpr int kAdmitTakeIterations = 12;
constexpr size_t kAdmitTakeSigners = 4096;

MempoolConfig AdmitTakePolicies(size_t n) {
  MempoolConfig config;
  config.global_cap = n / 2;
  config.per_signer_cap = n;
  config.ttl = Seconds(3600);
  config.evict_on_full = true;
  return config;
}

void BM_MempoolAdmitTake(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Mempool pool(AdmitTakePolicies(n), &rng);
  pool.Reserve(n * static_cast<size_t>(kAdmitTakeIterations));
  std::vector<TxId> taken;
  std::vector<TxId> expired;
  taken.reserve(kAdmitTakeBlock);
  expired.reserve(kAdmitTakeBlock);
  TxId next = 0;
  SimTime now = 0;
  for (auto _ : state) {
    for (size_t k = 0; k < n; ++k) {
      pool.Add(next, next % kAdmitTakeSigners, now, now);
      ++next;
    }
    now += Seconds(1);
    while (pool.size() > 0) {
      taken.clear();
      expired.clear();
      pool.TakeReady(now, 0, 0, kAdmitTakeBlock, [](TxId) { return 21000; },
                     [](TxId) { return 110; }, &taken, &expired);
      benchmark::DoNotOptimize(taken.data());
      if (taken.empty() && expired.empty()) {
        break;
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MempoolAdmitTake)
    ->Arg(100000)
    ->Iterations(kAdmitTakeIterations)
    ->Unit(benchmark::kMillisecond);

// Steady-state block production through the real ChainContext under
// sustained overload: every block admits more transactions than it drains
// (arrivals at 125% of capacity), the pool sits pinned at its global cap,
// and each admission beyond the cap evicts a random victim that the caller
// drops — the geth scenario of §6.3/§6.5, and the configuration where every
// admission policy (global cap, signer accounting, TTL check, eviction) is
// on the per-transaction path. An untimed warmup runs the pool to its
// steady state first, so the timed region measures settled behaviour.
// AllocationLock.SteadyStateBlockAssemblyAllocatesNothing (tests/alloc_test)
// asserts that this shape allocates nothing per block.
constexpr int kAssemblyIterations = 2000;
constexpr int kAssemblyWarmupBlocks = 64;
constexpr size_t kAssemblyAdmitPerBlock = 640;
constexpr size_t kAssemblySigners = 4096;

MempoolConfig AssemblyPolicies() {
  MempoolConfig config;
  config.global_cap = 4096;
  config.per_signer_cap = 64;
  config.ttl = Seconds(120);
  config.evict_on_full = true;
  return config;
}

void BM_BlockAssembly(benchmark::State& state) {
  Simulation sim(7);
  Network net(&sim);
  ChainParams params = GetChainParams("quorum");
  params.block_gas_limit = 0;
  params.max_block_bytes = 0;
  params.max_block_txs = kAdmitTakeBlock;
  params.congestion_threshold = 0;
  params.ingress_capacity = 0;
  params.mempool = AssemblyPolicies();
  ChainContext ctx(&sim, &net, GetDeployment("testnet"), params);
  const size_t total_txs = kAssemblyAdmitPerBlock *
                           static_cast<size_t>(kAssemblyIterations + kAssemblyWarmupBlocks);
  ctx.ReserveTxs(total_txs);
  ctx.ledger().Reserve(static_cast<size_t>(kAssemblyIterations + kAssemblyWarmupBlocks) + 1);
  for (size_t i = 0; i < total_txs; ++i) {
    Transaction tx;
    tx.account = static_cast<uint32_t>(i % kAssemblySigners);
    tx.gas = 21000;
    tx.size_bytes = 110;
    ctx.txs().Add(tx);
  }

  uint64_t height = 1;
  TxId next = 0;
  SimTime now = 0;
  auto run_block = [&] {
    for (size_t k = 0; k < kAssemblyAdmitPerBlock; ++k) {
      TxId evicted = kInvalidTx;
      ctx.mempool().Add(next, next % kAssemblySigners, now, now, &evicted);
      if (evicted != kInvalidTx) {
        ctx.DropTx(evicted);
      }
      ++next;
    }
    ChainContext::BuiltBlock built = ctx.BuildBlock(now, 0);
    benchmark::DoNotOptimize(built.tx_count);
    ctx.FinalizeBlock(height, 0, std::move(built), now, now + Milliseconds(900));
    ++height;
    now += Seconds(1);
  };
  for (int i = 0; i < kAssemblyWarmupBlocks; ++i) {
    run_block();
  }

  for (auto _ : state) {
    run_block();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kAdmitTakeBlock));
}
BENCHMARK(BM_BlockAssembly)->Iterations(kAssemblyIterations);

// --- message-plane kernels ---------------------------------------------------
// The three kernels behind the "kernels" entry of BENCH_runner.json, over
// caller scratch as the engines run them. The custom main() below re-times
// them with plain chrono medians and records the times. A before/after
// claim compares two builds of this binary, parent and change, run in
// alternating pairs on one machine.

// A 200-validator message plane shaped like the paper's consortium (200
// machines over 10 regions): jittered delay matrix, Byzantine quorum, gossip
// hop scale 4.0, and 64 pre-generated send-time rounds, each a leader's
// proposal broadcast plus a fixed build time — the first vote stage of an
// IBFT round.
struct PlaneFixture {
  static constexpr int kNodes = 200;
  static constexpr SimDuration kBuildTime = Milliseconds(5);
  Simulation sim{11};
  Network net{&sim};
  std::vector<HostId> hosts;
  std::unique_ptr<PairwiseDelays> delays;
  MessagePlaneScratch plane;
  std::vector<std::vector<SimDuration>> rounds;
  size_t quorum = 0;
  double hop_scale = 1.0;

  PlaneFixture() {
    const DeploymentConfig consortium = GetDeployment("consortium");
    for (int i = 0; i < kNodes; ++i) {
      hosts.push_back(net.AddHost(consortium.NodeRegion(i)));
    }
    delays = std::make_unique<PairwiseDelays>(&net, hosts, 256);
    quorum = static_cast<size_t>(ByzantineQuorum(kNodes));
    hop_scale = GossipHopScale(kNodes);
    rounds.resize(64);
    for (size_t r = 0; r < rounds.size(); ++r) {
      std::vector<SimDuration>& sends = rounds[r];
      net.BroadcastDelaysInto(hosts[r % hosts.size()], hosts, /*bytes=*/50'000,
                              /*fanout=*/8, &plane.broadcast, &sends);
      for (SimDuration& s : sends) {
        if (s != kUnreachable) {
          s += kBuildTime;
        }
      }
    }
  }

  const std::vector<SimDuration>& SendsFor(size_t iteration) const {
    return rounds[iteration % rounds.size()];
  }
};

// One PBFT-shaped round reduction: two chained all-receiver quorum stages
// plus the commit median — the per-block work every engine performs.
SimDuration RoundReduction(PlaneFixture& f, const std::vector<SimDuration>& sends) {
  QuorumArrivalAllInto(*f.delays, sends, f.quorum, f.hop_scale, &f.plane,
                       &f.plane.stage_b);
  QuorumArrivalAllInto(*f.delays, f.plane.stage_b, f.quorum, f.hop_scale, &f.plane,
                       &f.plane.stage_c);
  return MedianDelayInto(f.plane.stage_c, &f.plane);
}

void BM_PairwiseDelays(benchmark::State& state) {
  PlaneFixture f;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoundReduction(f, f.SendsFor(i++)));
  }
  state.SetItemsProcessed(state.iterations() * PlaneFixture::kNodes * 2);
}
BENCHMARK(BM_PairwiseDelays);

void BM_QuorumArrival(benchmark::State& state) {
  PlaneFixture f;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(QuorumArrivalInto(*f.delays, f.SendsFor(i), i % 200,
                                               f.quorum, f.hop_scale, &f.plane));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuorumArrival);

void BM_Broadcast(benchmark::State& state) {
  PlaneFixture f;
  for (auto _ : state) {
    f.net.BroadcastDelaysInto(f.hosts[0], f.hosts, /*bytes=*/50'000, /*fanout=*/8,
                              &f.plane.broadcast, &f.plane.stage_a);
    benchmark::DoNotOptimize(f.plane.stage_a.data());
  }
  state.SetItemsProcessed(state.iterations() * PlaneFixture::kNodes);
}
BENCHMARK(BM_Broadcast);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(NasdaqGafamTrace());
    benchmark::DoNotOptimize(FifaTrace());
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_YamlParse(benchmark::State& state) {
  const std::string doc = R"yaml(let:
  - &acc { sample: !account { number: 2000 } }
workloads:
  - number: 3
    client:
      behavior:
        - interaction: !invoke
            from: *acc
            function: "update(1, 1)"
          load:
            0: 4432
            120: 0
)yaml";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseYaml(doc));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_YamlParse);

// --- kernel summary ----------------------------------------------------------
// Re-times the three kernels with plain chrono medians (shared work
// functions with the registered benchmarks above) and records the results
// as the "kernels" entry of BENCH_runner.json, next to the runner binaries'
// stats. Medians of several repetitions keep one descheduling blip from
// polluting the recorded times.

template <typename Fn>
double MedianNsPerOp(Fn&& fn, int iters, int reps) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    // detlint: allow(D2, benchmark harness: timing the kernel is the point; nothing simulated reads it)
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      fn(static_cast<size_t>(i));
    }
    // detlint: allow(D2, benchmark harness: timing the kernel is the point; nothing simulated reads it)
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
        static_cast<double>(iters));
  }
  std::nth_element(samples.begin(), samples.begin() + reps / 2, samples.end());
  return samples[static_cast<size_t>(reps) / 2];
}

std::string KernelEntryJson(double current_ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"current_ns\": %.1f}", current_ns);
  return buf;
}

void WriteKernelSummary(const char* path) {
  PlaneFixture f;
  volatile SimDuration sink = 0;
  const double pairwise_delays =
      MedianNsPerOp([&](size_t i) { sink = RoundReduction(f, f.SendsFor(i)); }, 200, 5);
  const double quorum_arrival = MedianNsPerOp(
      [&](size_t i) {
        sink = QuorumArrivalInto(*f.delays, f.SendsFor(i), i % 200, f.quorum, f.hop_scale,
                                 &f.plane);
      },
      20000, 5);
  const double broadcast = MedianNsPerOp(
      [&](size_t) {
        f.net.BroadcastDelaysInto(f.hosts[0], f.hosts, 50'000, 8, &f.plane.broadcast,
                                  &f.plane.stage_a);
        sink = f.plane.stage_a.back();
      },
      2000, 5);
  (void)sink;
  WriteRunnerJsonEntry(path, "kernels",
                       "{\"pairwise_delays\": " + KernelEntryJson(pairwise_delays) +
                           ", \"quorum_arrival\": " + KernelEntryJson(quorum_arrival) +
                           ", \"broadcast\": " + KernelEntryJson(broadcast) + "}");
}

}  // namespace

// Called from main; reachable through the enclosing namespace even though the
// definition sits in the unnamed namespace of this TU.
void RunKernelSummary(const char* path) { WriteKernelSummary(path); }

}  // namespace diablo

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The kernel summary runs unconditionally (it is quick) so every bench
  // invocation refreshes the recorded kernel times alongside the runner stats.
  diablo::RunKernelSummary("BENCH_runner.json");
  return 0;
}
