// One simulated chain as the tests drive it: a simulation, a network, the
// chain and its connector, built in that order. Submissions ride the
// simulation's arrival lane as every client's do, so the connector alone
// decides what a refusal becomes.
#ifndef TESTS_CHAIN_RUN_H_
#define TESTS_CHAIN_RUN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/chains/chain_factory.h"
#include "src/chains/params.h"
#include "src/core/interface.h"

namespace diablo {

struct ChainRun {
  ChainRun(const ChainParams& params, const std::string& deployment, uint64_t seed,
           double jitter = 0.05)
      : sim(seed),
        net(&sim, jitter),
        chain(BuildChainFromParams(params, GetDeployment(deployment), &sim, &net)),
        connector(chain.get()) {}

  // Queues `tps` native transfers in each of the first `seconds` seconds,
  // evenly spaced within the second. Transfer k is signed by account
  // k % accounts and reaches endpoint k % node_count at its submit time,
  // where a refusal drops it. Call before Run: an arrival cannot be queued
  // in the past.
  void SubmitTransfers(int tps, int seconds, int accounts) {
    ChainContext& ctx = chain->context();
    const uint16_t row =
        *ctx.txs().InternRow({NativeTransferGas(ctx.params().dialect), kNativeTransferBytes});
    const auto nodes = static_cast<uint32_t>(ctx.node_count());
    uint32_t seq = 0;
    for (int s = 0; s < seconds; ++s) {
      for (int i = 0; i < tps; ++i, ++seq) {
        Transaction tx;
        tx.account = seq % static_cast<uint32_t>(accounts);
        tx.row = row;
        tx.submit_time = Seconds(s) + Milliseconds(1000LL * i / tps);
        sim.ScheduleArrival(tx.submit_time, ctx.txs().Add(tx), seq % nodes);
      }
    }
  }

  // Starts block production and simulates to `horizon_s` seconds.
  void Run(int horizon_s) {
    chain->Start();
    sim.RunUntil(Seconds(horizon_s));
  }

  size_t Committed() const { return Count(TxPhase::kCommitted); }
  size_t Dropped() const { return Count(TxPhase::kDropped); }

  Simulation sim;
  Network net;
  std::unique_ptr<ChainInstance> chain;
  // Declared last, so it is destroyed before its chain.
  SimConnector connector;

 private:
  size_t Count(TxPhase phase) const {
    return chain->context().txs().PhaseCounts()[static_cast<size_t>(phase)];
  }
};

}  // namespace diablo

#endif  // TESTS_CHAIN_RUN_H_
