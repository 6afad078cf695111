// Extensibility example (§4): adding a new blockchain to diablo.
//
// Two levels are shown:
//  1. A new parameter sheet ("fastnet") run through the existing engines —
//     the common case for evaluating protocol variants.
//  2. A from-scratch BlockchainConnector implementing the abstraction's four
//     porting functions (create_client / create_resource / encode / trigger)
//     over a deliberately silly centralized "instantchain", to show the
//     harness only needs those four functions.
#include <cstdio>
#include <memory>

#include "src/core/interface.h"
#include "src/core/runner.h"

namespace diablo {
namespace {

// ---- level 1: a custom parameter sheet ------------------------------------

ChainParams FastnetParams() {
  // An IBFT chain with a 250 ms block cadence and a bounded mempool —
  // "what if Quorum dropped requests instead of collapsing?"
  ChainParams params = GetChainParams("quorum");
  params.name = "fastnet";
  params.block_interval = Milliseconds(250);
  params.mempool.global_cap = 50000;
  params.proposal_overhead_quadratic = 0;
  return params;
}

void RunFastnet() {
  BenchmarkSetup setup;
  setup.chain = "fastnet";
  setup.params = FastnetParams();
  setup.deployment = "testnet";
  Primary primary(setup);
  const RunResult result = primary.RunNative(ConstantTrace(2000, 30));
  std::printf("--- fastnet (custom ChainParams, IBFT engine) ---\n%s\n",
              result.report.ToText().c_str());
}

// ---- level 2: a from-scratch connector -------------------------------------

// A one-node "chain" that commits everything after a fixed 50 ms delay. The
// point is the interface: Primary/Secondary logic never sees the difference.
class InstantChainConnector : public BlockchainConnector {
 public:
  InstantChainConnector(Simulation* sim, ChainInstance* backing)
      : sim_(sim), backing_(backing) {}

  std::unique_ptr<BlockchainClient> CreateClient(Region location,
                                                 std::vector<int> endpoints) override {
    (void)location;
    (void)endpoints;
    class Client : public BlockchainClient {
     public:
      Client(Simulation* sim, ChainContext* ctx) : sim_(sim), ctx_(ctx) {}
      void Trigger(TxId encoded, SimTime submit_time) override {
        Transaction& tx = ctx_->txs().at(encoded);
        tx.submit_time = submit_time;
        tx.phase = TxPhase::kSubmitted;
        Simulation* sim = sim_;
        ChainContext* ctx = ctx_;
        sim->ScheduleAt(submit_time + Milliseconds(50), [ctx, encoded] {
          Transaction& done = ctx->txs().at(encoded);
          done.phase = TxPhase::kCommitted;
          done.commit_time = ctx->sim()->Now();
        });
      }

     private:
      Simulation* sim_;
      ChainContext* ctx_;
    };
    return std::make_unique<Client>(sim_, &backing_->context());
  }

  bool CreateResource(const ResourceSpec& spec, Resource* out) override {
    *out = Resource{};
    out->account_count = spec.account_count;
    return spec.kind == ResourceSpec::Kind::kAccounts;  // no contracts here
  }

  TxId Encode(const InteractionSpec& spec, const Resource& accounts,
              SimTime scheduled_time) override {
    (void)spec;
    Transaction tx;
    tx.account = accounts.first_account;
    tx.row = *backing_->context().txs().InternRow({21000, kNativeTransferBytes});
    tx.submit_time = scheduled_time;
    return backing_->context().txs().Add(tx);
  }

 private:
  Simulation* sim_;
  ChainInstance* backing_;  // reused only for its TxStore
};

void RunInstantChain() {
  Simulation sim(7);
  Network net(&sim);
  // Borrow a context purely as transaction storage for the demo connector.
  const auto backing =
      BuildChainFromParams(GetChainParams("quorum"), GetDeployment("testnet"), &sim, &net);
  InstantChainConnector connector(&sim, backing.get());

  ResourceSpec accounts_spec;
  accounts_spec.kind = ResourceSpec::Kind::kAccounts;
  accounts_spec.account_count = 10;
  Resource accounts;
  connector.CreateResource(accounts_spec, &accounts);
  const auto client = connector.CreateClient(Region::kOhio, {0});

  for (int i = 0; i < 100; ++i) {
    const TxId tx = connector.Encode(InteractionSpec{}, accounts, Milliseconds(10 * i));
    client->Trigger(tx, Milliseconds(10 * i));
  }
  sim.Run();

  const auto counts = backing->context().txs().PhaseCounts();
  std::printf("--- instantchain (custom 4-function connector) ---\n");
  std::printf("100 transfers triggered, %zu committed, each after ~50 ms\n\n",
              counts[static_cast<size_t>(TxPhase::kCommitted)]);
}

}  // namespace
}  // namespace diablo

int main() {
  diablo::RunInstantChain();
  diablo::RunFastnet();
  return 0;
}
