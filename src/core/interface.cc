#include "src/core/interface.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "src/contracts/contracts.h"
#include "src/support/check.h"

namespace diablo {

// Client bound to a secondary location; submissions travel over the
// simulated network to the collocated endpoint. With a retry policy
// enabled, failed submissions rotate endpoints and back off exponentially
// until the attempt budget runs out.
//
// Each client owns its delay-jitter stream (rng_, forked once at creation)
// and samples through Network::DelaySampleFrom, so client jitter stays off
// the network's shared stream. Drawing it from the shared stream would shift
// every engine-side delay sample and move the golden report hashes.
class SimClient : public BlockchainClient {
 public:
  SimClient(SimConnector* connector, HostId client_host, std::vector<int> endpoints,
            uint32_t index, Rng rng)
      : connector_(connector),
        client_host_(client_host),
        endpoints_(std::move(endpoints)),
        index_(index),
        rng_(rng) {}

  void Trigger(TxId encoded, SimTime submit_time) override {
    ChainContext& ctx = connector_->chain_->context();
    Transaction& tx = ctx.txs().at(encoded);
    tx.submit_time = submit_time;

    // Pre-flight: chains whose VM rejects the call (hard budget, state
    // limits) error out at the client, like Solana's "Computational budget
    // exceeded" logs in the artifact appendix.
    if (tx.exec_status != VmStatus::kOk) {
      tx.phase = TxPhase::kAborted;
      tx.commit_time = submit_time + Milliseconds(50);
      return;
    }
    Attempt(encoded, /*attempt=*/0, submit_time);
  }

  // The endpoint refused attempt `attempt`, which arrived as `arrival`:
  // admission turned it away (pool full, signer cap) or the node died
  // while the request was in flight. The rejection reply travels back.
  void Refused(const Simulation::Arrival& arrival, int attempt) {
    ChainContext& ctx = connector_->chain_->context();
    const HostId endpoint_host = ctx.hosts()[arrival.endpoint];
    SimDuration back = ctx.net()->DelaySampleFrom(&rng_, endpoint_host, client_host_, 256);
    if (back == kUnreachable) {
      back = connector_->retry_.timeout;
    }
    FailAttempt(arrival.tx, attempt, arrival.time + back);
  }

 private:
  // One submission attempt issued at `now`. Endpoints rotate per attempt,
  // so a client with a multi-node view walks away from a dead node.
  void Attempt(TxId encoded, int attempt, SimTime now) {
    ChainContext& ctx = connector_->chain_->context();
    const RetryPolicy& policy = connector_->retry_;
    if (attempt > 0) {
      ++connector_->client_stats_.retries;
    }
    const int endpoint = endpoints_[next_endpoint_++ % endpoints_.size()];
    const HostId endpoint_host = ctx.hosts()[static_cast<size_t>(endpoint)];
    SimDuration delay = ctx.net()->DelaySampleFrom(
        &rng_, client_host_, endpoint_host, int64_t{ctx.txs().row(encoded).size_bytes} + 128);
    if (delay == kUnreachable) {
      if (policy.enabled()) {
        // The request vanished (endpoint crashed or partitioned); a retrying
        // client only learns after its submission timeout.
        FailAttempt(encoded, attempt, now + policy.timeout);
        return;
      }
      // A one-shot client's send arrives 500 ms later instead.
      delay = Milliseconds(500);
    }
    if (policy.enabled()) {
      connector_->NoteAttempt(encoded, index_, attempt);
    }
    // The arrival goes on the simulation's lane, whose handler is the
    // connector's Deliver.
    ctx.sim()->ScheduleArrival(now + delay, encoded, static_cast<uint32_t>(endpoint));
  }

  // Books a failed attempt known to the client at `known_at` and either
  // schedules the next one after backoff or gives up.
  void FailAttempt(TxId encoded, int attempt, SimTime known_at) {
    ChainContext& ctx = connector_->chain_->context();
    const RetryPolicy& policy = connector_->retry_;
    if (attempt + 1 >= policy.max_attempts) {
      ++connector_->client_stats_.aborts;
      ctx.DropTx(encoded);
      return;
    }
    const SimTime next = known_at + policy.BackoffAfter(attempt);
    ctx.sim()->ScheduleAt(next, [this, encoded, attempt, next] {
      Attempt(encoded, attempt + 1, next);
    });
  }

  SimConnector* connector_;
  HostId client_host_;
  std::vector<int> endpoints_;
  size_t next_endpoint_ = 0;
  uint32_t index_;  // in the connector's retrying_clients_, under a retry policy
  Rng rng_;         // owned jitter stream (see the class comment)
};

SimDuration RetryPolicy::BackoffAfter(int attempt) const {
  return std::min(SaturatingBackoff(backoff, attempt), Seconds(30));
}

SimConnector::SimConnector(ChainInstance* chain) : chain_(chain) {
  chain_->context().sim()->SetArrivalHandler(
      [this](const Simulation::Arrival& arrival) { Deliver(arrival); });
}

SimConnector::~SimConnector() { chain_->context().sim()->SetArrivalHandler(nullptr); }

void SimConnector::NoteAttempt(TxId tx, uint32_t client, int attempt) {
  if (tx >= attempt_of_.size()) {
    attempt_of_.resize(chain_->context().txs().size());
  }
  attempt_of_[tx] =
      client * static_cast<uint32_t>(retry_.max_attempts) + static_cast<uint32_t>(attempt);
}

void SimConnector::Deliver(const Simulation::Arrival& arrival) {
  ChainContext& ctx = chain_->context();
  if (ctx.SubmitAtEndpoint(arrival.tx, static_cast<int>(arrival.endpoint), arrival.time)) {
    return;
  }
  if (!retry_.enabled()) {
    // A one-shot client never hears of the refusal: the transaction is
    // dropped, and no abort is counted.
    ctx.DropTx(arrival.tx);
    return;
  }
  const auto attempts = static_cast<uint32_t>(retry_.max_attempts);
  const uint32_t slot = attempt_of_[arrival.tx];
  retrying_clients_[slot / attempts]->Refused(arrival, static_cast<int>(slot % attempts));
}

std::unique_ptr<BlockchainClient> SimConnector::CreateClient(
    Region location, std::vector<int> endpoint_view) {
  ChainContext& ctx = chain_->context();
  const HostId host = ctx.net()->AddHost(location);
  const auto index = static_cast<uint32_t>(retrying_clients_.size());
  auto client = std::make_unique<SimClient>(this, host, std::move(endpoint_view), index,
                                            ctx.sim()->ForkRng());
  if (retry_.enabled()) {
    DIABLO_CHECK(index < UINT32_MAX / static_cast<uint32_t>(retry_.max_attempts),
                 "client index times max_attempts overflows the attempt table");
    retrying_clients_.push_back(client.get());
  }
  return client;
}

bool SimConnector::CreateResource(const ResourceSpec& spec, Resource* out) {
  *out = Resource{};
  if (spec.kind == ResourceSpec::Kind::kAccounts) {
    out->first_account = next_account_;
    out->account_count = spec.account_count;
    next_account_ += static_cast<uint32_t>(spec.account_count);
    return true;
  }
  const ContractDef* def = FindContract(spec.contract_name);
  if (def == nullptr) {
    return false;
  }
  out->contract_index = chain_->context().oracle().Deploy(*def);
  return out->contract_index >= 0;
}

TxId SimConnector::Encode(const InteractionSpec& spec, const Resource& accounts,
                          SimTime scheduled_time) {
  Transaction row;
  if (!Resolve(spec, &row)) {
    return kInvalidTx;
  }
  return Stamp(row, accounts, scheduled_time);
}

bool SimConnector::Resolve(const InteractionSpec& spec, Transaction* row) {
  ChainContext& ctx = chain_->context();
  *row = Transaction{};
  CallRow call;
  if (spec.type == InteractionSpec::Type::kTransfer) {
    call.gas = NativeTransferGas(ctx.params().dialect);
    call.size_bytes = kNativeTransferBytes;
  } else {
    const CallProfile& profile =
        ctx.oracle().Profile(spec.contract_index, spec.function, spec.args);
    call.gas = profile.gas;
    row->exec_status = profile.status;
    // Payload-bearing calls (e.g. youtube upload) carry their data on the
    // wire as well. The payload comes from the caller's arguments, so the
    // total is range-checked before it narrows to the int32 wire size.
    int64_t payload = 0;
    if (!spec.args.empty() && spec.function == "upload") {
      payload = spec.args[0];
    }
    const int64_t envelope = kNativeTransferBytes + profile.calldata_bytes;
    if (payload < -envelope || payload > INT32_MAX - envelope) {
      return false;
    }
    call.size_bytes = static_cast<int32_t>(envelope + payload);
  }
  const std::optional<uint16_t> index = ctx.txs().InternRow(call);
  if (!index.has_value()) {
    return false;
  }
  row->row = *index;
  return true;
}

TxId SimConnector::Stamp(const Transaction& row, const Resource& accounts,
                         SimTime scheduled_time) {
  Transaction tx = row;
  tx.account = accounts.first_account +
               static_cast<uint32_t>(encode_counter_ %
                                     static_cast<uint64_t>(accounts.account_count));
  ++encode_counter_;
  tx.submit_time = scheduled_time;
  return chain_->context().txs().Add(tx);
}

}  // namespace diablo
