#include "src/core/interface.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "src/contracts/contracts.h"

namespace diablo {
namespace {

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
  SimClient(ChainInstance* chain, HostId client_host, std::vector<int> endpoints,
            const RetryPolicy* policy, ClientStats* stats, Rng rng)
      : chain_(chain),
        client_host_(client_host),
        endpoints_(std::move(endpoints)),
        policy_(policy),
        stats_(stats),
        rng_(rng) {}

  void Trigger(TxId encoded, SimTime submit_time) override {
    ChainContext& ctx = chain_->context();
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

    // Under a retry policy submissions go through the attempt loop; the
    // paper's fire-and-forget clients keep the one-shot path below.
    if (policy_->enabled()) {
      Attempt(encoded, /*attempt=*/0, submit_time);
      return;
    }

    const int endpoint = endpoints_[next_endpoint_++ % endpoints_.size()];
    const HostId endpoint_host = ctx.hosts()[static_cast<size_t>(endpoint)];
    SimDuration delay =
        ctx.net()->DelaySampleFrom(&rng_, client_host_, endpoint_host,
                                   int64_t{ctx.txs().row(encoded).size_bytes} + 128);
    if (delay == kUnreachable) {
      delay = Milliseconds(500);
    }

    // The arrival goes on the simulation's lane, whose handler is this
    // chain's SubmitAtEndpoint.
    ctx.sim()->ScheduleArrival(submit_time + delay, encoded,
                               static_cast<uint32_t>(endpoint));
  }

 private:
  // One submission attempt issued at `now`. Endpoints rotate per attempt,
  // so a client with a multi-node view walks away from a dead node.
  void Attempt(TxId encoded, int attempt, SimTime now) {
    ChainContext& ctx = chain_->context();
    if (attempt > 0) {
      ++stats_->retries;
    }
    const int endpoint = endpoints_[next_endpoint_++ % endpoints_.size()];
    const HostId endpoint_host = ctx.hosts()[static_cast<size_t>(endpoint)];
    const SimDuration delay = ctx.net()->DelaySampleFrom(
        &rng_, client_host_, endpoint_host, int64_t{ctx.txs().row(encoded).size_bytes} + 128);
    if (delay == kUnreachable) {
      // The request vanished (endpoint crashed or partitioned); the client
      // only learns after its submission timeout.
      FailAttempt(encoded, attempt, now + policy_->timeout);
      return;
    }
    const SimTime arrival = now + delay;
    ctx.sim()->ScheduleAt(arrival, [this, encoded, endpoint, attempt, arrival] {
      ChainContext& c = chain_->context();
      if (c.SubmitAtEndpoint(encoded, endpoint, arrival, /*drop_on_reject=*/false)) {
        return;
      }
      // Admission rejected (pool full, signer cap) or the node died while
      // the request was in flight; the rejection reply travels back.
      const HostId ehost = c.hosts()[static_cast<size_t>(endpoint)];
      SimDuration back = c.net()->DelaySampleFrom(&rng_, ehost, client_host_, 256);
      if (back == kUnreachable) {
        back = policy_->timeout;
      }
      FailAttempt(encoded, attempt, arrival + back);
    });
  }

  // Books a failed attempt known to the client at `known_at` and either
  // schedules the next one after backoff or gives up.
  void FailAttempt(TxId encoded, int attempt, SimTime known_at) {
    ChainContext& ctx = chain_->context();
    if (attempt + 1 >= policy_->max_attempts) {
      ++stats_->aborts;
      ctx.DropTx(encoded);
      return;
    }
    const SimTime next = known_at + policy_->BackoffAfter(attempt);
    ctx.sim()->ScheduleAt(next, [this, encoded, attempt, next] {
      Attempt(encoded, attempt + 1, next);
    });
  }

  ChainInstance* chain_;
  HostId client_host_;
  std::vector<int> endpoints_;
  size_t next_endpoint_ = 0;
  const RetryPolicy* policy_;
  ClientStats* stats_;
  Rng rng_;  // owned jitter stream (see the class comment)
};

}  // namespace

SimDuration RetryPolicy::BackoffAfter(int attempt) const {
  return std::min(SaturatingBackoff(backoff, attempt), Seconds(30));
}

SimConnector::SimConnector(ChainInstance* chain) : chain_(chain) {}

std::unique_ptr<BlockchainClient> SimConnector::CreateClient(
    Region location, std::vector<int> endpoint_view) {
  ChainContext& ctx = chain_->context();
  const HostId host = ctx.net()->AddHost(location);
  return std::make_unique<SimClient>(chain_, host, std::move(endpoint_view),
                                     &retry_, &client_stats_, ctx.sim()->ForkRng());
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
