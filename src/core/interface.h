// The blockchain abstraction of §4: a blockchain is ⟨E, R, I⟩ — endpoints,
// resources and interaction types — and porting diablo to a new chain means
// implementing four functions: create_client, create_resource, encode and
// trigger. SimConnector implements them over this repository's simulated
// chains; examples/custom_blockchain.cc shows a from-scratch implementation.
#ifndef SRC_CORE_INTERFACE_H_
#define SRC_CORE_INTERFACE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/chains/chain_factory.h"

namespace diablo {

// φ^R: a resource needed by the benchmark — a set of accounts or a deployed
// contract.
struct ResourceSpec {
  enum class Kind { kAccounts, kContract };
  Kind kind = Kind::kAccounts;
  int account_count = 0;
  std::string contract_name;  // registry key for kContract
};

struct Resource {
  // kAccounts: [first_account, first_account + account_count)
  uint32_t first_account = 0;
  int account_count = 0;
  // kContract: index usable in InteractionSpec::contract_index.
  int contract_index = -1;
};

// φ^i: one interaction type instance — a native transfer, or invoke_D_Xs (§4).
struct InteractionSpec {
  enum class Type { kTransfer, kInvoke };
  Type type = Type::kTransfer;
  int contract_index = -1;            // invoke_D_Xs
  std::string function;
  std::vector<int64_t> args;
};

// Submission timeout + exponential-backoff retry policy for clients. The
// default (max_attempts = 1) is fire-and-forget: exactly the behaviour the
// paper's secondaries have, and what every healthy-path benchmark uses. A
// fault run enables retries so the harness distinguishes "the chain
// rejected it" from "the client gave up after bounded attempts".
struct RetryPolicy {
  int max_attempts = 1;  // 1 = retries disabled
  // Deadline for one submission RPC; an unreachable endpoint costs this
  // long before the client moves on.
  SimDuration timeout = Seconds(5);
  SimDuration backoff = Milliseconds(500);  // before attempt 2

  bool enabled() const { return max_attempts > 1; }

  // Wait after failed attempt number `attempt` (0-based): `backoff`,
  // doubled per attempt, capped at 30 s.
  SimDuration BackoffAfter(int attempt) const;
};

// Aggregated client-side submission accounting (across all of a
// connector's clients): how many attempts were retries, and how many
// transactions the clients abandoned after exhausting the policy.
struct ClientStats {
  uint64_t retries = 0;
  uint64_t aborts = 0;  // transactions given up on
};

// c.trigger(e): a client bound to one secondary location submitting encoded
// interactions to its view of the endpoints.
class BlockchainClient {
 public:
  virtual ~BlockchainClient() = default;

  // Sends the encoded interaction at `submit_time` (diablo records the
  // submission clock right before the send).
  virtual void Trigger(TxId encoded, SimTime submit_time) = 0;
};

class BlockchainConnector {
 public:
  virtual ~BlockchainConnector() = default;

  // s.create_client(E): a client at `location` that routes submissions to
  // `endpoint_view` (node indices).
  virtual std::unique_ptr<BlockchainClient> CreateClient(
      Region location, std::vector<int> endpoint_view) = 0;

  // create_resource(φ^r). Returns false when the resource cannot exist on
  // this chain (e.g. a contract the chain's VM cannot host, §5.2).
  virtual bool CreateResource(const ResourceSpec& spec, Resource* out) = 0;

  // encode(φ^i, r, t): pre-signs and encodes; returns an opaque handle, or
  // kInvalidTx when the interaction has no valid encoding (its wire size is
  // negative or over INT32_MAX bytes).
  virtual TxId Encode(const InteractionSpec& spec, const Resource& accounts,
                      SimTime scheduled_time) = 0;
};

class SimClient;

// Connector over a simulated ChainInstance. Its clients put every
// submission attempt on the simulation's arrival lane, and the connector is
// the lane's handler: it submits each arrival at its endpoint and decides
// what a refusal becomes. A one-shot client's refused transaction is
// dropped; a retrying client's goes back to that client, which books the
// failed attempt.
class SimConnector : public BlockchainConnector {
 public:
  // Registers the connector as the arrival handler of the chain's
  // simulation, which takes one at a time. The destructor removes it, so
  // destroy a connector before its chain.
  explicit SimConnector(ChainInstance* chain);
  ~SimConnector() override;

  SimConnector(const SimConnector&) = delete;
  SimConnector& operator=(const SimConnector&) = delete;

  std::unique_ptr<BlockchainClient> CreateClient(Region location,
                                                 std::vector<int> endpoint_view) override;
  bool CreateResource(const ResourceSpec& spec, Resource* out) override;
  // A call it rejects is never stamped: it uses up no signer account, so
  // the next call signs as if the rejected one had not been made.
  TxId Encode(const InteractionSpec& spec, const Resource& accounts,
              SimTime scheduled_time) override;

  // Encode in its two halves; Encode is Resolve, then Stamp. Resolve fills
  // `row` with every field Encode derives from `spec`: its exec status, and
  // its gas and wire size as a CallRow interned in the chain's TxStore. It
  // measures the function's cost profile on its first use, and returns false
  // when the call has no valid wire size or the store holds
  // TxStore::kMaxRows other rows. Stamp stores a copy of `row` signed by the
  // next account at `scheduled_time`.
  bool Resolve(const InteractionSpec& spec, Transaction* row);
  TxId Stamp(const Transaction& row, const Resource& accounts, SimTime scheduled_time);

  // Applies to every client; call before CreateClient.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  // Submission accounting summed over all clients of this connector.
  const ClientStats& client_stats() const { return client_stats_; }

 private:
  friend class SimClient;

  // Under a retry policy: `client` has attempt `attempt` of `tx` in flight.
  void NoteAttempt(TxId tx, uint32_t client, int attempt);
  // The lane handler.
  void Deliver(const Simulation::Arrival& arrival);

  ChainInstance* chain_;
  uint32_t next_account_ = 0;
  uint64_t encode_counter_ = 0;
  RetryPolicy retry_;
  ClientStats client_stats_;
  // Under a retry policy only: the clients in creation order, and for each
  // TxId a client has attempted, the index of that client times
  // max_attempts plus the attempt in flight.
  std::vector<SimClient*> retrying_clients_;
  std::vector<uint32_t> attempt_of_;
};

}  // namespace diablo

#endif  // SRC_CORE_INTERFACE_H_
