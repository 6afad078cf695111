// Transactions and their flat arena.
//
// A benchmark run can carry millions of transactions (the YouTube workload
// submits ~38,761 TPS), so Transaction is kept compact and lives in one
// contiguous TxStore indexed by TxId.
#ifndef SRC_CHAIN_TX_H_
#define SRC_CHAIN_TX_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/support/time.h"
#include "src/vm/interpreter.h"

namespace diablo {

using TxId = uint32_t;
inline constexpr TxId kInvalidTx = UINT32_MAX;

enum class TxPhase : uint8_t {
  kCreated = 0,   // encoded, not yet submitted
  kSubmitted,     // sent by a secondary, in flight or pending in a mempool
  kCommitted,     // included in a final block, executed successfully
  kDropped,       // rejected or evicted by a mempool, or expired
  kAborted,       // refused at the client's pre-flight: the call fails (revert /
                  // budget exceeded), so it never reaches a block
};

std::string_view TxPhaseName(TxPhase phase);

struct Transaction {
  int64_t gas = 0;         // execution cost, including intrinsic gas
  SimTime submit_time = -1;
  SimTime commit_time = -1;
  uint32_t account = 0;    // signer
  uint32_t sequence = 0;   // per-signer sequence number
  int32_t size_bytes = 0;  // wire size
  TxPhase phase = TxPhase::kCreated;
  VmStatus exec_status = VmStatus::kOk;

  double LatencySeconds() const {
    return commit_time < 0 || submit_time < 0
               ? -1.0
               : ToSeconds(commit_time - submit_time);
  }
};
// One record per transaction, tens of millions per Fig. 2 run: the field
// order above leaves two bytes of tail padding, and the size is pinned.
static_assert(sizeof(Transaction) == 40, "Transaction layout changed");

class TxStore {
 public:
  TxId Add(const Transaction& tx);
  Transaction& at(TxId id) { return txs_[id]; }
  const Transaction& at(TxId id) const { return txs_[id]; }
  size_t size() const { return txs_.size(); }
  void Reserve(size_t n) { txs_.reserve(n); }

  // Counts by phase, in TxPhase order.
  std::vector<size_t> PhaseCounts() const;

 private:
  std::vector<Transaction> txs_;
};

}  // namespace diablo

#endif  // SRC_CHAIN_TX_H_
