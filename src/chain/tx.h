// Transactions and their flat arena.
//
// A benchmark run can carry millions of transactions (the YouTube workload
// submits ~38,761 TPS), so Transaction is kept compact and lives in one
// contiguous TxStore indexed by TxId. What a call costs and carries on the
// wire is the same for every call of one function, so the store keeps each
// distinct CallRow once and a transaction names its row by a 16-bit index.
#ifndef SRC_CHAIN_TX_H_
#define SRC_CHAIN_TX_H_

#include <cstdint>
#include <limits>
#include <optional>
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

// What one call costs and carries: a cell holds one per distinct function
// and payload its streams call.
struct CallRow {
  int64_t gas = 0;         // execution cost, including intrinsic gas
  int32_t size_bytes = 0;  // wire size

  bool operator==(const CallRow&) const = default;
};

struct Transaction {
  SimTime submit_time = -1;
  SimTime commit_time = -1;
  uint32_t account = 0;  // signer
  uint16_t row = 0;      // its CallRow in the store; row 0 is the zero row
  TxPhase phase = TxPhase::kCreated;
  VmStatus exec_status = VmStatus::kOk;

  double LatencySeconds() const {
    return commit_time < 0 || submit_time < 0
               ? -1.0
               : ToSeconds(commit_time - submit_time);
  }
};
// One record per transaction, tens of millions per Fig. 2 run: the fields
// above fill 24 bytes with no padding, and the size is pinned.
static_assert(sizeof(Transaction) == 24, "Transaction layout changed");

class TxStore {
 public:
  // The row table's capacity: every value of Transaction::row.
  static constexpr size_t kMaxRows =
      size_t{std::numeric_limits<decltype(Transaction::row)>::max()} + 1;

  TxStore() : rows_(1) {}

  TxId Add(const Transaction& tx);
  Transaction& at(TxId id) { return txs_[id]; }
  const Transaction& at(TxId id) const { return txs_[id]; }
  size_t size() const { return txs_.size(); }
  void Reserve(size_t n) { txs_.reserve(n); }

  // The index of `row` in the row table, which adds it on first sight;
  // nullopt when it is new and the table already holds kMaxRows rows.
  // Encoding call by call interns every call's row, usually the one it
  // returned last, so that one is compared before the table is scanned.
  std::optional<uint16_t> InternRow(const CallRow& row) {
    if (rows_[last_row_] == row) {
      return last_row_;
    }
    return InternNewRow(row);
  }
  const CallRow& row(TxId id) const { return rows_[txs_[id].row]; }

  // Counts by phase, in TxPhase order.
  std::vector<size_t> PhaseCounts() const;

 private:
  std::optional<uint16_t> InternNewRow(const CallRow& row);

  std::vector<Transaction> txs_;
  std::vector<CallRow> rows_;
  uint16_t last_row_ = 0;
};

}  // namespace diablo

#endif  // SRC_CHAIN_TX_H_
