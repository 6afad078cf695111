#include "src/chain/tx.h"

namespace diablo {

std::string_view TxPhaseName(TxPhase phase) {
  switch (phase) {
    case TxPhase::kCreated:
      return "created";
    case TxPhase::kSubmitted:
      return "submitted";
    case TxPhase::kCommitted:
      return "committed";
    case TxPhase::kDropped:
      return "dropped";
    case TxPhase::kAborted:
      return "aborted";
  }
  return "?";
}

TxId TxStore::Add(const Transaction& tx) {
  txs_.push_back(tx);
  return static_cast<TxId>(txs_.size() - 1);
}

std::vector<size_t> TxStore::PhaseCounts() const {
  std::vector<size_t> counts(5, 0);
  for (const Transaction& tx : txs_) {
    ++counts[static_cast<size_t>(tx.phase)];
  }
  return counts;
}

}  // namespace diablo
