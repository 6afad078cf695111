#include "src/chain/tx.h"

#include <algorithm>

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

std::optional<uint16_t> TxStore::InternNewRow(const CallRow& row) {
  auto found = std::find(rows_.begin(), rows_.end(), row);
  if (found == rows_.end()) {
    if (rows_.size() == kMaxRows) {
      return std::nullopt;
    }
    found = rows_.insert(rows_.end(), row);
  }
  last_row_ = static_cast<uint16_t>(found - rows_.begin());
  return last_row_;
}

std::vector<size_t> TxStore::PhaseCounts() const {
  std::vector<size_t> counts(5, 0);
  for (const Transaction& tx : txs_) {
    ++counts[static_cast<size_t>(tx.phase)];
  }
  return counts;
}

}  // namespace diablo
