#include "src/chain/block.h"

namespace diablo {

#if defined(DIABLO_CHECKED)
namespace {

// One chain link: digest of (parent digest, height, proposer, tx_count) —
// the fields that are immutable once appended. finalized_at is deliberately
// excluded: forkable chains finalize blocks retroactively.
Digest256 ChainLink(const Digest256& parent, const Block& block) {
  Sha256 hasher;
  hasher.Update(parent.data(), parent.size());
  hasher.Update(&block.height, sizeof(block.height));
  hasher.Update(&block.proposer, sizeof(block.proposer));
  const uint64_t n = block.tx_count;
  hasher.Update(&n, sizeof(n));
  return hasher.Finish();
}

}  // namespace
#endif

void Ledger::Append(Block block) {
  // Heights come from per-protocol round counters, which skip numbers when a
  // round fails to seal (crashed leader, lost quorum) — so the chain is
  // strictly increasing, not contiguous.
  DIABLO_CHECK(blocks_.empty() ? block.height >= 1
                               : block.height > blocks_.back().height,
               "ledger heights must be appended in strictly increasing order");
  DIABLO_CHECK(block.finalized_at < 0 || block.finalized_at >= block.proposed_at,
               "a block cannot finalize before it was proposed");
  DIABLO_CHECK(block.proposed_at >= 0, "block proposal times are simulation times");
  blocks_.push_back(block);
#if defined(DIABLO_CHECKED)
  head_digest_ = ChainLink(head_digest_, block);
  if (++append_tick_ % 256 == 0) {
    Digest256 replay{};
    for (const Block& b : blocks_) {
      replay = ChainLink(replay, b);
    }
    DIABLO_CHECK(replay == head_digest_,
                 "ledger parent-hash chain no longer matches the stored headers");
  }
#endif
}

Digest256 Ledger::HeaderChainDigest() const {
  Sha256 hasher;
  for (const Block& block : blocks_) {
    hasher.Update(&block.height, sizeof(block.height));
    hasher.Update(&block.proposer, sizeof(block.proposer));
    const uint64_t n = block.tx_count;
    hasher.Update(&n, sizeof(n));
  }
  return hasher.Finish();
}

}  // namespace diablo
