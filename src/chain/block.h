// Blocks and the ledger (the canonical chain of finalized blocks).
//
// The simulators model fork resolution through per-protocol confirmation
// depths rather than explicit branch structures: a block's finality time is
// computed by its consensus engine (immediately for deterministic finality,
// after k further blocks for forkable chains).
#ifndef SRC_CHAIN_BLOCK_H_
#define SRC_CHAIN_BLOCK_H_

#include <cstdint>
#include <vector>

#include "src/chain/tx.h"
#include "src/crypto/sha256.h"
#include "src/support/check.h"
#include "src/support/time.h"

namespace diablo {

struct Block {
  uint64_t height = 0;
  uint32_t proposer = 0;       // node index
  int64_t gas_used = 0;
  int64_t bytes = 0;           // wire size, header included
  SimTime proposed_at = 0;
  SimTime finalized_at = -1;   // -1 while not yet final
  // Transaction ids live in the owning ChainContext's flat block-tx pool
  // (ChainContext::BlockTxs resolves the range); keeping just the range here
  // makes Block trivially copyable and the ledger one contiguous vector.
  uint32_t tx_begin = 0;
  uint32_t tx_count = 0;
};

// Fixed header overhead added to the transaction payload bytes.
inline constexpr int64_t kBlockHeaderBytes = 512;

class Ledger {
 public:
  // Appends a block; heights must be appended in increasing order.
  void Append(Block block);

  // Pre-sizes the chain for an expected block count.
  void Reserve(size_t blocks) { blocks_.reserve(blocks); }

  size_t block_count() const { return blocks_.size(); }
  const Block& block(size_t i) const { return blocks_[i]; }

  // Header-chain digest over (height, proposer, tx count) triples; gives
  // tests a cheap integrity check without hashing every transaction.
  Digest256 HeaderChainDigest() const;

 private:
  std::vector<Block> blocks_;
  // Checked build: a parent-hash chain over the appended headers. Append
  // extends it incrementally; on a sampled cadence the whole chain is
  // re-derived from the stored blocks and compared, so any retroactive edit
  // of the header fields (or an out-of-order append the height check missed)
  // breaks the link.
  DIABLO_CHECKED_ONLY(Digest256 head_digest_{}; uint64_t append_tick_ = 0;)
};

}  // namespace diablo

#endif  // SRC_CHAIN_BLOCK_H_
