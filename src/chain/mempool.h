// The distributed memory pool.
//
// Per-node mempool replicas would cost O(nodes × transactions) memory at
// this scale, so the pool is modelled once, logically shared: each entry
// carries a readiness time — its ingress time plus a sampled gossip delay —
// before which no proposer can include it. Admission control (global and
// per-signer caps, TTL expiry, geth-style eviction: the policies that
// differentiate Quorum, Diem, geth and Solana under load, §6.3/§6.5) runs
// at the ingress node.
//
// TxIds and account ids are dense uint32s handed out sequentially, so all
// per-transaction state lives in struct-of-arrays side tables indexed by
// TxId, and per-signer pending counts in a flat vector indexed by account
// id. Every pool keeps one lifecycle byte per TxId. The ingress time exists
// only under a TTL and the signer only under a per-signer cap, because no
// other policy reads them. Admission, TakeReady, TTL expiry, eviction and
// Requeue do zero hashing.
//
// The ready queue is an implicit binary heap of 16-byte (ready, id) entries
// popped with a bottom-up sift, which makes fewer comparisons than the event
// queue's wide heap (a 4-ary sift measured ~40% slower on a 512-entry
// drain). An eviction leaves its victim's entry behind as a zombie that
// TakeReady skips; once zombies are at least half the heap, they are purged
// in one pass. The shapes at simbench dapp-flood scale (Fig. 2's YouTube
// cells at 0.1x the rate):
// - Quorum's never-drop heap reaches 446,474 entries but sees only 18,432
//   pops, so the one large heap is mostly pushed to, not sifted;
// - Ethereum evicts 451,067 of its 464,906 admissions. With the purge its
//   heap stays at or below 10,238 entries, about twice the cap, and sees
//   19,553 pops; without it the heap reached 33,259 entries and every
//   zombie cost a pop;
// - EvictRandom draws 1.02 slots of the random-eviction candidate ring (a
//   flat TxId vector compacted in place) per eviction, so stale slots cost
//   next to nothing.
#ifndef SRC_CHAIN_MEMPOOL_H_
#define SRC_CHAIN_MEMPOOL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/chain/tx.h"
#include "src/support/check.h"
#include "src/support/rng.h"
#include "src/support/time.h"

namespace diablo {

struct MempoolConfig {
  // Maximum transactions in the pool; 0 = unbounded (Quorum/IBFT's design
  // of never dropping a client request).
  size_t global_cap = 0;
  // Maximum pending transactions per signer; 0 = none. Diem: 100 (§5.2).
  size_t per_signer_cap = 0;
  // Pending lifetime before expiry; 0 = forever. Solana rejects transactions
  // whose recent-blockhash is older than ~120 s (§5.2).
  SimDuration ttl = 0;
  // When the pool is full, evict a random pending transaction to admit the
  // newcomer (geth replaces by price; price and age are uncorrelated here,
  // so a uniform victim is the equivalent model) instead of rejecting it.
  bool evict_on_full = false;
};

enum class AdmitResult : uint8_t {
  kAdmitted = 0,
  kPoolFull,
  kSignerCapReached,
};

class Mempool {
 public:
  // `rng` is required only when config.evict_on_full is set.
  explicit Mempool(MempoolConfig config, Rng* rng = nullptr)
      : config_(config), rng_(rng) {}

  // Pre-sizes the side tables, the ready heap and the eviction ring for a
  // workload of `expected_txs` transactions so steady-state admission never
  // reallocates mid-run.
  void Reserve(size_t expected_txs);

  // Attempts to admit a transaction that arrived at `ingress_time` and
  // becomes visible to proposers at `ready_time`. With evict_on_full, a
  // successful admission into a full pool sets *evicted to the victim
  // (kInvalidTx otherwise); the caller owns reporting it dropped.
  AdmitResult Add(TxId id, uint32_t signer, SimTime ingress_time, SimTime ready_time,
                  TxId* evicted = nullptr);

  // Pops up to `max_txs` transactions that are ready at `now` and whose
  // cumulative gas / wire size stay within `gas_budget` / `byte_budget`
  // (0 = unlimited), oldest first, appending them to *taken. Expired entries
  // encountered along the way are appended to *expired. `gas_of` /
  // `bytes_of` map TxId to cost. Neither output is cleared first, so callers
  // can accumulate straight into long-lived storage.
  template <typename GasFn, typename BytesFn>
  void TakeReady(SimTime now, int64_t gas_budget, int64_t byte_budget,
                 size_t max_txs, GasFn gas_of, BytesFn bytes_of,
                 std::vector<TxId>* taken, std::vector<TxId>* expired);

  // Convenience wrapper returning the taken batch as a fresh vector.
  template <typename GasFn, typename BytesFn>
  std::vector<TxId> TakeReady(SimTime now, int64_t gas_budget, int64_t byte_budget,
                              size_t max_txs, GasFn gas_of, BytesFn bytes_of,
                              std::vector<TxId>* expired);

  // Returns a transaction taken earlier to the pool (leader failure, fork,
  // censorship), with its signer and ingress time; it becomes takeable
  // again at `ready`.
  void Requeue(TxId id, uint32_t signer, SimTime ingress, SimTime ready);

  size_t size() const { return live_count_; }
  uint64_t admitted() const { return admitted_; }
  uint64_t rejected() const { return rejected_; }
  uint64_t evictions() const { return evictions_; }

 private:
  // Lifecycle byte of a TxId. kGone covers everything that left the pool —
  // taken, expired, or a popped zombie — and doubles as "never seen":
  // leaving and never-arrived are indistinguishable to every consumer.
  enum TxState : uint8_t {
    kGone = 0,
    kLive,     // queued and takeable
    kZombie,   // evicted from the pool but its heap entry still pending
  };

  struct HeapEntry {
    SimTime ready;
    TxId id;
  };

  // Pop order: earliest readiness first, TxId breaking ties — the same
  // total order the seed priority_queue used, so drafted blocks are
  // bit-identical.
  static bool Later(const HeapEntry& a, const HeapEntry& b) {
    if (a.ready != b.ready) {
      return a.ready > b.ready;
    }
    return a.id > b.id;
  }

  void HeapPush(HeapEntry entry);
  void HeapPopTop();

  // Grows the TxId-indexed side tables to cover `id`.
  void EnsureTx(TxId id) {
    if (static_cast<size_t>(id) >= state_.size()) {
      ResizeTables(std::max<size_t>(static_cast<size_t>(id) + 1,
                                    state_.size() + state_.size() / 2 + 16));
    }
  }
  void ResizeTables(size_t size);

  // Marks `id` live and records what its pool's policy reads of it: the
  // ingress time under a TTL, the signer under a per-signer cap.
  void MarkLive(TxId id, uint32_t signer, SimTime ingress) {
    EnsureTx(id);
    state_[id] = kLive;
    if (config_.ttl > 0) {
      ingress_[id] = ingress;
    }
    if (config_.per_signer_cap > 0) {
      signer_of_[id] = signer;
    }
  }

  // Marks a live queue head gone and removes it from the heap.
  void RemoveHead(TxId id) {
    state_[id] = kGone;
    ReleaseSigner(id);
    --live_count_;
    HeapPopTop();
  }

  void ReleaseSigner(TxId id) {
    if (config_.per_signer_cap == 0) {
      return;
    }
    uint32_t& count = signer_counts_[signer_of_[id]];
    if (count > 0) {
      --count;
    }
  }

  // Removes one uniformly random live transaction; returns it.
  TxId EvictRandom();
  void CompactRingIfNeeded();
  // Drops every zombie entry from the heap at once and re-heapifies the live
  // ones. Pops follow the total (ready, TxId) order, so any valid heap over
  // the same live entries pops the same sequence.
  void PurgeZombies();

  // Checked build: full cross-check of the SoA side tables — live_count_
  // and zombie_count_ equal the numbers of kLive and kZombie lifecycle
  // bytes, the signer count vector sums back to the live count, and every
  // heap entry still refers to a live or zombie id.
  // O(table size), so sampled on a per-pool op cadence; a no-op otherwise.
#if defined(DIABLO_CHECKED)
  void CheckConsistencySampled();
  void CheckConsistency() const;
#else
  void CheckConsistencySampled() {}
#endif

  MempoolConfig config_;
  Rng* rng_;
  std::vector<HeapEntry> heap_;
  // Struct-of-arrays side tables, indexed by TxId. Only the lifecycle byte is
  // kept for every pool; the others exist only for the policy that reads
  // them, like the signer counts and the eviction ring below.
  std::vector<uint8_t> state_;       // TxState
  std::vector<SimTime> ingress_;     // ttl > 0 only; valid while state != kGone
  std::vector<uint32_t> signer_of_;  // per_signer_cap > 0 only
  // Pending-count per signer, indexed by account id.
  std::vector<uint32_t> signer_counts_;
  // Random-victim support: candidate slots, possibly stale (state != kLive).
  std::vector<TxId> ring_;
  size_t live_count_ = 0;
  size_t zombie_count_ = 0;  // kZombie ids, each with one heap entry
  uint64_t admitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t evictions_ = 0;
  DIABLO_CHECKED_ONLY(uint64_t check_tick_ = 0;)
};

template <typename GasFn, typename BytesFn>
void Mempool::TakeReady(SimTime now, int64_t gas_budget, int64_t byte_budget,
                        size_t max_txs, GasFn gas_of, BytesFn bytes_of,
                        std::vector<TxId>* taken, std::vector<TxId>* expired) {
  int64_t gas = 0;
  int64_t bytes = 0;
  size_t taken_count = 0;
  while (!heap_.empty() && taken_count < max_txs) {
    const HeapEntry top = heap_.front();
    if (state_[top.id] != kLive) {
      // Evicted earlier (zombie); already accounted.
      state_[top.id] = kGone;
      --zombie_count_;
      HeapPopTop();
      continue;
    }
    if (top.ready > now) {
      break;
    }
    if (config_.ttl > 0 && now - ingress_[top.id] > config_.ttl) {
      expired->push_back(top.id);
      RemoveHead(top.id);
      continue;
    }
    const int64_t tx_gas = gas_of(top.id);
    const int64_t tx_bytes = bytes_of(top.id);
    if (gas_budget > 0 && gas + tx_gas > gas_budget && taken_count > 0) {
      break;
    }
    if (byte_budget > 0 && bytes + tx_bytes > byte_budget && taken_count > 0) {
      break;
    }
    if (gas_budget > 0 && tx_gas > gas_budget && taken_count == 0) {
      // A single transaction over the whole budget can never be included;
      // treat as expired so it does not wedge the queue head.
      expired->push_back(top.id);
      RemoveHead(top.id);
      continue;
    }
    gas += tx_gas;
    bytes += tx_bytes;
    taken->push_back(top.id);
    ++taken_count;
    RemoveHead(top.id);
  }
  CheckConsistencySampled();
}

template <typename GasFn, typename BytesFn>
std::vector<TxId> Mempool::TakeReady(SimTime now, int64_t gas_budget, int64_t byte_budget,
                                     size_t max_txs, GasFn gas_of, BytesFn bytes_of,
                                     std::vector<TxId>* expired) {
  std::vector<TxId> taken;
  TakeReady(now, gas_budget, byte_budget, max_txs, gas_of, bytes_of, &taken, expired);
  return taken;
}

}  // namespace diablo

#endif  // SRC_CHAIN_MEMPOOL_H_
