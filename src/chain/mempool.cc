#include "src/chain/mempool.h"

namespace diablo {

namespace {
// A purge costs one pass over the heap plus a make_heap. It runs only once
// zombies are at least half the heap, so that it removes at least as many
// entries as it keeps, and at least this many, so that a small pool does not
// rebuild its heap for a handful of zombies.
constexpr size_t kPurgeMinZombies = 1024;
}  // namespace

void Mempool::Reserve(size_t expected_txs) {
  if (expected_txs > state_.size()) {
    ResizeTables(expected_txs);
  }
  // The pending set is bounded by the cap when there is one; otherwise be
  // generous up to the event queue's pre-sizing convention.
  const size_t pending =
      config_.global_cap > 0
          ? std::min(expected_txs, config_.global_cap + 1)
          : std::min<size_t>(expected_txs, 65536);
  heap_.reserve(pending);
  if (config_.evict_on_full) {
    ring_.reserve(pending * 2);
  }
}

void Mempool::ResizeTables(size_t size) {
  state_.resize(size, kGone);
  if (config_.ttl > 0) {
    ingress_.resize(size, 0);
  }
  if (config_.per_signer_cap > 0) {
    signer_of_.resize(size, 0);
  }
}

void Mempool::HeapPush(HeapEntry entry) {
  // Hole insertion: bubble the hole up, one move per level instead of a
  // three-move swap.
  heap_.push_back(entry);
  size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const size_t parent = (hole - 1) / 2;
    if (!Later(heap_[parent], entry)) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void Mempool::HeapPopTop() {
  // Bottom-up pop: the replacement element comes from the back of the
  // array, so it almost always belongs near a leaf again. Sift the hole
  // all the way down choosing the smaller child (one comparison per
  // level, never against `moving`), then bubble `moving` back up the few
  // levels it needs — fewer comparisons than the classic top-down sift.
  const HeapEntry moving = heap_.back();
  heap_.pop_back();
  const size_t count = heap_.size();
  if (count == 0) {
    return;
  }
  size_t hole = 0;
  size_t child = 2 * hole + 1;
  while (child < count) {
    if (child + 1 < count && Later(heap_[child], heap_[child + 1])) {
      ++child;
    }
    heap_[hole] = heap_[child];
    hole = child;
    child = 2 * hole + 1;
  }
  while (hole > 0) {
    const size_t parent = (hole - 1) / 2;
    if (!Later(heap_[parent], moving)) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = moving;
}

AdmitResult Mempool::Add(TxId id, uint32_t signer, SimTime ingress_time,
                         SimTime ready_time, TxId* evicted) {
  if (evicted != nullptr) {
    *evicted = kInvalidTx;
  }
  if (config_.global_cap > 0 && live_count_ >= config_.global_cap) {
    if (!config_.evict_on_full || rng_ == nullptr) {
      ++rejected_;
      return AdmitResult::kPoolFull;
    }
    const TxId victim = EvictRandom();
    if (victim == kInvalidTx) {
      ++rejected_;
      return AdmitResult::kPoolFull;
    }
    if (evicted != nullptr) {
      *evicted = victim;
    }
  }
  if (config_.per_signer_cap > 0) {
    if (static_cast<size_t>(signer) >= signer_counts_.size()) {
      signer_counts_.resize(static_cast<size_t>(signer) + 1, 0);
    }
    uint32_t& count = signer_counts_[signer];
    if (count >= config_.per_signer_cap) {
      ++rejected_;
      return AdmitResult::kSignerCapReached;
    }
    ++count;
  }
  MarkLive(id, signer, ingress_time);
  HeapPush(HeapEntry{ready_time, id});
  if (config_.evict_on_full) {
    ring_.push_back(id);
    CompactRingIfNeeded();
  }
  ++live_count_;
  ++admitted_;
  CheckConsistencySampled();
  return AdmitResult::kAdmitted;
}

TxId Mempool::EvictRandom() {
  while (!ring_.empty()) {
    const size_t slot = rng_->NextBelow(ring_.size());
    const TxId id = ring_[slot];
    ring_[slot] = ring_.back();
    ring_.pop_back();
    if (state_[id] != kLive) {
      continue;  // stale slot: already taken/expired/evicted
    }
    // Live victim: mark it a zombie so TakeReady skips its heap entry.
    state_[id] = kZombie;
    ReleaseSigner(id);
    --live_count_;
    ++evictions_;
    if (++zombie_count_ >= kPurgeMinZombies && 2 * zombie_count_ >= heap_.size()) {
      PurgeZombies();
    }
    return id;
  }
  return kInvalidTx;
}

void Mempool::CompactRingIfNeeded() {
  if (ring_.size() < 64 || ring_.size() < 2 * live_count_) {
    return;
  }
  // Keep live slots, preserving order, without a scratch vector.
  size_t out = 0;
  for (const TxId id : ring_) {
    if (state_[id] == kLive) {
      ring_[out++] = id;
    }
  }
  ring_.resize(out);
}

void Mempool::PurgeZombies() {
  // Evicted ids went to the caller's drop and never come back, so a purged
  // entry is gone for good. The eviction ring is left alone: its slot order
  // decides which victims later draws pick.
  size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (state_[entry.id] == kLive) {
      heap_[kept++] = entry;
    } else {
      state_[entry.id] = kGone;
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), Later);
  zombie_count_ = 0;
}

void Mempool::Requeue(TxId id, uint32_t signer, SimTime ingress, SimTime ready) {
  if (config_.per_signer_cap > 0) {
    if (static_cast<size_t>(signer) >= signer_counts_.size()) {
      signer_counts_.resize(static_cast<size_t>(signer) + 1, 0);
    }
    ++signer_counts_[signer];
  }
  MarkLive(id, signer, ingress);
  HeapPush(HeapEntry{ready, id});
  if (config_.evict_on_full) {
    ring_.push_back(id);
  }
  ++live_count_;
  CheckConsistencySampled();
}

#if defined(DIABLO_CHECKED)
namespace {
// One full table scan every 1024 pool operations: frequent enough that a
// bookkeeping bug trips within the block it was introduced, cheap enough
// that checked ctest runs stay interactive.
constexpr uint64_t kCheckCadence = 1024;
}  // namespace

void Mempool::CheckConsistencySampled() {
  if (++check_tick_ % kCheckCadence == 0) {
    CheckConsistency();
  }
}

void Mempool::CheckConsistency() const {
  size_t live = 0;
  size_t zombie = 0;
  for (const uint8_t s : state_) {
    live += s == kLive;
    zombie += s == kZombie;
  }
  DIABLO_CHECK(live == live_count_,
               "mempool live_count_ disagrees with the lifecycle table");
  DIABLO_CHECK(zombie == zombie_count_,
               "mempool zombie_count_ disagrees with the lifecycle table");
  DIABLO_CHECK(heap_.size() == live + zombie,
               "mempool heap entries must map 1:1 onto live and zombie ids");
  for (const HeapEntry& entry : heap_) {
    DIABLO_CHECK(static_cast<size_t>(entry.id) < state_.size() &&
                     state_[entry.id] != kGone,
                 "mempool heap entry refers to an id that already left the pool");
  }
  if (config_.per_signer_cap > 0) {
    size_t signer_total = 0;
    for (const uint32_t count : signer_counts_) {
      signer_total += count;
    }
    DIABLO_CHECK(signer_total == live_count_,
                 "mempool per-signer counts must sum to the live count");
  }
}
#endif

}  // namespace diablo
