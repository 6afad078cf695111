#include "src/chain/node.h"

#include <algorithm>

#include "src/support/check.h"

namespace diablo {

ChainContext::ChainContext(Simulation* sim, Network* net, DeploymentConfig deployment,
                           ChainParams params)
    : sim_(sim),
      net_(net),
      deployment_(std::move(deployment)),
      params_(std::move(params)),
      rng_(sim->ForkRng()),
      validators_(deployment_),
      oracle_(params_.dialect),
      mempool_(params_.mempool, &rng_) {
  hosts_.reserve(static_cast<size_t>(deployment_.node_count));
  for (int i = 0; i < deployment_.node_count; ++i) {
    hosts_.push_back(net_->AddHost(validators_.region(i)));
  }
  // Delay plane for consensus votes (small fixed-size messages): a dense
  // matrix at paper scale, the streamed model at fig3-XL scale.
  vote_delays_ = std::make_unique<VoteDelays>(net_, hosts_, /*message_bytes=*/256);
  exec_model_.gas_per_second_per_vcpu = params_.gas_per_sec_per_vcpu;
  sim_->SetArrivalHandler([this](const Simulation::Arrival& arrival) {
    SubmitAtEndpoint(arrival.tx, static_cast<int>(arrival.endpoint), arrival.time);
  });
}

ChainContext::~ChainContext() { sim_->SetArrivalHandler(nullptr); }

double ChainContext::RecentArrivalRate(SimTime now) const {
  const size_t second = static_cast<size_t>(now / kSecond);
  // Use the last completed window; the current one is still filling.
  if (second == 0 || second - 1 >= arrivals_per_second_.size()) {
    return 0.0;
  }
  return static_cast<double>(arrivals_per_second_[second - 1]);
}

bool ChainContext::SubmitAtEndpoint(TxId id, int endpoint, SimTime arrival,
                                    bool drop_on_reject) {
  Transaction& tx = txs_.at(id);
  if (NodeDown(endpoint)) {
    // The request reached a crashed node's address: nobody answers it.
    if (drop_on_reject) {
      DropTx(id);
    }
    return false;
  }
  const size_t second = static_cast<size_t>(arrival / kSecond);
  if (second >= arrivals_per_second_.size()) {
    arrivals_per_second_.resize(second + 1, 0);
  }
  ++arrivals_per_second_[second];
  // Gossip readiness: half a batching interval on average, plus the one-way
  // delay from the ingress node to a representative peer.
  const int peer = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(node_count())));
  SimDuration gossip = net_->DelaySample(hosts_[static_cast<size_t>(endpoint)],
                                         hosts_[static_cast<size_t>(peer)],
                                         int64_t{tx.size_bytes} + 64);
  if (gossip == kUnreachable) {
    gossip = Milliseconds(500);
  }
  const SimDuration batch_wait = static_cast<SimDuration>(
      rng_.NextBelow(static_cast<uint64_t>(params_.gossip_batch_interval) + 1));
  const SimTime ready = arrival + batch_wait + gossip;

  TxId evicted = kInvalidTx;
  const AdmitResult result = mempool_.Add(id, tx.account, arrival, ready, &evicted);
  if (evicted != kInvalidTx) {
    DropTx(evicted);
  }
  if (result != AdmitResult::kAdmitted) {
    if (drop_on_reject) {
      DropTx(id);
    }
    return false;
  }
  tx.phase = TxPhase::kSubmitted;
  return true;
}

void ChainContext::SetNodeDown(int node, bool down) {
  validators_.SetDown(node, down);
  net_->SetPartitioned(hosts_[static_cast<size_t>(node)], down);
}

void ChainContext::SetCpuFactor(int node, double factor) {
  validators_.SetCpuFactor(node, factor);
}

void ChainContext::SetAdversary(int node, uint8_t bits, bool on) {
  validators_.SetAdversary(node, bits, on);
}

void ChainContext::SetCensoredSigners(std::vector<uint32_t> signers) {
  censored_signers_ = std::move(signers);
  std::sort(censored_signers_.begin(), censored_signers_.end());
}

void ChainContext::ApplyVoteAdversaries(std::vector<SimDuration>* delays) {
  if (!validators_.AnyAdversary()) {
    return;
  }
  for (size_t node = 0; node < delays->size(); ++node) {
    const uint8_t bits = validators_.Adversary(static_cast<int>(node));
    if (bits == 0) {
      continue;
    }
    SimDuration& delay = (*delays)[node];
    if (delay == kUnreachable) {
      continue;  // already down or partitioned; nothing left to withhold
    }
    if ((bits & kAdversaryWithhold) != 0) {
      delay = kUnreachable;
      ++stats_.votes_withheld;
    } else if ((bits & kAdversaryDoubleVote) != 0) {
      // The honest vote stands; the duplicate is detected and discarded, so
      // it contributes evidence but never a second quorum slot.
      ++stats_.double_votes_seen;
    }
  }
}

void ChainContext::ApplyVoteAdversaries(std::vector<SimDuration>* delays,
                                        const std::vector<uint32_t>& members) {
  if (!validators_.AnyAdversary()) {
    return;
  }
  const size_t count = std::min(delays->size(), members.size());
  for (size_t pos = 0; pos < count; ++pos) {
    const uint8_t bits = validators_.Adversary(static_cast<int>(members[pos]));
    if (bits == 0) {
      continue;
    }
    SimDuration& delay = (*delays)[pos];
    if (delay == kUnreachable) {
      continue;
    }
    if ((bits & kAdversaryWithhold) != 0) {
      delay = kUnreachable;
      ++stats_.votes_withheld;
    } else if ((bits & kAdversaryDoubleVote) != 0) {
      ++stats_.double_votes_seen;
    }
  }
}

void ChainContext::AbandonBlock(const BuiltBlock& built, SimTime now) {
  ++stats_.blocks_abandoned;
  if (built.tx_count == 0) {
    return;
  }
  DIABLO_CHECK(static_cast<size_t>(built.tx_begin) + built.tx_count <=
                   block_txs_.size(),
               "abandoned block's (tx_begin, tx_count) range escapes the block-tx pool");
  abandon_ids_.clear();
  abandon_signers_.clear();
  abandon_ingress_.clear();
  abandon_ready_.clear();
  for (const TxId id : BlockTxs(built)) {
    const Transaction& tx = txs_.at(id);
    abandon_ids_.push_back(id);
    abandon_signers_.push_back(tx.account);
    abandon_ingress_.push_back(tx.submit_time);
    abandon_ready_.push_back(now);
  }
  mempool_.Requeue(abandon_ids_, abandon_signers_, abandon_ingress_, abandon_ready_);
}

void ChainContext::RequeueBlockTail(BuiltBlock* built, uint32_t keep,
                                    SimTime now) {
  DIABLO_CHECK(static_cast<size_t>(built->tx_begin) + built->tx_count ==
                   block_txs_.size(),
               "RequeueBlockTail only applies to the most recently drafted block");
  if (keep >= built->tx_count) {
    return;
  }
  abandon_ids_.clear();
  abandon_signers_.clear();
  abandon_ingress_.clear();
  abandon_ready_.clear();
  for (size_t i = static_cast<size_t>(built->tx_begin) + keep;
       i < block_txs_.size(); ++i) {
    const TxId id = block_txs_[i];
    const Transaction& tx = txs_.at(id);
    abandon_ids_.push_back(id);
    abandon_signers_.push_back(tx.account);
    abandon_ingress_.push_back(tx.submit_time);
    abandon_ready_.push_back(now);
  }
  mempool_.Requeue(abandon_ids_, abandon_signers_, abandon_ingress_, abandon_ready_);
  block_txs_.resize(static_cast<size_t>(built->tx_begin) + keep);
  built->tx_count = keep;
  built->gas = 0;
  built->bytes = kBlockHeaderBytes;
  const int64_t* gas_table = txs_.gas_data();
  const int32_t* bytes_table = txs_.bytes_data();
  for (const TxId id : BlockTxs(*built)) {
    built->gas += gas_table[id];
    built->bytes += bytes_table[id];
  }
}

ChainContext::BuiltBlock ChainContext::BuildBlock(SimTime now, int proposer) {
  // The shared-pool model makes drafting proposer-agnostic; the proposer
  // index only matters for straggler and adversary injection below.
  BuiltBlock built;

  // A lazy proposer seals a deliberately empty block: no pool scan, no
  // execution, just the sealing itself.
  if (validators_.AnyAdversary() &&
      (validators_.Adversary(proposer) & kAdversaryLazy) != 0 &&
      !NodeDown(proposer)) {
    built.tx_begin = static_cast<uint32_t>(block_txs_.size());
    ++stats_.lazy_proposals;
    return built;
  }

  // Congestion model: a growing pending set erodes the usable block
  // capacity by threshold / (threshold + backlog) — the node spends its
  // time shuffling queues instead of packing blocks (§6.3). With a small
  // backlog the factor is ~1; chains with threshold 0 are immune.
  size_t max_txs = params_.max_block_txs;
  int64_t gas_limit = params_.block_gas_limit;
  if (params_.ingress_capacity > 0) {
    const double rate = RecentArrivalRate(now);
    const double factor =
        params_.ingress_capacity / (params_.ingress_capacity + rate);
    max_txs = std::max<size_t>(1, static_cast<size_t>(static_cast<double>(max_txs) * factor));
  }
  if (params_.congestion_threshold > 0 && mempool_.size() > 0) {
    const double factor = static_cast<double>(params_.congestion_threshold) /
                          static_cast<double>(params_.congestion_threshold + mempool_.size());
    max_txs = std::max<size_t>(1, static_cast<size_t>(static_cast<double>(max_txs) * factor));
    if (gas_limit > 0) {
      // Never shrink below one worst-case transaction so the head of the
      // queue cannot wedge.
      gas_limit = std::max<int64_t>(
          params_.block_gas_limit / 100,
          static_cast<int64_t>(static_cast<double>(gas_limit) * factor));
    }
  }

  // Taken ids go straight into the context's flat block-tx pool; the
  // expired batch is per-block scratch served from the arena. With both
  // pre-sized, drafting a block performs no heap allocation.
  scratch_arena_.Reset();
  ArenaVector<TxId> expired(&scratch_arena_);
  built.tx_begin = static_cast<uint32_t>(block_txs_.size());
  const int64_t* gas_table = txs_.gas_data();
  const int32_t* bytes_table = txs_.bytes_data();
  mempool_.TakeReady(
      now, gas_limit, params_.max_block_bytes, max_txs,
      [gas_table](TxId id) { return gas_table[id]; },
      [bytes_table](TxId id) { return static_cast<int64_t>(bytes_table[id]); },
      &block_txs_, &expired);
  built.tx_count = static_cast<uint32_t>(block_txs_.size()) - built.tx_begin;
  DIABLO_CHECK(built.tx_count <= max_txs,
               "TakeReady returned more transactions than the block's cap");
  for (const TxId id : expired) {
    ++stats_.txs_expired;
    DropTx(id);
  }

  // Censorship: a censoring proposer silently leaves the targeted signers'
  // transactions out of its draft. They go back to the pool (takeable
  // immediately), so an honest proposer picks them up later — censorship
  // delays the victims, it cannot drop them.
  if (!censored_signers_.empty() && built.tx_count > 0 &&
      (validators_.Adversary(proposer) & kAdversaryCensor) != 0 &&
      !NodeDown(proposer)) {
    abandon_ids_.clear();
    abandon_signers_.clear();
    abandon_ingress_.clear();
    abandon_ready_.clear();
    size_t write = built.tx_begin;
    for (size_t i = built.tx_begin; i < block_txs_.size(); ++i) {
      const TxId id = block_txs_[i];
      const Transaction& tx = txs_.at(id);
      if (std::binary_search(censored_signers_.begin(), censored_signers_.end(),
                             tx.account)) {
        ++stats_.txs_censored;
        abandon_ids_.push_back(id);
        abandon_signers_.push_back(tx.account);
        abandon_ingress_.push_back(tx.submit_time);
        abandon_ready_.push_back(now);
      } else {
        block_txs_[write++] = id;
      }
    }
    if (!abandon_ids_.empty()) {
      block_txs_.resize(write);
      built.tx_count = static_cast<uint32_t>(write) - built.tx_begin;
      mempool_.Requeue(abandon_ids_, abandon_signers_, abandon_ingress_,
                       abandon_ready_);
    }
  }

  for (const TxId id : BlockTxs(built)) {
    built.gas += gas_table[id];
    built.bytes += bytes_table[id];
  }

  // Proposer work: scan of the pending set, block execution, signature
  // verification.
  built.build_time = PoolScanTime() + ExecAndVerifyTime(built.gas, built.tx_count);
  if (validators_.AnyCpuOverride()) {
    const double factor = validators_.CpuFactor(proposer);
    if (factor < 1.0) {
      built.build_time =
          static_cast<SimDuration>(static_cast<double>(built.build_time) / factor);
    }
  }
  return built;
}

SimDuration ChainContext::PoolScanTime() const {
  const double pending = static_cast<double>(mempool_.size());
  const double linear =
      static_cast<double>(params_.proposal_overhead_per_pending_tx) * pending;
  const double kilo = pending / 1000.0;
  const double quadratic =
      static_cast<double>(params_.proposal_overhead_quadratic) * kilo * kilo;
  return static_cast<SimDuration>(linear + quadratic);
}

SimDuration ChainContext::ExecAndVerifyTime(int64_t gas, size_t tx_count) const {
  const int vcpus = deployment_.machine.vcpus;
  const SimDuration exec = exec_model_.ExecTime(gas, vcpus);
  const SimDuration verify =
      CostOf(params_.sig_scheme).verify * static_cast<SimDuration>(tx_count) / vcpus;
  return exec + verify;
}

void ChainContext::FinalizeBlock(uint64_t height, int proposer, BuiltBlock&& built,
                                 SimTime proposed_at, SimTime final_time) {
  ++stats_.blocks_produced;
  if (built.tx_count == 0) {
    ++stats_.empty_blocks;
  }
  DIABLO_CHECK(static_cast<size_t>(built.tx_begin) + built.tx_count <=
                   block_txs_.size(),
               "finalized block's (tx_begin, tx_count) range escapes the block-tx pool");
  DIABLO_CHECK(final_time >= proposed_at,
               "a block cannot finalize before it was proposed");

  // Commit-safety invariant: no two committed blocks may ever share a
  // height with different contents — whatever adversary schedule is armed,
  // the engines' equivocation defenses must funnel exactly one proposal per
  // height into FinalizeBlock. Pure observer: hashes already-final data.
  DIABLO_CHECKED_ONLY({
    Sha256 hasher;
    hasher.Update(&height, sizeof(height));
    hasher.Update(&built.gas, sizeof(built.gas));
    hasher.Update(&built.tx_count, sizeof(built.tx_count));
    const std::span<const TxId> ids = BlockTxs(built);
    hasher.Update(ids.data(), ids.size_bytes());
    const Digest256 digest = hasher.Finish();
    if (stats_.blocks_produced > 1 && height <= last_commit_height_) {
      DIABLO_CHECK(height == last_commit_height_ && digest == last_commit_digest_,
                   "safety violation: two committed blocks at one height "
                   "with different contents");
    }
    last_commit_height_ = height;
    last_commit_digest_ = digest;
  })

  Block block;
  block.height = height;
  block.proposer = static_cast<uint32_t>(proposer);
  block.gas_used = built.gas;
  block.bytes = built.bytes;
  block.proposed_at = proposed_at;
  block.finalized_at = final_time;
  block.tx_begin = built.tx_begin;
  block.tx_count = built.tx_count;

  for (const TxId id : BlockTxs(block)) {
    Transaction& tx = txs_.at(id);
    // Client observation: collocated secondaries learn of the commit on the
    // next head notification.
    const SimDuration observe =
        Milliseconds(1) + static_cast<SimDuration>(rng_.NextBelow(
                              static_cast<uint64_t>(params_.client_poll_interval) + 1));
    const SimTime commit_time = final_time + observe;
    if (tx.exec_status == VmStatus::kOk) {
      tx.phase = TxPhase::kCommitted;
      ++stats_.txs_committed;
    } else {
      tx.phase = TxPhase::kAborted;
    }
    tx.commit_time = commit_time;
    if (on_tx_complete) {
      on_tx_complete(id);
    }
  }
  ledger_.Append(block);
}

void ChainContext::DropTx(TxId id, VmStatus reason) {
  Transaction& tx = txs_.at(id);
  tx.phase = TxPhase::kDropped;
  if (reason != VmStatus::kOk) {
    tx.exec_status = reason;
  }
  ++stats_.txs_dropped;
  if (on_tx_complete) {
    on_tx_complete(id);
  }
}

}  // namespace diablo
