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
}

double ChainContext::RecentArrivalRate(SimTime now) const {
  const size_t second = static_cast<size_t>(now / kSecond);
  // Use the last completed window; the current one is still filling.
  if (second == 0 || second - 1 >= arrivals_per_second_.size()) {
    return 0.0;
  }
  return static_cast<double>(arrivals_per_second_[second - 1]);
}

bool ChainContext::SubmitAtEndpoint(TxId id, int endpoint, SimTime arrival) {
  Transaction& tx = txs_.at(id);
  if (NodeDown(endpoint)) {
    // The request reached a crashed node's address: nobody answers it.
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
                                         int64_t{txs_.row(id).size_bytes} + 64);
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

void ChainContext::ApplyVoteAdversary(int node, SimDuration* delay) {
  const uint8_t bits = validators_.Adversary(node);
  if (bits == 0 || *delay == kUnreachable) {
    return;  // honest, or already down or partitioned: nothing to withhold
  }
  if ((bits & kAdversaryWithhold) != 0) {
    *delay = kUnreachable;
    ++stats_.votes_withheld;
  } else if ((bits & kAdversaryDoubleVote) != 0) {
    // The honest vote stands; the duplicate is detected and discarded, so
    // it contributes evidence but never a second quorum slot.
    ++stats_.double_votes_seen;
  }
}

void ChainContext::ApplyVoteAdversaries(std::vector<SimDuration>* delays,
                                        const std::vector<uint32_t>* members) {
  if (!validators_.AnyAdversary()) {
    return;
  }
  const size_t count = members == nullptr
                           ? delays->size()
                           : std::min(delays->size(), members->size());
  for (size_t pos = 0; pos < count; ++pos) {
    const size_t node = members == nullptr ? pos : (*members)[pos];
    ApplyVoteAdversary(static_cast<int>(node), &(*delays)[pos]);
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
  for (const TxId id : BlockTxs(built)) {
    const Transaction& tx = txs_.at(id);
    mempool_.Requeue(id, tx.account, tx.submit_time, now);
  }
}

void ChainContext::RequeueBlockTail(BuiltBlock* built, uint32_t keep,
                                    SimTime now) {
  DIABLO_CHECK(static_cast<size_t>(built->tx_begin) + built->tx_count ==
                   block_txs_.size(),
               "RequeueBlockTail only applies to the most recently drafted block");
  if (keep >= built->tx_count) {
    return;
  }
  for (size_t i = static_cast<size_t>(built->tx_begin) + keep;
       i < block_txs_.size(); ++i) {
    const Transaction& tx = txs_.at(block_txs_[i]);
    mempool_.Requeue(block_txs_[i], tx.account, tx.submit_time, now);
  }
  block_txs_.resize(static_cast<size_t>(built->tx_begin) + keep);
  built->tx_count = keep;
  built->gas = 0;
  built->bytes = kBlockHeaderBytes;
  for (const TxId id : BlockTxs(*built)) {
    const CallRow& row = txs_.row(id);
    built->gas += row.gas;
    built->bytes += row.size_bytes;
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
  // expired batch goes to a reused scratch vector. With both warm,
  // drafting a block performs no heap allocation.
  expired_.clear();
  built.tx_begin = static_cast<uint32_t>(block_txs_.size());
  const TxStore& txs = txs_;
  mempool_.TakeReady(
      now, gas_limit, params_.max_block_bytes, max_txs,
      [&txs](TxId id) { return txs.row(id).gas; },
      [&txs](TxId id) { return static_cast<int64_t>(txs.row(id).size_bytes); },
      &block_txs_, &expired_);
  built.tx_count = static_cast<uint32_t>(block_txs_.size()) - built.tx_begin;
  DIABLO_CHECK(built.tx_count <= max_txs,
               "TakeReady returned more transactions than the block's cap");
  for (const TxId id : expired_) {
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
    size_t write = built.tx_begin;
    for (size_t i = built.tx_begin; i < block_txs_.size(); ++i) {
      const TxId id = block_txs_[i];
      const Transaction& tx = txs_.at(id);
      if (std::binary_search(censored_signers_.begin(), censored_signers_.end(),
                             tx.account)) {
        ++stats_.txs_censored;
        mempool_.Requeue(id, tx.account, tx.submit_time, now);
      } else {
        block_txs_[write++] = id;
      }
    }
    block_txs_.resize(write);
    built.tx_count = static_cast<uint32_t>(write) - built.tx_begin;
  }

  for (const TxId id : BlockTxs(built)) {
    const CallRow& row = txs_.row(id);
    built.gas += row.gas;
    built.bytes += row.size_bytes;
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
  const SimDuration exec = SecondsF(static_cast<double>(gas) /
                                    (params_.gas_per_sec_per_vcpu * static_cast<double>(vcpus)));
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
    // The client's pre-flight aborts every call its VM rejects, so only
    // executable transactions reach a block.
    DIABLO_CHECK(tx.exec_status == VmStatus::kOk,
                 "a transaction that fails execution reached a block");
    tx.phase = TxPhase::kCommitted;
    ++stats_.txs_committed;
    tx.commit_time = final_time + observe;
  }
  ledger_.Append(block);
}

void ChainContext::DropTx(TxId id) {
  txs_.at(id).phase = TxPhase::kDropped;
  ++stats_.txs_dropped;
}

}  // namespace diablo
