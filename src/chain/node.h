// ChainContext: everything one simulated blockchain deployment owns — the
// node hosts, the shared transaction arena, the distributed mempool, the
// ledger — plus the helpers consensus engines use to build, finalize and
// account blocks. The engines themselves sit on ConsensusEngine
// (src/consensus/engine.h).
#ifndef SRC_CHAIN_NODE_H_
#define SRC_CHAIN_NODE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/chain/block.h"
#include "src/chain/execution.h"
#include "src/chain/mempool.h"
#include "src/chain/tx.h"
#include "src/chain/validator_table.h"
#include "src/chain/vote_round.h"
#include "src/crypto/signature.h"
#include "src/fault/schedule.h"
#include "src/net/deployment.h"
#include "src/net/network.h"
#include "src/sim/simulation.h"

namespace diablo {

// Full parameter sheet of one blockchain. Values for the six evaluated
// chains live in src/chains/params.cc with calibration notes.
struct ChainParams {
  std::string name;            // "quorum"
  std::string consensus_name;  // "IBFT" (Table 4)
  std::string property;        // "det." | "prob." | "eventual" (Table 4)
  std::string vm_name;         // "geth" | "AVM" | "MoveVM" | "eBPF" (Table 4)
  std::string dapp_language;   // "Solidity" | "PyTeal" | "Move" (Table 4)
  VmDialect dialect = VmDialect::kGeth;
  SignatureScheme sig_scheme = SignatureScheme::kEcdsa;

  // Block production.
  SimDuration block_interval = Seconds(1);  // minimum period between rounds
  int64_t block_gas_limit = 0;              // 0 = unlimited
  int64_t max_block_bytes = 0;              // 0 = unlimited (wire-size cap)
  size_t max_block_txs = 10000;
  int confirmation_depth = 0;  // further blocks before a client treats it final

  // Admission control.
  MempoolConfig mempool;

  // Transaction dissemination.
  SimDuration gossip_batch_interval = Milliseconds(200);

  // Execution.
  double gas_per_sec_per_vcpu = 100e6;

  // Congestion collapse: when the pending pool exceeds this many
  // transactions, effective block capacity scales by
  // threshold / (threshold + backlog). 0 = immune (§6.3's Avalanche).
  size_t congestion_threshold = 0;

  // Ingress overload: request admission burns node CPU, so effective block
  // capacity also scales by capacity / (capacity + arrival_rate) when this
  // is non-zero (requests per second the RPC layer absorbs gracefully).
  double ingress_capacity = 0;

  // Leader-based protocols (IBFT / HotStuff).
  SimDuration round_timeout = Seconds(10);
  SimDuration proposal_overhead_per_pending_tx = 0;  // pool-scan cost pre-proposal
  // Superlinear pool-management cost: charged per (pending/1000)^2. Models
  // the queue-shuffling collapse of a never-drop pool under sustained
  // overload (§6.3).
  SimDuration proposal_overhead_quadratic = 0;

  // Algorand.
  double committee_expected = 0;
  SimDuration step_timeout = 0;

  // Avalanche: consecutive successful query rounds to decide.
  int beta = 15;

  // Client-side commit observation (websocket push / polling granularity).
  SimDuration client_poll_interval = Milliseconds(500);
};

// Per-run counters a chain reports besides per-transaction phases.
struct ChainStats {
  uint64_t blocks_produced = 0;
  uint64_t empty_blocks = 0;
  uint64_t view_changes = 0;
  uint64_t txs_committed = 0;
  uint64_t txs_dropped = 0;
  uint64_t txs_expired = 0;
  // Drafted blocks whose round failed (leader crash / lost quorum); their
  // transactions went back to the pool.
  uint64_t blocks_abandoned = 0;
  // Byzantine evidence, counted by the engines' detection hooks. Zero on
  // every healthy run.
  uint64_t equivocations_seen = 0;  // conflicting proposals detected
  uint64_t double_votes_seen = 0;   // duplicate votes discarded
  uint64_t votes_withheld = 0;      // expected votes that never arrived
  uint64_t txs_censored = 0;        // transactions refused by a censoring proposer
  uint64_t lazy_proposals = 0;      // deliberately empty blocks sealed
};

class ChainContext {
 public:
  ChainContext(Simulation* sim, Network* net, DeploymentConfig deployment,
               ChainParams params);

  ChainContext(const ChainContext&) = delete;
  ChainContext& operator=(const ChainContext&) = delete;

  // --- setup -------------------------------------------------------------
  Simulation* sim() { return sim_; }
  Network* net() { return net_; }
  const DeploymentConfig& deployment() const { return deployment_; }
  const ChainParams& params() const { return params_; }
  int node_count() const { return deployment_.node_count; }
  const std::vector<HostId>& hosts() const { return hosts_; }
  const VoteDelays& vote_delays() const { return *vote_delays_; }
  // Packed per-validator state (region bytes, down bits, sparse CPU
  // overrides) — O(n) bytes at any deployment size.
  const ValidatorTable& validators() const { return validators_; }
  // Shared per-engine message-plane scratch: stage vectors, order-statistic
  // buffers and broadcast working memory, warm after the first round so
  // steady-state vote rounds allocate nothing.
  MessagePlaneScratch* plane() { return &plane_; }
  Rng& rng() { return rng_; }
  CostOracle& oracle() { return oracle_; }

  TxStore& txs() { return txs_; }
  Mempool& mempool() { return mempool_; }
  Ledger& ledger() { return ledger_; }
  ChainStats& stats() { return stats_; }

  // Pre-sizes transaction storage, the mempool side tables and the block-tx
  // pool for a run expected to carry `expected_txs` transactions, so the
  // steady-state submission/assembly path never reallocates.
  void ReserveTxs(size_t expected_txs) {
    txs_.Reserve(expected_txs);
    mempool_.Reserve(expected_txs);
    block_txs_.reserve(expected_txs);
  }

  // --- submission path (called by the diablo core) -----------------------
  // Handles a transaction arriving at endpoint node `endpoint` at time
  // `arrival`. Applies admission control and schedules gossip readiness.
  // Returns false when the transaction was refused, because the endpoint is
  // down or admission control turned it away; a refused transaction is left
  // as it was, and its submitter decides what the refusal becomes.
  bool SubmitAtEndpoint(TxId id, int endpoint, SimTime arrival);

  // --- fault hooks (driven by the FaultInjector) --------------------------
  // Marks a node crashed / restarted. A down node is partitioned off the
  // network (in-flight messages to it drop), refuses submissions, and is
  // skipped as proposer by the consensus engines. Restart models a rejoin
  // from the ledger head: the shared-pool mempool means the node sees the
  // network's pending set again immediately, with no replay of what it held
  // before the crash.
  void SetNodeDown(int node, bool down);
  bool NodeDown(int node) const { return validators_.Down(node); }

  // Straggler injection: `factor` in (0, 1] scales the node's CPU speed, so
  // its proposer-side block preparation takes 1/factor as long.
  void SetCpuFactor(int node, double factor);

  // --- adversary hooks (driven by the FaultInjector) ----------------------
  // Arms / disarms one adversary behavior bit (kAdversary* in
  // src/fault/schedule.h) on `node`. The engines consult the bits through the
  // helpers below; a healthy run never allocates the underlying table.
  void SetAdversary(int node, uint8_t bits, bool on);
  bool AnyAdversary() const { return validators_.AnyAdversary(); }

  // Censorship target set: signer ids the censoring proposers refuse.
  // `signers` need not be sorted; the context keeps a sorted copy.
  void SetCensoredSigners(std::vector<uint32_t> signers);
  void ClearCensoredSigners() { censored_signers_.clear(); }

  // True while `node` is alive and armed to equivocate; each true answer
  // records one witnessed conflicting-proposal pair as evidence.
  bool Equivocates(int node) {
    const bool armed =
        (validators_.Adversary(node) & kAdversaryEquivocate) != 0 && !NodeDown(node);
    stats_.equivocations_seen += armed ? 1 : 0;
    return armed;
  }

  // Applies `node`'s armed vote-stage adversary to one vote it casts, due
  // after *delay: a withheld vote becomes kUnreachable (the quorum kernels
  // then exclude it); a double vote is counted as evidence — the duplicate
  // itself is discarded, so it never helps a quorum. A vote already
  // kUnreachable (down / partitioned) is left untouched.
  void ApplyVoteAdversary(int node, SimDuration* delay);

  // ApplyVoteAdversary over one round's arrival-delay vector (indexed by
  // node); early-outs when no adversary is armed. With `members` (Algorand's
  // vote committees), `delays` is indexed by committee position and
  // `members` maps positions to node indices.
  void ApplyVoteAdversaries(std::vector<SimDuration>* delays,
                            const std::vector<uint32_t>* members = nullptr);

  // --- engine helpers -----------------------------------------------------
  // Transaction ids of drafted blocks live in one flat append-only pool on
  // the context (each id is written there once, by TakeReady, and never
  // copied again); BuiltBlock and Block carry (tx_begin, tx_count) ranges
  // into it. Engines that buffer drafts across rounds (the FinalityWindow
  // behind clique's confirmation depth and hotstuff's 3-chain) can hold
  // BuiltBlocks freely — the pool never shrinks or moves entries within a run.
  struct BuiltBlock {
    uint32_t tx_begin = 0;
    uint32_t tx_count = 0;
    int64_t gas = 0;
    int64_t bytes = kBlockHeaderBytes;
    // Proposer-side preparation: pool scan, execution, signature checks.
    SimDuration build_time = 0;
  };

  std::span<const TxId> BlockTxs(const BuiltBlock& built) const {
    return {block_txs_.data() + built.tx_begin, built.tx_count};
  }
  std::span<const TxId> BlockTxs(const Block& block) const {
    return {block_txs_.data() + block.tx_begin, block.tx_count};
  }

  // Drafts a block at `now` from the proposer's view of the pool, honoring
  // gas/count limits and the congestion model.
  BuiltBlock BuildBlock(SimTime now, int proposer);

  // Records the block and schedules commit notifications for its
  // transactions at `final_time` (plus client observation delay).
  void FinalizeBlock(uint64_t height, int proposer, BuiltBlock&& built,
                     SimTime proposed_at, SimTime final_time);

  // Returns a failed round's drafted transactions to the mempool (they were
  // taken by BuildBlock but the block never committed), preserving signer
  // accounting; they become takeable again at `now`. Engines call this on
  // the view-change paths a fault can force.
  void AbandonBlock(const BuiltBlock& built, SimTime now);

  // Shrinks a drafted block to its first `keep` transactions, requeueing the
  // tail (takeable again at `now`) and re-deriving gas/bytes. Only valid for
  // the most recently built block — its ids must still be the tail of the
  // block-tx pool. DBFT uses this when equivocating vice-blocks are excluded
  // from a superblock.
  void RequeueBlockTail(BuiltBlock* built, uint32_t keep, SimTime now);

  void DropTx(TxId id);

  // Submissions seen in the most recent completed one-second window.
  double RecentArrivalRate(SimTime now) const;

  // Time for one node to execute a block of `gas` and verify `tx_count`
  // signatures.
  SimDuration ExecAndVerifyTime(int64_t gas, size_t tx_count) const;

  // Leader-side pending-set management cost at the current pool size.
  SimDuration PoolScanTime() const;

 private:
  Simulation* sim_;
  Network* net_;
  DeploymentConfig deployment_;
  ChainParams params_;
  Rng rng_;
  std::vector<HostId> hosts_;
  ValidatorTable validators_;
  std::unique_ptr<VoteDelays> vote_delays_;
  CostOracle oracle_;
  TxStore txs_;
  Mempool mempool_;
  Ledger ledger_;
  ChainStats stats_;
  std::vector<uint32_t> arrivals_per_second_;
  // Flat pool of every drafted block's transaction ids (see BuiltBlock).
  std::vector<TxId> block_txs_;
  // BuildBlock's expired batch; cleared per block, so after the first
  // blocks it keeps its capacity and drafting allocates nothing.
  std::vector<TxId> expired_;
  MessagePlaneScratch plane_;
  // Sorted signer ids the active censorship window targets; empty otherwise.
  std::vector<uint32_t> censored_signers_;
  // Checked build: commit-safety witness — FinalizeBlock asserts no two
  // committed blocks ever share a height with different contents, whatever
  // adversary schedule is armed.
  DIABLO_CHECKED_ONLY(uint64_t last_commit_height_ = 0;
                      Digest256 last_commit_digest_{};)
};

}  // namespace diablo

#endif  // SRC_CHAIN_NODE_H_
