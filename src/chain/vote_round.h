// Aggregate vote-round arithmetic.
//
// A 200-validator IBFT deployment exchanges ~40,000 PREPARE messages per
// block; scheduling each as a discrete event would dominate the simulation.
// Because vote messages are small and fixed-size, their pairwise delays are
// precomputed once and each round is reduced to order statistics: "when has
// node i received votes from a quorum of nodes, given when each node
// started voting?".
//
// The reduction itself is the hot loop of every consensus engine, so it runs
// over caller-owned scratch (MessagePlaneScratch) instead of allocating per
// receiver: steady-state vote rounds perform zero heap allocations. Every
// dense kernel selects with one bucket selector that keeps no state between
// receivers or rounds: one scan collects the reachable arrivals with their
// min and max, a histogram finds the bucket holding the wanted rank, and only
// that bucket is sorted. A k-th order statistic is a value, not an
// algorithm, so the result is bit-identical to a plain sort-and-index.
#ifndef SRC_CHAIN_VOTE_ROUND_H_
#define SRC_CHAIN_VOTE_ROUND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/support/time.h"

namespace diablo {

// Dense bit set over validator indices with a maintained population count:
// one bit per validator instead of a byte (or a vector entry) per vote.
// Tracking "who voted / is this a quorum yet" over 100k validators costs
// 12.5 KB instead of the 800 KB a SimTime-per-sender vector costs, and the
// quorum question is a counter compare instead of a scan.
class VoteBitset {
 public:
  VoteBitset() = default;

  // Clears to `bits` zero bits (capacity is retained across rounds).
  void Reset(size_t bits) {
    bits_ = bits;
    count_ = 0;
    words_.assign((bits + 63) / 64, 0);
  }

  bool empty() const { return words_.empty(); }
  size_t size_bits() const { return bits_; }

  // Sets bit i; returns true when it was newly set (a first vote).
  bool Set(size_t i) {
    uint64_t& word = words_[i >> 6];
    const uint64_t mask = uint64_t{1} << (i & 63);
    if ((word & mask) != 0) {
      return false;
    }
    word |= mask;
    ++count_;
    return true;
  }

  void Clear(size_t i) {
    uint64_t& word = words_[i >> 6];
    const uint64_t mask = uint64_t{1} << (i & 63);
    if ((word & mask) != 0) {
      word &= ~mask;
      --count_;
    }
  }

  void Assign(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  bool Test(size_t i) const {
    return (words_[i >> 6] & (uint64_t{1} << (i & 63))) != 0;
  }

  // Distinct set bits; maintained incrementally, never recounted.
  size_t Count() const { return count_; }
  bool HasQuorum(size_t quorum) const { return count_ >= quorum; }

  size_t ApproxBytes() const { return sizeof(*this) + words_.capacity() * 8; }

 private:
  std::vector<uint64_t> words_;
  size_t bits_ = 0;
  size_t count_ = 0;
};

// One-way delays for fixed-size messages between every pair of hosts,
// sampled once at construction (jitter baked in). Kept in both row-major
// (sender-major, `at`) and column-major (receiver-major, `column`) layouts:
// the quorum reduction reads all senders for one receiver, which is a strided
// walk in the row-major matrix but contiguous in the transpose.
class PairwiseDelays {
 public:
  PairwiseDelays(Network* net, const std::vector<HostId>& hosts, int64_t message_bytes);

  // Builds directly from an explicit row-major matrix of n·n entries. Used
  // by the checked-build cross-check and by tests to run the dense kernels
  // over delays sampled elsewhere (e.g. a StreamedDelays model).
  PairwiseDelays(size_t n, std::vector<SimDuration> row_major);

  SimDuration at(size_t from, size_t to) const { return delays_[from * n_ + to]; }
  size_t size() const { return n_; }

  // All senders' delays into `to`, contiguous. column(to)[from] == at(from, to).
  const SimDuration* column(size_t to) const { return &by_receiver_[to * n_]; }
  // Largest reachable entry; gates the integer hop-scale fast path.
  SimDuration max_delay() const { return max_delay_; }

 private:
  // Builds the column-major copy and max_delay_ from delays_.
  void BuildTranspose();

  size_t n_;
  std::vector<SimDuration> delays_;
  std::vector<SimDuration> by_receiver_;
  SimDuration max_delay_ = 0;
};

// How many validators a deployment may have before the consensus message
// plane stops materialising the n×n delay matrix and switches to the
// streamed large-N model. 512 keeps every paper-scale configuration
// (≤ 200 nodes) on the bit-exact dense path while fig3-XL deployments
// (1k–100k) stay at O(n) bytes.
inline constexpr size_t kDenseVoteDelayThreshold = 512;

// The vote-delay plane of one deployment: a dense PairwiseDelays matrix
// below `dense_threshold` hosts, a StreamedDelays model at or above it.
// Engines hold one of these and call the facade kernels below; which
// representation backs a deployment never changes mid-run.
class VoteDelays {
 public:
  VoteDelays(Network* net, const std::vector<HostId>& hosts, int64_t message_bytes,
             size_t dense_threshold = kDenseVoteDelayThreshold);

  bool dense() const { return matrix_ != nullptr; }
  size_t size() const { return n_; }

  SimDuration at(size_t from, size_t to) const {
    return matrix_ != nullptr ? matrix_->at(from, to) : streamed_->at(from, to);
  }

  const PairwiseDelays& matrix() const { return *matrix_; }
  const StreamedDelays& streamed() const { return *streamed_; }

  // Bytes owned by the plane: quadratic in n when dense, linear when
  // streamed. The fig3-XL memory-budget tests assert the streamed bound.
  size_t ApproxBytes() const;

 private:
  size_t n_ = 0;
  std::unique_ptr<PairwiseDelays> matrix_;
  std::unique_ptr<StreamedDelays> streamed_;
};

// Reusable working memory for one engine's message plane: order-statistic
// buffers, per-round stage vectors, and broadcast scratch. Allocated once per
// ChainContext and warm after the first round.
struct MessagePlaneScratch {
  // Selection working buffers, sized to the validator count on first use:
  // the scanned arrivals, and the second buffer a bucket step compacts into.
  // They hold nothing between calls.
  std::vector<SimDuration> buf;
  std::vector<SimDuration> spare;
  // Per-round vectors the engines refill each round.
  std::vector<SimDuration> stage_a;
  std::vector<SimDuration> stage_b;
  std::vector<SimDuration> stage_c;
  std::vector<SimDuration> senders;
  std::vector<SimDuration> round_trips;
  std::vector<uint32_t> committee;
  // Second committee for the large-N sampled rounds (BA* selects the next
  // step's committee up front so each step only evaluates its receivers).
  std::vector<uint32_t> committee_b;
  // Receiver de-duplication for the committee-sampled kernels.
  VoteBitset receiver_bits;
  // Full-width send-times expansion of a compact sender list (dense
  // committee path only — the streamed path never widens to n).
  std::vector<SimDuration> expanded;
  BroadcastScratch broadcast;
};

// Time at which `receiver` holds votes from `quorum` distinct senders, when
// sender j starts broadcasting its vote at send_times[j] (kUnreachable = that
// sender never votes). Senders include the receiver itself (self-votes are
// instant). `hop_scale` multiplies each vote's network delay: on large
// deployments votes relay through a bounded-degree p2p mesh instead of
// travelling one hop (see GossipHopScale). Returns kUnreachable when fewer
// than `quorum` senders vote, or when `quorum` is 0. Works in `scratch`, so
// a warm scratch makes the call allocation-free.
SimDuration QuorumArrivalInto(const PairwiseDelays& delays,
                              const std::vector<SimDuration>& send_times,
                              size_t receiver, size_t quorum, double hop_scale,
                              MessagePlaneScratch* scratch);

// QuorumArrivalInto for every receiver at once, into `result` (resized to n).
void QuorumArrivalAllInto(const PairwiseDelays& delays,
                          const std::vector<SimDuration>& send_times, size_t quorum,
                          double hop_scale, MessagePlaneScratch* scratch,
                          std::vector<SimDuration>* result);

// Expected relay hops for flooding a vote through a p2p mesh of n nodes
// with ~25 direct peers: 1 + log2(n / 25), at least 1.
double GossipHopScale(int n);

// Smallest f such that n >= 3f + 1, i.e. the Byzantine fault tolerance of an
// n-node deployment; quorum is 2f + 1.
int ByzantineQuorum(int n);

// Median of a delay vector, ignoring kUnreachable entries: the element at
// index size/2 of the sorted reachable entries (the upper median), or
// kUnreachable when every entry is unreachable. Works in `scratch`.
SimDuration MedianDelayInto(const std::vector<SimDuration>& delays,
                            MessagePlaneScratch* scratch);

// --- facade kernels over either delay representation ------------------------
// Dense deployments dispatch to the exact kernels above (results are
// bit-identical to calling them directly); streamed deployments run the
// large-N kernels, which never touch an n×n matrix. In checked builds the
// streamed answers are cross-checked against the dense kernels over a
// materialised copy of the model at small n. Each facade call counts one
// vote round in DIABLO_PROFILE's summary, plus the receivers it evaluates
// (all n, one, or the distinct listed receivers; none when quorum is 0); the
// kernels above count nothing.

SimDuration QuorumArrivalInto(const VoteDelays& delays,
                              const std::vector<SimDuration>& send_times,
                              size_t receiver, size_t quorum, double hop_scale,
                              MessagePlaneScratch* scratch);

void QuorumArrivalAllInto(const VoteDelays& delays,
                          const std::vector<SimDuration>& send_times, size_t quorum,
                          double hop_scale, MessagePlaneScratch* scratch,
                          std::vector<SimDuration>* result);

// Committee-sampled round: the arrival of `quorum` of the listed senders'
// votes, evaluated only at the listed receivers. `result` is sized to n with
// kUnreachable everywhere else; duplicated receivers are computed once
// (tracked in scratch->receiver_bits). This is the O(committee²) round shape
// the sampling engines use at large N, where evaluating every one of 10k+
// receivers per step would bring the O(n²) flood back in through compute.
void QuorumArrivalCommitteeInto(const VoteDelays& delays,
                                const std::vector<uint32_t>& senders,
                                const std::vector<SimDuration>& sender_times,
                                const std::vector<uint32_t>& receivers, size_t n,
                                size_t quorum, double hop_scale,
                                MessagePlaneScratch* scratch,
                                std::vector<SimDuration>* result);

}  // namespace diablo

#endif  // SRC_CHAIN_VOTE_ROUND_H_
