#include "src/chain/vote_round.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#if defined(DIABLO_CHECKED)
#include <atomic>
#endif

#include "src/support/check.h"
#include "src/support/profile.h"

namespace diablo {
namespace {

// Exact selection of the k-th smallest (0-based) of v[0..cnt) by insertion
// sort; the cheapest choice once a selection is down to a few dozen values.
SimDuration InsertionSelect(SimDuration* v, size_t cnt, size_t k) {
  for (size_t i = 1; i < cnt; ++i) {
    const SimDuration x = v[i];
    size_t j = i;
    for (; j > 0 && v[j - 1] > x; --j) {
      v[j] = v[j - 1];
    }
    v[j] = x;
  }
  return v[k];
}

// The bucket step of BucketSelect: 2^kBucketBits buckets over a value range,
// and the count at or below which InsertionSelect finishes the job.
constexpr int kBucketBits = 7;
constexpr size_t kBuckets = size_t{1} << kBucketBits;
constexpr size_t kInsertionMax = 32;

// Exact k-th smallest (0-based) of v[0..cnt), every value of which lies in
// [lo, hi]; `spare` has room for cnt values and both buffers are clobbered.
// A histogram of (v − lo) >> shift over kBuckets buckets finds the bucket
// holding rank k, only that bucket's values are compacted into the other
// buffer, and the step repeats on the bucket's own range until at most
// kInsertionMax values remain or all of them are equal. The passes over the
// values are branch-free — a counter increment, a conditional cursor
// advance — so the cost does not depend on how the arrivals are ordered, and
// the k-th smallest is a value, so no tie-breaking can change the result.
SimDuration BucketSelect(SimDuration* v, size_t cnt, size_t k, SimDuration lo,
                         SimDuration hi, SimDuration* spare) {
  while (cnt > kInsertionMax && lo < hi) {
    const int shift = std::max(
        0, static_cast<int>(std::bit_width(static_cast<uint64_t>(hi - lo))) - kBucketBits);
    uint32_t hist[kBuckets] = {};
    for (size_t i = 0; i < cnt; ++i) {
      ++hist[static_cast<uint64_t>(v[i] - lo) >> shift];
    }
    // The bucket holding rank k is the number of buckets whose running count
    // stays at or below k; `below` counts the values in front of it.
    size_t bucket = 0;
    size_t below = 0;
    size_t running = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      running += hist[b];
      const bool before = running <= k;
      bucket += static_cast<size_t>(before);
      below = before ? running : below;
    }
    const SimDuration bucket_lo = lo + (static_cast<SimDuration>(bucket) << shift);
    const SimDuration bucket_hi =
        std::min(hi, bucket_lo + ((SimDuration{1} << shift) - 1));
    size_t w = 0;
    for (size_t i = 0; i < cnt; ++i) {
      const SimDuration x = v[i];
      spare[w] = x;
      w += static_cast<size_t>((x >= bucket_lo) & (x <= bucket_hi));
    }
    std::swap(v, spare);
    cnt = w;
    k -= below;
    lo = bucket_lo;
    hi = bucket_hi;
  }
  return lo == hi ? lo : InsertionSelect(v, cnt, k);
}

// The reachable values of one scan, compacted to the front of a buffer,
// with their smallest and largest value.
struct Arrivals {
  size_t cnt = 0;
  SimDuration lo = 0;
  SimDuration hi = 0;
};

// Min and max of the cnt compacted values at the front of buf: a pass of its
// own over kept values only, so neither needs a per-value mask and the loop
// stays branch-free.
Arrivals Bound(const SimDuration* buf, size_t cnt) {
  Arrivals arrivals{cnt, std::numeric_limits<SimDuration>::max(),
                    std::numeric_limits<SimDuration>::min()};
  for (size_t i = 0; i < cnt; ++i) {
    arrivals.lo = std::min(arrivals.lo, buf[i]);
    arrivals.hi = std::max(arrivals.hi, buf[i]);
  }
  return arrivals;
}

// Fills buf with the arrival times of all reachable votes at `receiver`. The
// hop_scale multiply runs in integer arithmetic when that is provably
// bit-exact (integral scale, products below 2^52 so the double rounding the
// reference formula goes through is the identity); the community/consortium
// scales (1.0, 4.0) qualify.
Arrivals ScanArrivals(const PairwiseDelays& delays,
                      const std::vector<SimDuration>& send_times, size_t receiver,
                      double hop_scale, SimDuration* buf) {
  const size_t n = send_times.size();
  const SimDuration* col = delays.column(receiver);
  const SimDuration* sends = send_times.data();
  size_t cnt = 0;
  const double floor_scale = std::floor(hop_scale);
  const bool integral = hop_scale == floor_scale && hop_scale >= 1.0 && hop_scale < 65536.0;
  const SimDuration int_scale = integral ? static_cast<SimDuration>(hop_scale) : 1;
  // Both loops compact branchlessly: every element is computed and written,
  // the write cursor only advances for reachable pairs. Unreachable lanes
  // (kUnreachable == -1) produce small garbage values that the next write
  // overwrites, so there is no overflow hazard.
  if (integral && delays.max_delay() <= (int64_t{1} << 52) / int_scale) {
    for (size_t j = 0; j < n; ++j) {
      const SimDuration s = sends[j];
      const SimDuration hop = col[j];
      buf[cnt] = s + hop * int_scale;
      cnt += static_cast<size_t>((s != kUnreachable) & (hop != kUnreachable));
    }
    return Bound(buf, cnt);
  }
  for (size_t j = 0; j < n; ++j) {
    const SimDuration s = sends[j];
    const SimDuration hop = col[j];
    buf[cnt] = s + static_cast<SimDuration>(static_cast<double>(hop) * hop_scale);
    cnt += static_cast<size_t>((s != kUnreachable) & (hop != kUnreachable));
  }
  return Bound(buf, cnt);
}

#if defined(DIABLO_CHECKED)
// Sampled cross-check of every dense selection against a from-scratch
// nth_element over the same values. The tick is process-wide (cells run on
// worker threads in parallel sweeps), relaxed, and never feeds back into
// results, so a nondeterministic sampling pattern is harmless. 257 is prime
// to avoid phase-locking with common validator counts.
std::atomic<uint64_t> g_select_tick{0};
constexpr uint64_t kSelectCheckCadence = 257;

bool SelectCheckDue() {
  return g_select_tick.fetch_add(1, std::memory_order_relaxed) % kSelectCheckCadence ==
         0;
}
#endif

// The one selection step of every dense kernel: the exact k-th smallest
// (0-based, k < arrivals.cnt) of the scanned values in buf.
SimDuration SelectArrival(SimDuration* buf, const Arrivals& arrivals, size_t k,
                          SimDuration* spare) {
#if defined(DIABLO_CHECKED)
  std::vector<SimDuration> ref;
  const bool check = SelectCheckDue();
  if (check) {
    ref.assign(buf, buf + arrivals.cnt);
    for (const SimDuration v : ref) {
      DIABLO_CHECK(arrivals.lo <= v && v <= arrivals.hi,
                   "scanned arrival outside the scan's min/max");
    }
  }
#endif
  const SimDuration selected =
      BucketSelect(buf, arrivals.cnt, k, arrivals.lo, arrivals.hi, spare);
#if defined(DIABLO_CHECKED)
  if (check) {
    DIABLO_CHECK(k < ref.size(), "selection rank escaped the reachable arrival set");
    std::nth_element(ref.begin(), ref.begin() + static_cast<long>(k), ref.end());
    DIABLO_CHECK(ref[k] == selected,
                 "bucket selection disagrees with nth_element reference");
  }
#endif
  return selected;
}

}  // namespace

PairwiseDelays::PairwiseDelays(Network* net, const std::vector<HostId>& hosts,
                               int64_t message_bytes)
    : n_(hosts.size()) {
  net->FillPairwiseDelays(hosts, message_bytes, &delays_);
  BuildTranspose();
}

PairwiseDelays::PairwiseDelays(size_t n, std::vector<SimDuration> row_major)
    : n_(n), delays_(std::move(row_major)) {
  if (delays_.size() != n_ * n_) {
    CheckFailed(__FILE__, __LINE__, "row_major.size() == n * n",
                "explicit pairwise matrix has the wrong element count");
  }
  BuildTranspose();
}

void PairwiseDelays::BuildTranspose() {
  by_receiver_.resize(n_ * n_);
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < n_; ++j) {
      const SimDuration d = delays_[i * n_ + j];
      by_receiver_[j * n_ + i] = d;
      if (d != kUnreachable && d > max_delay_) {
        max_delay_ = d;
      }
    }
  }
}

VoteDelays::VoteDelays(Network* net, const std::vector<HostId>& hosts,
                       int64_t message_bytes, size_t dense_threshold)
    : n_(hosts.size()) {
  if (n_ < dense_threshold) {
    matrix_ = std::make_unique<PairwiseDelays>(net, hosts, message_bytes);
  } else {
    streamed_ = std::make_unique<StreamedDelays>(net, hosts, message_bytes);
  }
}

size_t VoteDelays::ApproxBytes() const {
  if (matrix_ != nullptr) {
    // Row-major matrix plus its transpose.
    return sizeof(*this) + sizeof(PairwiseDelays) +
           2 * n_ * n_ * sizeof(SimDuration);
  }
  return sizeof(*this) + streamed_->ApproxBytes();
}

SimDuration QuorumArrivalInto(const PairwiseDelays& delays,
                              const std::vector<SimDuration>& send_times,
                              size_t receiver, size_t quorum, double hop_scale,
                              MessagePlaneScratch* scratch) {
  if (quorum == 0) {
    return kUnreachable;
  }
  const size_t n = send_times.size();
  scratch->buf.resize(n);
  scratch->spare.resize(n);
  const Arrivals arrivals =
      ScanArrivals(delays, send_times, receiver, hop_scale, scratch->buf.data());
  if (arrivals.cnt < quorum) {
    return kUnreachable;
  }
  return SelectArrival(scratch->buf.data(), arrivals, quorum - 1, scratch->spare.data());
}

void QuorumArrivalAllInto(const PairwiseDelays& delays,
                          const std::vector<SimDuration>& send_times, size_t quorum,
                          double hop_scale, MessagePlaneScratch* scratch,
                          std::vector<SimDuration>* result) {
  const size_t n = send_times.size();
  result->assign(n, kUnreachable);
  if (quorum == 0) {
    return;
  }
  scratch->buf.resize(n);
  scratch->spare.resize(n);
  SimDuration* buf = scratch->buf.data();
  SimDuration* spare = scratch->spare.data();
  SimDuration* out = result->data();
  for (size_t receiver = 0; receiver < n; ++receiver) {
    const Arrivals arrivals = ScanArrivals(delays, send_times, receiver, hop_scale, buf);
    if (arrivals.cnt >= quorum) {
      out[receiver] = SelectArrival(buf, arrivals, quorum - 1, spare);
    }
  }
}

double GossipHopScale(int n) {
  if (n <= 25) {
    return 1.0;
  }
  return 1.0 + std::log2(static_cast<double>(n) / 25.0);
}

int ByzantineQuorum(int n) {
  const int f = (n - 1) / 3;
  return 2 * f + 1;
}

SimDuration MedianDelayInto(const std::vector<SimDuration>& delays,
                            MessagePlaneScratch* scratch) {
  const size_t n = delays.size();
  scratch->buf.resize(n);
  scratch->spare.resize(n);
  SimDuration* buf = scratch->buf.data();
  size_t cnt = 0;
  for (const SimDuration d : delays) {
    buf[cnt] = d;
    cnt += static_cast<size_t>(d != kUnreachable);
  }
  if (cnt == 0) {
    return kUnreachable;
  }
  return SelectArrival(buf, Bound(buf, cnt), cnt / 2, scratch->spare.data());
}

namespace {

#if defined(DIABLO_CHECKED)
// Cross-check of the streamed quorum kernels: materialise the model into a
// dense matrix (every at(i, j) is a pure function, so this reproduces the
// exact delays the streaming kernel saw) and replay the reduction through
// the dense path. Gated to small n — the check is O(n²) by construction.
constexpr size_t kStreamCheckMaxN = 256;

void CheckStreamedQuorum(const StreamedDelays& model,
                         const std::vector<SimDuration>& send_times,
                         size_t receiver, size_t quorum, double hop_scale,
                         SimDuration got) {
  const size_t n = model.size();
  if (n > kStreamCheckMaxN) {
    return;
  }
  std::vector<SimDuration> dense(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      dense[i * n + j] = model.at(i, j);
    }
  }
  const PairwiseDelays matrix(n, std::move(dense));
  MessagePlaneScratch scratch;
  const SimDuration ref =
      QuorumArrivalInto(matrix, send_times, receiver, quorum, hop_scale, &scratch);
  DIABLO_CHECK(ref == got,
               "streamed quorum kernel disagrees with the dense matrix path");
}
#endif

}  // namespace

SimDuration QuorumArrivalInto(const VoteDelays& delays,
                              const std::vector<SimDuration>& send_times,
                              size_t receiver, size_t quorum, double hop_scale,
                              MessagePlaneScratch* scratch) {
  profile::CountVoteRound();
  profile::AddVoteReceivers(quorum > 0 ? 1 : 0);
  if (delays.dense()) {
    return QuorumArrivalInto(delays.matrix(), send_times, receiver, quorum,
                             hop_scale, scratch);
  }
  const SimDuration got =
      QuorumArrivalLargeN(delays.streamed(), send_times.data(), send_times.size(),
                          receiver, quorum, hop_scale, &scratch->buf);
#if defined(DIABLO_CHECKED)
  if (quorum > 0 && SelectCheckDue()) {
    CheckStreamedQuorum(delays.streamed(), send_times, receiver, quorum, hop_scale,
                        got);
  }
#endif
  return got;
}

void QuorumArrivalAllInto(const VoteDelays& delays,
                          const std::vector<SimDuration>& send_times, size_t quorum,
                          double hop_scale, MessagePlaneScratch* scratch,
                          std::vector<SimDuration>* result) {
  profile::CountVoteRound();
  profile::AddVoteReceivers(quorum > 0 ? send_times.size() : 0);
  if (delays.dense()) {
    QuorumArrivalAllInto(delays.matrix(), send_times, quorum, hop_scale, scratch,
                         result);
    return;
  }
  const size_t n = send_times.size();
  result->assign(n, kUnreachable);
  if (quorum == 0) {
    return;
  }
  for (size_t receiver = 0; receiver < n; ++receiver) {
    (*result)[receiver] =
        QuorumArrivalLargeN(delays.streamed(), send_times.data(), n, receiver,
                            quorum, hop_scale, &scratch->buf);
  }
#if defined(DIABLO_CHECKED)
  for (size_t receiver = 0; receiver < n; ++receiver) {
    if ((*result)[receiver] == kUnreachable) {
      continue;
    }
    if (!SelectCheckDue()) {
      continue;
    }
    CheckStreamedQuorum(delays.streamed(), send_times, receiver, quorum, hop_scale,
                        (*result)[receiver]);
  }
#endif
}

void QuorumArrivalCommitteeInto(const VoteDelays& delays,
                                const std::vector<uint32_t>& senders,
                                const std::vector<SimDuration>& sender_times,
                                const std::vector<uint32_t>& receivers, size_t n,
                                size_t quorum, double hop_scale,
                                MessagePlaneScratch* scratch,
                                std::vector<SimDuration>* result) {
  result->assign(n, kUnreachable);
  profile::CountVoteRound();
  if (quorum == 0) {
    return;
  }
  VoteBitset& seen = scratch->receiver_bits;
  seen.Reset(n);
  if (delays.dense()) {
    // Widen the compact sender list into a full send-times vector once, then
    // run the exact dense single-receiver kernel per listed receiver.
    scratch->expanded.assign(n, kUnreachable);
    for (size_t j = 0; j < senders.size(); ++j) {
      scratch->expanded[senders[j]] = sender_times[j];
    }
    for (const uint32_t r : receivers) {
      if (!seen.Set(r)) {
        continue;
      }
      (*result)[r] = QuorumArrivalInto(delays.matrix(), scratch->expanded, r,
                                       quorum, hop_scale, scratch);
    }
    profile::AddVoteReceivers(seen.Count());
    return;
  }
  for (const uint32_t r : receivers) {
    if (!seen.Set(r)) {
      continue;
    }
    (*result)[r] = QuorumArrivalLargeN(delays.streamed(), senders.data(),
                                       sender_times.data(), senders.size(), r,
                                       quorum, hop_scale, &scratch->buf);
#if defined(DIABLO_CHECKED)
    if ((*result)[r] != kUnreachable && SelectCheckDue()) {
      std::vector<SimDuration> full(n, kUnreachable);
      for (size_t j = 0; j < senders.size(); ++j) {
        full[senders[j]] = sender_times[j];
      }
      CheckStreamedQuorum(delays.streamed(), full, r, quorum, hop_scale,
                          (*result)[r]);
    }
#endif
  }
  profile::AddVoteReceivers(seen.Count());
}

}  // namespace diablo
