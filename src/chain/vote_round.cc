#include "src/chain/vote_round.h"

#include <algorithm>
#include <cmath>

#if defined(DIABLO_CHECKED)
#include <atomic>
#endif

#include "src/support/check.h"
#include "src/support/profile.h"

namespace diablo {
namespace {

// Exact selection of the k-th smallest (0-based) of v[0..cnt) by insertion
// sort; the branch-predictable choice for the short inputs (committees,
// devnet-sized deployments) where partitioning overhead dominates.
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

// Selection within an already-filtered window: the k-th overall sits kk deep
// in the w values of [center-span, center+span]. Exact regardless of how the
// window was produced; also recenters/retunes the hint for the next round.
SimDuration SelectFromWindow(SimDuration* win, size_t w, size_t kk, SelectionHint& hint) {
  SimDuration ans;
  if (w <= 32) {
    ans = InsertionSelect(win, w, kk);
  } else {
    std::nth_element(win, win + static_cast<long>(kk), win + static_cast<long>(w));
    ans = win[kk];
  }
  hint.center = ans;
  // Proportional control on the window population: (w, span) measures the
  // local density directly, so steer the next span toward capturing ~20
  // values — big enough to absorb drift between consecutive selections,
  // small enough that selection stays in cheap insertion-sort territory.
  hint.span = hint.span * 20 / static_cast<SimDuration>(w) + 512;
  return ans;
}

// nth_element fallback (first round, regime change), reseeding the window
// from the local spread above the answer so the first carried round already
// has a tight-but-safe span.
SimDuration SelectFallback(SimDuration* buf, size_t cnt, size_t k, SelectionHint& hint) {
  std::nth_element(buf, buf + static_cast<long>(k), buf + static_cast<long>(cnt));
  const SimDuration ans = buf[k];
  const size_t hi_i = std::min(k + 12, cnt - 1);
  if (hi_i > k) {
    std::nth_element(buf + static_cast<long>(k) + 1, buf + static_cast<long>(hi_i),
                     buf + static_cast<long>(cnt));
  }
  hint.center = ans;
  hint.span = 2 * (buf[hi_i] - ans) + 1024;
  hint.valid = true;
  return ans;
}

// Exact k-th smallest with a carried value window. nth_element on
// fresh-per-round data is branch-misprediction bound; consecutive rounds of
// the same vote stage select from near-identical distributions, so we keep a
// [center-span, center+span] window around the last answer, copy only the
// values inside it (a predictable streaming pass), and select within. When
// the window misses (first round, regime change) we fall back to nth_element
// and re-derive the window from the freshly partitioned buffer. The returned
// value is the exact order statistic either way — the hint only decides how
// much data the selection touches.
SimDuration WindowSelect(SimDuration* buf, size_t cnt, size_t k, SimDuration* win,
                         SelectionHint& hint) {
  if (cnt <= 24) {
    return InsertionSelect(buf, cnt, k);
  }
  if (hint.valid) {
    const SimDuration lo = hint.center - hint.span;
    const SimDuration hi = hint.center + hint.span;
    size_t below = 0;
    size_t w = 0;
    for (size_t i = 0; i < cnt; ++i) {
      const SimDuration v = buf[i];
      below += v < lo;
      win[w] = v;
      w += static_cast<size_t>((v >= lo) & (v <= hi));
    }
    if (k >= below && k - below < w) {
      return SelectFromWindow(win, w, k - below, hint);
    }
    hint.valid = false;
  }
  return SelectFallback(buf, cnt, k, hint);
}

// Fills buf with the arrival times of all reachable votes at `receiver` and
// returns how many there are. The hop_scale multiply runs in integer
// arithmetic when that is provably bit-exact (integral scale, products below
// 2^52 so the double rounding the reference formula goes through is the
// identity); the community/consortium scales (1.0, 4.0) qualify, so the
// common scans vectorize.
size_t ScanArrivals(const PairwiseDelays& delays,
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
  // overwrites, so there is no overflow hazard and the loops vectorize.
  if (integral && delays.max_delay() <= (int64_t{1} << 52) / int_scale) {
    for (size_t j = 0; j < n; ++j) {
      const SimDuration s = sends[j];
      const SimDuration hop = col[j];
      buf[cnt] = s + hop * int_scale;
      cnt += static_cast<size_t>((s != kUnreachable) & (hop != kUnreachable));
    }
    return cnt;
  }
  for (size_t j = 0; j < n; ++j) {
    const SimDuration s = sends[j];
    const SimDuration hop = col[j];
    buf[cnt] = s + static_cast<SimDuration>(static_cast<double>(hop) * hop_scale);
    cnt += static_cast<size_t>((s != kUnreachable) & (hop != kUnreachable));
  }
  return cnt;
}

// Fused scan + window filter for the all-receivers reduction: one lean pass
// over the senders counts reachable arrivals, counts values below the carried
// window, and compacts the in-window values into win — without materialising
// the full arrival set. On a window hit (the steady-state case) that single
// pass is all the data movement a receiver costs; only a window miss pays a
// second, plain scan to fill buf for the nth_element fallback.
struct WindowedScan {
  size_t cnt = 0;
  size_t below = 0;
  size_t w = 0;
};

WindowedScan ScanArrivalsWindowed(const PairwiseDelays& delays,
                                  const std::vector<SimDuration>& send_times,
                                  size_t receiver, double hop_scale, SimDuration* win,
                                  SimDuration lo, SimDuration hi) {
  const size_t n = send_times.size();
  const SimDuration* col = delays.column(receiver);
  const SimDuration* sends = send_times.data();
  WindowedScan scan;
  const double floor_scale = std::floor(hop_scale);
  const bool integral = hop_scale == floor_scale && hop_scale >= 1.0 && hop_scale < 65536.0;
  const SimDuration int_scale = integral ? static_cast<SimDuration>(hop_scale) : 1;
  if (integral && delays.max_delay() <= (int64_t{1} << 52) / int_scale) {
    for (size_t j = 0; j < n; ++j) {
      const SimDuration s = sends[j];
      const SimDuration hop = col[j];
      const SimDuration v = s + hop * int_scale;
      const size_t keep =
          static_cast<size_t>((s != kUnreachable) & (hop != kUnreachable));
      scan.cnt += keep;
      scan.below += keep & static_cast<size_t>(v < lo);
      win[scan.w] = v;
      scan.w += keep & static_cast<size_t>((v >= lo) & (v <= hi));
    }
    return scan;
  }
  for (size_t j = 0; j < n; ++j) {
    const SimDuration s = sends[j];
    const SimDuration hop = col[j];
    const SimDuration v = s + static_cast<SimDuration>(static_cast<double>(hop) * hop_scale);
    const size_t keep = static_cast<size_t>((s != kUnreachable) & (hop != kUnreachable));
    scan.cnt += keep;
    scan.below += keep & static_cast<size_t>(v < lo);
    win[scan.w] = v;
    scan.w += keep & static_cast<size_t>((v >= lo) & (v <= hi));
  }
  return scan;
}

#if defined(DIABLO_CHECKED)
// Sampled cross-check of the adaptive-window selector: the carried hints are
// pure accelerators, so every answer must equal a from-scratch nth_element
// over a fresh arrival scan. The tick is process-wide (cells run on worker
// threads in parallel sweeps), relaxed, and never feeds back into results,
// so a nondeterministic sampling pattern is harmless. 257 is prime to avoid
// phase-locking with common validator counts.
std::atomic<uint64_t> g_select_tick{0};
constexpr uint64_t kSelectCheckCadence = 257;

bool SelectCheckDue() {
  return g_select_tick.fetch_add(1, std::memory_order_relaxed) % kSelectCheckCadence ==
         0;
}

void CheckQuorumSelection(const PairwiseDelays& delays,
                          const std::vector<SimDuration>& send_times, size_t receiver,
                          double hop_scale, size_t k, SimDuration got) {
  std::vector<SimDuration> ref(send_times.size());
  const size_t cnt = ScanArrivals(delays, send_times, receiver, hop_scale, ref.data());
  DIABLO_CHECK(k < cnt, "selection rank escaped the reachable arrival set");
  ref.resize(cnt);
  std::nth_element(ref.begin(), ref.begin() + static_cast<long>(k), ref.end());
  DIABLO_CHECK(ref[k] == got,
               "windowed quorum selection disagrees with nth_element reference");
}
#endif

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

SimDuration QuorumArrival(const PairwiseDelays& delays,
                          const std::vector<SimDuration>& send_times, size_t receiver,
                          size_t quorum, double hop_scale) {
  MessagePlaneScratch scratch;
  return QuorumArrivalInto(delays, send_times, receiver, quorum, hop_scale, &scratch);
}

SimDuration QuorumArrivalInto(const PairwiseDelays& delays,
                              const std::vector<SimDuration>& send_times,
                              size_t receiver, size_t quorum, double hop_scale,
                              MessagePlaneScratch* scratch, int hint_slot) {
  if (quorum == 0) {
    return kUnreachable;
  }
  const size_t n = send_times.size();
  scratch->buf.resize(n);
  scratch->win.resize(n);
  const size_t cnt = ScanArrivals(delays, send_times, receiver, hop_scale,
                                  scratch->buf.data());
  if (cnt < quorum) {
    return kUnreachable;
  }
  const SimDuration selected =
      WindowSelect(scratch->buf.data(), cnt, quorum - 1, scratch->win.data(),
                   scratch->quorum_hint[hint_slot]);
#if defined(DIABLO_CHECKED)
  if (SelectCheckDue()) {
    CheckQuorumSelection(delays, send_times, receiver, hop_scale, quorum - 1, selected);
  }
#endif
  return selected;
}

std::vector<SimDuration> QuorumArrivalAll(const PairwiseDelays& delays,
                                          const std::vector<SimDuration>& send_times,
                                          size_t quorum, double hop_scale) {
  MessagePlaneScratch scratch;
  std::vector<SimDuration> result;
  QuorumArrivalAllInto(delays, send_times, quorum, hop_scale, &scratch, &result);
  return result;
}

void QuorumArrivalAllInto(const PairwiseDelays& delays,
                          const std::vector<SimDuration>& send_times, size_t quorum,
                          double hop_scale, MessagePlaneScratch* scratch,
                          std::vector<SimDuration>* result, int hint_slot) {
  const size_t n = send_times.size();
  result->assign(n, kUnreachable);
  if (quorum == 0) {
    return;
  }
  scratch->buf.resize(n);
  scratch->win.resize(n);
  SelectionHint& hint = scratch->quorum_hint[hint_slot];
  SimDuration* buf = scratch->buf.data();
  SimDuration* win = scratch->win.data();
  SimDuration* out = result->data();
  const size_t k = quorum - 1;
  for (size_t receiver = 0; receiver < n; ++receiver) {
    if (!hint.valid) {
      const size_t cnt = ScanArrivals(delays, send_times, receiver, hop_scale, buf);
      if (cnt < quorum) {
        continue;
      }
      out[receiver] = WindowSelect(buf, cnt, k, win, hint);
      continue;
    }
    WindowedScan scan = ScanArrivalsWindowed(
        delays, send_times, receiver, hop_scale, win,
        hint.center - hint.span, hint.center + hint.span);
    if (scan.cnt < quorum) {
      continue;
    }
    if (scan.cnt > 24) {
      SimDuration span_cap = 0;
      if (k < scan.below || k - scan.below >= scan.w) {
        // Window missed the target rank: widen once and rescan. A second
        // lean pass is far cheaper than materialising the full arrival set
        // for the nth_element fallback, and the widened window nearly always
        // recaptures the rank since the distribution drifts slowly. The
        // widening is transient — the span is capped back after selection so
        // one outlier does not inflate every later window.
        span_cap = hint.span * 2 + 1024;
        hint.span = hint.span * 4 + 4096;
        scan = ScanArrivalsWindowed(delays, send_times, receiver, hop_scale, win,
                                    hint.center - hint.span, hint.center + hint.span);
      }
      if (k >= scan.below && k - scan.below < scan.w) {
        out[receiver] = SelectFromWindow(win, scan.w, k - scan.below, hint);
        if (span_cap != 0 && hint.span > span_cap) {
          hint.span = span_cap;
        }
        continue;
      }
    }
    // Window miss (or tiny arrival set): pay a second scan to materialise the
    // full arrival set, then select exactly as the cold path would.
    const size_t cnt = ScanArrivals(delays, send_times, receiver, hop_scale, buf);
    if (cnt <= 24) {
      out[receiver] = InsertionSelect(buf, cnt, k);
      continue;
    }
    hint.valid = false;
    out[receiver] = SelectFallback(buf, cnt, k, hint);
  }
#if defined(DIABLO_CHECKED)
  // Second pass so every assignment path above (windowed hit, widened retry,
  // insertion select, fallback) funnels through one reference comparison.
  for (size_t receiver = 0; receiver < n; ++receiver) {
    if (out[receiver] == kUnreachable) {
      continue;
    }
    if (!SelectCheckDue()) {
      continue;
    }
    CheckQuorumSelection(delays, send_times, receiver, hop_scale, k, out[receiver]);
  }
#endif
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

SimDuration MedianDelay(const std::vector<SimDuration>& delays) {
  MessagePlaneScratch scratch;
  return MedianDelayInto(delays, &scratch);
}

SimDuration MedianDelayInto(const std::vector<SimDuration>& delays,
                            MessagePlaneScratch* scratch) {
  const size_t n = delays.size();
  scratch->buf.resize(n);
  scratch->win.resize(n);
  SimDuration* buf = scratch->buf.data();
  size_t cnt = 0;
  for (const SimDuration d : delays) {
    buf[cnt] = d;
    cnt += static_cast<size_t>(d != kUnreachable);
  }
  if (cnt == 0) {
    return kUnreachable;
  }
  const SimDuration median =
      WindowSelect(buf, cnt, cnt / 2, scratch->win.data(), scratch->median_hint);
#if defined(DIABLO_CHECKED)
  if (SelectCheckDue()) {
    std::vector<SimDuration> ref;
    ref.reserve(delays.size());
    for (const SimDuration d : delays) {
      if (d != kUnreachable) {
        ref.push_back(d);
      }
    }
    std::nth_element(ref.begin(), ref.begin() + static_cast<long>(ref.size() / 2),
                     ref.end());
    DIABLO_CHECK(ref[ref.size() / 2] == median,
                 "windowed median disagrees with nth_element reference");
  }
#endif
  return median;
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
                              MessagePlaneScratch* scratch, int hint_slot) {
  profile::CountVoteRound();
  if (delays.dense()) {
    return QuorumArrivalInto(delays.matrix(), send_times, receiver, quorum,
                             hop_scale, scratch, hint_slot);
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
                          std::vector<SimDuration>* result, int hint_slot) {
  profile::CountVoteRound();
  if (delays.dense()) {
    QuorumArrivalAllInto(delays.matrix(), send_times, quorum, hop_scale, scratch,
                         result, hint_slot);
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
                                std::vector<SimDuration>* result, int hint_slot) {
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
                                       quorum, hop_scale, scratch, hint_slot);
    }
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
}

}  // namespace diablo
