#include "src/net/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/support/check.h"

namespace diablo {
namespace {

// π − M_PI, the part of π below M_PI's last bit.
constexpr double kPiLo = 1.2246467991473532e-16;

// How far glibc's cos(x) may lie from AbsCosEstimate(x). The estimate is
// within 3.0e-16 of |cos x| on [0, 2π) (measured against 80-bit cosl over
// 10⁸ draws and 50 ulps either side of each fold point), glibc lists cos
// at 1 ulp (≤ 1.1e-16 below 1), and rounding c ± kBracket adds half an ulp:
// under 6e-16 in all, a margin of over 150×.
constexpr double kBracket = 1e-13;

// |cos x| for x in [0, 2π) with no libm call. x is folded by the nearest
// multiple of π to r in [−π/2, π/2] (|cos| has period π), the multiple
// found by an int conversion because std::floor is a libm call on x86-64
// without SSE4.1. x − k·M_PI is exact there (Sterbenz), so only k·kPiLo
// rounds. cos r is then its Taylor series through r²⁰ (truncation below
// 2e-17), a polynomial in z = r² evaluated by Estrin's scheme: the
// coefficient pairs are independent, so the longest chain of dependent
// multiplies is five (z, z², z⁴, z⁸ and the last product), where Horner's
// scheme chains eleven.
inline double AbsCosEstimate(double x) {
  const double k = static_cast<double>(static_cast<int>(x * (1.0 / M_PI) + 0.5));
  const double r = (x - k * M_PI) - k * kPiLo;
  const double z = r * r;
  const double z2 = z * z;
  const double z4 = z2 * z2;
  const double z8 = z4 * z4;
  const double p01 = 1.0 + (-1.0 / 2.0) * z;
  const double p23 = 1.0 / 24.0 + (-1.0 / 720.0) * z;
  const double p45 = 1.0 / 40320.0 + (-1.0 / 3628800.0) * z;
  const double p67 = 1.0 / 479001600.0 + (-1.0 / 87178291200.0) * z;
  const double p89 = 1.0 / 20922789888000.0 + (-1.0 / 6402373705728000.0) * z;
  const double p03 = p01 + p23 * z2;
  const double p47 = p45 + p67 * z2;
  const double p810 = p89 + (1.0 / 2432902008176640000.0) * z2;
  return std::abs((p03 + p47 * z4) + p810 * z8);
}

// One Box–Muller jitter term from two uniforms of `rng`, drawn u1 then u2:
// two statements fix that order, where two call arguments would not.
SimDuration JitterFrom(Rng* rng, double prop, double jitter_frac) {
  const double u1 = rng->NextDouble();
  const double u2 = rng->NextDouble();
  return JitterTicks(prop, jitter_frac, u1, u2);
}

}  // namespace

// Contract: returns exactly the jitter every golden hash was recorded with,
//   (SimDuration)(prop * (jitter_frac * |sqrt(-2·log u1) · cos(2π·u2)|)),
// u1 ≤ 0 clamped to 2⁻⁵³, with glibc's log, sqrt and cos, in that
// association: any other order can move a last bit, and with it every hash.
//
// Only the cos is found another way. With mag = sqrt(-2·log u1) fixed,
// T(c) = (SimDuration)(prop * (jitter_frac * (mag * c))) is monotone in c:
// an IEEE multiply by a fixed factor is, and so is truncation. glibc's
// |cos x| lies within kBracket of c = AbsCosEstimate(x), so when
// T(max(0, c − kBracket)) equals T(c + kBracket), that is also T of glibc's
// value. Only a draw whose bracket straddles a tick boundary asks glibc's
// cos: about one in 10⁶ at Table 3's propagations and 5% jitter.
SimDuration JitterTicks(double prop, double jitter_frac, double u1, double u2) {
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double x = 2.0 * M_PI * u2;
  const auto ticks = [&](double c) {
    return static_cast<SimDuration>(prop * (jitter_frac * (mag * c)));
  };
  const auto exact = [&] { return ticks(std::abs(std::cos(x))); };
  const double c = AbsCosEstimate(x);
  const SimDuration low = ticks(std::max(0.0, c - kBracket));
  if (low != ticks(c + kBracket)) {
    return exact();
  }
  DIABLO_CHECK(low == exact(), "bracketed jitter differs from the Box-Muller expression");
  return low;
}

Network::Network(Simulation* sim, double jitter_frac)
    : sim_(sim),
      jitter_frac_(jitter_frac),
      rng_(sim->ForkRng()),
      extra_delays_(kRegionCount * kRegionCount, 0) {}

HostId Network::AddHost(Region region) {
  regions_.push_back(region);
  partitioned_.push_back(false);
  return static_cast<HostId>(regions_.size() - 1);
}

SimDuration Network::DelaySample(HostId from, HostId to, int64_t bytes) {
  return DelaySampleFrom(&rng_, from, to, bytes);
}

SimDuration Network::DelaySampleFrom(Rng* rng, HostId from, HostId to,
                                     int64_t bytes) {
  if (partitioned_[from] || partitioned_[to]) {
    return kUnreachable;
  }
  if (from == to) {
    return 0;
  }
  const Region a = regions_[from];
  const Region b = regions_[to];
  if (!loss_windows_.empty() && LossDrop(a, b)) {
    return kUnreachable;
  }
  const LinkBase link = LinkBaseOf(a, b, bytes);
  const SimDuration delay = link.base + JitterFrom(rng, link.prop, jitter_frac_);
  // |jitter| and extra delays are non-negative, so a negative sample can only
  // mean arithmetic overflow — which would reorder deliveries silently.
  DIABLO_CHECK(delay >= 0, "sampled link delay went negative (overflow?)");
  return delay;
}

void Network::FillPairwiseDelays(const std::vector<HostId>& hosts,
                                 int64_t message_bytes,
                                 std::vector<SimDuration>* out) {
  const size_t n = hosts.size();
  if (PairwiseDelayCountOverflows(n)) {
    // n² wrapped size_t: assigning the wrapped count would silently build a
    // far-too-small matrix and every at(from, to) past it would read out of
    // bounds. Deployments this large must use StreamedDelays instead.
    CheckFailed(__FILE__, __LINE__, "hosts.size() * hosts.size() overflows size_t",
                "pairwise delay matrix too large; use the streamed large-N model");
  }
  out->assign(n * n, 0);
  // Topology, extra delays and partitions are fixed for the duration of this
  // call, so the deterministic part of a sample is a pure function of the
  // region pair: read it from the table and pay only the jitter draw per
  // entry. Pairs are visited in the same sender-major order — and draw the
  // RNG under exactly the same conditions — as a DelaySample-per-pair loop,
  // keeping the stream bit-identical; each sample lands in its receiver's
  // column.
  const LinkBaseTable bases = LinkBases(message_bytes);
  SimDuration* const matrix = out->data();
  for (size_t i = 0; i < n; ++i) {
    const HostId from = hosts[i];
    const bool from_partitioned = partitioned_[from];
    for (size_t j = 0; j < n; ++j) {
      if (i == j) {
        continue;  // assign() zeroed the diagonal
      }
      SimDuration& entry = matrix[j * n + i];
      const HostId to = hosts[j];
      if (from_partitioned || partitioned_[to]) {
        entry = kUnreachable;
        continue;
      }
      if (from == to) {
        continue;  // one host listed twice: zero, as DelaySample returns
      }
      const Region a = regions_[from];
      const Region b = regions_[to];
      if (!loss_windows_.empty() && LossDrop(a, b)) {
        entry = kUnreachable;
        continue;
      }
      const LinkBase& link =
          bases[static_cast<size_t>(a) * kRegionCount + static_cast<size_t>(b)];
      entry = link.base + JitterFrom(&rng_, link.prop, jitter_frac_);
    }
  }
}

LinkBase Network::LinkBaseOf(Region a, Region b, int64_t bytes) const {
  const LinkParams& link = Topology::Link(a, b);
  return LinkBase{link.propagation + Topology::TransmissionDelayOn(link, bytes) +
                      ExtraDelay(a, b),
                  static_cast<double>(link.propagation)};
}

LinkBaseTable Network::LinkBases(int64_t bytes) const {
  LinkBaseTable table;
  for (int a = 0; a < kRegionCount; ++a) {
    for (int b = 0; b < kRegionCount; ++b) {
      table[static_cast<size_t>(a) * kRegionCount + static_cast<size_t>(b)] =
          LinkBaseOf(static_cast<Region>(a), static_cast<Region>(b), bytes);
    }
  }
  return table;
}

void Network::BroadcastDelaysInto(HostId origin, const std::vector<HostId>& recipients,
                                  int64_t bytes, int fanout, BroadcastScratch* scratch,
                                  std::vector<SimDuration>* out) {
  std::vector<SimDuration>& result = *out;
  result.assign(recipients.size(), kUnreachable);
  if (fanout < 1) {
    fanout = 1;
  }

  // Order the reachable recipients deterministically but unpredictably: the
  // tree shape changes every broadcast like a real gossip overlay.
  std::vector<size_t>& order = scratch->order;
  order.clear();
  for (size_t i = 0; i < recipients.size(); ++i) {
    if (recipients[i] == origin) {
      result[i] = 0;
      continue;
    }
    if (!partitioned_[recipients[i]] && !partitioned_[origin]) {
      order.push_back(i);
    }
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng_.NextBelow(i)]);
  }

  // BFS gossip tree: parents forward `bytes` to up to `fanout` children; the
  // k-th child waits k transmission slots on the parent uplink.
  using TreeNode = BroadcastScratch::TreeNode;
  std::vector<TreeNode>& frontier = scratch->frontier;
  frontier.clear();
  frontier.push_back(TreeNode{origin, 0});
  size_t next = 0;
  size_t frontier_head = 0;
  while (next < order.size() && frontier_head < frontier.size()) {
    TreeNode parent = frontier[frontier_head++];
    for (int k = 0; k < fanout && next < order.size(); ++k, ++next) {
      const size_t idx = order[next];
      const HostId child = recipients[idx];
      const Region pr = regions_[parent.host];
      const Region cr = regions_[child];
      if (!loss_windows_.empty() && LossDrop(pr, cr)) {
        // The parent spent the uplink slot but the payload never arrived:
        // the recipient misses this broadcast entirely (result stays
        // kUnreachable and it cannot relay further).
        continue;
      }
      const LinkParams& link = Topology::Link(pr, cr);
      const SimDuration slot =
          Topology::TransmissionDelayOn(link, bytes) * static_cast<SimDuration>(k + 1);
      const SimDuration prop = link.propagation;
      const SimDuration jitter = JitterFrom(&rng_, static_cast<double>(prop), jitter_frac_);
      const SimDuration arrival =
          parent.ready + slot + prop + jitter + ExtraDelay(pr, cr);
      result[idx] = arrival;
      frontier.push_back(TreeNode{child, arrival});
    }
  }
}

void Network::SetExtraDelay(Region a, Region b, SimDuration extra) {
  extra_delays_[static_cast<size_t>(a) * kRegionCount + static_cast<size_t>(b)] =
      extra;
  extra_delays_[static_cast<size_t>(b) * kRegionCount + static_cast<size_t>(a)] =
      extra;
}

void Network::SetPartitioned(HostId host, bool partitioned) {
  partitioned_[host] = partitioned;
}

void Network::AddLossWindow(SimTime from, SimTime to, double rate) {
  LossWindow window;
  window.from = from;
  window.to = to < 0 ? std::numeric_limits<SimTime>::max() : to;
  window.rate = rate;
  if (loss_windows_.empty()) {
    // First window: fork the loss stream now. Healthy runs never reach this
    // point, so their draw sequences are bit-identical with the feature
    // compiled in.
    fault_rng_ = rng_.Fork();
  }
  loss_windows_.push_back(window);
}

void Network::AddLossWindow(Region a, Region b, SimTime from, SimTime to,
                            double rate) {
  AddLossWindow(from, to, rate);
  LossWindow& window = loss_windows_.back();
  window.all_pairs = false;
  window.a = a;
  window.b = b;
}

StreamedDelays::StreamedDelays(Network* net, const std::vector<HostId>& hosts,
                               int64_t message_bytes)
    : base_(net->LinkBases(message_bytes)),
      jitter_frac_(net->jitter_frac_),
      jitter_seed_(net->rng_.NextU64()) {
  region_.reserve(hosts.size());
  partitioned_.reserve(hosts.size());
  for (const HostId host : hosts) {
    region_.push_back(static_cast<uint8_t>(net->regions_[host]));
    partitioned_.push_back(net->partitioned_[host] ? 1 : 0);
  }
}

SimDuration StreamedDelays::at(size_t from, size_t to) const {
  if (from == to) {
    return 0;  // self-votes are instant, matching the dense matrix diagonal
  }
  if ((partitioned_[from] | partitioned_[to]) != 0) {
    return kUnreachable;
  }
  const LinkBase& link =
      base_[static_cast<size_t>(region_[from]) * kRegionCount + region_[to]];
  // Counter-based half-normal jitter: two splitmix64 outputs keyed on
  // (model seed, from, to) are the two uniforms of JitterTicks, so any pair's
  // jitter is recomputable in O(1) without storing it — the property that
  // lets the kernels stream.
  uint64_t state = jitter_seed_ ^ ((static_cast<uint64_t>(from) << 32) |
                                   static_cast<uint64_t>(to));
  const double u1 = static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
  return link.base + JitterTicks(link.prop, jitter_frac_, u1, u2);
}

bool Network::LossDrop(Region a, Region b) {
  const SimTime now = sim_->Now();
  for (const LossWindow& window : loss_windows_) {
    if (now < window.from || now >= window.to) {
      continue;
    }
    if (!window.all_pairs &&
        !((window.a == a && window.b == b) || (window.a == b && window.b == a))) {
      continue;
    }
    if (fault_rng_.NextBernoulli(window.rate)) {
      ++stats_.loss_drops;
      return true;
    }
  }
  return false;
}

}  // namespace diablo
