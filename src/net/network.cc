#include "src/net/network.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "src/support/check.h"

namespace diablo {

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
  const LinkParams& link = Topology::Link(a, b);
  const SimDuration prop = link.propagation;
  const SimDuration trans = Topology::TransmissionDelayOn(link, bytes);
  const double jitter_scale = jitter_frac_ * std::abs(rng->NextGaussian(0.0, 1.0));
  const SimDuration jitter =
      static_cast<SimDuration>(static_cast<double>(prop) * jitter_scale);
  const SimDuration delay = prop + trans + jitter + ExtraDelay(a, b);
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
  // region pair. Memoise it and pay only the jitter draw per entry. Entries
  // are visited in the same row-major order — and draw the RNG under exactly
  // the same conditions — as a DelaySample-per-pair loop, keeping the stream
  // bit-identical.
  struct BaseEntry {
    SimDuration base = 0;
    double prop = 0.0;
    bool ready = false;
  };
  std::array<BaseEntry, kRegionCount * kRegionCount> cache{};
  SimDuration* row = out->data();
  for (size_t i = 0; i < n; ++i, row += n) {
    const HostId from = hosts[i];
    const bool from_partitioned = partitioned_[from];
    for (size_t j = 0; j < n; ++j) {
      if (i == j) {
        continue;  // assign() zeroed the diagonal
      }
      const HostId to = hosts[j];
      if (from_partitioned || partitioned_[to]) {
        row[j] = kUnreachable;
        continue;
      }
      if (from == to) {
        row[j] = 0;
        continue;
      }
      const Region a = regions_[from];
      const Region b = regions_[to];
      if (!loss_windows_.empty() && LossDrop(a, b)) {
        row[j] = kUnreachable;
        continue;
      }
      BaseEntry& entry =
          cache[static_cast<size_t>(a) * kRegionCount + static_cast<size_t>(b)];
      if (!entry.ready) {
        const LinkParams& link = Topology::Link(a, b);
        entry.base = link.propagation + Topology::TransmissionDelayOn(link, message_bytes) +
                     ExtraDelay(a, b);
        entry.prop = static_cast<double>(link.propagation);
        entry.ready = true;
      }
      const double jitter_scale = jitter_frac_ * std::abs(rng_.NextGaussian(0.0, 1.0));
      row[j] = entry.base + static_cast<SimDuration>(entry.prop * jitter_scale);
    }
  }
}

void Network::Send(HostId from, HostId to, int64_t bytes, EventFn fn) {
  ++stats_.sends;
  const SimDuration delay = DelaySample(from, to, bytes);
  if (delay == kUnreachable) {
    // Dropped like a real network would drop it — but counted, so fault
    // runs can report how much traffic the failure destroyed.
    ++stats_.unreachable_drops;
    return;
  }
  sim_->Schedule(delay, std::move(fn));
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
      const double jitter_scale = jitter_frac_ * std::abs(rng_.NextGaussian(0.0, 1.0));
      const SimDuration jitter =
          static_cast<SimDuration>(static_cast<double>(prop) * jitter_scale);
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
    : jitter_frac_(net->jitter_frac_), jitter_seed_(net->rng_.NextU64()) {
  region_.reserve(hosts.size());
  partitioned_.reserve(hosts.size());
  for (const HostId host : hosts) {
    region_.push_back(static_cast<uint8_t>(net->regions_[host]));
    partitioned_.push_back(net->partitioned_[host] ? 1 : 0);
  }
  for (int a = 0; a < kRegionCount; ++a) {
    for (int b = 0; b < kRegionCount; ++b) {
      const LinkParams& link =
          Topology::Link(static_cast<Region>(a), static_cast<Region>(b));
      Base& entry =
          base_[static_cast<size_t>(a) * kRegionCount + static_cast<size_t>(b)];
      entry.base = link.propagation +
                   Topology::TransmissionDelayOn(link, message_bytes) +
                   net->ExtraDelay(static_cast<Region>(a), static_cast<Region>(b));
      entry.prop = static_cast<double>(link.propagation);
    }
  }
}

SimDuration StreamedDelays::at(size_t from, size_t to) const {
  if (from == to) {
    return 0;  // self-votes are instant, matching the dense matrix diagonal
  }
  if ((partitioned_[from] | partitioned_[to]) != 0) {
    return kUnreachable;
  }
  const Base& entry =
      base_[static_cast<size_t>(region_[from]) * kRegionCount + region_[to]];
  // Counter-based half-normal jitter: two splitmix64 outputs keyed on
  // (model seed, from, to) feed the same Box-Muller arithmetic as
  // Rng::NextGaussian, so any pair's jitter is recomputable in O(1) without
  // storing it — the property that lets the kernels stream.
  uint64_t state = jitter_seed_ ^ ((static_cast<uint64_t>(from) << 32) |
                                   static_cast<uint64_t>(to));
  double u1 = static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double gauss = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  const double jitter_scale = jitter_frac_ * std::abs(gauss);
  return entry.base + static_cast<SimDuration>(entry.prop * jitter_scale);
}

namespace {

// Shared tail of both QuorumArrivalLargeN forms: exact k-th smallest of the
// collected arrivals.
SimDuration SelectQuorum(std::vector<SimDuration>* arrivals, size_t quorum) {
  if (arrivals->size() < quorum) {
    return kUnreachable;
  }
  std::nth_element(arrivals->begin(), arrivals->begin() + static_cast<long>(quorum - 1),
                   arrivals->end());
  return (*arrivals)[quorum - 1];
}

}  // namespace

SimDuration QuorumArrivalLargeN(const StreamedDelays& delays,
                                const SimDuration* send_times, size_t count,
                                size_t receiver, size_t quorum, double hop_scale,
                                std::vector<SimDuration>* scratch) {
  if (quorum == 0) {
    return kUnreachable;
  }
  scratch->clear();
  for (size_t j = 0; j < count; ++j) {
    const SimDuration s = send_times[j];
    if (s == kUnreachable) {
      continue;  // the jitter derivation is skipped for silent senders
    }
    const SimDuration hop = delays.at(j, receiver);
    if (hop == kUnreachable) {
      continue;
    }
    scratch->push_back(
        s + static_cast<SimDuration>(static_cast<double>(hop) * hop_scale));
  }
  return SelectQuorum(scratch, quorum);
}

SimDuration QuorumArrivalLargeN(const StreamedDelays& delays, const uint32_t* senders,
                                const SimDuration* sender_times, size_t count,
                                size_t receiver, size_t quorum, double hop_scale,
                                std::vector<SimDuration>* scratch) {
  if (quorum == 0) {
    return kUnreachable;
  }
  scratch->clear();
  for (size_t j = 0; j < count; ++j) {
    const SimDuration s = sender_times[j];
    if (s == kUnreachable) {
      continue;
    }
    const SimDuration hop = delays.at(senders[j], receiver);
    if (hop == kUnreachable) {
      continue;
    }
    scratch->push_back(
        s + static_cast<SimDuration>(static_cast<double>(hop) * hop_scale));
  }
  return SelectQuorum(scratch, quorum);
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
