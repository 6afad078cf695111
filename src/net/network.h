// The simulated wide-area network.
//
// Hosts register with a region; messages between hosts experience the
// Table 3 propagation delay and bandwidth-dependent transmission delay of
// their region pair, plus jitter. Broadcasts run over a gossip tree so a
// sender's uplink is serialized across its fanout — the mechanism behind
// leader-bottleneck effects in the leader-based chains.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/net/region.h"
#include "src/net/topology.h"
#include "src/sim/simulation.h"
#include "src/support/rng.h"

namespace diablo {

using HostId = uint32_t;

// Returned for undeliverable messages (partitioned hosts).
inline constexpr SimDuration kUnreachable = -1;

// True when an n×n delay matrix cannot even be counted in size_t. Guards
// FillPairwiseDelays before it sizes the output — without it, hosts.size()
// squared silently wraps at huge N and the matrix misallocates.
inline constexpr bool PairwiseDelayCountOverflows(size_t n) {
  return n != 0 && n > std::numeric_limits<size_t>::max() / n;
}

// Reusable working memory for BroadcastDelaysInto. Engines own one instance
// and pass it to every broadcast so steady-state rounds never allocate.
struct BroadcastScratch {
  struct TreeNode {
    HostId host;
    SimDuration ready;  // time the payload is fully received at this node
  };
  std::vector<size_t> order;
  std::vector<TreeNode> frontier;
};

class Network;

// Snapshot delay model for large deployments: O(hosts + regions²) bytes.
//
// The dense PairwiseDelays matrix costs 2·8·n bytes *per validator*; at
// 10,000 validators that is ~160 KB each — 1.6 GB for the cell — before a
// single event runs. This model stores two bytes per host (region, partition
// snapshot) plus the memoised per-region-pair deterministic base, and
// re-derives the jitter term of any ordered pair on demand from a
// counter-based half-normal draw keyed on (seed, from, to). Every at(i, j)
// is a pure function, so the model supports random access (Avalanche's peer
// sampling) and streaming column scans (quorum kernels) without ever
// materialising n² state. Like the dense matrix, it snapshots topology,
// extra delays and partitions at construction time.
class StreamedDelays {
 public:
  StreamedDelays(Network* net, const std::vector<HostId>& hosts, int64_t message_bytes);

  size_t size() const { return region_.size(); }

  // One-way delay for the ordered pair of host-vector indices (from, to);
  // deterministic per (model seed, from, to). kUnreachable when either
  // endpoint was partitioned at construction.
  SimDuration at(size_t from, size_t to) const;

  // Bytes owned by this model; the fig3-XL memory-budget tests assert this
  // stays linear in the host count with a small constant.
  size_t ApproxBytes() const {
    return sizeof(*this) + region_.capacity() + partitioned_.capacity();
  }

 private:
  struct Base {
    SimDuration base = 0;  // propagation + transmission + extra delay
    double prop = 0.0;     // propagation in ticks, scales the jitter draw
  };

  std::vector<uint8_t> region_;       // region byte per host index
  std::vector<uint8_t> partitioned_;  // partition snapshot per host index
  std::array<Base, kRegionCount * kRegionCount> base_{};
  double jitter_frac_ = 0.0;
  uint64_t jitter_seed_ = 0;
};

// Streaming quorum-arrival kernel for large N: the time at which `receiver`
// holds votes from `quorum` of the `count` senders, where sender j starts at
// send_times[j] (kUnreachable = never votes) and each vote travels
// hop_scale relayed hops of the streamed delay model. Exactly the dense
// QuorumArrivalInto reduction, but the receiver's delay column is derived
// on the fly — no n² matrix exists. `scratch` carries the arrival buffer
// across calls so steady-state rounds do not allocate.
SimDuration QuorumArrivalLargeN(const StreamedDelays& delays,
                                const SimDuration* send_times, size_t count,
                                size_t receiver, size_t quorum, double hop_scale,
                                std::vector<SimDuration>* scratch);

// Sender-list form for committee-sampled rounds: senders[j] is the host
// index of the j-th committee member and sender_times[j] its vote start.
// Cost is O(committee), independent of the deployment size.
SimDuration QuorumArrivalLargeN(const StreamedDelays& delays, const uint32_t* senders,
                                const SimDuration* sender_times, size_t count,
                                size_t receiver, size_t quorum, double hop_scale,
                                std::vector<SimDuration>* scratch);

// Per-network message accounting, so fault runs are observable: how many
// point-to-point sends happened, how many were dropped because an endpoint
// was unreachable, and how many fell to an injected loss window.
struct NetworkStats {
  uint64_t sends = 0;              // Send() calls
  uint64_t unreachable_drops = 0;  // Send() drops: endpoint partitioned/lost
  uint64_t loss_drops = 0;         // messages dropped by a loss window
};

class Network {
 public:
  // `jitter_frac` scales a half-normal jitter term added to propagation.
  explicit Network(Simulation* sim, double jitter_frac = 0.05);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  HostId AddHost(Region region);
  Region HostRegion(HostId host) const { return regions_[host]; }
  size_t host_count() const { return regions_.size(); }

  // Samples a one-way delay for `bytes` from `from` to `to`. Returns
  // kUnreachable when either endpoint is partitioned off.
  SimDuration DelaySample(HostId from, HostId to, int64_t bytes);

  // DelaySample with the jitter draw taken from a caller-owned generator
  // instead of this network's shared stream: arithmetic and semantics are
  // identical sample for sample, only the generator differs. Clients sample
  // with their own forked stream, which keeps client jitter off the shared
  // stream the engines draw from — moving it back would shift every engine
  // sample and with it the golden report hashes.
  SimDuration DelaySampleFrom(Rng* rng, HostId from, HostId to, int64_t bytes);

  // Fills `out` (resized to n*n, row-major: out[from*n+to]) with one delay
  // sample per ordered host pair — exactly the samples DelaySample would
  // return pair by pair in row-major order, jitter draws included. The
  // deterministic part of each sample (propagation + transmission +
  // extra delay) is memoised per region pair, so only the jitter draw runs
  // per entry.
  void FillPairwiseDelays(const std::vector<HostId>& hosts, int64_t message_bytes,
                          std::vector<SimDuration>* out);

  // Schedules `fn` at the destination after a sampled delay; drops the
  // message silently when unreachable (like a real network would).
  void Send(HostId from, HostId to, int64_t bytes, EventFn fn);

  // Delay from `origin` to each entry of `recipients`, written to `result`,
  // when `bytes` are disseminated through a gossip tree with the given
  // fanout. recipients[i] may equal origin (delay 0). Unreachable hosts get
  // kUnreachable. Zero allocations once `scratch` and `result` are warm.
  void BroadcastDelaysInto(HostId origin, const std::vector<HostId>& recipients,
                           int64_t bytes, int fanout, BroadcastScratch* scratch,
                           std::vector<SimDuration>* result);

  // Fault injection: adds a fixed extra delay on one region pair (both
  // directions — the matrix stays symmetric), or cuts a host off entirely.
  void SetExtraDelay(Region a, Region b, SimDuration extra);
  void SetPartitioned(HostId host, bool partitioned);

  // Message-loss window: inside [from, to) each sampled message drops with
  // probability `rate`, on every link or (with regions given) on one region
  // pair in both directions. `to` < 0 keeps the window open to the end of
  // the run. Loss draws come from a generator forked off this network's
  // stream on the first window registration, so configuring no window
  // leaves every other draw sequence — and therefore the healthy-run
  // results — untouched.
  void AddLossWindow(SimTime from, SimTime to, double rate);
  void AddLossWindow(Region a, Region b, SimTime from, SimTime to, double rate);

  const NetworkStats& stats() const { return stats_; }

  Simulation* sim() { return sim_; }

 private:
  // Reads the memoised link bases, the partition vector and one seed draw at
  // construction time.
  friend class StreamedDelays;

  struct LossWindow {
    SimTime from = 0;
    SimTime to = 0;  // exclusive; open windows store SimTime max
    double rate = 0;
    bool all_pairs = true;
    Region a = Region::kOhio;
    Region b = Region::kOhio;
  };

  SimDuration ExtraDelay(Region a, Region b) const {
    return extra_delays_[static_cast<size_t>(a) * kRegionCount +
                         static_cast<size_t>(b)];
  }

  // True when a message between the two regions drops under an active loss
  // window at the current simulation time. Draws from fault_rng_.
  bool LossDrop(Region a, Region b);

  Simulation* sim_;
  double jitter_frac_;
  Rng rng_;
  std::vector<Region> regions_;
  std::vector<bool> partitioned_;
  // Dense region-pair matrix of injected extra delays, symmetric; zero when
  // no fault is active. Dense so the per-message lookup is O(1) instead of a
  // scan over the configured faults.
  std::vector<SimDuration> extra_delays_;
  std::vector<LossWindow> loss_windows_;
  // Forked lazily (see AddLossWindow); meaningful only when loss windows
  // exist.
  Rng fault_rng_{0};
  NetworkStats stats_;
};

}  // namespace diablo

#endif  // SRC_NET_NETWORK_H_
