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

// The jitter term of one sampled delay: the half-normal Box–Muller draw
// from the uniforms u1 and u2, scaled by `prop` (the link's propagation in
// ticks) and `jitter_frac`, truncated to ticks. Every delay the network
// samples adds one; network.cc states the bit-exactness contract.
SimDuration JitterTicks(double prop, double jitter_frac, double u1, double u2);

// The deterministic part of a one-way delay on one ordered region pair for
// a fixed message size: propagation + transmission + injected extra delay,
// and the propagation (in ticks) that scales the pair's jitter draw. The
// dense fill and the streamed model both read a table of these.
struct LinkBase {
  SimDuration base = 0;
  double prop = 0.0;
};
using LinkBaseTable = std::array<LinkBase, kRegionCount * kRegionCount>;

// Snapshot delay model for large deployments: O(hosts + regions²) bytes.
//
// The dense PairwiseDelays matrix costs 8·n bytes *per validator*; at
// 10,000 validators that is ~80 KB each — 800 MB for the cell — before a
// single event runs. This model stores two bytes per host (region, partition
// snapshot) plus the per-region-pair LinkBase table, and re-derives the
// jitter term of any ordered pair on demand from a counter-based half-normal
// draw keyed on (seed, from, to). Every at(i, j) is a pure function, so the
// model supports random access (Avalanche's peer sampling) and streaming
// column scans (the quorum kernels in src/chain/vote_round.h) without ever
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
  std::vector<uint8_t> region_;       // region byte per host index
  std::vector<uint8_t> partitioned_;  // partition snapshot per host index
  LinkBaseTable base_;
  double jitter_frac_ = 0.0;
  uint64_t jitter_seed_ = 0;
};

// Per-network message accounting, so fault runs are observable: how many
// messages fell to an injected loss window. Nothing increments `sends` or
// `unreachable_drops`, so both read 0; they stay because simbench's traced
// cell reads them.
struct NetworkStats {
  uint64_t sends = 0;
  uint64_t unreachable_drops = 0;
  uint64_t loss_drops = 0;  // messages dropped by a loss window
};

class Network {
 public:
  // `jitter_frac` scales a half-normal jitter term added to propagation.
  explicit Network(Simulation* sim, double jitter_frac = 0.05);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  HostId AddHost(Region region);

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

  // Fills `out` (resized to n*n, receiver-major: out[to*n+from]) with one
  // delay sample per ordered host pair — exactly the samples DelaySample
  // would return pair by pair in sender-major order, jitter draws included.
  // The deterministic part of each sample comes from one LinkBaseTable, so
  // only the jitter draw runs per entry.
  void FillPairwiseDelays(const std::vector<HostId>& hosts, int64_t message_bytes,
                          std::vector<SimDuration>* out);

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


 private:
  // Reads the link bases, the partition vector and one seed draw at
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

  // The LinkBase of the ordered pair (a, b) for `bytes`, and the table of
  // every pair's, indexed a * kRegionCount + b.
  LinkBase LinkBaseOf(Region a, Region b, int64_t bytes) const;
  LinkBaseTable LinkBases(int64_t bytes) const;

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
