// Inter-region round-trip times and bandwidths, transcribed from Table 3 of
// the paper (measured there with iperf3 between devnet machines). Intra-
// region links model the paper's datacenter numbers: 1 ms RTT, 10 Gbps.
#ifndef SRC_NET_TOPOLOGY_H_
#define SRC_NET_TOPOLOGY_H_

#include "src/net/region.h"
#include "src/support/time.h"

namespace diablo {

// Precomputed per-region-pair link parameters. DelaySample and the gossip
// broadcast are the simulator's hottest network paths; resolving a link
// through this flat table is one multiply-free index computation instead of
// two triangle lookups, a division and two unit conversions per message.
struct LinkParams {
  SimDuration propagation = 0;  // one-way, nanoseconds
  double bandwidth_bps = 0;     // bits per second
};

class Topology {
 public:
  // Round-trip time between two regions in milliseconds.
  static double RttMs(Region a, Region b);

  // Available bandwidth between two regions in Mbps.
  static double BandwidthMbps(Region a, Region b);

  // Flat-table lookup of the (a, b) link, symmetric in its arguments; its
  // propagation is the one-way delay (RTT / 2).
  static const LinkParams& Link(Region a, Region b) {
    return LinkTable()[static_cast<size_t>(a) * kRegionCount +
                       static_cast<size_t>(b)];
  }

  // Time to push `bytes` through a link.
  static SimDuration TransmissionDelayOn(const LinkParams& link, int64_t bytes) {
    return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 /
                                    link.bandwidth_bps *
                                    static_cast<double>(kSecond));
  }

 private:
  static const LinkParams* LinkTable();
};

}  // namespace diablo

#endif  // SRC_NET_TOPOLOGY_H_
