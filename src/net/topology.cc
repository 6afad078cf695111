#include "src/net/topology.h"

#include <array>

namespace diablo {
namespace {

// Table 3 (right), bottom-left triangle: round-trip time in milliseconds.
// Row = first region, column = second region, in enum order. Only i > j
// entries are meaningful; the matrix is symmetric.
constexpr std::array<std::array<double, kRegionCount>, kRegionCount> kRttMs = {{
    //  CT     Tok    Mum    Syd    Sto    Mil    Bah    SP     Ohi    Ore
    {{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},                                          // Cape Town
    {{354.0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},                                      // Tokyo
    {{272.0, 127.2, 0, 0, 0, 0, 0, 0, 0, 0}},                                  // Mumbai
    {{410.4, 102.3, 146.8, 0, 0, 0, 0, 0, 0, 0}},                              // Sydney
    {{179.7, 241.2, 138.9, 295.7, 0, 0, 0, 0, 0, 0}},                          // Stockholm
    {{162.4, 214.8, 110.8, 238.8, 30.2, 0, 0, 0, 0, 0}},                       // Milan
    {{287.0, 164.3, 36.4, 179.2, 137.9, 108.2, 0, 0, 0, 0}},                   // Bahrain
    {{340.5, 256.6, 305.6, 310.5, 214.9, 211.9, 320.0, 0, 0, 0}},              // Sao Paulo
    {{237.0, 131.8, 197.3, 187.9, 120.0, 109.2, 212.7, 121.9, 0, 0}},          // Ohio
    {{276.6, 96.7, 215.8, 139.7, 162.0, 157.8, 251.4, 178.3, 55.2, 0}},        // Oregon
}};

// Table 3 (right), top-right triangle: bandwidth in Mbps. Only i < j entries
// are meaningful; the matrix is symmetric.
constexpr std::array<std::array<double, kRegionCount>, kRegionCount> kBandwidthMbps = {{
    //  CT   Tok    Mum    Syd    Sto    Mil    Bah    SP     Ohi    Ore
    {{0, 26.1, 36.0, 20.8, 59.8, 67.1, 33.6, 27.1, 43.6, 35.9}},               // Cape Town
    {{0, 0, 89.3, 112.1, 42.1, 48.1, 66.8, 39.3, 85.8, 108.8}},                // Tokyo
    {{0, 0, 0, 75.9, 81.3, 103.2, 336.3, 30.8, 53.3, 48.5}},                   // Mumbai
    {{0, 0, 0, 0, 32.0, 42.4, 59.6, 31.2, 57.0, 80.8}},                        // Sydney
    {{0, 0, 0, 0, 0, 404.6, 81.8, 48.2, 94.7, 67.6}},                          // Stockholm
    {{0, 0, 0, 0, 0, 0, 105.7, 49.4, 104.9, 70.1}},                            // Milan
    {{0, 0, 0, 0, 0, 0, 0, 29.9, 49.4, 38.7}},                                 // Bahrain
    {{0, 0, 0, 0, 0, 0, 0, 0, 92.3, 60.5}},                                    // Sao Paulo
    {{0, 0, 0, 0, 0, 0, 0, 0, 0, 105.0}},                                      // Ohio
    {{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},                                          // Oregon
}};

// §5.1: datacenter links are 10 Gbps with 1 ms latency.
constexpr double kIntraRegionRttMs = 1.0;
constexpr double kIntraRegionBandwidthMbps = 10000.0;

}  // namespace

double Topology::RttMs(Region a, Region b) {
  const size_t i = static_cast<size_t>(a);
  const size_t j = static_cast<size_t>(b);
  if (i == j) {
    return kIntraRegionRttMs;
  }
  return i > j ? kRttMs[i][j] : kRttMs[j][i];
}

double Topology::BandwidthMbps(Region a, Region b) {
  const size_t i = static_cast<size_t>(a);
  const size_t j = static_cast<size_t>(b);
  if (i == j) {
    return kIntraRegionBandwidthMbps;
  }
  return i < j ? kBandwidthMbps[i][j] : kBandwidthMbps[j][i];
}

const LinkParams* Topology::LinkTable() {
  // Built once, thread-safe (magic static); read-only afterwards so parallel
  // experiment cells share it without synchronisation.
  static const LinkParams* const kTable = [] {
    auto* table = new LinkParams[kRegionCount * kRegionCount];
    for (size_t i = 0; i < kRegionCount; ++i) {
      for (size_t j = 0; j < kRegionCount; ++j) {
        const Region a = static_cast<Region>(i);
        const Region b = static_cast<Region>(j);
        LinkParams& link = table[i * kRegionCount + j];
        link.propagation = MillisecondsF(RttMs(a, b) / 2.0);
        link.bandwidth_bps = BandwidthMbps(a, b) * 1e6;
      }
    }
    return table;
  }();
  return kTable;
}

}  // namespace diablo
