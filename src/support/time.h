// Simulated-time types. The whole simulation runs on a single signed 64-bit
// nanosecond clock; helpers below keep unit conversions explicit at call sites.
#ifndef SRC_SUPPORT_TIME_H_
#define SRC_SUPPORT_TIME_H_

#include <bit>
#include <cstdint>

namespace diablo {

// Simulated time and durations, in nanoseconds since the start of a run.
using SimTime = int64_t;
using SimDuration = int64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr SimDuration Microseconds(int64_t n) { return n * kMicrosecond; }
constexpr SimDuration Milliseconds(int64_t n) { return n * kMillisecond; }
constexpr SimDuration Seconds(int64_t n) { return n * kSecond; }

// Fractional constructors for config values such as "1.9 s block period".
constexpr SimDuration MillisecondsF(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}
constexpr SimDuration SecondsF(double s) {
  return static_cast<SimDuration>(s * static_cast<double>(kSecond));
}

constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / kSecond; }
constexpr double ToMilliseconds(SimDuration d) { return static_cast<double>(d) / kMillisecond; }

// `base << exponent` with the exponent clamped so the shift is always
// defined and the result saturates instead of overflowing. The saturation
// value is kept a quarter of the int64 range so callers can still add it to
// a current timestamp without wrapping. Used for retry/view-change backoff
// timers, where a pathological configuration (huge base timeout) must stall
// the protocol, not corrupt the clock.
constexpr SimDuration SaturatingBackoff(SimDuration base, int exponent) {
  constexpr SimDuration kCeiling = INT64_MAX / 4;
  if (base <= 0) {
    return 0;
  }
  if (exponent <= 0) {
    return base;
  }
  const int base_bits = 64 - std::countl_zero(static_cast<uint64_t>(base));
  // kCeiling occupies 61 bits; any result needing more saturates.
  if (base_bits + exponent > 61) {
    return kCeiling;
  }
  return base << exponent;
}

}  // namespace diablo

#endif  // SRC_SUPPORT_TIME_H_
