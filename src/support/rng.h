// Deterministic pseudo-random number generation.
//
// Every stochastic decision in the simulator draws from an explicitly seeded
// Rng so that a run is reproducible bit-for-bit from its seed. The generator
// is xoshiro256** seeded through splitmix64, which is fast, has a 256-bit
// state and passes BigCrush; <random> engines are avoided because their
// distributions are not portable across standard library implementations.
#ifndef SRC_SUPPORT_RNG_H_
#define SRC_SUPPORT_RNG_H_

#include <array>
#include <cstdint>

namespace diablo {

// splitmix64 step; used standalone for cheap stateless hashing-style draws.
uint64_t SplitMix64(uint64_t& state);

// xoshiro256** generator with explicit seeding and forkability.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform on the full 64-bit range.
  uint64_t NextU64();

  // Uniform integer in [0, bound), bound > 0. Uses Lemire's method (no modulo bias).
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  // A new independent generator derived from this one; used to give each
  // simulated component its own stream so event reordering never perturbs
  // another component's draws.
  Rng Fork();

 private:
  std::array<uint64_t, 4> state_;
};

}  // namespace diablo

#endif  // SRC_SUPPORT_RNG_H_
