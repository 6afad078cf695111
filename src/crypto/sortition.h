// Cryptographic sortition in the style of Algorand's VRF-based committee
// selection: a deterministic, seed-keyed uniform draw per (round, step,
// participant) decides membership and proposer priority. SelectCommitteeInto
// and SelectProposer hash eight participants per SHA-256 compression; their
// draws are bit-identical to SortitionDraw, the per-participant definition.
#ifndef SRC_CRYPTO_SORTITION_H_
#define SRC_CRYPTO_SORTITION_H_

#include <cstdint>
#include <vector>

namespace diablo {

// Uniform double in [0, 1) derived from SHA-256 of the inputs. Acts as the
// published VRF output: all honest parties compute the same value. This is
// the reference the batched selection below is tested against.
double SortitionDraw(uint64_t seed, uint64_t round, uint64_t step, uint64_t participant);

// Selects a committee of expected size `expected` from `population`
// equally-weighted participants into a caller-owned vector (cleared first,
// then filled with the selected participant indices in ascending order), so
// per-round selection reuses one allocation.
void SelectCommitteeInto(uint64_t seed, uint64_t round, uint64_t step,
                         uint32_t population, double expected,
                         std::vector<uint32_t>* committee);

// Proposer priority: the participant with the lowest draw for the round.
uint32_t SelectProposer(uint64_t seed, uint64_t round, uint32_t population);

}  // namespace diablo

#endif  // SRC_CRYPTO_SORTITION_H_
