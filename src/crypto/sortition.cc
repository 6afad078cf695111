#include "src/crypto/sortition.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/sha256.h"
#include "src/crypto/sha256_compress.h"
#include "src/support/check.h"

namespace diablo {
namespace {

using sha256_internal::LoadBigEndian32;

// Participants hashed per compression. Eight uint32_t lanes fill two SSE2
// registers; four lanes measured the same and sixteen no faster.
constexpr size_t kLanes = 8;

// One sortition block per lane. The message is seed‖round‖step‖participant,
// each a uint64_t in host byte order exactly as SortitionDraw feeds it to
// Sha256::Update. Its 32 bytes fit one padded block: 0x80 at byte 32, zeros,
// and the 256-bit message length big-endian in bytes 56..63. Words 6 and 7
// carry the participant; every other word is fixed for a (seed, round, step).
struct LaneBlocks {
  uint32_t words[16][kLanes];
};

LaneBlocks SortitionBlocks(uint64_t seed, uint64_t round, uint64_t step) {
  uint8_t bytes[64] = {};
  std::memcpy(bytes, &seed, sizeof(seed));
  std::memcpy(bytes + 8, &round, sizeof(round));
  std::memcpy(bytes + 16, &step, sizeof(step));
  bytes[32] = 0x80;
  const uint64_t bit_len = 32 * 8;
  for (int i = 0; i < 8; ++i) {
    bytes[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  LaneBlocks blocks = {};
  for (size_t i = 0; i < 16; ++i) {
    for (size_t l = 0; l < kLanes; ++l) {
      blocks.words[i][l] = LoadBigEndian32(bytes + 4 * i);
    }
  }
  return blocks;
}

// SHA-256's initial state in every lane.
struct LaneState {
  uint32_t words[8][kLanes];
};

constexpr LaneState InitialLaneState() {
  LaneState state = {};
  for (size_t j = 0; j < 8; ++j) {
    for (size_t l = 0; l < kLanes; ++l) {
      state.words[j][l] = sha256_internal::kInitialState[j];
    }
  }
  return state;
}

constexpr LaneState kInitialLaneState = InitialLaneState();

constexpr uint32_t ByteSwap32(uint32_t x) {
  return (x >> 24) | ((x >> 8) & 0xff00) | ((x << 8) & 0xff0000) | (x << 24);
}

// SortitionDraw of participants first .. first + kLanes - 1, bit for bit:
// each lane's block gets its participant, one compression runs all lanes,
// and the draw comes from digest words H0‖H1, the only bytes DigestPrefix64
// reads.
void DrawLanes(LaneBlocks& blocks, uint64_t first, double (&draws)[kLanes]) {
  for (size_t l = 0; l < kLanes; ++l) {
    const uint64_t participant = first + l;
    uint8_t bytes[8] = {};
    std::memcpy(bytes, &participant, sizeof(participant));
    blocks.words[6][l] = LoadBigEndian32(bytes);
    blocks.words[7][l] = LoadBigEndian32(bytes + 4);
  }
  LaneState state = kInitialLaneState;
  sha256_internal::Compress(state.words, blocks.words);
  for (size_t l = 0; l < kLanes; ++l) {
    // Digest bytes 0..7 are H0 then H1 big-endian; DigestPrefix64 reads
    // them as one little-endian integer.
    const uint64_t prefix = ByteSwap32(state.words[0][l]) |
                            static_cast<uint64_t>(ByteSwap32(state.words[1][l])) << 32;
    draws[l] = static_cast<double>(prefix >> 11) * 0x1.0p-53;
  }
}

// Calls fn(participant, draw) for every participant in index order. Lanes
// past `population` in the last batch are computed and discarded.
template <typename Fn>
void ForEachDraw(uint64_t seed, uint64_t round, uint64_t step, uint32_t population,
                 Fn&& fn) {
  LaneBlocks blocks = SortitionBlocks(seed, round, step);
  double draws[kLanes] = {};
  for (uint64_t first = 0; first < population; first += kLanes) {
    DrawLanes(blocks, first, draws);
    const uint64_t live = std::min<uint64_t>(kLanes, population - first);
    for (uint64_t l = 0; l < live; ++l) {
      fn(static_cast<uint32_t>(first + l), draws[l]);
    }
  }
}

#if defined(DIABLO_CHECKED)
// Sampled cross-check of the batched kernel against the per-participant
// reference, keyed on the call's own round: round 1, a run's first, and
// every 257th after it. Which selections are checked is a function of the
// inputs alone, so a failure reproduces at any DIABLO_JOBS.
constexpr uint64_t kSortitionCheckCadence = 257;

bool SortitionCheckDue(uint64_t round) { return round % kSortitionCheckCadence == 1; }

// Re-derives `participant`'s batched draw in its lane and returns the
// reference SortitionDraw after checking the two agree.
double CheckedDraw(uint64_t seed, uint64_t round, uint64_t step, uint32_t participant) {
  LaneBlocks blocks = SortitionBlocks(seed, round, step);
  double draws[kLanes] = {};
  DrawLanes(blocks, participant - participant % kLanes, draws);
  const double reference = SortitionDraw(seed, round, step, participant);
  DIABLO_CHECK(draws[participant % kLanes] == reference,
               "batched sortition draw disagrees with SortitionDraw");
  return reference;
}
#endif

}  // namespace

double SortitionDraw(uint64_t seed, uint64_t round, uint64_t step, uint64_t participant) {
  Sha256 hasher;
  hasher.Update(&seed, sizeof(seed));
  hasher.Update(&round, sizeof(round));
  hasher.Update(&step, sizeof(step));
  hasher.Update(&participant, sizeof(participant));
  const uint64_t prefix = DigestPrefix64(hasher.Finish());
  return static_cast<double>(prefix >> 11) * 0x1.0p-53;
}

void SelectCommitteeInto(uint64_t seed, uint64_t round, uint64_t step,
                         uint32_t population, double expected,
                         std::vector<uint32_t>* committee) {
  committee->clear();
  if (population == 0) {
    return;
  }
  const double probability = expected / static_cast<double>(population);
  ForEachDraw(seed, round, step, population, [&](uint32_t p, double draw) {
    if (draw < probability) {
      committee->push_back(p);
    }
  });
#if defined(DIABLO_CHECKED)
  if (SortitionCheckDue(round)) {
    const uint32_t p = static_cast<uint32_t>(round % population);
    const bool member = std::binary_search(committee->begin(), committee->end(), p);
    DIABLO_CHECK(member == (CheckedDraw(seed, round, step, p) < probability),
                 "batched committee membership disagrees with SortitionDraw");
  }
#endif
}

uint32_t SelectProposer(uint64_t seed, uint64_t round, uint32_t population) {
  uint32_t best = 0;
  double best_draw = 2.0;
  ForEachDraw(seed, round, /*step=*/0, population, [&](uint32_t p, double draw) {
    if (draw < best_draw) {
      best_draw = draw;
      best = p;
    }
  });
#if defined(DIABLO_CHECKED)
  if (population > 0 && SortitionCheckDue(round)) {
    DIABLO_CHECK(CheckedDraw(seed, round, 0, best) == best_draw,
                 "batched proposer draw disagrees with SortitionDraw");
    // The lowest draw wins and the lowest index breaks ties.
    const uint32_t p = static_cast<uint32_t>(round % population);
    const double draw = CheckedDraw(seed, round, 0, p);
    DIABLO_CHECK(draw > best_draw || (draw == best_draw && p >= best),
                 "a participant's SortitionDraw ranks ahead of the batched proposer");
  }
#endif
  return best;
}

}  // namespace diablo
