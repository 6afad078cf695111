// SHA-256's compression function (FIPS 180-4 §6.2.2), generic over lanes:
// the one definition of the 64 rounds in this tree. Sha256::ProcessBlock
// runs it with one lane; batched sortition runs eight independent messages
// through it at once. Private to src/crypto/.
#ifndef SRC_CRYPTO_SHA256_COMPRESS_H_
#define SRC_CRYPTO_SHA256_COMPRESS_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace diablo::sha256_internal {

inline constexpr std::array<uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline constexpr std::array<uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The big-endian 32-bit word at `bytes`: how SHA-256 reads its message.
inline uint32_t LoadBigEndian32(const uint8_t* bytes) {
  return static_cast<uint32_t>(bytes[0]) << 24 | static_cast<uint32_t>(bytes[1]) << 16 |
         static_cast<uint32_t>(bytes[2]) << 8 | static_cast<uint32_t>(bytes[3]);
}

// Compresses one 64-byte block per lane into that lane's chaining state:
// `state[j][l]` is state word j of lane l and `block[i][l]` message word i of
// lane l, already loaded big-endian. Lanes never interact, and every step is
// a fixed-trip loop over lanes, so for kLanes > 1 the compiler's own
// vectorizer runs several lanes per vector register; with one lane the
// loops collapse to the scalar rounds.
template <size_t kLanes>
inline void Compress(uint32_t (&state)[8][kLanes], const uint32_t (&block)[16][kLanes]) {
  // Left uninitialized: every word is written before it is read, and
  // zero-filling 64 × kLanes words first measurably slows the 8-lane kernel.
  uint32_t w[64][kLanes];
  for (size_t i = 0; i < 16; ++i) {
    for (size_t l = 0; l < kLanes; ++l) {
      w[i][l] = block[i][l];
    }
  }
  for (size_t i = 16; i < 64; ++i) {
    for (size_t l = 0; l < kLanes; ++l) {
      const uint32_t s0 = Rotr(w[i - 15][l], 7) ^ Rotr(w[i - 15][l], 18) ^ (w[i - 15][l] >> 3);
      const uint32_t s1 = Rotr(w[i - 2][l], 17) ^ Rotr(w[i - 2][l], 19) ^ (w[i - 2][l] >> 10);
      w[i][l] = w[i - 16][l] + s0 + w[i - 7][l] + s1;
    }
  }

  uint32_t a[kLanes] = {}, b[kLanes] = {}, c[kLanes] = {}, d[kLanes] = {};
  uint32_t e[kLanes] = {}, f[kLanes] = {}, g[kLanes] = {}, h[kLanes] = {};
  for (size_t l = 0; l < kLanes; ++l) {
    a[l] = state[0][l];
    b[l] = state[1][l];
    c[l] = state[2][l];
    d[l] = state[3][l];
    e[l] = state[4][l];
    f[l] = state[5][l];
    g[l] = state[6][l];
    h[l] = state[7][l];
  }
  for (size_t i = 0; i < 64; ++i) {
    for (size_t l = 0; l < kLanes; ++l) {
      const uint32_t s1 = Rotr(e[l], 6) ^ Rotr(e[l], 11) ^ Rotr(e[l], 25);
      const uint32_t ch = (e[l] & f[l]) ^ (~e[l] & g[l]);
      const uint32_t temp1 = h[l] + s1 + ch + kRoundConstants[i] + w[i][l];
      const uint32_t s0 = Rotr(a[l], 2) ^ Rotr(a[l], 13) ^ Rotr(a[l], 22);
      const uint32_t maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
      const uint32_t temp2 = s0 + maj;
      h[l] = g[l];
      g[l] = f[l];
      f[l] = e[l];
      e[l] = d[l] + temp1;
      d[l] = c[l];
      c[l] = b[l];
      b[l] = a[l];
      a[l] = temp1 + temp2;
    }
  }
  for (size_t l = 0; l < kLanes; ++l) {
    state[0][l] += a[l];
    state[1][l] += b[l];
    state[2][l] += c[l];
    state[3][l] += d[l];
    state[4][l] += e[l];
    state[5][l] += f[l];
    state[6][l] += g[l];
    state[7][l] += h[l];
  }
}

}  // namespace diablo::sha256_internal

#endif  // SRC_CRYPTO_SHA256_COMPRESS_H_
