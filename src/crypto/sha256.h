// SHA-256, implemented from scratch (FIPS 180-4). Used for the sortition
// "VRF" and, in checked builds, the ledger's parent-hash chain and the
// commit-safety digest — everywhere the simulated chains need a real
// collision-resistant digest.
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace diablo {

using Digest256 = std::array<uint8_t, 32>;

// Incremental hasher.
class Sha256 {
 public:
  Sha256();

  void Update(const void* data, size_t len);

  // Finalizes and returns the digest; the hasher must not be reused after.
  Digest256 Finish();

 private:
  void ProcessBlock(const uint8_t* block);

  std::array<uint32_t, 8> state_;
  std::array<uint8_t, 64> buffer_;
  uint64_t total_len_ = 0;
  size_t buffer_len_ = 0;
};

// One-shot convenience.
Digest256 Sha256Digest(std::string_view data);
Digest256 Sha256Digest(const void* data, size_t len);

// First 8 bytes of the digest as a little-endian integer; handy as a cheap
// deterministic identifier derived from hashed content.
uint64_t DigestPrefix64(const Digest256& digest);

// Lowercase hex encoding.
std::string DigestHex(const Digest256& digest);

}  // namespace diablo

#endif  // SRC_CRYPTO_SHA256_H_
