#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/sha256_compress.h"

namespace diablo {

Sha256::Sha256() : state_(sha256_internal::kInitialState) {}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  total_len_ += len;
  while (len > 0) {
    const size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ == buffer_.size()) {
      ProcessBlock(buffer_.data());
      buffer_len_ = 0;
    }
  }
}

Digest256 Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  const uint8_t pad = 0x80;
  Update(&pad, 1);
  const uint8_t zero = 0;
  while (buffer_len_ != 56) {
    Update(&zero, 1);
  }
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  // Bypass total_len_ accounting for the length suffix.
  std::memcpy(buffer_.data() + buffer_len_, len_bytes, 8);
  ProcessBlock(buffer_.data());

  Digest256 digest;
  for (int i = 0; i < 8; ++i) {
    digest[static_cast<size_t>(4 * i)] = static_cast<uint8_t>(state_[i] >> 24);
    digest[static_cast<size_t>(4 * i + 1)] = static_cast<uint8_t>(state_[i] >> 16);
    digest[static_cast<size_t>(4 * i + 2)] = static_cast<uint8_t>(state_[i] >> 8);
    digest[static_cast<size_t>(4 * i + 3)] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

void Sha256::ProcessBlock(const uint8_t* block) {
  uint32_t words[16][1] = {};
  for (size_t i = 0; i < 16; ++i) {
    words[i][0] = sha256_internal::LoadBigEndian32(block + 4 * i);
  }
  uint32_t state[8][1] = {};
  for (size_t j = 0; j < 8; ++j) {
    state[j][0] = state_[j];
  }
  sha256_internal::Compress(state, words);
  for (size_t j = 0; j < 8; ++j) {
    state_[j] = state[j][0];
  }
}

Digest256 Sha256Digest(std::string_view data) {
  return Sha256Digest(data.data(), data.size());
}

Digest256 Sha256Digest(const void* data, size_t len) {
  Sha256 hasher;
  hasher.Update(data, len);
  return hasher.Finish();
}

uint64_t DigestPrefix64(const Digest256& digest) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(digest[static_cast<size_t>(i)]) << (8 * i);
  }
  return value;
}

std::string DigestHex(const Digest256& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace diablo
