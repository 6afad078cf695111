// Signature cost model.
//
// The simulation does not need cryptographic security from signatures — the
// adversary model of the benchmark is load, not forgery — but it does need
// their *cost*: signing burns client CPU (diablo pre-signs transactions) and
// verification burns validator CPU. §5.2 recounts Avalanche's RSA4096
// signing being too slow at scale, which this model reproduces.
#ifndef SRC_CRYPTO_SIGNATURE_H_
#define SRC_CRYPTO_SIGNATURE_H_

#include <cstdint>

#include "src/support/time.h"

namespace diablo {

enum class SignatureScheme : uint8_t {
  kEcdsa = 0,     // secp256k1-style: Ethereum, Quorum, Avalanche (after the
                  // paper's fallback from RSA4096)
  kEd25519 = 1,   // Solana, Algorand, Diem
  kRsa4096 = 2,   // Avalanche's original recommendation; signing is slow
};

struct SignatureCost {
  SimDuration sign;    // one signature on a reference core
  SimDuration verify;  // one verification on a reference core
  int bytes;           // wire size of the signature
};

// Cost of the scheme on one reference vCPU.
SignatureCost CostOf(SignatureScheme scheme);

}  // namespace diablo

#endif  // SRC_CRYPTO_SIGNATURE_H_
