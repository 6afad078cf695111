#include "src/crypto/signature.h"

namespace diablo {

SignatureCost CostOf(SignatureScheme scheme) {
  // Reference-core numbers in the ballpark of openssl speed on a c5 vCPU.
  switch (scheme) {
    case SignatureScheme::kEcdsa:
      return SignatureCost{Microseconds(72), Microseconds(85), 65};
    case SignatureScheme::kEd25519:
      return SignatureCost{Microseconds(26), Microseconds(70), 64};
    case SignatureScheme::kRsa4096:
      // RSA signing is orders of magnitude slower than verification; this
      // asymmetry is what broke Avalanche's setup at scale in the paper.
      return SignatureCost{Milliseconds(9), Microseconds(180), 512};
  }
  return SignatureCost{Microseconds(100), Microseconds(100), 64};
}

}  // namespace diablo
