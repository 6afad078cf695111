// Structure-of-arrays per-validator state.
//
// At paper scale (≤ 200 nodes) per-validator bookkeeping is noise; at
// fig3-XL scale (10k–100k) every per-node vector and every per-node byte is
// multiplied by n. This table packs the per-validator state one deployment
// needs — region byte, down bit, CPU-speed override — into a handful of
// flat arrays whose cost is bytes per validator, not objects per validator:
//
//   region     1 byte/validator, filled at construction
//   down       1 bit/validator, allocated lazily on the first fault
//   cpu        sparse (index, factor) pairs — fault schedules slow a few
//              stragglers, never the whole fleet, so the common case is an
//              empty vector and a single emptiness check per block
//
// The table is deliberately dumb storage: fault semantics (partitioning the
// network, skipping down proposers) stay in ChainContext / the engines.
#ifndef SRC_CHAIN_VALIDATOR_TABLE_H_
#define SRC_CHAIN_VALIDATOR_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/chain/vote_round.h"
#include "src/net/deployment.h"
#include "src/net/region.h"

namespace diablo {

class ValidatorTable {
 public:
  ValidatorTable() = default;
  explicit ValidatorTable(const DeploymentConfig& deployment);

  size_t count() const { return region_.size(); }

  Region region(int index) const {
    return static_cast<Region>(region_[static_cast<size_t>(index)]);
  }

  // --- down bits -----------------------------------------------------------
  // The bitset is empty until the first SetDown, so healthy runs pay one
  // emptiness check and zero bytes.
  void SetDown(int index, bool down);
  bool Down(int index) const {
    return !down_.empty() && down_.Test(static_cast<size_t>(index));
  }
  size_t DownCount() const { return down_.Count(); }

  // --- CPU-speed overrides -------------------------------------------------
  // Stored sparsely, sorted by index; factor 1.0 erases the entry.
  void SetCpuFactor(int index, double factor);
  bool AnyCpuOverride() const { return !cpu_overrides_.empty(); }
  // 1.0 unless an override was set for this validator.
  double CpuFactor(int index) const;

  // --- adversary bits ------------------------------------------------------
  // One behavior byte per validator, allocated lazily on the first armed
  // Byzantine window, so healthy runs pay one emptiness check and zero
  // bytes. The bits are the kAdversary* of src/fault/schedule.h, and they
  // combine: a node can equivocate *and* withhold.
  void SetAdversary(int index, uint8_t bits, bool on);
  uint8_t Adversary(int index) const {
    return adversary_.empty() ? 0 : adversary_[static_cast<size_t>(index)];
  }
  // True while any validator has any adversary bit set — the engines'
  // healthy-path early-out.
  bool AnyAdversary() const { return adversary_count_ > 0; }

  // Bytes owned by the table; asserted against the fig3-XL per-validator
  // budget.
  size_t ApproxBytes() const {
    return sizeof(*this) + region_.capacity() + down_.ApproxBytes() +
           cpu_overrides_.capacity() * sizeof(cpu_overrides_[0]) +
           adversary_.capacity();
  }

 private:
  std::vector<uint8_t> region_;
  VoteBitset down_;
  std::vector<std::pair<uint32_t, double>> cpu_overrides_;
  std::vector<uint8_t> adversary_;
  size_t adversary_count_ = 0;  // validators with a nonzero adversary byte
};

}  // namespace diablo

#endif  // SRC_CHAIN_VALIDATOR_TABLE_H_
