// Declarative fault schedules: the set of failures a run injects, as pure
// data. A schedule is built programmatically (FaultScheduleBuilder) or
// parsed from the `faults:` section of a workload YAML file, validated
// once, and then executed by the FaultInjector as ordinary simulation
// events — so a faulty run is exactly as deterministic as a healthy one.
//
// The fault model covers the §6.3-style scenarios: node crashes with
// optional restart, network partitions (explicit node sets or whole
// regions) with heal, message-loss and delay-spike windows on the network,
// and stragglers (a node whose CPU runs at a fraction of its rated speed).
//
// Beyond those honest failures, the schedule also declares *Byzantine*
// (malicious-validator) windows: equivocating leaders, double-voting, vote
// withholding, censorship of a signer set, and lazy proposers. A Byzantine
// event names its adversaries either explicitly (`nodes`) or as a fraction
// of the deployment (`fraction`), resolved deterministically by the
// injector; the consensus engines carry the matching detection and defense
// hooks (see docs/robustness.md).
#ifndef SRC_FAULT_SCHEDULE_H_
#define SRC_FAULT_SCHEDULE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/region.h"
#include "src/support/time.h"

namespace diablo {

enum class FaultKind : uint8_t {
  kCrash = 0,    // node stops participating; optional restart
  kPartition,    // a set of nodes (or a region) is cut off, then healed
  kLoss,         // messages drop with probability `rate` inside the window
  kDelaySpike,   // extra one-way delay inside the window
  kStraggler,    // a node's CPU runs at cpu_factor of its rated speed
  // --- Byzantine kinds: the scoped nodes act maliciously in the window ---
  kEquivocate,     // leaders send conflicting proposals for their round
  kDoubleVote,     // validators cast two votes per vote stage
  kWithholdVotes,  // validators never vote
  kCensor,         // proposers refuse transactions from a signer set
  kLazyProposer,   // proposers seal empty blocks
  kCount,          // sentinel — keep last; not a fault kind
};

inline constexpr size_t kFaultKindCount = static_cast<size_t>(FaultKind::kCount);

// Adversary behavior bits (ValidatorTable::SetAdversary); each Byzantine
// kind arms one.
inline constexpr uint8_t kAdversaryEquivocate = 1u << 0;
inline constexpr uint8_t kAdversaryDoubleVote = 1u << 1;
inline constexpr uint8_t kAdversaryWithhold = 1u << 2;
inline constexpr uint8_t kAdversaryCensor = 1u << 3;
inline constexpr uint8_t kAdversaryLazy = 1u << 4;

// The whole description of one fault kind. The `faults:` reader,
// FaultKindName, IsByzantine and the injector read these rows, and nothing
// else maps kinds to names, keys or adversary bits. Unused key slots are
// empty.
struct FaultKindRow {
  FaultKind kind;
  const char* name;                          // the kind in a `faults:` entry
  std::array<std::string_view, 5> keys;      // every key its body takes
  std::array<std::string_view, 3> required;  // the keys its body must have
  std::array<std::string_view, 2> one_of;    // it must have exactly one of these
  uint8_t adversary_bits;                    // kAdversary*; 0 = not Byzantine
};

// Row i describes FaultKind i.
extern const std::array<FaultKindRow, kFaultKindCount> kFaultKindRows;

const char* FaultKindName(FaultKind kind);

// Whether this kind models malicious (vs merely failing) validators.
bool IsByzantine(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  SimTime at = 0;        // fault onset
  SimTime until = -1;    // restart / heal / window end; -1 = never heals
  int node = -1;         // crash, straggler
  std::vector<int> nodes;  // partition by explicit node set
  bool by_region = false;  // partition scoped to a whole region
  Region region = Region::kOhio;
  bool region_pair = false;  // loss/delay scoped to one region pair
  Region pair_a = Region::kOhio;
  Region pair_b = Region::kOhio;
  double loss_rate = 0;        // kLoss: drop probability in [0, 1]
  SimDuration extra_delay = 0; // kDelaySpike
  double cpu_factor = 1;       // kStraggler: fraction of rated speed, (0, 1]
  // Byzantine kinds scope their adversaries either by explicit `nodes` or
  // by `fraction` of the deployment in (0, 1); exactly one must be given.
  double fraction = 0;
  std::vector<int> censored_signers;  // kCensor: signer ids to refuse
  int line = 0;  // line of its `faults:` entry; 0 for an event built in code
};

// "<kind> fault at t=<onset>s: <what>", and " (line N)" when the event came
// from a `faults:` entry: the message of every error about one event.
std::string FaultEventError(const FaultEvent& event, const std::string& what);

struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  // Structural validation: well-formed times, rates and factors in range,
  // no overlapping windows of the same kind on the same scope. When
  // `node_count` >= 0, node references are also range-checked against the
  // deployment ("unknown host"). Returns false and fills *error on the
  // first violation.
  bool Validate(int node_count, std::string* error) const;

  // Heal instants (restart / partition heal / window end), sorted
  // ascending: the moments time-to-recovery is measured from.
  std::vector<SimTime> HealTimes() const;
};

// Fluent construction for tests and experiment binaries:
//   FaultSchedule s = FaultScheduleBuilder()
//       .Crash(0, Seconds(10), Seconds(30))
//       .Partition({1, 2, 3}, Seconds(10), Seconds(40))
//       .Loss(0.05, Seconds(10), Seconds(40))
//       .Build();
class FaultScheduleBuilder {
 public:
  // Crash `node` at `at`; restart < 0 means it never comes back.
  FaultScheduleBuilder& Crash(int node, SimTime at, SimTime restart = -1);
  FaultScheduleBuilder& Partition(std::vector<int> nodes, SimTime from,
                                  SimTime to = -1);
  // Uniform loss on every link.
  FaultScheduleBuilder& Loss(double rate, SimTime from, SimTime to = -1);
  // Extra one-way delay on every link.
  FaultScheduleBuilder& DelaySpike(SimDuration extra, SimTime from,
                                   SimTime to = -1);
  FaultScheduleBuilder& Straggler(int node, double cpu_factor, SimTime from,
                                  SimTime to = -1);

  // Byzantine windows. The explicit-node forms name the adversaries; the
  // Fraction forms let the injector pick round(fraction * n) of them
  // deterministically (max(1, ...), strided across the deployment).
  FaultScheduleBuilder& Equivocate(std::vector<int> nodes, SimTime from,
                                   SimTime to = -1);
  FaultScheduleBuilder& EquivocateFraction(double fraction, SimTime from,
                                           SimTime to = -1);
  FaultScheduleBuilder& DoubleVoteFraction(double fraction, SimTime from,
                                           SimTime to = -1);
  FaultScheduleBuilder& WithholdVotes(std::vector<int> nodes, SimTime from,
                                      SimTime to = -1);
  FaultScheduleBuilder& WithholdVotesFraction(double fraction, SimTime from,
                                              SimTime to = -1);
  FaultScheduleBuilder& Censor(std::vector<int> nodes,
                               std::vector<int> signers, SimTime from,
                               SimTime to = -1);
  FaultScheduleBuilder& CensorFraction(double fraction,
                                       std::vector<int> signers, SimTime from,
                                       SimTime to = -1);
  FaultScheduleBuilder& LazyProposer(std::vector<int> nodes, SimTime from,
                                     SimTime to = -1);
  FaultScheduleBuilder& LazyProposerFraction(double fraction, SimTime from,
                                             SimTime to = -1);

  FaultSchedule Build() { return std::move(schedule_); }

 private:
  FaultSchedule schedule_;
};

}  // namespace diablo

#endif  // SRC_FAULT_SCHEDULE_H_
