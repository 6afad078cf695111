#include "src/fault/schedule.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/support/strings.h"

namespace diablo {
namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

SimTime WindowEnd(const FaultEvent& event) {
  return event.until < 0 ? kForever : event.until;
}

bool Overlaps(const FaultEvent& a, const FaultEvent& b) {
  return a.at < WindowEnd(b) && b.at < WindowEnd(a);
}

// Whether two explicit node sets intersect.
bool NodesIntersect(const std::vector<int>& a, const std::vector<int>& b) {
  for (const int node : a) {
    if (std::find(b.begin(), b.end(), node) != b.end()) {
      return true;
    }
  }
  return false;
}

// Whether two events of the same kind act on the same scope, i.e. an
// overlap between them would be ambiguous (node crashed while crashed,
// two loss rates on one link).
bool SameScope(const FaultEvent& a, const FaultEvent& b) {
  switch (a.kind) {
    case FaultKind::kCrash:
    case FaultKind::kStraggler:
      return a.node == b.node;
    case FaultKind::kEquivocate:
    case FaultKind::kDoubleVote:
    case FaultKind::kWithholdVotes:
    case FaultKind::kLazyProposer:
      // A fractional window resolves to an injector-chosen node set, so it
      // can collide with any same-kind window; explicit sets conflict only
      // when they intersect.
      if (a.fraction > 0.0 || b.fraction > 0.0) {
        return true;
      }
      return NodesIntersect(a.nodes, b.nodes);
    case FaultKind::kCensor:
      // The censored-signer set is a single piece of global state, so any
      // two censor windows are ambiguous when they overlap.
      return true;
    case FaultKind::kCount:
      return false;
    case FaultKind::kPartition:
      if (a.by_region || b.by_region) {
        return a.by_region && b.by_region && a.region == b.region;
      }
      return NodesIntersect(a.nodes, b.nodes);
    case FaultKind::kLoss:
    case FaultKind::kDelaySpike: {
      if (a.region_pair != b.region_pair) {
        // A link-scoped window under an all-links window is still one rate
        // per cause; allow the combination.
        return false;
      }
      if (!a.region_pair) {
        return true;  // both cover every link
      }
      const auto key = [](const FaultEvent& e) {
        return std::minmax(e.pair_a, e.pair_b);
      };
      return key(a) == key(b);
    }
  }
  return false;
}

bool EventError(const FaultEvent& event, const std::string& what,
                std::string* error) {
  *error = FaultEventError(event, what);
  return false;
}

}  // namespace

std::string FaultEventError(const FaultEvent& event, const std::string& what) {
  std::string message = StrFormat("%s fault at t=%.3fs: %s", FaultKindName(event.kind),
                                  ToSeconds(event.at), what.c_str());
  if (event.line > 0) {
    message += StrFormat(" (line %d)", event.line);
  }
  return message;
}

const std::array<FaultKindRow, kFaultKindCount> kFaultKindRows = {{
    {FaultKind::kCrash, "crash", {"node", "at", "restart"}, {"node", "at"}, {}, 0},
    {FaultKind::kPartition, "partition", {"nodes", "region", "from", "to"},
     {"from"}, {"nodes", "region"}, 0},
    {FaultKind::kLoss, "loss", {"rate", "between", "from", "to"},
     {"rate", "from"}, {}, 0},
    {FaultKind::kDelaySpike, "delay", {"extra_ms", "between", "from", "to"},
     {"extra_ms", "from"}, {}, 0},
    {FaultKind::kStraggler, "straggler", {"node", "cpu_factor", "from", "to"},
     {"node", "cpu_factor", "from"}, {}, 0},
    {FaultKind::kEquivocate, "equivocate", {"nodes", "fraction", "from", "to"},
     {"from"}, {"nodes", "fraction"}, kAdversaryEquivocate},
    {FaultKind::kDoubleVote, "double-vote", {"nodes", "fraction", "from", "to"},
     {"from"}, {"nodes", "fraction"}, kAdversaryDoubleVote},
    {FaultKind::kWithholdVotes, "withhold", {"nodes", "fraction", "from", "to"},
     {"from"}, {"nodes", "fraction"}, kAdversaryWithhold},
    {FaultKind::kCensor, "censor",
     {"nodes", "fraction", "signers", "from", "to"}, {"signers", "from"},
     {"nodes", "fraction"}, kAdversaryCensor},
    {FaultKind::kLazyProposer, "lazy", {"nodes", "fraction", "from", "to"},
     {"from"}, {"nodes", "fraction"}, kAdversaryLazy},
}};

const char* FaultKindName(FaultKind kind) {
  return kind < FaultKind::kCount ? kFaultKindRows[static_cast<size_t>(kind)].name
                                  : "unknown";
}

bool IsByzantine(FaultKind kind) {
  return kind < FaultKind::kCount &&
         kFaultKindRows[static_cast<size_t>(kind)].adversary_bits != 0;
}

bool FaultSchedule::Validate(int node_count, std::string* error) const {
  for (const FaultEvent& event : events) {
    if (event.at < 0) {
      return EventError(event, "negative onset time", error);
    }
    if (event.until >= 0 && event.until == event.at) {
      return EventError(event, "zero-duration window", error);
    }
    if (event.until >= 0 && event.until < event.at) {
      return EventError(event, "heal time must be after onset", error);
    }
    const auto check_node = [&](int node) {
      if (node < 0) {
        return EventError(event, "missing node index", error);
      }
      if (node_count >= 0 && node >= node_count) {
        return EventError(
            event,
            StrFormat("unknown host: node %d of a %d-node deployment", node,
                      node_count),
            error);
      }
      return true;
    };
    switch (event.kind) {
      case FaultKind::kCrash:
        if (!check_node(event.node)) {
          return false;
        }
        break;
      case FaultKind::kStraggler:
        if (!check_node(event.node)) {
          return false;
        }
        if (!(event.cpu_factor > 0.0 && event.cpu_factor <= 1.0)) {
          return EventError(event, "cpu_factor must be in (0, 1]", error);
        }
        break;
      case FaultKind::kPartition:
        if (!event.by_region) {
          if (event.nodes.empty()) {
            return EventError(event, "empty node set", error);
          }
          for (const int node : event.nodes) {
            if (!check_node(node)) {
              return false;
            }
          }
        }
        break;
      case FaultKind::kLoss:
        if (!(event.loss_rate >= 0.0 && event.loss_rate <= 1.0)) {
          return EventError(event, "loss rate must be in [0, 1]", error);
        }
        break;
      case FaultKind::kDelaySpike:
        if (event.extra_delay < 0) {
          return EventError(event, "negative extra delay", error);
        }
        break;
      case FaultKind::kEquivocate:
      case FaultKind::kDoubleVote:
      case FaultKind::kWithholdVotes:
      case FaultKind::kCensor:
      case FaultKind::kLazyProposer: {
        const bool has_nodes = !event.nodes.empty();
        const bool has_fraction = event.fraction != 0.0;
        if (has_nodes == has_fraction) {
          return EventError(
              event, "give exactly one of an explicit node set or a fraction",
              error);
        }
        if (has_fraction &&
            !(event.fraction > 0.0 && event.fraction < 1.0)) {
          return EventError(event, "fraction must be in (0, 1)", error);
        }
        for (const int node : event.nodes) {
          if (!check_node(node)) {
            return false;
          }
        }
        if (event.kind == FaultKind::kCensor) {
          if (event.censored_signers.empty()) {
            return EventError(event, "empty censored signer set", error);
          }
          for (const int signer : event.censored_signers) {
            if (signer < 0) {
              return EventError(event, "negative censored signer id", error);
            }
          }
        }
        break;
      }
      case FaultKind::kCount:
        return EventError(event, "invalid fault kind", error);
    }
  }
  for (size_t i = 0; i < events.size(); ++i) {
    for (size_t j = i + 1; j < events.size(); ++j) {
      const FaultEvent& a = events[i];
      const FaultEvent& b = events[j];
      if (a.kind == b.kind && SameScope(a, b) && Overlaps(a, b)) {
        return EventError(
            b,
            StrFormat("overlaps an earlier %s window on the same scope",
                      FaultKindName(a.kind)),
            error);
      }
    }
  }
  return true;
}

std::vector<SimTime> FaultSchedule::HealTimes() const {
  std::vector<SimTime> heals;
  for (const FaultEvent& event : events) {
    if (event.until >= 0) {
      heals.push_back(event.until);
    }
  }
  std::sort(heals.begin(), heals.end());
  return heals;
}

FaultScheduleBuilder& FaultScheduleBuilder::Crash(int node, SimTime at,
                                                  SimTime restart) {
  FaultEvent event;
  event.kind = FaultKind::kCrash;
  event.node = node;
  event.at = at;
  event.until = restart;
  schedule_.events.push_back(std::move(event));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::Partition(std::vector<int> nodes,
                                                      SimTime from, SimTime to) {
  FaultEvent event;
  event.kind = FaultKind::kPartition;
  event.nodes = std::move(nodes);
  event.at = from;
  event.until = to;
  schedule_.events.push_back(std::move(event));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::Loss(double rate, SimTime from,
                                                 SimTime to) {
  FaultEvent event;
  event.kind = FaultKind::kLoss;
  event.loss_rate = rate;
  event.at = from;
  event.until = to;
  schedule_.events.push_back(std::move(event));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::DelaySpike(SimDuration extra,
                                                       SimTime from, SimTime to) {
  FaultEvent event;
  event.kind = FaultKind::kDelaySpike;
  event.extra_delay = extra;
  event.at = from;
  event.until = to;
  schedule_.events.push_back(std::move(event));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::Straggler(int node, double cpu_factor,
                                                      SimTime from, SimTime to) {
  FaultEvent event;
  event.kind = FaultKind::kStraggler;
  event.node = node;
  event.cpu_factor = cpu_factor;
  event.at = from;
  event.until = to;
  schedule_.events.push_back(std::move(event));
  return *this;
}

namespace {

FaultEvent ByzantineEvent(FaultKind kind, std::vector<int> nodes,
                          double fraction, SimTime from, SimTime to) {
  FaultEvent event;
  event.kind = kind;
  event.nodes = std::move(nodes);
  event.fraction = fraction;
  event.at = from;
  event.until = to;
  return event;
}

}  // namespace

FaultScheduleBuilder& FaultScheduleBuilder::Equivocate(std::vector<int> nodes,
                                                       SimTime from, SimTime to) {
  schedule_.events.push_back(
      ByzantineEvent(FaultKind::kEquivocate, std::move(nodes), 0, from, to));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::EquivocateFraction(double fraction,
                                                               SimTime from,
                                                               SimTime to) {
  schedule_.events.push_back(
      ByzantineEvent(FaultKind::kEquivocate, {}, fraction, from, to));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::DoubleVoteFraction(double fraction,
                                                               SimTime from,
                                                               SimTime to) {
  schedule_.events.push_back(
      ByzantineEvent(FaultKind::kDoubleVote, {}, fraction, from, to));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::WithholdVotes(std::vector<int> nodes,
                                                          SimTime from,
                                                          SimTime to) {
  schedule_.events.push_back(
      ByzantineEvent(FaultKind::kWithholdVotes, std::move(nodes), 0, from, to));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::WithholdVotesFraction(
    double fraction, SimTime from, SimTime to) {
  schedule_.events.push_back(
      ByzantineEvent(FaultKind::kWithholdVotes, {}, fraction, from, to));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::Censor(std::vector<int> nodes,
                                                   std::vector<int> signers,
                                                   SimTime from, SimTime to) {
  FaultEvent event =
      ByzantineEvent(FaultKind::kCensor, std::move(nodes), 0, from, to);
  event.censored_signers = std::move(signers);
  schedule_.events.push_back(std::move(event));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::CensorFraction(
    double fraction, std::vector<int> signers, SimTime from, SimTime to) {
  FaultEvent event =
      ByzantineEvent(FaultKind::kCensor, {}, fraction, from, to);
  event.censored_signers = std::move(signers);
  schedule_.events.push_back(std::move(event));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::LazyProposer(std::vector<int> nodes,
                                                         SimTime from,
                                                         SimTime to) {
  schedule_.events.push_back(
      ByzantineEvent(FaultKind::kLazyProposer, std::move(nodes), 0, from, to));
  return *this;
}

FaultScheduleBuilder& FaultScheduleBuilder::LazyProposerFraction(double fraction,
                                                                 SimTime from,
                                                                 SimTime to) {
  schedule_.events.push_back(
      ByzantineEvent(FaultKind::kLazyProposer, {}, fraction, from, to));
  return *this;
}

}  // namespace diablo
