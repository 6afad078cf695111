#include "src/config/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/support/strings.h"

namespace diablo {
namespace {

std::vector<std::string> StringList(const YamlNode& node) {
  std::vector<std::string> out;
  if (node.IsList()) {
    for (const YamlNode& item : node.items) {
      out.push_back(item.scalar);
    }
  } else if (node.IsScalar()) {
    out.push_back(node.scalar);
  }
  return out;
}

bool ParseBehavior(const YamlNode& node, ClientBehavior* behavior, std::string* error) {
  const YamlNode* interaction = node.Find("interaction");
  if (interaction == nullptr) {
    *error = "behavior missing 'interaction'";
    return false;
  }
  if (interaction->tag == "invoke") {
    behavior->interaction = "invoke";
    const YamlNode* contract = interaction->Find("contract");
    if (contract != nullptr) {
      // The contract sample set: { sample: !contract { name: "dota" } }.
      const YamlNode* sample = contract->Find("sample");
      if (sample != nullptr && sample->tag == "contract") {
        behavior->contract = sample->GetString("name", "");
      } else if (contract->IsScalar()) {
        behavior->contract = contract->scalar;
      }
    }
    const YamlNode* function = interaction->Find("function");
    if (function != nullptr) {
      if (!ParseFunctionRef(function->scalar, &behavior->function, &behavior->args)) {
        *error = "malformed function reference: " + function->scalar;
        return false;
      }
    }
    const YamlNode* from = interaction->Find("from");
    if (from != nullptr) {
      const YamlNode* sample = from->Find("sample");
      if (sample != nullptr && sample->tag == "account") {
        behavior->accounts = static_cast<int>(sample->GetInt("number", 0));
      }
    }
  } else if (interaction->tag == "transfer" || interaction->IsNull() ||
             interaction->IsScalar()) {
    behavior->interaction = "transfer";
    if (interaction->IsMap()) {
      behavior->transfer_amount = interaction->GetInt("amount", 1);
    }
  } else {
    *error = "unknown interaction tag: !" + interaction->tag;
    return false;
  }

  const YamlNode* load = node.Find("load");
  if (load == nullptr || !load->IsMap()) {
    *error = "behavior missing 'load' map";
    return false;
  }
  for (const auto& [key, value] : load->entries) {
    LoadPoint point;
    if (!ParseDouble(key, &point.at_seconds) || !value.AsDouble(&point.tps)) {
      *error = "malformed load point: " + key;
      return false;
    }
    // Times index the trace's seconds and rates size its arrivals, so both
    // must be finite and >= 0, and a time at most INT32_MAX seconds (the
    // CLI's --duration bound).
    if (!std::isfinite(point.at_seconds) || point.at_seconds < 0 ||
        point.at_seconds > INT32_MAX || !std::isfinite(point.tps) || point.tps < 0) {
      *error = StrFormat("load point %s: %s needs a time in [0, INT32_MAX] and a finite "
                         "rate >= 0 (line %d)",
                         key.c_str(), value.scalar.c_str(),
                         value.line > 0 ? value.line : load->line);
      return false;
    }
    behavior->load.push_back(point);
  }
  std::sort(behavior->load.begin(), behavior->load.end(),
            [](const LoadPoint& a, const LoadPoint& b) {
              return a.at_seconds < b.at_seconds;
            });
  return true;
}

// Reads a time field in float seconds. Required fields must be present;
// optional ones fall back (e.g. `to:` absent = window never closes).
bool FaultTime(const YamlNode& node, std::string_view key, bool required,
               SimTime fallback, SimTime* out, std::string* error) {
  const YamlNode* value = node.Find(key);
  if (value == nullptr) {
    if (required) {
      *error = StrFormat("fault missing '%s'", std::string(key).c_str());
      return false;
    }
    *out = fallback;
    return true;
  }
  double seconds = 0;
  if (!value->AsDouble(&seconds)) {
    *error = StrFormat("malformed fault time '%s': %s", std::string(key).c_str(),
                       value->scalar.c_str());
    return false;
  }
  *out = SecondsF(seconds);
  return true;
}

// Resolves a `between: [region-a, region-b]` scope. Absent = all pairs.
bool FaultPair(const YamlNode& node, bool* scoped, Region* a, Region* b,
               std::string* error) {
  const YamlNode* between = node.Find("between");
  *scoped = false;
  if (between == nullptr) {
    return true;
  }
  if (!between->IsList() || between->items.size() != 2) {
    *error = "fault 'between' must list exactly two regions";
    return false;
  }
  if (!ParseRegion(between->items[0].scalar, a) ||
      !ParseRegion(between->items[1].scalar, b)) {
    *error = "fault 'between' names an unknown region";
    return false;
  }
  *scoped = true;
  return true;
}

// Rejects keys a fault kind does not understand, pointing at the offending
// source line — a typo ("restat:") must fail loudly, not silently fall back
// to a default.
bool CheckFaultKeys(const std::string& kind, const YamlNode& body,
                    std::initializer_list<std::string_view> allowed,
                    std::string* error) {
  if (!body.IsMap()) {
    return true;
  }
  for (const auto& [key, value] : body.entries) {
    bool known = false;
    for (const std::string_view candidate : allowed) {
      known = known || key == candidate;
    }
    if (!known) {
      *error = StrFormat("%s fault has unknown key '%s' (line %d)",
                         kind.c_str(), key.c_str(),
                         value.line > 0 ? value.line : body.line);
      return false;
    }
  }
  return true;
}

// Byzantine adversary scope: an explicit `nodes:` list or a `fraction:` of
// the deployment (the injector resolves the fraction deterministically).
bool FaultAdversaries(const std::string& kind, const YamlNode& body,
                      FaultEvent* event, std::string* error) {
  const YamlNode* nodes = body.Find("nodes");
  const YamlNode* fraction = body.Find("fraction");
  if (nodes != nullptr) {
    if (!nodes->IsList()) {
      *error = kind + " fault 'nodes' must be a list";
      return false;
    }
    for (const YamlNode& item : nodes->items) {
      int64_t index = -1;
      if (!item.AsInt64(&index)) {
        *error = "malformed " + kind + " node index: " + item.scalar;
        return false;
      }
      event->nodes.push_back(static_cast<int>(index));
    }
  }
  if (fraction != nullptr && !fraction->AsDouble(&event->fraction)) {
    *error = "malformed " + kind + " 'fraction': " + fraction->scalar;
    return false;
  }
  if ((nodes == nullptr) == (fraction == nullptr)) {
    *error = kind + " fault needs exactly one of 'nodes' or 'fraction'";
    return false;
  }
  return true;
}

// One `- kind: { ... }` entry of the top-level `faults:` list.
bool ParseFaultEntry(const std::string& kind, const YamlNode& body,
                     FaultSchedule* schedule, std::string* error) {
  FaultEvent event;
  if (kind == "crash") {
    event.kind = FaultKind::kCrash;
    if (!CheckFaultKeys(kind, body, {"node", "at", "restart"}, error)) {
      return false;
    }
    int64_t index = -1;
    const YamlNode* node = body.Find("node");
    if (node == nullptr || !node->AsInt64(&index)) {
      *error = "crash fault missing 'node'";
      return false;
    }
    event.node = static_cast<int>(index);
    if (!FaultTime(body, "at", true, 0, &event.at, error) ||
        !FaultTime(body, "restart", false, -1, &event.until, error)) {
      return false;
    }
  } else if (kind == "partition") {
    event.kind = FaultKind::kPartition;
    if (!CheckFaultKeys(kind, body, {"nodes", "region", "from", "to"}, error)) {
      return false;
    }
    const YamlNode* region = body.Find("region");
    const YamlNode* nodes = body.Find("nodes");
    if (region != nullptr) {
      event.by_region = true;
      if (!ParseRegion(region->scalar, &event.region)) {
        *error = "partition names an unknown region: " + region->scalar;
        return false;
      }
    } else if (nodes != nullptr && nodes->IsList()) {
      for (const YamlNode& item : nodes->items) {
        int64_t index = -1;
        if (!item.AsInt64(&index)) {
          *error = "malformed partition node index: " + item.scalar;
          return false;
        }
        event.nodes.push_back(static_cast<int>(index));
      }
    } else {
      *error = "partition fault needs 'nodes' or 'region'";
      return false;
    }
    if (!FaultTime(body, "from", true, 0, &event.at, error) ||
        !FaultTime(body, "to", false, -1, &event.until, error)) {
      return false;
    }
  } else if (kind == "loss") {
    event.kind = FaultKind::kLoss;
    if (!CheckFaultKeys(kind, body, {"rate", "between", "from", "to"}, error)) {
      return false;
    }
    const YamlNode* rate = body.Find("rate");
    if (rate == nullptr || !rate->AsDouble(&event.loss_rate)) {
      *error = "loss fault missing 'rate'";
      return false;
    }
    if (!FaultPair(body, &event.region_pair, &event.pair_a, &event.pair_b,
                   error) ||
        !FaultTime(body, "from", true, 0, &event.at, error) ||
        !FaultTime(body, "to", false, -1, &event.until, error)) {
      return false;
    }
  } else if (kind == "delay") {
    event.kind = FaultKind::kDelaySpike;
    if (!CheckFaultKeys(kind, body, {"extra_ms", "between", "from", "to"},
                        error)) {
      return false;
    }
    const YamlNode* extra = body.Find("extra_ms");
    double extra_ms = 0;
    if (extra == nullptr || !extra->AsDouble(&extra_ms)) {
      *error = "delay fault missing 'extra_ms'";
      return false;
    }
    event.extra_delay = SecondsF(extra_ms / 1000.0);
    if (!FaultPair(body, &event.region_pair, &event.pair_a, &event.pair_b,
                   error) ||
        !FaultTime(body, "from", true, 0, &event.at, error) ||
        !FaultTime(body, "to", false, -1, &event.until, error)) {
      return false;
    }
  } else if (kind == "straggler") {
    event.kind = FaultKind::kStraggler;
    if (!CheckFaultKeys(kind, body, {"node", "cpu_factor", "from", "to"},
                        error)) {
      return false;
    }
    int64_t index = -1;
    const YamlNode* node = body.Find("node");
    if (node == nullptr || !node->AsInt64(&index)) {
      *error = "straggler fault missing 'node'";
      return false;
    }
    event.node = static_cast<int>(index);
    const YamlNode* factor = body.Find("cpu_factor");
    if (factor == nullptr || !factor->AsDouble(&event.cpu_factor)) {
      *error = "straggler fault missing 'cpu_factor'";
      return false;
    }
    if (!FaultTime(body, "from", true, 0, &event.at, error) ||
        !FaultTime(body, "to", false, -1, &event.until, error)) {
      return false;
    }
  } else if (kind == "equivocate" || kind == "double-vote" ||
             kind == "withhold" || kind == "lazy") {
    event.kind = kind == "equivocate"    ? FaultKind::kEquivocate
                 : kind == "double-vote" ? FaultKind::kDoubleVote
                 : kind == "withhold"    ? FaultKind::kWithholdVotes
                                         : FaultKind::kLazyProposer;
    if (!CheckFaultKeys(kind, body, {"nodes", "fraction", "from", "to"},
                        error) ||
        !FaultAdversaries(kind, body, &event, error) ||
        !FaultTime(body, "from", true, 0, &event.at, error) ||
        !FaultTime(body, "to", false, -1, &event.until, error)) {
      return false;
    }
  } else if (kind == "censor") {
    event.kind = FaultKind::kCensor;
    if (!CheckFaultKeys(kind, body,
                        {"nodes", "fraction", "signers", "from", "to"},
                        error) ||
        !FaultAdversaries(kind, body, &event, error)) {
      return false;
    }
    const YamlNode* signers = body.Find("signers");
    if (signers == nullptr || !signers->IsList()) {
      *error = "censor fault needs a 'signers' list";
      return false;
    }
    for (const YamlNode& item : signers->items) {
      int64_t signer = -1;
      if (!item.AsInt64(&signer)) {
        *error = "malformed censored signer id: " + item.scalar;
        return false;
      }
      event.censored_signers.push_back(static_cast<int>(signer));
    }
    if (!FaultTime(body, "from", true, 0, &event.at, error) ||
        !FaultTime(body, "to", false, -1, &event.until, error)) {
      return false;
    }
  } else {
    *error = StrFormat("unknown fault kind: %s (line %d)", kind.c_str(),
                       body.line);
    return false;
  }
  schedule->events.push_back(std::move(event));
  return true;
}

bool ParseFaults(const YamlNode& faults, FaultSchedule* schedule,
                 std::string* error) {
  if (!faults.IsList()) {
    *error = "'faults' must be a list";
    return false;
  }
  for (const YamlNode& item : faults.items) {
    if (!item.IsMap() || item.entries.size() != 1) {
      *error = "each fault must be a single '<kind>: {...}' entry";
      return false;
    }
    if (!ParseFaultEntry(item.entries[0].first, item.entries[0].second, schedule,
                         error)) {
      return false;
    }
  }
  // Structural validation now; host indices are re-checked against the real
  // deployment when the injector installs the schedule.
  return schedule->Validate(/*node_count=*/-1, error);
}

}  // namespace

bool ParseFunctionRef(std::string_view text, std::string* name,
                      std::vector<int64_t>* args) {
  name->clear();
  args->clear();
  const size_t open = text.find('(');
  if (open == std::string_view::npos) {
    *name = Trim(text);
    return !name->empty();
  }
  if (text.back() != ')') {
    return false;
  }
  *name = Trim(text.substr(0, open));
  const std::string_view inner = text.substr(open + 1, text.size() - open - 2);
  if (Trim(inner).empty()) {
    return !name->empty();
  }
  for (const std::string& part : Split(inner, ',')) {
    int64_t value = 0;
    if (!ParseInt64(part, &value)) {
      return false;
    }
    args->push_back(value);
  }
  return !name->empty();
}

int WorkloadSpec::TotalAccounts() const {
  int total = 0;
  for (const WorkloadGroup& group : groups) {
    for (const ClientBehavior& behavior : group.behaviors) {
      total = std::max(total, behavior.accounts);
    }
  }
  return total;
}

Trace WorkloadSpec::ToTrace() const {
  Trace trace;
  trace.name = "spec";
  for (const WorkloadGroup& group : groups) {
    for (const ClientBehavior& behavior : group.behaviors) {
      if (behavior.load.empty()) {
        continue;
      }
      const double end = behavior.load.back().at_seconds;
      if (trace.tps.size() < static_cast<size_t>(end)) {
        trace.tps.resize(static_cast<size_t>(end), 0.0);
      }
      for (size_t i = 0; i + 1 < behavior.load.size(); ++i) {
        const LoadPoint& from = behavior.load[i];
        const LoadPoint& to = behavior.load[i + 1];
        for (size_t s = static_cast<size_t>(from.at_seconds);
             s < static_cast<size_t>(to.at_seconds) && s < trace.tps.size(); ++s) {
          trace.tps[s] += from.tps * group.clients;
        }
      }
    }
  }
  return trace;
}

std::string WorkloadSpec::PrimaryContract() const {
  for (const WorkloadGroup& group : groups) {
    for (const ClientBehavior& behavior : group.behaviors) {
      if (behavior.interaction == "invoke" && !behavior.contract.empty()) {
        return behavior.contract;
      }
    }
  }
  return std::string();
}

SpecResult ParseWorkloadSpec(std::string_view yaml_text) {
  SpecResult result;
  const YamlResult yaml = ParseYaml(yaml_text);
  if (!yaml.ok) {
    result.error = yaml.error;
    return result;
  }
  const YamlNode* workloads = yaml.root.Find("workloads");
  if (workloads == nullptr || !workloads->IsList()) {
    result.error = "missing 'workloads' list";
    return result;
  }
  const YamlNode* faults = yaml.root.Find("faults");
  if (faults != nullptr &&
      !ParseFaults(*faults, &result.spec.faults, &result.error)) {
    return result;
  }
  for (const YamlNode& item : workloads->items) {
    WorkloadGroup group;
    group.clients = static_cast<int>(item.GetInt("number", 1));
    const YamlNode* client = item.Find("client");
    if (client == nullptr || !client->IsMap()) {
      result.error = "workload missing 'client'";
      return result;
    }
    const YamlNode* location = client->Find("location");
    if (location != nullptr) {
      const YamlNode* sample = location->Find("sample");
      group.locations = StringList(sample != nullptr ? *sample : *location);
    }
    const YamlNode* view = client->Find("view");
    if (view != nullptr) {
      const YamlNode* sample = view->Find("sample");
      group.endpoints = StringList(sample != nullptr ? *sample : *view);
    }
    const YamlNode* behaviors = client->Find("behavior");
    if (behaviors == nullptr || !behaviors->IsList()) {
      result.error = "client missing 'behavior' list";
      return result;
    }
    for (const YamlNode& entry : behaviors->items) {
      ClientBehavior behavior;
      if (!ParseBehavior(entry, &behavior, &result.error)) {
        return result;
      }
      group.behaviors.push_back(std::move(behavior));
    }
    result.spec.groups.push_back(std::move(group));
  }
  result.ok = true;
  return result;
}

}  // namespace diablo
