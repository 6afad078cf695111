#include "src/config/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "src/support/strings.h"

namespace diablo {
namespace {

// Fails on the first key of `map` that is not in `keys`, naming `what`, the
// key and its line: a typo ("form:", "lod:") must fail loudly, not drop what
// it meant silently.
bool OnlyKeys(const YamlNode& map, std::span<const std::string_view> keys,
              const std::string& what, std::string* error) {
  for (const auto& [key, value] : map.entries) {
    if (key.empty() || std::find(keys.begin(), keys.end(), key) == keys.end()) {
      *error = StrFormat("%s has unknown key '%s' (line %d)", what.c_str(), key.c_str(),
                         value.line);
      return false;
    }
  }
  return true;
}

constexpr std::string_view kTopKeys[] = {"let", "workloads", "faults"};
constexpr std::string_view kWorkloadKeys[] = {"number", "client"};
constexpr std::string_view kClientKeys[] = {"location", "view", "behavior"};
constexpr std::string_view kBehaviorKeys[] = {"interaction", "load"};
constexpr std::string_view kInteractionKeys[] = {"from", "contract", "function"};

// A list's items, a scalar as a list of one, or nothing.
std::span<const YamlNode> Items(const YamlNode& node) {
  if (node.IsList()) {
    return node.items;
  }
  return node.IsScalar() ? std::span<const YamlNode>(&node, 1) : std::span<const YamlNode>();
}

bool ParseBehavior(const YamlNode& node, ClientBehavior* behavior, std::string* error) {
  if (!OnlyKeys(node, kBehaviorKeys, "behavior", error)) {
    return false;
  }
  const YamlNode* interaction = node.Find("interaction");
  if (interaction == nullptr) {
    *error = StrFormat("behavior missing 'interaction' (line %d)", node.line);
    return false;
  }
  if (!OnlyKeys(*interaction, kInteractionKeys, "interaction", error)) {
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
        *error = StrFormat("malformed function reference: %s (line %d)",
                           function->scalar.c_str(), function->line);
        return false;
      }
    }
  } else if (interaction->tag == "transfer" || interaction->IsNull() ||
             interaction->IsScalar()) {
    behavior->interaction = "transfer";
  } else {
    *error = StrFormat("unknown interaction tag: !%s (line %d)", interaction->tag.c_str(),
                       interaction->line);
    return false;
  }
  // The signing account set, under either interaction:
  // { sample: !account { number: N } }.
  const YamlNode* from = interaction->Find("from");
  if (from != nullptr) {
    const YamlNode* sample = from->Find("sample");
    if (sample != nullptr && sample->tag == "account") {
      behavior->accounts = static_cast<int>(sample->GetInt("number", 0));
    }
  }

  const YamlNode* load = node.Find("load");
  if (load == nullptr || !load->IsMap()) {
    *error = StrFormat("behavior missing 'load' map (line %d)",
                       (load != nullptr ? *load : node).line);
    return false;
  }
  for (const auto& [key, value] : load->entries) {
    LoadPoint point;
    if (!ParseDouble(key, &point.at_seconds) || !value.AsDouble(&point.tps)) {
      *error = StrFormat("malformed load point: %s (line %d)", key.c_str(), value.line);
      return false;
    }
    // Times index the trace's seconds and rates size its arrivals, so both
    // must be finite and >= 0, and a time at most INT32_MAX seconds (the
    // CLI's --duration bound).
    if (!std::isfinite(point.at_seconds) || point.at_seconds < 0 ||
        point.at_seconds > INT32_MAX || !std::isfinite(point.tps) || point.tps < 0) {
      *error = StrFormat("load point %s: %s needs a time in [0, INT32_MAX] and a finite "
                         "rate >= 0 (line %d)",
                         key.c_str(), value.scalar.c_str(), value.line);
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

// A fault value as written, for diagnostics: lists as [a, b].
std::string ValueText(const YamlNode& node) {
  if (!node.IsList()) {
    return node.IsMap() ? "{...}" : node.scalar;
  }
  std::string text;
  for (const YamlNode& item : node.items) {
    text += (text.empty() ? "" : ", ") + ValueText(item);
  }
  return "[" + text + "]";
}

// Reads one key of a `faults:` entry into the FaultEvent field it names.
// There is one reader per key, whichever kind uses it.
bool ReadFaultKey(const char* kind, std::string_view key, const YamlNode& value,
                  FaultEvent* event, std::string* error) {
  const auto fail = [&](const char* want) {
    *error = StrFormat("%s fault '%s' = %s: %s (line %d)", kind,
                       std::string(key).c_str(), ValueText(value).c_str(), want,
                       value.line);
    return false;
  };
  // Node and signer indices are ints; a wider value must not wrap onto a
  // real node (2^32 would crash node 0).
  const auto index = [](const YamlNode& node, int* out) {
    int64_t parsed = 0;
    if (!node.AsInt64(&parsed) || parsed < 0 || parsed > INT32_MAX) {
      return false;
    }
    *out = static_cast<int>(parsed);
    return true;
  };
  const auto index_list = [&](std::vector<int>* out) {
    if (!value.IsList()) {
      return false;
    }
    for (const YamlNode& item : value.items) {
      if (!index(item, &out->emplace_back())) {
        return false;
      }
    }
    return true;
  };
  const auto finite = [&](double* out) {
    return value.AsDouble(out) && std::isfinite(*out);
  };
  if (key == "node") {
    return index(value, &event->node) || fail("want a node index in [0, INT32_MAX]");
  }
  if (key == "nodes") {
    return index_list(&event->nodes) ||
           fail("want a list of node indices in [0, INT32_MAX]");
  }
  if (key == "signers") {
    return index_list(&event->censored_signers) ||
           fail("want a list of signer ids in [0, INT32_MAX]");
  }
  if (key == "region") {
    event->by_region = true;
    return ParseRegion(value.scalar, &event->region) || fail("unknown region");
  }
  if (key == "between") {
    event->region_pair = true;
    return (value.IsList() && value.items.size() == 2 &&
            ParseRegion(value.items[0].scalar, &event->pair_a) &&
            ParseRegion(value.items[1].scalar, &event->pair_b)) ||
           fail("want a list of two known regions");
  }
  if (key == "rate" || key == "cpu_factor" || key == "fraction") {
    double* field = key == "rate"         ? &event->loss_rate
                    : key == "cpu_factor" ? &event->cpu_factor
                                          : &event->fraction;
    return finite(field) || fail("want a finite number");
  }
  // Delays and times stay within the bound load points and --duration use.
  double amount = 0;
  const bool in_range = finite(&amount) && amount >= 0 && amount <= INT32_MAX;
  if (key == "extra_ms") {
    if (!in_range) {
      return fail("want milliseconds in [0, INT32_MAX]");
    }
    event->extra_delay = SecondsF(amount / 1000.0);
    return true;
  }
  // The onset key (at, from) or the heal key (restart, to).
  if (!in_range) {
    return fail("malformed fault time, want seconds in [0, INT32_MAX]");
  }
  (key == "at" || key == "from" ? event->at : event->until) = SecondsF(amount);
  return true;
}

// One `- kind: { ... }` entry of the top-level `faults:` list, read through
// its row of kFaultKindRows.
bool ParseFaultEntry(const std::string& kind, const YamlNode& body,
                     FaultSchedule* schedule, std::string* error) {
  const auto row =
      std::find_if(kFaultKindRows.begin(), kFaultKindRows.end(),
                   [&](const FaultKindRow& candidate) { return kind == candidate.name; });
  if (row == kFaultKindRows.end()) {
    *error = StrFormat("unknown fault kind: %s (line %d)", kind.c_str(),
                       body.line);
    return false;
  }
  const auto listed = [](const auto& keys, std::string_view key) {
    return !key.empty() && std::find(keys.begin(), keys.end(), key) != keys.end();
  };
  if (!OnlyKeys(body, row->keys, std::string(row->name) + " fault", error)) {
    return false;
  }
  FaultEvent event;
  event.kind = row->kind;
  event.line = body.line;
  for (const std::string_view key : row->keys) {
    const YamlNode* value = key.empty() ? nullptr : body.Find(key);
    if (value == nullptr) {
      if (listed(row->required, key)) {
        *error = StrFormat("%s fault missing '%s' (line %d)", row->name,
                           std::string(key).c_str(), body.line);
        return false;
      }
      continue;
    }
    if (!ReadFaultKey(row->name, key, *value, &event, error)) {
      return false;
    }
  }
  const auto& [first, second] = row->one_of;
  if (!first.empty() && (body.Find(first) == nullptr) == (body.Find(second) == nullptr)) {
    *error = StrFormat("%s fault needs exactly one of '%s' or '%s' (line %d)",
                       row->name, std::string(first).c_str(),
                       std::string(second).c_str(), body.line);
    return false;
  }
  schedule->events.push_back(std::move(event));
  return true;
}

bool ParseFaults(const YamlNode& faults, FaultSchedule* schedule,
                 std::string* error) {
  if (!faults.IsList()) {
    *error = StrFormat("'faults' must be a list (line %d)", faults.line);
    return false;
  }
  for (const YamlNode& item : faults.items) {
    if (!item.IsMap() || item.entries.size() != 1) {
      *error = StrFormat("each fault must be a single '<kind>: {...}' entry (line %d)",
                         item.line);
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

// A workload's `number` and its client's `location` and `view`: a client
// count >= 1, regions ParseRegion knows, and ".*" or node indices (checked
// against the deployment when the run builds its clients).
bool ParseClients(const YamlNode& workload, const YamlNode& client, WorkloadGroup* group,
                  std::string* error) {
  const auto fail = [&](const char* what, const YamlNode& value, const char* want) {
    *error = StrFormat("%s = %s: %s (line %d)", what, ValueText(value).c_str(), want,
                       value.line);
    return false;
  };
  const YamlNode* number = workload.Find("number");
  int64_t clients = 1;
  if (number != nullptr &&
      (!number->AsInt64(&clients) || clients < 1 || clients > INT32_MAX)) {
    return fail("workload 'number'", *number, "want a client count in [1, INT32_MAX]");
  }
  group->clients = static_cast<int>(clients);
  const auto samples = [&](const char* key) {
    const YamlNode* node = client.Find(key);
    const YamlNode* sample = node != nullptr ? node->Find("sample") : nullptr;
    return node == nullptr ? std::span<const YamlNode>()
                           : Items(sample != nullptr ? *sample : *node);
  };
  for (const YamlNode& tag : samples("location")) {
    Region region;
    if (!ParseRegion(tag.scalar, &region)) {
      return fail("client 'location'", tag, "unknown region");
    }
    group->locations.push_back(region);
  }
  for (const YamlNode& pattern : samples("view")) {
    int64_t index = 0;
    if (pattern.scalar != ".*" &&
        (!pattern.AsInt64(&index) || index < 0 || index > INT32_MAX)) {
      return fail("client 'view'", pattern, "want \".*\" or a node index in [0, INT32_MAX]");
    }
    group->endpoints.push_back(pattern.scalar);
  }
  return true;
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

Trace ClientBehavior::Ramp(int clients) const {
  Trace trace;
  trace.name = "spec";
  if (load.empty()) {
    return trace;
  }
  trace.tps.assign(static_cast<size_t>(load.back().at_seconds), 0.0);
  for (size_t i = 0; i + 1 < load.size(); ++i) {
    for (size_t s = static_cast<size_t>(load[i].at_seconds);
         s < static_cast<size_t>(load[i + 1].at_seconds) && s < trace.tps.size(); ++s) {
      trace.tps[s] = load[i].tps * clients;
    }
  }
  return trace;
}

SpecResult ParseWorkloadSpec(std::string_view yaml_text) {
  SpecResult result;
  const YamlResult yaml = ParseYaml(yaml_text);
  if (!yaml.ok) {
    result.error = yaml.error;
    return result;
  }
  if (!OnlyKeys(yaml.root, kTopKeys, "workload file", &result.error)) {
    return result;
  }
  const YamlNode* workloads = yaml.root.Find("workloads");
  if (workloads == nullptr || !workloads->IsList()) {
    result.error = StrFormat("missing 'workloads' list (line %d)",
                             (workloads != nullptr ? *workloads : yaml.root).line);
    return result;
  }
  // A spec that runs nothing is a mistake, not an all-zero benchmark.
  if (workloads->items.empty()) {
    result.error = StrFormat("'workloads' list is empty (line %d)", workloads->line);
    return result;
  }
  const YamlNode* faults = yaml.root.Find("faults");
  if (faults != nullptr &&
      !ParseFaults(*faults, &result.spec.faults, &result.error)) {
    return result;
  }
  for (const YamlNode& item : workloads->items) {
    if (!OnlyKeys(item, kWorkloadKeys, "workload", &result.error)) {
      return result;
    }
    WorkloadGroup group;
    const YamlNode* client = item.Find("client");
    if (client == nullptr || !client->IsMap()) {
      result.error = StrFormat("workload missing 'client' (line %d)",
                               (client != nullptr ? *client : item).line);
      return result;
    }
    if (!OnlyKeys(*client, kClientKeys, "client", &result.error)) {
      return result;
    }
    const YamlNode* behaviors = client->Find("behavior");
    if (behaviors == nullptr || !behaviors->IsList()) {
      result.error = StrFormat("client missing 'behavior' list (line %d)",
                               (behaviors != nullptr ? *behaviors : *client).line);
      return result;
    }
    if (behaviors->items.empty()) {
      result.error = StrFormat("client 'behavior' list is empty (line %d)", behaviors->line);
      return result;
    }
    for (const YamlNode& entry : behaviors->items) {
      ClientBehavior behavior;
      if (!ParseBehavior(entry, &behavior, &result.error)) {
        return result;
      }
      group.behaviors.push_back(std::move(behavior));
    }
    if (!ParseClients(item, *client, &group, &result.error)) {
      return result;
    }
    result.spec.groups.push_back(std::move(group));
  }
  result.ok = true;
  return result;
}

}  // namespace diablo
