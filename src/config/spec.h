// The benchmark workload specification of §4: let-bound sample sets
// (!location / !endpoint / !account / !contract), workload groups mapping
// clients to endpoints, interaction behaviors and load ramps.
#ifndef SRC_CONFIG_SPEC_H_
#define SRC_CONFIG_SPEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/config/yaml.h"
#include "src/fault/schedule.h"
#include "src/net/region.h"
#include "src/workload/trace.h"

namespace diablo {

struct LoadPoint {
  double at_seconds = 0;
  double tps = 0;  // per client; 0 ends the workload
};

struct ClientBehavior {
  // "invoke" (DApp call) or "transfer" (native).
  std::string interaction = "transfer";
  std::string contract;             // registry key, e.g. "dota"
  std::string function;             // e.g. "update"
  std::vector<int64_t> args;        // parsed from "update(1, 1)"
  int accounts = 0;                 // size of the bound !account set
  std::vector<LoadPoint> load;      // ramp, sorted by at_seconds

  // The per-second submission trace `clients` clients following `load`:
  // each point's rate times `clients`, held until the next point.
  Trace Ramp(int clients) const;
};

struct WorkloadGroup {
  int clients = 1;                       // "number" of worker threads, >= 1
  std::vector<Region> locations;         // secondary locations (AWS zone tags)
  std::vector<std::string> endpoints;    // ".*" (every node) or node indices
  std::vector<ClientBehavior> behaviors;
};

struct WorkloadSpec {
  std::vector<WorkloadGroup> groups;

  // Fault schedule from the optional top-level `faults:` list; structurally
  // validated at parse time (host indices are checked later, against the
  // actual deployment).
  FaultSchedule faults;

  // Total accounts referenced by any behavior; 0 when none binds a set.
  int TotalAccounts() const;
};

struct SpecResult {
  bool ok = false;
  std::string error;
  WorkloadSpec spec;
};

// Parses the YAML text of a workload configuration file.
SpecResult ParseWorkloadSpec(std::string_view yaml_text);

// Parses a function reference of the form "update(1, 1)" or "add".
bool ParseFunctionRef(std::string_view text, std::string* name,
                      std::vector<int64_t>* args);

}  // namespace diablo

#endif  // SRC_CONFIG_SPEC_H_
