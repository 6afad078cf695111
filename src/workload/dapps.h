// Binding between the §3 DApps and their workloads: which contract and
// functions a trace invokes, with what arguments and payload sizes.
#ifndef SRC_WORKLOAD_DAPPS_H_
#define SRC_WORKLOAD_DAPPS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/workload/trace.h"

namespace diablo {

struct Invocation {
  std::string function;
  std::vector<int64_t> args;
};

// Which of a workload's distinct functions each call uses. The exchange mix
// weights five buy orders; every other workload calls one function. Built
// once per workload, so mapping a call is arithmetic, with no string
// compare and no allocation.
struct FunctionMix {
  // Calls follow the weighted exchange mix; otherwise all use function 0.
  bool exchange = false;

  // How many distinct functions the calls use.
  size_t count() const;
  // The i-th call's function, as an index below count().
  size_t IndexFor(uint64_t i) const;
};

struct DappWorkload {
  std::string name;      // "exchange", "dota", "fifa", "uber", "youtube" or a stock
  std::string contract;  // contract registry key; empty = native transfers
  Trace trace;
  // When set, every transaction performs exactly this invocation
  // (workload-spec-driven runs).
  std::optional<Invocation> fixed;

  // How this workload's calls spread over its functions.
  FunctionMix Functions() const;

  // The invocation the i-th transaction performs. Deterministic in i; it
  // calls the function Functions().IndexFor(i) names.
  Invocation InvocationFor(uint64_t i) const;
};

// Lookup by name, case-insensitive: the five default DIABLO DApps, Table 2
// order: exchange (also "nasdaq" and "gafam"), dota, fifa, uber, youtube;
// or one NASDAQ stock's opening burst (§6.5) on the exchange contract:
// google, amazon, facebook, microsoft, apple. Throws std::invalid_argument
// on any other name.
DappWorkload GetDappWorkload(std::string_view name);

const std::vector<std::string>& AllDappNames();

}  // namespace diablo

#endif  // SRC_WORKLOAD_DAPPS_H_
