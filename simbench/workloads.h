// The benchmark's workloads: each is a fixed set of simulator cells run to
// completion (a closed batch). README.md records why each was chosen.
#ifndef SIMBENCH_WORKLOADS_H_
#define SIMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/interface.h"
#include "src/core/primary.h"
#include "src/fault/schedule.h"

namespace simbench {

// One cell: the arguments of one call to a user entry point.
struct CellSpec {
  enum class Kind { kDapp, kNative, kFault };
  Kind kind = Kind::kNative;
  std::string label;
  std::string chain;
  std::string deployment;
  std::string dapp;  // kDapp
  double tps = 0;    // kNative, kFault
  int seconds = 0;   // kNative, kFault
  diablo::FaultSchedule faults;  // kFault
  diablo::RetryPolicy retry;     // kFault
  uint64_t seed = 1;
  double scale = 1.0;
};

struct Workload {
  std::string name;
  int jobs = 1;  // ParallelRunner workers
  std::vector<CellSpec> cells;
};

// Builds workload `name` with every cell seeded from `seed`. `tiny` shrinks
// each cell to a smoke-test length. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny, Workload* out);

// Runs the cell through its user entry point (RunDappBenchmark,
// RunNativeBenchmark or RunFaultBenchmark).
diablo::RunResult RunCell(const CellSpec& spec);

}  // namespace simbench

#endif  // SIMBENCH_WORKLOADS_H_
