// The process's peak memory, for the runner's and simbench's reports.
//
// Everything else a run counts belongs to its cell: RunResult carries it
// and ParallelRunner sums it (src/core/parallel_runner.h).
#ifndef SRC_SUPPORT_PROFILE_H_
#define SRC_SUPPORT_PROFILE_H_

#include <cstdint>

namespace diablo::profile {

// Peak resident set size of this process in bytes (getrusage), 0 when the
// platform cannot report it.
int64_t PeakRssBytes();

}  // namespace diablo::profile

#endif  // SRC_SUPPORT_PROFILE_H_
