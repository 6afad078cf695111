// The traced pass: rebuilds one cell from the same public calls
// Primary::RunStreams makes and times a span around each layer's calls. One
// Primary call cannot be split from outside, so this rebuild is how the
// benchmark sees per-layer cost; the caller fails the cell when the rebuild's
// report digest differs from the untraced run's, so the rebuild cannot
// quietly measure a different program.
#ifndef SIMBENCH_TRACED_CELL_H_
#define SIMBENCH_TRACED_CELL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "simbench/workloads.h"
#include "src/chain/node.h"
#include "src/core/primary.h"

namespace simbench {

// Names of the child spans of a cell, in the order the rebuild opens them.
// The layer is the name's prefix.
inline constexpr const char* kArrivalsSpan = "workload.arrivals";
inline constexpr const char* kBuildSpan = "chains.build";
inline constexpr const char* kInstallSpan = "fault.install";
inline constexpr const char* kEncodeSpan = "core.encode";
inline constexpr const char* kRunSpan = "sim.run";
inline constexpr const char* kReportSpan = "core.report";
inline constexpr const char* kTeardownSpan = "core.teardown";
// The spans that end before Simulation::RunUntil starts: the cell's set-up.
inline constexpr const char* kSetupSpans[] = {kArrivalsSpan, kBuildSpan, kInstallSpan,
                                              kEncodeSpan};

struct Span {
  std::string name;
  double start_s = 0;  // host seconds since process start
  double end_s = 0;
  int parent = -1;  // index into the cell's span list; -1 for the cell span
  int cell = 0;

  double seconds() const { return end_s - start_s; }
};

// Exact counts and memory read from the rebuilt cell's objects.
struct CellCounts {
  uint64_t txs = 0;
  uint64_t events = 0;
  uint64_t mempool_admitted = 0;
  uint64_t mempool_rejected = 0;
  uint64_t mempool_evictions = 0;
  diablo::ChainStats chain;
  uint64_t client_retries = 0;
  uint64_t client_aborts = 0;
  uint64_t fault_windows = 0;  // fault onsets the injector armed
  // Byzantine evidence: equivocations, double votes, withheld votes,
  // censored transactions and lazy proposals.
  uint64_t fault_evidence = 0;
  uint64_t net_sends = 0;
  uint64_t net_unreachable_drops = 0;
  uint64_t net_loss_drops = 0;
  uint64_t behind_schedule = 0;
  std::string consensus;    // ChainParams::consensus_name
  bool dense_votes = true;  // dense delay matrix (vs streamed O(n) delays)
  // Allocator bytes in use gained across the encode / run spans.
  int64_t encode_heap_bytes = 0;
  int64_t run_heap_bytes = 0;
};

struct TracedCell {
  std::vector<Span> spans;  // spans[0] is the cell span
  CellCounts counts;

  double SpanSeconds(const char* name) const;
  double SetupSeconds() const;
};

// Rebuilds and runs `spec` with spans around each layer. With `setup_only`
// the cell is torn down right after Encode/Assign, before anything runs.
diablo::RunResult RunTracedCell(const CellSpec& spec, int cell_index, bool setup_only,
                                TracedCell* out);

// Host seconds since process start (steady clock).
double NowSeconds();

}  // namespace simbench

#endif  // SIMBENCH_TRACED_CELL_H_
