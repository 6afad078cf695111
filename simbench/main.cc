// simbench: the simulator's host-cost benchmark (see README.md).
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>] [--tiny]
//
// Repeats the workload's closed batch of cells, untraced, through
// ParallelRunner for about --seconds, interleaved with set-up-only rebuilds
// and a fixed kernel that measures the host's speed, then makes one traced
// pass on a single job. Prints per-cell report digests, every metric
// with its unit, per-layer self time and span coverage, and as the last line
// one JSON object whose metrics are the end-to-end set (--trace 0) or the
// per-layer set (--trace 1). Spans and the full results land in --out.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simbench/traced_cell.h"
#include "simbench/workloads.h"
#include "src/core/parallel_runner.h"
#include "src/support/profile.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace simbench {
namespace {

using diablo::RunResult;

// Below this many rounds a median is not worth reporting, whatever --seconds
// says.
constexpr int kMinRounds = 3;
// A cell's child spans must cover at least this share of the cell span.
constexpr double kMinCoverage = 0.95;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // required
  int trace = 0;
  bool tiny = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "simbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    int64_t number = 0;
    double real = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && diablo::ParseInt64(value, &number) && number >= 0) {
      args->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && diablo::ParseDouble(value, &real) && real > 0) {
      args->seconds = real;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "simbench: bad argument %s %s\n", flag.c_str(), value.c_str());
      return false;
    }
  }
  if (args->workload.empty()) {
    std::fprintf(stderr, "simbench: --workload is required\n");
    return false;
  }
  if (args->seconds <= 0) {
    std::fprintf(stderr, "simbench: --seconds is required\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------- digests

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  return hash;
}

// Hash of the cell's simulated outcome: the report text plus why it failed
// or was absent, if it did.
std::string Digest(const RunResult& result) {
  const std::string text = result.report.ToText() + "\nfailure: " + result.failure_reason +
                           (result.unsupported ? "\nunsupported" : "");
  return diablo::StrFormat("%016" PRIx64, Fnv1a(text));
}

// Digest plus the exact counts a RunResult carries, for determinism checks.
std::string Fingerprint(const RunResult& r) {
  const diablo::ChainStats& c = r.chain_stats;
  return diablo::StrFormat(
      "%s events=%" PRIu64 " blocks=%" PRIu64 " empty=%" PRIu64 " views=%" PRIu64
      " committed=%" PRIu64 " dropped=%" PRIu64 " expired=%" PRIu64 " abandoned=%" PRIu64
      " behind=%zu",
      Digest(r).c_str(), r.events_executed, c.blocks_produced, c.empty_blocks,
      c.view_changes, c.txs_committed, c.txs_dropped, c.txs_expired, c.blocks_abandoned,
      r.behind_schedule);
}

// ---------------------------------------------------------------- host speed

// A shared VM's speed drifts by tens of percent over minutes, the same way
// for the simulator and for any other code. So each round also times a
// fixed kernel, and wall_s and setup_s are reported as seconds on a host
// where that kernel takes kKernelReferenceS: a round's host seconds times
// kKernelReferenceS / the round's kernel seconds. The raw host seconds are
// printed beside them. The reference is about the kernel's time on a
// 4-vCPU VM (GCC 12.2, RelWithDebInfo).
constexpr double kKernelReferenceS = 0.15;

// A fixed amount of work shaped like the simulator's hot loop: a binary
// heap of timestamps and random updates to a 16 MB table. The memory is
// allocated and touched once, so the timed part neither allocates nor
// faults pages. Its code and inputs never change, so its time moves only
// with how fast the host runs at the moment.
class Kernel {
 public:
  Kernel() : table_(kTableSize, 1) { heap_.reserve(kHeapSize + 1); }

  double Seconds() {
    const double start = NowSeconds();
    heap_.clear();
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table_[x & (kTableSize - 1)] += i;
      heap_.push_back(i + (x & 0xffff));
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      if (heap_.size() > kHeapSize) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        table_[heap_.back() & (kTableSize - 1)] ^= 1;
        heap_.pop_back();
      }
    }
    const double seconds = NowSeconds() - start;
    // Reads the table so the work cannot be optimised away.
    if (table_[x & (kTableSize - 1)] == 0) {
      std::fprintf(stderr, "simbench: kernel table slot is 0\n");
    }
    return seconds;
  }

 private:
  static constexpr uint32_t kSteps = 1u << 20;
  static constexpr size_t kHeapSize = 1u << 16;
  static constexpr size_t kTableSize = 1u << 22;
  std::vector<uint64_t> heap_;
  std::vector<uint32_t> table_;
};

// ---------------------------------------------------------------- passes

struct UntracedPass {
  double wall_s = 0;
  double busy_s = 0;  // sum of cell durations
  std::vector<RunResult> results;
  std::vector<std::string> errors;  // per cell; non-empty when it threw
};

UntracedPass RunUntraced(const Workload& workload) {
  const size_t n = workload.cells.size();
  UntracedPass pass;
  pass.errors.resize(n);
  std::vector<double> cell_s(n, 0.0);
  std::vector<diablo::ExperimentCell> cells;
  for (size_t i = 0; i < n; ++i) {
    cells.push_back({workload.cells[i].label, [&workload, &pass, &cell_s, i] {
                       const double start = NowSeconds();
                       RunResult result;
                       try {
                         result = RunCell(workload.cells[i]);
                       } catch (const std::exception& e) {
                         pass.errors[i] = e.what();
                       }
                       cell_s[i] = NowSeconds() - start;
                       return result;
                     }});
  }
  diablo::ParallelRunner runner(workload.jobs);
  const double start = NowSeconds();
  pass.results = runner.Run(std::move(cells));
  pass.wall_s = NowSeconds() - start;
  for (const double s : cell_s) {
    pass.busy_s += s;
  }
  return pass;
}

struct TracedPass {
  std::vector<TracedCell> cells;
  std::vector<RunResult> results;
  std::vector<std::string> errors;

  double SetupSeconds() const {
    double total = 0;
    for (const TracedCell& cell : cells) {
      total += cell.SetupSeconds();
    }
    return total;
  }

  // Sum of the cell spans.
  double CellSeconds() const {
    double total = 0;
    for (const TracedCell& cell : cells) {
      total += cell.spans[0].seconds();
    }
    return total;
  }
};

// Runs every cell on one job, whatever the workload's jobs, so that each
// span is timed without another cell beside it and the process-wide heap
// deltas belong to the cell alone.
TracedPass RunTraced(const Workload& workload, bool setup_only) {
  const size_t n = workload.cells.size();
  TracedPass pass;
  pass.cells.resize(n);
  pass.errors.resize(n);
  std::vector<diablo::ExperimentCell> cells;
  for (size_t i = 0; i < n; ++i) {
    cells.push_back({workload.cells[i].label, [&workload, &pass, setup_only, i] {
                       RunResult result;
                       try {
                         result = RunTracedCell(workload.cells[i], static_cast<int>(i),
                                                setup_only, &pass.cells[i]);
                       } catch (const std::exception& e) {
                         pass.errors[i] = e.what();
                       }
                       return result;
                     }});
  }
  diablo::ParallelRunner runner(1);
  pass.results = runner.Run(std::move(cells));
  return pass;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool end_to_end = false;
  bool exact = false;  // a deterministic count or ratio of counts
  // In the result line. Times that read 0 on every run of a workload
  // lacking their engine or delay model, and counts that read 0 on every
  // workload, are printed but left out of it.
  bool in_result = true;
};

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Median of the rounds' samples at the kernel's reference speed.
double NormalisedMedian(const std::vector<double>& samples,
                        const std::vector<double>& kernels) {
  std::vector<double> scaled;
  for (size_t i = 0; i < samples.size(); ++i) {
    scaled.push_back(samples[i] * Ratio(kKernelReferenceS, kernels[i]));
  }
  return Median(scaled);
}

std::string FormatValue(const Metric& m) {
  if (m.unit == "count") {
    return diablo::StrFormat("%.0f", m.value);
  }
  return diablo::StrFormat("%.17g", m.value);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// Self time per span name, summed over cells. Child spans do not nest, so a
// child's self time is its duration; the cell span's is what its children
// leave uncovered.
struct SpanSummary {
  std::map<std::string, double> self_s;
  double coverage_min = 1.0;
  std::vector<std::string> low_coverage;  // cells below kMinCoverage
};

SpanSummary SummarizeSpans(const Workload& workload, const TracedPass& traced) {
  SpanSummary summary;
  for (const TracedCell& cell : traced.cells) {
    double children = 0;
    for (size_t i = 1; i < cell.spans.size(); ++i) {
      summary.self_s[cell.spans[i].name] += cell.spans[i].seconds();
      children += cell.spans[i].seconds();
    }
    summary.self_s["cell"] += cell.spans[0].seconds() - children;
    const double coverage = Ratio(children, cell.spans[0].seconds());
    summary.coverage_min = std::min(summary.coverage_min, coverage);
    if (coverage < kMinCoverage) {
      summary.low_coverage.push_back(diablo::StrFormat(
          "%s %.1f%%", workload.cells[cell.spans[0].cell].label.c_str(), 100 * coverage));
    }
  }
  return summary;
}

// Per-layer metrics of the traced pass, summed over cells. `untraced_cell_s`
// is the untraced rounds' median sum of cell durations.
std::vector<Metric> LayerMetrics(const TracedPass& traced, const SpanSummary& spans,
                                 double untraced_cell_s, double busy_ratio) {
  auto span_s = [&spans](const char* name) {
    const auto it = spans.self_s.find(name);
    return it == spans.self_s.end() ? 0.0 : it->second;
  };
  double dense_run_s = 0, streamed_run_s = 0;
  std::map<std::string, double> engine_run_s;
  CellCounts sum;
  for (const TracedCell& cell : traced.cells) {
    const CellCounts& c = cell.counts;
    const double run_s = cell.SpanSeconds(kRunSpan);
    (c.dense_votes ? dense_run_s : streamed_run_s) += run_s;
    engine_run_s[c.consensus] += run_s;
    sum.txs += c.txs;
    sum.events += c.events;
    sum.mempool_admitted += c.mempool_admitted;
    sum.mempool_rejected += c.mempool_rejected;
    sum.mempool_evictions += c.mempool_evictions;
    sum.chain.blocks_produced += c.chain.blocks_produced;
    sum.chain.empty_blocks += c.chain.empty_blocks;
    sum.chain.txs_committed += c.chain.txs_committed;
    sum.chain.txs_dropped += c.chain.txs_dropped;
    sum.chain.txs_expired += c.chain.txs_expired;
    sum.chain.view_changes += c.chain.view_changes;
    sum.chain.blocks_abandoned += c.chain.blocks_abandoned;
    sum.fault_evidence += c.fault_evidence;
    sum.client_retries += c.client_retries;
    sum.client_aborts += c.client_aborts;
    sum.fault_windows += c.fault_windows;
    sum.net_sends += c.net_sends;
    sum.net_unreachable_drops += c.net_unreachable_drops;
    sum.net_loss_drops += c.net_loss_drops;
    sum.behind_schedule += c.behind_schedule;
    sum.encode_heap_bytes += c.encode_heap_bytes;
    sum.run_heap_bytes += c.run_heap_bytes;
  }
  const double run_s = span_s(kRunSpan);
  const double encode_s = span_s(kEncodeSpan);
  const double txs = static_cast<double>(sum.txs);
  const double events = static_cast<double>(sum.events);
  const double blocks = static_cast<double>(sum.chain.blocks_produced);
  auto time = [](const char* name, double v, const char* unit = "s") {
    return Metric{name, v, unit, false, false};
  };
  auto count = [](const char* name, uint64_t v) {
    return Metric{name, static_cast<double>(v), "count", false, true};
  };
  auto exact_ratio = [](const char* name, double num, double den, const char* unit) {
    return Metric{name, Ratio(num, den), unit, false, true};
  };
  auto printed_only = [](Metric m) {
    m.in_result = false;
    return m;
  };
  return {
      time("workload.arrivals_s", span_s(kArrivalsSpan)),
      time("chains.build_s", span_s(kBuildSpan)),
      time("fault.install_s", span_s(kInstallSpan)),
      time("core.encode_s", encode_s),
      time("core.encode_ns_per_tx", 1e9 * Ratio(encode_s, txs), "ns"),
      time("core.encode_bytes_per_tx", Ratio(static_cast<double>(sum.encode_heap_bytes), txs),
           "B"),
      time("sim.run_s", run_s),
      time("sim.ns_per_event", 1e9 * Ratio(run_s, events), "ns"),
      time("sim.run_bytes_per_tx", Ratio(static_cast<double>(sum.run_heap_bytes), txs), "B"),
      count("sim.events", sum.events),
      exact_ratio("sim.events_per_tx", events, txs, "event/tx"),
      count("core.txs", sum.txs),
      time("core.report_s", span_s(kReportSpan)),
      time("core.teardown_s", span_s(kTeardownSpan)),
      count("chain.mempool.admitted", sum.mempool_admitted),
      count("chain.mempool.rejected", sum.mempool_rejected),
      count("chain.mempool.evictions", sum.mempool_evictions),
      exact_ratio("chain.mempool.admit_ratio", static_cast<double>(sum.mempool_admitted),
                  static_cast<double>(sum.mempool_admitted + sum.mempool_rejected), "ratio"),
      count("chain.blocks", sum.chain.blocks_produced),
      count("chain.empty_blocks", sum.chain.empty_blocks),
      count("chain.txs_committed", sum.chain.txs_committed),
      count("chain.txs_dropped", sum.chain.txs_dropped),
      count("chain.txs_expired", sum.chain.txs_expired),
      exact_ratio("chain.txs_per_block", static_cast<double>(sum.chain.txs_committed), blocks,
                  "tx/block"),
      time("chain.run_us_per_block", 1e6 * Ratio(run_s, blocks), "us"),
      time("chain.vote_round.dense_run_s", dense_run_s),
      printed_only(time("chain.vote_round.streamed_run_s", streamed_run_s)),
      time("consensus.ibft.run_s", engine_run_s["IBFT"]),
      printed_only(time("consensus.dbft.run_s", engine_run_s["DBFT"])),
      time("consensus.hotstuff.run_s", engine_run_s["HotStuff"]),
      printed_only(time("consensus.algorand.run_s", engine_run_s["BA*"])),
      count("consensus.view_changes", sum.chain.view_changes),
      count("consensus.blocks_abandoned", sum.chain.blocks_abandoned),
      count("core.client_retries", sum.client_retries),
      count("core.client_aborts", sum.client_aborts),
      count("fault.windows", sum.fault_windows),
      count("fault.evidence", sum.fault_evidence),
      count("net.loss_drops", sum.net_loss_drops),
      printed_only(count("net.sends", sum.net_sends)),
      printed_only(count("net.unreachable_drops", sum.net_unreachable_drops)),
      time("core.runner_busy_ratio", busy_ratio, "ratio"),
      printed_only(count("core.behind_schedule", sum.behind_schedule)),
      time("bench.trace_overhead_s", traced.CellSeconds() - untraced_cell_s),
      time("bench.span_coverage_min", spans.coverage_min, "ratio"),
  };
}

// ---------------------------------------------------------------- output

struct Environment {
  int hardware_threads = diablo::ThreadPool::HardwareConcurrency();
#ifdef DIABLO_CHECKED
  bool checked = true;
#else
  bool checked = false;
#endif
  std::string build_type = SIMBENCH_BUILD_TYPE;
  std::string cxx_flags = SIMBENCH_CXX_FLAGS;
  std::string compiler = SIMBENCH_COMPILER;

  std::string ToJson() const {
    return diablo::StrFormat(
        "{\"hardware_threads\": %d, \"diablo_checked\": %s, \"build_type\": %s, "
        "\"cxx_flags\": %s, \"compiler\": %s}",
        hardware_threads, checked ? "true" : "false", JsonString(build_type).c_str(),
        JsonString(cxx_flags).c_str(), JsonString(compiler).c_str());
  }
};

bool WriteSpans(const std::string& path, const Workload& workload,
                const TracedPass& traced) {
  std::ofstream out(path, std::ios::trunc);
  size_t id = 0;
  for (const TracedCell& cell : traced.cells) {
    const size_t cell_id = id;
    for (const Span& span : cell.spans) {
      const std::string parent =
          span.parent < 0 ? "null" : std::to_string(cell_id + span.parent);
      out << diablo::StrFormat(
          "{\"id\": %zu, \"parent\": %s, \"cell\": %d, \"label\": %s, \"name\": %s, "
          "\"start_s\": %.9f, \"end_s\": %.9f}\n",
          id, parent.c_str(), span.cell,
          JsonString(workload.cells[span.cell].label).c_str(),
          JsonString(span.name).c_str(), span.start_s, span.end_s);
      ++id;
    }
  }
  return out.good();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  // Primary::RunStreams reads DIABLO_CELL_WORKERS and would silently move
  // every cell onto the windowed scheduler.
  if (std::getenv("DIABLO_CELL_WORKERS") != nullptr) {
    std::fprintf(stderr, "simbench: refusing to run with DIABLO_CELL_WORKERS set\n");
    return 2;
  }
  Workload workload;
  if (!MakeWorkload(args.workload, args.seed, args.tiny, &workload)) {
    std::fprintf(stderr, "simbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const size_t n = workload.cells.size();
  const Environment env;
  std::printf("simbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d cells=%zu jobs=%d%s\n",
              workload.name.c_str(), args.seed, args.seconds, args.trace, n, workload.jobs,
              args.tiny ? " tiny" : "");
  std::printf("env %s\n", env.ToJson().c_str());
  std::fflush(stdout);

  // Untraced rounds, each followed by a set-up-only rebuild and the kernel.
  // The kernel's memory is allocated after peak RSS is read.
  std::unique_ptr<Kernel> kernel;
  std::vector<double> walls, setups, cell_s, busy, kernels;
  std::vector<std::string> failures(n);
  std::vector<std::string> fingerprints(n);
  std::vector<RunResult> reference;
  // A cell keeps the first reason it failed.
  auto fail = [&failures](size_t i, const std::string& why) {
    if (failures[i].empty()) {
      failures[i] = why;
    }
  };
  double peak_rss_bytes = 0;
  const double start = NowSeconds();
  for (int round = 0;; ++round) {
    const double round_start = NowSeconds();
    UntracedPass pass = RunUntraced(workload);
    walls.push_back(pass.wall_s);
    cell_s.push_back(pass.busy_s);
    busy.push_back(pass.busy_s / (workload.jobs * pass.wall_s));
    if (round == 0) {
      peak_rss_bytes = static_cast<double>(diablo::profile::PeakRssBytes());
      reference = pass.results;
      kernel = std::make_unique<Kernel>();
    }
    for (size_t i = 0; i < n; ++i) {
      if (!pass.errors[i].empty()) {
        fail(i, "threw: " + pass.errors[i]);
      }
      const std::string fingerprint = Fingerprint(pass.results[i]);
      if (round == 0) {
        fingerprints[i] = fingerprint;
      } else if (fingerprint != fingerprints[i]) {
        fail(i, "same-seed rerun differs: " + fingerprint);
      }
    }
    const TracedPass setup = RunTraced(workload, /*setup_only=*/true);
    setups.push_back(setup.SetupSeconds());
    kernels.push_back(kernel->Seconds());
    const double now = NowSeconds();
    if (round + 1 >= kMinRounds && now - start + (now - round_start) > args.seconds) {
      break;
    }
  }

  const TracedPass traced = RunTraced(workload, /*setup_only=*/false);
  for (size_t i = 0; i < n; ++i) {
    const RunResult& r = reference[i];
    if (!traced.errors[i].empty()) {
      fail(i, "traced pass threw: " + traced.errors[i]);
    }
    if (Fingerprint(traced.results[i]) != fingerprints[i]) {
      fail(i, "traced pass differs: " + Fingerprint(traced.results[i]));
    }
    const diablo::Report& rep = r.report;
    if (rep.submitted != rep.committed + rep.dropped + rep.aborted + rep.pending) {
      fail(i, "conservation broken");
    }
    // Fig. 2's absent bars and Fig. 5's X marks are simulated outcomes.
    if (!r.failure_reason.empty() && !r.unsupported &&
        r.failure_reason != "budget exceeded") {
      fail(i, "failed: " + r.failure_reason);
    }
  }

  size_t failed = 0;
  for (size_t i = 0; i < n; ++i) {
    failed += failures[i].empty() ? 0 : 1;
    std::printf("cell %2zu %-28s digest=%s traced=%s events=%" PRIu64 " txs=%" PRIu64
                " %s\n",
                i, workload.cells[i].label.c_str(), Digest(reference[i]).c_str(),
                Digest(traced.results[i]).c_str(), reference[i].events_executed,
                traced.cells[i].counts.txs,
                failures[i].empty() ? "ok" : ("FAIL " + failures[i]).c_str());
  }

  std::vector<Metric> metrics = {
      {"wall_s", NormalisedMedian(walls, kernels), "s", true, false},
      {"setup_s", NormalisedMedian(setups, kernels), "s", true, false},
      {"peak_rss_mb", peak_rss_bytes / 1e6, "MB", true, false},
      {"cell_error_rate", Ratio(static_cast<double>(failed), static_cast<double>(n)), "ratio",
       true, false, /*in_result=*/false},
      {"host_wall_s", Median(walls), "s", true, false, /*in_result=*/false},
      {"host_setup_s", Median(setups), "s", true, false, /*in_result=*/false},
      {"kernel_s", Median(kernels), "s", true, false, /*in_result=*/false},
  };
  const SpanSummary spans = SummarizeSpans(workload, traced);
  for (Metric& m : LayerMetrics(traced, spans, Median(cell_s), Median(busy))) {
    metrics.push_back(std::move(m));
  }
  std::string samples = "rounds " + std::to_string(walls.size()) + " wall_s";
  for (const double s : walls) {
    samples += diablo::StrFormat(" %.4f", s);
  }
  samples += " setup_s";
  for (const double s : setups) {
    samples += diablo::StrFormat(" %.4f", s);
  }
  samples += " kernel_s";
  for (const double s : kernels) {
    samples += diablo::StrFormat(" %.4f", s);
  }
  std::printf("%s\n", samples.c_str());
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %s %s\n", m.name.c_str(), FormatValue(m).c_str(),
                m.unit.c_str());
  }

  for (const std::string& cell : spans.low_coverage) {
    std::printf("coverage %s below %.0f%%\n", cell.c_str(), 100 * kMinCoverage);
  }
  for (const auto& [name, seconds] : spans.self_s) {
    std::printf("self %-20s %.6f s\n", name.c_str(), seconds);
  }
  std::string zero;
  for (const Metric& m : metrics) {
    if (m.exact && m.unit == "count" && m.value == 0) {
      zero += " " + m.name;
    }
  }
  std::printf("zero-counts%s\n", zero.c_str());

  const std::string stem =
      args.out_dir + "/" + workload.name + "-seed" + std::to_string(args.seed);
  const std::string spans_path = stem + ".spans.jsonl";
  if (!WriteSpans(spans_path, workload, traced)) {
    std::fprintf(stderr, "simbench: cannot write %s\n", spans_path.c_str());
    return 2;
  }
  std::string results = "{\"workload\": " + JsonString(workload.name) +
                        ", \"seed\": " + std::to_string(args.seed) +
                        ", \"env\": " + env.ToJson() + ", \"cells\": [";
  for (size_t i = 0; i < n; ++i) {
    results += diablo::StrFormat(
        "%s{\"label\": %s, \"digest\": %s, \"traced_digest\": %s, \"failure\": %s}",
        i == 0 ? "" : ", ", JsonString(workload.cells[i].label).c_str(),
        JsonString(Digest(reference[i])).c_str(),
        JsonString(Digest(traced.results[i])).c_str(), JsonString(failures[i]).c_str());
  }
  results += "], \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    results += diablo::StrFormat(
        "%s%s: {\"value\": %s, \"unit\": %s, \"kind\": %s, \"exact\": %s}",
        i == 0 ? "" : ", ", JsonString(m.name).c_str(), FormatValue(m).c_str(),
        JsonString(m.unit).c_str(), m.end_to_end ? "\"end_to_end\"" : "\"per_layer\"",
        m.exact ? "true" : "false");
  }
  results += "}, \"self_s\": {";
  bool first = true;
  for (const auto& [name, seconds] : spans.self_s) {
    results += diablo::StrFormat("%s%s: %.9f", first ? "" : ", ", JsonString(name).c_str(),
                                 seconds);
    first = false;
  }
  results += "}}\n";
  const std::string results_path = stem + ".results.json";
  std::ofstream results_file(results_path, std::ios::trunc);
  results_file << results;
  if (!results_file.good()) {
    std::fprintf(stderr, "simbench: cannot write %s\n", results_path.c_str());
    return 2;
  }

  // The result line: end-to-end metrics untraced, per-layer ones traced.
  // cell_error_rate travels as failed / attempted.
  std::string line = diablo::StrFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      failed == 0 ? "true" : "false", n, failed);
  first = true;
  for (const Metric& m : metrics) {
    if (m.end_to_end != (args.trace == 0) || !m.in_result) {
      continue;
    }
    line += diablo::StrFormat("%s%s: {\"value\": %s, \"unit\": %s}", first ? "" : ", ",
                              JsonString(m.name).c_str(), FormatValue(m).c_str(),
                              JsonString(m.unit).c_str());
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) { return simbench::Main(argc, argv); }
