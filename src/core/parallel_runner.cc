#include "src/core/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "src/config/json.h"
#include "src/support/profile.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace diablo {

ParallelRunner::ParallelRunner(int jobs)
    : jobs_(jobs > 0 ? jobs : JobsFromEnv()) {
  stats_.jobs = jobs_;
}

int ParallelRunner::JobsFromEnv() {
  const char* raw = std::getenv("DIABLO_JOBS");
  if (raw != nullptr) {
    int64_t value = 0;
    if (ParseInt64(raw, &value) && value > 0) {
      return static_cast<int>(std::min<int64_t>(value, 1024));
    }
  }
  return ThreadPool::HardwareConcurrency();
}

std::vector<RunResult> ParallelRunner::Run(std::vector<ExperimentCell> cells) {
  // detlint: allow(D2, wall time feeds only RunnerStats::wall_seconds, a profiling observable outside every report)
  const auto start = std::chrono::steady_clock::now();
  const size_t count = cells.size();
  std::vector<RunResult> results(count);
  std::vector<std::exception_ptr> errors(count);
  // Each worker claims the next unclaimed cell until none is left, so one
  // worker runs the cells in cell order.
  std::atomic<size_t> next{0};
  const auto work = [&] {
    for (size_t i = next++; i < count; i = next++) {
      try {
        results[i] = cells[i].run();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // A jthread joins when destroyed, so every helper has finished before
    // this block ends, even when starting one of them throws.
    std::vector<std::jthread> helpers;
    for (size_t w = 1; w < std::min(static_cast<size_t>(jobs_), count); ++w) {
      helpers.emplace_back(work);
    }
    work();
  }
  // Every cell has finished; the first failure in cell order propagates.
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }

  const std::chrono::duration<double> elapsed =
      // detlint: allow(D2, wall time feeds only RunnerStats::wall_seconds, a profiling observable outside every report)
      std::chrono::steady_clock::now() - start;
  stats_.cells += cells.size();
  stats_.wall_seconds += elapsed.count();
  for (const RunResult& result : results) {
    stats_.total_events += result.events_executed;
    stats_.counts += result.counts;
  }
  stats_.peak_rss_mb = static_cast<double>(profile::PeakRssBytes()) / 1e6;
  return results;
}

uint64_t CellSeed(uint64_t base_seed, uint64_t cell_index) {
  // splitmix64 over (base, index) gives well-separated streams even for
  // adjacent cells; never fold in thread identity here.
  uint64_t state = base_seed + 0x9e3779b97f4a7c15ull * (cell_index + 1);
  return SplitMix64(state);
}

namespace {

void AppendJson(const JsonValue& value, std::string* out) {
  switch (value.type) {
    case JsonValue::Type::kNull:
      out->append("null");
      break;
    case JsonValue::Type::kBool:
      out->append(value.boolean ? "true" : "false");
      break;
    case JsonValue::Type::kNumber: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value.number);
      out->append(buf);
      break;
    }
    case JsonValue::Type::kString:
      AppendJsonString(value.string, out);
      break;
    case JsonValue::Type::kArray:
      out->push_back('[');
      for (size_t i = 0; i < value.items.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        AppendJson(value.items[i], out);
      }
      out->push_back(']');
      break;
    case JsonValue::Type::kObject:
      out->push_back('{');
      for (size_t i = 0; i < value.members.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        AppendJsonString(value.members[i].first, out);
        out->push_back(':');
        AppendJson(value.members[i].second, out);
      }
      out->push_back('}');
      break;
  }
}

std::string StatsEntryJson(const RunnerStats& stats) {
  const RunCounts& counts = stats.counts;
  return StrFormat(
      "{\"jobs\": %d, \"cells\": %zu, \"wall_seconds\": %.6f, "
      "\"total_events\": %llu, \"events_per_second\": %.1f, "
      "\"peak_rss_mb\": %.1f, \"hardware_threads\": %d, \"arrivals\": %llu, "
      "\"vote_rounds\": %llu, \"vote_receivers\": %llu, \"sortition_draws\": %llu, "
      "\"vm_ops\": %llu}",
      stats.jobs, stats.cells, stats.wall_seconds,
      static_cast<unsigned long long>(stats.total_events), stats.EventsPerSecond(),
      stats.peak_rss_mb, ThreadPool::HardwareConcurrency(),
      static_cast<unsigned long long>(counts.arrivals),
      static_cast<unsigned long long>(counts.vote_rounds),
      static_cast<unsigned long long>(counts.vote_receivers),
      static_cast<unsigned long long>(counts.sortition_draws),
      static_cast<unsigned long long>(counts.vm_ops));
}

}  // namespace

bool WriteRunnerStatsJson(const std::string& path, const std::string& binary,
                          const RunnerStats& stats) {
  return WriteRunnerJsonEntry(path, binary, StatsEntryJson(stats));
}

bool WriteRunnerJsonEntry(const std::string& path, const std::string& key,
                          const std::string& entry_json) {
  // Keep other binaries' entries so the file accumulates a whole-suite view.
  std::vector<std::pair<std::string, std::string>> entries;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream raw;
      raw << in.rdbuf();
      const JsonResult parsed = ParseJson(raw.str());
      if (parsed.ok && parsed.value.IsObject()) {
        for (const auto& [existing, value] : parsed.value.members) {
          // The schema stamp is re-emitted at the top, never copied through;
          // this entry's key is replaced below.
          if (existing == key || existing == "schema_version") {
            continue;
          }
          std::string serialized;
          AppendJson(value, &serialized);
          entries.emplace_back(existing, std::move(serialized));
        }
      }
    }
  }
  entries.emplace_back(key, entry_json);

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "{\n";
  out << "  \"schema_version\": " << kRunnerStatsSchemaVersion << ",\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    std::string quoted_key;
    AppendJsonString(entries[i].first, &quoted_key);
    out << "  " << quoted_key << ": " << entries[i].second;
    out << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  out << "}\n";
  return out.good();
}

}  // namespace diablo
