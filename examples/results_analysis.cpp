// Post-mortem analysis example, mirroring the artifact's results pipeline
// (§A.3: unpack results, convert to CSV, inspect latencies):
//
//   1. runs two benchmarks writing full results documents into a fresh
//      temporary directory, removed when done,
//   2. loads them back through the analysis library,
//   3. recomputes the latency distribution from the raw records and prints
//      a side-by-side comparison.
//
//   ./results_analysis [chain_a] [chain_b]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>

#include "src/analysis/analysis.h"
#include "src/core/runner.h"

namespace {

// Runs 100 TPS x 30 s on `chain`, writing its results document to `path`,
// and loads the document back. Returns false, naming the path on stderr,
// when the run cannot write it or the loader cannot read it.
bool RunAndReload(const std::string& chain, const std::string& path,
                  diablo::LoadedResults* out) {
  diablo::BenchmarkSetup setup;
  setup.chain = chain;
  setup.deployment = "testnet";
  setup.results_json_path = path;
  diablo::Primary primary(setup);
  if (!primary.RunNative(diablo::ConstantTrace(100, 30)).unwritten_files.empty()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }

  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const diablo::LoadResult loaded = diablo::LoadResultsJson(buffer.str());
  if (!loaded.ok) {
    std::fprintf(stderr, "failed to reload %s: %s\n", path.c_str(),
                 loaded.error.c_str());
    return false;
  }
  *out = loaded.results;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string chain_a = argc > 1 ? argv[1] : "quorum";
  const std::string chain_b = argc > 2 ? argv[2] : "solana";

  std::printf("running 100 TPS x 30 s on %s and %s, writing results JSON...\n\n",
              chain_a.c_str(), chain_b.c_str());
  // A fresh directory per process, so concurrent runs never share a file.
  std::error_code error;
  std::string dir =
      (std::filesystem::temp_directory_path(error) / "diablo_results_XXXXXX").string();
  if (error || mkdtemp(dir.data()) == nullptr) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }
  diablo::LoadedResults a;
  diablo::LoadedResults b;
  const bool reloaded = RunAndReload(chain_a, dir + "/a.json", &a) &&
                        RunAndReload(chain_b, dir + "/b.json", &b);
  std::filesystem::remove_all(dir);
  if (!reloaded) {
    return 1;
  }

  std::printf("%s\n", diablo::CompareRuns({a, b}).c_str());

  for (const diablo::LoadedResults* run : {&a, &b}) {
    const diablo::SampleSet latencies = run->CommittedLatencies();
    std::printf("%s latency from raw records: p50 %.2f s, p90 %.2f s, p99 %.2f s\n",
                run->chain.c_str(), latencies.Percentile(0.5),
                latencies.Percentile(0.9), latencies.Percentile(0.99));
  }

  // Per-second commit counts, like the artifact's postmortem time series.
  std::printf("\n%s commits per second: ", a.chain.c_str());
  const diablo::TimeSeries series = a.CommittedPerSecond();
  for (size_t s = 0; s < std::min<size_t>(series.size(), 15); ++s) {
    std::printf("%llu ", static_cast<unsigned long long>(series.CountAt(s)));
  }
  std::printf("...\n");
  return 0;
}
