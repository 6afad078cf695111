// Command-line front end, in the spirit of the paper's
//   diablo primary -vvv --output=results.json 10 setup.yaml workload.yaml
//
// Usage:
//   diablo_cli --chain=quorum --deployment=testnet --workload=native
//              --tps=100 --duration=60 [--seed=1] [--scale=1.0]
//              [--output=results.json] [--csv=results.csv] [-v]
//   diablo_cli --chain=solana --deployment=consortium --workload=fifa
//   diablo_cli --spec=workload.yaml --chain=quorum
//
// Workloads: "native" (constant --tps for --duration), one of the five
// DApps (exchange, dota, fifa, uber, youtube), a NASDAQ stock burst
// (google, amazon, facebook, microsoft, apple), or --spec=FILE for a YAML
// workload specification (§4).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/config/spec.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/support/strings.h"

namespace {

struct Options {
  std::string chain = "quorum";
  std::string deployment = "testnet";
  std::string workload = "native";
  std::string spec_file;
  std::string output_json;
  std::string output_csv;
  double tps = 100;
  int duration = 60;
  uint64_t seed = 1;
  double scale = 1.0;
  bool verbose = false;
  bool help = false;
};

bool ParseFlag(const std::string& arg, const std::string& name, std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (!diablo::StartsWith(arg, prefix)) {
    return false;
  }
  *value = arg.substr(prefix.size());
  return true;
}

// A rate or rate multiplier: a finite number >= 0.
bool ParseRate(const std::string& text, double* out) {
  return diablo::ParseDouble(text, out) && std::isfinite(*out) && *out >= 0;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    int64_t integer = 0;
    double real = 0;
    if (arg == "--help" || arg == "-h") {
      options->help = true;
    } else if (arg == "-v" || arg == "-vv" || arg == "-vvv") {
      options->verbose = true;
    } else if (ParseFlag(arg, "chain", &value)) {
      options->chain = value;
    } else if (ParseFlag(arg, "deployment", &value)) {
      options->deployment = value;
    } else if (ParseFlag(arg, "workload", &value)) {
      options->workload = value;
    } else if (ParseFlag(arg, "spec", &value)) {
      options->spec_file = value;
    } else if (ParseFlag(arg, "output", &value)) {
      options->output_json = value;
    } else if (ParseFlag(arg, "csv", &value)) {
      options->output_csv = value;
    } else if (ParseFlag(arg, "tps", &value) && ParseRate(value, &real)) {
      options->tps = real;
    } else if (ParseFlag(arg, "duration", &value) && diablo::ParseInt64(value, &integer) &&
               integer >= 0 && integer <= INT32_MAX) {
      options->duration = static_cast<int>(integer);
    } else if (ParseFlag(arg, "seed", &value) && diablo::ParseInt64(value, &integer)) {
      options->seed = static_cast<uint64_t>(integer);
    } else if (ParseFlag(arg, "scale", &value) && ParseRate(value, &real)) {
      options->scale = real;
    } else {
      std::fprintf(stderr, "unknown or malformed argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void PrintUsage() {
  std::printf(
      "diablo_cli — run a diablo benchmark against a simulated blockchain\n"
      "  --chain=NAME        algorand|avalanche|diem|quorum|ethereum|solana\n"
      "  --deployment=NAME   datacenter|testnet|devnet|community|consortium\n"
      "  --workload=NAME     native|exchange|dota|fifa|uber|youtube|<stock>\n"
      "  --tps=N             rate for --workload=native (default 100)\n"
      "  --duration=SECONDS  duration for --workload=native (default 60)\n"
      "  --spec=FILE         YAML workload specification instead of --workload\n"
      "  --seed=N --scale=F  determinism and downscaling controls\n"
      "  --output=FILE.json  write summary + per-transaction records\n"
      "  --csv=FILE.csv      write per-transaction CSV\n"
      "  -v|-vv|-vvv         print the run's size and counts to stderr\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 1;
  }
  if (options.help) {
    PrintUsage();
    return 0;
  }
  diablo::BenchmarkSetup setup;
  setup.chain = options.chain;
  setup.deployment = options.deployment;
  setup.seed = options.seed;
  setup.scale = options.scale;
  setup.results_json_path = options.output_json;
  setup.results_csv_path = options.output_csv;
  diablo::Primary primary(setup);
  diablo::RunResult result;
  try {
    if (!options.spec_file.empty()) {
      std::ifstream file(options.spec_file);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", options.spec_file.c_str());
        return 1;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      const diablo::SpecResult spec = diablo::ParseWorkloadSpec(buffer.str());
      if (!spec.ok) {
        std::fprintf(stderr, "spec error: %s\n", spec.error.c_str());
        return 1;
      }
      result = primary.RunSpec(spec.spec);
    } else if (options.workload == "native") {
      result = primary.RunNative(diablo::ConstantTrace(options.tps, options.duration));
    } else {
      result = primary.RunDapp(diablo::GetDappWorkload(options.workload));
    }
  } catch (const std::invalid_argument& error) {
    // An unknown chain, deployment or workload name.
    std::fprintf(stderr, "%s\n", error.what());
    PrintUsage();
    return 1;
  }

  if (result.unsupported) {
    std::printf("workload not supported on %s: %s\n", options.chain.c_str(),
                result.failure_reason.c_str());
    return 2;
  }
  // Rejected before the simulation started: there is no report to print.
  if (result.events_executed == 0 && !result.failure_reason.empty()) {
    std::fprintf(stderr, "run rejected: %s\n", result.failure_reason.c_str());
    return 1;
  }
  if (options.verbose) {
    const diablo::Report& report = result.report;
    std::fprintf(stderr, "primary: %zu txs over %.0f s on %s/%s\n", report.submitted,
                 report.workload_duration, report.chain.c_str(), report.deployment.c_str());
    std::fprintf(stderr, "primary: %s\n",
                 diablo::CountsText(result.events_executed, result.counts).c_str());
  }
  std::printf("%s", result.report.ToText().c_str());
  if (!result.failure_reason.empty()) {
    std::printf("client errors: %s\n", result.failure_reason.c_str());
  }

  // The primary wrote the full documents (summary + per-transaction
  // records) itself; see src/analysis/ for loading them back. A results
  // file it could not write fails the run.
  int status = 0;
  for (const std::string& path : {options.output_json, options.output_csv}) {
    if (path.empty()) {
      continue;
    }
    if (std::find(result.unwritten_files.begin(), result.unwritten_files.end(), path) !=
        result.unwritten_files.end()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      status = 1;
    } else {
      std::printf("wrote %s\n", path.c_str());
    }
  }
  return status;
}
