// Workload-specification example: parse the gaming DApp configuration from
// §4 of the paper (anchors, !tags, load ramps) — from a file when given,
// otherwise the embedded copy — and run it through the Primary.
//
//   ./workload_spec [spec.yaml] [chain] [scale]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/config/spec.h"
#include "src/core/runner.h"

namespace {

constexpr char kPaperSpec[] = R"yaml(let:
  - &loc { sample: !location [ "us-east-2" ] }
  - &end { sample: !endpoint [ ".*" ] }
  - &acc { sample: !account { number: 2000 } }
  - &dapp { sample: !contract { name: "dota" } }
workloads:
  - number: 3
    client:
      location: *loc
      view: *end
      behavior:
        - interaction: !invoke
            from: *acc
            contract: *dapp
            function: "update(1, 1)"
          load:
            0: 4432
            50: 4438
            120: 0
)yaml";

}  // namespace

int main(int argc, char** argv) {
  std::string text = kPaperSpec;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }
  const std::string chain = argc > 2 ? argv[2] : "quorum";
  const double scale = argc > 3 ? std::atof(argv[3]) : 0.05;

  const diablo::SpecResult parsed = diablo::ParseWorkloadSpec(text);
  if (!parsed.ok) {
    std::fprintf(stderr, "spec error: %s\n", parsed.error.c_str());
    return 1;
  }
  const diablo::WorkloadSpec& spec = parsed.spec;
  const diablo::Trace trace = spec.ToTrace();
  std::printf("parsed workload spec:\n");
  std::printf("  groups: %zu, accounts: %d, contract: %s\n", spec.groups.size(),
              spec.TotalAccounts(), spec.PrimaryContract().c_str());
  std::printf("  aggregate load: %zu s, avg %.0f TPS, peak %.0f TPS\n\n",
              trace.duration_seconds(), trace.AverageTps(), trace.PeakTps());

  diablo::BenchmarkSetup setup;
  setup.chain = chain;
  setup.deployment = "testnet";
  setup.scale = scale;
  diablo::Primary primary(setup);
  const diablo::RunResult result = primary.RunSpec(spec);
  std::printf("run at scale %.2f on %s:\n%s", scale, chain.c_str(),
              result.report.ToText().c_str());
  return 0;
}
