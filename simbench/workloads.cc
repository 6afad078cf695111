#include "simbench/workloads.h"

#include "src/chains/params.h"
#include "src/core/parallel_runner.h"
#include "src/core/runner.h"

namespace simbench {
namespace {

using diablo::FaultScheduleBuilder;
using diablo::Milliseconds;
using diablo::Seconds;

// Fig. 2's overload DApps at a tenth of their rates, so one batch takes a
// few seconds while every chain stays saturated and its admission policy
// still rejects or evicts.
constexpr double kDappScale = 0.1;

void AddDapp(Workload* w, const std::string& chain, const std::string& dapp,
             double scale) {
  CellSpec cell;
  cell.kind = CellSpec::Kind::kDapp;
  cell.label = dapp + "@" + chain;
  cell.chain = chain;
  cell.deployment = "consortium";
  cell.dapp = dapp;
  cell.scale = scale;
  w->cells.push_back(std::move(cell));
}

void AddNative(Workload* w, const std::string& chain, const std::string& deployment,
               double tps, int seconds) {
  CellSpec cell;
  cell.kind = CellSpec::Kind::kNative;
  cell.label = chain + "@" + deployment;
  cell.chain = chain;
  cell.deployment = deployment;
  cell.tps = tps;
  cell.seconds = seconds;
  w->cells.push_back(std::move(cell));
}

void MakeDappFlood(bool tiny, Workload* w) {
  const double scale = tiny ? 0.002 : kDappScale;
  for (const char* chain : {"quorum", "diem", "ethereum", "avalanche"}) {
    AddDapp(w, chain, "youtube", scale);
  }
  for (const char* chain : {"quorum", "ethereum"}) {
    AddDapp(w, chain, "dota", scale);
  }
}

void MakeVotePlane(bool tiny, Workload* w) {
  const int seconds = tiny ? 20 : 300;
  for (const char* chain : {"quorum", "redbelly", "diem"}) {
    AddNative(w, chain, "consortium", 100, seconds);
  }
  for (const char* chain : {"diem", "algorand"}) {
    AddNative(w, chain, "xl-10000", 100, seconds);
  }
}

void MakeFaultsRetry(bool tiny, Workload* w) {
  w->jobs = 2;
  diablo::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.timeout = Seconds(2);
  retry.backoff = Milliseconds(500);
  struct Schedule {
    const char* name;
    diablo::FaultSchedule faults;
  };
  const Schedule schedules[] = {
      {"crash+loss", FaultScheduleBuilder()
                         .Crash(0, Seconds(10), Seconds(30))
                         .Loss(0.05, Seconds(40), Seconds(70))
                         .Build()},
      {"withhold+equivocate", FaultScheduleBuilder()
                                  .WithholdVotesFraction(0.33, Seconds(10), Seconds(40))
                                  .EquivocateFraction(0.20, Seconds(50), Seconds(80))
                                  .Build()},
  };
  std::vector<std::string> chains = diablo::AllChainNames();
  chains.push_back("redbelly");
  for (const std::string& chain : chains) {
    for (const Schedule& schedule : schedules) {
      CellSpec cell;
      cell.kind = CellSpec::Kind::kFault;
      cell.label = chain + "+" + schedule.name;
      cell.chain = chain;
      cell.deployment = "consortium";
      cell.tps = tiny ? 50 : 2000;
      cell.seconds = 120;
      cell.faults = schedule.faults;
      cell.retry = retry;
      w->cells.push_back(std::move(cell));
    }
  }
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "dapp-flood") {
    MakeDappFlood(tiny, &w);
  } else if (name == "vote-plane") {
    MakeVotePlane(tiny, &w);
  } else if (name == "faults-retry") {
    MakeFaultsRetry(tiny, &w);
  } else {
    return false;
  }
  for (size_t i = 0; i < w.cells.size(); ++i) {
    w.cells[i].seed = diablo::CellSeed(seed, i);
  }
  *out = std::move(w);
  return true;
}

diablo::RunResult RunCell(const CellSpec& spec) {
  switch (spec.kind) {
    case CellSpec::Kind::kDapp:
      return diablo::RunDappBenchmark(spec.chain, spec.deployment, spec.dapp, spec.seed,
                                      spec.scale);
    case CellSpec::Kind::kNative:
      return diablo::RunNativeBenchmark(spec.chain, spec.deployment, spec.tps,
                                        spec.seconds, spec.seed, spec.scale);
    case CellSpec::Kind::kFault:
      return diablo::RunFaultBenchmark(spec.chain, spec.deployment, spec.tps,
                                       spec.seconds, spec.faults, spec.retry, spec.seed,
                                       spec.scale);
  }
  return {};
}

}  // namespace simbench
