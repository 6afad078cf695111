// ParallelRunner unit tests plus the determinism regression contract of the
// parallel experiment runner: same seed => bit-identical results, serially
// and under any DIABLO_JOBS.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/config/json.h"
#include "src/core/parallel_runner.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/support/thread_pool.h"

namespace diablo {
namespace {

TEST(ThreadPoolTest, PropagatesExceptions) {
  // The runner's workers are the pool. Each of two cells at two jobs waits
  // until the other has started, so they run on different threads, and the
  // one on the helper thread throws: its exception must reach Run's caller,
  // and the cell on the calling thread must still finish.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::promise<void> both_started;
  const std::shared_future<void> rendezvous = both_started.get_future().share();
  const auto cell = [&]() -> RunResult {
    if (++started == 2) {
      both_started.set_value();
    }
    if (rendezvous.wait_for(std::chrono::seconds(30)) == std::future_status::ready &&
        std::this_thread::get_id() != caller) {
      throw std::runtime_error("helper cell failed");
    }
    ++finished;
    return RunResult();
  };
  ParallelRunner runner(2);
  std::vector<ExperimentCell> cells;
  cells.push_back({"a", cell});
  cells.push_back({"b", cell});
  try {
    runner.Run(std::move(cells));
    ADD_FAILURE() << "no exception propagated from the helper thread";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "helper cell failed");
  }
  EXPECT_EQ(started.load(), 2);
  EXPECT_EQ(finished.load(), 1);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

TEST(ParallelRunnerTest, JobsFromEnvParsesOverride) {
  ASSERT_EQ(setenv("DIABLO_JOBS", "3", 1), 0);
  EXPECT_EQ(ParallelRunner::JobsFromEnv(), 3);
  ASSERT_EQ(setenv("DIABLO_JOBS", "bogus", 1), 0);
  EXPECT_EQ(ParallelRunner::JobsFromEnv(), ThreadPool::HardwareConcurrency());
  ASSERT_EQ(unsetenv("DIABLO_JOBS"), 0);
  EXPECT_EQ(ParallelRunner::JobsFromEnv(), ThreadPool::HardwareConcurrency());
}

TEST(ParallelRunnerTest, ResultsComeBackInCellOrder) {
  ParallelRunner runner(4);
  std::vector<ExperimentCell> cells;
  for (int i = 0; i < 8; ++i) {
    cells.push_back({"cell" + std::to_string(i), [i] {
                       RunResult result;
                       result.behind_schedule = static_cast<size_t>(i);
                       return result;
                     }});
  }
  const std::vector<RunResult> results = runner.Run(std::move(cells));
  ASSERT_EQ(results.size(), 8u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].behind_schedule, i);
  }
}

TEST(ParallelRunnerTest, CellExceptionPropagates) {
  // Cells 2 and 5 throw. Whatever the job count, every cell runs, and the
  // first failure in cell order is the one rethrown.
  for (const int jobs : {1, 2, 4}) {
    ParallelRunner runner(jobs);
    std::vector<int> ran(8, 0);
    std::vector<ExperimentCell> cells;
    for (int i = 0; i < 8; ++i) {
      cells.push_back({"cell" + std::to_string(i), [i, &ran]() -> RunResult {
                         ran[static_cast<size_t>(i)] = 1;
                         if (i == 2 || i == 5) {
                           throw std::runtime_error("cell " + std::to_string(i) + " failed");
                         }
                         return RunResult();
                       }});
    }
    try {
      runner.Run(std::move(cells));
      ADD_FAILURE() << "jobs " << jobs << ": no exception propagated";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "cell 2 failed") << "jobs " << jobs;
    }
    EXPECT_EQ(ran, std::vector<int>(8, 1)) << "jobs " << jobs;
  }
}

TEST(ParallelRunnerTest, StatsAccumulateEvents) {
  ParallelRunner runner(1);
  std::vector<ExperimentCell> cells;
  cells.push_back({"a", [] {
                     RunResult result;
                     result.events_executed = 10;
                     result.counts.vote_rounds = 3;
                     return result;
                   }});
  cells.push_back({"b", [] {
                     RunResult result;
                     result.events_executed = 32;
                     result.counts.vote_rounds = 4;
                     result.counts.vm_ops = 5;
                     return result;
                   }});
  runner.Run(std::move(cells));
  EXPECT_EQ(runner.stats().cells, 2u);
  EXPECT_EQ(runner.stats().total_events, 42u);
  EXPECT_EQ(runner.stats().counts.vote_rounds, 7u);
  EXPECT_EQ(runner.stats().counts.vm_ops, 5u);
  // The process's peak resident set, read when Run returns.
  EXPECT_GT(runner.stats().peak_rss_mb, 0);
}

TEST(CellSeedTest, DistinctAndThreadIndependent) {
  EXPECT_NE(CellSeed(1, 0), CellSeed(1, 1));
  EXPECT_NE(CellSeed(1, 0), CellSeed(2, 0));
  EXPECT_EQ(CellSeed(7, 3), CellSeed(7, 3));
}

// Everything the report serializes plus the raw counters; if two runs agree
// on all of this, they took the same simulated trajectory.
std::string Fingerprint(const RunResult& result) {
  return ReportToJson(result.report) + "|" +
         CountsText(result.events_executed, result.counts) +
         "|behind=" + std::to_string(result.behind_schedule) +
         "|fail=" + result.failure_reason;
}

// Small native runs: enough traffic to exercise consensus, short enough for
// a unit test.
RunResult RunDeterminismCell(const std::string& chain, uint64_t seed) {
  return RunNativeBenchmark(chain, "testnet", /*tps=*/30, /*seconds=*/10, seed);
}

TEST(DeterminismTest, SerialRunsAreBitIdentical) {
  for (const char* chain : {"algorand", "solana"}) {
    const RunResult a = RunDeterminismCell(chain, 11);
    const RunResult b = RunDeterminismCell(chain, 11);
    EXPECT_EQ(Fingerprint(a), Fingerprint(b)) << chain;
  }
}

TEST(DeterminismTest, ParallelResultsInvariantToJobCount) {
  // The same 8-cell grid (4 kinds of cell x 2 cell-indexed seeds) must
  // produce bit-identical results and counts serially, with jobs=1 and with
  // jobs=4. Between them the kinds make every count: Algorand draws
  // sortition, HotStuff (diem) runs single-receiver vote rounds, and the
  // DApp cell's oracle runs VM ops.
  const std::vector<std::string> kinds = {"algorand", "solana", "diem", "quorum+uber"};
  auto build_cells = [&kinds] {
    std::vector<ExperimentCell> cells;
    for (size_t c = 0; c < kinds.size(); ++c) {
      for (uint64_t rep = 0; rep < 2; ++rep) {
        const std::string kind = kinds[c];
        const uint64_t seed = CellSeed(/*base_seed=*/1, c * 2 + rep);
        cells.push_back({kind + "#" + std::to_string(rep), [kind, seed] {
                           return kind == "quorum+uber"
                                      ? RunDappBenchmark("quorum", "testnet", "uber", seed,
                                                         /*scale=*/0.01)
                                      : RunDeterminismCell(kind, seed);
                         }});
      }
    }
    return cells;
  };

  std::vector<std::string> serial;
  uint64_t serial_events = 0;
  RunCounts serial_counts;
  for (ExperimentCell& cell : build_cells()) {
    const RunResult result = cell.run();
    serial.push_back(Fingerprint(result));
    serial_events += result.events_executed;
    serial_counts += result.counts;
  }

  ParallelRunner one_job(1);
  const std::vector<RunResult> with_one = one_job.Run(build_cells());
  ParallelRunner four_jobs(4);
  const std::vector<RunResult> with_four = four_jobs.Run(build_cells());

  ASSERT_EQ(with_one.size(), serial.size());
  ASSERT_EQ(with_four.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(Fingerprint(with_one[i]), serial[i]) << "cell " << i;
    EXPECT_EQ(Fingerprint(with_four[i]), serial[i]) << "cell " << i;
  }
  // The runner's sums are the serial sums at any job count, and no count
  // compares equal only because it is zero.
  const std::string expected = CountsText(serial_events, serial_counts);
  EXPECT_EQ(CountsText(one_job.stats().total_events, one_job.stats().counts), expected);
  EXPECT_EQ(CountsText(four_jobs.stats().total_events, four_jobs.stats().counts),
            expected);
  EXPECT_GT(serial_counts.arrivals, 0u);
  EXPECT_GT(serial_counts.vote_rounds, 0u);
  EXPECT_GT(serial_counts.vote_receivers, 0u);
  EXPECT_GT(serial_counts.sortition_draws, 0u);
  EXPECT_GT(serial_counts.vm_ops, 0u);
}

TEST(DeterminismTest, FaultCellsInvariantToJobCount) {
  // Fault-schedule runs must be byte-identical serially and across
  // DIABLO_JOBS, like healthy cells — the injector draws only from the
  // cell's own deterministic streams. Two schedules cover every network and
  // node fault kind: crash + loss with client retries, and crash + partition
  // + delay spike without retries.
  struct Schedule {
    const char* name;
    FaultSchedule faults;
    RetryPolicy retry;
    uint64_t base_seed;
  };
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.timeout = Seconds(1);
  const std::vector<Schedule> schedules = {
      {"crash+loss+retry",
       FaultScheduleBuilder()
           .Crash(0, Seconds(2), Seconds(5))
           .Loss(0.1, Seconds(6), Seconds(8))
           .Build(),
       retry, 3},
      {"crash+partition+spike",
       FaultScheduleBuilder()
           .Crash(0, Seconds(2), Seconds(5))
           .Partition({1}, Seconds(3), Seconds(6))
           .DelaySpike(Milliseconds(80), Seconds(6), Seconds(8))
           .Build(),
       RetryPolicy(), 9},
  };
  const std::vector<std::string> chains = {"quorum", "solana"};
  for (const Schedule& schedule : schedules) {
    auto build_cells = [&] {
      std::vector<ExperimentCell> cells;
      for (size_t c = 0; c < chains.size(); ++c) {
        const std::string chain = chains[c];
        const uint64_t seed = CellSeed(schedule.base_seed, c);
        cells.push_back({chain + "+faults", [chain, seed, &schedule] {
                           return RunFaultBenchmark(chain, "testnet", 30, 10,
                                                    schedule.faults, schedule.retry,
                                                    seed);
                         }});
      }
      return cells;
    };

    std::vector<std::string> serial;
    for (ExperimentCell& cell : build_cells()) {
      serial.push_back(Fingerprint(cell.run()));
    }
    ParallelRunner four_jobs(4);
    const std::vector<RunResult> parallel = four_jobs.Run(build_cells());
    ASSERT_EQ(parallel.size(), serial.size()) << schedule.name;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(Fingerprint(parallel[i]), serial[i]) << schedule.name << " cell " << i;
      // The resilience fields ride in the fingerprint's JSON: make sure they
      // are actually populated rather than trivially equal-and-empty.
      EXPECT_NE(serial[i].find("time_to_recovery_s"), std::string::npos)
          << schedule.name;
    }
  }
}

TEST(RunnerStatsTest, JsonRoundTripKeepsOtherBinaries) {
  const std::string path = ::testing::TempDir() + "/BENCH_runner_test.json";
  RunnerStats first;
  first.jobs = 4;
  first.cells = 24;
  first.wall_seconds = 1.5;
  first.total_events = 3000;
  first.peak_rss_mb = 61.5;
  first.counts.arrivals = 2900;
  first.counts.vm_ops = 7;
  ASSERT_TRUE(WriteRunnerStatsJson(path, "fig3_scalability", first));

  RunnerStats second;
  second.jobs = 2;
  second.cells = 3;
  second.wall_seconds = 0.25;
  second.total_events = 500;
  ASSERT_TRUE(WriteRunnerStatsJson(path, "table1", second));
  // Overwrite fig3's entry; table1's must survive.
  first.cells = 48;
  ASSERT_TRUE(WriteRunnerStatsJson(path, "fig3_scalability", first));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonResult parsed = ParseJson(buffer.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_TRUE(parsed.value.IsObject());
  const JsonValue* fig3 = parsed.value.Find("fig3_scalability");
  const JsonValue* table1 = parsed.value.Find("table1");
  ASSERT_NE(fig3, nullptr);
  ASSERT_NE(table1, nullptr);
  EXPECT_EQ(fig3->GetNumber("cells", 0), 48);
  EXPECT_EQ(fig3->GetNumber("jobs", 0), 4);
  EXPECT_EQ(table1->GetNumber("total_events", 0), 500);
  EXPECT_GT(fig3->GetNumber("events_per_second", -1), 0);
  EXPECT_DOUBLE_EQ(fig3->GetNumber("peak_rss_mb", -1), 61.5);
  EXPECT_EQ(fig3->GetNumber("arrivals", -1), 2900);
  EXPECT_EQ(fig3->GetNumber("vm_ops", -1), 7);
  EXPECT_EQ(table1->GetNumber("vote_rounds", -1), 0);
  // The schema stamp is emitted exactly once, never duplicated by the
  // keep-other-entries pass.
  EXPECT_EQ(parsed.value.GetNumber("schema_version", -1), kRunnerStatsSchemaVersion);
  int stamps = 0;
  for (const auto& [key, value] : parsed.value.members) {
    (void)value;
    stamps += key == "schema_version" ? 1 : 0;
  }
  EXPECT_EQ(stamps, 1);
}

}  // namespace
}  // namespace diablo
