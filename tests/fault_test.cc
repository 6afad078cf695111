// Tests for the fault-injection subsystem: schedule validation, the
// injector's execution of crash/partition/loss/straggler events, client
// retries, resilience metrics and determinism of faulty runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>

#include "src/config/spec.h"
#include "src/core/runner.h"
#include "src/fault/injector.h"
#include "src/fault/schedule.h"
#include "src/support/strings.h"
#include "tests/chain_run.h"

namespace diablo {
namespace {

// --- Schedule validation ---

TEST(FaultScheduleTest, BuilderProducesWellFormedEvents) {
  const FaultSchedule schedule = FaultScheduleBuilder()
                                     .Crash(0, Seconds(10), Seconds(30))
                                     .Partition({1, 2, 3}, Seconds(5), Seconds(40))
                                     .Loss(0.05, Seconds(50), Seconds(60))
                                     .Straggler(4, 0.25, Seconds(5), Seconds(10))
                                     .Build();
  ASSERT_EQ(schedule.events.size(), 4u);
  EXPECT_EQ(schedule.events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(schedule.events[0].node, 0);
  EXPECT_EQ(schedule.events[0].until, Seconds(30));
  EXPECT_EQ(schedule.events[1].nodes.size(), 3u);
  EXPECT_DOUBLE_EQ(schedule.events[2].loss_rate, 0.05);
  EXPECT_DOUBLE_EQ(schedule.events[3].cpu_factor, 0.25);
  std::string error;
  EXPECT_TRUE(schedule.Validate(10, &error)) << error;
}

TEST(FaultScheduleTest, RejectsMalformedTimes) {
  std::string error;
  FaultSchedule negative =
      FaultScheduleBuilder().Crash(0, Seconds(-1)).Build();
  EXPECT_FALSE(negative.Validate(10, &error));

  FaultSchedule backwards =
      FaultScheduleBuilder().Partition({0}, Seconds(20), Seconds(10)).Build();
  EXPECT_FALSE(backwards.Validate(10, &error));
  EXPECT_NE(error.find("heal time"), std::string::npos) << error;
}

TEST(FaultScheduleTest, RejectsUnknownHosts) {
  std::string error;
  FaultSchedule schedule = FaultScheduleBuilder().Crash(12, Seconds(1)).Build();
  EXPECT_FALSE(schedule.Validate(10, &error));
  EXPECT_NE(error.find("unknown host"), std::string::npos) << error;
  // Without a deployment bound yet, host indices are not range-checked.
  EXPECT_TRUE(schedule.Validate(-1, &error)) << error;
}

TEST(FaultScheduleTest, RejectsOutOfRangeRatesAndFactors) {
  std::string error;
  EXPECT_FALSE(
      FaultScheduleBuilder().Loss(1.5, Seconds(1)).Build().Validate(10, &error));
  EXPECT_FALSE(
      FaultScheduleBuilder().Loss(-0.1, Seconds(1)).Build().Validate(10, &error));
  EXPECT_FALSE(FaultScheduleBuilder()
                   .Straggler(0, 0.0, Seconds(1))
                   .Build()
                   .Validate(10, &error));
  EXPECT_FALSE(FaultScheduleBuilder()
                   .Straggler(0, 1.5, Seconds(1))
                   .Build()
                   .Validate(10, &error));
  // NaN fails every range check: a NaN loss rate would drop nothing.
  EXPECT_FALSE(
      FaultScheduleBuilder().Loss(NAN, Seconds(1)).Build().Validate(10, &error));
  EXPECT_NE(error.find("loss rate"), std::string::npos) << error;
  EXPECT_FALSE(FaultScheduleBuilder()
                   .Straggler(0, NAN, Seconds(1))
                   .Build()
                   .Validate(10, &error));
  EXPECT_FALSE(FaultScheduleBuilder()
                   .EquivocateFraction(NAN, Seconds(1), Seconds(2))
                   .Build()
                   .Validate(10, &error));
}

TEST(FaultScheduleTest, RejectsOverlappingWindowsOnSameScope) {
  std::string error;
  // Two crash windows on the same node, overlapping in time.
  FaultSchedule same_node = FaultScheduleBuilder()
                                .Crash(0, Seconds(10), Seconds(30))
                                .Crash(0, Seconds(20), Seconds(40))
                                .Build();
  EXPECT_FALSE(same_node.Validate(10, &error));
  EXPECT_NE(error.find("overlaps"), std::string::npos) << error;

  // Same windows on different nodes are fine.
  FaultSchedule different_nodes = FaultScheduleBuilder()
                                      .Crash(0, Seconds(10), Seconds(30))
                                      .Crash(1, Seconds(20), Seconds(40))
                                      .Build();
  EXPECT_TRUE(different_nodes.Validate(10, &error)) << error;

  // Two all-pair loss windows overlapping; and back-to-back ones are fine.
  FaultSchedule loss_overlap = FaultScheduleBuilder()
                                   .Loss(0.1, Seconds(0), Seconds(10))
                                   .Loss(0.2, Seconds(5), Seconds(15))
                                   .Build();
  EXPECT_FALSE(loss_overlap.Validate(10, &error));
  FaultSchedule loss_sequential = FaultScheduleBuilder()
                                      .Loss(0.1, Seconds(0), Seconds(10))
                                      .Loss(0.2, Seconds(10), Seconds(15))
                                      .Build();
  EXPECT_TRUE(loss_sequential.Validate(10, &error)) << error;
}

TEST(FaultScheduleTest, HealTimesAreSortedHealInstants) {
  const FaultSchedule schedule = FaultScheduleBuilder()
                                     .Partition({1}, Seconds(10), Seconds(40))
                                     .Crash(0, Seconds(5), Seconds(15))
                                     .Loss(0.1, Seconds(0))  // never heals
                                     .Build();
  const std::vector<SimTime> heals = schedule.HealTimes();
  ASSERT_EQ(heals.size(), 2u);
  EXPECT_EQ(heals[0], Seconds(15));
  EXPECT_EQ(heals[1], Seconds(40));
}

TEST(FaultScheduleTest, KindRowsDescribeTheirKindInKindOrder) {
  uint8_t bits_seen = 0;
  for (size_t i = 0; i < kFaultKindCount; ++i) {
    const FaultKindRow& row = kFaultKindRows[i];
    EXPECT_EQ(row.kind, static_cast<FaultKind>(i)) << row.name;
    EXPECT_STREQ(FaultKindName(row.kind), row.name);
    // Every key the row requires, or wants exactly one of, is one it takes.
    const auto takes = [&](std::string_view key) {
      return key.empty() ||
             std::find(row.keys.begin(), row.keys.end(), key) != row.keys.end();
    };
    for (const std::string_view key : row.required) {
      EXPECT_TRUE(takes(key)) << row.name << " " << key;
    }
    for (const std::string_view key : row.one_of) {
      EXPECT_TRUE(takes(key)) << row.name << " " << key;
    }
    // A Byzantine kind arms one bit of its own.
    EXPECT_EQ(IsByzantine(row.kind), row.adversary_bits != 0) << row.name;
    if (row.adversary_bits != 0) {
      EXPECT_EQ(std::popcount(row.adversary_bits), 1) << row.name;
      EXPECT_EQ(bits_seen & row.adversary_bits, 0) << row.name;
      bits_seen |= row.adversary_bits;
    }
  }
}

// --- Byzantine schedule construction and validation ---

TEST(FaultScheduleTest, ByzantineBuilderProducesWellFormedEvents) {
  const FaultSchedule schedule =
      FaultScheduleBuilder()
          .Equivocate({0}, Seconds(5), Seconds(15))
          .DoubleVoteFraction(0.2, Seconds(20), Seconds(30))
          .WithholdVotes({1, 2}, Seconds(35), Seconds(45))
          .Censor({3}, {0, 1, 2}, Seconds(50), Seconds(55))
          .LazyProposerFraction(0.1, Seconds(56), Seconds(58))
          .Build();
  ASSERT_EQ(schedule.events.size(), 5u);
  EXPECT_EQ(schedule.events[0].kind, FaultKind::kEquivocate);
  EXPECT_EQ(schedule.events[0].nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(schedule.events[1].fraction, 0.2);
  EXPECT_EQ(schedule.events[2].nodes.size(), 2u);
  EXPECT_EQ(schedule.events[3].censored_signers.size(), 3u);
  EXPECT_DOUBLE_EQ(schedule.events[4].fraction, 0.1);
  for (const FaultEvent& event : schedule.events) {
    EXPECT_TRUE(IsByzantine(event.kind)) << FaultKindName(event.kind);
  }
  std::string error;
  EXPECT_TRUE(schedule.Validate(10, &error)) << error;
}

TEST(FaultScheduleTest, ByzantineRejectsMalformedScopes) {
  std::string error;
  // Fraction out of range.
  EXPECT_FALSE(FaultScheduleBuilder()
                   .EquivocateFraction(0.0, Seconds(1), Seconds(2))
                   .Build()
                   .Validate(10, &error));
  EXPECT_FALSE(FaultScheduleBuilder()
                   .EquivocateFraction(1.0, Seconds(1), Seconds(2))
                   .Build()
                   .Validate(10, &error));
  // Both an explicit node set and a fraction (or neither) is ambiguous.
  FaultEvent both;
  both.kind = FaultKind::kDoubleVote;
  both.nodes = {0};
  both.fraction = 0.2;
  both.at = Seconds(1);
  both.until = Seconds(2);
  FaultSchedule ambiguous;
  ambiguous.events.push_back(both);
  EXPECT_FALSE(ambiguous.Validate(10, &error));
  EXPECT_NE(error.find("exactly one"), std::string::npos) << error;
  FaultEvent neither;
  neither.kind = FaultKind::kWithholdVotes;
  neither.at = Seconds(1);
  neither.until = Seconds(2);
  FaultSchedule empty_scope;
  empty_scope.events.push_back(neither);
  EXPECT_FALSE(empty_scope.Validate(10, &error));
  // Censorship needs a non-empty, non-negative signer set.
  EXPECT_FALSE(FaultScheduleBuilder()
                   .Censor({0}, {}, Seconds(1), Seconds(2))
                   .Build()
                   .Validate(10, &error));
  EXPECT_NE(error.find("signer"), std::string::npos) << error;
  EXPECT_FALSE(FaultScheduleBuilder()
                   .Censor({0}, {-1}, Seconds(1), Seconds(2))
                   .Build()
                   .Validate(10, &error));
  // Adversary node indices are range-checked like honest-fault ones.
  EXPECT_FALSE(FaultScheduleBuilder()
                   .Equivocate({42}, Seconds(1), Seconds(2))
                   .Build()
                   .Validate(10, &error));
}

TEST(FaultScheduleTest, RejectsZeroDurationWindows) {
  std::string error;
  FaultSchedule zero =
      FaultScheduleBuilder().Equivocate({0}, Seconds(5), Seconds(5)).Build();
  EXPECT_FALSE(zero.Validate(10, &error));
  EXPECT_NE(error.find("zero-duration"), std::string::npos) << error;
  FaultSchedule honest_zero =
      FaultScheduleBuilder().Loss(0.1, Seconds(5), Seconds(5)).Build();
  EXPECT_FALSE(honest_zero.Validate(10, &error));
  EXPECT_NE(error.find("zero-duration"), std::string::npos) << error;
}

TEST(FaultScheduleTest, FaultKindNamesAreExhaustiveAndDistinct) {
  // Every enumerator up to the kCount sentinel has a real name, and no two
  // kinds share one — a new kind without a FaultKindName entry fails here.
  std::vector<std::string> names;
  for (int kind = 0; kind < static_cast<int>(FaultKind::kCount); ++kind) {
    const char* name = FaultKindName(static_cast<FaultKind>(kind));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown") << "kind " << kind << " has no name";
    EXPECT_STRNE(name, "") << "kind " << kind << " has an empty name";
    for (const std::string& previous : names) {
      EXPECT_NE(previous, name) << "duplicate fault kind name";
    }
    names.push_back(name);
  }
  EXPECT_STREQ(FaultKindName(FaultKind::kCount), "unknown");
  // The Byzantine predicate splits the enum exactly where the enum says.
  EXPECT_FALSE(IsByzantine(FaultKind::kCrash));
  EXPECT_FALSE(IsByzantine(FaultKind::kStraggler));
  EXPECT_TRUE(IsByzantine(FaultKind::kEquivocate));
  EXPECT_TRUE(IsByzantine(FaultKind::kLazyProposer));
}

// --- Injector execution ---

TEST(FaultInjectorTest, CrashCausesViewChangesThenRecovery) {
  ChainRun run(GetChainParams("quorum"), "testnet", 3);
  run.SubmitTransfers(100, 30, 100);
  FaultInjector injector(
      FaultScheduleBuilder().Crash(0, Seconds(5), Seconds(15)).Build(),
      &run.chain->context());
  std::string error;
  ASSERT_TRUE(injector.Install(&error)) << error;
  run.Run(90);
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(injector.stats().restarts, 1u);
  // The dead leader costs round changes, but the rotation keeps committing.
  EXPECT_GT(run.chain->context().stats().view_changes, 0u);
  EXPECT_GE(run.Committed(), 2000u);
}

TEST(FaultInjectorTest, MajorityPartitionStallsUntilHeal) {
  ChainRun run(GetChainParams("quorum"), "testnet", 3);
  run.SubmitTransfers(100, 30, 100);
  FaultInjector injector(FaultScheduleBuilder()
                             .Partition({0, 1, 2, 3, 4, 5}, Seconds(5), Seconds(20))
                             .Build(),
                         &run.chain->context());
  std::string error;
  ASSERT_TRUE(injector.Install(&error)) << error;
  run.Run(90);
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_EQ(injector.stats().heals, 1u);
  // No quorum inside the window, full progress after the heal.
  const TxStore& txs = run.chain->context().txs();
  size_t inside = 0;
  size_t after = 0;
  for (TxId id = 0; id < txs.size(); ++id) {
    const Transaction& tx = txs.at(id);
    if (tx.phase != TxPhase::kCommitted) {
      continue;
    }
    if (tx.commit_time > Seconds(6) && tx.commit_time < Seconds(20)) {
      ++inside;
    } else if (tx.commit_time >= Seconds(20)) {
      ++after;
    }
  }
  EXPECT_EQ(inside, 0u);
  EXPECT_GT(after, 0u);
}

TEST(FaultInjectorTest, LossWindowRegistersDropsOnTheNetwork) {
  ChainRun run(GetChainParams("quorum"), "testnet", 3);
  run.SubmitTransfers(100, 10, 100);
  FaultInjector injector(
      FaultScheduleBuilder().Loss(0.3, Seconds(2), Seconds(8)).Build(),
      &run.chain->context());
  std::string error;
  ASSERT_TRUE(injector.Install(&error)) << error;
  run.Run(60);
  EXPECT_EQ(injector.stats().loss_windows, 1u);
  EXPECT_GT(run.net.stats().loss_drops, 0u);
  EXPECT_GT(run.Committed(), 0u);
}

TEST(FaultInjectorTest, StragglerSlowsButDoesNotStopTheChain) {
  ChainRun run(GetChainParams("quorum"), "testnet", 3);
  run.SubmitTransfers(100, 10, 100);
  FaultInjector injector(
      FaultScheduleBuilder().Straggler(0, 0.2, Seconds(0), Seconds(20)).Build(),
      &run.chain->context());
  std::string error;
  ASSERT_TRUE(injector.Install(&error)) << error;
  run.Run(60);
  EXPECT_EQ(injector.stats().stragglers, 1u);
  EXPECT_GE(run.Committed(), 800u);
}

TEST(FaultInjectorTest, InvalidScheduleFailsToInstall) {
  ChainRun run(GetChainParams("quorum"), "testnet", 3);
  FaultInjector injector(FaultScheduleBuilder().Crash(42, Seconds(1)).Build(),
                         &run.chain->context());
  std::string error;
  EXPECT_FALSE(injector.Install(&error));
  EXPECT_NE(error.find("unknown host"), std::string::npos) << error;
}

// --- Byzantine behavior through the engines ---

TEST(FaultInjectorTest, EquivocatingLeaderForcesViewChangesButCommits) {
  ChainRun run(GetChainParams("quorum"), "testnet", 3);
  run.SubmitTransfers(100, 20, 100);
  FaultInjector injector(
      FaultScheduleBuilder().Equivocate({0}, Seconds(2), Seconds(12)).Build(),
      &run.chain->context());
  std::string error;
  ASSERT_TRUE(injector.Install(&error)) << error;
  run.Run(60);
  EXPECT_EQ(injector.stats().equivocate_windows, 1u);
  const ChainStats& stats = run.chain->context().stats();
  // Every time node 0 held the leader slot in the window, honest replicas
  // detected the conflicting proposals and view-changed past it...
  EXPECT_GT(stats.equivocations_seen, 0u);
  EXPECT_GT(stats.view_changes, 0u);
  // ...and the rotation kept the chain live: safety costs rounds, not txs.
  EXPECT_GE(run.Committed(), 1500u);
}

TEST(FaultInjectorTest, WithholdingMinorityCommitsButMajorityStalls) {
  // IBFT quorum on the 10-node testnet is 7: three silent validators leave
  // 7 voters (commits continue); four leave 6 (no quorum in the window).
  auto committed_inside_window = [](int withholders) {
    ChainRun run(GetChainParams("quorum"), "testnet", 3);
    run.SubmitTransfers(100, 20, 100);
    std::vector<int> nodes;
    for (int i = 0; i < withholders; ++i) {
      nodes.push_back(i);
    }
    FaultInjector injector(FaultScheduleBuilder()
                               .WithholdVotes(nodes, Seconds(5), Seconds(15))
                               .Build(),
                           &run.chain->context());
    std::string error;
    EXPECT_TRUE(injector.Install(&error)) << error;
    run.Run(60);
    EXPECT_GT(run.chain->context().stats().votes_withheld, 0u);
    EXPECT_GT(run.Committed(), 0u);  // both recover after the disarm
    const TxStore& txs = run.chain->context().txs();
    size_t inside = 0;
    for (TxId id = 0; id < txs.size(); ++id) {
      const Transaction& tx = txs.at(id);
      if (tx.phase == TxPhase::kCommitted && tx.commit_time > Seconds(6) &&
          tx.commit_time < Seconds(15)) {
        ++inside;
      }
    }
    return inside;
  };
  EXPECT_GT(committed_inside_window(3), 0u);
  EXPECT_EQ(committed_inside_window(4), 0u);
}

TEST(FaultInjectorTest, DoubleVotingLeavesEvidenceWithoutChangingCommits) {
  auto run_with = [](bool double_voting) {
    ChainRun run(GetChainParams("quorum"), "testnet", 3);
    run.SubmitTransfers(100, 10, 100);
    std::unique_ptr<FaultInjector> injector;
    if (double_voting) {
      injector = std::make_unique<FaultInjector>(
          FaultScheduleBuilder()
              .DoubleVoteFraction(0.2, Seconds(2), Seconds(8))
              .Build(),
          &run.chain->context());
      std::string error;
      EXPECT_TRUE(injector->Install(&error)) << error;
    }
    run.Run(60);
    return std::make_pair(run.Committed(),
                          run.chain->context().stats().double_votes_seen);
  };
  const auto [honest_committed, honest_evidence] = run_with(false);
  const auto [byzantine_committed, byzantine_evidence] = run_with(true);
  // A second vote from the same validator is deduplicated by the quorum
  // rule, so the duplicate changes evidence counters and nothing else.
  EXPECT_EQ(honest_evidence, 0u);
  EXPECT_GT(byzantine_evidence, 0u);
  EXPECT_EQ(byzantine_committed, honest_committed);
}

TEST(FaultInjectorTest, CensorshipDelaysVictimsButHonestProposersRescue) {
  ChainRun run(GetChainParams("quorum"), "testnet", 3);
  run.SubmitTransfers(100, 10, 100);  // signed by accounts 0..99
  FaultInjector injector(FaultScheduleBuilder()
                             .Censor({0, 1, 2}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
                                     Seconds(1), Seconds(9))
                             .Build(),
                         &run.chain->context());
  std::string error;
  ASSERT_TRUE(injector.Install(&error)) << error;
  run.Run(60);
  EXPECT_EQ(injector.stats().censor_windows, 1u);
  const ChainStats& stats = run.chain->context().stats();
  EXPECT_GT(stats.txs_censored, 0u);
  // Censored transactions are requeued, not dropped: once an honest node
  // holds the proposer slot (or the window closes), everything commits.
  EXPECT_EQ(run.Committed(), 1000u);
}

TEST(FaultInjectorTest, LazyProposersSealEmptyBlocksAndSlowTheChain) {
  auto latency_with = [](bool lazy) {
    ChainRun run(GetChainParams("quorum"), "testnet", 3);
    run.SubmitTransfers(100, 10, 100);
    std::unique_ptr<FaultInjector> injector;
    if (lazy) {
      injector = std::make_unique<FaultInjector>(
          FaultScheduleBuilder()
              .LazyProposer({0, 1, 2}, Seconds(1), Seconds(9))
              .Build(),
          &run.chain->context());
      std::string error;
      EXPECT_TRUE(injector->Install(&error)) << error;
    }
    run.Run(60);
    EXPECT_EQ(run.Committed(), 1000u);  // liveness: honest slots catch up
    if (lazy) {
      EXPECT_GT(run.chain->context().stats().lazy_proposals, 0u);
    }
    // Aggregate commit delay: lazy slots defer work to later proposers.
    const TxStore& txs = run.chain->context().txs();
    double total = 0;
    for (TxId id = 0; id < txs.size(); ++id) {
      total += txs.at(id).LatencySeconds();
    }
    return total;
  };
  EXPECT_GT(latency_with(true), latency_with(false));
}

// DBFT's superblock takes its proposer-side adversary bits from the round's
// sampled representative. Runs redbelly with node `lazy_node` lazy from 10 s
// to 40 s; returns the lazy proposals and sets *window_rounds to the rounds
// proposed inside the window.
uint64_t DbftLazyRun(int lazy_node, uint64_t* window_rounds) {
  ChainRun run(GetChainParams("redbelly"), "testnet", 3);
  run.SubmitTransfers(100, 50, 100);
  FaultInjector injector(
      FaultScheduleBuilder().LazyProposer({lazy_node}, Seconds(10), Seconds(40)).Build(),
      &run.chain->context());
  std::string error;
  EXPECT_TRUE(injector.Install(&error)) << error;
  run.Run(60);
  const Ledger& ledger = run.chain->context().ledger();
  *window_rounds = 0;
  for (size_t i = 0; i < ledger.block_count(); ++i) {
    const SimTime proposed = ledger.block(i).proposed_at;
    if (proposed >= Seconds(10) && proposed < Seconds(40)) {
      ++*window_rounds;
    }
  }
  return run.chain->context().stats().lazy_proposals;
}

TEST(FaultInjectorTest, DbftLazyWindowOnAnyNodeEmptiesSomeRounds) {
  uint64_t window_rounds = 0;
  EXPECT_GT(DbftLazyRun(3, &window_rounds), 0u);
  EXPECT_GT(window_rounds, 0u);
}

TEST(FaultInjectorTest, DbftLazyNodeEmptiesOnlyTheRoundsItRepresents) {
  // One lazy node in ten represents about a tenth of the rounds; it must
  // not blank the whole window.
  uint64_t window_rounds = 0;
  const uint64_t lazy = DbftLazyRun(0, &window_rounds);
  EXPECT_GT(window_rounds, 0u);
  EXPECT_LT(2 * lazy, window_rounds);
}

// --- Full-stack fault runs (primary + clients + resilience metrics) ---

TEST(FaultRunTest, PartitionHealYieldsRecoveryMetrics) {
  const FaultSchedule faults = FaultScheduleBuilder()
                                   .Partition({0, 1, 2, 3, 4, 5}, Seconds(10),
                                              Seconds(30))
                                   .Build();
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.timeout = Seconds(2);
  const RunResult result =
      RunFaultBenchmark("quorum", "testnet", 100, 45, faults, retry, /*seed=*/1);
  ASSERT_TRUE(result.failure_reason.empty()) << result.failure_reason;
  const Report& report = result.report;
  EXPECT_TRUE(report.resilience);
  // The partition dents some submit-second's commit ratio...
  EXPECT_LT(report.min_interval_commit_ratio, 1.0);
  // ...and the chain recovers after the heal.
  ASSERT_EQ(report.recoveries.size(), 1u);
  EXPECT_GE(report.recoveries[0], 0.0);
  EXPECT_LT(report.recoveries[0], 30.0);
  EXPECT_EQ(report.interval_commit_ratio.size(),
            report.submitted_per_second.size());
}

TEST(FaultRunTest, RetriesImproveCommitRatioUnderEndpointCrash) {
  // Node 0 dies for good. Clients see every node (the spec's ".*" view):
  // without retries the submissions routed to node 0 are lost; with retries
  // the next attempt rotates to a live endpoint and commits.
  const FaultSchedule faults =
      FaultScheduleBuilder().Crash(0, Seconds(5)).Build();
  auto run = [&](const RetryPolicy& retry) {
    BenchmarkSetup setup;
    setup.chain = "ethereum";
    setup.deployment = "testnet";
    setup.seed = 1;
    setup.faults = faults;
    setup.retry = retry;
    Primary primary(setup);
    WorkStream stream;
    stream.workload.trace = ConstantTrace(100, 30);
    stream.endpoints = {".*"};
    std::vector<WorkStream> streams;
    streams.push_back(std::move(stream));
    return primary.RunStreams(std::move(streams), "retry-test");
  };
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.timeout = Seconds(1);
  const RunResult without = run(RetryPolicy{});
  const RunResult with = run(retry);
  EXPECT_GT(with.report.client_retries, 0u);
  EXPECT_GT(with.report.commit_ratio, without.report.commit_ratio);
}

TEST(FaultRunTest, SingleEndpointClientsAbortAfterBoundedAttempts) {
  // With a one-node view there is nowhere to walk: every retry re-hits the
  // dead endpoint, so the client aborts after its attempt budget.
  const FaultSchedule faults =
      FaultScheduleBuilder().Crash(0, Seconds(5)).Build();
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.timeout = Seconds(1);
  const RunResult result = RunFaultBenchmark("ethereum", "testnet", 100, 30,
                                             faults, retry, /*seed=*/1);
  EXPECT_GT(result.report.client_retries, 0u);
  EXPECT_GT(result.report.client_aborts, 0u);
}

TEST(FaultRunTest, InvalidScheduleSurfacesAsFailureReason) {
  const FaultSchedule faults =
      FaultScheduleBuilder().Crash(42, Seconds(1)).Build();
  const RunResult result = RunFaultBenchmark("quorum", "testnet", 50, 10, faults,
                                             RetryPolicy{}, /*seed=*/1);
  EXPECT_NE(result.failure_reason.find("unknown host"), std::string::npos)
      << result.failure_reason;
}

TEST(FaultRunTest, CensoredSignersOutsideTheRunsAccountsFailBeforeTheRun) {
  // A signer id past the run's accounts used to censor no one silently: this
  // run committed 6,000 of 6,000. The file binds 100 accounts, but only an
  // !invoke behavior reads `from:`, so the transfers sign from the setup's
  // 2,000 accounts, and 2,000 is the first id outside them.
  for (const int signer : {999999, 2000}) {
    const SpecResult spec = ParseWorkloadSpec(StrFormat(R"(let:
  - &acc { sample: !account { number: 100 } }
workloads:
  - number: 1
    client:
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
          load:
            0: 100
            60: 0
faults:
  - censor: { nodes: [0], signers: [%d], from: 1, to: 50 }
)",
                                                        signer));
    ASSERT_TRUE(spec.ok) << spec.error;
    BenchmarkSetup setup;
    setup.chain = "quorum";
    setup.deployment = "testnet";
    const RunResult result = Primary(setup).RunSpec(spec.spec);
    EXPECT_EQ(result.failure_reason,
              StrFormat("fault schedule: censor fault at t=1.000s: unknown signer: "
                        "account %d of a 2000-account run (line 13)",
                        signer));
    EXPECT_EQ(result.report.submitted, 0u);
    EXPECT_EQ(result.events_executed, 0u);
  }
  // The last account is a signer the run has.
  const FaultSchedule faults =
      FaultScheduleBuilder().Censor({0}, {1999}, Seconds(1), Seconds(5)).Build();
  const RunResult result =
      RunFaultBenchmark("quorum", "testnet", 20, 5, faults, RetryPolicy{}, /*seed=*/1);
  EXPECT_TRUE(result.failure_reason.empty()) << result.failure_reason;
  EXPECT_EQ(result.report.submitted, 100u);
}

TEST(FaultRunTest, FaultRunsAreDeterministic) {
  const FaultSchedule faults = FaultScheduleBuilder()
                                   .Crash(0, Seconds(5), Seconds(15))
                                   .Loss(0.05, Seconds(20), Seconds(25))
                                   .Build();
  RetryPolicy retry;
  retry.max_attempts = 3;
  auto run = [&] {
    return RunFaultBenchmark("quorum", "testnet", 100, 30, faults, retry,
                             /*seed=*/7);
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_EQ(a.report.submitted, b.report.submitted);
  EXPECT_EQ(a.report.committed, b.report.committed);
  EXPECT_EQ(a.report.dropped, b.report.dropped);
  EXPECT_EQ(a.report.view_changes, b.report.view_changes);
  EXPECT_EQ(a.report.client_retries, b.report.client_retries);
  EXPECT_EQ(a.report.client_aborts, b.report.client_aborts);
  EXPECT_EQ(a.report.avg_throughput, b.report.avg_throughput);
  EXPECT_EQ(a.report.avg_latency, b.report.avg_latency);
  EXPECT_EQ(a.report.recoveries, b.report.recoveries);
}

TEST(FaultRunTest, ByzantineRunsAreDeterministic) {
  const FaultSchedule faults = FaultScheduleBuilder()
                                   .EquivocateFraction(0.2, Seconds(5), Seconds(15))
                                   .WithholdVotesFraction(0.2, Seconds(20),
                                                          Seconds(25))
                                   .Build();
  RetryPolicy retry;
  retry.max_attempts = 3;
  auto run = [&] {
    return RunFaultBenchmark("quorum", "testnet", 100, 30, faults, retry,
                             /*seed=*/7);
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_TRUE(a.report.byzantine);
  EXPECT_EQ(a.report.submitted, b.report.submitted);
  EXPECT_EQ(a.report.committed, b.report.committed);
  EXPECT_EQ(a.report.view_changes, b.report.view_changes);
  EXPECT_EQ(a.report.equivocations_seen, b.report.equivocations_seen);
  EXPECT_EQ(a.report.votes_withheld, b.report.votes_withheld);
  EXPECT_EQ(a.report.avg_throughput, b.report.avg_throughput);
  EXPECT_EQ(a.report.avg_latency, b.report.avg_latency);
}

TEST(FaultRunTest, ByzantineScheduleTurnsOnTheByzantineReport) {
  // The extra report fields only appear when a schedule carries a
  // Byzantine kind — honest-fault runs keep the exact legacy shape.
  const FaultSchedule honest =
      FaultScheduleBuilder().Crash(0, Seconds(5), Seconds(10)).Build();
  RetryPolicy retry;
  retry.max_attempts = 2;
  const RunResult crash_only = RunFaultBenchmark("quorum", "testnet", 50, 15,
                                                 honest, retry, /*seed=*/1);
  EXPECT_TRUE(crash_only.report.resilience);
  EXPECT_FALSE(crash_only.report.byzantine);

  const FaultSchedule byzantine =
      FaultScheduleBuilder().LazyProposer({0}, Seconds(5), Seconds(10)).Build();
  const RunResult lazy = RunFaultBenchmark("quorum", "testnet", 50, 15,
                                           byzantine, retry, /*seed=*/1);
  EXPECT_TRUE(lazy.report.byzantine);
}

TEST(FaultRunTest, EmptyScheduleMatchesHealthyRunExactly) {
  // The fault machinery must be zero-cost when inactive: a run with an empty
  // schedule and retries disabled is bit-identical to the plain benchmark.
  const RunResult healthy =
      RunNativeBenchmark("quorum", "testnet", 100, 20, /*seed=*/5);
  const RunResult gated = RunFaultBenchmark("quorum", "testnet", 100, 20,
                                            FaultSchedule{}, RetryPolicy{},
                                            /*seed=*/5);
  EXPECT_EQ(healthy.report.submitted, gated.report.submitted);
  EXPECT_EQ(healthy.report.committed, gated.report.committed);
  EXPECT_EQ(healthy.report.avg_throughput, gated.report.avg_throughput);
  EXPECT_EQ(healthy.report.avg_latency, gated.report.avg_latency);
  EXPECT_EQ(healthy.report.max_latency, gated.report.max_latency);
  EXPECT_FALSE(gated.report.resilience);
}

}  // namespace
}  // namespace diablo
