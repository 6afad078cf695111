// Randomized property tests: the interpreter must never crash, hang or
// corrupt state on arbitrary bytecode; the YAML parser must reject or parse
// arbitrary text without crashing; the mempool must preserve its accounting
// invariants under random operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/chain/mempool.h"
#include "src/config/spec.h"
#include "src/config/yaml.h"
#include "src/core/parallel_runner.h"
#include "src/core/runner.h"
#include "src/fault/schedule.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/vm/assembler.h"
#include "src/vm/interpreter.h"

namespace diablo {
namespace {

class VmFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmFuzzTest, RandomBytecodeNeverCrashes) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    Program program;
    program.name = "fuzz";
    const size_t length = 1 + rng.NextBelow(64);
    for (size_t i = 0; i < length; ++i) {
      program.code.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
    }
    program.functions.push_back(
        FunctionEntry{"f", static_cast<uint32_t>(rng.NextBelow(length))});

    ContractState state;
    ExecRequest request;
    request.program = &program;
    request.function = "f";
    request.state = &state;
    // The AVM budget caps runaway loops quickly.
    request.dialect = static_cast<VmDialect>(rng.NextBelow(4));
    const ExecResult result = Execute(request);
    // Whatever happened, accounting is sane.
    EXPECT_GE(result.gas_used, 0);
    EXPECT_GE(result.ops_executed, 0);
  }
}

TEST_P(VmFuzzTest, RandomValidProgramsTerminate) {
  // Assemble random but well-formed instruction streams (no jumps, so they
  // always terminate) and check stack errors are reported, never UB.
  Rng rng(GetParam() ^ 0xabcdef);
  const char* ops[] = {"push 1", "push -3", "pop",    "dup 0", "swap 1",   "add",
                       "sub",    "mul",     "div",    "mod",   "lt",       "gt",
                       "eq",     "not",     "caller", "arg 0", "argcount", "push -1",
                       "push -9223372036854775808"};
  for (int round = 0; round < 200; ++round) {
    std::string source = ".func f\n";
    const size_t length = 1 + rng.NextBelow(30);
    for (size_t i = 0; i < length; ++i) {
      source += std::string(ops[rng.NextBelow(std::size(ops))]) + "\n";
    }
    source += "stop\n";
    const AssembleResult assembled = Assemble("fuzz", source);
    ASSERT_TRUE(assembled.ok) << assembled.error;
    ExecRequest request;
    request.program = &assembled.program;
    request.function = "f";
    const std::vector<int64_t> args = {7};
    request.args = args;
    const ExecResult result = Execute(request);
    EXPECT_TRUE(result.status == VmStatus::kOk ||
                result.status == VmStatus::kStackUnderflow ||
                result.status == VmStatus::kDivisionByZero)
        << VmStatusName(result.status);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmFuzzTest, ::testing::Values(1, 2, 3, 4, 5));

class YamlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(YamlFuzzTest, RandomTextNeverCrashes) {
  Rng rng(GetParam());
  const char alphabet[] = "abz: -!&*{}[]\"'\n\t #0123456789.";
  for (int round = 0; round < 300; ++round) {
    std::string text;
    const size_t length = rng.NextBelow(200);
    for (size_t i = 0; i < length; ++i) {
      text.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    const YamlResult result = ParseYaml(text);
    if (!result.ok) {
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST_P(YamlFuzzTest, StructuredMutationsNeverCrash) {
  // Mutate a valid document: truncations and single-character changes.
  const std::string base =
      "let:\n  - &a { k: !tag [ 1, \"two\" ] }\nworkloads:\n  - number: 3\n"
      "    client:\n      view: *a\n      behavior:\n        - interaction: !invoke\n"
      "          load:\n            0: 10\n";
  Rng rng(GetParam() ^ 0x5eed);
  for (size_t cut = 0; cut < base.size(); cut += 3) {
    ParseYaml(base.substr(0, cut));
  }
  for (int round = 0; round < 200; ++round) {
    std::string mutated = base;
    mutated[rng.NextBelow(mutated.size())] =
        static_cast<char>(32 + rng.NextBelow(95));
    ParseYaml(mutated);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, YamlFuzzTest, ::testing::Values(11, 22, 33));

// A rejection of `text` ends in "(line N)", where N is one of its lines.
void ExpectRejectionNamesALine(const std::string& text, const std::string& error) {
  const size_t open = error.rfind("(line ");
  int64_t line = 0;
  ASSERT_TRUE(open != std::string::npos && error.back() == ')' &&
              ParseInt64(error.substr(open + 6, error.size() - open - 7), &line))
      << text << "\n" << error;
  EXPECT_GE(line, 1) << text << "\n" << error;
  EXPECT_LE(line, 1 + std::count(text.begin(), text.end(), '\n')) << text << "\n" << error;
}

class FaultSpecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultSpecFuzzTest, MutatedFaultSectionsNeverCrash) {
  // Truncations and single-character mutations of a valid `faults:` section
  // must parse cleanly or produce a diagnostic — never crash or accept
  // silently-broken schedules (Validate runs at parse time).
  const std::string base =
      "workloads:\n  - client:\n      behavior:\n        - interaction: !transfer\n"
      "          load:\n            0: 10\n            30: 0\n"
      "faults:\n"
      "  - crash: { node: 0, at: 10, restart: 30 }\n"
      "  - partition: { nodes: [1, 2], from: 10, to: 40 }\n"
      "  - loss: { rate: 0.05, from: 45, to: 50 }\n"
      "  - straggler: { node: 4, cpu_factor: 0.5, from: 5, to: 20 }\n";
  ASSERT_TRUE(ParseWorkloadSpec(base).ok) << ParseWorkloadSpec(base).error;
  Rng rng(GetParam() ^ 0xfa017);
  for (size_t cut = 0; cut < base.size(); cut += 3) {
    const SpecResult result = ParseWorkloadSpec(base.substr(0, cut));
    if (!result.ok) {
      ExpectRejectionNamesALine(base.substr(0, cut), result.error);
    }
  }
  for (int round = 0; round < 300; ++round) {
    std::string mutated = base;
    mutated[rng.NextBelow(mutated.size())] =
        static_cast<char>(32 + rng.NextBelow(95));
    const SpecResult result = ParseWorkloadSpec(mutated);
    if (!result.ok) {
      ExpectRejectionNamesALine(mutated, result.error);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSpecFuzzTest, ::testing::Values(7, 8, 9));

class ByzantineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ByzantineFuzzTest, MutatedByzantineSectionsNeverCrash) {
  // Same contract as the honest-fault mutator: truncations and point
  // mutations of a Byzantine `faults:` section parse or reject with a
  // diagnostic — never crash, never accept a schedule Validate would not.
  const std::string base =
      "workloads:\n  - client:\n      behavior:\n        - interaction: !transfer\n"
      "          load:\n            0: 10\n            30: 0\n"
      "faults:\n"
      "  - equivocate: { nodes: [0], from: 2, to: 8 }\n"
      "  - double-vote: { fraction: 0.2, from: 10, to: 14 }\n"
      "  - withhold: { nodes: [1, 2], from: 16, to: 20 }\n"
      "  - censor: { nodes: [3], signers: [0, 1], from: 22, to: 25 }\n"
      "  - lazy: { fraction: 0.1, from: 26, to: 28 }\n";
  ASSERT_TRUE(ParseWorkloadSpec(base).ok) << ParseWorkloadSpec(base).error;
  Rng rng(GetParam() ^ 0xb12a47);
  for (size_t cut = 0; cut < base.size(); cut += 3) {
    const SpecResult result = ParseWorkloadSpec(base.substr(0, cut));
    if (!result.ok) {
      ExpectRejectionNamesALine(base.substr(0, cut), result.error);
    }
  }
  for (int round = 0; round < 300; ++round) {
    std::string mutated = base;
    mutated[rng.NextBelow(mutated.size())] =
        static_cast<char>(32 + rng.NextBelow(95));
    const SpecResult result = ParseWorkloadSpec(mutated);
    if (!result.ok) {
      ExpectRejectionNamesALine(mutated, result.error);
    } else {
      std::string error;
      EXPECT_TRUE(result.spec.faults.Validate(-1, &error)) << error;
    }
  }
}

TEST_P(ByzantineFuzzTest, RandomSchedulesParseOrRejectCleanly) {
  // Assemble random Byzantine entries — kinds, scopes (explicit nodes, a
  // fraction, both, or neither), window shapes (forward, zero-width,
  // backwards), censor signer lists present or absent. Whatever comes out,
  // the parser either accepts a schedule that re-validates or rejects with
  // a non-empty diagnostic.
  const char* kinds[] = {"equivocate", "double-vote", "withhold", "censor",
                         "lazy"};
  Rng rng(GetParam() ^ 0x5ca1ab1e);
  for (int round = 0; round < 300; ++round) {
    std::string text =
        "workloads:\n  - client:\n      behavior:\n"
        "        - interaction: !transfer\n          load:\n"
        "            0: 10\n            30: 0\n"
        "faults:\n";
    const size_t entries = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < entries; ++i) {
      const char* kind = kinds[rng.NextBelow(std::size(kinds))];
      std::string body;
      const uint64_t scope = rng.NextBelow(4);
      if (scope == 0 || scope == 2) {
        body += StrFormat("nodes: [%d], ", static_cast<int>(rng.NextBelow(12)));
      }
      if (scope == 1 || scope == 2) {
        body += StrFormat("fraction: %.2f, ",
                          -0.5 + 0.25 * static_cast<double>(rng.NextBelow(8)));
      }
      if (rng.NextBelow(3) != 0) {  // sometimes omit signers even for censor
        body += StrFormat("signers: [%d], ", static_cast<int>(rng.NextBelow(5)));
      }
      const int from = static_cast<int>(rng.NextBelow(30));
      const int to = from - 2 + static_cast<int>(rng.NextBelow(8));
      text += StrFormat("  - %s: { %sfrom: %d, to: %d }\n", kind, body.c_str(),
                        from, to);
    }
    const SpecResult result = ParseWorkloadSpec(text);
    if (!result.ok) {
      ExpectRejectionNamesALine(text, result.error);
    } else {
      std::string error;
      EXPECT_TRUE(result.spec.faults.Validate(-1, &error)) << text << error;
      EXPECT_EQ(result.spec.faults.events.size(), entries) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByzantineFuzzTest,
                         ::testing::Values(41, 42, 43));

TEST(ByzantineFuzzTest, InjectorIsDeterministicAcrossRunnerJobs) {
  // A randomly chosen (but fixed-seed) Byzantine schedule produces
  // bit-identical reports whether the cells run inline or on four workers:
  // adversary resolution is a pure function of the schedule and the
  // deployment, never of thread identity.
  const FaultSchedule faults =
      FaultScheduleBuilder()
          .EquivocateFraction(0.2, Seconds(3), Seconds(9))
          .WithholdVotes({1, 2, 3}, Seconds(12), Seconds(18))
          .Censor({0}, {0, 1, 2, 3, 4}, Seconds(20), Seconds(24))
          .Build();
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.timeout = Seconds(1);
  auto sweep = [&](int jobs) {
    ParallelRunner runner(jobs);
    std::vector<ExperimentCell> cells;
    for (const char* chain : {"quorum", "diem", "redbelly"}) {
      const std::string name = chain;
      cells.push_back({name, [name, &faults, &retry] {
                         return RunFaultBenchmark(name, "testnet", 50, 30,
                                                  faults, retry, /*seed=*/3);
                       }});
    }
    return runner.Run(std::move(cells));
  };
  const std::vector<RunResult> serial = sweep(1);
  const std::vector<RunResult> parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].report.ToText(), parallel[i].report.ToText()) << i;
    EXPECT_EQ(serial[i].report.equivocations_seen,
              parallel[i].report.equivocations_seen);
    EXPECT_EQ(serial[i].report.votes_withheld, parallel[i].report.votes_withheld);
    EXPECT_EQ(serial[i].report.txs_censored, parallel[i].report.txs_censored);
  }
}

TEST(MempoolFuzzTest, RandomChurnPreservesInvariants) {
  Rng rng(77);
  for (int config_round = 0; config_round < 8; ++config_round) {
    MempoolConfig config;
    config.global_cap = rng.NextBelow(2) == 0 ? 0 : 50 + rng.NextBelow(100);
    config.per_signer_cap = rng.NextBelow(2) == 0 ? 0 : 1 + rng.NextBelow(10);
    config.ttl = rng.NextBelow(2) == 0 ? 0 : Seconds(5);
    config.evict_on_full = rng.NextBelow(2) == 0;
    Rng pool_rng = rng.Fork();
    Mempool pool(config, &pool_rng);

    size_t alive = 0;  // our own accounting of the live population
    SimTime now = 0;
    TxId next = 0;
    for (int step = 0; step < 2000; ++step) {
      now += static_cast<SimTime>(rng.NextBelow(Milliseconds(200)));
      if (rng.NextBelow(3) != 0) {
        TxId evicted = kInvalidTx;
        const AdmitResult result =
            pool.Add(next, static_cast<uint32_t>(rng.NextBelow(20)), now,
                     now + static_cast<SimTime>(rng.NextBelow(Seconds(1))), &evicted);
        if (result == AdmitResult::kAdmitted) {
          ++alive;
        }
        if (evicted != kInvalidTx) {
          --alive;
        }
        ++next;
      } else {
        std::vector<TxId> expired;
        const auto taken = pool.TakeReady(now, 0, 0, 1 + rng.NextBelow(20),
                                          [](TxId) { return 21000; },
                                          [](TxId) { return 110; }, &expired);
        alive -= taken.size() + expired.size();
      }
      ASSERT_EQ(pool.size(), alive) << "config round " << config_round;
      if (config.global_cap > 0) {
        ASSERT_LE(pool.size(), config.global_cap);
      }
    }
  }
}

}  // namespace
}  // namespace diablo
