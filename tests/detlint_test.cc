// Locks the determinism linter's rule behavior against the fixture corpus in
// tests/detlint_fixtures/: each rule D1–D5 must fire on its known violation
// at the exact line, each suppressed variant must be marked suppressed, and
// malformed suppressions (no reason, or no such rule) must surface as SUP
// findings without suppressing.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "tools/detlint/lint.h"

namespace diablo::detlint {
namespace {

// (rule, line, suppressed) triples in file order.
using Triple = std::tuple<std::string, int, bool>;

std::string FixturePath(const std::string& fixture) {
  return std::string(DETLINT_FIXTURE_DIR) + "/" + fixture;
}

std::vector<Triple> Triples(const LintResult& result) {
  std::vector<Triple> out;
  for (const Finding& f : result.findings) {
    out.emplace_back(f.rule, f.line, f.suppressed);
  }
  return out;
}

std::vector<Triple> Lint(const std::string& fixture) {
  return Triples(LintFile(FixturePath(fixture)));
}

TEST(Detlint, D1FiresOnUnorderedIterationAndHonorsSuppression) {
  const auto got = Lint("d1_unordered_iteration.cc");
  const std::vector<Triple> want = {
      {"D1", 8, false},   // range-for over unordered_map
      {"D1", 11, false},  // counts.begin()
      {"D1", 14, true},   // suppressed range-for
  };
  EXPECT_EQ(got, want);
}

TEST(Detlint, D2FiresOnWallClockAndLibcEntropy) {
  const auto got = Lint("d2_wall_clock.cc");
  const std::vector<Triple> want = {
      {"D2", 6, false},   // steady_clock
      {"D2", 11, false},  // rand()
      {"D2", 17, true},   // suppressed system_clock
  };
  EXPECT_EQ(got, want);
}

TEST(Detlint, D3FiresOnPointerKeysAndPointerCasts) {
  const auto got = Lint("d3_pointer_keys.cc");
  const std::vector<Triple> want = {
      {"D3", 8, false},   // std::map<Node*, ...>
      {"D3", 11, false},  // reinterpret_cast<uint64_t>(ptr)
      {"D3", 15, true},   // suppressed unordered_map<Node*, ...>
  };
  EXPECT_EQ(got, want);
}

TEST(Detlint, D4FiresOnSharedRngDrawsButNotForkedReceivers) {
  const auto got = Lint("d4_shared_rng.cc");
  const std::vector<Triple> want = {
      {"D4", 11, false},  // engine->rng().NextU64()
      {"D4", 15, false},  // static Rng
      {"D4", 24, true},   // suppressed draw
      // line 18 (ctx->rng()) is absent: ctx is an allowlisted forked stream
  };
  EXPECT_EQ(got, want);
}

TEST(Detlint, D5FiresOnFloatAccumulationInsideUnorderedLoops) {
  const auto got = Lint("d5_float_accumulation.cc");
  const std::vector<Triple> want = {
      {"D1", 7, false},  // the loop itself
      {"D5", 8, false},  // total += inside it
      {"D1", 17, true},  // suppressed loop
      {"D5", 19, true},  // suppressed accumulation
  };
  EXPECT_EQ(got, want);
}

// --- Raw string literals ---------------------------------------------------

TEST(Detlint, RawStringsAreDataIncludingPrefixedForms) {
  const auto got = Lint("raw_string.cc");
  const std::vector<Triple> want = {
      {"D2", 15, true},  // the real rand(), suppressed by the directive the
                         // v1 prefix bug would have swallowed
      // nothing fires for rand()/steady_clock/unordered_map<int*,...> inside
      // the raw strings on lines 5-10, prefixed or not
  };
  EXPECT_EQ(got, want);
}

TEST(Detlint, RawStringDelimitersAndEmbeddedQuotesDoNotDesyncTheLexer) {
  const LintResult result = LintSource("raw.cc", R"outer(
    const char* a = uR"(first " embedded quote, rand() is data)";
    const char* b = R"d(second with )" decoy closer, time(nullptr))d";
    int Live() { return 1 + clock(); }
  )outer");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "D2");
  EXPECT_EQ(result.findings[0].line, 4);  // proves line counting stayed true
}

// --- Plumbing --------------------------------------------------------------

TEST(Detlint, ReasonlessSuppressionIsAFindingAndSuppressesNothing) {
  const auto got = Lint("sup_missing_reason.cc");
  const std::vector<Triple> want = {
      {"SUP", 6, false},  // allow(D2) with no reason
      {"D2", 7, false},   // ...which therefore does not cover the rand()
  };
  EXPECT_EQ(got, want);
}

TEST(Detlint, UnknownRuleSuppressionIsAFindingAndSuppressesNothing) {
  const auto got = Lint("sup_unknown_rule.cc");
  const std::vector<Triple> want = {
      {"SUP", 6, false},  // standalone allow(D7): no such rule
      {"D2", 7, false},   // ...which therefore does not cover the rand()
      {"D2", 8, false},   // inline allow(d2) does not cover its own line
      {"SUP", 8, false},  // ...and is reported: rule ids are case-sensitive
  };
  EXPECT_EQ(got, want);
}

TEST(Detlint, CountUnsuppressedIgnoresSuppressedFindings) {
  const LintResult result = LintFile(FixturePath("d5_float_accumulation.cc"));
  EXPECT_EQ(result.findings.size(), 4u);
  EXPECT_EQ(CountUnsuppressed(result), 2u);
}

TEST(Detlint, FormatFindingCarriesFileLineRuleAndHint) {
  Finding f{"src/foo.cc", 12, "D1", "range-for over an unordered container",
            "iterate a sorted copy", false, {}};
  EXPECT_EQ(FormatFinding(f),
            "src/foo.cc:12: [D1] range-for over an unordered container "
            "(hint: iterate a sorted copy)");
  f.suppressed = true;
  f.suppress_reason = "fixture";
  EXPECT_EQ(FormatFinding(f),
            "src/foo.cc:12: [D1] range-for over an unordered container "
            "[suppressed: fixture]");
}

TEST(Detlint, FindingsAsJsonEscapesStrings) {
  LintResult result;
  result.findings.push_back(
      Finding{"src/a \"b\".cc", 7, "D4", "msg\nline", "hint", false, ""});
  const std::string json = FindingsAsJson(result);
  EXPECT_EQ(json,
            "{\"findings\":[{\"file\":\"src/a \\\"b\\\".cc\",\"line\":7,"
            "\"rule\":\"D4\",\"message\":\"msg\\nline\",\"hint\":\"hint\","
            "\"suppressed\":false,\"reason\":\"\"}]}");
}

TEST(Detlint, CleanSourceProducesNoFindings) {
  const LintResult result = LintSource("clean.cc", R"cc(
    #include <vector>
    int Sum(const std::vector<int>& xs) {
      int total = 0;
      for (const int x : xs) {
        total += x;
      }
      return total;
    }
  )cc");
  EXPECT_TRUE(result.findings.empty());
}

TEST(Detlint, CommentsAndStringsDoNotTriggerRules) {
  const LintResult result = LintSource("strings.cc", R"cc(
    // steady_clock in a comment is fine, as is rand() here.
    /* std::unordered_map<int*, int> in a block comment too */
    const char* kMessage = "calling rand() or steady_clock::now()";
  )cc");
  EXPECT_TRUE(result.findings.empty());
}

}  // namespace
}  // namespace diablo::detlint
