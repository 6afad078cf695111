#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/config/spec.h"
#include "src/config/yaml.h"
#include "src/support/strings.h"

namespace diablo {
namespace {

// The gaming DApp configuration of §4, verbatim.
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

TEST(YamlTest, ScalarsAndNesting) {
  const YamlResult result = ParseYaml("a: 1\nb:\n  c: hello\n  d: 2.5\n");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.root.IsMap());
  EXPECT_EQ(result.root.GetInt("a", 0), 1);
  const YamlNode* b = result.root.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->GetString("c", ""), "hello");
  double d = 0;
  EXPECT_TRUE(b->Find("d")->AsDouble(&d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(result.root.Find("zzz"), nullptr);
}

TEST(YamlTest, BlockSequences) {
  const YamlResult result = ParseYaml("items:\n  - one\n  - two\n  - 3\n");
  ASSERT_TRUE(result.ok) << result.error;
  const YamlNode* items = result.root.Find("items");
  ASSERT_TRUE(items->IsList());
  ASSERT_EQ(items->items.size(), 3u);
  EXPECT_EQ(items->items[0].scalar, "one");
  int64_t three = 0;
  EXPECT_TRUE(items->items[2].AsInt64(&three));
  EXPECT_EQ(three, 3);
}

TEST(YamlTest, CompactMappingItems) {
  const YamlResult result =
      ParseYaml("list:\n  - name: a\n    size: 1\n  - name: b\n    size: 2\n");
  ASSERT_TRUE(result.ok) << result.error;
  const YamlNode* list = result.root.Find("list");
  ASSERT_TRUE(list->IsList());
  ASSERT_EQ(list->items.size(), 2u);
  EXPECT_EQ(list->items[0].GetString("name", ""), "a");
  EXPECT_EQ(list->items[1].GetInt("size", 0), 2);
}

TEST(YamlTest, FlowCollections) {
  const YamlResult result = ParseYaml(R"(inline: { a: 1, b: [x, "y z", 3] })");
  ASSERT_TRUE(result.ok) << result.error;
  const YamlNode* node = result.root.Find("inline");
  ASSERT_TRUE(node->IsMap());
  EXPECT_EQ(node->GetInt("a", 0), 1);
  const YamlNode* b = node->Find("b");
  ASSERT_TRUE(b->IsList());
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_EQ(b->items[1].scalar, "y z");
}

TEST(YamlTest, AnchorsAndAliases) {
  const YamlResult result = ParseYaml("a: &x 42\nb: *x\nc: *x\n");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.root.GetInt("b", 0), 42);
  EXPECT_EQ(result.root.GetInt("c", 0), 42);
}

TEST(YamlTest, TagsPreserved) {
  const YamlResult result = ParseYaml("k: !invoke\n  f: 1\n");
  ASSERT_TRUE(result.ok) << result.error;
  const YamlNode* k = result.root.Find("k");
  EXPECT_EQ(k->tag, "invoke");
  EXPECT_TRUE(k->IsMap());
  EXPECT_EQ(k->GetInt("f", 0), 1);
}

TEST(YamlTest, CommentsStripped) {
  const YamlResult result =
      ParseYaml("# header\na: 1  # trailing\nb: \"has # inside\"\n");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.root.GetInt("a", 0), 1);
  EXPECT_EQ(result.root.GetString("b", ""), "has # inside");
}

TEST(YamlTest, ErrorsReported) {
  EXPECT_FALSE(ParseYaml("a: *nope\n").ok);
  EXPECT_FALSE(ParseYaml("a: [1, 2\n").ok);
  const YamlResult result = ParseYaml("a: 1\nb: *missing\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 2"), std::string::npos);
}

TEST(YamlTest, RepeatedKeysRejectedWithTheirLine) {
  // A lookup reads a key's first entry, so a repeated key would drop its
  // later values silently, in any map.
  const std::pair<const char*, const char*> cases[] = {
      {"a: 1\nb: 2\na: 3\n", "repeated key 'a' (line 3)"},
      {"top:\n  x: 1\n  y: 2\n  x: 1\n", "repeated key 'x' (line 4)"},
      {"list:\n  - k: 1\n    k: 2\n", "repeated key 'k' (line 3)"},
      {"a: 1\nb: { number: 100, number: 5 }\n", "repeated key 'number' (line 2)"},
      {"a: [{ x: 1 }, { y: 1, y: 2 }]\n", "repeated key 'y' (line 1)"},
      {"\"a\": 1\na: 2\n", "repeated key 'a' (line 2)"},
  };
  for (const auto& [text, message] : cases) {
    const YamlResult result = ParseYaml(text);
    EXPECT_FALSE(result.ok) << text;
    EXPECT_EQ(result.error, message) << text;
  }
  // The same key in sibling maps, or in a map and its child, is fine.
  const YamlResult ok = ParseYaml("a: { x: 1 }\nb: { x: 2 }\nx:\n  x: 3\n");
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.root.Find("b")->GetInt("x", 0), 2);
}

TEST(SpecTest, ParsesPaperExample) {
  const SpecResult result = ParseWorkloadSpec(kPaperSpec);
  ASSERT_TRUE(result.ok) << result.error;
  const WorkloadSpec& spec = result.spec;
  ASSERT_EQ(spec.groups.size(), 1u);
  const WorkloadGroup& group = spec.groups[0];
  EXPECT_EQ(group.clients, 3);
  ASSERT_EQ(group.locations.size(), 1u);
  EXPECT_EQ(group.locations[0], "us-east-2");
  ASSERT_EQ(group.endpoints.size(), 1u);
  EXPECT_EQ(group.endpoints[0], ".*");
  ASSERT_EQ(group.behaviors.size(), 1u);
  const ClientBehavior& behavior = group.behaviors[0];
  EXPECT_EQ(behavior.interaction, "invoke");
  EXPECT_EQ(behavior.contract, "dota");
  EXPECT_EQ(behavior.function, "update");
  EXPECT_EQ(behavior.args, (std::vector<int64_t>{1, 1}));
  EXPECT_EQ(behavior.accounts, 2000);
  ASSERT_EQ(behavior.load.size(), 3u);
  EXPECT_DOUBLE_EQ(behavior.load[0].tps, 4432);
  EXPECT_DOUBLE_EQ(behavior.load[1].at_seconds, 50);
  EXPECT_DOUBLE_EQ(behavior.load[2].tps, 0);
  EXPECT_EQ(spec.TotalAccounts(), 2000);
}

TEST(SpecTest, TraceAggregatesClients) {
  const SpecResult result = ParseWorkloadSpec(kPaperSpec);
  ASSERT_TRUE(result.ok) << result.error;
  const WorkloadGroup& group = result.spec.groups[0];
  const Trace trace = group.behaviors[0].Ramp(group.clients);
  // §4: 3 clients at 4432 TPS for 50 s, then 4438 TPS until 120 s.
  ASSERT_EQ(trace.duration_seconds(), 120u);
  EXPECT_DOUBLE_EQ(trace.tps[0], 3 * 4432.0);
  EXPECT_DOUBLE_EQ(trace.tps[49], 3 * 4432.0);
  EXPECT_DOUBLE_EQ(trace.tps[50], 3 * 4438.0);
  EXPECT_DOUBLE_EQ(trace.tps[119], 3 * 4438.0);
}

TEST(SpecTest, TransferWorkload) {
  const SpecResult result = ParseWorkloadSpec(R"(workloads:
  - number: 2
    client:
      behavior:
        - interaction: !transfer
          load:
            0: 500
            120: 0
)");
  ASSERT_TRUE(result.ok) << result.error;
  const WorkloadGroup& group = result.spec.groups[0];
  EXPECT_EQ(group.behaviors[0].interaction, "transfer");
  EXPECT_EQ(result.spec.TotalAccounts(), 0);
  const Trace trace = group.behaviors[0].Ramp(group.clients);
  EXPECT_DOUBLE_EQ(trace.tps[0], 1000.0);
  EXPECT_EQ(trace.duration_seconds(), 120u);
}

TEST(SpecTest, Errors) {
  EXPECT_FALSE(ParseWorkloadSpec("nothing: here\n").ok);
  EXPECT_FALSE(ParseWorkloadSpec("workloads:\n  - client:\n      behavior:\n").ok);
  // No workload group, or a client with no behavior, would run an all-zero
  // benchmark.
  EXPECT_EQ(ParseWorkloadSpec("# nothing to run\nworkloads: []\n").error,
            "'workloads' list is empty (line 2)");
  EXPECT_EQ(ParseWorkloadSpec("workloads:\n  - number: 2\n    client:\n      behavior: []\n")
                .error,
            "client 'behavior' list is empty (line 4)");
  // Every rejection names the line of the node it rejects, or of the map
  // that lacks the key.
  const std::string client = "workloads:\n  - client:\n      behavior:\n";
  const std::pair<std::string, const char*> cases[] = {
      {"", "missing 'workloads' list (line 1)"},
      {"let: 1\n\nworkloads: 3\n", "missing 'workloads' list (line 3)"},
      {"workloads:\n  - number: 2\n", "workload missing 'client' (line 2)"},
      {"workloads:\n  - number: 2\n    client: 5\n",
       "workload missing 'client' (line 3)"},
      {"workloads:\n  - client:\n      view: [a]\n",
       "client missing 'behavior' list (line 2)"},
      {client, "client missing 'behavior' list (line 3)"},
      {client + "        - load: {0: 1}\n", "behavior missing 'interaction' (line 4)"},
      {client + "        - interaction: !query {}\n          load: {0: 1}\n",
       "unknown interaction tag: !query (line 4)"},
      {client + "        - interaction: !invoke { function: f( }\n          load: {0: 1}\n",
       "malformed function reference: f( (line 4)"},
      {client + "        - interaction: !transfer\n",
       "behavior missing 'load' map (line 4)"},
      {client + "        - interaction: !transfer\n          load: 5\n",
       "behavior missing 'load' map (line 5)"},
      {client + "        - interaction: !transfer\n          load:\n            x: 1\n",
       "malformed load point: x (line 6)"},
      {"workloads: [1]\n\nfaults: 3\n", "'faults' must be a list (line 3)"},
      {"workloads: [1]\nfaults:\n  - 5\n",
       "each fault must be a single '<kind>: {...}' entry (line 3)"},
      {"workloads: [1]\nfaults:\n  -\n",
       "each fault must be a single '<kind>: {...}' entry (line 3)"},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_EQ(ParseWorkloadSpec(text).error, message) << text;
  }
}

TEST(SpecTest, RejectsLoadPointsThatAreNotFiniteAndNonNegative) {
  // A load time indexes the trace's seconds and a rate sizes its arrivals:
  // NaN, infinite or negative values would crash the run or silently empty
  // it, and a time past INT32_MAX seconds would size the trace past any
  // allocation, so the parser refuses them with the offending line.
  const std::string head =
      "workloads:\n  - client:\n      behavior:\n"
      "        - interaction: !transfer\n";
  for (const char* load : {"{0: nan, 3: 0}", "{0: -5, 3: 0}", "{0: inf, 3: 0}",
                           "{-5: 10, 3: 0}", "{nan: 10, 3: 0}", "{0: 10, inf: 0}",
                           "{0: 10, 1e12: 0}", "{0: 10, 2147483648: 0}",
                           "{0: 10, 1e20: 0}"}) {
    const SpecResult result =
        ParseWorkloadSpec(head + "          load: " + load + "\n");
    EXPECT_FALSE(result.ok) << load;
    EXPECT_NE(result.error.find("line 5"), std::string::npos) << load << ": " << result.error;
  }
  const SpecResult block = ParseWorkloadSpec(head +
                                             "          load:\n"
                                             "            0: 10\n"
                                             "            2: -1\n"
                                             "            4: 0\n");
  EXPECT_FALSE(block.ok);
  EXPECT_NE(block.error.find("line 7"), std::string::npos) << block.error;
  // Zero rates, fractional times and a time of INT32_MAX seconds stay valid.
  EXPECT_TRUE(ParseWorkloadSpec(head + "          load: {0: 0, 1.5: 10, 3: 0}\n").ok);
  EXPECT_TRUE(ParseWorkloadSpec(head + "          load: {0: 10, 2147483647: 0}\n").ok);
}

TEST(SpecTest, RejectsKeysItDoesNotRead) {
  // A misspelled key used to drop what it meant silently: with `form:` for
  // `from:` this one-account spec signed from the default 2,000 accounts,
  // and a stray `lod:` beside `load:` went unread. Every map the reader
  // reads names the first key it does not know, with the key's line.
  const std::string spec = R"(let:
  - &acc { sample: !account { number: 1 } }
workloads:
  - number: 1
    client:
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: *acc
          load:
            0: 3000
            10: 0
)";
  const SpecResult good = ParseWorkloadSpec(spec);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.spec.TotalAccounts(), 1);
  const std::tuple<const char*, const char*, const char*> typos[] = {
      {"let:", "lett:", "workload file has unknown key 'lett' (line 1)"},
      {"- number: 1", "- numbr: 1", "workload has unknown key 'numbr' (line 4)"},
      {"view:", "veiw:", "client has unknown key 'veiw' (line 6)"},
      {"load:", "lod:", "behavior has unknown key 'lod' (line 10)"},
      {"from:", "form:", "interaction has unknown key 'form' (line 9)"},
  };
  for (const auto& [key, typo, error] : typos) {
    std::string bad = spec;
    bad.replace(bad.find(key), std::string(key).size(), typo);
    EXPECT_EQ(ParseWorkloadSpec(bad).error, error) << typo;
  }
  // A stray key beside the right one fails the same way.
  std::string stray = spec;
  stray.replace(stray.find("          load:"), 0, "          lod: { 0: 1 }\n");
  EXPECT_EQ(ParseWorkloadSpec(stray).error, "behavior has unknown key 'lod' (line 10)");
}

namespace {

// A minimal valid workload the fault tests can hang a `faults:` section on.
std::string WithFaults(const std::string& faults) {
  return "workloads:\n  - client:\n      behavior:\n"
         "        - interaction: !transfer\n          load:\n"
         "            0: 100\n            60: 0\n" +
         faults;
}

}  // namespace

TEST(SpecFaultsTest, ParsesFullFaultSchedule) {
  const SpecResult result = ParseWorkloadSpec(WithFaults(R"(faults:
  - crash: { node: 0, at: 10, restart: 30 }
  - partition: { nodes: [1, 2, 3], from: 10, to: 40 }
  - partition: { region: ohio, from: 45, to: 50 }
  - loss: { rate: 0.05, from: 45, to: 50, between: [ohio, tokyo] }
  - delay: { extra_ms: 250, from: 50, to: 55 }
  - straggler: { node: 4, cpu_factor: 0.5, from: 5, to: 20 }
)"));
  ASSERT_TRUE(result.ok) << result.error;
  const FaultSchedule& faults = result.spec.faults;
  ASSERT_EQ(faults.events.size(), 6u);
  EXPECT_EQ(faults.events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(faults.events[0].node, 0);
  EXPECT_EQ(faults.events[0].at, Seconds(10));
  EXPECT_EQ(faults.events[0].until, Seconds(30));
  EXPECT_EQ(faults.events[1].nodes, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(faults.events[2].by_region);
  EXPECT_EQ(faults.events[2].region, Region::kOhio);
  EXPECT_DOUBLE_EQ(faults.events[3].loss_rate, 0.05);
  EXPECT_TRUE(faults.events[3].region_pair);
  EXPECT_EQ(faults.events[3].pair_b, Region::kTokyo);
  EXPECT_EQ(faults.events[4].extra_delay, Milliseconds(250));
  EXPECT_FALSE(faults.events[4].region_pair);
  EXPECT_DOUBLE_EQ(faults.events[5].cpu_factor, 0.5);
}

TEST(SpecFaultsTest, NoFaultSectionMeansEmptySchedule) {
  const SpecResult result = ParseWorkloadSpec(WithFaults(""));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.spec.faults.empty());
}

TEST(SpecFaultsTest, RejectsMalformedEntries) {
  // Malformed time.
  SpecResult result = ParseWorkloadSpec(
      WithFaults("faults:\n  - crash: { node: 0, at: banana }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("malformed fault time"), std::string::npos)
      << result.error;

  // Missing required fields.
  EXPECT_FALSE(
      ParseWorkloadSpec(WithFaults("faults:\n  - crash: { at: 10 }\n")).ok);
  EXPECT_FALSE(
      ParseWorkloadSpec(WithFaults("faults:\n  - loss: { from: 1, to: 2 }\n")).ok);

  // Unknown kind and unknown region.
  result = ParseWorkloadSpec(
      WithFaults("faults:\n  - meteor: { node: 0, at: 10 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown fault kind"), std::string::npos)
      << result.error;
  result = ParseWorkloadSpec(
      WithFaults("faults:\n  - partition: { region: atlantis, from: 10 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown region"), std::string::npos)
      << result.error;

  // A partition names nodes or a region, never both: a region partition
  // would silently drop the node list beside it.
  result = ParseWorkloadSpec(WithFaults(
      "faults:\n  - partition: { nodes: [1], region: ohio, from: 1, to: 5 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("exactly one"), std::string::npos) << result.error;

  // `between` must name exactly two regions.
  EXPECT_FALSE(ParseWorkloadSpec(WithFaults(
                   "faults:\n  - loss: { rate: 0.1, from: 1, between: [ohio] }\n"))
                   .ok);
}

TEST(SpecFaultsTest, RejectsInvalidSchedulesAtParseTime) {
  // Heal before onset.
  SpecResult result = ParseWorkloadSpec(
      WithFaults("faults:\n  - crash: { node: 0, at: 30, restart: 10 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error,
            "crash fault at t=30.000s: heal time must be after onset (line 9)");

  // Overlapping windows on the same scope.
  result = ParseWorkloadSpec(WithFaults(
      "faults:\n"
      "  - crash: { node: 0, at: 10, restart: 30 }\n"
      "  - crash: { node: 0, at: 20, restart: 40 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("overlaps"), std::string::npos) << result.error;

  // Out-of-range rate.
  EXPECT_FALSE(ParseWorkloadSpec(
                   WithFaults("faults:\n  - loss: { rate: 1.5, from: 1 }\n"))
                   .ok);
}

TEST(SpecFaultsTest, ParsesByzantineKinds) {
  const SpecResult result = ParseWorkloadSpec(WithFaults(R"(faults:
  - equivocate: { nodes: [0], from: 5, to: 15 }
  - double-vote: { fraction: 0.2, from: 20, to: 30 }
  - withhold: { nodes: [1, 2], from: 35, to: 45 }
  - censor: { nodes: [3], signers: [0, 1, 2], from: 50, to: 55 }
  - lazy: { fraction: 0.1, from: 56, to: 58 }
)"));
  ASSERT_TRUE(result.ok) << result.error;
  const FaultSchedule& faults = result.spec.faults;
  ASSERT_EQ(faults.events.size(), 5u);
  EXPECT_EQ(faults.events[0].kind, FaultKind::kEquivocate);
  EXPECT_EQ(faults.events[0].nodes, (std::vector<int>{0}));
  EXPECT_EQ(faults.events[1].kind, FaultKind::kDoubleVote);
  EXPECT_DOUBLE_EQ(faults.events[1].fraction, 0.2);
  EXPECT_EQ(faults.events[2].kind, FaultKind::kWithholdVotes);
  EXPECT_EQ(faults.events[3].kind, FaultKind::kCensor);
  EXPECT_EQ(faults.events[3].censored_signers, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(faults.events[4].kind, FaultKind::kLazyProposer);
  EXPECT_EQ(faults.events[4].until, Seconds(58));
}

TEST(SpecFaultsTest, RejectsMalformedByzantineEntries) {
  // Both nodes and fraction, and neither, are ambiguous scopes.
  SpecResult result = ParseWorkloadSpec(WithFaults(
      "faults:\n  - equivocate: { nodes: [0], fraction: 0.2, from: 1, to: 2 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("exactly one"), std::string::npos) << result.error;
  EXPECT_FALSE(ParseWorkloadSpec(
                   WithFaults("faults:\n  - withhold: { from: 1, to: 2 }\n"))
                   .ok);

  // Censorship without its signer list.
  result = ParseWorkloadSpec(
      WithFaults("faults:\n  - censor: { nodes: [0], from: 1, to: 2 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("signers"), std::string::npos) << result.error;

  // Fraction outside (0, 1).
  EXPECT_FALSE(ParseWorkloadSpec(WithFaults(
                   "faults:\n  - lazy: { fraction: 1.5, from: 1, to: 2 }\n"))
                   .ok);
}

TEST(SpecFaultsTest, RejectsZeroDurationWindows) {
  const SpecResult result = ParseWorkloadSpec(WithFaults(
      "faults:\n  - double-vote: { fraction: 0.2, from: 10, to: 10 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("zero-duration"), std::string::npos)
      << result.error;
}

TEST(SpecFaultsTest, RejectsUnknownKeysWithSourceLine) {
  // A typo'd key is an error, not silently ignored — and the diagnostic
  // names the offending line of the workload file.
  SpecResult result = ParseWorkloadSpec(WithFaults(
      "faults:\n  - crash: { node: 0, at: 10, restrat: 25 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown key 'restrat'"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("(line 9)"), std::string::npos) << result.error;

  result = ParseWorkloadSpec(WithFaults(
      "faults:\n  - equivocate: { nodes: [0], rate: 0.5, from: 1, to: 2 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown key 'rate'"), std::string::npos)
      << result.error;

  // Unknown kinds carry the line too.
  result = ParseWorkloadSpec(
      WithFaults("faults:\n  - meteor: { node: 0, at: 10 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown fault kind: meteor (line 9)"),
            std::string::npos)
      << result.error;
}

TEST(SpecFaultsTest, RejectsTimesAndDelaysOutsideTheirRange) {
  // A time key takes a finite number of seconds in [0, INT32_MAX] and
  // extra_ms finite milliseconds in the same range, the bound load points
  // use; converting anything else to nanoseconds is undefined. A NaN loss
  // rate would drop nothing. Each message names the key and its line.
  const std::pair<const char*, const char*> cases[] = {
      {"crash: { node: 0, at: 10, restart: nan }", "'restart'"},
      {"crash: { node: 0, at: 10, restart: inf }", "'restart'"},
      {"crash: { node: 0, at: 10, restart: 1e300 }", "'restart'"},
      {"partition: { nodes: [1], from: 1, to: -5 }", "'to'"},
      {"straggler: { node: 1, cpu_factor: 0.5, from: 2147483648 }", "'from'"},
      {"loss: { rate: nan, from: 1, to: 5 }", "'rate'"},
      {"delay: { extra_ms: nan, from: 1, to: 5 }", "'extra_ms'"},
      {"delay: { extra_ms: -inf, from: 1, to: 5 }", "'extra_ms'"},
      {"delay: { extra_ms: 1e300, from: 1, to: 5 }", "'extra_ms'"},
  };
  for (const auto& [entry, key] : cases) {
    const SpecResult result =
        ParseWorkloadSpec(WithFaults(std::string("faults:\n  - ") + entry + "\n"));
    EXPECT_FALSE(result.ok) << entry;
    EXPECT_NE(result.error.find(key), std::string::npos) << result.error;
    EXPECT_NE(result.error.find("(line 9)"), std::string::npos) << result.error;
  }
  // The bounds themselves are valid.
  const SpecResult bounds = ParseWorkloadSpec(WithFaults(
      "faults:\n  - crash: { node: 0, at: 0, restart: 2147483647 }\n"
      "  - delay: { extra_ms: 2147483647, from: 0 }\n"));
  ASSERT_TRUE(bounds.ok) << bounds.error;
  EXPECT_EQ(bounds.spec.faults.events[0].until, Seconds(INT32_MAX));
}

TEST(SpecFaultsTest, RejectsARepeatedKeyWithItsLine) {
  // The first `at` used to win, so this crash started at 1 s.
  const SpecResult result = ParseWorkloadSpec(
      WithFaults("faults:\n  - crash: { node: 1, at: 1, at: 50 }\n"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "repeated key 'at' (line 9)");
}

TEST(SpecFaultsTest, RejectsNodeAndSignerIndicesOutsideInt32) {
  // An index is an int in [0, INT32_MAX]. Narrowing a wider one wrapped it:
  // node 4294967296 crashed node 0, and node 2147483648 became negative and
  // failed later as a missing index.
  const std::pair<const char*, const char*> cases[] = {
      {"crash: { node: 4294967296, at: 1, restart: 20 }", "'node'"},
      {"crash: { node: 2147483648, at: 1, restart: 20 }", "'node'"},
      {"crash: { node: -1, at: 1, restart: 20 }", "'node'"},
      {"partition: { nodes: [1, 4294967297], from: 1, to: 5 }", "'nodes'"},
      {"censor: { nodes: [0], signers: [2147483648], from: 1, to: 2 }", "'signers'"},
  };
  for (const auto& [entry, key] : cases) {
    const SpecResult result =
        ParseWorkloadSpec(WithFaults(std::string("faults:\n  - ") + entry + "\n"));
    EXPECT_FALSE(result.ok) << entry;
    EXPECT_NE(result.error.find(key), std::string::npos) << result.error;
    EXPECT_NE(result.error.find("[0, INT32_MAX] (line 9)"), std::string::npos)
        << result.error;
  }
  const SpecResult bounds = ParseWorkloadSpec(WithFaults(
      "faults:\n  - crash: { node: 2147483647, at: 1 }\n"
      "  - censor: { nodes: [0], signers: [2147483647], from: 1, to: 2 }\n"));
  ASSERT_TRUE(bounds.ok) << bounds.error;
  EXPECT_EQ(bounds.spec.faults.events[0].node, INT32_MAX);
  EXPECT_EQ(bounds.spec.faults.events[1].censored_signers,
            (std::vector<int>{INT32_MAX}));
}

namespace {

// Every field of a FaultEvent, so that a mismatch names the field that moved.
std::string Describe(const FaultEvent& e) {
  std::string nodes;
  for (const int node : e.nodes) {
    nodes += StrFormat(" %d", node);
  }
  std::string signers;
  for (const int signer : e.censored_signers) {
    signers += StrFormat(" %d", signer);
  }
  return StrFormat(
      "%s at=%lld until=%lld node=%d nodes=[%s] by_region=%d region=%d "
      "region_pair=%d pair=%d,%d loss_rate=%.17g extra_delay=%lld "
      "cpu_factor=%.17g fraction=%.17g signers=[%s]",
      FaultKindName(e.kind), static_cast<long long>(e.at),
      static_cast<long long>(e.until), e.node, nodes.c_str(), e.by_region,
      static_cast<int>(e.region), e.region_pair, static_cast<int>(e.pair_a),
      static_cast<int>(e.pair_b), e.loss_rate,
      static_cast<long long>(e.extra_delay), e.cpu_factor, e.fraction,
      signers.c_str());
}

// One `faults:` entry that uses every key its kind takes (one case per side
// of an exactly-one pair), the event it must parse to, and the keys it must
// have.
struct FaultKindCase {
  std::string kind;
  std::vector<std::pair<std::string, std::string>> keys;
  std::vector<std::string> required;
  FaultEvent expected;
};

std::string FaultEntry(const FaultKindCase& c, const std::string& without) {
  std::string body;
  for (const auto& [key, value] : c.keys) {
    if (key != without) {
      body += (body.empty() ? "" : ", ") + key + ": " + value;
    }
  }
  return "faults:\n  - " + c.kind + ": { " + body + " }\n";
}

std::vector<FaultKindCase> FaultKindCases() {
  std::vector<FaultKindCase> cases;
  const auto add = [&](std::string kind,
                       std::vector<std::pair<std::string, std::string>> keys,
                       std::vector<std::string> required, FaultKind expected,
                       SimTime at, SimTime until) -> FaultEvent& {
    FaultEvent event;
    event.kind = expected;
    event.at = at;
    event.until = until;
    cases.push_back({std::move(kind), std::move(keys), std::move(required), event});
    return cases.back().expected;
  };
  add("crash", {{"node", "3"}, {"at", "1.5"}, {"restart", "7"}}, {"node", "at"},
      FaultKind::kCrash, Milliseconds(1500), Seconds(7))
      .node = 3;
  add("partition", {{"nodes", "[1, 2]"}, {"from", "2"}, {"to", "9"}},
      {"nodes", "from"}, FaultKind::kPartition, Seconds(2), Seconds(9))
      .nodes = {1, 2};
  FaultEvent* event =
      &add("partition", {{"region", "tokyo"}, {"from", "2"}, {"to", "9"}},
           {"region", "from"}, FaultKind::kPartition, Seconds(2), Seconds(9));
  event->by_region = true;
  event->region = Region::kTokyo;
  event = &add("loss",
               {{"rate", "0.25"}, {"between", "[ohio, tokyo]"}, {"from", "3"},
                {"to", "8"}},
               {"rate", "from"}, FaultKind::kLoss, Seconds(3), Seconds(8));
  event->loss_rate = 0.25;
  event->region_pair = true;
  event->pair_a = Region::kOhio;
  event->pair_b = Region::kTokyo;
  event = &add("delay",
               {{"extra_ms", "250"}, {"between", "[mumbai, oregon]"},
                {"from", "3"}, {"to", "8"}},
               {"extra_ms", "from"}, FaultKind::kDelaySpike, Seconds(3),
               Seconds(8));
  event->extra_delay = Milliseconds(250);
  event->region_pair = true;
  event->pair_a = Region::kMumbai;
  event->pair_b = Region::kOregon;
  event = &add("straggler",
               {{"node", "4"}, {"cpu_factor", "0.5"}, {"from", "5"}, {"to", "20"}},
               {"node", "cpu_factor", "from"}, FaultKind::kStraggler, Seconds(5),
               Seconds(20));
  event->node = 4;
  event->cpu_factor = 0.5;
  // The Byzantine kinds, each scoped once by nodes and once by fraction.
  const std::pair<const char*, FaultKind> byzantine[] = {
      {"equivocate", FaultKind::kEquivocate},
      {"double-vote", FaultKind::kDoubleVote},
      {"withhold", FaultKind::kWithholdVotes},
      {"censor", FaultKind::kCensor},
      {"lazy", FaultKind::kLazyProposer},
  };
  for (const auto& [name, kind] : byzantine) {
    add(name, {{"nodes", "[0, 2]"}, {"from", "10"}, {"to", "20"}},
        {"nodes", "from"}, kind, Seconds(10), Seconds(20))
        .nodes = {0, 2};
    add(name, {{"fraction", "0.25"}, {"from", "10"}, {"to", "20"}},
        {"fraction", "from"}, kind, Seconds(10), Seconds(20))
        .fraction = 0.25;
    if (kind == FaultKind::kCensor) {
      for (size_t i = cases.size() - 2; i < cases.size(); ++i) {
        cases[i].keys.emplace_back("signers", "[5, 7]");
        cases[i].required.emplace_back("signers");
        cases[i].expected.censored_signers = {5, 7};
      }
    }
  }
  return cases;
}

}  // namespace

TEST(SpecFaultsTest, EveryKindParsesEveryKeyAndNamesMissingOnes) {
  const std::vector<FaultKindCase> cases = FaultKindCases();
  for (int k = 0; k < static_cast<int>(FaultKind::kCount); ++k) {
    const FaultKind kind = static_cast<FaultKind>(k);
    EXPECT_TRUE(std::any_of(cases.begin(), cases.end(),
                            [&](const FaultKindCase& c) {
                              return c.expected.kind == kind;
                            }))
        << FaultKindName(kind) << " has no case";
  }
  for (const FaultKindCase& c : cases) {
    const std::string full = FaultEntry(c, "");
    const SpecResult result = ParseWorkloadSpec(WithFaults(full));
    ASSERT_TRUE(result.ok) << full << result.error;
    ASSERT_EQ(result.spec.faults.events.size(), 1u) << full;
    EXPECT_EQ(Describe(result.spec.faults.events[0]), Describe(c.expected))
        << full;
    for (const auto& [key, value] : c.keys) {
      const std::string entry = FaultEntry(c, key);
      const SpecResult without = ParseWorkloadSpec(WithFaults(entry));
      const bool required =
          std::find(c.required.begin(), c.required.end(), key) != c.required.end();
      if (!required) {
        EXPECT_TRUE(without.ok) << entry << without.error;
        continue;
      }
      EXPECT_FALSE(without.ok) << entry;
      EXPECT_NE(without.error.find("'" + key + "'"), std::string::npos)
          << entry << without.error;
    }
  }
}

TEST(FunctionRefTest, Parsing) {
  std::string name;
  std::vector<int64_t> args;
  EXPECT_TRUE(ParseFunctionRef("update(1, 1)", &name, &args));
  EXPECT_EQ(name, "update");
  EXPECT_EQ(args, (std::vector<int64_t>{1, 1}));
  EXPECT_TRUE(ParseFunctionRef("add", &name, &args));
  EXPECT_EQ(name, "add");
  EXPECT_TRUE(args.empty());
  EXPECT_TRUE(ParseFunctionRef("f()", &name, &args));
  EXPECT_TRUE(args.empty());
  EXPECT_FALSE(ParseFunctionRef("f(1", &name, &args));
  EXPECT_FALSE(ParseFunctionRef("f(x)", &name, &args));
  EXPECT_FALSE(ParseFunctionRef("", &name, &args));
}

}  // namespace
}  // namespace diablo
