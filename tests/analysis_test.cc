#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/analysis/analysis.h"
#include "src/config/json.h"
#include "src/core/results.h"

namespace diablo {
namespace {

TEST(JsonTest, Scalars) {
  EXPECT_TRUE(ParseJson("null").ok);
  EXPECT_TRUE(ParseJson("true").value.boolean == false || true);
  const JsonResult t = ParseJson("true");
  ASSERT_TRUE(t.ok);
  EXPECT_TRUE(t.value.boolean);
  const JsonResult n = ParseJson("-12.5e2");
  ASSERT_TRUE(n.ok);
  EXPECT_DOUBLE_EQ(n.value.number, -1250.0);
  const JsonResult s = ParseJson("\"hi\\nthere\"");
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.value.string, "hi\nthere");
}

TEST(JsonTest, NestedStructures) {
  const JsonResult result =
      ParseJson(R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}, "e": false})");
  ASSERT_TRUE(result.ok) << result.error;
  const JsonValue& root = result.value;
  ASSERT_TRUE(root.IsObject());
  const JsonValue* a = root.Find("a");
  ASSERT_TRUE(a->IsArray());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_DOUBLE_EQ(a->items[1].number, 2.0);
  EXPECT_EQ(a->items[2].GetString("b", ""), "x");
  EXPECT_EQ(root.Find("c")->Find("d")->type, JsonValue::Type::kNull);
  EXPECT_FALSE(root.Find("e")->boolean);
  EXPECT_EQ(root.Find("zzz"), nullptr);
}

TEST(JsonTest, UnicodeEscapes) {
  const JsonResult result = ParseJson("\"\\u0041\\u00e9\\u20ac\"");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.value.string, "A\xC3\xA9\xE2\x82\xAC");  // A é €
}

TEST(JsonTest, ErrorsReported) {
  EXPECT_FALSE(ParseJson("").ok);
  EXPECT_FALSE(ParseJson("{").ok);
  EXPECT_FALSE(ParseJson("[1,]").ok);
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok);
  EXPECT_FALSE(ParseJson("\"unterminated").ok);
  EXPECT_FALSE(ParseJson("12 34").ok);
  EXPECT_FALSE(ParseJson("nul").ok);
  const JsonResult result = ParseJson("{\"a\": @}");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("offset"), std::string::npos);
}

TxStore MakeStore() {
  TxStore txs;
  for (int i = 0; i < 20; ++i) {
    Transaction tx;
    tx.submit_time = Seconds(i / 2);
    tx.commit_time = tx.submit_time + Milliseconds(2500);
    tx.phase = i % 5 == 0 ? TxPhase::kDropped : TxPhase::kCommitted;
    if (tx.phase == TxPhase::kDropped) {
      tx.commit_time = -1;
    }
    txs.Add(tx);
  }
  return txs;
}

TEST(AnalysisTest, JsonRoundTrip) {
  const TxStore txs = MakeStore();
  const Report report =
      BuildReport(txs, Seconds(1000), "quorum", "testnet", "native", 10.0);
  std::ostringstream out;
  WriteResultsJson(out, report, txs);

  const LoadResult loaded = LoadResultsJson(out.str());
  ASSERT_TRUE(loaded.ok) << loaded.error;
  const LoadedResults& results = loaded.results;
  EXPECT_EQ(results.chain, "quorum");
  EXPECT_EQ(results.workload, "native");
  EXPECT_EQ(results.submitted, report.submitted);
  EXPECT_EQ(results.committed, report.committed);
  EXPECT_EQ(results.dropped, report.dropped);
  EXPECT_EQ(results.transactions.size(), 20u);

  // Recomputed statistics match the report's.
  const SampleSet latencies = results.CommittedLatencies();
  EXPECT_EQ(latencies.count(), report.committed);
  EXPECT_NEAR(latencies.Mean(), report.avg_latency, 1e-3);
  EXPECT_EQ(results.CommittedPerSecond().TotalCount(), report.committed);
}

TEST(AnalysisTest, JsonRoundTripEscapesControlCharacters) {
  const TxStore txs = MakeStore();
  const std::string chain = "quorum\tfork\nb\x01\"\\";
  const Report report = BuildReport(txs, Seconds(1000), chain, "testnet", "native", 10.0);
  const std::string summary = ReportToJson(report);
  EXPECT_NE(summary.find(R"("chain": "quorum\tfork\nb\u0001\"\\")"), std::string::npos)
      << summary;
  // RFC 8259: no raw byte below 0x20 inside a string.
  EXPECT_TRUE(std::none_of(summary.begin(), summary.end(),
                           [](char c) { return static_cast<unsigned char>(c) < 0x20; }))
      << summary;

  std::ostringstream out;
  WriteResultsJson(out, report, txs);
  const LoadResult loaded = LoadResultsJson(out.str());
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.results.chain, chain);
}

TEST(AnalysisTest, CsvRoundTrip) {
  const TxStore txs = MakeStore();
  std::ostringstream out;
  WriteResultsCsv(out, txs);
  const LoadResult loaded = LoadResultsCsv(out.str());
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.results.submitted, 20u);
  EXPECT_EQ(loaded.results.committed, 16u);
  EXPECT_EQ(loaded.results.dropped, 4u);
  EXPECT_NEAR(loaded.results.CommittedLatencies().Mean(), 2.5, 0.01);
}

TEST(AnalysisTest, CsvErrors) {
  EXPECT_FALSE(LoadResultsCsv("").ok);
  EXPECT_EQ(LoadResultsCsv("").error, "empty document");
  // A malformed line is named by its line number, blank lines counted.
  const std::pair<const char*, const char*> cases[] = {
      {"bad,header,row\n", "unexpected header: bad,header,row (line 1)"},
      {"submit_time,latency,status\n1,2\n", "malformed row: 1,2 (line 2)"},
      {"submit_time,latency,status\nx,2,committed\n",
       "malformed numbers: x,2,committed (line 2)"},
      {"submit_time,latency,status\n1,2,committed\n\n1,x,committed\n",
       "malformed numbers: 1,x,committed (line 4)"},
  };
  for (const auto& [csv, message] : cases) {
    const LoadResult loaded = LoadResultsCsv(csv);
    EXPECT_FALSE(loaded.ok) << csv;
    EXPECT_EQ(loaded.error, message) << csv;
  }
}

TEST(AnalysisTest, CompareRendersRows) {
  LoadedResults a;
  a.chain = "quorum";
  a.deployment = "testnet";
  a.workload = "uber";
  a.submitted = 100;
  a.committed = 90;
  a.avg_throughput = 550.0;
  a.avg_latency = 3.25;
  LoadedResults b;
  b.chain = "solana";
  b.submitted = 100;
  b.committed = 0;
  const std::string table = CompareRuns({a, b});
  EXPECT_NE(table.find("quorum"), std::string::npos);
  EXPECT_NE(table.find("550.0"), std::string::npos);
  EXPECT_NE(table.find("90.0%"), std::string::npos);
  EXPECT_NE(table.find("solana"), std::string::npos);
}

}  // namespace
}  // namespace diablo
