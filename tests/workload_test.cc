#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/workload/arrival.h"
#include "src/workload/dapps.h"
#include "src/workload/trace.h"

namespace diablo {
namespace {

TEST(TraceTest, ConstantTrace) {
  const Trace trace = ConstantTrace(1000, 120);
  EXPECT_EQ(trace.duration_seconds(), 120u);
  EXPECT_DOUBLE_EQ(trace.AverageTps(), 1000.0);
  EXPECT_DOUBLE_EQ(trace.PeakTps(), 1000.0);
  EXPECT_DOUBLE_EQ(trace.TotalTxs(), 120000.0);
}

TEST(TraceTest, ScaledPreservesShape) {
  const Trace full = FifaTrace();
  const Trace half = full.Scaled(0.5);
  ASSERT_EQ(half.tps.size(), full.tps.size());
  for (size_t s = 0; s < full.tps.size(); ++s) {
    EXPECT_DOUBLE_EQ(half.tps[s], full.tps[s] / 2.0);
  }
}

TEST(TraceTest, NasdaqStockBurstsMatchPaper) {
  // §3: initial demand ~800 (Google), 1300 (Amazon), 3000 (Facebook),
  // 4000 (Microsoft), 10000 (Apple), dropping to a 10-60 TPS tail.
  const struct {
    const char* stock;
    double peak;
  } kExpected[] = {{"google", 800},
                   {"amazon", 1300},
                   {"facebook", 3000},
                   {"microsoft", 4000},
                   {"apple", 10000}};
  for (const auto& expected : kExpected) {
    const Trace trace = GetDappWorkload(expected.stock).trace;
    EXPECT_DOUBLE_EQ(trace.tps[0], expected.peak) << expected.stock;
    EXPECT_EQ(trace.duration_seconds(), 180u);
    // Low tail after the burst (sized so the accumulated tail sits in the
    // paper's 25-140 TPS band).
    for (size_t s = 20; s < trace.duration_seconds(); ++s) {
      EXPECT_GE(trace.tps[s], 5.0) << expected.stock << " @" << s;
      EXPECT_LE(trace.tps[s], 16.0) << expected.stock << " @" << s;
    }
  }
  EXPECT_THROW(GetDappWorkload("tesla"), std::invalid_argument);
}

TEST(TraceTest, GafamAccumulation) {
  const Trace gafam = NasdaqGafamTrace();
  // §3: peak of 19,800 TPS before dropping to 25-140 TPS; 3 minutes.
  EXPECT_EQ(gafam.duration_seconds(), 180u);
  EXPECT_DOUBLE_EQ(gafam.PeakTps(), 19800.0);
  for (size_t s = 20; s < gafam.duration_seconds(); ++s) {
    EXPECT_GE(gafam.tps[s], 25.0);
    EXPECT_LE(gafam.tps[s], 140.0);
  }
  // Average workload of the exchange DApp is ~168 TPS (§6.1).
  EXPECT_NEAR(gafam.AverageTps(), 168.0, 25.0);
}

TEST(TraceTest, DotaNearlyConstant13k) {
  const Trace dota = DotaTrace();
  EXPECT_EQ(dota.duration_seconds(), 276u);  // §3: 276 s
  EXPECT_NEAR(dota.AverageTps(), 13000.0, 1000.0);
  for (const double rate : dota.tps) {
    EXPECT_NEAR(rate, 13300.0, 100.0);
  }
}

TEST(TraceTest, FifaBand) {
  const Trace fifa = FifaTrace();
  EXPECT_EQ(fifa.duration_seconds(), 176u);  // §3: 176 s
  for (const double rate : fifa.tps) {
    EXPECT_GE(rate, 1416.0);
    EXPECT_LE(rate, 5305.0);
  }
  // §6.1: average workload ~3,483 TPS.
  EXPECT_NEAR(fifa.AverageTps(), 3400.0, 300.0);
}

TEST(TraceTest, UberBand) {
  const Trace uber = UberTrace();
  EXPECT_EQ(uber.duration_seconds(), 120u);
  for (const double rate : uber.tps) {
    EXPECT_GE(rate, 810.0);  // §6.4: 810-900 TPS
    EXPECT_LE(rate, 900.0);
  }
}

TEST(TraceTest, YoutubeVeryDemanding) {
  const Trace youtube = YoutubeTrace();
  EXPECT_NEAR(youtube.AverageTps(), 38761.0, 500.0);  // §3
}

TEST(TraceTest, LookupByName) {
  // A trace is looked up by its workload's name.
  EXPECT_EQ(GetDappWorkload("dota").trace.name, "dota");
  EXPECT_EQ(GetDappWorkload("NASDAQ").trace.name, "gafam");
  EXPECT_EQ(GetDappWorkload("apple").trace.tps[0], 10000.0);
  EXPECT_THROW(GetDappWorkload("minecraft"), std::invalid_argument);
}

TEST(TraceTest, Deterministic) {
  EXPECT_EQ(FifaTrace().tps, FifaTrace().tps);
  EXPECT_EQ(NasdaqGafamTrace().tps, NasdaqGafamTrace().tps);
}

TEST(DappTest, FiveWorkloads) {
  EXPECT_EQ(AllDappNames().size(), 5u);
  for (const std::string& name : AllDappNames()) {
    const DappWorkload dapp = GetDappWorkload(name);
    EXPECT_FALSE(dapp.contract.empty()) << name;
    EXPECT_GT(dapp.trace.TotalTxs(), 0.0) << name;
    // Every workload can produce invocations.
    const Invocation invocation = dapp.InvocationFor(0);
    EXPECT_FALSE(invocation.function.empty()) << name;
  }
  EXPECT_THROW(GetDappWorkload("tiktok"), std::invalid_argument);
}

TEST(DappTest, StockBurstsBuyTheirStockOnTheExchange) {
  // §6.5: each stock's opening burst, every order buying that one stock.
  for (const char* stock : {"google", "amazon", "facebook", "microsoft", "apple"}) {
    const DappWorkload dapp = GetDappWorkload(stock);
    EXPECT_EQ(dapp.name, stock);
    EXPECT_EQ(dapp.contract, "exchange") << stock;
    EXPECT_FALSE(dapp.fixed.has_value()) << stock;
    EXPECT_EQ(dapp.trace.name, stock);
    EXPECT_EQ(dapp.trace.duration_seconds(), 180u) << stock;
    for (uint64_t i = 0; i < 50; ++i) {
      EXPECT_EQ(dapp.InvocationFor(i).function, std::string("buy_") + stock);
    }
  }
  EXPECT_EQ(GetDappWorkload("Apple").name, "apple");
}

TEST(DappTest, ExchangeMixCoversAllStocks) {
  const DappWorkload exchange = GetDappWorkload("exchange");
  std::set<std::string> functions;
  for (uint64_t i = 0; i < 500; ++i) {
    functions.insert(exchange.InvocationFor(i).function);
  }
  EXPECT_EQ(functions.size(), 5u);
  EXPECT_TRUE(functions.contains("buy_apple"));
  EXPECT_TRUE(functions.contains("buy_google"));
}

TEST(DappTest, FunctionMixNamesEachCallsFunction) {
  // The exchange mix spreads its calls over five functions; the index
  // Functions() gives a call names the function InvocationFor calls, one
  // index per function.
  const DappWorkload exchange = GetDappWorkload("exchange");
  const FunctionMix mix = exchange.Functions();
  ASSERT_EQ(mix.count(), 5u);
  std::vector<std::string> names(mix.count());
  for (uint64_t i = 0; i < 2000; ++i) {
    const size_t index = mix.IndexFor(i);
    ASSERT_LT(index, mix.count());
    const std::string function = exchange.InvocationFor(i).function;
    if (names[index].empty()) {
      names[index] = function;
    }
    EXPECT_EQ(names[index], function) << "call " << i;
  }
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), 5u);
  // Every other workload, each stock burst and any fixed invocation call one
  // function.
  std::vector<DappWorkload> single;
  for (const char* name : {"dota", "fifa", "uber", "youtube"}) {
    single.push_back(GetDappWorkload(name));
  }
  single.push_back(GetDappWorkload("apple"));
  DappWorkload fixed = exchange;
  fixed.fixed = Invocation{"buy_google", {}};
  single.push_back(fixed);
  for (const DappWorkload& dapp : single) {
    const FunctionMix one = dapp.Functions();
    EXPECT_EQ(one.count(), 1u) << dapp.name;
    for (uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(one.IndexFor(i), 0u) << dapp.name;
    }
  }
}

TEST(DappTest, FixedInvocationOverrides) {
  DappWorkload dapp = GetDappWorkload("dota");
  dapp.fixed = Invocation{"update", {2, 3}};
  EXPECT_EQ(dapp.InvocationFor(7).args, (std::vector<int64_t>{2, 3}));
}

TEST(DappTest, UberPositionsVary) {
  const DappWorkload uber = GetDappWorkload("uber");
  const Invocation a = uber.InvocationFor(0);
  const Invocation b = uber.InvocationFor(1);
  EXPECT_EQ(a.function, "check_distance");
  EXPECT_NE(a.args, b.args);
  for (uint64_t i = 0; i < 100; ++i) {
    for (const int64_t arg : uber.InvocationFor(i).args) {
      EXPECT_GE(arg, 0);
      EXPECT_LT(arg, 10000);
    }
  }
}

TEST(ArrivalTest, UniformPacing) {
  const Trace trace = ConstantTrace(10, 3);
  const auto arrivals = ExpandArrivals(trace, ArrivalProcess::kUniform, nullptr);
  ASSERT_EQ(arrivals.size(), 30u);
  // Ten per second, evenly spaced.
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const SimTime expected = Seconds(static_cast<int64_t>(i / 10)) +
                             Milliseconds(100 * static_cast<int64_t>(i % 10));
    EXPECT_NEAR(static_cast<double>(arrivals[i]), static_cast<double>(expected),
                static_cast<double>(Milliseconds(1)));
  }
}

TEST(ArrivalTest, FractionalRatesAccumulate) {
  const Trace trace = ConstantTrace(0.5, 10);
  const auto arrivals = ExpandArrivals(trace, ArrivalProcess::kUniform, nullptr);
  EXPECT_EQ(arrivals.size(), 5u);
}

TEST(ArrivalTest, ExpansionsComeOutSorted) {
  // ExpandArrivals promises ascending times without sorting them: every
  // DApp trace and every NASDAQ stock burst.
  std::vector<Trace> traces;
  for (const std::string& name : AllDappNames()) {
    traces.push_back(GetDappWorkload(name).trace);
  }
  for (const char* stock : {"google", "amazon", "facebook", "microsoft", "apple"}) {
    traces.push_back(GetDappWorkload(stock).trace);
  }
  for (const Trace& trace : traces) {
    const auto arrivals = ExpandArrivals(trace, ArrivalProcess::kUniform, nullptr);
    EXPECT_FALSE(arrivals.empty()) << trace.name;
    EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end())) << trace.name;
  }
}

// The expansion the uniform process has always made: each second's rate
// plus the carried fraction, truncated, evenly spaced from the second's
// start.
std::vector<SimTime> ReferenceArrivals(const Trace& trace) {
  std::vector<SimTime> arrivals;
  double carry = 0.0;
  for (size_t s = 0; s < trace.tps.size(); ++s) {
    const double rate = trace.tps[s] + carry;
    const int64_t count = static_cast<int64_t>(rate);
    carry = rate - static_cast<double>(count);
    const double step = count > 0 ? 1e9 / static_cast<double>(count) : 0.0;
    for (int64_t i = 0; i < count; ++i) {
      arrivals.push_back(Seconds(static_cast<int64_t>(s)) +
                         static_cast<SimTime>(step * static_cast<double>(i)));
    }
  }
  return arrivals;
}

TEST(ArrivalTest, WalkYieldsTheExpandedTimes) {
  // Fractional, zero, bursty and scaled traces: the walk yields exactly the
  // reference expansion, ExpandArrivals stores the same times, and
  // CountArrivals counts them.
  std::vector<Trace> traces = {
      ConstantTrace(0.5, 10),
      Trace{"carry", {0.3, 0.3, 0.3, 2.7, 0.1, 0.0, 1.9}},
      ConstantTrace(0, 5),
      Trace{"empty", {}},
      Trace{"gaps", {0, 3, 0, 0, 7, 0}},
      NasdaqStockTrace("apple"),
      GetDappWorkload("fifa").trace.Scaled(0.013),
      YoutubeTrace().Scaled(0.0216),
      ConstantTrace(333.3, 4).Scaled(0.37),
  };
  for (const Trace& trace : traces) {
    const std::vector<SimTime> want = ReferenceArrivals(trace);
    std::vector<SimTime> walked;
    EXPECT_TRUE(ForEachArrival(trace, [&walked](SimTime time) {
      walked.push_back(time);
      return true;
    })) << trace.name;
    EXPECT_EQ(walked, want) << trace.name;
    EXPECT_EQ(ExpandArrivals(trace, ArrivalProcess::kUniform, nullptr), want) << trace.name;
    EXPECT_EQ(CountArrivals(trace), want.size()) << trace.name;
  }
}

TEST(ArrivalTest, WalkStopsWhenToldTo) {
  const Trace trace = ConstantTrace(10, 3);
  std::vector<SimTime> walked;
  EXPECT_FALSE(ForEachArrival(trace, [&walked](SimTime time) {
    walked.push_back(time);
    return walked.size() < 7;
  }));
  const std::vector<SimTime> all = ExpandArrivals(trace, ArrivalProcess::kUniform, nullptr);
  ASSERT_EQ(walked.size(), 7u);
  EXPECT_TRUE(std::equal(walked.begin(), walked.end(), all.begin()));
}

}  // namespace
}  // namespace diablo
