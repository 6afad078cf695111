#include "src/workload/dapps.h"

#include <iterator>
#include <stdexcept>

#include "src/support/strings.h"

namespace diablo {
namespace {

// The five NASDAQ stocks and their buy functions. Exchange order
// frequencies mirror the §3 opening-burst magnitudes:
// google 800 : amazon 1300 : facebook 3000 : microsoft 4000 : apple 10000.
constexpr struct {
  const char* stock;
  const char* function;
  uint64_t weight;
} kBuyMix[] = {
    {"google", "buy_google", 8},       {"amazon", "buy_amazon", 13},
    {"facebook", "buy_facebook", 30},  {"microsoft", "buy_microsoft", 40},
    {"apple", "buy_apple", 100},
};

constexpr uint64_t kBuyMixTotal = [] {
  uint64_t total = 0;
  for (const auto& entry : kBuyMix) {
    total += entry.weight;
  }
  return total;
}();

}  // namespace

size_t FunctionMix::count() const { return exchange ? std::size(kBuyMix) : 1; }

size_t FunctionMix::IndexFor(uint64_t i) const {
  if (!exchange) {
    return 0;
  }
  uint64_t slot = (i * 2654435761ULL) % kBuyMixTotal;
  size_t index = 0;
  while (slot >= kBuyMix[index].weight) {
    slot -= kBuyMix[index].weight;
    ++index;
  }
  return index;
}

FunctionMix DappWorkload::Functions() const {
  return FunctionMix{!fixed.has_value() && name == "exchange"};
}

Invocation DappWorkload::InvocationFor(uint64_t i) const {
  if (fixed.has_value()) {
    return *fixed;
  }
  if (name == "exchange") {
    return Invocation{kBuyMix[Functions().IndexFor(i)].function, {}};
  }
  // Per-stock NASDAQ bursts (§6.5): every order buys that one stock.
  for (const auto& entry : kBuyMix) {
    if (name == entry.stock) {
      return Invocation{entry.function, {}};
    }
  }
  if (name == "dota") {
    // The §4 workload spec invokes update(1, 1).
    return Invocation{"update", {1, 1}};
  }
  if (name == "fifa") {
    return Invocation{"add", {}};
  }
  if (name == "uber") {
    // Customer positions spread over the 10,000 x 10,000 grid.
    const int64_t cx = static_cast<int64_t>((i * 7919) % 10000);
    const int64_t cy = static_cast<int64_t>((i * 104729) % 10000);
    return Invocation{"check_distance", {cx, cy}};
  }
  if (name == "youtube") {
    // ~1 KiB of video metadata/payload per upload; far over the AVM's
    // 128-byte state entries.
    return Invocation{"upload", {1024}};
  }
  throw std::logic_error("unhandled dapp: " + name);
}

DappWorkload GetDappWorkload(std::string_view name) {
  const std::string key = ToLower(name);
  if (key == "exchange" || key == "nasdaq" || key == "gafam") {
    return DappWorkload{"exchange", "exchange", NasdaqGafamTrace(), std::nullopt};
  }
  if (key == "dota") {
    return DappWorkload{"dota", "dota", DotaTrace(), std::nullopt};
  }
  if (key == "fifa") {
    return DappWorkload{"fifa", "counter", FifaTrace(), std::nullopt};
  }
  if (key == "uber") {
    return DappWorkload{"uber", "uber", UberTrace(), std::nullopt};
  }
  if (key == "youtube") {
    return DappWorkload{"youtube", "youtube", YoutubeTrace(), std::nullopt};
  }
  for (const auto& entry : kBuyMix) {
    if (key == entry.stock) {
      return DappWorkload{key, "exchange", NasdaqStockTrace(key), std::nullopt};
    }
  }
  throw std::invalid_argument("unknown DApp workload: " + std::string(name));
}

const std::vector<std::string>& AllDappNames() {
  static const std::vector<std::string>* const kNames = new std::vector<std::string>{
      "exchange", "dota", "fifa", "uber", "youtube"};
  return *kNames;
}

}  // namespace diablo
