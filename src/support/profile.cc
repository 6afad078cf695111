#include "src/support/profile.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <inttypes.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace diablo::profile {
namespace {

std::atomic<uint64_t> g_events{0};
std::atomic<uint64_t> g_arrivals{0};
std::atomic<uint64_t> g_vote_rounds{0};
std::atomic<uint64_t> g_vote_receivers{0};
std::atomic<uint64_t> g_sortition_draws{0};
std::atomic<uint64_t> g_vm_ops{0};

// detlint: allow(D2, profiling layer: wall time feeds only the stderr summary, never simulation state)
const std::chrono::steady_clock::time_point g_start = std::chrono::steady_clock::now();

void PrintSummary() {
  const double wall =
      // detlint: allow(D2, profiling layer: wall time feeds only the stderr summary, never simulation state)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - g_start).count();
  const Counters totals = Totals();
  std::fprintf(stderr,
               "[profile] events=%" PRIu64 " arrivals=%" PRIu64 " vote_rounds=%" PRIu64
               " vote_receivers=%" PRIu64 " sortition_draws=%" PRIu64 " vm_ops=%" PRIu64
               " wall=%.2fs rss_peak=%" PRId64 "B\n",
               totals.events, totals.arrivals, totals.vote_rounds, totals.vote_receivers,
               totals.sortition_draws, totals.vm_ops, wall, PeakRssBytes());
}

// Registers the exit summary when DIABLO_PROFILE=1 is set at startup.
bool RegisterSummary() {
  const char* env = std::getenv("DIABLO_PROFILE");
  const bool on = env != nullptr && std::strcmp(env, "1") == 0;
  if (on) {
    std::atexit(PrintSummary);
  }
  return on;
}

[[maybe_unused]] const bool g_summary_registered = RegisterSummary();

}  // namespace

void AddEvents(uint64_t n) { g_events.fetch_add(n, std::memory_order_relaxed); }
void AddArrivals(uint64_t n) { g_arrivals.fetch_add(n, std::memory_order_relaxed); }
void CountVoteRound() { g_vote_rounds.fetch_add(1, std::memory_order_relaxed); }
void AddVoteReceivers(uint64_t n) {
  g_vote_receivers.fetch_add(n, std::memory_order_relaxed);
}
void AddSortitionDraws(uint64_t n) {
  g_sortition_draws.fetch_add(n, std::memory_order_relaxed);
}
void AddVmOps(uint64_t n) { g_vm_ops.fetch_add(n, std::memory_order_relaxed); }

Counters Totals() {
  Counters totals;
  totals.events = g_events.load(std::memory_order_relaxed);
  totals.arrivals = g_arrivals.load(std::memory_order_relaxed);
  totals.vote_rounds = g_vote_rounds.load(std::memory_order_relaxed);
  totals.vote_receivers = g_vote_receivers.load(std::memory_order_relaxed);
  totals.sortition_draws = g_sortition_draws.load(std::memory_order_relaxed);
  totals.vm_ops = g_vm_ops.load(std::memory_order_relaxed);
  return totals;
}

int64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<int64_t>(usage.ru_maxrss);  // bytes on macOS
#else
    return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
  }
#endif
  return 0;
}

}  // namespace diablo::profile
