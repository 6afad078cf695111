#include "src/sim/simulation.h"

#include <algorithm>
#include <utility>

namespace diablo {

namespace {

using Arrival = Simulation::Arrival;

bool Before(SimTime time, uint64_t seq, SimTime other_time, uint64_t other_seq) {
  return time != other_time ? time < other_time : seq < other_seq;
}

// Run-heap order: std::push_heap/pop_heap keep the greatest element on top,
// so the run whose next arrival is earliest must compare greatest.
constexpr auto kLaterHead = [](const auto& a, const auto& b) {
  return Before(b.time, b.seq, a.time, a.seq);
};

// A run that needs more than this many insertion shifts per entry is far
// from the nearly sorted shape a Secondary batch has (for instance when an
// unreachable endpoint's 500 ms penalty hits every k-th transaction);
// std::sort finishes it instead.
constexpr size_t kInsertionShiftsPerEntry = 8;

// Sorts one event's arrivals by (time, seq). They were pushed in seq order,
// so a stable sort by time suffices; batches arrive nearly sorted (each
// transaction's scheduled time plus a small link delay), where insertion
// sort is linear.
void SortRun(std::vector<Arrival>* run) {
  Arrival* v = run->data();
  const size_t n = run->size();
  size_t shifts = 0;
  for (size_t i = 1; i < n; ++i) {
    if (v[i].time >= v[i - 1].time) {
      continue;
    }
    const Arrival moving = v[i];
    size_t j = i;
    for (; j > 0 && moving.time < v[j - 1].time; --j) {
      v[j] = v[j - 1];
    }
    v[j] = moving;
    shifts += i - j;
    if (shifts > kInsertionShiftsPerEntry * n) {
      std::sort(v, v + n, [](const Arrival& a, const Arrival& b) {
        return Before(a.time, a.seq, b.time, b.seq);
      });
      return;
    }
  }
}

}  // namespace

Simulation::Simulation(uint64_t seed) : rng_(seed) {}

void Simulation::Schedule(SimDuration delay, EventFn fn) {
  ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn));
}

void Simulation::ScheduleAt(SimTime time, EventFn fn) {
  queue_.Push(time < now_ ? now_ : time, std::move(fn));
}

void Simulation::SetArrivalHandler(ArrivalHandler handler) {
  DIABLO_CHECK(!handler || !arrival_handler_,
               "a simulation takes one arrival handler at a time");
  arrival_handler_ = std::move(handler);
}

uint64_t Simulation::RunUntil(SimTime until) {
  SealRun();
  uint64_t executed = 0;
  while (true) {
    const bool has_event = !queue_.empty();
    if (!has_event && run_heap_.empty()) {
      break;
    }
    // The lane's earliest arrival goes first when it precedes the heap's
    // earliest event in (time, seq).
    const bool arrival =
        !run_heap_.empty() &&
        (!has_event || Before(run_heap_.front().time, run_heap_.front().seq,
                              queue_.PeekTime(), queue_.PeekSeq()));
    const SimTime time = arrival ? run_heap_.front().time : queue_.PeekTime();
    if (time > until) {
      break;
    }
    DIABLO_CHECK(time >= now_, "simulated time ran backwards");
    DIABLO_CHECKED_ONLY({
      const uint64_t seq = arrival ? run_heap_.front().seq : queue_.PeekSeq();
      DIABLO_CHECK(!dispatched_any_ || Before(last_time_, last_seq_, time, seq),
                   "dispatch must follow the (time, seq) total order");
      last_time_ = time;
      last_seq_ = seq;
      dispatched_any_ = true;
    })
    now_ = time;
    if (arrival) {
      arrival_handler_(PopArrival());
      ++arrivals_delivered_;
    } else {
      SimTime popped = 0;
      EventFn fn = queue_.Pop(&popped);
      fn();
    }
    // Whatever this event put on the lane becomes one run.
    SealRun();
    ++executed;
  }
  events_executed_ += executed;
  // When stopping because the horizon was reached, advance the clock to it so
  // subsequent scheduling is relative to the horizon.
  if (until != std::numeric_limits<SimTime>::max() && now_ < until) {
    now_ = until;
  }
  return executed;
}

size_t Simulation::pending_events() const {
  size_t pending = queue_.size() + open_run_.size();
  for (const RunHead& head : run_heap_) {
    pending += runs_[head.run].entries.size() - runs_[head.run].next;
  }
  return pending;
}

void Simulation::SealRun() {
  if (open_run_.empty()) {
    return;
  }
  SortRun(&open_run_);
  uint32_t slot = 0;
  if (free_runs_.empty()) {
    slot = static_cast<uint32_t>(runs_.size());
    runs_.emplace_back();
  } else {
    slot = free_runs_.back();
    free_runs_.pop_back();
  }
  SortedRun& run = runs_[slot];
  // The drained slot's buffer keeps its capacity for the next open run.
  run.entries.swap(open_run_);
  run.next = 0;
  run_heap_.push_back(RunHead{run.entries.front().time, run.entries.front().seq, slot});
  std::push_heap(run_heap_.begin(), run_heap_.end(), kLaterHead);
}

Simulation::Arrival Simulation::PopArrival() {
  std::pop_heap(run_heap_.begin(), run_heap_.end(), kLaterHead);
  RunHead& head = run_heap_.back();
  SortedRun& run = runs_[head.run];
  const Arrival arrival = run.entries[run.next++];
  if (run.next < run.entries.size()) {
    head.time = run.entries[run.next].time;
    head.seq = run.entries[run.next].seq;
    std::push_heap(run_heap_.begin(), run_heap_.end(), kLaterHead);
  } else {
    run.entries.clear();
    free_runs_.push_back(head.run);
    run_heap_.pop_back();
  }
  return arrival;
}

}  // namespace diablo
