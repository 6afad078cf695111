#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace diablo {

namespace {
// Typical runs schedule thousands of events before the first Pop; starting
// with a real allocation avoids the doubling churn of an empty vector.
constexpr size_t kInitialCapacity = 1024;
}  // namespace

EventQueue::EventQueue() { heap_.reserve(kInitialCapacity); }

void EventQueue::Push(SimTime time, EventFn fn) {
  heap_.push_back(Entry{time, next_seq_++, std::move(fn)});
  SiftUp(heap_.size() - 1);
}

EventFn EventQueue::Pop(SimTime* time) {
  Entry top = std::move(heap_.front());
  *time = top.time;
  if (heap_.size() > 1) {
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    SiftDown(0);
  } else {
    heap_.pop_back();
  }
  return std::move(top.fn);
}

void EventQueue::Clear() {
  heap_.clear();
  next_seq_ = 0;
}

// The heap is 4-ary (children of i are 4i+1..4i+4): half the depth of a
// binary heap, and the sibling scan walks contiguous memory — the classic
// layout for large discrete-event queues. Both sift loops use hole
// insertion: the displaced entry is held aside while lighter entries shift
// into the hole with a single move each, instead of the three moves a
// std::swap would cost per level. Pop order only depends on the (time, seq)
// total order, which none of this touches.
void EventQueue::SiftUp(size_t i) {
  if (i == 0) {
    return;
  }
  Entry moving = std::move(heap_[i]);
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!(heap_[parent] > moving)) {
      break;
    }
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(moving);
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  Entry moving = std::move(heap_[i]);
  while (true) {
    const size_t first = kArity * i + 1;
    if (first >= n) {
      break;
    }
    // Smallest child, lowest index winning ties (keeps the comparison
    // semantics of the binary version).
    size_t child = first;
    const size_t limit = std::min(first + kArity, n);
    for (size_t c = first + 1; c < limit; ++c) {
      if (heap_[child] > heap_[c]) {
        child = c;
      }
    }
    if (!(moving > heap_[child])) {
      break;
    }
    heap_[i] = std::move(heap_[child]);
    i = child;
  }
  heap_[i] = std::move(moving);
}

}  // namespace diablo
