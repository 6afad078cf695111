// 4-ary-heap event queue for the discrete-event simulation.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties) so runs are deterministic
// regardless of heap internals. Simulation's arrival lane draws its
// sequence numbers from the same counter (TakeSeq), so the two queues share
// one (time, seq) total order.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/support/time.h"

namespace diablo {

class EventQueue {
 public:
  EventQueue();

  void Push(SimTime time, EventFn fn);

  // Pre-sizes the heap so a known burst of Push calls never reallocates.
  void Reserve(size_t events) { heap_.reserve(events); }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Time and sequence number of the earliest pending event; undefined when
  // empty.
  SimTime PeekTime() const { return heap_.front().time; }
  uint64_t PeekSeq() const { return heap_.front().seq; }

  // Consumes the next sequence number without pushing an event.
  uint64_t TakeSeq() { return next_seq_++; }

  // Removes and returns the earliest event's callback, setting *time.
  EventFn Pop(SimTime* time);

  void Clear();

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    EventFn fn;

    bool operator>(const Entry& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };
  // time + seq + a 40-byte EventFn: under one cache line. A new field is a
  // deliberate trade against sift cost, so the size is pinned.
  static_assert(sizeof(Entry) == 56, "EventQueue::Entry layout changed");

  // Heap fan-out. 4 halves the depth of a binary heap and keeps the
  // sibling scan within one or two cache lines of contiguous entries.
  static constexpr size_t kArity = 4;

  void SiftUp(size_t i);
  void SiftDown(size_t i);

  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace diablo

#endif  // SRC_SIM_EVENT_QUEUE_H_
