// Reference discrete-event scheduler: the original std::priority_queue +
// std::function implementation, kept verbatim as the behavioural oracle for
// the calendar-queue EventQueue (src/simcore/event_queue.h).
//
// Two consumers:
//   * tests/eventcore_test.cc runs randomized differential schedules against
//     this class and asserts execution order, clocks and counts match the
//     calendar queue exactly;
//   * bench/micro_eventcore times it next to the calendar queue.
//
// Apart from the ScheduleAfter saturation fix (shared with EventQueue so the
// two stay comparable) this file must not be "improved": its value is being
// the old implementation.
#ifndef FASTSAFE_SRC_SIMCORE_REFERENCE_EVENT_QUEUE_H_
#define FASTSAFE_SRC_SIMCORE_REFERENCE_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/simcore/time.h"

namespace fsio {

// A single-threaded discrete-event scheduler.
//
// Events scheduled for the same timestamp run in the order they were
// scheduled (FIFO), which keeps causally-ordered zero-delay chains stable.
class ReferenceEventQueue {
 public:
  using Callback = std::function<void()>;

  ReferenceEventQueue() = default;
  ReferenceEventQueue(const ReferenceEventQueue&) = delete;
  ReferenceEventQueue& operator=(const ReferenceEventQueue&) = delete;

  // Current simulated time. Only advances inside Run*().
  TimeNs now() const { return now_; }

  // Schedules `cb` to run at absolute time `when`. Scheduling in the past is
  // clamped to `now()` (the event runs before the clock next advances).
  void ScheduleAt(TimeNs when, Callback cb) {
    if (when < now_) {
      when = now_;
    }
    heap_.push(Event{when, next_seq_++, std::move(cb)});
  }

  // Schedules `cb` to run `delay` nanoseconds from now. A delay that would
  // overflow TimeNs saturates to kTimeNsMax instead of wrapping into the past.
  void ScheduleAfter(TimeNs delay, Callback cb) {
    const TimeNs when = delay > kTimeNsMax - now_ ? kTimeNsMax : now_ + delay;
    ScheduleAt(when, std::move(cb));
  }

  // Runs events until the queue is empty or the clock would pass `deadline`.
  // Events scheduled exactly at `deadline` are executed. Returns the number
  // of events executed.
  std::uint64_t RunUntil(TimeNs deadline);

  // Runs every pending event (including ones scheduled by executed events).
  // Intended for tests; a self-rescheduling event would never terminate.
  std::uint64_t RunAll();

  // Number of events currently pending.
  std::size_t pending() const { return heap_.size(); }

  // Total number of events executed over the queue's lifetime.
  std::uint64_t executed() const { return executed_; }

  // No-op, so bench/micro_eventcore's drivers template over both queues.
  void Reserve(std::size_t /*events*/) {}

 private:
  struct Event {
    TimeNs when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_SIMCORE_REFERENCE_EVENT_QUEUE_H_
