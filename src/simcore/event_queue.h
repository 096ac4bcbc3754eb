// Discrete-event simulation core.
//
// The EventQueue owns the simulated clock and the set of pending events.
// Components schedule closures at absolute or relative times; the queue
// executes them in (time, insertion-order) order, which makes every
// simulation run fully deterministic.
//
// Implementation (DESIGN.md §11): a calendar queue over arena-allocated
// typed event records.
//
//   * Events live in fixed-size EventRec slots carved from chunked arenas
//     and recycled through an intrusive free list — steady-state scheduling
//     performs zero heap allocations. The callable is placed directly into
//     the record's inline payload (EventFn: one trampoline function pointer
//     plus up to kInlinePayloadBytes of capture state); closures too large
//     for the inline buffer fall back to a heap box, and allocations()
//     counts every heap allocation the scheduler makes so tests can assert
//     the hot paths stay allocation-free.
//
//   * Pending events are organized in three tiers keyed by (when, seq):
//     an "active" binary min-heap of events at-or-before the calendar
//     cursor, kNumBuckets near-future calendar buckets of kBucketWidthNs
//     each (intrusive singly-linked lists, occupancy bitmap), and a sorted
//     overflow heap for events beyond the calendar window. Buckets are
//     drained into the active heap strictly in calendar order, so the pop
//     order is exactly the (when, seq) total order the old binary heap
//     produced — same-timestamp events stay FIFO and every golden trace is
//     byte-identical. Insert and pop are O(1) amortized for the near-future
//     traffic that dominates simulation runs, instead of O(log n) moves of
//     fat std::function nodes.
//
// The original priority_queue implementation survives as
// ReferenceEventQueue (reference_event_queue.h), the behavioural oracle of
// tests/eventcore_test.cc and the baseline of bench/micro_eventcore.
#ifndef FASTSAFE_SRC_SIMCORE_EVENT_QUEUE_H_
#define FASTSAFE_SRC_SIMCORE_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/simcore/time.h"

namespace fsio {

// A single-threaded discrete-event scheduler.
//
// Events scheduled for the same timestamp run in the order they were
// scheduled (FIFO), which keeps causally-ordered zero-delay chains stable.
class EventQueue {
 public:
  // Captures up to this many bytes of closure state inline in the event
  // record. Sized to hold the simulator's largest hot-path closure (a Packet
  // plus a vector handle and a few scalars) with headroom; anything larger
  // takes the counted heap-box fallback.
  static constexpr std::size_t kInlinePayloadBytes = 144;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  // Current simulated time. Only advances inside Run*().
  TimeNs now() const { return now_; }

  // Schedules `fn` (any void() callable) to run at absolute time `when`.
  // Scheduling in the past is clamped to `now()` (the event runs before the
  // clock next advances). The callable is moved/copied into the event
  // record's inline payload; see kInlinePayloadBytes.
  template <typename F>
  void ScheduleAt(TimeNs when, F&& fn) {
    using Fn = std::decay_t<F>;
    if (when < now_) {
      when = now_;
    }
    EventRec* rec = free_ != nullptr ? PopFree() : AcquireSlow();
    rec->when = when;
    rec->seq = next_seq_++;
    if constexpr (sizeof(Fn) <= kInlinePayloadBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(rec->payload)) Fn(std::forward<F>(fn));
      rec->tramp = &InlineTrampoline<Fn>;
    } else {
      // Rare large-closure fallback: box the callable on the heap (counted).
      ::new (static_cast<void*>(rec->payload)) Fn*(new Fn(std::forward<F>(fn)));
      rec->tramp = &BoxedTrampoline<Fn>;
      ++allocations_;
    }
    Insert(rec);
  }

  // Schedules `fn` to run `delay` nanoseconds from now. A delay that would
  // overflow TimeNs saturates to kTimeNsMax instead of wrapping into the past
  // (where the past-clamp would fire it immediately).
  template <typename F>
  void ScheduleAfter(TimeNs delay, F&& fn) {
    const TimeNs when = delay > kTimeNsMax - now_ ? kTimeNsMax : now_ + delay;
    ScheduleAt(when, std::forward<F>(fn));
  }

  // Runs events until the queue is empty or the clock would pass `deadline`.
  // Events scheduled exactly at `deadline` are executed. Returns the number
  // of events executed.
  std::uint64_t RunUntil(TimeNs deadline);

  // Runs every pending event (including ones scheduled by executed events).
  // Intended for tests; a self-rescheduling event would never terminate.
  std::uint64_t RunAll();

  // Number of events currently pending.
  std::size_t pending() const { return pending_; }

  // Total number of events executed over the queue's lifetime.
  std::uint64_t executed() const { return executed_; }

  // Number of heap allocations the scheduler has performed over its lifetime:
  // arena chunk growth plus large-closure boxes. Once the arena is warm (or
  // Reserve()d) and every callable fits inline, this counter must stay flat —
  // steady-state measurement windows schedule millions of events with zero
  // allocations, and tests assert exactly that.
  std::uint64_t allocations() const { return allocations_; }

  // Pre-allocates arena capacity for at least `events` concurrently-pending
  // events, so a run sized below that bound never grows the arena mid-window.
  void Reserve(std::size_t events);

  // Total EventRec slots owned by the arena (free or pending).
  std::size_t arena_capacity() const { return capacity_; }

 private:
  // Calendar geometry: kNumBuckets buckets of kBucketWidthNs each give a
  // 256 us near-future window — wide enough that serialization, DMA, memory
  // and think-time events all land in buckets; only RTO-scale timers take the
  // overflow tier.
  static constexpr std::uint64_t kBucketShift = 6;  // 64 ns per bucket
  static constexpr TimeNs kBucketWidthNs = TimeNs{1} << kBucketShift;
  static constexpr std::size_t kNumBuckets = 4096;  // power of two
  static constexpr std::uint64_t kBucketMask = kNumBuckets - 1;
  static constexpr std::size_t kChunkRecs = 2048;   // arena growth quantum
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

  // One pending event: intrusive list hook + typed callable (EventFn).
  // `tramp` both runs and destroys the payload (run=true), or just destroys
  // it (run=false, queue teardown).
  struct EventRec {
    TimeNs when;
    std::uint64_t seq;
    EventRec* next;
    void (*tramp)(void* payload, bool run);
    alignas(alignof(std::max_align_t)) unsigned char payload[kInlinePayloadBytes];
  };
  static_assert(sizeof(EventRec) == 176, "EventRec layout drifted");

  struct Bucket {
    EventRec* head = nullptr;
    EventRec* tail = nullptr;
  };

  // Heap entry: (when, seq) key copied next to the record pointer so heap
  // sifts never touch the record (or its payload).
  struct HeapEntry {
    TimeNs when;
    std::uint64_t seq;
    EventRec* rec;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  template <typename Fn>
  static void InlineTrampoline(void* payload, bool run) {
    Fn* fn = std::launder(reinterpret_cast<Fn*>(payload));
    if (run) {
      (*fn)();
    }
    fn->~Fn();
  }

  template <typename Fn>
  static void BoxedTrampoline(void* payload, bool run) {
    Fn* fn = *std::launder(reinterpret_cast<Fn**>(payload));
    if (run) {
      (*fn)();
    }
    delete fn;
  }

  static constexpr std::uint64_t BucketOf(TimeNs when) { return when >> kBucketShift; }
  static constexpr TimeNs BucketStartNs(std::uint64_t bucket) {
    return static_cast<TimeNs>(bucket) << kBucketShift;
  }

  EventRec* PopFree() {
    EventRec* rec = free_;
    free_ = rec->next;
    return rec;
  }
  EventRec* AcquireSlow();  // grows the arena by one chunk, then pops
  void AddChunk();
  void Insert(EventRec* rec);
  void Release(EventRec* rec) {
    rec->next = free_;
    free_ = rec;
  }

  // Ensures the active heap's top is the globally earliest pending event,
  // activating calendar buckets / sliding the window as needed. Returns the
  // top record, or nullptr when nothing is pending.
  EventRec* PrepareTop();
  void ActivateBucket(std::uint64_t bucket);
  void SlideWindow();
  // Smallest occupied bucket index in [from, window_base_ + kNumBuckets), or
  // kNoBucket. `from` must be >= window_base_.
  std::uint64_t FindNextOccupied(std::uint64_t from) const;

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;

  // Tier 1: events at-or-before the calendar cursor, totally ordered.
  std::vector<HeapEntry> active_;
  // Tier 2: near-future calendar. Bucket b (absolute index) lives in slot
  // b & kBucketMask while window_base_ <= b < window_base_ + kNumBuckets.
  // Buckets with index < activated_end_ have been drained into active_.
  std::vector<Bucket> buckets_ = std::vector<Bucket>(kNumBuckets);
  std::vector<std::uint64_t> occupied_ = std::vector<std::uint64_t>(kNumBuckets / 64, 0);
  std::uint64_t window_base_ = 0;     // absolute index of the calendar's first bucket
  std::uint64_t activated_end_ = 0;   // buckets below this are in active_
  std::uint64_t next_occupied_ = kNoBucket;  // cached FindNextOccupied(activated_end_)
  // Tier 3: beyond-window events, promoted into buckets when the window
  // slides past them.
  std::vector<HeapEntry> overflow_;

  // Arena: chunked storage + intrusive free list.
  std::vector<std::unique_ptr<EventRec[]>> chunks_;
  EventRec* free_ = nullptr;
  std::size_t capacity_ = 0;
  std::uint64_t allocations_ = 0;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_SIMCORE_EVENT_QUEUE_H_
