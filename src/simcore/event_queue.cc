#include "src/simcore/event_queue.h"

#include <algorithm>

namespace fsio {
namespace {

inline unsigned CountTrailingZeros(std::uint64_t word) {
  return static_cast<unsigned>(__builtin_ctzll(word));
}

}  // namespace

EventQueue::~EventQueue() {
  // Destroy still-pending callables without running them. Records themselves
  // are freed with the chunks.
  for (const HeapEntry& e : active_) {
    e.rec->tramp(e.rec->payload, /*run=*/false);
  }
  for (const HeapEntry& e : overflow_) {
    e.rec->tramp(e.rec->payload, /*run=*/false);
  }
  for (Bucket& bucket : buckets_) {
    for (EventRec* rec = bucket.head; rec != nullptr; rec = rec->next) {
      rec->tramp(rec->payload, /*run=*/false);
    }
  }
}

void EventQueue::AddChunk() {
  auto chunk = std::make_unique<EventRec[]>(kChunkRecs);
  // Thread the fresh slots onto the free list in address order.
  for (std::size_t i = kChunkRecs; i-- > 0;) {
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
  chunks_.push_back(std::move(chunk));
  capacity_ += kChunkRecs;
  ++allocations_;
}

EventQueue::EventRec* EventQueue::AcquireSlow() {
  AddChunk();
  return PopFree();
}

void EventQueue::Reserve(std::size_t events) {
  while (capacity_ < events) {
    AddChunk();
  }
}

void EventQueue::Insert(EventRec* rec) {
  ++pending_;
  const std::uint64_t bucket = BucketOf(rec->when);
  if (bucket < activated_end_) {
    // At or before the calendar cursor: goes straight into the ordered heap.
    active_.push_back(HeapEntry{rec->when, rec->seq, rec});
    std::push_heap(active_.begin(), active_.end(), Later{});
    return;
  }
  if (bucket < window_base_ + kNumBuckets) {
    Bucket& slot = buckets_[bucket & kBucketMask];
    rec->next = nullptr;
    if (slot.tail != nullptr) {
      slot.tail->next = rec;
    } else {
      slot.head = rec;
      occupied_[(bucket & kBucketMask) >> 6] |= std::uint64_t{1} << (bucket & 63);
    }
    slot.tail = rec;
    if (bucket < next_occupied_) {
      next_occupied_ = bucket;
    }
    return;
  }
  overflow_.push_back(HeapEntry{rec->when, rec->seq, rec});
  std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

std::uint64_t EventQueue::FindNextOccupied(std::uint64_t from) const {
  const std::uint64_t end = window_base_ + kNumBuckets;
  if (from >= end) {
    return kNoBucket;
  }
  // The live range [from, end) covers each slot at most once; it wraps the
  // slot space at most once, splitting into at most two linear segments.
  const std::uint64_t base_slot = window_base_ & kBucketMask;
  const std::uint64_t start_slot = from & kBucketMask;
  auto scan = [this](std::uint64_t begin, std::uint64_t limit) -> std::uint64_t {
    if (begin >= limit) {
      return kNoBucket;
    }
    std::uint64_t wi = begin >> 6;
    std::uint64_t word = occupied_[wi] & (~std::uint64_t{0} << (begin & 63));
    for (;;) {
      if (word != 0) {
        const std::uint64_t slot = (wi << 6) + CountTrailingZeros(word);
        return slot < limit ? slot : kNoBucket;
      }
      ++wi;
      if ((wi << 6) >= limit) {
        return kNoBucket;
      }
      word = occupied_[wi];
    }
  };
  std::uint64_t slot;
  if (start_slot >= base_slot) {
    slot = scan(start_slot, kNumBuckets);
    if (slot == kNoBucket && base_slot != 0) {
      slot = scan(0, base_slot);
    }
  } else {
    slot = scan(start_slot, base_slot);
  }
  if (slot == kNoBucket) {
    return kNoBucket;
  }
  return window_base_ + ((slot - base_slot) & kBucketMask);
}

void EventQueue::ActivateBucket(std::uint64_t bucket) {
  Bucket& slot = buckets_[bucket & kBucketMask];
  for (EventRec* rec = slot.head; rec != nullptr;) {
    EventRec* next = rec->next;
    active_.push_back(HeapEntry{rec->when, rec->seq, rec});
    std::push_heap(active_.begin(), active_.end(), Later{});
    rec = next;
  }
  slot.head = nullptr;
  slot.tail = nullptr;
  occupied_[(bucket & kBucketMask) >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  activated_end_ = bucket + 1;
  next_occupied_ = FindNextOccupied(activated_end_);
}

void EventQueue::SlideWindow() {
  // Pre: active_ and every calendar bucket are empty; overflow_ is not.
  // Re-anchor the window at the earliest overflow event and promote
  // everything that now falls inside it.
  const std::uint64_t target = BucketOf(overflow_.front().when);
  window_base_ = target;
  activated_end_ = target;
  next_occupied_ = kNoBucket;
  const std::uint64_t end = window_base_ + kNumBuckets;
  while (!overflow_.empty() && BucketOf(overflow_.front().when) < end) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    EventRec* rec = overflow_.back().rec;
    overflow_.pop_back();
    // Re-insert through the bucket path (pending_ already counts it).
    const std::uint64_t bucket = BucketOf(rec->when);
    Bucket& slot = buckets_[bucket & kBucketMask];
    rec->next = nullptr;
    if (slot.tail != nullptr) {
      slot.tail->next = rec;
    } else {
      slot.head = rec;
      occupied_[(bucket & kBucketMask) >> 6] |= std::uint64_t{1} << (bucket & 63);
    }
    slot.tail = rec;
    if (bucket < next_occupied_) {
      next_occupied_ = bucket;
    }
  }
}

EventQueue::EventRec* EventQueue::PrepareTop() {
  for (;;) {
    if (!active_.empty()) {
      // The active heap's top is the global minimum once every bucket that
      // could start at-or-before it has been drained. Bucket events are
      // strictly later than BucketStartNs(next_occupied_) - 1, and overflow
      // events are beyond the window entirely.
      if (next_occupied_ == kNoBucket ||
          BucketStartNs(next_occupied_) > active_.front().when) {
        return active_.front().rec;
      }
      ActivateBucket(next_occupied_);
      continue;
    }
    if (next_occupied_ != kNoBucket) {
      ActivateBucket(next_occupied_);
      continue;
    }
    if (!overflow_.empty()) {
      SlideWindow();
      continue;
    }
    return nullptr;
  }
}

std::uint64_t EventQueue::RunUntil(TimeNs deadline) {
  std::uint64_t ran = 0;
  for (;;) {
    EventRec* rec = PrepareTop();
    if (rec == nullptr || rec->when > deadline) {
      break;
    }
    std::pop_heap(active_.begin(), active_.end(), Later{});
    active_.pop_back();
    --pending_;
    now_ = rec->when;
    rec->tramp(rec->payload, /*run=*/true);
    Release(rec);
    ++ran;
    ++executed_;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return ran;
}

std::uint64_t EventQueue::RunAll() {
  std::uint64_t ran = 0;
  for (;;) {
    EventRec* rec = PrepareTop();
    if (rec == nullptr) {
      break;
    }
    std::pop_heap(active_.begin(), active_.end(), Later{});
    active_.pop_back();
    --pending_;
    now_ = rec->when;
    rec->tramp(rec->payload, /*run=*/true);
    Release(rec);
    ++ran;
    ++executed_;
  }
  return ran;
}

}  // namespace fsio
