// Flat table of in-flight IOMMU page walks, keyed by domain-tagged page
// number. Concurrent misses on the same (domain, page) coalesce onto one
// walk: a request issued at `start` waits on a recorded walk only if that
// walk completes after `start`.
//
// Open addressing with linear probing and backward-shift deletion: no
// per-entry allocation and no tombstones. The slot array starts at
// kInitialSlots and doubles only when a record finds it more than half
// full. Once more than kPruneAbove walks are held, Record drops every walk
// completed by the recording request's start (the same rule the table has
// always applied), so the array stays at most 2 * kPruneAbove slots unless
// more than kPruneAbove walks are genuinely in flight.
#ifndef FASTSAFE_SRC_IOMMU_PENDING_WALK_TABLE_H_
#define FASTSAFE_SRC_IOMMU_PENDING_WALK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/mem/address.h"
#include "src/simcore/time.h"

namespace fsio {

class PendingWalkTable {
 public:
  struct Walk {
    TimeNs done = 0;
    PhysAddr phys = 0;
  };

  static constexpr std::size_t kPruneAbove = 8192;

  PendingWalkTable();

  // The walk recorded for `key` if a request issued at `start` can wait on
  // it (done > start); nullptr otherwise.
  const Walk* FindInFlight(std::uint64_t key, TimeNs start) const;

  // Records (or replaces) `key`'s walk. Then, if more than kPruneAbove
  // walks are held, drops every walk with done <= `start`.
  void Record(std::uint64_t key, const Walk& walk, TimeNs start);

  void Erase(std::uint64_t key);
  // Drops every walk whose key has (key & mask) == value.
  void EraseMasked(std::uint64_t mask, std::uint64_t value);
  void Clear();

  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kInitialSlots = 1024;
  // Keys are domain-tagged page numbers (< 2^58), so all-ones never occurs.
  static constexpr std::uint64_t kEmpty = ~0ULL;
  struct Slot {
    std::uint64_t key = kEmpty;
    Walk walk;
  };

  std::size_t Home(std::uint64_t key) const;
  // Position holding `key`, or slots_.size() if absent.
  std::size_t Find(std::uint64_t key) const;
  void EraseAt(std::size_t pos);
  template <typename Pred>
  void EraseIf(Pred pred);
  void Grow();

  std::vector<Slot> slots_;
  unsigned shift_ = 0;  // 64 - log2(slots_.size())
  std::size_t size_ = 0;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_IOMMU_PENDING_WALK_TABLE_H_
