// Generic set-associative cache with per-set LRU replacement.
//
// Models the IOMMU's IOTLB and the per-level IO page table caches
// (PTcache-L1/L2/L3). Keys are opaque 64-bit tags (for the IOTLB, the IOVA
// page number; for PTcache-Li, the IOVA prefix indexing that level). Each
// entry may carry a 64-bit payload (we store the backing page-table page's
// generation so the simulator can detect stale-entry use — a safety
// violation).
//
// Bookkeeping is O(1) per tag operation whatever the associativity: an
// open-addressed index maps each resident tag to its slot, and each
// replacement group (a set, or one way partition of a set) keeps its slots
// on an intrusive list ordered most- to least-recently used with invalid
// slots at the tail, so the victim is always the tail. See DESIGN.md §11.
#ifndef FASTSAFE_SRC_CACHE_SET_ASSOC_CACHE_H_
#define FASTSAFE_SRC_CACHE_SET_ASSOC_CACHE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/stats/counters.h"

namespace fsio {

class SetAssocCache {
 public:
  // `num_sets` must be a power of two (throws std::invalid_argument
  // otherwise); `ways` == 0 means 1. A fully-associative cache of N entries
  // is (num_sets=1, ways=N).
  SetAssocCache(std::uint32_t num_sets, std::uint32_t ways);

  // Handle to the entry a Lookup hit. Stays valid — and RepeatHit stays
  // equivalent to a fresh Lookup of the same tag — until mutation_version()
  // changes.
  using HitHandle = std::uint32_t;

  // Looks up `tag`; on hit, refreshes LRU order and returns the payload.
  std::optional<std::uint64_t> Lookup(std::uint64_t tag);

  // As above; on hit also writes a handle for RepeatHit.
  std::optional<std::uint64_t> Lookup(std::uint64_t tag, HitHandle* handle);

  // Replays the exact effects of re-looking-up a previously hit entry
  // (hit counter + LRU refresh) without the tag search. Caller must have
  // checked mutation_version() is unchanged since the handle was obtained.
  std::uint64_t RepeatHit(HitHandle handle);

  // Replays `n` consecutive RepeatHit(handle) calls in one step: `n` hits,
  // `n` LRU ticks, one move to the front. `n` == 0 is a no-op.
  void RepeatHit(HitHandle handle, std::uint64_t n);

  // Replays the effects of `n` Lookup misses (miss counter only).
  void NoteRepeatMiss(std::uint64_t n = 1) { misses_ += n; }

  // Incremented by every call that may change entry contents (Insert and all
  // invalidations that remove at least one entry). Lookup never bumps it.
  std::uint64_t mutation_version() const { return mut_version_; }

  // Looks up without disturbing LRU order or counters (for tests/debug).
  std::optional<std::uint64_t> Peek(std::uint64_t tag) const;

  // Inserts (or updates) `tag` with `payload`, evicting the set's LRU entry
  // if the set is full. Returns the evicted tag, if any.
  std::optional<std::uint64_t> Insert(std::uint64_t tag, std::uint64_t payload);

  // Removes `tag` if present. Returns true if an entry was removed.
  bool Invalidate(std::uint64_t tag);

  // Removes every entry whose tag is in [first, last]. Returns the number of
  // entries removed. (Tags are page numbers / prefixes, so contiguous IOVA
  // ranges map to contiguous tag ranges.)
  std::uint64_t InvalidateRange(std::uint64_t first, std::uint64_t last);

  // Removes every entry whose payload equals `payload` (used when a page
  // table page is reclaimed: all cached pointers to it become stale).
  std::uint64_t InvalidateByPayload(std::uint64_t payload);

  // Removes every entry with (tag & mask) == value — a domain-selective
  // invalidation over domain-tagged entries. Returns the number removed.
  std::uint64_t InvalidateMasked(std::uint64_t mask, std::uint64_t value);

  // Counts entries with (tag & mask) == value without touching LRU order,
  // counters or the mutation version (tests/benchmarks only).
  std::uint64_t CountMatching(std::uint64_t mask, std::uint64_t value) const;

  void InvalidateAll();

  // Way-partitioned replacement: Insert's victim search is confined to the
  // partition selected by ((tag >> field_shift) & field_mask) % partitions,
  // so one partition's insertions can never evict another's entries (the
  // IOTLB side-channel defense). Lookups still probe every way. `partitions`
  // is clamped to the way count; partitions <= 1 restores the shared policy.
  // Entries already resident stay in the ways they occupy.
  void EnableWayPartitioning(std::uint32_t partitions, std::uint64_t field_shift,
                             std::uint64_t field_mask);

  // The set `tag` maps to (tests and reference models).
  std::uint32_t SetOf(std::uint64_t tag) const;

  std::uint32_t num_sets() const { return num_sets_; }
  std::uint32_t ways() const { return ways_; }
  std::uint64_t size() const;  // number of valid entries (O(capacity))
  std::uint64_t capacity() const { return static_cast<std::uint64_t>(num_sets_) * ways_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t invalidations() const { return invalidations_; }
  void ResetStats();

 private:
  static constexpr std::uint32_t kNoSlot = ~0u;

  struct Entry {
    // Position of this entry's tag in index_; kNoSlot marks an invalid slot.
    std::uint32_t index_pos = kNoSlot;
    std::uint32_t group = 0;  // replacement group (list) this slot belongs to
    std::uint64_t tag = 0;
    std::uint64_t payload = 0;
    std::uint64_t lru = 0;  // last-touch tick, larger = more recent
    bool valid() const { return index_pos != kNoSlot; }
  };
  // Doubly linked list node. Nodes [0, capacity) are slots; node
  // capacity + g is the sentinel of replacement group g.
  struct Link {
    std::uint32_t prev = 0;
    std::uint32_t next = 0;
  };
  // Open-addressed (linear probing) tag -> slot index entry.
  struct IndexEntry {
    std::uint64_t tag = 0;
    std::uint32_t slot = kNoSlot;  // kNoSlot = empty
  };

  std::size_t IndexHome(std::uint64_t tag) const;
  // Index position holding `tag` if present, else the empty position that
  // ends its probe chain (where an insert of `tag` goes).
  std::size_t IndexProbe(std::uint64_t tag) const;
  void IndexEraseAt(std::size_t pos);

  std::uint32_t GroupFor(std::uint64_t tag) const;
  std::uint32_t Sentinel(std::uint32_t group) const {
    return static_cast<std::uint32_t>(entries_.size()) + group;
  }
  void Unlink(std::uint32_t node);
  void LinkAfter(std::uint32_t at, std::uint32_t node);
  void MoveToFront(std::uint32_t slot);  // most recently used
  void MoveToBack(std::uint32_t slot);   // next victim
  // Refreshes a hit entry: counter, LRU tick and list position.
  std::uint64_t Touch(std::uint32_t slot);
  // Drops the valid entry in `slot`.
  void Drop(std::uint32_t slot);
  // Removes every valid entry matching `pred`; one pass over the slots.
  template <typename Pred>
  std::uint64_t DropMatching(Pred pred);
  // Reassigns slots to replacement groups and relinks every group's list in
  // LRU-tick order (construction and EnableWayPartitioning).
  void RebuildLists();

  std::uint32_t num_sets_;
  std::uint32_t ways_;
  // Way partitioning (EnableWayPartitioning); partitions_ <= 1 = disabled.
  std::uint32_t partitions_ = 1;
  std::uint32_t groups_per_set_ = 1;
  std::uint64_t partition_field_shift_ = 0;
  std::uint64_t partition_field_mask_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t mut_version_ = 0;
  std::vector<Entry> entries_;  // num_sets_ * ways_, set-major
  std::vector<Link> links_;     // entries_.size() slots, then one sentinel per group
  std::vector<IndexEntry> index_;  // power-of-two size >= 4 * capacity
  unsigned index_shift_ = 0;       // 64 - log2(index_.size())

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_CACHE_SET_ASSOC_CACHE_H_
