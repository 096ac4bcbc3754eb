#include "src/cache/set_assoc_cache.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace fsio {

namespace {
// Mixes the tag before set selection so that strided tags (consecutive page
// numbers) spread across sets the way physical indexing does.
std::uint64_t MixTag(std::uint64_t tag) {
  tag ^= tag >> 33;
  tag *= 0xff51afd7ed558ccdULL;
  tag ^= tag >> 33;
  return tag;
}

bool IsPowerOfTwo(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

SetAssocCache::SetAssocCache(std::uint32_t num_sets, std::uint32_t ways)
    : num_sets_(num_sets), ways_(ways == 0 ? 1 : ways) {
  if (!IsPowerOfTwo(num_sets_)) {
    throw std::invalid_argument("SetAssocCache: num_sets must be a power of two");
  }
  // Slots, sentinels and index positions are 32-bit ids.
  if (capacity() >= (1ULL << 28)) {
    throw std::invalid_argument("SetAssocCache: capacity too large");
  }
  entries_.resize(static_cast<std::size_t>(capacity()));
  // Load factor <= 1/4: most probes end at the home position, so the
  // probe loops stay short and predictable even for a 4-way IOTLB.
  std::size_t index_size = 4;
  index_shift_ = 62;
  while (index_size < 4 * entries_.size()) {
    index_size *= 2;
    --index_shift_;
  }
  index_.resize(index_size);
  RebuildLists();
}

std::size_t SetAssocCache::IndexHome(std::uint64_t tag) const {
  // Fibonacci hashing: consecutive tags land far apart, so runs of page
  // numbers do not form long probe chains.
  return static_cast<std::size_t>((tag * 0x9e3779b97f4a7c15ULL) >> index_shift_);
}

std::size_t SetAssocCache::IndexProbe(std::uint64_t tag) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = IndexHome(tag);
  while (index_[pos].slot != kNoSlot && index_[pos].tag != tag) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void SetAssocCache::IndexEraseAt(std::size_t pos) {
  // Backward-shift deletion: pull later members of the probe chain into the
  // hole whenever the hole lies between their home and their position, so
  // no tombstones are needed and every chain stays unbroken.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = pos;
  for (std::size_t next = (hole + 1) & mask; index_[next].slot != kNoSlot;
       next = (next + 1) & mask) {
    const std::size_t home = IndexHome(index_[next].tag);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      entries_[index_[hole].slot].index_pos = static_cast<std::uint32_t>(hole);
      hole = next;
    }
  }
  index_[hole].slot = kNoSlot;
}

std::uint32_t SetAssocCache::SetOf(std::uint64_t tag) const {
  return static_cast<std::uint32_t>(MixTag(tag) & (num_sets_ - 1));
}

std::uint32_t SetAssocCache::GroupFor(std::uint64_t tag) const {
  const std::uint32_t set = SetOf(tag);
  if (groups_per_set_ == 1) {
    return set;
  }
  const auto p = static_cast<std::uint32_t>(
      ((tag >> partition_field_shift_) & partition_field_mask_) % partitions_);
  return set * groups_per_set_ + p;
}

void SetAssocCache::Unlink(std::uint32_t node) {
  const Link l = links_[node];
  links_[l.prev].next = l.next;
  links_[l.next].prev = l.prev;
}

void SetAssocCache::LinkAfter(std::uint32_t at, std::uint32_t node) {
  const std::uint32_t next = links_[at].next;
  links_[node] = Link{at, next};
  links_[at].next = node;
  links_[next].prev = node;
}

void SetAssocCache::MoveToFront(std::uint32_t slot) {
  const std::uint32_t head = Sentinel(entries_[slot].group);
  if (links_[head].next != slot) {
    Unlink(slot);
    LinkAfter(head, slot);
  }
}

void SetAssocCache::MoveToBack(std::uint32_t slot) {
  const std::uint32_t head = Sentinel(entries_[slot].group);
  if (links_[head].prev != slot) {
    Unlink(slot);
    LinkAfter(links_[head].prev, slot);
  }
}

void SetAssocCache::RebuildLists() {
  groups_per_set_ = partitions_ > 1 ? partitions_ : 1;
  const auto slots = static_cast<std::uint32_t>(entries_.size());
  links_.assign(slots + static_cast<std::size_t>(num_sets_) * groups_per_set_, Link{});
  for (std::uint32_t node = slots; node < links_.size(); ++node) {
    links_[node] = Link{node, node};
  }
  // Appending slots most-recent first leaves each list MRU -> LRU, with the
  // invalid slots (in any order: they are interchangeable) at the tail.
  std::vector<std::uint32_t> order(slots);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
    const Entry& x = entries_[a];
    const Entry& y = entries_[b];
    return x.valid() != y.valid() ? x.valid() : x.lru > y.lru;
  });
  for (const std::uint32_t slot : order) {
    const std::uint32_t way = slot % ways_;
    // Partition p owns ways [p * ways / partitions, (p + 1) * ways / partitions).
    std::uint32_t p = 0;
    while ((p + 1) * ways_ / groups_per_set_ <= way) {
      ++p;
    }
    Entry& e = entries_[slot];
    e.group = (slot / ways_) * groups_per_set_ + p;
    LinkAfter(links_[Sentinel(e.group)].prev, slot);
  }
}

std::uint64_t SetAssocCache::Touch(std::uint32_t slot) {
  Entry& e = entries_[slot];
  ++hits_;
  e.lru = ++tick_;
  MoveToFront(slot);
  return e.payload;
}

std::optional<std::uint64_t> SetAssocCache::Lookup(std::uint64_t tag) {
  HitHandle unused;
  return Lookup(tag, &unused);
}

std::optional<std::uint64_t> SetAssocCache::Lookup(std::uint64_t tag, HitHandle* handle) {
  const IndexEntry& e = index_[IndexProbe(tag)];
  if (e.slot == kNoSlot) {
    ++misses_;
    return std::nullopt;
  }
  *handle = e.slot;
  return Touch(e.slot);
}

std::uint64_t SetAssocCache::RepeatHit(HitHandle handle) { return Touch(handle); }

std::optional<std::uint64_t> SetAssocCache::Peek(std::uint64_t tag) const {
  const IndexEntry& e = index_[IndexProbe(tag)];
  if (e.slot == kNoSlot) {
    return std::nullopt;
  }
  return entries_[e.slot].payload;
}

std::optional<std::uint64_t> SetAssocCache::Insert(std::uint64_t tag, std::uint64_t payload) {
  ++mut_version_;
  const std::size_t pos = IndexProbe(tag);
  if (index_[pos].slot != kNoSlot) {
    Entry& e = entries_[index_[pos].slot];
    e.payload = payload;
    e.lru = ++tick_;
    MoveToFront(index_[pos].slot);
    return std::nullopt;
  }
  // The victim is the tail of the tag's replacement group: an invalid slot
  // if the group has one, else its least recently used entry (ticks are
  // unique, so that entry is unique).
  const std::uint32_t slot = links_[Sentinel(GroupFor(tag))].prev;
  Entry& victim = entries_[slot];
  std::optional<std::uint64_t> evicted;
  const std::uint32_t victim_pos = victim.index_pos;
  if (victim_pos != kNoSlot) {
    evicted = victim.tag;
    ++evictions_;
  }
  // Index the new tag before dropping the victim's entry: `pos` ends the
  // new tag's probe chain now, and the erase keeps every chain intact.
  index_[pos] = IndexEntry{tag, slot};
  victim.index_pos = static_cast<std::uint32_t>(pos);
  if (victim_pos != kNoSlot) {
    IndexEraseAt(victim_pos);
  }
  victim.tag = tag;
  victim.payload = payload;
  victim.lru = ++tick_;
  MoveToFront(slot);
  return evicted;
}

void SetAssocCache::Drop(std::uint32_t slot) {
  IndexEraseAt(entries_[slot].index_pos);
  entries_[slot].index_pos = kNoSlot;
  MoveToBack(slot);
  ++invalidations_;
}

bool SetAssocCache::Invalidate(std::uint64_t tag) {
  const std::uint32_t slot = index_[IndexProbe(tag)].slot;
  if (slot == kNoSlot) {
    return false;
  }
  Drop(slot);
  ++mut_version_;
  return true;
}

template <typename Pred>
std::uint64_t SetAssocCache::DropMatching(Pred pred) {
  std::uint64_t removed = 0;
  for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
    if (entries_[slot].valid() && pred(entries_[slot])) {
      Drop(slot);
      ++removed;
    }
  }
  if (removed > 0) {
    ++mut_version_;
  }
  return removed;
}

std::uint64_t SetAssocCache::InvalidateRange(std::uint64_t first, std::uint64_t last) {
  // Small ranges (a descriptor's worth of pages) probe the index per tag;
  // large ranges scan the slots once.
  if (last >= first && last - first < capacity()) {
    std::uint64_t removed = 0;
    for (std::uint64_t tag = first;; ++tag) {
      if (Invalidate(tag)) {
        ++removed;
      }
      if (tag == last) {
        break;
      }
    }
    return removed;
  }
  return DropMatching([&](const Entry& e) { return e.tag >= first && e.tag <= last; });
}

std::uint64_t SetAssocCache::InvalidateByPayload(std::uint64_t payload) {
  return DropMatching([&](const Entry& e) { return e.payload == payload; });
}

std::uint64_t SetAssocCache::InvalidateMasked(std::uint64_t mask, std::uint64_t value) {
  return DropMatching([&](const Entry& e) { return (e.tag & mask) == value; });
}

std::uint64_t SetAssocCache::CountMatching(std::uint64_t mask, std::uint64_t value) const {
  std::uint64_t n = 0;
  for (const Entry& e : entries_) {
    if (e.valid() && (e.tag & mask) == value) {
      ++n;
    }
  }
  return n;
}

void SetAssocCache::EnableWayPartitioning(std::uint32_t partitions, std::uint64_t field_shift,
                                          std::uint64_t field_mask) {
  partitions_ = partitions > ways_ ? ways_ : partitions;
  partition_field_shift_ = field_shift;
  partition_field_mask_ = field_mask;
  RebuildLists();
}

void SetAssocCache::InvalidateAll() {
  ++mut_version_;
  for (Entry& e : entries_) {
    if (e.valid()) {
      e.index_pos = kNoSlot;
      ++invalidations_;
    }
  }
  // Every slot is now invalid, so any list order is a valid order.
  std::fill(index_.begin(), index_.end(), IndexEntry{});
}

std::uint64_t SetAssocCache::size() const {
  std::uint64_t n = 0;
  for (const Entry& e : entries_) {
    if (e.valid()) {
      ++n;
    }
  }
  return n;
}

void SetAssocCache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  invalidations_ = 0;
}

}  // namespace fsio
