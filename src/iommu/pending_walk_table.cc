#include "src/iommu/pending_walk_table.h"

#include <algorithm>

namespace fsio {

namespace {
unsigned ShiftFor(std::size_t slots) {
  unsigned shift = 64;
  for (std::size_t n = slots; n > 1; n /= 2) {
    --shift;
  }
  return shift;
}
}  // namespace

PendingWalkTable::PendingWalkTable()
    : slots_(kInitialSlots), shift_(ShiftFor(kInitialSlots)) {}

std::size_t PendingWalkTable::Home(std::uint64_t key) const {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::size_t PendingWalkTable::Find(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t pos = Home(key);; pos = (pos + 1) & mask) {
    if (slots_[pos].key == key) {
      return pos;
    }
    if (slots_[pos].key == kEmpty) {
      return slots_.size();
    }
  }
}

const PendingWalkTable::Walk* PendingWalkTable::FindInFlight(std::uint64_t key,
                                                             TimeNs start) const {
  const std::size_t pos = Find(key);
  if (pos == slots_.size() || slots_[pos].walk.done <= start) {
    return nullptr;
  }
  return &slots_[pos].walk;
}

void PendingWalkTable::Record(std::uint64_t key, const Walk& walk, TimeNs start) {
  if (size_ > slots_.size() / 2) {
    Grow();
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t pos = Home(key);
  while (slots_[pos].key != key && slots_[pos].key != kEmpty) {
    pos = (pos + 1) & mask;
  }
  if (slots_[pos].key == kEmpty) {
    slots_[pos].key = key;
    ++size_;
  }
  slots_[pos].walk = walk;
  if (size_ > kPruneAbove) {
    EraseIf([start](const Slot& s) { return s.walk.done <= start; });
  }
}

void PendingWalkTable::Erase(std::uint64_t key) {
  if (const std::size_t pos = Find(key); pos != slots_.size()) {
    EraseAt(pos);
  }
}

void PendingWalkTable::EraseMasked(std::uint64_t mask, std::uint64_t value) {
  EraseIf([mask, value](const Slot& s) { return (s.key & mask) == value; });
}

void PendingWalkTable::Clear() {
  if (size_ > 0) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }
}

void PendingWalkTable::EraseAt(std::size_t pos) {
  // Backward-shift deletion (see SetAssocCache's tag index).
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = pos;
  for (std::size_t next = (hole + 1) & mask; slots_[next].key != kEmpty;
       next = (next + 1) & mask) {
    const std::size_t home = Home(slots_[next].key);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].key = kEmpty;
  --size_;
}

template <typename Pred>
void PendingWalkTable::EraseIf(Pred pred) {
  // A deletion shifts later chain members back into position `pos`, so the
  // position is re-examined instead of advancing. Members only ever move to
  // positions at or after `pos` (or, past the wrap, to positions whose
  // occupants were already examined), so every entry is examined.
  for (std::size_t pos = 0; pos < slots_.size();) {
    if (slots_[pos].key != kEmpty && pred(slots_[pos])) {
      EraseAt(pos);
    } else {
      ++pos;
    }
  }
}

void PendingWalkTable::Grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  shift_ = ShiftFor(slots_.size());
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.key != kEmpty) {
      std::size_t pos = Home(s.key);
      while (slots_[pos].key != kEmpty) {
        pos = (pos + 1) & mask;
      }
      slots_[pos] = s;
    }
  }
}

}  // namespace fsio
