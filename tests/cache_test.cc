// Unit and property tests for the set-associative LRU cache that backs the
// IOTLB and the PTcache-L1/L2/L3 models.
#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/set_assoc_cache.h"
#include "src/simcore/rng.h"

namespace fsio {
namespace {

TEST(SetAssocCacheTest, MissThenHit) {
  SetAssocCache c(1, 4);
  EXPECT_FALSE(c.Lookup(1).has_value());
  c.Insert(1, 100);
  auto hit = c.Lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 100u);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCacheTest, LruEvictionInFullyAssociativeSet) {
  SetAssocCache c(1, 2);
  c.Insert(1, 0);
  c.Insert(2, 0);
  c.Lookup(1);       // 2 becomes LRU
  c.Insert(3, 0);    // evicts 2
  EXPECT_TRUE(c.Lookup(1).has_value());
  EXPECT_FALSE(c.Lookup(2).has_value());
  EXPECT_TRUE(c.Lookup(3).has_value());
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(SetAssocCacheTest, InsertReturnsEvictedTag) {
  SetAssocCache c(1, 1);
  EXPECT_EQ(c.Insert(7, 0), std::nullopt);
  auto evicted = c.Insert(8, 0);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 7u);
}

TEST(SetAssocCacheTest, ReinsertUpdatesPayloadWithoutEviction) {
  SetAssocCache c(1, 2);
  c.Insert(1, 10);
  c.Insert(1, 20);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(*c.Peek(1), 20u);
  EXPECT_EQ(c.evictions(), 0u);
}

TEST(SetAssocCacheTest, InvalidateRemovesEntry) {
  SetAssocCache c(4, 2);
  c.Insert(5, 0);
  EXPECT_TRUE(c.Invalidate(5));
  EXPECT_FALSE(c.Invalidate(5));
  EXPECT_FALSE(c.Lookup(5).has_value());
  EXPECT_EQ(c.invalidations(), 1u);
}

TEST(SetAssocCacheTest, InvalidateRangeRemovesAllInRange) {
  SetAssocCache c(16, 4);
  for (std::uint64_t tag = 100; tag < 140; ++tag) {
    c.Insert(tag, 0);
  }
  const std::uint64_t removed = c.InvalidateRange(110, 119);
  EXPECT_EQ(removed, 10u);
  EXPECT_FALSE(c.Peek(110).has_value());
  EXPECT_FALSE(c.Peek(119).has_value());
  EXPECT_TRUE(c.Peek(109).has_value());
  EXPECT_TRUE(c.Peek(120).has_value());
}

TEST(SetAssocCacheTest, InvalidateRangeLargeRangeScansArrays) {
  SetAssocCache c(2, 2);
  c.Insert(1, 0);
  c.Insert(1000000, 0);
  // Range far larger than capacity exercises the scan path.
  EXPECT_EQ(c.InvalidateRange(0, ~0ULL), 2u);
  EXPECT_EQ(c.size(), 0u);
}

TEST(SetAssocCacheTest, InvalidateByPayloadRemovesStalePointers) {
  SetAssocCache c(8, 2);
  c.Insert(1, 777);
  c.Insert(2, 777);
  c.Insert(3, 888);
  EXPECT_EQ(c.InvalidateByPayload(777), 2u);
  EXPECT_FALSE(c.Peek(1).has_value());
  EXPECT_FALSE(c.Peek(2).has_value());
  EXPECT_TRUE(c.Peek(3).has_value());
}

TEST(SetAssocCacheTest, InvalidateAllEmptiesCache) {
  SetAssocCache c(4, 4);
  for (std::uint64_t t = 0; t < 16; ++t) {
    c.Insert(t, 0);
  }
  c.InvalidateAll();
  EXPECT_EQ(c.size(), 0u);
}

TEST(SetAssocCacheTest, PeekDoesNotDisturbLruOrStats) {
  SetAssocCache c(1, 2);
  c.Insert(1, 0);
  c.Insert(2, 0);
  c.Peek(1);         // must NOT refresh 1
  c.Insert(3, 0);    // evicts 1 (true LRU)
  EXPECT_FALSE(c.Peek(1).has_value());
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(SetAssocCacheTest, DifferentSetsDoNotEvictEachOther) {
  // With many sets and 1 way, two tags in different sets coexist.
  SetAssocCache c(64, 1);
  std::uint64_t placed = 0;
  for (std::uint64_t t = 0; t < 32; ++t) {
    c.Insert(t, 0);
  }
  for (std::uint64_t t = 0; t < 32; ++t) {
    if (c.Peek(t).has_value()) {
      ++placed;
    }
  }
  // Some conflict misses are expected, but most tags must survive.
  EXPECT_GT(placed, 16u);
}

TEST(SetAssocCacheTest, ResetStatsZeroesCountersButKeepsContents) {
  SetAssocCache c(1, 4);
  c.Insert(1, 0);
  c.Lookup(1);
  c.Lookup(2);
  c.ResetStats();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_TRUE(c.Peek(1).has_value());
}

TEST(SetAssocCacheTest, RejectsNonPowerOfTwoSetCount) {
  for (const std::uint32_t sets : {0u, 3u, 6u, 24u}) {
    EXPECT_THROW(SetAssocCache(sets, 4), std::invalid_argument) << sets << " sets";
  }
  EXPECT_NO_THROW(SetAssocCache(32, 4));
}

// Reference model: per-set LRU over std::lists, with the cache's counters
// and mutation-version rules. Sets come from SetAssocCache::SetOf.
class ReferenceLru {
 public:
  struct Item {
    std::uint64_t tag;
    std::uint64_t payload;
  };

  explicit ReferenceLru(const SetAssocCache& geometry)
      : geometry_(geometry), ways_(geometry.ways()), sets_(geometry.num_sets()) {}

  std::optional<std::uint64_t> Lookup(std::uint64_t tag) {
    auto it = index_.find(tag);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    Touch(tag, it->second);
    return it->second->payload;
  }

  std::optional<std::uint64_t> Insert(std::uint64_t tag, std::uint64_t payload) {
    ++version_;
    if (auto it = index_.find(tag); it != index_.end()) {
      it->second->payload = payload;
      Touch(tag, it->second);
      return std::nullopt;
    }
    std::list<Item>& set = sets_[geometry_.SetOf(tag)];
    std::optional<std::uint64_t> evicted;
    if (set.size() == ways_) {
      evicted = set.back().tag;
      ++evictions_;
      index_.erase(set.back().tag);
      set.pop_back();
    }
    set.push_front(Item{tag, payload});
    index_[tag] = set.begin();
    return evicted;
  }

  bool Invalidate(std::uint64_t tag) {
    if (!index_.contains(tag)) {
      return false;
    }
    Remove(tag);
    ++version_;
    return true;
  }

  // Every multi-entry mutator, brute force: removes the matching entries
  // and bumps the version by `per_entry` ? removed : (removed > 0).
  template <typename Pred>
  std::uint64_t RemoveIf(Pred pred, bool per_entry) {
    std::vector<std::uint64_t> doomed;
    for (const auto& [tag, it] : index_) {
      if (pred(*it)) {
        doomed.push_back(tag);
      }
    }
    for (const std::uint64_t tag : doomed) {
      Remove(tag);
    }
    version_ += per_entry ? doomed.size() : (doomed.empty() ? 0 : 1);
    return doomed.size();
  }

  void InvalidateAll() {
    const std::uint64_t before = version_;
    RemoveIf([](const Item&) { return true; }, /*per_entry=*/false);
    version_ = before + 1;  // InvalidateAll bumps exactly once, even when empty
  }

  std::optional<std::uint64_t> Peek(std::uint64_t tag) const {
    auto it = index_.find(tag);
    if (it == index_.end()) {
      return std::nullopt;
    }
    return it->second->payload;
  }

  std::uint64_t size() const { return index_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t invalidations() const { return invalidations_; }
  std::uint64_t version() const { return version_; }

 private:
  void Touch(std::uint64_t tag, std::list<Item>::iterator it) {
    std::list<Item>& set = sets_[geometry_.SetOf(tag)];
    set.splice(set.begin(), set, it);
  }
  void Remove(std::uint64_t tag) {
    auto it = index_.find(tag);
    sets_[geometry_.SetOf(tag)].erase(it->second);
    index_.erase(it);
    ++invalidations_;
  }

  const SetAssocCache& geometry_;
  std::size_t ways_;
  std::vector<std::list<Item>> sets_;
  std::unordered_map<std::uint64_t, std::list<Item>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t version_ = 0;
};

// Drives `cache` and a ReferenceLru through a seeded random mix of every
// operation, checking results, counters and the mutation version at each
// step and the full contents periodically. RepeatHit replays the last
// Lookup hit whenever the mutation version says its handle is still valid.
void RunLockstep(SetAssocCache* cache, std::uint64_t seed, int steps) {
  ReferenceLru ref(*cache);
  Rng rng(seed);
  const std::uint64_t cap = cache->capacity();
  const std::uint64_t universe = 3 * cap;
  std::optional<std::uint64_t> handle_tag;
  SetAssocCache::HitHandle handle = 0;
  std::uint64_t handle_version = 0;
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t tag = rng.NextBelow(universe);
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 45) {
      SetAssocCache::HitHandle h = 0;
      const auto got = cache->Lookup(tag, &h);
      ASSERT_EQ(got, ref.Lookup(tag)) << "lookup, step " << i << " tag " << tag;
      if (got.has_value()) {
        handle_tag = tag;
        handle = h;
        handle_version = cache->mutation_version();
      }
    } else if (op < 55) {
      if (handle_tag.has_value() && cache->mutation_version() == handle_version) {
        ASSERT_EQ(cache->RepeatHit(handle), ref.Lookup(*handle_tag)) << "repeat, step " << i;
      }
    } else if (op < 85) {
      const std::uint64_t payload = rng.NextBelow(8);
      ASSERT_EQ(cache->Insert(tag, payload), ref.Insert(tag, payload))
          << "evicted tag, step " << i << " tag " << tag;
    } else if (op < 90) {
      ASSERT_EQ(cache->Invalidate(tag), ref.Invalidate(tag)) << "invalidate, step " << i;
    } else if (op < 94) {
      // Small range: probed tag by tag, one version bump per removal.
      const std::uint64_t last = tag + rng.NextBelow(cap);
      ASSERT_EQ(cache->InvalidateRange(tag, last),
                ref.RemoveIf([&](const auto& e) { return e.tag >= tag && e.tag <= last; },
                             /*per_entry=*/true))
          << "small range, step " << i;
    } else if (op < 96) {
      // Large range: one scan, one version bump.
      const std::uint64_t last = tag + cap + rng.NextBelow(cap);
      ASSERT_EQ(cache->InvalidateRange(tag, last),
                ref.RemoveIf([&](const auto& e) { return e.tag >= tag && e.tag <= last; },
                             /*per_entry=*/false))
          << "large range, step " << i;
    } else if (op < 98) {
      const std::uint64_t payload = rng.NextBelow(8);
      ASSERT_EQ(cache->InvalidateByPayload(payload),
                ref.RemoveIf([&](const auto& e) { return e.payload == payload; },
                             /*per_entry=*/false))
          << "by payload, step " << i;
    } else if (op < 99) {
      const std::uint64_t value = rng.NextBelow(4);
      ASSERT_EQ(cache->InvalidateMasked(3, value),
                ref.RemoveIf([&](const auto& e) { return (e.tag & 3) == value; },
                             /*per_entry=*/false))
          << "masked, step " << i;
    } else if (rng.NextBelow(4) == 0) {
      cache->InvalidateAll();
      ref.InvalidateAll();
    }
    ASSERT_EQ(cache->hits(), ref.hits()) << "step " << i;
    ASSERT_EQ(cache->misses(), ref.misses()) << "step " << i;
    ASSERT_EQ(cache->evictions(), ref.evictions()) << "step " << i;
    ASSERT_EQ(cache->invalidations(), ref.invalidations()) << "step " << i;
    ASSERT_EQ(cache->mutation_version(), ref.version()) << "step " << i;
    if (i % 256 == 0) {
      ASSERT_EQ(cache->size(), ref.size()) << "step " << i;
      for (std::uint64_t t = 0; t < universe; ++t) {
        ASSERT_EQ(cache->Peek(t), ref.Peek(t)) << "contents, step " << i << " tag " << t;
      }
    }
  }
}

// Property test: a (1 set, N ways) cache must behave exactly like
// fully-associative LRU under a random workload.
class FullyAssocProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FullyAssocProperty, MatchesReferenceLru) {
  const std::uint32_t ways = GetParam();
  SetAssocCache cache(1, ways);
  RunLockstep(&cache, 1234 + ways, 20000);
}

INSTANTIATE_TEST_SUITE_P(Ways, FullyAssocProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 32u, 64u, 128u));

// The same lockstep over multi-set geometries: the PTcache-shaped 4x32 and
// the default IOTLB's 16x4.
struct Geometry {
  std::uint32_t sets;
  std::uint32_t ways;
};

void PrintTo(const Geometry& g, std::ostream* os) { *os << g.sets << "x" << g.ways; }

class SetAssocProperty : public ::testing::TestWithParam<Geometry> {};

TEST_P(SetAssocProperty, MatchesReferenceLru) {
  SetAssocCache cache(GetParam().sets, GetParam().ways);
  RunLockstep(&cache, 99 + GetParam().sets, 20000);
}

INSTANTIATE_TEST_SUITE_P(Geometries, SetAssocProperty,
                         ::testing::Values(Geometry{4, 32}, Geometry{16, 4}),
                         [](const ::testing::TestParamInfo<Geometry>& info) {
                           return std::to_string(info.param.sets) + "x" +
                                  std::to_string(info.param.ways);
                         });

// Brute-force reference for way-partitioned replacement: a slot array
// scanned on every operation, the victim being the first invalid slot or
// else the least recently touched one within the tag's partition's ways.
class BruteForcePartitioned {
 public:
  BruteForcePartitioned(const SetAssocCache& geometry, std::uint32_t partitions,
                        std::uint64_t shift, std::uint64_t mask)
      : geometry_(geometry),
        ways_(geometry.ways()),
        partitions_(partitions),
        shift_(shift),
        mask_(mask),
        slots_(static_cast<std::size_t>(geometry.num_sets()) * geometry.ways()) {}

  bool Lookup(std::uint64_t tag) {
    Slot* s = Find(tag);
    if (s != nullptr) {
      s->tick = ++tick_;
    }
    return s != nullptr;
  }

  std::optional<std::uint64_t> Insert(std::uint64_t tag) {
    if (Slot* s = Find(tag); s != nullptr) {
      s->tick = ++tick_;
      return std::nullopt;
    }
    const std::size_t base = static_cast<std::size_t>(geometry_.SetOf(tag)) * ways_;
    const std::uint32_t p = static_cast<std::uint32_t>(((tag >> shift_) & mask_) % partitions_);
    Slot* victim = nullptr;
    for (std::uint32_t w = p * ways_ / partitions_; w < (p + 1) * ways_ / partitions_; ++w) {
      Slot& s = slots_[base + w];
      if (!s.valid) {
        victim = &s;
        break;
      }
      if (victim == nullptr || s.tick < victim->tick) {
        victim = &s;
      }
    }
    std::optional<std::uint64_t> evicted;
    if (victim->valid) {
      evicted = victim->tag;
    }
    *victim = Slot{true, tag, ++tick_};
    return evicted;
  }

  void Invalidate(std::uint64_t tag) {
    if (Slot* s = Find(tag); s != nullptr) {
      s->valid = false;
    }
  }

 private:
  struct Slot {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t tick = 0;
  };
  Slot* Find(std::uint64_t tag) {
    const std::size_t base = static_cast<std::size_t>(geometry_.SetOf(tag)) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (slots_[base + w].valid && slots_[base + w].tag == tag) {
        return &slots_[base + w];
      }
    }
    return nullptr;
  }

  const SetAssocCache& geometry_;
  std::uint32_t ways_;
  std::uint32_t partitions_;
  std::uint64_t shift_;
  std::uint64_t mask_;
  std::vector<Slot> slots_;
  std::uint64_t tick_ = 0;
};

// A way-partitioned 16x4 cache (the IOTLB-SC defense's geometry) must pick
// exactly the brute-force victims, for even and uneven way splits.
TEST(SetAssocCacheTest, PartitionedVictimsMatchBruteForceMinLru) {
  constexpr std::uint64_t kShift = 48;
  constexpr std::uint64_t kMask = 1023;
  for (const std::uint32_t partitions : {2u, 3u, 4u}) {
    SetAssocCache cache(16, 4);
    cache.EnableWayPartitioning(partitions, kShift, kMask);
    BruteForcePartitioned ref(cache, partitions, kShift, kMask);
    Rng rng(partitions);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t tag = (rng.NextBelow(5) << kShift) | rng.NextBelow(96);
      const std::uint64_t op = rng.NextBelow(10);
      if (op < 4) {
        ASSERT_EQ(cache.Lookup(tag).has_value(), ref.Lookup(tag)) << "step " << i;
      } else if (op < 9) {
        ASSERT_EQ(cache.Insert(tag, 0), ref.Insert(tag))
            << partitions << " partitions, step " << i << " tag " << tag;
      } else {
        cache.Invalidate(tag);
        ref.Invalidate(tag);
      }
    }
  }
}

}  // namespace
}  // namespace fsio
