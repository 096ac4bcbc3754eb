// Microbenchmarks (google-benchmark) for the substrate data structures:
// IOVA allocation paths, IO page table operations, IOMMU cache operations,
// the root-complex DMA datapath, the memory model and reuse-distance
// tracking. These measure simulator-implementation speed
// (how fast the model itself runs), complementing the figure benches which
// measure *simulated* performance.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/cache/set_assoc_cache.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/iova/rbtree_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/pcie/root_complex.h"
#include "src/simcore/rng.h"
#include "src/stats/reuse_distance.h"

namespace fsio {
namespace {

void BM_RbTreeAllocFree(benchmark::State& state) {
  RbTreeAllocator tree(1ULL << 36);
  std::vector<std::uint64_t> live;
  Rng rng(1);
  for (auto _ : state) {
    if (live.size() < 1024 || rng.NextBool(0.5)) {
      const std::uint64_t pfn = tree.Alloc(1 + rng.NextBelow(64));
      if (pfn != RbTreeAllocator::kInvalidPfn) {
        live.push_back(pfn);
      }
    } else {
      const std::size_t idx = rng.NextBelow(live.size());
      tree.Free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RbTreeAllocFree);

void BM_IovaRcacheHit(benchmark::State& state) {
  StatsRegistry stats;
  IovaAllocator alloc(IovaAllocatorConfig{}, &stats);
  for (auto _ : state) {
    const Iova iova = alloc.Alloc(0, 1);
    alloc.Free(0, iova, 1);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_IovaRcacheHit);

void BM_PageTableMapUnmap(benchmark::State& state) {
  IoPageTable pt;
  const std::uint64_t span = state.range(0);
  Iova iova = 0x1000000000ULL;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < span; ++i) {
      pt.Map(iova + i * kPageSize, 0x1000 + i * kPageSize);
    }
    pt.Unmap(iova, span * kPageSize);
  }
  state.SetItemsProcessed(state.iterations() * span);
}
BENCHMARK(BM_PageTableMapUnmap)->Arg(1)->Arg(64)->Arg(512);

void BM_PageTableWalk(benchmark::State& state) {
  IoPageTable pt;
  Rng rng(7);
  std::vector<Iova> iovas;
  for (int i = 0; i < 4096; ++i) {
    const Iova iova = (rng.NextBelow(1 << 22)) << kPageShift;
    if (pt.Map(iova, 0x1000)) {
      iovas.push_back(iova);
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.Walk(iovas[i++ % iovas.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableWalk);

void BM_SetAssocCacheLookup(benchmark::State& state) {
  SetAssocCache cache(16, 4);
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    cache.Insert(i, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(rng.NextBelow(96)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetAssocCacheLookup);

// PTcache-L3 geometry (1 set x 128 ways): the fully-associative cache that
// strict-mode unmaps flush and the next walk refills.
constexpr std::uint32_t kL3Ways = 128;
constexpr std::uint64_t kL3Base = 0x5000;

// Fills a PTcache-L3-shaped cache with tags kL3Base .. kL3Base + 127.
SetAssocCache FullL3Cache() {
  SetAssocCache cache(1, kL3Ways);
  for (std::uint64_t i = 0; i < kL3Ways; ++i) {
    cache.Insert(kL3Base + i, i);
  }
  return cache;
}

// A seeded stream of `n` tags drawn from [first, first + span).
std::vector<std::uint64_t> TagStream(std::uint64_t first, std::uint64_t span, std::size_t n) {
  Rng rng(11);
  std::vector<std::uint64_t> tags(n);
  for (std::uint64_t& t : tags) {
    t = first + rng.NextBelow(span);
  }
  return tags;
}

void BM_PtcacheL3LookupHit(benchmark::State& state) {
  SetAssocCache cache = FullL3Cache();
  const std::vector<std::uint64_t> tags = TagStream(kL3Base, kL3Ways, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(tags[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PtcacheL3LookupHit);

void BM_PtcacheL3LookupMiss(benchmark::State& state) {
  SetAssocCache cache = FullL3Cache();
  const std::vector<std::uint64_t> tags = TagStream(kL3Base + kL3Ways, 1 << 20, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(tags[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PtcacheL3LookupMiss);

// Every insert is a new tag into a full cache, so each one evicts the LRU.
void BM_PtcacheL3InsertEvict(benchmark::State& state) {
  SetAssocCache cache = FullL3Cache();
  std::uint64_t tag = kL3Base + kL3Ways;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Insert(tag++, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PtcacheL3InsertEvict);

// Single-tag InvalidateRange of a resident tag (a strict-mode unmap's L3
// flush). The cache is refilled, untimed, after every 128 removals.
void BM_PtcacheL3InvalidateOne(benchmark::State& state) {
  SetAssocCache cache = FullL3Cache();
  std::uint64_t next = 0;
  for (auto _ : state) {
    if (next == kL3Ways) {
      state.PauseTiming();
      for (std::uint64_t i = 0; i < kL3Ways; ++i) {
        cache.Insert(kL3Base + i, i);
      }
      next = 0;
      state.ResumeTiming();
    }
    // Strided order so removals do not follow insertion order.
    const std::uint64_t tag = kL3Base + ((next++ * 37) & (kL3Ways - 1));
    benchmark::DoNotOptimize(cache.InvalidateRange(tag, tag));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PtcacheL3InvalidateOne);

void BM_IommuTranslateWarm(benchmark::State& state) {
  StatsRegistry stats;
  MemorySystem memory(MemoryConfig{}, &stats);
  IoPageTable pt;
  Iommu iommu(IommuConfig{}, &memory, &pt, &stats);
  for (int i = 0; i < 16; ++i) {
    pt.Map(0x1000000 + static_cast<Iova>(i) * kPageSize, 0x1000);
  }
  TimeNs t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iommu.Translate(0x1000000, t));
    t += 10;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IommuTranslateWarm);

// A root complex over 8 mapped 4 KB pages, one single-page DMA per page.
// With `with_iommu`, the IOMMU is warmed so every page hits the IOTLB;
// without, the RC runs in bypass (no translation).
class RootComplexBench {
 public:
  static constexpr int kPages = 8;

  explicit RootComplexBench(bool with_iommu)
      : memory_(MemoryConfig{}, &stats_),
        iommu_(IommuConfig{}, &memory_, &pt_, &stats_),
        rc_(PcieConfig{}, with_iommu ? &iommu_ : nullptr, &memory_, &stats_) {
    for (int i = 0; i < kPages; ++i) {
      const Iova iova = 0x1000000 + static_cast<Iova>(i) * kPageSize;
      pt_.Map(iova, 0x40000000 + static_cast<PhysAddr>(i) * kPageSize);
      pages_.push_back({DmaSegment{iova, static_cast<std::uint32_t>(kPageSize)}});
    }
    for (const auto& page : pages_) {
      rc_.DmaWrite(0, page);
    }
  }

  // Runs `dma` once per iteration, cycling over the pages; each DMA starts
  // when the previous one left the link, as a streaming NIC issues them.
  template <typename Dma>
  void Run(benchmark::State& state, Dma dma) {
    TimeNs t = 1'000'000;
    std::size_t i = 0;
    for (auto _ : state) {
      const DmaTiming timing = dma(rc_, t, pages_[i++ % kPages]);
      t = timing.link_done;
      benchmark::DoNotOptimize(timing);
    }
    // Items are TLPs (256 B each at the default max payload).
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kPageSize / 256));
  }

 private:
  StatsRegistry stats_;
  MemorySystem memory_;
  IoPageTable pt_;
  Iommu iommu_;
  RootComplex rc_;
  std::vector<std::vector<DmaSegment>> pages_;
};

void BM_RootComplexWritePage(benchmark::State& state) {
  RootComplexBench bench(state.range(0) != 0);
  bench.Run(state, [](RootComplex& rc, TimeNs t, const std::vector<DmaSegment>& page) {
    return rc.DmaWrite(t, page);
  });
}
BENCHMARK(BM_RootComplexWritePage)->ArgName("iommu")->Arg(0)->Arg(1);

void BM_RootComplexReadPage(benchmark::State& state) {
  RootComplexBench bench(state.range(0) != 0);
  bench.Run(state, [](RootComplex& rc, TimeNs t, const std::vector<DmaSegment>& page) {
    return rc.DmaRead(t, page);
  });
}
BENCHMARK(BM_RootComplexReadPage)->ArgName("iommu")->Arg(0)->Arg(1);

// Posted writes on the default 8-bank memory from a seeded stream mixing
// 256 B payload commits and 64 B (cacheline) accesses at 0-15 ns gaps, so
// the banks stay busy and the earliest-free pick is not a fixed rotation.
void BM_MemorySystemPost(benchmark::State& state) {
  StatsRegistry stats;
  MemorySystem memory(MemoryConfig{}, &stats);
  Rng rng(5);
  std::vector<std::pair<TimeNs, std::uint64_t>> stream(4096);
  for (auto& [gap, bytes] : stream) {
    gap = rng.NextBelow(16);
    bytes = rng.NextBool(0.5) ? 256 : 64;
  }
  TimeNs t = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [gap, bytes] = stream[i++ & 4095];
    t += gap;
    memory.Post(t, bytes);
  }
  benchmark::DoNotOptimize(memory.total_bytes());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemorySystemPost);

void BM_ReuseDistanceAccess(benchmark::State& state) {
  ReuseDistanceTracker tracker;
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.Access(rng.NextBelow(256)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReuseDistanceAccess);

}  // namespace
}  // namespace fsio

BENCHMARK_MAIN();
