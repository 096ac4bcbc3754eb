#include "bench/perf/probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>

#include "src/cache/set_assoc_cache.h"
#include "src/driver/dma_api.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/pcie/root_complex.h"
#include "src/simcore/event_queue.h"
#include "src/simcore/rng.h"

namespace fsio {
namespace perf {
namespace {

using Clock = std::chrono::steady_clock;

// The first repetition warms caches and allocators and is dropped; the
// median of the rest is reported.
constexpr int kReps = 6;
constexpr std::uint64_t kCallsPerRep = 100'000;
constexpr std::uint32_t kPagesPerDesc = 64;

// Keeps probe results observable so the timed calls are not optimized away.
volatile std::uint64_t g_sink = 0;

double Elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t Get(const Counters& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// a / b, or `fallback` when b is zero.
double Ratio(double a, double b, double fallback) { return b > 0 ? a / b : fallback; }

// Runs `rep` kReps times. Each call returns (host seconds, calls made);
// returns the median host ns per call over all but the first repetition.
template <typename Rep>
double MedianNsPerCall(Rep&& rep) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    const auto [seconds, calls] = rep();
    if (r > 0) {
      ns.push_back(seconds * 1e9 / static_cast<double>(std::max<std::uint64_t>(calls, 1)));
    }
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

// Mean simulated gap between calls of a layer over the measured span.
TimeNs GapNs(const ProbeInputs& in, std::uint64_t calls) {
  return static_cast<TimeNs>(std::max(1.0, Ratio(static_cast<double>(in.span_ns),
                                                 static_cast<double>(calls), 1.0)));
}

// simcore: a self-rescheduling event population as large as the measured
// run's pending set, with delays whose mean keeps the same event rate.
double ProbeEventCore(const ProbeInputs& in, Rng* rng) {
  const std::size_t population = std::clamp<std::size_t>(in.pending_events, 64, 1 << 16);
  const double mean_delay =
      Ratio(static_cast<double>(population) * static_cast<double>(in.span_ns),
            static_cast<double>(in.events), 1000.0);
  const TimeNs max_delay = std::max<TimeNs>(2, static_cast<TimeNs>(2.0 * mean_delay));
  EventQueue ev;
  ev.Reserve(population * 2);
  std::uint64_t budget = 0;
  struct Tick {
    EventQueue* ev;
    Rng* rng;
    std::uint64_t* budget;
    TimeNs max_delay;
    void operator()() const {
      if (*budget == 0) {
        return;
      }
      --*budget;
      ev->ScheduleAfter(1 + static_cast<TimeNs>(rng->NextBelow(max_delay)), Tick(*this));
    }
  };
  return MedianNsPerCall([&] {
    budget = kCallsPerRep;
    const std::uint64_t before = ev.executed();
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < population; ++i) {
      ev.ScheduleAfter(static_cast<TimeNs>(rng->NextBelow(max_delay)),
                       Tick{&ev, rng, &budget, max_delay});
    }
    ev.RunAll();
    return std::make_pair(Elapsed(start), ev.executed() - before);
  });
}

// pcie: Rx packet writes and Tx reads through a root complex with no IOMMU,
// at the measured host's packet sizes, write/read share and DMA rate.
double ProbePcie(const ProbeInputs& in, Rng* rng) {
  const Counters& c = in.host;
  const double rx_packets = static_cast<double>(Get(c, "nic.rx_packets"));
  const double tx_packets = static_cast<double>(Get(c, "nic.tx_packets"));
  const auto write_bytes = static_cast<std::uint32_t>(std::clamp(
      Ratio(static_cast<double>(Get(c, "nic.rx_wire_bytes")), rx_packets, 4096.0), 64.0,
      4096.0));
  const auto read_bytes = static_cast<std::uint32_t>(std::clamp(
      Ratio(static_cast<double>(Get(c, "nic.tx_bytes")), tx_packets, 64.0), 64.0, 4096.0));
  const double write_share = Ratio(rx_packets, rx_packets + tx_packets, 1.0);
  const TimeNs gap = GapNs(in, Get(c, "nic.rx_packets") + Get(c, "nic.tx_packets"));

  StatsRegistry stats;
  MemorySystem mem(MemoryConfig{}, &stats);
  RootComplex rc(PcieConfig{}, nullptr, &mem, &stats);
  Counter* writes = stats.Get("pcie.write_tlps");
  Counter* reads = stats.Get("pcie.read_tlps");
  std::vector<DmaSegment> segs(1);
  TimeNs t = 0;
  return MedianNsPerCall([&] {
    const std::uint64_t before = writes->value() + reads->value();
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < kCallsPerRep / 8; ++i) {
      segs[0].iova = (rng->NextBelow(1 << 20) + 1) * kPageSize;
      if (rng->NextBool(write_share)) {
        segs[0].len = write_bytes;
        rc.DmaWrite(t, segs);
      } else {
        segs[0].len = read_bytes;
        rc.DmaRead(t, segs);
      }
      t += gap;
    }
    return std::make_pair(Elapsed(start), writes->value() + reads->value() - before);
  });
}

// mem: posted TLP writes, TLP reads and page-walk reads in the measured
// host's proportions and rate.
double ProbeMemory(const ProbeInputs& in, Rng* rng) {
  const Counters& c = in.host;
  const double accesses = static_cast<double>(Get(c, "mem.accesses"));
  const double posts = static_cast<double>(Get(c, "pcie.write_tlps"));
  const double reads = static_cast<double>(Get(c, "pcie.read_tlps"));
  const double post_share = Ratio(posts, accesses, 1.0);
  const double read_share = Ratio(reads, accesses, 0.0);
  const TimeNs gap = GapNs(in, Get(c, "mem.accesses"));

  StatsRegistry stats;
  MemorySystem mem(MemoryConfig{}, &stats);
  Counter* counted = stats.Get("mem.accesses");
  const IommuConfig iommu_config;
  TimeNs t = 0;
  return MedianNsPerCall([&] {
    const std::uint64_t before = counted->value();
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < kCallsPerRep; ++i) {
      const double u = rng->NextDouble();
      if (u < post_share) {
        mem.Post(t, 256);
      } else if (u < post_share + read_share) {
        mem.Read(t, 256);
      } else {
        mem.ReadWalkSequence(t, 1, iommu_config.walk_step_overhead_ns,
                             iommu_config.pte_read_bytes);
      }
      t += gap;
    }
    return std::make_pair(Elapsed(start), counted->value() - before);
  });
}

// Pages covered by one invalidation request on the measured host.
std::uint64_t PagesPerInvalidation(const Counters& c) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(Ratio(
             static_cast<double>(Get(c, "dma.unmap_ops")),
             static_cast<double>(Get(c, "iommu.inv_requests")), 1.0))));
}

double IotlbHitShare(const Counters& c) {
  return 1.0 - Ratio(static_cast<double>(Get(c, "iommu.iotlb_miss")),
                     static_cast<double>(Get(c, "iommu.translations")), 0.0);
}

// cache: IOTLB-geometry lookups at the measured hit share, inserts, and
// range invalidations of the measured request size.
void ProbeCache(const ProbeInputs& in, Rng* rng,
                std::vector<std::pair<std::string, double>>* out) {
  const IommuConfig geometry;
  SetAssocCache cache(geometry.iotlb_sets, geometry.iotlb_ways);
  const std::uint64_t capacity = cache.capacity();
  const double hit_share = IotlbHitShare(in.host);
  const std::uint64_t inv_pages = PagesPerInvalidation(in.host);
  std::uint64_t base = 0;
  const auto refill = [&] {
    base += 1 << 20;
    for (std::uint64_t i = 0; i < capacity; ++i) {
      cache.Insert(base + i, i);
    }
  };
  std::uint64_t sink = 0;
  out->emplace_back("cache.host_ns_per_lookup", MedianNsPerCall([&] {
    refill();
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < kCallsPerRep; ++i) {
      const std::uint64_t tag = rng->NextBool(hit_share)
                                    ? base + rng->NextBelow(capacity)
                                    : base + capacity + rng->NextBelow(1 << 16);
      sink += cache.Lookup(tag).value_or(0);
    }
    return std::make_pair(Elapsed(start), kCallsPerRep);
  }));
  out->emplace_back("cache.host_ns_per_insert", MedianNsPerCall([&] {
    refill();
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < kCallsPerRep; ++i) {
      sink += cache.Insert(base + capacity + rng->NextBelow(1 << 16), i).value_or(0);
    }
    return std::make_pair(Elapsed(start), kCallsPerRep);
  }));
  out->emplace_back("cache.host_ns_per_invalidate_range", MedianNsPerCall([&] {
    refill();
    const std::uint64_t calls = kCallsPerRep / 4;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) {
      const std::uint64_t first = base + rng->NextBelow(4 * capacity);
      sink += cache.InvalidateRange(first, first + inv_pages - 1);
    }
    return std::make_pair(Elapsed(start), calls);
  }));
  g_sink = sink;
}

// A standalone translation stack: memory, page table and IOMMU.
struct IommuStack {
  StatsRegistry stats;
  MemorySystem mem{MemoryConfig{}, &stats};
  IoPageTable pt;
  Iommu iommu{IommuConfig{}, &mem, &pt, &stats};
};

// iommu: Translate over a mapped 128 MB region. Each visit translates one
// page `tlps_per_page` times (the TLPs of one packet page); a visit goes to
// a fresh page with the probability that reproduces the measured IOTLB miss
// share, and visited pages are invalidated at the measured request rate
// (untimed).
double ProbeTranslate(const WorkloadSpec& spec, const ProbeInputs& in, Rng* rng) {
  const Counters& c = in.host;
  const double translations = static_cast<double>(Get(c, "iommu.translations"));
  const double tlps = static_cast<double>(Get(c, "pcie.write_tlps") + Get(c, "pcie.read_tlps"));
  const double packets = static_cast<double>(Get(c, "nic.rx_packets") + Get(c, "nic.tx_packets"));
  const std::uint64_t tlps_per_page =
      std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::llround(Ratio(tlps, packets, 1.0))),
                                1, kPageSize / 256);
  const double fresh_share =
      std::min(1.0, (1.0 - IotlbHitShare(c)) * static_cast<double>(tlps_per_page));
  const double inv_share = std::min(
      1.0, Ratio(static_cast<double>(Get(c, "iommu.inv_requests")) * tlps_per_page,
                 translations, 0.0));
  const bool leaf_only = PreservesPtCaches(spec.mode);
  const TimeNs gap = GapNs(in, Get(c, "iommu.translations"));

  constexpr std::uint64_t kRegionPages = 1 << 15;
  constexpr Iova kBase = 1ULL << 32;
  auto stack = std::make_unique<IommuStack>();
  for (std::uint64_t p = 0; p < kRegionPages; ++p) {
    stack->pt.Map(kBase + p * kPageSize, (p + 1) * kPageSize);
  }
  Counter* counted = stack->stats.Get("iommu.translations");
  std::vector<std::uint64_t> visited;
  std::uint64_t last_page = 0;
  TimeNs t = 0;
  return MedianNsPerCall([&] {
    const std::uint64_t before = counted->value();
    double seconds = 0.0;
    while (counted->value() - before < kCallsPerRep) {
      visited.clear();
      const Clock::time_point start = Clock::now();
      for (int v = 0; v < 64; ++v) {
        if (rng->NextBool(fresh_share)) {
          last_page = rng->NextBelow(kRegionPages);
        }
        visited.push_back(last_page);
        for (std::uint64_t k = 0; k < tlps_per_page; ++k) {
          stack->iommu.Translate(kBase + last_page * kPageSize + k * 256, t);
          t += gap;
        }
      }
      seconds += Elapsed(start);
      for (std::uint64_t page : visited) {
        if (rng->NextBool(inv_share)) {
          stack->iommu.InvalidateRange(kBase + page * kPageSize, kPageSize, leaf_only, t);
        }
      }
    }
    return std::make_pair(seconds, counted->value() - before);
  });
}

// pagetable: descriptor-sized runs of 64 pages mapped page by page, kept
// live for a ring's worth of descriptors, then unmapped the way the mode's
// driver does it (one call per run in contiguous modes, per page otherwise).
// Returns {ns per Map call, ns per Unmap call}.
std::pair<double, double> ProbePageTable(const WorkloadSpec& spec, Rng* rng) {
  const bool per_run = UsesContiguousIovas(spec.mode);
  const std::size_t live_descs = spec.cores * 8;
  constexpr std::uint64_t kSlots = 4096;  // 1 GB of chunk-aligned IOVA space
  IoPageTable pt;
  std::deque<Iova> live;
  std::uint64_t next_frame = 1;
  std::vector<double> map_ns;
  std::vector<double> unmap_ns;
  for (int r = 0; r < kReps; ++r) {
    double map_s = 0.0;
    double unmap_s = 0.0;
    std::uint64_t maps = 0;
    std::uint64_t unmaps = 0;
    while (maps < kCallsPerRep) {
      Iova base = 0;
      do {
        base = (rng->NextBelow(kSlots) + 1) * kPagesPerDesc * kPageSize;
      } while (pt.IsMapped(base));
      Clock::time_point start = Clock::now();
      for (std::uint32_t p = 0; p < kPagesPerDesc; ++p) {
        pt.Map(base + p * kPageSize, (next_frame++ % (1 << 24)) * kPageSize);
      }
      map_s += Elapsed(start);
      maps += kPagesPerDesc;
      live.push_back(base);
      if (live.size() > live_descs) {
        const Iova old = live.front();
        live.pop_front();
        start = Clock::now();
        if (per_run) {
          pt.Unmap(old, kPagesPerDesc * kPageSize);
          ++unmaps;
        } else {
          for (std::uint32_t p = 0; p < kPagesPerDesc; ++p) {
            pt.Unmap(old + p * kPageSize, kPageSize);
          }
          unmaps += kPagesPerDesc;
        }
        unmap_s += Elapsed(start);
      }
    }
    if (r > 0) {
      map_ns.push_back(map_s * 1e9 / static_cast<double>(maps));
      unmap_ns.push_back(unmap_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(unmaps, 1)));
    }
  }
  std::sort(map_ns.begin(), map_ns.end());
  std::sort(unmap_ns.begin(), unmap_ns.end());
  return {map_ns[map_ns.size() / 2], unmap_ns[unmap_ns.size() / 2]};
}

// iova: alloc/free pairs of the mode's IOVA size (a 64-page chunk in
// contiguous modes, one page otherwise) with a ring's worth kept live and
// the driver's share of frees migrating to another core.
double ProbeIova(const WorkloadSpec& spec, Rng* rng) {
  const std::uint64_t pages = UsesContiguousIovas(spec.mode) ? kPagesPerDesc : 1;
  const std::size_t live_depth =
      std::max<std::size_t>(8, spec.cores * 256 * 2 / static_cast<std::size_t>(pages));
  const double migrate = DmaApiConfig{}.free_migration_fraction;
  StatsRegistry stats;
  IovaAllocatorConfig config;
  config.num_cores = spec.cores;
  IovaAllocator alloc(config, &stats);
  struct Live {
    std::uint32_t core;
    Iova iova;
  };
  std::deque<Live> live;
  return MedianNsPerCall([&] {
    std::uint64_t pairs = 0;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < kCallsPerRep; ++i) {
      const auto core = static_cast<std::uint32_t>(rng->NextBelow(spec.cores));
      const Iova iova = alloc.Alloc(core, pages);
      if (iova != IovaAllocator::kInvalidIova) {
        live.push_back(Live{core, iova});
      }
      if (live.size() > live_depth) {
        const Live old = live.front();
        live.pop_front();
        const auto free_core = rng->NextBool(migrate)
                                   ? static_cast<std::uint32_t>(rng->NextBelow(spec.cores))
                                   : old.core;
        alloc.Free(free_core, old.iova, pages);
        ++pairs;
      }
    }
    return std::make_pair(Elapsed(start), pairs);
  });
}

// driver: the DMA API over a full translation stack in the workload's mode:
// Rx descriptors of 64 pages and single-page Tx maps in the measured share,
// each unmapped (with the mode's invalidations) a ring's depth later.
double ProbeDriver(const WorkloadSpec& spec, const ProbeInputs& in, Rng* rng) {
  const Counters& c = in.host;
  const double map_ops = static_cast<double>(Get(c, "dma.map_ops"));
  const double rx_pages = static_cast<double>(Get(c, "host.replenished_descs")) * kPagesPerDesc;
  const double tx_share = std::clamp(1.0 - Ratio(rx_pages, map_ops, 1.0), 0.0, 1.0);
  const TimeNs gap = GapNs(in, Get(c, "dma.map_ops"));

  auto stack = std::make_unique<IommuStack>();
  IovaAllocatorConfig iova_config;
  iova_config.num_cores = spec.cores;
  IovaAllocator iova(iova_config, &stack->stats);
  DmaApiConfig dma_config;
  dma_config.mode = spec.mode;
  dma_config.num_cores = spec.cores;
  DmaApi dma(dma_config, &iova, &stack->pt, &stack->iommu, &stack->stats);
  Counter* mapped = stack->stats.Get("dma.map_ops");

  struct Pending {
    std::uint32_t core;
    std::vector<DmaMapping> mappings;
  };
  std::deque<Pending> rx_live;
  std::deque<Pending> tx_live;
  const std::size_t rx_depth = spec.cores * 8;
  const std::size_t tx_depth = spec.cores * 64;
  std::vector<PhysAddr> frames(kPagesPerDesc);
  std::uint64_t next_frame = 1;
  TimeNs t = 0;
  const auto retire = [&](std::deque<Pending>* q, std::size_t depth) {
    while (q->size() > depth) {
      dma.UnmapDescriptor(q->front().core, q->front().mappings, t);
      q->pop_front();
    }
  };
  const double ns = MedianNsPerCall([&] {
    const std::uint64_t before = mapped->value();
    const Clock::time_point start = Clock::now();
    while (mapped->value() - before < kCallsPerRep / 4) {
      const auto core = static_cast<std::uint32_t>(rng->NextBelow(spec.cores));
      if (rng->NextBool(tx_share)) {
        DmaApi::MapResult m = dma.MapPage(core, (next_frame++ % (1 << 24)) * kPageSize);
        tx_live.push_back(Pending{core, std::move(m.mappings)});
        t += gap;
      } else {
        for (PhysAddr& f : frames) {
          f = (next_frame++ % (1 << 24)) * kPageSize;
        }
        DmaApi::MapResult m = dma.MapPages(core, frames);
        rx_live.push_back(Pending{core, std::move(m.mappings)});
        t += gap * kPagesPerDesc;
      }
      retire(&tx_live, tx_depth);
      retire(&rx_live, rx_depth);
    }
    return std::make_pair(Elapsed(start), mapped->value() - before);
  });
  retire(&tx_live, 0);
  retire(&rx_live, 0);
  return ns;
}

}  // namespace

std::vector<std::pair<std::string, double>> RunProbes(const WorkloadSpec& spec,
                                                      const ProbeInputs& in,
                                                      std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedf00dULL);
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("simcore.host_ns_per_event", ProbeEventCore(in, &rng));
  out.emplace_back("pcie.host_ns_per_tlp", ProbePcie(in, &rng));
  out.emplace_back("mem.host_ns_per_access", ProbeMemory(in, &rng));
  ProbeCache(in, &rng, &out);
  out.emplace_back("iommu.host_ns_per_translate", ProbeTranslate(spec, in, &rng));
  const auto [map_ns, unmap_ns] = ProbePageTable(spec, &rng);
  out.emplace_back("pagetable.host_ns_per_map", map_ns);
  out.emplace_back("pagetable.host_ns_per_unmap", unmap_ns);
  out.emplace_back("iova.host_ns_per_alloc_free", ProbeIova(spec, &rng));
  out.emplace_back("driver.host_ns_per_map_unmap", ProbeDriver(spec, in, &rng));
  return out;
}

}  // namespace perf
}  // namespace fsio
