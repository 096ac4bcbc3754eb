// IOMMU model: IOTLB, per-level IO page table caches, page-table walkers and
// the invalidation-queue interface.
//
// Translation follows §2.1 of the paper exactly:
//   * IOTLB hit → no memory access.
//   * IOTLB miss → the IOMMU consults PTcache-L3/L2/L1 (deepest first) and
//     walks only the uncached suffix of the path, so a miss costs between 1
//     (PTcache-L3 hit: read the PT-L4 entry) and 4 (all PTcaches miss)
//     sequential memory reads.
// Miss counters use the paper's hierarchical semantics: a level-i miss is
// counted only when all deeper levels also missed, so that
//   memory reads = m_IOTLB + m1 + m2 + m3.
//
// The invalidation queue exposes the VT-d option the F&S driver relies on:
// invalidate an IOVA range's IOTLB entries while *preserving* the page table
// caches (leaf_only = true).
//
// Multi-tenant operation: a DomainTable (src/tenant/domain.h) maps PASID-
// style protection-domain ids to per-domain page-table roots. All domains
// share the IOTLB, the PTcaches, the walkers and the invalidation queue;
// every cached entry's tag carries the owning domain id in bits 48..57, so a
// lookup by domain A can never hit an entry installed by domain B — unless
// the test-only `inject_untagged_iotlb` knob breaks the tagging, in which
// case the safety oracle's `dma_cross_domain_hit` invariant catches the
// breach. Domain 0 (the host domain) tags as 0: the single-tenant
// configuration computes exactly the same tags, set indices and counters as
// the pre-domain model.
//
// Safety accounting: every cached entry stores the id of the page-table page
// it points at. If a translation consumes a cached pointer to a page that
// has since been reclaimed, or an IOTLB entry for an IOVA that is no longer
// mapped, the IOMMU counts a safety violation — this is how the test suite
// proves that strict mode and F&S never let a device use stale state, and
// that deferred mode does.
#ifndef FASTSAFE_SRC_IOMMU_IOMMU_H_
#define FASTSAFE_SRC_IOMMU_IOMMU_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cache/set_assoc_cache.h"
#include "src/faults/fault_injector.h"
#include "src/faults/safety_oracle.h"
#include "src/iommu/pending_walk_table.h"
#include "src/mem/address.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/simcore/time.h"
#include "src/stats/counters.h"
#include "src/tenant/domain.h"
#include "src/trace/tracer.h"

namespace fsio {

struct IommuConfig {
  // IOTLB geometry (default 64 entries, within the paper's likely range).
  std::uint32_t iotlb_sets = 16;
  std::uint32_t iotlb_ways = 4;
  // IO page table caches. Sizes are not public; the paper estimates 64-128
  // for PTcache-L3 (Fig. 2e thresholds) and small L1/L2 caches suffice.
  std::uint32_t ptcache_l1_entries = 32;
  std::uint32_t ptcache_l2_entries = 32;
  std::uint32_t ptcache_l3_entries = 128;
  bool ptcache_enabled = true;  // false models pre-PTcache IOMMUs (4 reads/miss)
  // Concurrent page-table walk contexts. The paper's fitted per-read cost
  // (lm ≈ 197 ns, close to a full DRAM access plus IOMMU processing)
  // indicates walks serialize through a single translation context.
  std::uint32_t num_walkers = 1;
  // Per-entry PTE read size (a 64-bit entry; memory rounds up to a line).
  std::uint64_t pte_read_bytes = 8;
  // IOMMU-side processing per walk step (request issue, entry decode), on
  // top of the DRAM access. Calibrated so the effective per-read walk cost
  // matches the paper's fitted lm ≈ 197 ns.
  TimeNs walk_step_overhead_ns = 90;
  // Cost of the final (PT-L4 leaf) entry read. Leaf PTEs are written by the
  // CPU during dma_map microseconds before the DMA, so the IOMMU's snooped
  // read is typically served from the cache hierarchy, cheaper than the
  // cold non-leaf table reads.
  TimeNs leaf_pte_read_ns = 160;
  // Hardware processing time for one invalidation-queue request.
  TimeNs invalidation_hw_ns = 50;
  // Detect stale-entry use (safety oracle). Costs extra software walks.
  bool track_safety = true;
  // Way-partitioned IOTLB (iotlb_partition=per_domain): insertion victims
  // are confined to the inserting domain's way partition, so one tenant's
  // traffic cannot evict another's entries (the IOTLB-SC defense). 1 = the
  // shared policy; clamped to iotlb_ways.
  std::uint32_t iotlb_partitions = 1;
  // Test-only cache-tagging bug: IOTLB tags omit the domain id, so one
  // domain's lookups can hit another domain's entries. The safety oracle
  // must catch the resulting dma_cross_domain_hit violations.
  bool inject_untagged_iotlb = false;
};

// Namespace bit distinguishing 2 MB-granularity IOTLB tags from 4 KB ones
// (real IOTLBs keep both granularities; we share one array).
inline constexpr std::uint64_t kHugeIotlbTagBit = 1ULL << 62;

// Sentinel returned by InvalidateRange when an injected fault loses the
// request: the hardware never saw it, no cache state was dropped, and the
// caller must retry (the driver's timeout/backoff path).
inline constexpr TimeNs kInvalidationDropped = ~static_cast<TimeNs>(0);

// Outcome of one address translation.
struct TranslationResult {
  TimeNs done = 0;        // time the translated address is available
  PhysAddr phys = 0;
  bool fault = false;     // IOVA unmapped and not served by any (stale) cache
  bool iotlb_hit = false;
  int mem_reads = 0;      // 0 on IOTLB hit
  // Hierarchical miss flags (only meaningful when !iotlb_hit).
  bool l3_missed = false;
  bool l2_missed = false;
  bool l1_missed = false;
  bool stale_use = false;  // translation consumed stale cached state (any kind)
  // Stale-use classification (safety oracle evidence).
  bool stale_iotlb = false;               // IOTLB entry for an unmapped IOVA
  bool stale_ptcache = false;             // stale PTcache pointer consumed
  bool stale_ptcache_reclaimed = false;   // ... and its target was reclaimed
  bool cross_domain = false;              // served by another domain's entry
};

class Iommu {
 public:
  Iommu(const IommuConfig& config, MemorySystem* memory, IoPageTable* page_table,
        StatsRegistry* stats);

  // Translates `iova` for a DMA issued at time `start` on behalf of
  // `domain`. Concurrent misses on the same (domain, page) coalesce onto one
  // in-flight walk. Translating against a dead/unknown domain faults.
  TranslationResult Translate(DomainId domain, Iova iova, TimeNs start);
  // Host-domain shorthand (the single-device configuration).
  TranslationResult Translate(Iova iova, TimeNs start) {
    return Translate(kHostDomain, iova, start);
  }

  // Page-run claim: accounts `n` further translations of `iova`'s page by
  // `domain` in one step, exactly as `n` Translate calls would — provided
  // each of them would take the repeat-hit path with no per-access effect
  // (memo valid for this page, neither stale nor cross-domain, domain live,
  // no safety oracle attached). Those calls would all return
  // `done == start` and the memoized physical address. Returns false, and
  // changes nothing, when the claim does not hold; the caller then
  // translates access by access.
  bool ClaimRepeatHits(DomainId domain, Iova iova, std::uint64_t n);

  // Invalidation-queue request covering [start, start + len) of `domain`'s
  // IOVA space: always drops the range's IOTLB entries; when `leaf_only` is
  // false, also drops the PTcache entries whose span intersects the range
  // (Linux strict-mode default). Returns the time the hardware completes the
  // request, given it was submitted at `at`. The caller (driver) models the
  // CPU-side wait.
  TimeNs InvalidateRange(DomainId domain, Iova start, std::uint64_t len, bool leaf_only,
                         TimeNs at);
  TimeNs InvalidateRange(Iova start, std::uint64_t len, bool leaf_only, TimeNs at) {
    return InvalidateRange(kHostDomain, start, len, leaf_only, at);
  }

  // Flushes every IOTLB and PTcache entry of every domain (global flush).
  TimeNs InvalidateAll(TimeNs at);

  // Domain-selective flush: drops every IOTLB and PTcache entry tagged with
  // `domain`, leaving all other domains' entries resident. Invalidating a
  // dead or never-allocated domain id is a safe no-op (returns `at`).
  TimeNs InvalidateDomain(DomainId domain, TimeNs at);

  // Must be called when a domain's page table reclaims a table page so
  // hardware caches drop pointers into it. F&S invokes this on the rare
  // reclamation; skipping it (see config of the driver) lets tests
  // demonstrate the resulting safety violation.
  void OnTablePageReclaimed(DomainId domain, const ReclaimedTablePage& page);
  void OnTablePageReclaimed(const ReclaimedTablePage& page) {
    OnTablePageReclaimed(kHostDomain, page);
  }

  // Domain management. AddDomain registers a tenant's page-table root and
  // switches the IOMMU into multi-domain operation (per-domain "tenant.<id>"
  // counters, owner tracking for eviction attribution and cross-domain
  // detection). RetireDomain marks the id dead; its cached entries may
  // linger until InvalidateDomain, but translations against it fault.
  DomainId AddDomain(IoPageTable* page_table);
  void RetireDomain(DomainId domain);
  // Crash recovery: installs a fresh page-table root for a live domain (the
  // hardware caches persist — exactly the hazard recovery must invalidate).
  void SetDomainPageTable(DomainId domain, IoPageTable* page_table);
  void SetDomainOracle(DomainId domain, SafetyOracle* oracle);
  const DomainTable& domains() const { return domains_; }

  const SetAssocCache& iotlb() const { return iotlb_; }
  const SetAssocCache& ptcache(int level) const { return *ptcaches_[level - 1]; }

  // Optional fault injection (invalidation stalls/drops, walker latency
  // spikes) and safety-oracle observation of every device translation.
  void SetFaultInjector(FaultInjector* faults) { fault_injector_ = faults; }
  void SetSafetyOracle(SafetyOracle* oracle) { domains_.at(kHostDomain).oracle = oracle; }
  // Host crash-recovery: the rebooted driver builds a fresh IO page table;
  // the IOMMU hardware (and whatever stale state its caches hold — exactly
  // the hazard recovery must invalidate) persists across the reboot.
  void SetPageTable(IoPageTable* page_table) {
    domains_.at(kHostDomain).page_table = page_table;
    repeat_.page = kNoMemoPage;
  }
  // Observability: page-walk spans, invalidation spans, stale-use instants.
  void SetTrace(const TraceScope& trace) { trace_ = trace; }

 private:
  // Memo of the last IOTLB hit. Consecutive TLPs of one DMA translate the
  // same 4 KB page, so Translate can replay the hit (identical counter, LRU
  // and safety effects) without the tag search or the safety walk — valid
  // only while neither the IOTLB nor the page table has mutated.
  static constexpr std::uint64_t kNoMemoPage = ~0ULL;
  struct RepeatMemo {
    std::uint64_t page = kNoMemoPage;      // 4 KB page number of the hit
    SetAssocCache::HitHandle entry = 0;    // hit IOTLB entry
    PhysAddr base = 0;                     // entry payload (region phys base)
    std::uint64_t offset_mask = 0;         // iova bits added to `base`
    bool huge = false;                     // hit was a 2 MB-granularity entry
    bool stale = false;                    // memoized !IsMapped() outcome
    bool cross_domain = false;             // memoized foreign-entry outcome
    DomainId domain{};                     // domain the memo was formed for
    std::uint64_t iotlb_version = 0;
    std::uint64_t pt_version = 0;
  };

  // Per-domain counters ("tenant.<id>.*"), created lazily on the first
  // AddDomain so the single-tenant stats namespace is untouched.
  struct DomainCounters {
    Counter* translations = nullptr;
    Counter* iotlb_hits = nullptr;
    Counter* iotlb_misses = nullptr;
    Counter* iotlb_evictions = nullptr;    // this domain's entries evicted
    Counter* iotlb_invalidated = nullptr;  // entries dropped by selective flush
    Counter* inv_requests = nullptr;
  };

  // True when Translate(domain, <an iova in `page`>) would replay the memo:
  // the one validity test Translate and ClaimRepeatHits share.
  bool MemoServes(DomainId domain, std::uint64_t page, const IoPageTable* pt) const {
    return page == repeat_.page && repeat_.domain == domain &&
           iotlb_.mutation_version() == repeat_.iotlb_version &&
           (!config_.track_safety || pt->mutation_version() == repeat_.pt_version);
  }

  TranslationResult WalkAndFill(DomainId domain, IoPageTable* pt, Iova iova, TimeNs start);
  // Reports the translation to the domain's safety oracle (no-op without one).
  void NotifyOracle(DomainId domain, Iova iova, TimeNs now, const TranslationResult& result);
  // Owner bookkeeping around IOTLB inserts (multi-domain only): attributes
  // the eviction to the victim's owner and records the new entry's owner.
  void NoteIotlbInsert(std::uint64_t tag, DomainId domain,
                       const std::optional<std::uint64_t>& evicted);
  void EnsureDomainCounters();
  DomainCounters& CountersFor(DomainId domain) { return domain_counters_[domain.value]; }

  IommuConfig config_;
  MemorySystem* memory_;
  FaultInjector* fault_injector_ = nullptr;
  StatsRegistry* stats_;
  TraceScope trace_;

  DomainTable domains_;

  SetAssocCache iotlb_;
  std::vector<SetAssocCache*> ptcaches_;  // [0]=L1, [1]=L2, [2]=L3
  SetAssocCache ptcache_l1_;
  SetAssocCache ptcache_l2_;
  SetAssocCache ptcache_l3_;

  std::vector<TimeNs> walker_free_;
  // (domain-tagged page) -> in-flight walk.
  PendingWalkTable pending_walks_;
  RepeatMemo repeat_;

  // Owner of each resident IOTLB entry, keyed by the entry's tag as stored.
  // Maintained only in multi-domain operation: it is the ground truth that
  // lets the oracle catch broken tagging (when tags are correct, the owner
  // is just DomainOfTag(tag)). Pruned against the cache when it outgrows it.
  std::unordered_map<std::uint64_t, DomainId> iotlb_owner_;
  std::vector<DomainCounters> domain_counters_;

  Counter* translations_;
  Counter* iotlb_miss_;
  Counter* l1_miss_;
  Counter* l2_miss_;
  Counter* l3_miss_;
  Counter* mem_reads_;
  Counter* faults_;
  Counter* inv_requests_;
  Counter* stale_iotlb_use_;
  Counter* stale_ptcache_use_;
  Counter* inv_queue_wait_ns_;
  Counter* inv_dropped_;
  Counter* inv_stall_ns_;
  Counter* walk_stall_ns_;
  Counter* cross_domain_hits_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_IOMMU_IOMMU_H_
