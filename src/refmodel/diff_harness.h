// Differential harness: drives the real Iommu/IoPageTable/IovaAllocator/
// DmaApi stack and the RefModel in lockstep from a seeded random workload,
// asserting after every operation that translations, fault outcomes, state
// sizes and safety classifications agree.
//
// Workloads are generated upfront as self-contained operation vectors:
// every target reference is `arg % live_count`, so ANY subsequence of a
// workload is still executable. That is what makes shrinking trivial — on
// divergence, Shrink() binary-searches the shortest failing prefix and then
// greedily drops operations until a local minimum, yielding a replayable
// repro of a handful of ops.
//
// Injected bugs (reusing the PR-1 fault-injection machinery where the bug
// lives in the real stack, and harness-level bypasses where the bug is a
// driver omission) prove the oracle catches the failure classes the paper's
// design guards against:
//   * kUseAfterUnmap      — the driver claims an unmap it never performed.
//   * kSkipInvalidation   — the driver unmaps but skips the IOTLB
//                           invalidation (raw page-table teardown).
//   * kEarlyReclaim       — table pages are reclaimed without the PTcache
//                           invalidation (DmaApiConfig::
//                           inject_skip_reclaim_invalidation, PR-1).
//   * kUntaggedIotlb      — IOTLB entries lose their domain tag
//                           (IommuConfig::inject_untagged_iotlb): one
//                           tenant's lookups can hit another tenant's
//                           entries. Meaningful only with num_domains >= 2.
//   * kSkipCapabilityCheck — the device fetches descriptors without
//                           honoring the capability check verdict
//                           (capability mode's one protection point): a
//                           revoked buffer is accessed anyway. Meaningful
//                           only with mode == kCapability.
//
// Fault plans (DiffConfig::fault_plan, a name from src/faults/fault_plans.h)
// run the same lockstep under injected environment faults: one seeded
// FaultInjector feeds the IOMMU, the IOVA and frame allocators and every
// DmaApi, and kUnmap samples duplicate and late descriptor completions. The
// model is never told about a fault — the contract must hold through the
// driver's degradation paths — and the run reports the injected fires, the
// driver's retry/fallback/double-unmap counters and the safety-oracle and
// invariant-registry verdicts in DiffResult.
//
// Multi-domain runs (num_domains >= 2) drive one shared IOMMU with a full
// per-domain stack (page table, IOVA allocator, DmaApi, oracle, RefModel)
// behind each domain id; each op dispatches to a domain by its arg's high
// bits. Per-domain semantics must hold independently, and the cross-domain
// violation count must stay zero — tenant isolation as a checkable contract.
#ifndef FASTSAFE_SRC_REFMODEL_DIFF_HARNESS_H_
#define FASTSAFE_SRC_REFMODEL_DIFF_HARNESS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/protection.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plans.h"
#include "src/refmodel/ref_model.h"

namespace fsio {

enum class InjectedBug : int {
  kNone = 0,
  kUseAfterUnmap,
  kSkipInvalidation,
  kEarlyReclaim,
  kUntaggedIotlb,
  kSkipCapabilityCheck,
};

constexpr const char* InjectedBugName(InjectedBug bug) {
  switch (bug) {
    case InjectedBug::kNone:
      return "none";
    case InjectedBug::kUseAfterUnmap:
      return "use-after-unmap";
    case InjectedBug::kSkipInvalidation:
      return "skip-invalidation";
    case InjectedBug::kEarlyReclaim:
      return "early-reclaim";
    case InjectedBug::kUntaggedIotlb:
      return "untagged-iotlb";
    case InjectedBug::kSkipCapabilityCheck:
      return "skip-capability-check";
  }
  return "?";
}

enum class OpKind : int {
  kMapRx = 0,   // map one descriptor's worth of pages (or acquire persistent)
  kMapTx,       // map a single Tx page
  kUnmap,       // unmap/release a random live descriptor
  kDmaLive,     // device DMA to a random live mapping
  kDmaRetired,  // device DMA to a recently unmapped/released IOVA
};

constexpr const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kMapRx:
      return "map_rx";
    case OpKind::kMapTx:
      return "map_tx";
    case OpKind::kUnmap:
      return "unmap";
    case OpKind::kDmaLive:
      return "dma_live";
    case OpKind::kDmaRetired:
      return "dma_retired";
  }
  return "?";
}

struct DiffOp {
  OpKind kind = OpKind::kMapRx;
  std::uint32_t core = 0;
  std::uint64_t arg = 0;  // self-contained target selector (reduced mod pool sizes)
};

struct DiffConfig {
  ProtectionMode mode = ProtectionMode::kStrict;
  bool enable_rcache = true;
  std::uint64_t seed = 1;
  std::uint32_t num_ops = 1500;
  std::uint32_t pages_per_chunk = 64;
  std::uint32_t num_cores = 4;
  InjectedBug bug = InjectedBug::kNone;
  // 1 = the classic single-tenant harness (host domain only). >= 2 builds a
  // per-domain stack behind each of that many tenant domains on one IOMMU.
  std::uint32_t num_domains = 1;
  std::string fault_plan{kBaselinePlan};  // a NamedFaultPlans() name
};

struct DiffResult {
  bool diverged = false;
  std::size_t fail_index = 0;  // index of the op whose check failed
  std::string message;
  std::uint64_t ops_executed = 0;
  std::uint64_t maps = 0;
  std::uint64_t unmaps = 0;
  std::uint64_t dmas = 0;
  std::uint64_t faults = 0;
  std::uint64_t stale_uses = 0;
  // Safety-oracle verdicts summed over every domain.
  std::uint64_t violations = 0;
  std::uint64_t use_after_unmap = 0;
  // Failed registered invariant checks (each also ends the run as a
  // divergence) and hard failures components reported directly, such as a
  // detected double unmap.
  std::uint64_t check_failures = 0;
  std::uint64_t hard_failures = 0;
  // The driver's degradation counters ("dma.inv_retries",
  // "dma.inv_fallback_flushes", "dma.double_unmap").
  std::uint64_t inv_retries = 0;
  std::uint64_t inv_fallbacks = 0;
  std::uint64_t double_unmaps = 0;
  // Injected fires per FaultKind.
  std::array<std::uint64_t, static_cast<int>(FaultKind::kCount)> fired{};

  bool operator==(const DiffResult&) const = default;
};

bool ParseBugToken(const std::string& token, InjectedBug* bug);

class DifferentialHarness {
 public:
  // Seeded workload generation (pure function of the config).
  static std::vector<DiffOp> GenerateOps(const DiffConfig& config);

  // Executes `ops` against a fresh stack + fresh model, stopping at the
  // first divergence.
  static DiffResult Run(const DiffConfig& config, const std::vector<DiffOp>& ops);

  struct ShrinkOutcome {
    std::vector<DiffOp> ops;  // minimal divergent subsequence
    DiffResult result;        // result of running the minimal sequence
    std::uint32_t runs = 0;   // Run() invocations spent shrinking
  };
  // Requires `first` to be a divergent result of Run(config, ops).
  static ShrinkOutcome Shrink(const DiffConfig& config, std::vector<DiffOp> ops,
                              const DiffResult& first);

  // Replayable repro files (deterministic text format).
  static std::string Serialize(const DiffConfig& config, const std::vector<DiffOp>& ops);
  static bool Parse(const std::string& text, DiffConfig* config, std::vector<DiffOp>* ops,
                    std::string* error);
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_REFMODEL_DIFF_HARNESS_H_
