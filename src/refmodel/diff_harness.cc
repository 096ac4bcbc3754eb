#include "src/refmodel/diff_harness.h"

#include <deque>
#include <memory>
#include <sstream>
#include <utility>

#include "src/driver/dma_api.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/safety_oracle.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/refmodel/shrink.h"
#include "src/simcore/rng.h"
#include "src/stats/counters.h"

namespace fsio {
namespace {

// Descriptors still owned by the (simulated) NIC.
struct LiveDesc {
  std::vector<DmaMapping> mappings;
  std::vector<PhysAddr> frames;
  bool persistent_rx = false;  // came from AcquirePersistentDescriptor
};

}  // namespace

bool ParseBugToken(const std::string& token, InjectedBug* bug) {
  for (InjectedBug b : {InjectedBug::kNone, InjectedBug::kUseAfterUnmap,
                        InjectedBug::kSkipInvalidation, InjectedBug::kEarlyReclaim,
                        InjectedBug::kUntaggedIotlb, InjectedBug::kSkipCapabilityCheck}) {
    if (token == InjectedBugName(b)) {
      *bug = b;
      return true;
    }
  }
  return false;
}

std::vector<DiffOp> DifferentialHarness::GenerateOps(const DiffConfig& config) {
  Rng rng(config.seed ^ 0xd1f'f0ac1eULL);
  std::vector<DiffOp> ops;
  ops.reserve(config.num_ops);
  for (std::uint32_t i = 0; i < config.num_ops; ++i) {
    const std::uint64_t roll = rng.NextBelow(100);
    OpKind kind;
    if (roll < 16) {
      kind = OpKind::kMapRx;
    } else if (roll < 30) {
      kind = OpKind::kMapTx;
    } else if (roll < 55) {
      kind = OpKind::kUnmap;
    } else if (roll < 85) {
      kind = OpKind::kDmaLive;
    } else {
      kind = OpKind::kDmaRetired;
    }
    DiffOp op;
    op.kind = kind;
    op.core = static_cast<std::uint32_t>(rng.NextBelow(config.num_cores));
    op.arg = rng.Next();
    ops.push_back(op);
  }
  return ops;
}

DiffResult DifferentialHarness::Run(const DiffConfig& config, const std::vector<DiffOp>& ops) {
  DiffResult out;
  const std::uint32_t num_domains = config.num_domains == 0 ? 1 : config.num_domains;
  const bool multi = num_domains > 1;
  StatsRegistry stats;
  FaultPlan plan;
  if (!FindFaultPlan(config.fault_plan, config.seed, &plan)) {
    out.diverged = true;
    out.message = "unknown fault plan: " + config.fault_plan;
    return out;
  }
  FaultInjector injector(plan, &stats);
  InvariantRegistry invariants(&stats);
  FrameAllocator frame_alloc;
  frame_alloc.SetFaultInjector(&injector);
  MemorySystem mem(MemoryConfig{}, &stats);

  // One stack per protection domain: the real driver objects plus the model
  // and the live/retired descriptor pools. A single-domain run is exactly
  // the classic harness (one stack in the host domain); multi-domain runs
  // hang one stack behind each tenant domain of one shared IOMMU, so tenants
  // contend for the same IOTLB/PTcache while each stack's contract is
  // checked independently.
  struct DomainStack {
    DomainId id{};
    std::unique_ptr<IoPageTable> pt;
    std::unique_ptr<IovaAllocator> iova;
    std::unique_ptr<DmaApi> dma;
    std::unique_ptr<SafetyOracle> oracle;
    std::unique_ptr<RefModel> model;
    std::vector<LiveDesc> live;
    std::deque<Iova> retired;
  };
  std::vector<DomainStack> stacks(num_domains);
  for (DomainStack& s : stacks) {
    s.pt = std::make_unique<IoPageTable>();
  }
  // Multi-domain runs park an empty table in the (unused) host domain;
  // every stack then gets its own tenant domain id.
  std::unique_ptr<IoPageTable> host_pt;
  if (multi) {
    host_pt = std::make_unique<IoPageTable>();
  }
  IommuConfig iommu_config;
  iommu_config.inject_untagged_iotlb = config.bug == InjectedBug::kUntaggedIotlb;
  Iommu iommu(iommu_config, &mem, multi ? host_pt.get() : stacks[0].pt.get(), &stats);
  iommu.SetFaultInjector(&injector);

  for (DomainStack& s : stacks) {
    s.id = multi ? iommu.AddDomain(s.pt.get()) : kHostDomain;
    IovaAllocatorConfig iova_config;
    iova_config.num_cores = config.num_cores;
    iova_config.enable_rcache = config.enable_rcache;
    s.iova = std::make_unique<IovaAllocator>(iova_config, &stats);
    s.iova->SetFaultInjector(&injector);
    DmaApiConfig dma_config;
    dma_config.mode = config.mode;
    dma_config.pages_per_chunk = config.pages_per_chunk;
    dma_config.num_cores = config.num_cores;
    // Keep frees on the issuing core: cross-core migration only perturbs IOVA
    // cache locality, which the contract does not speak about, and removing
    // it makes shrunken repros stabler.
    dma_config.free_migration_fraction = 0.0;
    dma_config.inject_skip_reclaim_invalidation = config.bug == InjectedBug::kEarlyReclaim;
    dma_config.domain = s.id;
    s.dma = std::make_unique<DmaApi>(dma_config, s.iova.get(), s.pt.get(), &iommu, &stats);
    // Tenant oracles keep private counts (no registry) so violation
    // attribution stays per-domain instead of blurring across tenants.
    s.oracle = std::make_unique<SafetyOracle>(multi ? nullptr : &stats);
    s.dma->SetSafetyOracle(s.oracle.get());
    s.dma->SetFaultInjector(&injector);
    s.dma->RegisterInvariants(&invariants);
    invariants.Register("oracle.no_overlap", [oracle = s.oracle.get()](std::string* d) {
      if (oracle->overlap_maps() != 0) {
        *d = "overlapping live map observed";
        return false;
      }
      return true;
    });
    if (multi) {
      iommu.SetDomainOracle(s.id, s.oracle.get());
    } else {
      iommu.SetSafetyOracle(s.oracle.get());
    }
    s.model = std::make_unique<RefModel>(config.mode);
  }

  const bool off = config.mode == ProtectionMode::kOff;
  const bool persistent = config.mode == ProtectionMode::kHugepagePersistent;
  const bool capability = config.mode == ProtectionMode::kCapability;
  const bool real_unmaps = !off && !persistent;

  TimeNs t = 0;
  std::uint64_t check_failures = 0;

  // Injected frame-allocation failures (kNullFrame) are transient: retry.
  // This terminates: alloc-pressure's frame spec fires with p < 1, and only
  // within its first 400 samples.
  auto alloc_frame = [&frame_alloc](bool huge = false) {
    PhysAddr frame = kNullFrame;
    while (frame == kNullFrame) {
      frame = huge ? frame_alloc.AllocHugeFrame() : frame_alloc.AllocFrame();
    }
    return frame;
  };

  auto diverge = [&](std::size_t index, const std::string& why) {
    out.diverged = true;
    out.fail_index = index;
    std::ostringstream os;
    os << "op " << index << " (" << OpKindName(ops[index].kind) << "): " << why;
    out.message = os.str();
  };

  // Cross-checks run after every op, per domain: the real page table and the
  // model must agree on the mapped-page count, the safety oracle's
  // classification counters must match the model's predictions exactly, and
  // no domain may ever consume another domain's cached translation.
  auto check_state = [&](std::size_t index) {
    for (std::size_t di = 0; di < stacks.size(); ++di) {
      const DomainStack& s = stacks[di];
      std::string tag;
      if (multi) {
        tag = "domain " + std::to_string(di) + ": ";
      }
      // Capability mode never touches the IO page table (IOMMU pass-through);
      // the model's mapped set tracks the capability grants instead.
      if (!off && !capability && s.pt->mapped_pages() != s.model->mapped_pages()) {
        std::ostringstream os;
        os << tag << "page table holds " << s.pt->mapped_pages()
           << " pages but the model expects " << s.model->mapped_pages();
        diverge(index, os.str());
        return;
      }
      if (s.oracle->count(SafetyViolationKind::kUseAfterUnmap) !=
          s.model->predicted_use_after_unmap()) {
        std::ostringstream os;
        os << tag << "oracle recorded " << s.oracle->count(SafetyViolationKind::kUseAfterUnmap)
           << " use-after-unmap violations but the model predicts "
           << s.model->predicted_use_after_unmap();
        diverge(index, os.str());
        return;
      }
      if (s.oracle->count(SafetyViolationKind::kStalePtcachePointer) != 0 ||
          s.oracle->count(SafetyViolationKind::kReclaimedTableWalk) != 0) {
        std::ostringstream os;
        os << tag << "oracle recorded stale-PTcache violations (live="
           << s.oracle->count(SafetyViolationKind::kStalePtcachePointer)
           << " reclaimed=" << s.oracle->count(SafetyViolationKind::kReclaimedTableWalk)
           << "); the contract allows none";
        diverge(index, os.str());
        return;
      }
      if (s.oracle->count(SafetyViolationKind::kCrossDomainHit) != 0) {
        std::ostringstream os;
        os << tag << "oracle recorded "
           << s.oracle->count(SafetyViolationKind::kCrossDomainHit)
           << " cross-domain device hits; tenant isolation allows none";
        diverge(index, os.str());
        return;
      }
    }
  };

  auto do_translate = [&](DomainStack& s, std::size_t index, Iova iova_addr) {
    ++out.dmas;
    const TranslationResult res = iommu.Translate(s.id, iova_addr, t);
    if (res.fault) {
      ++out.faults;
    }
    if (res.stale_use) {
      ++out.stale_uses;
    }
    if (auto err = s.model->CheckTranslation(iova_addr, res); err.has_value()) {
      diverge(index, *err);
    }
  };

  // Capability mode: device access goes through the capability check instead
  // of the (pass-through) IOMMU. A buggy device ignores the verdict, so the
  // access proceeds and the safety oracle sees it land in revoked memory.
  auto do_cap_check = [&](DomainStack& s, std::size_t index, Iova iova_addr) {
    ++out.dmas;
    const bool enforce = config.bug != InjectedBug::kSkipCapabilityCheck;
    const DmaApi::DeviceCheckResult r = s.dma->DeviceCheckCapability(iova_addr, 1, t, enforce);
    if (!r.allowed) {
      ++out.faults;
    }
    if (auto err = s.model->CheckCapability(iova_addr, r.allowed); err.has_value()) {
      diverge(index, *err);
    }
  };

  for (std::size_t i = 0; i < ops.size() && !out.diverged; ++i) {
    const DiffOp& op = ops[i];
    // Domain dispatch rides the arg's high bits: independent of the low
    // bits' pool selections, so ops stay self-contained for shrinking.
    DomainStack& s = stacks[multi ? static_cast<std::size_t>((op.arg >> 44) % num_domains) : 0];
    DmaApi& dma = *s.dma;
    IoPageTable& pt = *s.pt;
    SafetyOracle& oracle = *s.oracle;
    RefModel& model = *s.model;
    std::vector<LiveDesc>& live = s.live;
    std::deque<Iova>& retired = s.retired;
    ++out.ops_executed;
    // Advance past the longest possible walk so pending-walk coalescing
    // (a latency feature, invisible to the contract) never kicks in.
    t += 3000;
    switch (op.kind) {
      case OpKind::kMapRx: {
        if (persistent) {
          DmaApi::MapResult r =
              dma.AcquirePersistentDescriptor(op.core, [&] { return alloc_frame(true); });
          t += r.cpu_ns;
          if (r.mappings.empty()) {
            break;
          }
          for (const DmaMapping& m : r.mappings) {
            const std::uint64_t page = PageNumber(m.iova);
            if (model.IsMapped(page)) {
              model.Reacquire(page);
            } else {
              model.Map(page, m.phys);
            }
          }
          LiveDesc d;
          d.persistent_rx = true;
          d.mappings = std::move(r.mappings);
          live.push_back(std::move(d));
          ++out.maps;
          break;
        }
        LiveDesc d;
        d.frames.reserve(config.pages_per_chunk);
        for (std::uint32_t p = 0; p < config.pages_per_chunk; ++p) {
          d.frames.push_back(alloc_frame());
        }
        DmaApi::MapResult r = dma.MapPages(op.core, d.frames);
        t += r.cpu_ns;
        if (r.mappings.empty()) {
          for (PhysAddr f : d.frames) {
            frame_alloc.FreeFrame(f);
          }
          break;
        }
        if (!off) {
          for (const DmaMapping& m : r.mappings) {
            model.Map(PageNumber(m.iova), m.phys);
          }
        }
        d.mappings = std::move(r.mappings);
        live.push_back(std::move(d));
        ++out.maps;
        break;
      }
      case OpKind::kMapTx: {
        const PhysAddr frame = alloc_frame();
        DmaApi::MapResult r = dma.MapPage(op.core, frame);
        t += r.cpu_ns;
        if (r.mappings.empty()) {
          frame_alloc.FreeFrame(frame);
          break;
        }
        if (!off) {
          for (const DmaMapping& m : r.mappings) {
            const std::uint64_t page = PageNumber(m.iova);
            if (persistent && model.IsMapped(page)) {
              model.Reacquire(page);
            } else {
              model.Map(page, m.phys);
            }
          }
        }
        LiveDesc d;
        d.frames.push_back(frame);
        d.mappings = std::move(r.mappings);
        live.push_back(std::move(d));
        ++out.maps;
        break;
      }
      case OpKind::kUnmap: {
        if (live.empty()) {
          break;
        }
        const std::size_t idx = static_cast<std::size_t>(op.arg % live.size());
        LiveDesc d = std::move(live[idx]);
        live[idx] = std::move(live.back());
        live.pop_back();
        ++out.unmaps;
        if (persistent) {
          if (d.persistent_rx) {
            dma.ReleasePersistentDescriptor(op.core, d.mappings);
          } else {
            DmaApi::UnmapResultInfo r = dma.UnmapDescriptor(op.core, d.mappings, t);
            t += r.cpu_ns;
          }
          for (const DmaMapping& m : d.mappings) {
            model.Release(PageNumber(m.iova));
            retired.push_back(m.iova);
          }
        } else if (config.bug == InjectedBug::kUseAfterUnmap && real_unmaps) {
          // Injected driver bug: the unmap "returns" (the driver considers
          // the pages gone and tells the oracle so) but nothing was torn
          // down — the device keeps full access.
          for (const DmaMapping& m : d.mappings) {
            oracle.OnUnmap(m.iova, 1);
            if (!off) {
              model.Unmap(PageNumber(m.iova));
            }
            retired.push_back(m.iova);
          }
        } else if (config.bug == InjectedBug::kSkipInvalidation && real_unmaps &&
                   config.mode != ProtectionMode::kDeferred) {
          // Injected driver bug: page-table teardown without the IOTLB
          // invalidation the strictly-safe contract requires.
          for (const DmaMapping& m : d.mappings) {
            pt.Unmap(m.iova, kPageSize);
            oracle.OnUnmap(m.iova, 1);
            model.Unmap(PageNumber(m.iova));
            retired.push_back(m.iova);
          }
        } else {
          // Injected completion faults: a late completion delays the unmap,
          // a duplicate one replays it. The driver must detect the replay as
          // a double unmap; the model sees a single unmap.
          if (const FaultDecision late = injector.Sample(FaultKind::kDescCompletionReorder, t);
              late.fire) {
            t += late.magnitude_ns;
          }
          const bool duplicate = injector.Sample(FaultKind::kDescCompletionDuplicate, t).fire;
          const std::size_t pending_before = dma.deferred_pending();
          DmaApi::UnmapResultInfo r = dma.UnmapDescriptor(op.core, d.mappings, t);
          t += r.cpu_ns;
          if (duplicate) {
            t += dma.UnmapDescriptor(op.core, d.mappings, t).cpu_ns;
          }
          if (!off) {
            for (const DmaMapping& m : d.mappings) {
              model.Unmap(PageNumber(m.iova));
              retired.push_back(m.iova);
            }
            if (config.mode == ProtectionMode::kDeferred &&
                dma.deferred_pending() < pending_before + d.mappings.size()) {
              model.FlushAll();  // threshold reached: the queue was flushed
            }
          }
          for (PhysAddr f : d.frames) {
            frame_alloc.FreeFrame(f);
          }
        }
        while (retired.size() > 512) {
          retired.pop_front();
        }
        break;
      }
      case OpKind::kDmaLive: {
        if (off || live.empty()) {
          break;
        }
        const LiveDesc& d = live[static_cast<std::size_t>(op.arg % live.size())];
        const DmaMapping& m =
            d.mappings[static_cast<std::size_t>((op.arg >> 20) % d.mappings.size())];
        if (capability) {
          do_cap_check(s, i, m.iova);
        } else {
          do_translate(s, i, m.iova);
        }
        break;
      }
      case OpKind::kDmaRetired: {
        if (off || retired.empty()) {
          break;
        }
        const Iova target = retired[static_cast<std::size_t>(op.arg % retired.size())];
        if (capability) {
          do_cap_check(s, i, target);
        } else {
          do_translate(s, i, target);
        }
        break;
      }
    }
    if (!out.diverged) {
      check_state(i);
    }
    if (!out.diverged && (i % 128 == 127 || i + 1 == ops.size())) {
      if (const std::uint64_t failed = invariants.CheckAll(t); failed != 0) {
        check_failures += failed;
        const InvariantFailure& f = invariants.failures().back();
        diverge(i, "invariant " + f.name + " failed: " + f.detail);
      }
      for (std::size_t di = 0; di < stacks.size() && !out.diverged; ++di) {
        std::string detail;
        if (!stacks[di].pt->CheckConsistency(&detail)) {
          std::string tag;
          if (multi) {
            tag = "domain " + std::to_string(di) + ": ";
          }
          diverge(i, tag + "page table structurally inconsistent: " + detail);
        }
      }
    }
  }
  for (const DomainStack& s : stacks) {
    out.violations += s.oracle->total_violations();
    out.use_after_unmap += s.oracle->count(SafetyViolationKind::kUseAfterUnmap);
  }
  out.check_failures = check_failures;
  out.hard_failures = invariants.failure_count() - check_failures;
  out.inv_retries = stats.Value("dma.inv_retries");
  out.inv_fallbacks = stats.Value("dma.inv_fallback_flushes");
  out.double_unmaps = stats.Value("dma.double_unmap");
  for (int k = 0; k < static_cast<int>(FaultKind::kCount); ++k) {
    out.fired[k] = injector.fired(static_cast<FaultKind>(k));
  }
  return out;
}

DifferentialHarness::ShrinkOutcome DifferentialHarness::Shrink(const DiffConfig& config,
                                                               std::vector<DiffOp> ops,
                                                               const DiffResult& first) {
  // Ops are self-contained (targets are reduced modulo the live pools), so
  // any subsequence still executes and divergence is monotone in the prefix
  // length — exactly the contract the shared shrinker requires.
  ShrunkSequence<DiffOp, DiffResult> shrunk = ShrinkSequence(
      std::move(ops), first.fail_index, first,
      [&](const std::vector<DiffOp>& candidate) { return Run(config, candidate); },
      [](const DiffResult& r) { return r.diverged; });
  ShrinkOutcome out;
  out.ops = std::move(shrunk.ops);
  out.result = std::move(shrunk.result);
  out.runs = shrunk.runs;
  return out;
}

std::string DifferentialHarness::Serialize(const DiffConfig& config,
                                           const std::vector<DiffOp>& ops) {
  std::ostringstream os;
  os << "fsio-diff-repro v1\n";
  os << "mode " << ModeToken(config.mode) << "\n";
  os << "rcache " << (config.enable_rcache ? 1 : 0) << "\n";
  os << "seed " << config.seed << "\n";
  os << "pages_per_chunk " << config.pages_per_chunk << "\n";
  os << "num_cores " << config.num_cores << "\n";
  if (config.num_domains != 1) {
    // Only multi-domain repros carry the key, so single-domain repro files
    // stay byte-identical to the pre-tenant format.
    os << "num_domains " << config.num_domains << "\n";
  }
  if (config.fault_plan != kBaselinePlan) {
    // Likewise: fault-free repros keep the pre-fault-plan format.
    os << "fault_plan " << config.fault_plan << "\n";
  }
  os << "bug " << InjectedBugName(config.bug) << "\n";
  os << "ops " << ops.size() << "\n";
  for (const DiffOp& op : ops) {
    os << "op " << static_cast<int>(op.kind) << " " << op.core << " " << op.arg << "\n";
  }
  os << "end\n";
  return os.str();
}

bool DifferentialHarness::Parse(const std::string& text, DiffConfig* config,
                                std::vector<DiffOp>* ops, std::string* error) {
  std::istringstream is(text);
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  std::string line;
  if (!std::getline(is, line) || line != "fsio-diff-repro v1") {
    return fail("missing 'fsio-diff-repro v1' header");
  }
  *config = DiffConfig{};
  ops->clear();
  std::uint64_t declared_ops = 0;
  bool saw_end = false;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "mode") {
      std::string token;
      ls >> token;
      if (!ParseModeToken(token, &config->mode)) {
        return fail("unknown mode token: " + token);
      }
    } else if (key == "rcache") {
      int v = 0;
      ls >> v;
      config->enable_rcache = v != 0;
    } else if (key == "seed") {
      ls >> config->seed;
    } else if (key == "pages_per_chunk") {
      ls >> config->pages_per_chunk;
    } else if (key == "num_cores") {
      ls >> config->num_cores;
    } else if (key == "num_domains") {
      ls >> config->num_domains;
    } else if (key == "fault_plan") {
      ls >> config->fault_plan;
      FaultPlan plan;
      if (!FindFaultPlan(config->fault_plan, 0, &plan)) {
        return fail("unknown fault plan: " + config->fault_plan);
      }
    } else if (key == "bug") {
      std::string token;
      ls >> token;
      if (!ParseBugToken(token, &config->bug)) {
        return fail("unknown bug token: " + token);
      }
    } else if (key == "ops") {
      ls >> declared_ops;
    } else if (key == "op") {
      int kind = 0;
      DiffOp op;
      ls >> kind >> op.core >> op.arg;
      if (ls.fail() || kind < 0 || kind > static_cast<int>(OpKind::kDmaRetired)) {
        return fail("malformed op line: " + line);
      }
      op.kind = static_cast<OpKind>(kind);
      ops->push_back(op);
    } else if (key == "end") {
      saw_end = true;
      break;
    } else {
      return fail("unknown key: " + key);
    }
  }
  if (!saw_end) {
    return fail("missing 'end' marker");
  }
  if (declared_ops != ops->size()) {
    return fail("op count mismatch between header and body");
  }
  if (config->num_ops < ops->size()) {
    config->num_ops = static_cast<std::uint32_t>(ops->size());
  }
  if (config->pages_per_chunk == 0 || config->num_cores == 0) {
    return fail("pages_per_chunk and num_cores must be positive");
  }
  if (config->num_domains == 0) {
    return fail("num_domains must be positive");
  }
  return true;
}

}  // namespace fsio
