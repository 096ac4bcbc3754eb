// Differential fuzzer CLI: drives the real IOMMU/page-table/IOVA/DMA-API
// stack against the deliberately-simple RefModel in lockstep (see
// src/refmodel/) across seeds, protection modes and both IOVA allocator
// configurations.
//
// Modes of operation:
//   * default sweep          — every (seed, mode, rcache) cell must agree;
//                              any divergence is shrunk to a minimal repro,
//                              printed (and optionally written via
//                              --repro-out), exit 1.
//   * --bug X --expect-divergence
//                            — oracle self-test: EVERY cell must diverge
//                              (the injected bug must be caught), the first
//                              divergence is shrunk and must fit in
//                              --max-repro-ops, and the serialized repro
//                              must replay (Serialize -> Parse -> Run still
//                              diverges). Exit 0 only when all of that holds.
//   * --fault-plan NAME|all  — the same lockstep under injected environment
//                              faults (src/faults/fault_plans.h). Every cell
//                              must still agree with the model, and each
//                              (mode, plan) pair must meet its expectation
//                              row (see CheckFaultCell). Exit 0 only when
//                              every row holds.
//   * --replay FILE          — re-runs a previously written repro file and
//                              reports whether the divergence reproduces.
//
// Output is deterministic for fixed arguments.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/protection.h"
#include "src/faults/fault_plans.h"
#include "src/refmodel/diff_harness.h"
#include "tools/cli.h"

namespace fsio {
namespace {

struct Options {
  std::uint64_t seeds = 8;
  std::uint64_t seed_base = 1;
  std::uint32_t ops = 1500;
  std::vector<ProtectionMode> modes{std::begin(kAllModes), std::end(kAllModes)};
  std::vector<bool> rcaches{true, false};  // --rcache both | on | off
  std::string fault_plan;        // empty: fault-free sweep; else a plan name or "all"
  std::uint32_t pages_per_chunk = 64;
  std::uint32_t num_cores = 4;
  std::uint32_t domains = 1;
  InjectedBug bug = InjectedBug::kNone;
  bool expect_divergence = false;
  std::size_t max_repro_ops = 20;
  std::string repro_out;
  std::string replay;
  bool quiet = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: fsio_diff [options]\n"
               "  --seeds N             seeds per (mode, rcache) cell (default 8)\n"
               "  --seed-base N         first seed value (default 1)\n"
               "  --ops N               operations per run (default 1500)\n"
               "  --mode all|TOKEN      protection mode sweep or a single mode\n"
               "                        (off strict deferred strict-preserve\n"
               "                         strict-contig fast-safe hugepage-persistent\n"
               "                         capability)\n"
               "  --rcache both|on|off  IOVA allocator cache configurations\n"
               "  --pages-per-chunk N   Rx descriptor size in pages (default 64)\n"
               "  --num-cores N         driver cores (default 4)\n"
               "  --domains N           protection domains sharing the IOMMU (default 1;\n"
               "                        >=2 checks per-tenant semantics + isolation)\n"
               "  --fault-plan NAME|all run under injected faults and check each (mode,\n"
               "                        plan) expectation row (baseline inv-stall-drop\n"
               "                        walker-backpressure alloc-pressure\n"
               "                        completion-chaos delayed-flush)\n"
               "  --bug TOKEN           inject a driver/hardware bug (none use-after-unmap\n"
               "                        skip-invalidation early-reclaim untagged-iotlb\n"
               "                        skip-capability-check)\n"
               "  --expect-divergence   require every run to diverge (oracle self-test)\n"
               "  --max-repro-ops N     shrunken repro size budget (default 20)\n"
               "  --repro-out FILE      write the shrunken repro here on divergence\n"
               "  --replay FILE         replay a repro file instead of sweeping\n"
               "  --quiet               only print the final summary line\n");
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  auto need = [&](int i) { return i + 1 < argc; };
  auto count = [&](int* i, std::uint64_t min, std::uint64_t max) {
    const char* flag = argv[*i];
    return cli::ParseUint<std::uint64_t>("fsio_diff", flag, argv[++*i], min, max);
  };
  constexpr std::uint64_t kU32 = 0xffffffffULL;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seeds" && need(i)) {
      opt->seeds = count(&i, 1, ~0ULL);
    } else if (a == "--seed-base" && need(i)) {
      opt->seed_base = count(&i, 0, ~0ULL);
    } else if (a == "--ops" && need(i)) {
      opt->ops = static_cast<std::uint32_t>(count(&i, 1, kU32));
    } else if (a == "--mode" && need(i)) {
      opt->modes = cli::ParseModes("fsio_diff", "--mode", argv[++i]);
    } else if (a == "--rcache" && need(i)) {
      const std::string v = argv[++i];
      if (v != "both" && v != "on" && v != "off") {
        std::fprintf(stderr, "fsio_diff: --rcache must be both|on|off\n");
        return false;
      }
      opt->rcaches = v == "both" ? std::vector<bool>{true, false} : std::vector<bool>{v == "on"};
    } else if (a == "--pages-per-chunk" && need(i)) {
      opt->pages_per_chunk = static_cast<std::uint32_t>(count(&i, 1, kU32));
    } else if (a == "--num-cores" && need(i)) {
      opt->num_cores = static_cast<std::uint32_t>(count(&i, 1, kU32));
    } else if (a == "--domains" && need(i)) {
      opt->domains = static_cast<std::uint32_t>(count(&i, 1, kU32));
    } else if (a == "--fault-plan" && need(i)) {
      opt->fault_plan = argv[++i];
      FaultPlan plan;
      if (opt->fault_plan != "all" && !FindFaultPlan(opt->fault_plan, 0, &plan)) {
        std::fprintf(stderr, "fsio_diff: unknown fault plan '%s'\n", argv[i]);
        return false;
      }
    } else if (a == "--bug" && need(i)) {
      if (!ParseBugToken(argv[++i], &opt->bug)) {
        std::fprintf(stderr, "fsio_diff: unknown bug token '%s'\n", argv[i]);
        return false;
      }
    } else if (a == "--expect-divergence") {
      opt->expect_divergence = true;
    } else if (a == "--max-repro-ops" && need(i)) {
      opt->max_repro_ops = count(&i, 0, ~0ULL);
    } else if (a == "--repro-out" && need(i)) {
      opt->repro_out = argv[++i];
    } else if (a == "--replay" && need(i)) {
      opt->replay = argv[++i];
    } else if (a == "--quiet") {
      opt->quiet = true;
    } else if (a == "--help" || a == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "fsio_diff: unknown argument '%s'\n", a.c_str());
      Usage();
      return false;
    }
  }
  return true;
}

// Shrinks, prints, and (optionally) writes the repro. Returns the shrink
// outcome so callers can validate size and replayability.
DifferentialHarness::ShrinkOutcome HandleDivergence(const Options& opt, const DiffConfig& config,
                                                    const std::vector<DiffOp>& ops,
                                                    const DiffResult& result) {
  std::printf("DIVERGENCE mode=%s rcache=%d seed=%llu bug=%s plan=%s at op %zu:\n  %s\n",
              ModeToken(config.mode), config.enable_rcache ? 1 : 0,
              static_cast<unsigned long long>(config.seed), InjectedBugName(config.bug),
              config.fault_plan.c_str(), result.fail_index, result.message.c_str());
  DifferentialHarness::ShrinkOutcome shrunk = DifferentialHarness::Shrink(config, ops, result);
  std::printf("shrunk to %zu ops in %u runs:\n", shrunk.ops.size(), shrunk.runs);
  for (const DiffOp& op : shrunk.ops) {
    std::printf("  %s core=%u arg=%llu\n", OpKindName(op.kind), op.core,
                static_cast<unsigned long long>(op.arg));
  }
  std::printf("  => %s\n", shrunk.result.message.c_str());
  if (!opt.repro_out.empty()) {
    std::ofstream out(opt.repro_out);
    out << DifferentialHarness::Serialize(config, shrunk.ops);
    std::printf("repro written to %s\n", opt.repro_out.c_str());
  }
  return shrunk;
}

// Serialize -> Parse -> Run must still diverge, or the repro is useless.
bool ReproRoundTrips(const DiffConfig& config, const std::vector<DiffOp>& ops) {
  const std::string text = DifferentialHarness::Serialize(config, ops);
  DiffConfig parsed;
  std::vector<DiffOp> parsed_ops;
  std::string error;
  if (!DifferentialHarness::Parse(text, &parsed, &parsed_ops, &error)) {
    std::printf("repro round-trip FAILED to parse: %s\n", error.c_str());
    return false;
  }
  const DiffResult replay = DifferentialHarness::Run(parsed, parsed_ops);
  if (!replay.diverged) {
    std::printf("repro round-trip FAILED to reproduce the divergence\n");
    return false;
  }
  return true;
}

int Replay(const Options& opt) {
  std::ifstream in(opt.replay);
  if (!in) {
    std::fprintf(stderr, "fsio_diff: cannot open %s\n", opt.replay.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  DiffConfig config;
  std::vector<DiffOp> ops;
  std::string error;
  if (!DifferentialHarness::Parse(buf.str(), &config, &ops, &error)) {
    std::fprintf(stderr, "fsio_diff: bad repro file: %s\n", error.c_str());
    return 2;
  }
  const DiffResult result = DifferentialHarness::Run(config, ops);
  if (result.diverged) {
    std::printf("replay: DIVERGED at op %zu (%zu ops): %s\n", result.fail_index, ops.size(),
                result.message.c_str());
    return 0;
  }
  std::printf("replay: no divergence over %zu ops (mode=%s rcache=%d bug=%s plan=%s)\n",
              ops.size(), ModeToken(config.mode), config.enable_rcache ? 1 : 0,
              InjectedBugName(config.bug), config.fault_plan.c_str());
  return 1;
}

// Sums one run's outcome into a (mode, plan) cell or the grand total.
void Accumulate(DiffResult* total, const DiffResult& r) {
  total->ops_executed += r.ops_executed;
  total->maps += r.maps;
  total->unmaps += r.unmaps;
  total->dmas += r.dmas;
  total->faults += r.faults;
  total->stale_uses += r.stale_uses;
  total->violations += r.violations;
  total->use_after_unmap += r.use_after_unmap;
  total->check_failures += r.check_failures;
  total->hard_failures += r.hard_failures;
  total->inv_retries += r.inv_retries;
  total->inv_fallbacks += r.inv_fallbacks;
  total->double_unmaps += r.double_unmaps;
  for (std::size_t k = 0; k < r.fired.size(); ++k) {
    total->fired[k] += r.fired[k];
  }
}

// True when a lockstep run in `mode` executes the hook that samples `kind`:
// walks need the IOMMU datapath, range invalidations a strictly safe tearing
// mode (deferred mode only issues global flushes, which stall but are never
// dropped), IOVA allocations the IOMMU datapath too (iommu-off and
// capability mode hand out physical addresses), and the completion
// faults the unmap path persistent pools bypass. The harness has no root
// complex, so root_complex_backpressure reaches no mode here
// (RootComplexFaultTest.BackpressureBurstStallsAdmission covers that hook).
bool ReachesHook(FaultKind kind, ProtectionMode mode) {
  const bool tears_down = UsesIommu(mode) && mode != ProtectionMode::kHugepagePersistent;
  switch (kind) {
    case FaultKind::kInvalidationDrop:
      return tears_down && mode != ProtectionMode::kDeferred;
    case FaultKind::kInvalidationStall:
      return tears_down;
    case FaultKind::kWalkerLatencySpike:
    case FaultKind::kIovaExhaustion:
      return UsesIommu(mode);
    case FaultKind::kFrameAllocFailure:
      return true;
    case FaultKind::kDescCompletionReorder:
    case FaultKind::kDescCompletionDuplicate:
      return mode != ProtectionMode::kHugepagePersistent;
    case FaultKind::kDeferredFlushDelay:
      return mode == ProtectionMode::kDeferred;
    default:
      return false;
  }
}

std::uint64_t Fired(const DiffResult& cell, FaultKind kind) {
  return cell.fired[static_cast<int>(kind)];
}

bool PlansDuplicates(const FaultPlan& plan) {
  for (const FaultSpec& spec : plan.specs) {
    if (spec.kind == FaultKind::kDescCompletionDuplicate) {
      return true;
    }
  }
  return false;
}

// The fault matrix's expectation table: each row names the (mode, plan)
// cells it covers and what their summed runs must show. Every run of every
// cell has already agreed with the model op by op; these rows add the
// existence claims the model alone cannot make (a hazard is reachable, a
// degradation path engages).
struct ExpectationRow {
  const char* what;
  bool (*covers)(ProtectionMode mode, const FaultPlan& plan);
  bool (*holds)(const DiffResult& cell);
};

constexpr ExpectationRow kFaultMatrix[] = {
    {"strictly safe and iommu-off modes have 0 violations",
     [](ProtectionMode m, const FaultPlan&) {
       return IsStrictlySafe(m) || m == ProtectionMode::kOff;
     },
     [](const DiffResult& c) { return c.violations == 0; }},
    {"structural invariants must hold", [](ProtectionMode, const FaultPlan&) { return true; },
     [](const DiffResult& c) { return c.check_failures == 0; }},
    {"deferred mode must violate under delayed flushes, only use-after-unmap",
     [](ProtectionMode m, const FaultPlan& p) {
       return m == ProtectionMode::kDeferred && p.name == "delayed-flush";
     },
     [](const DiffResult& c) { return c.violations > 0 && c.use_after_unmap == c.violations; }},
    {"released persistent buffers must stay device-visible",
     [](ProtectionMode m, const FaultPlan&) { return m == ProtectionMode::kHugepagePersistent; },
     [](const DiffResult& c) { return c.violations > 0; }},
    {"invalidation retry and global-flush fallback must engage",
     [](ProtectionMode m, const FaultPlan& p) {
       return p.name == "inv-stall-drop" &&
              (m == ProtectionMode::kStrict || m == ProtectionMode::kFastSafe);
     },
     [](const DiffResult& c) { return c.inv_retries > 0 && c.inv_fallbacks > 0; }},
    // iommu-off keeps no unmap bookkeeping, so it has nothing to detect with.
    {"every duplicate completion must be detected as a double unmap",
     [](ProtectionMode m, const FaultPlan& p) {
       return PlansDuplicates(p) && ReachesHook(FaultKind::kDescCompletionDuplicate, m) &&
              m != ProtectionMode::kOff;
     },
     [](const DiffResult& c) {
       return c.double_unmaps >= Fired(c, FaultKind::kDescCompletionDuplicate);
     }},
    {"no hard failures without duplicate completions",
     [](ProtectionMode, const FaultPlan& p) { return !PlansDuplicates(p); },
     [](const DiffResult& c) { return c.hard_failures == 0; }},
};

// Judges one (mode, plan) cell against kFaultMatrix, plus the row that keeps
// the others from passing vacuously: every planned fault kind fires in every
// mode that reaches its hook. Prints the cell line and each failed
// expectation; returns the failures.
int CheckFaultCell(ProtectionMode mode, const FaultPlan& plan, const DiffResult& cell,
                   bool quiet) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::printf("EXPECTATION FAILED: %s / %s: %s\n", ModeToken(mode), plan.name.c_str(),
                  what.c_str());
    }
  };
  for (const FaultSpec& spec : plan.specs) {
    if (ReachesHook(spec.kind, mode)) {
      expect(Fired(cell, spec.kind) > 0, std::string(FaultKindName(spec.kind)) + " must fire");
    }
  }
  for (const ExpectationRow& row : kFaultMatrix) {
    if (row.covers(mode, plan)) {
      expect(row.holds(cell), row.what);
    }
  }
  if (!quiet) {
    std::printf("cell mode=%s plan=%s violations=%llu use_after_unmap=%llu "
                "check_failures=%llu hard_failures=%llu double_unmap=%llu "
                "inv_retries=%llu inv_fallbacks=%llu faults:",
                ModeToken(mode), plan.name.c_str(),
                static_cast<unsigned long long>(cell.violations),
                static_cast<unsigned long long>(cell.use_after_unmap),
                static_cast<unsigned long long>(cell.check_failures),
                static_cast<unsigned long long>(cell.hard_failures),
                static_cast<unsigned long long>(cell.double_unmaps),
                static_cast<unsigned long long>(cell.inv_retries),
                static_cast<unsigned long long>(cell.inv_fallbacks));
    for (std::size_t k = 0; k < cell.fired.size(); ++k) {
      if (cell.fired[k] != 0) {
        std::printf(" %s=%llu", FaultKindName(static_cast<FaultKind>(k)),
                    static_cast<unsigned long long>(cell.fired[k]));
      }
    }
    std::printf("\n");
  }
  return failures;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }
  if (!opt.replay.empty()) {
    return Replay(opt);
  }
  if (opt.expect_divergence && opt.bug == InjectedBug::kNone) {
    std::fprintf(stderr, "fsio_diff: --expect-divergence requires --bug\n");
    return 2;
  }
  // The fault matrix judges fault-free driver code; an injected bug would
  // fail its expectation rows by design.
  const bool matrix = !opt.fault_plan.empty();
  if (matrix && opt.bug != InjectedBug::kNone) {
    std::fprintf(stderr, "fsio_diff: --fault-plan cannot be combined with --bug\n");
    return 2;
  }
  std::vector<FaultPlan> plans;
  for (FaultPlan& plan : NamedFaultPlans(0)) {
    const std::string& wanted = matrix ? opt.fault_plan : std::string(kBaselinePlan);
    if (wanted == "all" || wanted == plan.name) {
      plans.push_back(std::move(plan));
    }
  }

  std::uint64_t runs = 0;
  std::uint64_t diverged = 0;
  DiffResult total;
  int failed_expectations = 0;
  bool self_test_ok = true;
  bool first_divergence_handled = false;

  for (ProtectionMode mode : opt.modes) {
    for (const FaultPlan& plan : plans) {
      DiffResult cell;
      for (bool rcache : opt.rcaches) {
        for (std::uint64_t s = 0; s < opt.seeds; ++s) {
          DiffConfig config;
          config.mode = mode;
          config.enable_rcache = rcache;
          config.seed = opt.seed_base + s;
          config.num_ops = opt.ops;
          config.pages_per_chunk = opt.pages_per_chunk;
          config.num_cores = opt.num_cores;
          config.num_domains = opt.domains;
          config.bug = opt.bug;
          config.fault_plan = plan.name;
          const std::vector<DiffOp> ops = DifferentialHarness::GenerateOps(config);
          const DiffResult result = DifferentialHarness::Run(config, ops);
          ++runs;
          Accumulate(&cell, result);
          if (result.diverged) {
            ++diverged;
            if (!opt.expect_divergence) {
              DifferentialHarness::ShrinkOutcome shrunk =
                  HandleDivergence(opt, config, ops, result);
              ReproRoundTrips(config, shrunk.ops);
              return 1;
            }
            if (!first_divergence_handled) {
              first_divergence_handled = true;
              DifferentialHarness::ShrinkOutcome shrunk =
                  HandleDivergence(opt, config, ops, result);
              if (shrunk.ops.size() > opt.max_repro_ops) {
                std::printf("self-test FAILED: repro has %zu ops, budget is %zu\n",
                            shrunk.ops.size(), opt.max_repro_ops);
                self_test_ok = false;
              }
              if (!ReproRoundTrips(config, shrunk.ops)) {
                self_test_ok = false;
              }
            }
          } else if (opt.expect_divergence) {
            std::printf("self-test FAILED: bug=%s NOT detected (mode=%s rcache=%d seed=%llu)\n",
                        InjectedBugName(opt.bug), ModeToken(mode), rcache ? 1 : 0,
                        static_cast<unsigned long long>(config.seed));
            self_test_ok = false;
          }
          if (!opt.quiet && !result.diverged) {
            std::printf("ok mode=%s%s%s rcache=%d seed=%llu ops=%llu maps=%llu unmaps=%llu "
                        "dmas=%llu faults=%llu stale=%llu\n",
                        ModeToken(mode), matrix ? " plan=" : "", matrix ? plan.name.c_str() : "",
                        rcache ? 1 : 0, static_cast<unsigned long long>(config.seed),
                        static_cast<unsigned long long>(result.ops_executed),
                        static_cast<unsigned long long>(result.maps),
                        static_cast<unsigned long long>(result.unmaps),
                        static_cast<unsigned long long>(result.dmas),
                        static_cast<unsigned long long>(result.faults),
                        static_cast<unsigned long long>(result.stale_uses));
          }
        }
      }
      Accumulate(&total, cell);
      if (matrix) {
        failed_expectations += CheckFaultCell(mode, plan, cell, opt.quiet);
      }
    }
  }

  std::printf("fsio_diff: %llu runs, %llu diverged, %llu ops, %llu dmas "
              "(%llu faults, %llu stale uses)\n",
              static_cast<unsigned long long>(runs), static_cast<unsigned long long>(diverged),
              static_cast<unsigned long long>(total.ops_executed),
              static_cast<unsigned long long>(total.dmas),
              static_cast<unsigned long long>(total.faults),
              static_cast<unsigned long long>(total.stale_uses));
  if (opt.expect_divergence) {
    if (diverged == runs && self_test_ok) {
      std::printf("self-test PASSED: bug=%s detected in all %llu runs\n",
                  InjectedBugName(opt.bug), static_cast<unsigned long long>(runs));
      return 0;
    }
    std::printf("self-test FAILED: bug=%s detected in %llu/%llu runs\n", InjectedBugName(opt.bug),
                static_cast<unsigned long long>(diverged), static_cast<unsigned long long>(runs));
    return 1;
  }
  if (matrix) {
    std::printf("fault matrix: %zu cells, %d expectation(s) failed: %s\n",
                opt.modes.size() * plans.size(), failed_expectations,
                failed_expectations == 0 ? "OK" : "FAILED");
  }
  return diverged == 0 && failed_expectations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fsio

int main(int argc, char** argv) { return fsio::Main(argc, argv); }
