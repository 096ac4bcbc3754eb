// Protocol model checker CLI: exhaustively enumerates interleavings of
// small abstract protection-protocol configurations (driver map/unmap,
// device DMA/IOTLB, capability grant/revoke/quiesce, tenant crash/recovery)
// and checks the SafetyOracle invariant classes on every device access
// (see src/check/).
//
// Modes of operation:
//   * default sweep          — every protection mode (or one, via --mode) is
//                              explored to --depth; any invariant violation
//                              is shrunk to a minimal counterexample trace,
//                              printed (and optionally written via
//                              --trace-out), exit 1.
//   * --bug X --expect-violation
//                            — checker power test: EVERY explored mode the
//                              bug applies to must produce a violation,
//                              whose shrunk trace must fit --max-trace-steps
//                              and round-trip (Serialize -> Parse -> Replay
//                              still violates). Exit 0 only when all hold.
//   * --replay FILE          — re-runs a previously written trace file and
//                              reports whether the violation reproduces.
//
// Output is deterministic for fixed arguments.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/checker.h"
#include "src/check/model.h"
#include "src/driver/protection.h"
#include "src/refmodel/diff_harness.h"
#include "tools/cli.h"

namespace fsio {
namespace {

using check::CheckConfig;
using check::CheckModelConfig;
using check::CheckOutcome;
using check::ModelStep;
using check::ModelViolation;
using check::ReplayOutcome;
using check::ShrunkTrace;

struct Options {
  std::vector<ProtectionMode> modes{std::begin(kAllModes), std::end(kAllModes)};
  std::uint32_t depth = 12;
  std::uint32_t domains = 1;
  std::uint32_t pages = 2;
  InjectedBug bug = InjectedBug::kNone;
  bool expect_violation = false;
  std::size_t max_trace_steps = 10;
  std::string trace_out;
  std::string replay;
  bool por = true;
  bool quiet = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: fsio_model [options]\n"
               "  --mode all|TOKEN      protection mode sweep or a single mode\n"
               "                        (off strict deferred strict-preserve\n"
               "                         strict-contig fast-safe hugepage-persistent\n"
               "                         capability)\n"
               "  --depth N             interleaving bound in micro-steps (default 12)\n"
               "  --domains N           protection domains, 1..%u (default 1;\n"
               "                        >=2 adds cross-domain isolation checking)\n"
               "  --pages N             pages per domain, 1..%u (default 2)\n"
               "  --bug TOKEN           inject a protocol bug (none use-after-unmap\n"
               "                        skip-invalidation early-reclaim untagged-iotlb\n"
               "                        skip-capability-check)\n"
               "  --expect-violation    require every applicable mode to violate\n"
               "                        (checker power test)\n"
               "  --max-trace-steps N   shrunk counterexample size budget (default 10)\n"
               "  --trace-out FILE      write the shrunk counterexample trace here\n"
               "  --replay FILE         replay a trace file instead of exploring\n"
               "  --no-por              disable the partial-order reduction\n"
               "  --quiet               only print the final summary line\n",
               check::kMaxDomains, check::kMaxPages);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  auto need = [&](int i) { return i + 1 < argc; };
  auto count = [&](int* i, std::uint64_t min, std::uint64_t max) {
    const char* flag = argv[*i];
    return cli::ParseUint<std::uint64_t>("fsio_model", flag, argv[++*i], min, max);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--mode" && need(i)) {
      opt->modes = cli::ParseModes("fsio_model", "--mode", argv[++i]);
    } else if (a == "--depth" && need(i)) {
      opt->depth = static_cast<std::uint32_t>(count(&i, 1, 0xffffffffULL));
    } else if (a == "--domains" && need(i)) {
      opt->domains = static_cast<std::uint32_t>(count(&i, 1, check::kMaxDomains));
    } else if (a == "--pages" && need(i)) {
      opt->pages = static_cast<std::uint32_t>(count(&i, 1, check::kMaxPages));
    } else if (a == "--bug" && need(i)) {
      if (!ParseBugToken(argv[++i], &opt->bug)) {
        std::fprintf(stderr, "fsio_model: unknown bug token '%s'\n", argv[i]);
        return false;
      }
    } else if (a == "--expect-violation") {
      opt->expect_violation = true;
    } else if (a == "--max-trace-steps" && need(i)) {
      opt->max_trace_steps = count(&i, 0, ~0ULL);
    } else if (a == "--trace-out" && need(i)) {
      opt->trace_out = argv[++i];
    } else if (a == "--replay" && need(i)) {
      opt->replay = argv[++i];
    } else if (a == "--no-por") {
      opt->por = false;
    } else if (a == "--quiet") {
      opt->quiet = true;
    } else if (a == "--help" || a == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "fsio_model: unknown argument '%s'\n", a.c_str());
      Usage();
      return false;
    }
  }
  return true;
}

// A bug only has power where its protocol machinery exists: the IOTLB bugs
// need the IOMMU datapath, the capability bug needs the capability check.
// Modes outside a bug's reach must still verify CLEAN under it.
bool BugApplies(InjectedBug bug, ProtectionMode mode) {
  switch (bug) {
    case InjectedBug::kNone:
      return false;
    case InjectedBug::kUseAfterUnmap:
    case InjectedBug::kSkipInvalidation:
    case InjectedBug::kEarlyReclaim:
      // Persistent pools never invalidate or reclaim, so the unmap-path
      // bugs have nothing to break there.
      return UsesIommu(mode) && mode != ProtectionMode::kHugepagePersistent;
    case InjectedBug::kUntaggedIotlb:
      // Tag-blind lookups breach isolation in every IOMMU datapath mode,
      // persistent pools included — no unmap is needed for the cross hit.
      return UsesIommu(mode);
    case InjectedBug::kSkipCapabilityCheck:
      return mode == ProtectionMode::kCapability;
  }
  return false;
}

void PrintTrace(const CheckModelConfig& config, const std::vector<ModelStep>& steps) {
  for (const ModelStep& step : steps) {
    if (step.kind == check::StepKind::kDmaHit) {
      std::printf("  %s domain=%d page=%d entry-owner=%d\n", StepKindName(step.kind),
                  step.domain, step.page, step.aux);
    } else {
      std::printf("  %s domain=%d page=%d\n", StepKindName(step.kind), step.domain,
                  step.page);
    }
  }
  (void)config;
}

// Serialize -> Parse -> Replay must still violate, or the trace is useless.
bool TraceRoundTrips(const CheckModelConfig& config, ModelViolation violation,
                     const std::vector<ModelStep>& steps) {
  const std::string text = check::SerializeTrace(config, violation, steps);
  CheckModelConfig parsed;
  ModelViolation parsed_violation;
  std::vector<ModelStep> parsed_steps;
  std::string error;
  if (!check::ParseTrace(text, &parsed, &parsed_violation, &parsed_steps, &error)) {
    std::printf("trace round-trip FAILED to parse: %s\n", error.c_str());
    return false;
  }
  const ReplayOutcome replay = check::ReplayTrace(parsed, parsed_steps);
  if (replay.violation != violation) {
    std::printf("trace round-trip FAILED to reproduce the violation\n");
    return false;
  }
  return true;
}

// Shrinks, prints, and (optionally) writes the counterexample. Returns the
// shrunk trace so callers can validate size and replayability.
ShrunkTrace HandleViolation(const Options& opt, const CheckModelConfig& config,
                            const CheckOutcome& outcome) {
  std::printf("VIOLATION mode=%s bug=%s domains=%u pages=%u: %s after %zu steps\n",
              ModeToken(config.mode), InjectedBugName(config.bug), config.domains,
              config.pages, ModelViolationName(outcome.violation),
              outcome.trace.size());
  ReplayOutcome first;
  first.violation = outcome.violation;
  first.fail_index = outcome.trace.empty() ? 0 : outcome.trace.size() - 1;
  ShrunkTrace shrunk = check::ShrinkTrace(config, outcome.trace, first);
  std::printf("shrunk to %zu steps in %u replays:\n", shrunk.steps.size(), shrunk.runs);
  PrintTrace(config, shrunk.steps);
  std::printf("  => %s\n", ModelViolationName(shrunk.result.violation));
  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    out << check::SerializeTrace(config, shrunk.result.violation, shrunk.steps);
    std::printf("trace written to %s\n", opt.trace_out.c_str());
  }
  return shrunk;
}

int Replay(const Options& opt) {
  std::ifstream in(opt.replay);
  if (!in) {
    std::fprintf(stderr, "fsio_model: cannot open %s\n", opt.replay.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  CheckModelConfig config;
  ModelViolation violation;
  std::vector<ModelStep> steps;
  std::string error;
  if (!check::ParseTrace(buf.str(), &config, &violation, &steps, &error)) {
    std::fprintf(stderr, "fsio_model: bad trace file: %s\n", error.c_str());
    return 2;
  }
  const ReplayOutcome result = check::ReplayTrace(config, steps);
  if (result.violation != ModelViolation::kNone) {
    std::printf("replay: VIOLATED %s at step %zu (%zu steps, mode=%s bug=%s)\n",
                ModelViolationName(result.violation), result.fail_index, steps.size(),
                ModeToken(config.mode), InjectedBugName(config.bug));
    return result.violation == violation ? 0 : 1;
  }
  std::printf("replay: no violation over %zu steps (mode=%s bug=%s)\n", steps.size(),
              ModeToken(config.mode), InjectedBugName(config.bug));
  return 1;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }
  if (!opt.replay.empty()) {
    return Replay(opt);
  }
  if (opt.expect_violation && opt.bug == InjectedBug::kNone) {
    std::fprintf(stderr, "fsio_model: --expect-violation requires --bug\n");
    return 2;
  }

  std::uint64_t explored_modes = 0;
  std::uint64_t violated_modes = 0;
  std::uint64_t total_states = 0;
  std::uint64_t total_transitions = 0;
  bool power_test_ok = true;
  bool any_unexpected = false;

  for (ProtectionMode mode : opt.modes) {
    CheckConfig config;
    config.model.mode = mode;
    config.model.bug = opt.bug;
    config.model.domains = opt.domains;
    config.model.pages = opt.pages;
    config.depth = opt.depth;
    config.por = opt.por;
    const bool applicable = BugApplies(opt.bug, mode);
    const CheckOutcome outcome = check::RunModelCheck(config);
    ++explored_modes;
    total_states += outcome.stats.states;
    total_transitions += outcome.stats.transitions;

    if (outcome.violation != ModelViolation::kNone) {
      ++violated_modes;
      ShrunkTrace shrunk = HandleViolation(opt, config.model, outcome);
      if (!opt.expect_violation || !applicable) {
        // A clean protocol (or a mode the bug cannot reach) violated: that
        // is a genuine protocol or model bug either way.
        any_unexpected = true;
        continue;
      }
      if (shrunk.steps.size() > opt.max_trace_steps) {
        std::printf("power test FAILED: trace has %zu steps, budget is %zu\n",
                    shrunk.steps.size(), opt.max_trace_steps);
        power_test_ok = false;
      }
      if (!TraceRoundTrips(config.model, shrunk.result.violation, shrunk.steps)) {
        power_test_ok = false;
      }
    } else {
      if (opt.expect_violation && applicable) {
        std::printf("power test FAILED: bug=%s NOT found in mode=%s "
                    "(%llu states, %llu transitions, depth %u)\n",
                    InjectedBugName(opt.bug), ModeToken(mode),
                    static_cast<unsigned long long>(outcome.stats.states),
                    static_cast<unsigned long long>(outcome.stats.transitions),
                    outcome.stats.depth_reached);
        power_test_ok = false;
      }
      if (!opt.quiet) {
        std::printf("clean mode=%s bug=%s: %llu states, %llu transitions, "
                    "depth %u%s, %llu por-pruned\n",
                    ModeToken(mode), InjectedBugName(opt.bug),
                    static_cast<unsigned long long>(outcome.stats.states),
                    static_cast<unsigned long long>(outcome.stats.transitions),
                    outcome.stats.depth_reached,
                    outcome.stats.depth_bound_hit ? " (bound hit)" : " (exhausted)",
                    static_cast<unsigned long long>(outcome.stats.por_pruned));
      }
    }
  }

  std::printf("fsio_model: %llu modes explored, %llu violated, %llu states, "
              "%llu transitions (depth %u, domains %u, pages %u)\n",
              static_cast<unsigned long long>(explored_modes),
              static_cast<unsigned long long>(violated_modes),
              static_cast<unsigned long long>(total_states),
              static_cast<unsigned long long>(total_transitions), opt.depth,
              opt.domains, opt.pages);
  if (opt.expect_violation) {
    if (power_test_ok && !any_unexpected && violated_modes > 0) {
      std::printf("power test PASSED: bug=%s found in every applicable mode\n",
                  InjectedBugName(opt.bug));
      return 0;
    }
    std::printf("power test FAILED for bug=%s\n", InjectedBugName(opt.bug));
    return 1;
  }
  return violated_modes == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fsio

int main(int argc, char** argv) { return fsio::Main(argc, argv); }
