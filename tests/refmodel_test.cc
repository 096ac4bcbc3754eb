// Reference-model and differential-harness tests.
//
// Three layers:
//   * RefModel unit tests — the contract model's own semantics (per-mode
//     unmap visibility, persistent release/reacquire, the CheckTranslation
//     three-case rule).
//   * Lockstep agreement — the real stack and the model agree over seeded
//     random workloads in every protection mode with both allocator
//     configurations (the big 64-seed sweep runs via tools/fsio_diff in
//     ctest; here a smaller matrix keeps gtest latency low).
//   * Oracle power — each injected driver bug is detected, shrinks to a
//     replayable repro of at most 20 operations, and the serialized repro
//     survives a Parse round-trip that still diverges.
//   * Fault plans — same-seed runs are identical under every named plan
//     (the fault matrix itself runs via fsio_diff --fault-plan all).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/faults/fault_plans.h"
#include "src/refmodel/diff_harness.h"
#include "src/refmodel/ref_model.h"
#include "src/refmodel/shrink.h"
#include "tests/test_util.h"

namespace fsio {
namespace {

TranslationResult CleanSuccess(PhysAddr phys) {
  TranslationResult r;
  r.phys = phys;
  return r;
}

TranslationResult CleanFault() {
  TranslationResult r;
  r.fault = true;
  return r;
}

TranslationResult StaleIotlbSuccess(PhysAddr phys) {
  TranslationResult r;
  r.phys = phys;
  r.iotlb_hit = true;
  r.stale_use = true;
  r.stale_iotlb = true;
  return r;
}

TEST(RefModelTest, MappedPageMustTranslateCleanly) {
  RefModel m(ProtectionMode::kStrict);
  m.Map(5, 0x4000);
  EXPECT_FALSE(m.CheckTranslation(5 * kPageSize + 0x80, CleanSuccess(0x4080)).has_value());
  EXPECT_TRUE(m.CheckTranslation(5 * kPageSize, CleanFault()).has_value());
  EXPECT_TRUE(m.CheckTranslation(5 * kPageSize, CleanSuccess(0x9999)).has_value());
  EXPECT_TRUE(m.CheckTranslation(5 * kPageSize, StaleIotlbSuccess(0x4000)).has_value());
  EXPECT_EQ(m.predicted_use_after_unmap(), 0u);
}

TEST(RefModelTest, StrictUnmapRevokesVisibilityImmediately) {
  RefModel m(ProtectionMode::kStrict);
  m.Map(5, 0x4000);
  m.Unmap(5);
  EXPECT_FALSE(m.IsVisible(5));
  // Only a clean fault is legal now.
  EXPECT_FALSE(m.CheckTranslation(5 * kPageSize, CleanFault()).has_value());
  EXPECT_TRUE(m.CheckTranslation(5 * kPageSize, CleanSuccess(0x4000)).has_value());
  EXPECT_TRUE(m.CheckTranslation(5 * kPageSize, StaleIotlbSuccess(0x4000)).has_value());
}

TEST(RefModelTest, DeferredUnmapLeavesStaleWindowUntilFlush) {
  RefModel m(ProtectionMode::kDeferred);
  m.Map(5, 0x4000);
  m.Unmap(5);
  EXPECT_FALSE(m.IsMapped(5));
  EXPECT_TRUE(m.IsVisible(5));
  // Both a stale-flagged success and a clean fault (entry evicted) are
  // legal inside the window; a clean success is not.
  EXPECT_FALSE(m.CheckTranslation(5 * kPageSize, StaleIotlbSuccess(0x4000)).has_value());
  EXPECT_EQ(m.predicted_use_after_unmap(), 1u);
  EXPECT_FALSE(m.CheckTranslation(5 * kPageSize, CleanFault()).has_value());
  EXPECT_TRUE(m.CheckTranslation(5 * kPageSize, CleanSuccess(0x4000)).has_value());
  m.FlushAll();
  EXPECT_FALSE(m.IsVisible(5));
  EXPECT_TRUE(m.CheckTranslation(5 * kPageSize, StaleIotlbSuccess(0x4000)).has_value());
}

TEST(RefModelTest, PersistentReleaseKeepsMappingButCountsUse) {
  RefModel m(ProtectionMode::kHugepagePersistent);
  m.Map(5, 0x4000);
  m.Release(5);
  EXPECT_TRUE(m.IsMapped(5));
  EXPECT_FALSE(m.IsOwned(5));
  // The translation stays legal — but each device use of the released page
  // must be matched by a use-after-unmap record in the safety oracle.
  EXPECT_FALSE(m.CheckTranslation(5 * kPageSize, CleanSuccess(0x4000)).has_value());
  EXPECT_EQ(m.predicted_use_after_unmap(), 1u);
  m.Reacquire(5);
  EXPECT_FALSE(m.CheckTranslation(5 * kPageSize, CleanSuccess(0x4000)).has_value());
  EXPECT_EQ(m.predicted_use_after_unmap(), 1u);
}

TEST(RefModelTest, CapabilityCheckContract) {
  RefModel m(ProtectionMode::kCapability);
  m.Map(5, 5 * kPageSize);  // capability mode is pass-through: identity phys
  // A granted page must pass the check; refusing it is a divergence.
  EXPECT_FALSE(m.CheckCapability(5 * kPageSize, /*allowed=*/true).has_value());
  EXPECT_TRUE(m.CheckCapability(5 * kPageSize, /*allowed=*/false).has_value());
  EXPECT_EQ(m.predicted_use_after_unmap(), 0u);
  // Revocation is synchronous: the very next check must refuse.
  m.Unmap(5);
  EXPECT_FALSE(m.CheckCapability(5 * kPageSize, /*allowed=*/false).has_value());
  EXPECT_TRUE(m.CheckCapability(5 * kPageSize, /*allowed=*/true).has_value());
  // A never-granted page must also be refused.
  EXPECT_FALSE(m.CheckCapability(9 * kPageSize, /*allowed=*/false).has_value());
  EXPECT_TRUE(m.CheckCapability(9 * kPageSize, /*allowed=*/true).has_value());
}

TEST(RefModelTest, CapabilityReleasedPageCountsUse) {
  RefModel m(ProtectionMode::kCapability);
  m.Map(5, 5 * kPageSize);
  m.Release(5);
  // Still granted, so the check passes — but the access lands in released
  // memory and must be matched by a use-after-unmap oracle record.
  EXPECT_FALSE(m.CheckCapability(5 * kPageSize, /*allowed=*/true).has_value());
  EXPECT_EQ(m.predicted_use_after_unmap(), 1u);
}

TEST(RefModelTest, StalePtcacheIsAlwaysADivergence) {
  RefModel m(ProtectionMode::kFastSafe);
  m.Map(5, 0x4000);
  TranslationResult r = CleanSuccess(0x4000);
  r.stale_use = true;
  r.stale_ptcache = true;
  EXPECT_TRUE(m.CheckTranslation(5 * kPageSize, r).has_value());
}

// ---------------------------------------------------------------------------
// Lockstep agreement across the full mode x allocator matrix.

struct MatrixParam {
  ProtectionMode mode;
  bool rcache;
};

class DiffMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(DiffMatrixTest, RealStackAgreesWithModel) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    DiffConfig config;
    config.mode = GetParam().mode;
    config.enable_rcache = GetParam().rcache;
    config.seed = seed;
    config.num_ops = 500;
    const std::vector<DiffOp> ops = DifferentialHarness::GenerateOps(config);
    const DiffResult result = DifferentialHarness::Run(config, ops);
    EXPECT_FALSE(result.diverged) << "seed " << seed << ": " << result.message;
    EXPECT_EQ(result.ops_executed, ops.size());
  }
}

std::vector<MatrixParam> AllMatrixParams() {
  std::vector<MatrixParam> params;
  for (ProtectionMode mode : kAllModes) {
    params.push_back({mode, true});
    params.push_back({mode, false});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllModes, DiffMatrixTest, ::testing::ValuesIn(AllMatrixParams()),
                         [](const ::testing::TestParamInfo<MatrixParam>& info) {
                           return test::ModeTestName(info.param.mode) +
                                  (info.param.rcache ? "_rcache" : "_treeonly");
                         });

// Hugepage chunks (512 pages) exercise the huge-mapping and table-reclaim
// paths; run the strictly-safe tearing modes over them too.
TEST(DiffHarnessTest, HugeChunksAgreeInStrictlySafeModes) {
  for (ProtectionMode mode : test::kStrictlySafeTearingModes) {
    DiffConfig config;
    config.mode = mode;
    config.seed = 11;
    config.num_ops = 400;
    config.pages_per_chunk = 512;
    const std::vector<DiffOp> ops = DifferentialHarness::GenerateOps(config);
    const DiffResult result = DifferentialHarness::Run(config, ops);
    EXPECT_FALSE(result.diverged) << ProtectionModeName(mode) << ": " << result.message;
  }
}

TEST(DiffHarnessTest, GenerateOpsIsDeterministic) {
  DiffConfig config;
  config.seed = 42;
  config.num_ops = 200;
  const std::vector<DiffOp> a = DifferentialHarness::GenerateOps(config);
  const std::vector<DiffOp> b = DifferentialHarness::GenerateOps(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].core, b[i].core);
    EXPECT_EQ(a[i].arg, b[i].arg);
  }
  config.seed = 43;
  const std::vector<DiffOp> c = DifferentialHarness::GenerateOps(config);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size() && !any_different; ++i) {
    any_different = a[i].arg != c[i].arg;
  }
  EXPECT_TRUE(any_different);
}

// Same seed, same plan, same everything: two in-process runs agree on every
// DiffResult field (defaulted operator==), under every named fault plan.
TEST(DiffHarnessTest, SameSeedRunsAreIdenticalUnderEveryFaultPlan) {
  for (const FaultPlan& plan : NamedFaultPlans(0)) {
    for (ProtectionMode mode : kAllModes) {
      DiffConfig config;
      config.mode = mode;
      config.seed = 7;
      config.num_ops = 600;
      config.fault_plan = plan.name;
      const std::vector<DiffOp> ops = DifferentialHarness::GenerateOps(config);
      const DiffResult first = DifferentialHarness::Run(config, ops);
      const DiffResult second = DifferentialHarness::Run(config, ops);
      EXPECT_FALSE(first.diverged) << plan.name << " / " << ModeToken(mode) << ": "
                                   << first.message;
      EXPECT_TRUE(first == second) << plan.name << " / " << ModeToken(mode);
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle power: every injected bug is caught, shrinks to <= 20 ops, and the
// serialized repro replays to the same class of divergence.

void ExpectBugCaughtAndShrinkable(const DiffConfig& config) {
  const std::vector<DiffOp> ops = DifferentialHarness::GenerateOps(config);
  const DiffResult result = DifferentialHarness::Run(config, ops);
  ASSERT_TRUE(result.diverged) << "bug " << InjectedBugName(config.bug) << " not detected in "
                               << ModeToken(config.mode);
  DifferentialHarness::ShrinkOutcome shrunk = DifferentialHarness::Shrink(config, ops, result);
  EXPECT_LE(shrunk.ops.size(), 20u) << "repro did not shrink: " << shrunk.result.message;
  EXPECT_TRUE(shrunk.result.diverged);

  // Serialize -> Parse -> Run must reproduce.
  const std::string text = DifferentialHarness::Serialize(config, shrunk.ops);
  DiffConfig parsed;
  std::vector<DiffOp> parsed_ops;
  std::string error;
  ASSERT_TRUE(DifferentialHarness::Parse(text, &parsed, &parsed_ops, &error)) << error;
  EXPECT_EQ(parsed.mode, config.mode);
  EXPECT_EQ(parsed.bug, config.bug);
  EXPECT_EQ(parsed_ops.size(), shrunk.ops.size());
  const DiffResult replay = DifferentialHarness::Run(parsed, parsed_ops);
  EXPECT_TRUE(replay.diverged) << "shrunken repro did not replay";
}

TEST(BugDetectionTest, UseAfterUnmapIsCaughtInEveryTearingMode) {
  for (ProtectionMode mode : test::kStrictlySafeTearingModes) {
    DiffConfig config;
    config.mode = mode;
    config.seed = 3;
    config.num_ops = 600;
    config.bug = InjectedBug::kUseAfterUnmap;
    ExpectBugCaughtAndShrinkable(config);
  }
}

TEST(BugDetectionTest, SkipInvalidationIsCaught) {
  DiffConfig config;
  config.mode = ProtectionMode::kStrict;
  config.seed = 3;
  config.num_ops = 800;
  config.bug = InjectedBug::kSkipInvalidation;
  ExpectBugCaughtAndShrinkable(config);
}

TEST(BugDetectionTest, EarlyReclaimIsCaught) {
  DiffConfig config;
  config.mode = ProtectionMode::kFastSafe;
  config.seed = 3;
  config.num_ops = 1200;
  config.pages_per_chunk = 512;  // hugepage chunks so table pages reclaim
  config.enable_rcache = true;   // LIFO reuse re-walks the reclaimed path
  config.bug = InjectedBug::kEarlyReclaim;
  ExpectBugCaughtAndShrinkable(config);
}

TEST(BugDetectionTest, SkipCapabilityCheckIsCaught) {
  DiffConfig config;
  config.mode = ProtectionMode::kCapability;
  config.seed = 3;
  config.num_ops = 600;
  config.bug = InjectedBug::kSkipCapabilityCheck;
  ExpectBugCaughtAndShrinkable(config);
}

// ---------------------------------------------------------------------------
// Repro file format.

TEST(ReproFormatTest, RoundTripPreservesEverything) {
  DiffConfig config;
  config.mode = ProtectionMode::kStrictContig;
  config.enable_rcache = false;
  config.seed = 99;
  config.pages_per_chunk = 32;
  config.num_cores = 2;
  config.bug = InjectedBug::kSkipInvalidation;
  config.fault_plan = "completion-chaos";
  std::vector<DiffOp> ops = {{OpKind::kMapRx, 0, 7}, {OpKind::kDmaLive, 1, 123456789},
                             {OpKind::kUnmap, 1, 42}, {OpKind::kDmaRetired, 0, 5}};
  const std::string text = DifferentialHarness::Serialize(config, ops);
  DiffConfig parsed;
  std::vector<DiffOp> parsed_ops;
  std::string error;
  ASSERT_TRUE(DifferentialHarness::Parse(text, &parsed, &parsed_ops, &error)) << error;
  EXPECT_EQ(parsed.mode, config.mode);
  EXPECT_EQ(parsed.enable_rcache, config.enable_rcache);
  EXPECT_EQ(parsed.seed, config.seed);
  EXPECT_EQ(parsed.pages_per_chunk, config.pages_per_chunk);
  EXPECT_EQ(parsed.num_cores, config.num_cores);
  EXPECT_EQ(parsed.bug, config.bug);
  EXPECT_EQ(parsed.fault_plan, config.fault_plan);
  ASSERT_EQ(parsed_ops.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(parsed_ops[i].kind, ops[i].kind);
    EXPECT_EQ(parsed_ops[i].core, ops[i].core);
    EXPECT_EQ(parsed_ops[i].arg, ops[i].arg);
  }
}

// Fault-free repros carry no fault_plan line, so they stay byte-identical
// to the format written before fault plans existed.
TEST(ReproFormatTest, BaselineReproHasNoFaultPlanLine) {
  DiffConfig config;
  const std::string text = DifferentialHarness::Serialize(config, {{OpKind::kMapRx, 0, 1}});
  EXPECT_EQ(text.find("fault_plan"), std::string::npos) << text;
  config.fault_plan = "delayed-flush";
  EXPECT_NE(DifferentialHarness::Serialize(config, {}).find("fault_plan delayed-flush\n"),
            std::string::npos);
}

TEST(ReproFormatTest, RejectsMalformedInput) {
  DiffConfig config;
  std::vector<DiffOp> ops;
  std::string error;
  EXPECT_FALSE(DifferentialHarness::Parse("", &config, &ops, &error));
  EXPECT_FALSE(DifferentialHarness::Parse("bogus header\n", &config, &ops, &error));
  EXPECT_FALSE(DifferentialHarness::Parse(
      "fsio-diff-repro v1\nmode warp-speed\nend\n", &config, &ops, &error));
  EXPECT_FALSE(DifferentialHarness::Parse(
      "fsio-diff-repro v1\nops 2\nop 0 0 1\nend\n", &config, &ops, &error));
  EXPECT_FALSE(DifferentialHarness::Parse(
      "fsio-diff-repro v1\nops 0\n", &config, &ops, &error));  // missing end
  EXPECT_FALSE(DifferentialHarness::Parse(
      "fsio-diff-repro v1\nop 9 0 1\nops 1\nend\n", &config, &ops, &error));
  EXPECT_FALSE(DifferentialHarness::Parse(
      "fsio-diff-repro v1\nfault_plan use-after-release\nops 0\nend\n", &config, &ops,
      &error));
}

// ---------------------------------------------------------------------------
// ShrinkSequence edge cases, exercised with a synthetic harness so the
// minimizer's own boundary behavior is pinned independently of any replay
// machinery: a candidate "fails" iff it still contains every needed element.

struct SynthResult {
  bool failed = false;
};

struct SynthHarness {
  std::vector<int> needed;

  SynthResult Run(const std::vector<int>& candidate) const {
    for (int n : needed) {
      bool found = false;
      for (int c : candidate) {
        if (c == n) {
          found = true;
          break;
        }
      }
      if (!found) {
        return SynthResult{false};
      }
    }
    return SynthResult{true};
  }

  ShrunkSequence<int, SynthResult> Shrink(std::vector<int> ops,
                                          std::size_t fail_index) const {
    return ShrinkSequence<int, SynthResult>(
        std::move(ops), fail_index, SynthResult{true},
        [this](const std::vector<int>& candidate) { return Run(candidate); },
        [](const SynthResult& r) { return r.failed; });
  }
};

TEST(ShrinkEdgeTest, DivergenceAtOpZero) {
  // The very first op already fails: everything after it must be discarded
  // up front and the result is the single-op sequence.
  const SynthHarness harness{{7}};
  const auto shrunk = harness.Shrink({7, 1, 2, 3, 4}, 0);
  ASSERT_EQ(shrunk.ops.size(), 1u);
  EXPECT_EQ(shrunk.ops[0], 7);
  EXPECT_TRUE(shrunk.result.failed);
}

TEST(ShrinkEdgeTest, SingleOpSequenceIsStable) {
  // A one-op failing sequence must survive shrinking untouched (the ddmin
  // chunk loop starts at size/2 == 0 and must not underflow or drop the op).
  const SynthHarness harness{{3}};
  const auto shrunk = harness.Shrink({3}, 0);
  ASSERT_EQ(shrunk.ops.size(), 1u);
  EXPECT_EQ(shrunk.ops[0], 3);
}

TEST(ShrinkEdgeTest, AlreadyMinimalSequenceIsUnchanged) {
  // Every op is needed: shrinking must return the same ops in the same
  // order, proving removal never reorders and the fixpoint terminates.
  const SynthHarness harness{{1, 2, 3}};
  const auto shrunk = harness.Shrink({1, 2, 3}, 2);
  ASSERT_EQ(shrunk.ops.size(), 3u);
  EXPECT_EQ(shrunk.ops[0], 1);
  EXPECT_EQ(shrunk.ops[1], 2);
  EXPECT_EQ(shrunk.ops[2], 3);
}

TEST(ShrinkEdgeTest, DdminChunkBoundaries) {
  // Non-power-of-two length with the needed ops pinned at the first and last
  // positions: the chunked removal windows (which clamp at the tail rather
  // than wrap) must still strip all eleven fillers and keep order.
  std::vector<int> ops = {100, 0, 0, 0, 0, 0, 200, 0, 0, 0, 0, 0, 300};
  const SynthHarness harness{{100, 200, 300}};
  const auto shrunk = harness.Shrink(std::move(ops), 12);
  ASSERT_EQ(shrunk.ops.size(), 3u);
  EXPECT_EQ(shrunk.ops[0], 100);
  EXPECT_EQ(shrunk.ops[1], 200);
  EXPECT_EQ(shrunk.ops[2], 300);
  EXPECT_GT(shrunk.runs, 0u);
}

TEST(ShrinkEdgeTest, FailIndexTruncatesTail) {
  // Ops after the failing index are irrelevant by construction and must be
  // dropped before any replays are spent on them.
  const SynthHarness harness{{5}};
  const auto shrunk = harness.Shrink({5, 9, 9, 9, 9, 9, 9, 9}, 0);
  ASSERT_EQ(shrunk.ops.size(), 1u);
  EXPECT_EQ(shrunk.ops[0], 5);
  // Binary search over a 1-op prefix is free and ddmin needs one pass over
  // one op: far fewer runs than the 7 discarded tail ops would have cost.
  EXPECT_LE(shrunk.runs, 4u);
}

}  // namespace
}  // namespace fsio
