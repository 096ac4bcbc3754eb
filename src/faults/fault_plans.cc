#include "src/faults/fault_plans.h"

#include <string>
#include <utility>

namespace fsio {
namespace {

FaultSpec Spec(FaultKind kind, double probability, TimeNs magnitude_ns = 1000) {
  FaultSpec spec;
  spec.kind = kind;
  spec.probability = probability;
  spec.magnitude_ns = magnitude_ns;
  return spec;
}

}  // namespace

std::vector<FaultPlan> NamedFaultPlans(std::uint64_t seed) {
  std::vector<FaultPlan> plans;
  auto plan = [&](const char* name) -> FaultPlan& {
    plans.push_back(FaultPlan{name, seed, {}});
    return plans.back();
  };

  plan(kBaselinePlan.data());

  // The first six invalidation requests are dropped outright (forcing the
  // full retry ladder including the global-flush fallback); later ones are
  // dropped with p=0.2 or stalled past the driver's 50 us wait deadline.
  FaultSpec drop_burst = Spec(FaultKind::kInvalidationDrop, 1.0);
  drop_burst.op_end = 6;
  FaultSpec drop_tail = Spec(FaultKind::kInvalidationDrop, 0.2);
  drop_tail.op_start = 6;
  plan("inv-stall-drop")
      .Add(drop_burst)
      .Add(drop_tail)
      .Add(Spec(FaultKind::kInvalidationStall, 0.3, 120'000));

  // Translation-path slowdowns: latency only, never a correctness hazard.
  plan("walker-backpressure")
      .Add(Spec(FaultKind::kWalkerLatencySpike, 0.2, 3'000))
      .Add(Spec(FaultKind::kRootComplexBackpressure, 0.1, 5'000));

  // Transient allocator failures early in the run; the driver's retry
  // helpers (IOVA) and the caller (frames) must mask them.
  FaultSpec iova_fail = Spec(FaultKind::kIovaExhaustion, 0.4);
  iova_fail.op_end = 400;
  FaultSpec frame_fail = Spec(FaultKind::kFrameAllocFailure, 0.3);
  frame_fail.op_end = 400;
  plan("alloc-pressure").Add(iova_fail).Add(frame_fail);

  // Misbehaving device: duplicate and late descriptor completions. The
  // driver must detect the induced double-unmaps instead of corrupting its
  // accounting.
  plan("completion-chaos")
      .Add(Spec(FaultKind::kDescCompletionDuplicate, 0.25))
      .Add(Spec(FaultKind::kDescCompletionReorder, 0.25, 2'000));

  // Deferred-mode flush timer starved: every flush-queue drain is
  // postponed until the queue hits the driver's 4x-threshold hard cap,
  // stretching every queued IOVA's use-after-unmap window.
  plan("delayed-flush").Add(Spec(FaultKind::kDeferredFlushDelay, 1.0));

  return plans;
}

bool FindFaultPlan(std::string_view name, std::uint64_t seed, FaultPlan* plan) {
  for (FaultPlan& p : NamedFaultPlans(seed)) {
    if (p.name == name) {
      *plan = std::move(p);
      return true;
    }
  }
  return false;
}

}  // namespace fsio
