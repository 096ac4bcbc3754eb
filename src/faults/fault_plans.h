// Named fault plans: the one table of environment-fault scenarios a seeded
// safety run is built with (DiffConfig::fault_plan, fsio_diff --fault-plan).
//
//   baseline             no faults
//   inv-stall-drop       lost and stalled invalidation-queue requests
//   walker-backpressure  walker latency spikes and root-complex stalls
//   alloc-pressure       transient IOVA and frame allocation failures
//   completion-chaos     duplicate and late descriptor completions
//   delayed-flush        the deferred-mode flush postponed past threshold
//
// Every plan carries the caller's seed, so a (plan, seed) pair names one
// fault sequence.
#ifndef FASTSAFE_SRC_FAULTS_FAULT_PLANS_H_
#define FASTSAFE_SRC_FAULTS_FAULT_PLANS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/faults/fault_injector.h"

namespace fsio {

inline constexpr std::string_view kBaselinePlan = "baseline";

// Every named plan seeded with `seed`, in table order (baseline first).
std::vector<FaultPlan> NamedFaultPlans(std::uint64_t seed);

// Looks `name` up in the table; false (and *plan untouched) when unknown.
bool FindFaultPlan(std::string_view name, std::uint64_t seed, FaultPlan* plan);

}  // namespace fsio

#endif  // FASTSAFE_SRC_FAULTS_FAULT_PLANS_H_
