// Workloads of the simulator-speed benchmark (bench/perf/README.md).
//
// A workload is a fixed traffic shape; the seed only chooses its generated
// inputs: flow -> core placement, flow start offsets and the RPC size mix.
// Placement is balanced (every core gets the same number of flows) and RPC
// sizes are stratified over [256 B, 2 KB] and dealt evenly across cores, so
// seeds reshuffle the inputs without changing how much work a run does.
// The flow or pair count must be a multiple of the core count.
#ifndef FASTSAFE_BENCH_PERF_WORKLOADS_H_
#define FASTSAFE_BENCH_PERF_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/request_response.h"
#include "src/core/testbed.h"

namespace fsio {
namespace perf {

struct WorkloadSpec {
  std::string name;
  ProtectionMode mode = ProtectionMode::kStrict;
  std::uint32_t cores = 5;
  std::uint32_t flows = 0;  // bulk flows, or RPC pairs when `rpc`
  bool rpc = false;
};

// Known workloads; returns false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

// One generated flow (bulk) or RPC pair.
struct FlowInput {
  std::uint32_t core = 0;     // same core on both hosts (aRFS-style pinning)
  TimeNs start_ns = 0;        // when the flow or pair starts sending
  std::uint64_t rpc_bytes = 0;  // request == response size; 0 for bulk
};

std::vector<FlowInput> MakeInputs(const WorkloadSpec& spec, std::uint64_t seed);

// FNV-1a digest of the generated inputs (printed with the seed).
std::uint64_t DigestInputs(const std::vector<FlowInput>& inputs);

// Simulated time every instance runs before anything is measured.
inline constexpr TimeNs kWarmupNs = 10 * kNsPerMs;

// One built and warmed-up simulation of a workload.
class Instance {
 public:
  // Builds the testbed, starts every flow at its offset and runs the warmup.
  Instance(const WorkloadSpec& spec, const std::vector<FlowInput>& inputs);

  Testbed& testbed() { return *testbed_; }
  std::vector<std::unique_ptr<RequestResponseApp>>& apps() { return apps_; }

 private:
  std::unique_ptr<Testbed> testbed_;
  std::vector<std::unique_ptr<RequestResponseApp>> apps_;
};

}  // namespace perf
}  // namespace fsio

#endif  // FASTSAFE_BENCH_PERF_WORKLOADS_H_
