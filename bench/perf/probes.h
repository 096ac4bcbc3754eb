// Host-cost probes: the host time one call into each simulator layer takes.
//
// Each probe builds a standalone instance of one layer (EventQueue,
// RootComplex with no IOMMU, MemorySystem, SetAssocCache, Iommu,
// IoPageTable, IovaAllocator, DmaApi), drives it with a seeded call stream
// whose mix (sizes, hit/miss share, invalidation share, Rx/Tx share) is taken
// from the measured host's counters, and reports the median host ns per
// call over several repetitions. Probes that nest other layers (a translate
// includes its cache lookups and walk reads; a DMA includes its memory
// accesses; a map/unmap includes page table, allocator and invalidation)
// are inclusive of them.
#ifndef FASTSAFE_BENCH_PERF_PROBES_H_
#define FASTSAFE_BENCH_PERF_PROBES_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/perf/workloads.h"

namespace fsio {
namespace perf {

using Counters = std::map<std::string, std::uint64_t>;

// What the probes take from the measured span.
struct ProbeInputs {
  Counters host;            // the measured host's counter deltas
  TimeNs span_ns = 0;       // simulated length of the measured span
  std::uint64_t events = 0;  // events the whole simulation executed in it
  std::size_t pending_events = 0;  // events pending at its end
};

// Runs every probe; returns (metric name, host ns per call) pairs.
std::vector<std::pair<std::string, double>> RunProbes(const WorkloadSpec& spec,
                                                      const ProbeInputs& in,
                                                      std::uint64_t seed);

}  // namespace perf
}  // namespace fsio

#endif  // FASTSAFE_BENCH_PERF_PROBES_H_
