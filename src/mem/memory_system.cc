#include "src/mem/memory_system.h"

#include <stdexcept>
#include <vector>

namespace fsio {

namespace {
const MemoryConfig& Validated(const MemoryConfig& config) {
  if (config.parallel_banks == 0) {
    throw std::invalid_argument("MemorySystem: parallel_banks must be >= 1");
  }
  if (!(config.bandwidth_gbps > 0.0)) {
    throw std::invalid_argument("MemorySystem: bandwidth_gbps must be > 0");
  }
  return config;
}
}  // namespace

MemorySystem::MemorySystem(const MemoryConfig& config, StatsRegistry* stats)
    : config_(Validated(config)),
      per_bank_bw_(GbpsToBytesPerNs(config.bandwidth_gbps) /
                   static_cast<double>(config.parallel_banks)),
      bank_free_(config.parallel_banks, 0),
      occupancy_by_bytes_(kPageSize + 1, 0),
      accesses_(stats->Get("mem.accesses")),
      queued_ns_(stats->Get("mem.queued_ns")) {}

TimeNs MemorySystem::ComputeOccupancy(std::uint64_t bytes) {
  // Each bank serves one access at a time; occupancy is the transfer time of
  // the access's bytes at the per-bank share of total bandwidth.
  auto occupancy = static_cast<TimeNs>(static_cast<double>(bytes) / per_bank_bw_);
  if (occupancy == 0) {
    occupancy = 1;
  }
  if (bytes < occupancy_by_bytes_.size()) {
    occupancy_by_bytes_[bytes] = occupancy;
  }
  return occupancy;
}

TimeNs MemorySystem::ReadWalkSequence(TimeNs start, int reads, TimeNs step_overhead_ns,
                                      std::uint64_t bytes_per_read) {
  if (reads <= 0) {
    return start;
  }
  // Every read in the sequence moves the same byte count, so the occupancy
  // lookup hoists out of the loop; the bank choice and queueing charge
  // stay per-read, bit-for-bit what the old per-PTE Read() calls produced.
  std::uint64_t bytes = bytes_per_read;
  if (bytes < kCachelineSize) {
    bytes = kCachelineSize;
  }
  const TimeNs occupancy = Occupancy(bytes);
  total_bytes_ += bytes * static_cast<std::uint64_t>(reads);
  accesses_->Add(static_cast<std::uint64_t>(reads));
  TimeNs t = start;
  for (int i = 0; i < reads; ++i) {
    t = Grant(t + step_overhead_ns, occupancy) + config_.access_latency_ns;
  }
  return t;
}

}  // namespace fsio
