// Host memory model: fixed DRAM access latency plus a shared-bus bandwidth
// constraint.
//
// The IOMMU's page-table walks, the root complex's payload writes (Rx) and
// reads (Tx), and host-stack copies all contend here. Each access occupies
// the bus for bytes/bandwidth and completes base-latency after its bus grant,
// so light contention leaves latency near the DRAM floor (~90 ns) while
// saturating traffic inflates it — matching the effective lm the paper fits.
#ifndef FASTSAFE_SRC_MEM_MEMORY_SYSTEM_H_
#define FASTSAFE_SRC_MEM_MEMORY_SYSTEM_H_

#include <cstdint>
#include <vector>

#include "src/mem/address.h"
#include "src/simcore/time.h"
#include "src/stats/counters.h"

namespace fsio {

struct MemoryConfig {
  TimeNs access_latency_ns = 90;      // row-hit DRAM access latency
  double bandwidth_gbps = 375.0;      // 46.9 GB/s ≈ 375 Gbit/s (2 channels DDR4)
  std::uint32_t parallel_banks = 8;   // independent bank groups
};

class MemorySystem {
 public:
  // Throws std::invalid_argument when `parallel_banks` is 0 or
  // `bandwidth_gbps` is not positive.
  explicit MemorySystem(const MemoryConfig& config, StatsRegistry* stats);

  // Issues a read of `bytes` at time `start`; returns the completion time.
  // Reads shorter than a cacheline still transfer a full cacheline.
  TimeNs Read(TimeNs start, std::uint64_t bytes) { return Access(start, bytes); }

  // Issues a write of `bytes` at time `start`; returns the completion time.
  TimeNs Write(TimeNs start, std::uint64_t bytes) { return Access(start, bytes); }

  // Page-walk batch: `reads` dependent reads of `bytes_per_read` each, the
  // i-th issued `step_overhead_ns` after the (i-1)-th completes. One grouped
  // call replaces the walker's per-PTE Read() loop; timing, byte accounting
  // and the mem.accesses / mem.queued_ns counters are identical to issuing
  // the reads individually. Returns the completion time of the last read
  // (== `start` when `reads` is zero).
  TimeNs ReadWalkSequence(TimeNs start, int reads, TimeNs step_overhead_ns,
                          std::uint64_t bytes_per_read);

  // Posted write: consumes bank bandwidth (affecting later accesses' queueing)
  // but the caller does not wait for it. Used for pipelined payload commits.
  void Post(TimeNs start, std::uint64_t bytes) { Access(start, bytes); }

  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  // One access: every datapath TLP makes one, so the hot path is inline.
  TimeNs Access(TimeNs start, std::uint64_t bytes) {
    if (bytes < kCachelineSize) {
      bytes = kCachelineSize;
    }
    total_bytes_ += bytes;
    accesses_->Add();
    return Grant(start, Occupancy(bytes)) + config_.access_latency_ns;
  }

  // Bank occupancy of an access moving `bytes` (already rounded up to a
  // cacheline): bytes at the per-bank share of bandwidth, at least 1 ns.
  TimeNs Occupancy(std::uint64_t bytes) {
    if (bytes < occupancy_by_bytes_.size() && occupancy_by_bytes_[bytes] != 0) {
      return occupancy_by_bytes_[bytes];
    }
    return ComputeOccupancy(bytes);
  }
  // Computes Occupancy(bytes), memoizing it for bytes <= kPageSize.
  TimeNs ComputeOccupancy(std::uint64_t bytes);

  // Grants the earliest-free bank (lowest index on ties) to an access
  // issued at `issue` for `occupancy`; returns the grant time. Accesses
  // pick the earliest-free bank (an open-bank scheduler would do no
  // worse), so queueing appears only when aggregate demand approaches the
  // pin rate. The scan selects with conditional moves, not branches.
  TimeNs Grant(TimeNs issue, TimeNs occupancy) {
    std::size_t best = 0;
    TimeNs best_free = bank_free_[0];
    for (std::size_t i = 1; i < bank_free_.size(); ++i) {
      const bool earlier = bank_free_[i] < best_free;
      best = earlier ? i : best;
      best_free = earlier ? bank_free_[i] : best_free;
    }
    const TimeNs grant = best_free > issue ? best_free : issue;
    if (grant > issue) {
      queued_ns_->Add(grant - issue);
    }
    bank_free_[best] = grant + occupancy;
    return grant;
  }

  MemoryConfig config_;
  double per_bank_bw_;
  // Earliest time each bank is free; round-robin assignment approximates
  // bank-level parallelism without tracking physical addresses.
  std::vector<TimeNs> bank_free_;
  // Occupancy(bytes) for bytes <= kPageSize, filled on first use (0 = not
  // yet computed; every occupancy is >= 1).
  std::vector<TimeNs> occupancy_by_bytes_;
  std::uint64_t total_bytes_ = 0;
  Counter* accesses_;
  Counter* queued_ns_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_MEM_MEMORY_SYSTEM_H_
