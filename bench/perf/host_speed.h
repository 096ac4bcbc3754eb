// Host-speed reference of the simulator-speed benchmark.
//
// On a shared machine the host time of the same simulation moves by up to
// 2x from run to run, with the load other tenants put on the memory system.
// The reference is a fixed loop that does not use the simulator: random
// updates to a 128 MB table, most of which miss the last-level cache, then
// to its first 256 KB, which stays in the core's own caches, each followed
// by a push and a pop on a 4096-entry binary heap, like an event queue.
// Timed among the measured spans, its host time moves with the host's speed
// for code like the simulator's, and the benchmark divides it out
// (README.md, "Host speed").
//
// The loop runs in a helper process, so its table does not count in the
// measured process's peak RSS. The helper only runs while the measured
// process waits for it, so the two never compete for the host.
#ifndef FASTSAFE_BENCH_PERF_HOST_SPEED_H_
#define FASTSAFE_BENCH_PERF_HOST_SPEED_H_

#include <sys/types.h>

namespace fsio {
namespace perf {

// About the reference loop's fastest host time seen on a 4-core x86 VM, in
// ms. The reference-speed metrics are rescaled to it so that they read like
// host times on a quiet host of that kind. It is a fixed constant, never
// measured at run time.
inline constexpr double kRefNominalMs = 2.0;

class HostSpeedRef {
 public:
  HostSpeedRef() = default;
  HostSpeedRef(const HostSpeedRef&) = delete;
  HostSpeedRef& operator=(const HostSpeedRef&) = delete;
  // Stops the helper and waits for it to exit.
  ~HostSpeedRef();

  // Starts the helper, which builds its table. Returns false on failure.
  bool Start();

  // Runs the reference loop once in the helper and returns its host ms,
  // or a negative value if the helper is gone.
  double RunMs();

 private:
  pid_t pid_ = -1;
  int fd_ = -1;  // this side of a socket pair with the helper
};

}  // namespace perf
}  // namespace fsio

#endif  // FASTSAFE_BENCH_PERF_HOST_SPEED_H_
