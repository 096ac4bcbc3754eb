#include "bench/perf/workloads.h"

#include <utility>

#include "src/apps/rpc.h"
#include "src/simcore/rng.h"

namespace fsio {
namespace perf {
namespace {

// Flows and pairs start within this span, so the first slices of warmup do
// not see every sender's initial window at once.
constexpr TimeNs kMaxStartOffsetNs = 50'000;
constexpr std::uint64_t kMinRpcBytes = 256;
constexpr std::uint64_t kMaxRpcBytes = 2048;

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBelow(i)]);
  }
}

void Fnv(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  // bulk_strict is Fig. 2's heaviest point; bulk_fastsafe runs the same
  // traffic through the F&S datapath; rpc_small is per-packet dominated.
  static const WorkloadSpec kWorkloads[] = {
      {"bulk_strict", ProtectionMode::kStrict, 5, 40, false},
      {"bulk_fastsafe", ProtectionMode::kFastSafe, 5, 40, false},
      {"rpc_small", ProtectionMode::kStrict, 4, 64, true},
  };
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::vector<FlowInput> MakeInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowInput> inputs(spec.flows);
  std::vector<std::uint32_t> cores(spec.flows);
  for (std::uint32_t i = 0; i < spec.flows; ++i) {
    cores[i] = i % spec.cores;
  }
  Shuffle(&cores, &rng);
  for (std::uint32_t i = 0; i < spec.flows; ++i) {
    inputs[i].core = cores[i];
    inputs[i].start_ns = static_cast<TimeNs>(rng.NextBelow(kMaxStartOffsetNs));
  }
  if (spec.rpc) {
    // Stratified sizes: one draw from each of `flows` equal slices of the
    // size range. Each run of `cores` consecutive slices is dealt one to a
    // core in shuffled order, so every core serves the same size mix (the
    // server cores are the bottleneck; an unlucky core would set the pace).
    std::vector<std::vector<std::uint32_t>> pairs_of_core(spec.cores);
    for (std::uint32_t i = 0; i < spec.flows; ++i) {
      pairs_of_core[cores[i]].push_back(i);
    }
    const double slice = static_cast<double>(kMaxRpcBytes - kMinRpcBytes) / spec.flows;
    std::vector<std::uint32_t> deal(spec.cores);
    for (std::uint32_t group = 0; group < spec.flows / spec.cores; ++group) {
      for (std::uint32_t c = 0; c < spec.cores; ++c) {
        deal[c] = c;
      }
      Shuffle(&deal, &rng);
      for (std::uint32_t k = 0; k < spec.cores; ++k) {
        const std::uint32_t stratum = group * spec.cores + k;
        inputs[pairs_of_core[deal[k]][group]].rpc_bytes =
            kMinRpcBytes + static_cast<std::uint64_t>((stratum + rng.NextDouble()) * slice);
      }
    }
  }
  return inputs;
}

std::uint64_t DigestInputs(const std::vector<FlowInput>& inputs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const FlowInput& in : inputs) {
    Fnv(&h, in.core);
    Fnv(&h, in.start_ns);
    Fnv(&h, in.rpc_bytes);
  }
  return h;
}

Instance::Instance(const WorkloadSpec& spec, const std::vector<FlowInput>& inputs) {
  TestbedConfig config;
  config.mode = spec.mode;
  config.cores = spec.cores;
  config.ring_size_pkts = 256;
  config.mtu_bytes = 4096;
  testbed_ = std::make_unique<Testbed>(config);
  EventQueue& ev = testbed_->ev();
  for (const FlowInput& in : inputs) {
    if (spec.rpc) {
      RequestResponseConfig app_config = NetperfRpcConfig(in.rpc_bytes, in.core);
      apps_.push_back(std::make_unique<RequestResponseApp>(testbed_.get(), app_config));
      RequestResponseApp* app = apps_.back().get();
      ev.ScheduleAt(in.start_ns, [app] { app->Start(); });
    } else {
      DctcpSender* sender = testbed_->AddFlow(0, 1, in.core, in.core);
      ev.ScheduleAt(in.start_ns, [sender] { sender->EnqueueAppBytes(1ULL << 62); });
    }
  }
  testbed_->RunUntil(kWarmupNs);
}

}  // namespace perf
}  // namespace fsio
