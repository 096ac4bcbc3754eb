// perf_sim: one measured simulator run of the simulator-speed benchmark.
//
// Usage:
//   perf_sim --workload NAME --seed N --sim-ms N [--trace 0|1]
//
// Untraced (--trace 0): builds and warms the workload kSetups times, timing
// each build (setup time), then runs the last build for N simulated ms in
// 1 ms slices, timing each slice with the host's steady clock. The host-
// speed reference loop (host_speed.h) is timed before and after each build
// and every kRefEvery slices, between the timed spans.
// Traced (--trace 1): one build runs untraced and a second one runs with
// the simulator's Tracer attached to a sink that counts events; then the
// per-layer host-cost probes (probes.h) run. Everything runs on this one
// thread.
//
// Prints one JSON object with raw timings, counter deltas and simulated-
// output digests; bench/perf/run.py turns it into metrics and checks it.
#include <sys/resource.h>

#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/perf/host_speed.h"
#include "bench/perf/probes.h"
#include "bench/perf/workloads.h"
#include "src/trace/tracer.h"

namespace fsio {
namespace perf {
namespace {

using Clock = std::chrono::steady_clock;

// Timed builds before an untraced run; setup_s is their median, rescaled to
// reference host speed.
constexpr std::uint64_t kSetups = 9;
// Measured slices between two runs of the host-speed reference loop.
constexpr std::uint64_t kRefEvery = 8;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Counts trace events in place of storing them: a traced bulk run emits
// tens of millions.
class CountingSink : public TraceSink {
 public:
  void Emit(const TraceEvent&) override { ++events_; }
  std::uint64_t events() const { return events_; }

 private:
  std::uint64_t events_ = 0;
};

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    Add(s.size());
  }
  void Add(const Counters& counters) {
    for (const auto& [name, value] : counters) {
      Add(name);
      Add(value);
    }
  }
  std::string Hex() const { return perf::Hex(h_); }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Everything a measured span is judged and reported on. `hosts` holds each
// host's counter deltas; host 1 is the measured (receiving / server) host.
struct Measured {
  double run_s = 0.0;
  std::vector<double> slice_ms;
  std::vector<double> ref_ms;  // host-speed reference loops around the slices
  std::array<Counters, 2> hosts;
  Counters switch_delta;
  std::array<TimeNs, 2> cpu_busy_ns{};
  std::uint64_t events = 0;
  std::uint64_t window_allocations = 0;
  std::size_t arena_growth = 0;  // event records the arena added in the window
  std::size_t pending_events = 0;
  std::uint64_t rpc_requests = 0;
  Histogram rpc_latency;
  std::string digest;
  std::uint64_t trace_events = 0;
};

// Digest of an instance's whole simulated state as the counters see it.
std::string StateDigest(Instance& inst) {
  Digest d;
  Testbed& tb = inst.testbed();
  d.Add(tb.ev().now());
  d.Add(tb.ev().executed());
  for (std::uint32_t h = 0; h < 2; ++h) {
    d.Add(tb.host(h).stats().Snapshot());
    d.Add(tb.host(h).total_cpu_busy_ns());
  }
  d.Add(tb.switch_stats().Snapshot());
  for (const auto& app : inst.apps()) {
    d.Add(app->completed());
    d.Add(app->response_bytes_delivered());
  }
  return d.Hex();
}

// Timed builds of a workload (Testbed construction, app start, warmup) and
// the simulated state each reached. With a reference, `ref_ms` holds one
// reference loop before each build and one after the last.
struct SetupSamples {
  std::vector<double> seconds;
  std::vector<std::string> digests;
  std::vector<double> ref_ms;

  std::unique_ptr<Instance> Build(const WorkloadSpec& spec, const std::vector<FlowInput>& inputs,
                                  HostSpeedRef* ref) {
    if (ref != nullptr) {
      ref_ms.push_back(ref->RunMs());
    }
    const Clock::time_point start = Clock::now();
    auto inst = std::make_unique<Instance>(spec, inputs);
    seconds.push_back(SecondsSince(start));
    digests.push_back(StateDigest(*inst));
    return inst;
  }
};

// Runs `inst` for `sim_ms` 1 ms slices, timing each. With a reference, runs
// the reference loop before the first slice and after every kRefEvery.
Measured Measure(Instance& inst, std::uint64_t sim_ms, Tracer* tracer, CountingSink* sink,
                 HostSpeedRef* ref) {
  Testbed& tb = inst.testbed();
  EventQueue& ev = tb.ev();
  std::array<Counters, 2> before;
  std::array<TimeNs, 2> busy_before{};
  for (std::uint32_t h = 0; h < 2; ++h) {
    before[h] = tb.host(h).stats().Snapshot();
    busy_before[h] = tb.host(h).total_cpu_busy_ns();
  }
  const Counters switch_before = tb.switch_stats().Snapshot();
  std::uint64_t rpc_before = 0;
  for (auto& app : inst.apps()) {
    rpc_before += app->completed();
    app->mutable_latency().Reset();
  }
  const std::uint64_t executed_before = ev.executed();
  const std::uint64_t allocs_before = ev.allocations();
  const std::size_t arena_before = ev.arena_capacity();
  tb.cluster().SetTracer(tracer);

  Measured m;
  m.slice_ms.reserve(sim_ms);
  const TimeNs t0 = ev.now();
  for (std::uint64_t i = 1; i <= sim_ms; ++i) {
    if (ref != nullptr && (i - 1) % kRefEvery == 0) {
      m.ref_ms.push_back(ref->RunMs());
    }
    const Clock::time_point slice_start = Clock::now();
    tb.RunUntil(t0 + static_cast<TimeNs>(i) * kNsPerMs);
    const double seconds = SecondsSince(slice_start);
    m.run_s += seconds;
    m.slice_ms.push_back(seconds * 1e3);
  }
  if (ref != nullptr) {
    m.ref_ms.push_back(ref->RunMs());
  }
  tb.cluster().SetTracer(nullptr);

  m.events = ev.executed() - executed_before;
  m.window_allocations = ev.allocations() - allocs_before;
  m.arena_growth = ev.arena_capacity() - arena_before;
  m.pending_events = ev.pending();
  for (std::uint32_t h = 0; h < 2; ++h) {
    m.hosts[h] = StatsRegistry::Delta(before[h], tb.host(h).stats().Snapshot());
    m.cpu_busy_ns[h] = tb.host(h).total_cpu_busy_ns() - busy_before[h];
  }
  m.switch_delta = StatsRegistry::Delta(switch_before, tb.switch_stats().Snapshot());
  for (auto& app : inst.apps()) {
    m.rpc_requests += app->completed();
    m.rpc_latency.Merge(app->latency());
  }
  m.rpc_requests -= rpc_before;
  if (sink != nullptr) {
    m.trace_events = sink->events();
  }

  Digest d;
  d.Add(m.events);
  d.Add(m.hosts[0]);
  d.Add(m.hosts[1]);
  d.Add(m.switch_delta);
  d.Add(m.cpu_busy_ns[0]);
  d.Add(m.cpu_busy_ns[1]);
  d.Add(m.rpc_requests);
  for (double p : {50.0, 99.0, 99.9, 100.0}) {
    d.Add(m.rpc_latency.Percentile(p));
  }
  m.digest = d.Hex();
  return m;
}

// Minimal JSON emission: keys and strings here are plain identifiers.
class Json {
 public:
  Json& Key(const std::string& k) {
    Sep();
    os_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& Str(const std::string& s) {
    Sep();
    os_ << '"' << s << '"';
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os_ << buf;
    return *this;
  }
  Json& Int(std::uint64_t v) {
    Sep();
    os_ << v;
    return *this;
  }
  Json& Open(char c) {
    Sep();
    os_ << c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    os_ << c;
    fresh_ = false;
    return *this;
  }
  Json& Counters(const perf::Counters& counters) {
    Open('{');
    for (const auto& [name, value] : counters) {
      Key(name).Int(value);
    }
    return Close('}');
  }
  std::string str() const { return os_.str(); }

 private:
  void Sep() {
    if (!fresh_) {
      os_ << ',';
    }
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

void EmitMeasured(Json* j, const Measured& m, bool traced) {
  j->Open('{');
  j->Key("traced").Int(traced ? 1 : 0);
  j->Key("run_s").Num(m.run_s);
  j->Key("slice_ms").Open('[');
  for (double v : m.slice_ms) {
    j->Num(v);
  }
  j->Close(']');
  j->Key("ref_ms").Open('[');
  for (double v : m.ref_ms) {
    j->Num(v);
  }
  j->Close(']');
  j->Key("events").Int(m.events);
  j->Key("window_allocations").Int(m.window_allocations);
  j->Key("arena_growth").Int(m.arena_growth);
  j->Key("pending_events").Int(m.pending_events);
  j->Key("cpu_busy_ns").Open('[').Int(m.cpu_busy_ns[0]).Int(m.cpu_busy_ns[1]).Close(']');
  j->Key("hosts").Open('[').Counters(m.hosts[0]).Counters(m.hosts[1]).Close(']');
  j->Key("switch").Counters(m.switch_delta);
  j->Key("rpc_requests").Int(m.rpc_requests);
  j->Key("rpc_latency_ns").Open('{');
  j->Key("p50").Int(m.rpc_latency.Percentile(50.0));
  j->Key("p99.9").Int(m.rpc_latency.Percentile(99.9));
  j->Key("max").Int(m.rpc_latency.max());
  j->Close('}');
  j->Key("digest").Str(m.digest);
  if (traced) {
    j->Key("trace_events").Int(m.trace_events);
  }
  j->Close('}');
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

bool ParseU64(const std::string& text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && !text.empty();
}

int Usage(const std::string& why) {
  std::cerr << "perf_sim: " << why << "\n"
            << "usage: perf_sim --workload NAME --seed N --sim-ms N [--trace 0|1]\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t sim_ms = 0;
  std::uint64_t trace = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ok = ParseU64(value, &seed);
      have_seed = ok;
    } else if (flag == "--sim-ms") {
      ok = ParseU64(value, &sim_ms) && sim_ms >= 1 && sim_ms <= 100'000;
    } else if (flag == "--trace") {
      ok = ParseU64(value, &trace) && trace <= 1;
    } else {
      return Usage("unknown flag " + flag);
    }
    if (!ok) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  WorkloadSpec spec;
  if (!FindWorkload(workload, &spec)) {
    return Usage("unknown workload '" + workload + "'");
  }
  if (!have_seed || sim_ms == 0) {
    return Usage("--seed and --sim-ms are required");
  }

  const std::vector<FlowInput> inputs = MakeInputs(spec, seed);
  Json j;
  j.Open('{');
  j.Key("workload").Str(spec.name);
  j.Key("seed").Int(seed);
  j.Key("sim_ms").Int(sim_ms);
  j.Key("cores").Int(spec.cores);
  j.Key("warmup_ms").Int(kWarmupNs / kNsPerMs);
  j.Key("inputs_digest").Str(Hex(DigestInputs(inputs)));
  j.Key("compiler").Str(CompilerName());
  j.Key("build_type").Str(PERF_BUILD_TYPE);
  j.Key("sim_threads").Int(1);
  j.Key("ref_nominal_ms").Num(kRefNominalMs);
  j.Key("ref_every").Int(kRefEvery);

  // The untraced run times the host-speed reference; the traced run reports
  // no metric that uses it.
  HostSpeedRef host_ref;
  HostSpeedRef* ref = nullptr;
  if (trace == 0) {
    if (!host_ref.Start()) {
      std::cerr << "perf_sim: cannot start the host-speed reference helper\n";
      return 3;
    }
    ref = &host_ref;
  }

  // Only one instance is alive at a time, so peak RSS is one run's. The
  // measured run uses the last timed build.
  SetupSamples samples;
  std::unique_ptr<Instance> inst;
  for (std::uint64_t i = 0; i < (trace == 1 ? 1 : kSetups); ++i) {
    inst.reset();
    inst = samples.Build(spec, inputs, ref);
  }
  if (ref != nullptr) {
    samples.ref_ms.push_back(ref->RunMs());
  }
  const Measured untraced = Measure(*inst, sim_ms, nullptr, nullptr, ref);
  std::vector<Measured> traced;
  if (trace == 1) {
    inst.reset();
    inst = samples.Build(spec, inputs, nullptr);
    CountingSink sink;
    Tracer tracer(&sink, "", ~0ULL);
    traced.push_back(Measure(*inst, sim_ms, &tracer, &sink, nullptr));
  }
  inst.reset();

  j.Key("setup_s").Open('[');
  for (double v : samples.seconds) {
    j.Num(v);
  }
  j.Close(']');
  j.Key("setup_ref_ms").Open('[');
  for (double v : samples.ref_ms) {
    j.Num(v);
  }
  j.Close(']');
  j.Key("setup_digests").Open('[');
  for (const std::string& v : samples.digests) {
    j.Str(v);
  }
  j.Close(']');
  j.Key("runs").Open('[');
  EmitMeasured(&j, untraced, false);
  for (const Measured& m : traced) {
    EmitMeasured(&j, m, true);
  }
  j.Close(']');

  if (trace == 1) {
    ProbeInputs in;
    in.host = untraced.hosts[1];
    in.span_ns = static_cast<TimeNs>(sim_ms) * kNsPerMs;
    in.events = untraced.events;
    in.pending_events = untraced.pending_events;
    j.Key("probes").Open('{');
    for (const auto& [name, value] : RunProbes(spec, in, seed)) {
      j.Key(name).Num(value);
    }
    j.Close('}');
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  j.Key("peak_rss_kb").Int(static_cast<std::uint64_t>(usage.ru_maxrss));
  j.Close('}');
  std::cout << j.str() << "\n";
  return 0;
}

}  // namespace
}  // namespace perf
}  // namespace fsio

int main(int argc, char** argv) { return fsio::perf::Main(argc, argv); }
