// fsio_sim: command-line experiment runner for the simulator.
//
// Runs an iperf or N→1 incast workload on an arbitrary Cluster topology with
// fully configurable protection mode and system parameters, printing the
// paper's per-page metrics — the quickest way to explore the design space
// without writing code. Sweeps over flow counts run as independent sweep
// points on the SweepRunner thread pool; parallel output is byte-identical
// to --jobs=1.
//
// Examples:
//   fsio_sim --mode=fastsafe --flows=5
//   fsio_sim --mode=strict --flows=40 --ring=2048 --mtu=9000
//   fsio_sim --mode=fastsafe --hugepages --window-ms=60 --csv
//   fsio_sim --mode=strict --walkers=2 --iotlb-entries=128
//   fsio_sim --mode=strict --hosts=9 --incast --per-host
//   fsio_sim --mode=fastsafe --hosts=4 --switches=2 --sweep-flows=1,5,10 --jobs=4
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/incast.h"
#include "src/core/cluster.h"
#include "src/core/sweep_runner.h"
#include "src/stats/table.h"
#include "src/tenant/tenant_system.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/time_series.h"
#include "src/trace/tracer.h"
#include "tools/cli.h"

namespace {

struct Options {
  fsio::ProtectionMode mode = fsio::ProtectionMode::kFastSafe;
  std::uint32_t flows = 5;
  std::uint32_t cores = 5;
  std::uint32_t ring = 256;
  std::uint32_t mtu = 4096;
  bool hugepages = false;
  std::uint32_t walkers = 1;
  std::uint32_t iotlb_entries = 64;
  std::uint64_t warmup_ms = 20;
  std::uint64_t window_ms = 40;
  bool csv = false;
  bool dump_counters = false;
  // Topology (defaults reproduce the historical two-host testbed).
  std::uint32_t hosts = 2;
  std::uint32_t switches = 1;
  bool incast = false;     // hosts 1..N-1 -> host 0; measure host 0
  bool per_host = false;   // one row per host instead of the measured host
  std::vector<std::uint32_t> sweep_flows;  // empty: single run at --flows
  std::uint32_t jobs = 0;  // sweep threads; 0 = FSIO_SWEEP_THREADS/hardware
  // Multi-tenant mode (--tenants >= 1): run N protection domains on one
  // shared IOMMU instead of the cluster workload. Tenant 0 is the
  // latency-critical RPC domain; the rest are noisy neighbors.
  std::uint32_t tenants = 0;
  std::vector<fsio::ProtectionMode> tenant_modes;  // per-tenant; padded with --mode
  std::string iotlb_partition = "none";            // none | per_domain
  std::uint64_t tenant_rounds = 2000;
  // Observability.
  std::string trace_path;           // --trace=FILE: Chrome trace-event JSON
  std::string trace_filter;         // --trace-filter=PREFIX: category prefix
  std::string metrics_path;         // --metrics=FILE: time-series CSV
  std::uint64_t metrics_interval_us = 1000;  // --metrics-interval=US
};

fsio::ProtectionMode ParseMode(const std::string& name) {
  using fsio::ProtectionMode;
  if (name == "off") {
    return ProtectionMode::kOff;
  }
  if (name == "strict") {
    return ProtectionMode::kStrict;
  }
  if (name == "deferred") {
    return ProtectionMode::kDeferred;
  }
  if (name == "preserve" || name == "linux+a") {
    return ProtectionMode::kStrictPreserve;
  }
  if (name == "contig" || name == "linux+b") {
    return ProtectionMode::kStrictContig;
  }
  if (name == "fastsafe" || name == "fs") {
    return ProtectionMode::kFastSafe;
  }
  if (name == "hugepersist") {
    return ProtectionMode::kHugepagePersistent;
  }
  if (name == "capability" || name == "cap") {
    return ProtectionMode::kCapability;
  }
  std::fprintf(stderr, "unknown mode '%s'\n", name.c_str());
  std::exit(2);
}

void PrintUsage() {
  std::puts(
      "usage: fsio_sim [options]\n"
      "  --mode=off|strict|deferred|preserve|contig|fastsafe|hugepersist|capability\n"
      "  --flows=N            iperf flows (default 5); with --incast, flows per sender\n"
      "  --cores=N            cores per host (default 5)\n"
      "  --ring=N             Rx ring size in MTU packets (default 256)\n"
      "  --mtu=N              wire MTU bytes (default 4096)\n"
      "  --hugepages          2 MB-backed Rx descriptors\n"
      "  --walkers=N          IOMMU walk contexts (default 1)\n"
      "  --iotlb-entries=N    IOTLB capacity, a power of two >= 4 (default 64)\n"
      "  --warmup-ms=N        warmup before measuring (default 20)\n"
      "  --window-ms=N        measurement window (default 40)\n"
      "\ntopology:\n"
      "  --hosts=N            cluster size (default 2)\n"
      "  --switches=N         leaf switches; host h attaches to switch h%N (default 1)\n"
      "  --incast             N-1 -> 1 fan-in into host 0 (default: host 0 -> host 1 iperf)\n"
      "  --per-host           report a row for every host, not just the measured one\n"
      "\nmulti-tenant (replaces the cluster workload):\n"
      "  --tenants=N          N protection domains sharing one IOMMU; tenant 0 is\n"
      "                       latency-critical, tenants 1..N-1 are churn neighbors.\n"
      "                       Reports one row per tenant (per-domain tail latency).\n"
      "  --tenant-modes=LIST  comma-separated per-tenant modes (same tokens as\n"
      "                       --mode); shorter lists are padded with --mode\n"
      "  --iotlb-partition=none|per_domain\n"
      "                       per_domain confines IOTLB insertion victims to the\n"
      "                       inserting domain's ways (IOTLB-SC defense)\n"
      "  --tenant-rounds=N    arbitration rounds to run (default 2000)\n"
      "\nsweeps:\n"
      "  --sweep-flows=LIST   comma-separated flow counts; one sweep point each\n"
      "  --jobs=N             sweep worker threads. An explicit --jobs overrides the\n"
      "                       FSIO_SWEEP_THREADS env var; with --jobs unset (or =0) the\n"
      "                       env var applies, else the hardware core count. Output is\n"
      "                       byte-identical regardless of the thread count.\n"
      "\nobservability:\n"
      "  --trace=FILE         write a Chrome trace-event JSON (Perfetto/chrome://tracing);\n"
      "                       sweep points merge into one file, labeled flows=N/hostH\n"
      "  --trace-filter=PFX   keep only categories starting with PFX\n"
      "                       (iommu, pcie, nic, driver, transport, host)\n"
      "  --metrics=FILE       write per-interval counter-delta CSV (time series)\n"
      "  --metrics-interval=US  sampling interval in simulated us (default 1000)\n"
      "\noutput:\n"
      "  --csv                CSV output\n"
      "  --counters           dump all raw measured-host counters\n"
      "  --help");
}

// Matches `--flag=VALUE` and parses VALUE as a checked decimal in
// [min, max]; a bad value is a diagnostic naming the flag and exit 2.
template <typename T>
bool ParseNumber(const char* arg, const char* prefix, T* out, T min = 0,
                 T max = std::numeric_limits<T>::max()) {
  const std::size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) {
    return false;
  }
  *out = fsio::cli::ParseUint<T>("fsio_sim", std::string_view(prefix, n - 1), arg + n, min, max);
  return true;
}

bool ParseString(const char* arg, const char* prefix, std::string* out) {
  const std::size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) {
    return false;
  }
  *out = arg + n;
  return true;
}

bool ParseFlowList(const char* arg, const char* prefix, std::vector<std::uint32_t>* out) {
  const std::size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) {
    return false;
  }
  out->clear();
  std::string_view rest(arg + n);
  for (;;) {
    const std::size_t comma = rest.find(',');
    out->push_back(fsio::cli::ParseUint<std::uint32_t>(
        "fsio_sim", std::string_view(prefix, n - 1), rest.substr(0, comma), 1));
    if (comma == std::string_view::npos) {
      return true;
    }
    rest.remove_prefix(comma + 1);
  }
}

std::vector<fsio::ProtectionMode> ParseModeList(const char* list) {
  std::vector<fsio::ProtectionMode> modes;
  std::string token;
  for (const char* p = list;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) {
        modes.push_back(ParseMode(token));
      }
      token.clear();
      if (*p == '\0') {
        break;
      }
    } else {
      token.push_back(*p);
    }
  }
  return modes;
}

// Millisecond (and microsecond) flags are scaled to nanoseconds and summed
// (warmup + window); this bound keeps that arithmetic from wrapping.
constexpr std::uint64_t kMaxMs = std::numeric_limits<std::uint64_t>::max() / fsio::kNsPerMs / 4;

Options Parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--mode=", 7) == 0) {
      options.mode = ParseMode(arg + 7);
    } else if (std::strncmp(arg, "--tenant-modes=", 15) == 0) {
      options.tenant_modes = ParseModeList(arg + 15);
    } else if (ParseNumber(arg, "--flows=", &options.flows, 1u) ||
               ParseNumber(arg, "--cores=", &options.cores, 1u) ||
               ParseNumber(arg, "--ring=", &options.ring, 1u) ||
               ParseNumber(arg, "--mtu=", &options.mtu, 1u) ||
               ParseNumber(arg, "--walkers=", &options.walkers, 1u) ||
               ParseNumber(arg, "--iotlb-entries=", &options.iotlb_entries) ||
               ParseNumber(arg, "--hosts=", &options.hosts) ||
               ParseNumber(arg, "--switches=", &options.switches) ||
               ParseNumber(arg, "--jobs=", &options.jobs) ||
               ParseNumber(arg, "--tenants=", &options.tenants) ||
               ParseNumber(arg, "--tenant-rounds=", &options.tenant_rounds) ||
               ParseString(arg, "--iotlb-partition=", &options.iotlb_partition) ||
               ParseNumber(arg, "--warmup-ms=", &options.warmup_ms, std::uint64_t{0}, kMaxMs) ||
               ParseNumber(arg, "--window-ms=", &options.window_ms, std::uint64_t{1}, kMaxMs) ||
               ParseNumber(arg, "--metrics-interval=", &options.metrics_interval_us,
                           std::uint64_t{1}, kMaxMs) ||
               ParseString(arg, "--trace-filter=", &options.trace_filter) ||
               ParseString(arg, "--trace=", &options.trace_path) ||
               ParseString(arg, "--metrics=", &options.metrics_path) ||
               ParseFlowList(arg, "--sweep-flows=", &options.sweep_flows)) {
      // parsed
    } else if (std::strcmp(arg, "--hugepages") == 0) {
      options.hugepages = true;
    } else if (std::strcmp(arg, "--incast") == 0) {
      options.incast = true;
    } else if (std::strcmp(arg, "--per-host") == 0) {
      options.per_host = true;
    } else if (std::strcmp(arg, "--csv") == 0) {
      options.csv = true;
    } else if (std::strcmp(arg, "--counters") == 0) {
      options.dump_counters = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg);
      PrintUsage();
      std::exit(2);
    }
  }
  return options;
}

// --iotlb-entries keeps the IOTLB 4-way set-associative. The set index is a
// mask, so the set count (entries / 4) must be a power of two.
constexpr std::uint32_t kIotlbWays = 4;

bool ValidIotlbEntries(std::uint32_t entries) {
  return entries >= kIotlbWays && (entries & (entries - 1)) == 0;
}

fsio::ClusterConfig MakeClusterConfig(const Options& options) {
  fsio::ClusterConfig config;
  config.num_hosts = options.hosts;
  config.num_switches = options.switches;
  config.mode = options.mode;
  config.cores = options.cores;
  config.ring_size_pkts = options.ring;
  config.mtu_bytes = options.mtu;
  config.host.use_hugepages = options.hugepages;
  config.host.iommu.num_walkers = options.walkers;
  // Keep 4-way associativity; scale the set count.
  config.host.iommu.iotlb_ways = kIotlbWays;
  config.host.iommu.iotlb_sets = options.iotlb_entries / kIotlbWays;
  return config;
}

// One sweep point's complete output: measurements plus (optionally) its
// trace events and time-series samples, buffered so the parallel sweep can
// merge them serially in point order.
struct PointResult {
  std::vector<fsio::WindowResult> windows;
  std::vector<fsio::TraceEvent> events;
  std::vector<fsio::TimeSeriesSample> samples;
};

// One sweep point: an independent simulation of the configured topology with
// `flows` flows (per sender under --incast). Each point gets its own Tracer
// and recorder; tracing only observes, so results are identical either way.
PointResult RunPoint(const Options& options, std::uint32_t flows) {
  PointResult out;
  fsio::Cluster cluster(MakeClusterConfig(options));

  fsio::VectorSink sink;
  std::unique_ptr<fsio::Tracer> tracer;
  if (!options.trace_path.empty()) {
    tracer = std::make_unique<fsio::Tracer>(&sink, options.trace_filter);
    cluster.SetTracer(tracer.get());
  }
  std::unique_ptr<fsio::TimeSeriesRecorder> recorder;
  if (!options.metrics_path.empty()) {
    recorder = std::make_unique<fsio::TimeSeriesRecorder>(
        &cluster.ev(), options.metrics_interval_us * fsio::kNsPerUs);
    for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
      recorder->AddSource(h, &cluster.host(h).stats());
    }
    recorder->Start();
  }

  if (options.incast) {
    fsio::StartIncast(&cluster, /*dst_host=*/0, flows);
  } else {
    cluster.AddBulkFlows(0, 1, flows);
  }
  cluster.RunUntil(options.warmup_ms * fsio::kNsPerMs);
  out.windows = cluster.MeasureWindowAll(options.window_ms * fsio::kNsPerMs);

  if (recorder != nullptr) {
    recorder->Stop();
    out.samples = recorder->TakeSamples();
  }
  out.events = sink.TakeEvents();
  return out;
}

void AddResultRow(fsio::Table* table, const Options& options, std::uint32_t flows,
                  const fsio::WindowResult& r, std::int64_t host_id) {
  table->BeginRow();
  table->AddCell(fsio::ProtectionModeName(options.mode));
  table->AddInteger(flows);
  if (host_id >= 0) {
    table->AddInteger(static_cast<long long>(host_id));
  }
  table->AddNumber(r.goodput_gbps, 1);
  table->AddNumber(r.drop_rate * 100.0, 3);
  table->AddNumber(r.iotlb_miss_per_page, 2);
  table->AddNumber(r.l1_miss_per_page, 3);
  table->AddNumber(r.l2_miss_per_page, 3);
  table->AddNumber(r.l3_miss_per_page, 3);
  table->AddNumber(r.mem_reads_per_page, 2);
  table->AddNumber(r.cpu_utilization, 2);
  table->AddInteger(static_cast<long long>(r.safety_violations));
}

// Multi-tenant run: N protection domains on one shared IOMMU, one row per
// tenant with per-domain tail latency and oracle verdicts. Replaces the
// cluster workload entirely — topology/flow flags are ignored.
int RunTenants(const Options& options) {
  if (options.iotlb_partition != "none" && options.iotlb_partition != "per_domain") {
    std::fprintf(stderr, "--iotlb-partition must be none|per_domain\n");
    return 2;
  }
  if (options.tenant_modes.size() > options.tenants) {
    std::fprintf(stderr, "--tenant-modes lists %zu modes for %u tenants\n",
                 options.tenant_modes.size(), options.tenants);
    return 2;
  }

  fsio::TenantSystemConfig config;
  config.iommu.num_walkers = options.walkers;
  config.iommu.iotlb_ways = kIotlbWays;
  config.iommu.iotlb_sets = options.iotlb_entries / kIotlbWays;
  if (options.iotlb_partition == "per_domain") {
    config.iommu.iotlb_partitions = options.tenants < 2 ? 2 : options.tenants;
  }
  for (std::uint32_t i = 0; i < options.tenants; ++i) {
    fsio::TenantConfig tenant;
    tenant.mode = i < options.tenant_modes.size() ? options.tenant_modes[i]
                                                  : options.mode;
    tenant.latency_critical = i == 0;
    tenant.weight = i == 0 ? 1 : 2;
    tenant.pipeline_depth = i == 0 ? 1 : 128;
    config.tenants.push_back(tenant);
  }

  fsio::TenantSystem system(config);
  system.RunRounds(options.tenant_rounds);

  fsio::Table table({"tenant", "mode", "role", "ops", "p50_ns", "p99_ns",
                     "p999_ns", "violations", "cross_dom"});
  for (std::uint32_t i = 0; i < options.tenants; ++i) {
    const fsio::TenantReport r = system.Report(i);
    table.BeginRow();
    table.AddInteger(i);
    table.AddCell(fsio::ProtectionModeName(config.tenants[i].mode));
    table.AddCell(i == 0 ? "latency" : "churn");
    table.AddInteger(static_cast<long long>(r.ops));
    table.AddInteger(static_cast<long long>(r.p50_ns));
    table.AddInteger(static_cast<long long>(r.p99_ns));
    table.AddInteger(static_cast<long long>(r.p999_ns));
    table.AddInteger(static_cast<long long>(r.violations));
    table.AddInteger(static_cast<long long>(r.cross_domain));
  }
  fsio::EmitTable(std::cout, table,
                  options.csv ? fsio::TableFormat::kCsv : fsio::TableFormat::kHuman);

  if (options.dump_counters) {
    std::cout << "\nper-domain counters (tenant.<id>.*):\n";
    for (const auto& [name, value] : system.stats().Snapshot()) {
      if (name.rfind("tenant.", 0) == 0) {
        std::printf("  %-32s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  if (!ValidIotlbEntries(options.iotlb_entries)) {
    std::fprintf(stderr, "--iotlb-entries must be a power of two >= %u (got %u)\n", kIotlbWays,
                 options.iotlb_entries);
    return 2;
  }
  if (options.tenants > 0) {
    return RunTenants(options);
  }
  if (options.hosts < 2 || options.switches < 1 || options.switches > options.hosts) {
    std::fprintf(stderr, "need --hosts>=2 and 1 <= --switches <= --hosts\n");
    return 2;
  }

  std::vector<std::uint32_t> sweep = options.sweep_flows;
  if (sweep.empty()) {
    sweep.push_back(options.flows);
  }

  // Sweep points are independent simulations; run them on the thread pool
  // and emit rows serially in point order (byte-identical to --jobs=1).
  const fsio::SweepRunner runner(options.jobs);
  const auto results = runner.Map<PointResult>(
      sweep.size(), [&](std::size_t i) { return RunPoint(options, sweep[i]); });

  // The measured host: the incast sink, or the historical receive host 1.
  const std::uint32_t measured = options.incast ? 0 : 1;

  std::vector<std::string> headers = {"mode", "flows"};
  if (options.per_host) {
    headers.push_back("host");
  }
  for (const char* h : {"gbps", "drop_%", "iotlb/pg", "l1/pg", "l2/pg", "l3/pg",
                        "reads/pg", "cpu", "violations"}) {
    headers.push_back(h);
  }
  fsio::Table table(headers);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (options.per_host) {
      for (std::size_t h = 0; h < results[i].windows.size(); ++h) {
        AddResultRow(&table, options, sweep[i], results[i].windows[h],
                     static_cast<std::int64_t>(h));
      }
    } else {
      AddResultRow(&table, options, sweep[i], results[i].windows[measured], -1);
    }
  }
  fsio::EmitTable(std::cout, table,
                  options.csv ? fsio::TableFormat::kCsv : fsio::TableFormat::kHuman);

  if (options.dump_counters) {
    std::cout << "\nraw measured-host counters (window delta, last sweep point):\n";
    for (const auto& [name, value] : results.back().windows[measured].raw_rx_host) {
      std::printf("  %-32s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
    }
  }

  // Merge per-point buffers serially in point order: the files are
  // byte-identical for any --jobs value.
  const bool multi = sweep.size() > 1;
  if (!options.trace_path.empty()) {
    std::ofstream file(options.trace_path);
    if (!file) {
      std::fprintf(stderr, "cannot open '%s'\n", options.trace_path.c_str());
      return 1;
    }
    std::vector<fsio::TraceGroup> groups;
    groups.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::string label =
          multi ? "flows=" + std::to_string(sweep[i]) + "/" : std::string();
      groups.push_back(fsio::TraceGroup{label, &results[i].events});
    }
    fsio::WriteChromeTrace(file, groups);
  }
  if (!options.metrics_path.empty()) {
    std::ofstream file(options.metrics_path);
    if (!file) {
      std::fprintf(stderr, "cannot open '%s'\n", options.metrics_path.c_str());
      return 1;
    }
    std::vector<fsio::LabeledSamples> series;
    series.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      series.push_back(fsio::LabeledSamples{std::to_string(sweep[i]),
                                            results[i].samples});
    }
    fsio::WriteTimeSeriesCsv(file, series, multi ? "flows" : std::string());
  }
  return 0;
}
