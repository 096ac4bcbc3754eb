// Cluster-scale chaos harness: fault scenarios crossed with every protection
// mode on a 4-host / 2-switch incast cluster.
//
// Each cell of the matrix builds an independent Cluster, arms a
// ClusterFaultController with one scenario's fault events (link flaps, port
// downs, whole-switch failure, packet corruption/loss bursts, host crash and
// recovery, peer death), drives a 3→1 incast through the fault window, and
// then asserts the cluster-scale safety matrix:
//
//   * every scenario, under EVERY protection mode, ends with ZERO safety-
//     oracle violations on every host — a correctly recovered host never
//     lets DMA land in reclaimed frames and never serves a stale
//     translation;
//   * "nic.dma_while_quiesced" stays 0 cluster-wide (the quiesce protocol's
//     own invariant: no DMA is issued between quiesce and resume);
//   * structural invariants (page-table consistency, no overlapping live
//     maps) hold on every host at end of run;
//   * each fabric scenario leaves its fingerprint (link_down / switch_down /
//     corrupted / loss_burst drop counters fire);
//   * the crash scenario recovers exactly once and delivers application
//     bytes after recovery; the peer-death scenario aborts flows via the
//     DCTCP consecutive-timeout ceiling instead of retransmitting forever.
//
// --break-recovery runs a single deliberately broken cell (recovery skips
// the global IOTLB invalidation) and demonstrates the cross-host oracle
// catching it; with --expect-violation the harness then SHRINKS the fault
// event list to a minimal still-failing repro (the shared ShrinkSequence of
// src/refmodel/shrink.h) and, with --repro-out, writes a replayable text
// repro that --replay re-executes byte-deterministically.
//
// All randomness flows from --seed; cells are independent simulations run on
// the SweepRunner pool with slot-per-cell reports emitted in cell order, so
// output is byte-identical across reruns and across --jobs values (checked
// by ctest and by --selftest-determinism).
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/cluster_faults.h"
#include "src/core/sweep_runner.h"
#include "src/driver/protection.h"
#include "src/faults/fault_injector.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/safety_oracle.h"
#include "src/refmodel/shrink.h"
#include "src/simcore/time.h"
#include "src/tenant/domain.h"
#include "src/tenant/tenant_system.h"
#include "tools/cli.h"

namespace fsio {
namespace {

struct ChaosOptions {
  TimeNs window = 6 * kNsPerMs;  // base fault window W
  std::uint64_t seed = 1;
  unsigned jobs = 1;
  bool verbose = false;
  bool break_recovery = false;
  bool expect_violation = false;
  bool tenant_crash = false;
  std::string repro_out;
  std::string replay;
};

constexpr std::size_t kNumModes = std::size(kAllModes);

// The chaos cluster's fixed shape (see RunCell): repro events may only
// name hosts and switches that exist.
constexpr std::uint32_t kChaosHosts = 4;
constexpr std::uint32_t kChaosSwitches = 2;
// Longest accepted base window W (simulated). The matrix runs ~W per cell.
constexpr TimeNs kMaxWindowNs = 10 * kNsPerSec;

// One scenario: a named fault-event list plus the expectations it must meet
// in every protection mode.
struct Scenario {
  std::string name;
  std::vector<ClusterFaultEvent> events;
  TimeNs run_until = 0;
  std::uint32_t abort_after_timeouts = 0;  // DCTCP peer-death ceiling (0=off)
  std::uint32_t crash_host = 0;
  bool expect_link_down = false;
  bool expect_switch_down = false;
  bool expect_corrupted = false;
  bool expect_loss_burst = false;
  bool expect_recovery = false;     // exactly one crash + recovery + progress
  bool expect_flow_aborts = false;  // peer never recovers; senders abort
};

// The cluster fault taxonomy exercised against every protection mode. All
// times derive from the base window W so --window scales the whole matrix.
std::vector<Scenario> BuildScenarios(TimeNs w) {
  std::vector<Scenario> out;

  {
    // Short flap of sender host 1's access link mid-run; ACK and data
    // traffic over that port drops for W/12, then DCTCP recovers.
    Scenario s;
    s.name = "link-flap";
    s.run_until = w;
    s.expect_link_down = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kLinkFlap;
    e.at = w / 3;
    e.duration_ns = w / 12;
    e.host = 1;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Long port-down on sender host 2: half the run with one incast source
    // dark, then the link returns.
    Scenario s;
    s.name = "port-down";
    s.run_until = w;
    s.expect_link_down = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kSwitchPortDown;
    e.at = w / 6;
    e.duration_ns = w / 2;
    e.host = 2;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Whole leaf switch 1 (hosts 1 and 3) black-holes for a quarter window.
    Scenario s;
    s.name = "switch-failure";
    s.run_until = w;
    s.expect_switch_down = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kSwitchFailure;
    e.at = w / 4;
    e.duration_ns = w / 4;
    e.switch_id = 1;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Fabric-wide low-rate packet corruption (CRC drops on every port).
    Scenario s;
    s.name = "corruption";
    s.run_until = w;
    s.expect_corrupted = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kPacketCorruption;
    e.at = w / 6;
    e.duration_ns = w / 2;
    e.any_port = true;
    e.probability = 0.02;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Heavy loss burst pinned to receiver host 0's access link.
    Scenario s;
    s.name = "loss-burst";
    s.run_until = w;
    s.expect_loss_burst = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kPacketLossBurst;
    e.at = w / 3;
    e.duration_ns = w / 6;
    e.host = 0;
    e.probability = 0.3;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Receiver host 0 crashes with DMA in flight, recovers after W/6: NIC
    // quiesce + drain, unmap-all, frame reclaim, global invalidation, ring
    // re-registration — then the incast must make progress again.
    Scenario s;
    s.name = "host-crash";
    s.run_until = w;
    s.expect_recovery = true;
    s.crash_host = 0;
    ClusterFaultEvent e;
    e.kind = FaultKind::kHostCrash;
    e.at = w / 3;
    e.duration_ns = w / 6;
    e.host = 0;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Receiver host 0 dies and never comes back. Senders must abort via the
    // consecutive-RTO ceiling instead of retransmitting into the dead host
    // forever. The horizon is crash time plus a fixed allowance for the RTO
    // ladder (min_rto 1 ms doubling: 3 consecutive timeouts land within
    // ~7 ms of the crash), so shrinking --window cannot starve the ladder.
    Scenario s;
    s.name = "peer-death";
    s.run_until = w / 4 + 10 * kNsPerMs;
    s.abort_after_timeouts = 3;
    s.expect_flow_aborts = true;
    s.crash_host = 0;
    ClusterFaultEvent e;
    e.kind = FaultKind::kHostCrash;
    e.at = w / 4;
    e.duration_ns = 0;  // never recover
    e.host = 0;
    s.events.push_back(e);
    out.push_back(s);
  }

  return out;
}

struct CellResult {
  std::string report;
  bool cancelled = false;
  std::uint64_t violations = 0;
  std::uint64_t reclaimed_frame = 0;
  std::uint64_t stale_translation = 0;
  std::uint64_t use_after_unmap = 0;
  std::uint64_t check_failures = 0;
  std::uint64_t dma_while_quiesced = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t flow_aborts = 0;
  std::uint64_t link_down = 0;
  std::uint64_t switch_down = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t loss_burst = 0;
  std::uint64_t app_bytes = 0;
  std::uint64_t post_recovery_bytes = 0;
};

// Appends at most `limit` lines of `trace` with a deterministic elision
// marker, keeping reports readable under failure storms.
void AppendTrace(std::ostringstream* os, const std::string& trace, std::size_t limit) {
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < trace.size() && lines < limit) {
    const std::size_t nl = trace.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? trace.size() : nl + 1;
    os->write(trace.data() + pos, static_cast<std::streamsize>(end - pos));
    pos = end;
    ++lines;
  }
  if (pos < trace.size()) {
    std::size_t rest = 0;
    for (std::size_t i = pos; i < trace.size(); ++i) {
      rest += trace[i] == '\n' ? 1 : 0;
    }
    *os << "  ... (" << rest << " more)\n";
  }
}

// Runs one (mode, scenario) cell: an independent 4-host / 2-switch cluster
// with a 3→1 incast, the scenario's faults armed, and full safety
// instrumentation. `broken` skips the recovery global invalidation — the
// intentional bug the cross-host oracle must catch.
CellResult RunCell(ProtectionMode mode, const Scenario& scenario, const ChaosOptions& opt,
                   bool broken, const std::atomic<bool>& cancel) {
  ClusterConfig config;
  config.num_hosts = kChaosHosts;
  config.num_switches = kChaosSwitches;
  config.cores = 2;
  config.ring_size_pkts = 128;
  config.mode = mode;
  config.dctcp.abort_after_timeouts = scenario.abort_after_timeouts;
  config.host.skip_recovery_invalidation = broken;

  Cluster cluster(config);
  cluster.EnableFaultHarness();

  ClusterFaultController controller(&cluster, opt.seed);
  for (const ClusterFaultEvent& e : scenario.events) {
    controller.Add(e);
  }
  controller.Arm();

  // 3→1 incast: hosts 1..3 each run `cores` unbounded flows into host 0.
  for (std::uint32_t src = 1; src < config.num_hosts; ++src) {
    cluster.AddBulkFlows(src, /*dst_host=*/0, config.cores);
  }

  // Post-recovery progress probe: snapshot host 0's delivered bytes well
  // after recovery completes; the final count must exceed it.
  std::uint64_t mark_bytes = 0;
  if (scenario.expect_recovery) {
    const ClusterFaultEvent& crash = scenario.events.front();
    const TimeNs mark_at = crash.at + crash.duration_ns + opt.window / 12;
    cluster.ev().ScheduleAt(mark_at, [&cluster, &mark_bytes] {
      mark_bytes = cluster.host(0).app_bytes_delivered();
    });
  }

  CellResult r;
  // Sliced run so the sweep watchdog's cancel flag is honoured between
  // deterministic chunks (cancellation only ever loses a report, never
  // perturbs a completed one).
  constexpr int kSlices = 8;
  for (int slice = 1; slice <= kSlices; ++slice) {
    if (cancel.load(std::memory_order_relaxed)) {
      r.cancelled = true;
      r.report = "=== scenario=" + scenario.name + " mode=" + ModeToken(mode) +
                 " ===\nTIMED OUT (partial cell dropped)\n";
      return r;
    }
    cluster.RunUntil(scenario.run_until * slice / kSlices);
  }
  const TimeNs now = cluster.ev().now();

  std::ostringstream vio;
  for (std::uint32_t h = 0; h < config.num_hosts; ++h) {
    SafetyOracle* oracle = cluster.oracle(h);
    InvariantRegistry* inv = cluster.invariants(h);
    r.violations += oracle->total_violations();
    r.reclaimed_frame += oracle->count(SafetyViolationKind::kDmaToReclaimedFrame);
    r.stale_translation += oracle->count(SafetyViolationKind::kStaleDmaTranslation);
    r.use_after_unmap += oracle->count(SafetyViolationKind::kUseAfterUnmap);
    r.check_failures += inv->CheckAll(now);
    r.check_failures += inv->failure_count();
    StatsRegistry& hs = cluster.host(h).stats();
    r.dma_while_quiesced += hs.Value("nic.dma_while_quiesced");
    r.flow_aborts += hs.Value("dctcp.flow_aborts");
    if (oracle->total_violations() != 0) {
      vio << "host " << h << " violations:\n";
      AppendTrace(&vio, oracle->TraceString(), 20);
    }
  }
  StatsRegistry& crash_stats = cluster.host(scenario.crash_host).stats();
  r.crashes = crash_stats.Value("host.crashes");
  r.recoveries = crash_stats.Value("host.recoveries");
  for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
    const std::string p = "switch" + std::to_string(s);
    StatsRegistry& ss = cluster.switch_stats();
    r.link_down += ss.Value(p + ".link_down_drops");
    r.switch_down += ss.Value(p + ".switch_down_drops");
    r.corrupted += ss.Value(p + ".corrupted_drops");
    r.loss_burst += ss.Value(p + ".loss_burst_drops");
  }
  r.app_bytes = cluster.host(0).app_bytes_delivered();
  if (scenario.expect_recovery && r.app_bytes > mark_bytes) {
    r.post_recovery_bytes = r.app_bytes - mark_bytes;
  }

  std::ostringstream os;
  os << "=== scenario=" << scenario.name << " mode=" << ModeToken(mode)
     << (broken ? " broken-recovery" : "") << " ===\n";
  os << "violations=" << r.violations << " reclaimed_frame=" << r.reclaimed_frame
     << " stale_translation=" << r.stale_translation
     << " use_after_unmap=" << r.use_after_unmap
     << " invariant_failures=" << r.check_failures << "\n";
  os << "crashes=" << r.crashes << " recoveries=" << r.recoveries
     << " dma_while_quiesced=" << r.dma_while_quiesced << " flow_aborts=" << r.flow_aborts
     << " crash_rx_dropped=" << crash_stats.Value("host.crash_rx_dropped")
     << " rx_quiesced_drops=" << crash_stats.Value("nic.rx_quiesced_drops") << "\n";
  os << "fabric: link_down=" << r.link_down << " switch_down=" << r.switch_down
     << " corrupted=" << r.corrupted << " loss_burst=" << r.loss_burst << "\n";
  os << "app_bytes=" << r.app_bytes;
  if (scenario.expect_recovery) {
    os << " post_recovery_bytes=" << r.post_recovery_bytes;
  }
  os << "\n";
  if (opt.verbose || r.violations != 0) {
    os << vio.str();
  }
  r.report = os.str();
  return r;
}

// Runs the full scenario x mode matrix on the SweepRunner pool and checks
// every expectation. Returns the number of failed expectations.
int RunSuite(const ChaosOptions& opt, std::string* output) {
  const std::vector<Scenario> scenarios = BuildScenarios(opt.window);
  const std::size_t n = scenarios.size() * kNumModes;
  std::vector<CellResult> cells(n);

  SweepRunner runner(opt.jobs);
  const SweepRunReport sweep = runner.RunCancellable(
      n,
      [&](std::size_t i, const std::atomic<bool>& cancel) {
        const Scenario& scenario = scenarios[i / kNumModes];
        const ProtectionMode mode = kAllModes[i % kNumModes];
        cells[i] = RunCell(mode, scenario, opt, /*broken=*/false, cancel);
      },
      SweepRunner::DefaultDeadlineMs());

  std::ostringstream all;
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      all << "EXPECTATION FAILED: " << what << "\n";
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Scenario& scenario = scenarios[i / kNumModes];
    const CellResult& r = cells[i];
    all << r.report;
    const std::string tag = scenario.name + " / " + ModeToken(kAllModes[i % kNumModes]);
    if (r.cancelled) {
      expect(false, tag + ": cell hit the sweep deadline");
      continue;
    }
    // The cluster-scale safety matrix: recovery is SAFE in every mode.
    expect(r.violations == 0, tag + ": zero safety-oracle violations after recovery");
    expect(r.check_failures == 0, tag + ": structural invariants must hold");
    expect(r.dma_while_quiesced == 0, tag + ": no DMA between quiesce and resume");
    if (scenario.expect_link_down) {
      expect(r.link_down > 0, tag + ": port-down drops must be observed");
    }
    if (scenario.expect_switch_down) {
      expect(r.switch_down > 0, tag + ": switch-failure drops must be observed");
    }
    if (scenario.expect_corrupted) {
      expect(r.corrupted > 0, tag + ": corruption drops must be observed");
    }
    if (scenario.expect_loss_burst) {
      expect(r.loss_burst > 0, tag + ": loss-burst drops must be observed");
    }
    if (scenario.expect_recovery) {
      expect(r.crashes == 1 && r.recoveries == 1, tag + ": exactly one crash + recovery");
      expect(r.post_recovery_bytes > 0, tag + ": application progress after recovery");
    }
    if (scenario.expect_flow_aborts) {
      expect(r.crashes == 1 && r.recoveries == 0, tag + ": peer stays dead");
      expect(r.flow_aborts > 0, tag + ": senders must abort into the dead peer");
    }
    expect(r.app_bytes > 0, tag + ": incast must deliver bytes");
  }
  if (!sweep.ok()) {
    all << "(" << sweep.timed_out.size() << " cell(s) timed out under "
        << "FSIO_SWEEP_DEADLINE_MS; rerun without a deadline for full coverage)\n";
  }
  all << (failures == 0 ? "CHAOS MATRIX OK\n" : "CHAOS MATRIX FAILED\n");
  *output = all.str();
  return failures;
}

// ---------------------------------------------------------------------------
// Multi-tenant crash scenario (tenant_crash): one protection domain crashes
// mid-flight on a shared IOMMU and is recovered with a domain-selective
// invalidation. Run for every protection mode; in each cell:
//
//   * the co-resident tenant keeps making progress while the victim is dead;
//   * the crashed tenant's stranded in-flight descriptor is still device-
//     visible before recovery (we replay a device access to prove it) and
//     faults cleanly after;
//   * recovery clears ONLY the crashed domain's IOTLB entries — the
//     co-tenant's resident entries are counted before and after;
//   * the recovered tenant resumes, and the safety oracles of both domains
//     end at zero violations, including zero dma_cross_domain_hit.
int RunTenantCrash(std::string* output) {
  std::ostringstream all;
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      all << "EXPECTATION FAILED: " << what << "\n";
    }
  };

  for (const ProtectionMode mode : kAllModes) {
    const std::string tag = std::string("tenant-crash / ") + ModeToken(mode);
    TenantSystemConfig config;
    TenantConfig victim;
    victim.mode = mode;
    victim.latency_critical = true;
    victim.weight = 1;
    config.tenants.push_back(victim);
    TenantConfig co;
    co.mode = mode;
    co.latency_critical = true;  // closed-loop, so `ops` measures progress
    co.weight = 2;
    config.tenants.push_back(co);
    config.churn_pages = 8;  // keep both working sets resident in the IOTLB
    TenantSystem system(config);

    system.RunRounds(100);
    system.CrashTenant(0);
    const std::uint64_t co_ops_at_crash = system.Report(1).ops;
    const std::uint64_t victim_ops_at_crash = system.Report(0).ops;
    system.RunRounds(50);
    const std::uint64_t co_ops_during = system.Report(1).ops;
    expect(co_ops_during > co_ops_at_crash,
           tag + ": co-resident tenant keeps running while the victim is down");

    // The stranded in-flight descriptor is the recovery hazard: the device
    // can still use it (legally — the driver never unmapped it).
    const std::vector<Iova> stranded = system.StrandedIovas(0);
    const DomainId crashed_id = system.domain(0).id();
    const DomainId co_id = system.domain(1).id();
    // Capability mode never populates the IOMMU (pass-through); device
    // visibility is judged by the capability check instead of Translate.
    const bool cap = mode == ProtectionMode::kCapability;
    if (mode != ProtectionMode::kOff) {
      expect(!stranded.empty(), tag + ": crash strands an in-flight descriptor");
    }
    if (!stranded.empty()) {
      if (cap) {
        expect(system.domain(0)
                   .dma()
                   .DeviceCheckCapability(stranded.front(), 1, system.now())
                   .allowed,
               tag + ": stranded capability still passes the check pre-recovery");
      } else {
        const TranslationResult pre =
            system.iommu().Translate(crashed_id, stranded.front(), system.now());
        expect(!pre.fault, tag + ": stranded descriptor still device-visible pre-recovery");
      }
    }
    const SetAssocCache& iotlb = system.iommu().iotlb();
    const std::uint64_t co_resident_before =
        iotlb.CountMatching(kDomainFieldMask, DomainTagBits(co_id));
    if (!cap) {
      expect(co_resident_before > 0, tag + ": co-tenant holds resident IOTLB entries");
    }

    system.RecoverTenant(0);
    expect(iotlb.CountMatching(kDomainFieldMask, DomainTagBits(crashed_id)) == 0,
           tag + ": recovery clears every crashed-domain IOTLB entry");
    expect(iotlb.CountMatching(kDomainFieldMask, DomainTagBits(co_id)) == co_resident_before,
           tag + ": domain-selective invalidation leaves the co-tenant resident");
    if (!stranded.empty()) {
      if (cap) {
        expect(!system.domain(0)
                    .dma()
                    .DeviceCheckCapability(stranded.front(), 1, system.now())
                    .allowed,
               tag + ": stranded capability is refused after recovery");
      } else {
        const TranslationResult post =
            system.iommu().Translate(crashed_id, stranded.front(), system.now());
        expect(post.fault, tag + ": stranded descriptor faults after recovery");
        expect(!post.stale_use, tag + ": post-recovery fault carries no stale state");
      }
    }

    system.RunRounds(50);
    const TenantReport victim_final = system.Report(0);
    const TenantReport co_final = system.Report(1);
    expect(victim_final.ops > victim_ops_at_crash,
           tag + ": recovered tenant resumes making progress");
    expect(victim_final.violations == 0 && co_final.violations == 0,
           tag + ": zero safety-oracle violations in both domains");
    expect(victim_final.cross_domain == 0 && co_final.cross_domain == 0,
           tag + ": zero cross-domain hits");
    expect(system.stats().Value("iommu.cross_domain_hits") == 0,
           tag + ": IOMMU-wide cross-domain hit counter stays zero");

    all << "=== scenario=tenant-crash mode=" << ModeToken(mode) << " ===\n";
    all << "victim_ops=" << victim_final.ops << " co_ops=" << co_final.ops
        << " stranded=" << stranded.size()
        << " co_resident=" << co_resident_before
        << " violations=" << victim_final.violations + co_final.violations
        << " cross_domain=" << victim_final.cross_domain + co_final.cross_domain << "\n";
  }
  all << (failures == 0 ? "TENANT CRASH MATRIX OK\n" : "TENANT CRASH MATRIX FAILED\n");
  *output = all.str();
  return failures;
}

// ---------------------------------------------------------------------------
// Broken-recovery demonstration: repro files, shrinking, replay.

bool KindFromName(const std::string& name, FaultKind* out) {
  for (int k = 0; k < static_cast<int>(FaultKind::kCount); ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (name == FaultKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

// Text repro: settings lines (key=value) then one "event <ToString()>" line
// per fault event. Round-trips through ParseRepro for --replay.
std::string FormatRepro(const ChaosOptions& opt, ProtectionMode mode,
                        const std::vector<ClusterFaultEvent>& events) {
  std::ostringstream os;
  os << "# fsio_chaos repro: broken recovery (skipped global invalidation)\n";
  os << "seed=" << opt.seed << "\n";
  os << "window=" << opt.window << "\n";
  os << "mode=" << ModeToken(mode) << "\n";
  os << "break-recovery=1\n";
  for (const ClusterFaultEvent& e : events) {
    os << "event " << e.ToString() << "\n";
  }
  return os.str();
}

// Repro numbers go through the same checked parse as flags (tools/cli.h): a
// malformed or out-of-range value is a diagnostic naming the key and exit 2.
bool ParseReproLine(const std::string& line, ClusterFaultEvent* e) {
  std::istringstream is(line);
  std::string kind_name;
  if (!(is >> kind_name) || !KindFromName(kind_name, &e->kind)) {
    return false;
  }
  std::string field;
  while (is >> field) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return false;
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "at") {
      e->at = cli::ParseUint<TimeNs>("fsio_chaos", key, value);
    } else if (key == "dur") {
      e->duration_ns = cli::ParseUint<TimeNs>("fsio_chaos", key, value);
    } else if (key == "switch") {
      e->switch_id =
          cli::ParseUint<std::uint32_t>("fsio_chaos", key, value, 0, kChaosSwitches - 1);
    } else if (key == "host") {
      e->host = cli::ParseUint<std::uint32_t>("fsio_chaos", key, value, 0, kChaosHosts - 1);
    } else if (key == "any_port") {
      e->any_port = cli::ParseUint<unsigned>("fsio_chaos", key, value, 0, 1) == 1;
    } else if (key == "p") {
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, e->probability);
      if (ec != std::errc() || ptr != end || !(e->probability >= 0.0 && e->probability <= 1.0)) {
        std::fprintf(stderr, "fsio_chaos: p expects a probability in [0, 1], got '%s'\n",
                     value.c_str());
        std::exit(2);
      }
    } else {
      return false;
    }
  }
  return true;
}

bool ParseRepro(const std::string& path, ChaosOptions* opt, ProtectionMode* mode,
                std::vector<ClusterFaultEvent>* events) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fsio_chaos: cannot open repro %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (line.rfind("event ", 0) == 0) {
      ClusterFaultEvent e;
      if (!ParseReproLine(line.substr(6), &e)) {
        std::fprintf(stderr, "fsio_chaos: bad repro event line: %s\n", line.c_str());
        return false;
      }
      events->push_back(e);
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "fsio_chaos: bad repro line: %s\n", line.c_str());
      return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "seed") {
      opt->seed = cli::ParseUint<std::uint64_t>("fsio_chaos", key, value);
    } else if (key == "window") {
      opt->window = cli::ParseUint<TimeNs>("fsio_chaos", key, value, 1, kMaxWindowNs);
    } else if (key == "mode") {
      if (!ParseModeToken(value, mode)) {
        std::fprintf(stderr, "fsio_chaos: unknown mode %s\n", value.c_str());
        return false;
      }
    } else if (key == "break-recovery") {
      opt->break_recovery = cli::ParseUint<unsigned>("fsio_chaos", key, value, 0, 1) == 1;
    } else {
      std::fprintf(stderr, "fsio_chaos: unknown repro key %s\n", key.c_str());
      return false;
    }
  }
  return true;
}

// Runs one broken-recovery cell over an explicit event list.
CellResult RunBrokenCell(const std::vector<ClusterFaultEvent>& events, ProtectionMode mode,
                         const ChaosOptions& opt) {
  Scenario s;
  s.name = "host-crash-broken";
  s.events = events;
  s.run_until = opt.window;
  s.expect_recovery = true;
  s.crash_host = 0;
  for (const ClusterFaultEvent& e : events) {
    if (e.kind == FaultKind::kHostCrash) {
      s.crash_host = e.host;
    }
  }
  static const std::atomic<bool> kNeverCancelled{false};
  return RunCell(mode, s, opt, opt.break_recovery, kNeverCancelled);
}

// The --break-recovery entry point: crash host 0 with recovery that skips
// the global invalidation, plus two noise events. The shrinker drops the
// loss burst but, at seed 1, keeps the link flap: a replay of the crash
// alone records no violation, so the oracle only catches this broken
// recovery when the flap also perturbs the incast (a detection gap of the
// scenario, not a shrinker fault).
int RunBrokenRecovery(const ChaosOptions& opt, std::string* output) {
  const TimeNs w = opt.window;
  const ProtectionMode mode = ProtectionMode::kFastSafe;

  std::vector<ClusterFaultEvent> events;
  {
    ClusterFaultEvent crash;
    crash.kind = FaultKind::kHostCrash;
    crash.at = w / 3;
    crash.duration_ns = w / 6;
    crash.host = 0;
    events.push_back(crash);
    ClusterFaultEvent noise_flap;  // irrelevant to the bug; shrink removes it
    noise_flap.kind = FaultKind::kLinkFlap;
    noise_flap.at = w / 8;
    noise_flap.duration_ns = w / 16;
    noise_flap.host = 2;
    events.push_back(noise_flap);
    ClusterFaultEvent noise_loss;  // likewise
    noise_loss.kind = FaultKind::kPacketLossBurst;
    noise_loss.at = w / 2;
    noise_loss.duration_ns = w / 8;
    noise_loss.host = 1;
    noise_loss.probability = 0.1;
    events.push_back(noise_loss);
  }

  std::ostringstream all;
  const CellResult full = RunBrokenCell(events, mode, opt);
  all << full.report;

  int failures = 0;
  if (opt.expect_violation) {
    if (full.violations == 0) {
      all << "EXPECTATION FAILED: broken recovery must be caught by the oracle\n";
      ++failures;
    } else {
      // Any event subsequence replays, so the shared sequence shrinker
      // applies; the failure is only observable at the end of the run.
      const ShrunkSequence<ClusterFaultEvent, CellResult> shrunk = ShrinkSequence(
          events, events.size() - 1, full,
          [&](const std::vector<ClusterFaultEvent>& candidate) {
            return RunBrokenCell(candidate, mode, opt);
          },
          [](const CellResult& r) { return r.violations > 0; });
      const std::vector<ClusterFaultEvent>& minimal = shrunk.ops;
      all << "minimal repro (" << minimal.size() << " of " << events.size()
          << " events, " << shrunk.runs << " shrink runs):\n";
      for (const ClusterFaultEvent& e : minimal) {
        all << "  event " << e.ToString() << "\n";
      }
      if (shrunk.result.violations == 0) {
        all << "EXPECTATION FAILED: shrunken repro no longer violates\n";
        ++failures;
      }
      if (!opt.repro_out.empty()) {
        std::ofstream out(opt.repro_out);
        out << FormatRepro(opt, mode, minimal);
        all << "repro written to " << opt.repro_out << "\n";
      }
    }
  } else if (full.violations == 0) {
    // Without --expect-violation a broken run that somehow passes is an
    // error too — the flag only controls whether we shrink.
    all << "EXPECTATION FAILED: broken recovery must be caught by the oracle\n";
    ++failures;
  }
  all << (failures == 0 ? "BROKEN RECOVERY CAUGHT\n" : "BROKEN RECOVERY MISSED\n");
  *output = all.str();
  return failures;
}

int RunReplay(const std::string& path, ChaosOptions opt, std::string* output) {
  ProtectionMode mode = ProtectionMode::kFastSafe;
  std::vector<ClusterFaultEvent> events;
  if (!ParseRepro(path, &opt, &mode, &events) || events.empty()) {
    *output = "REPLAY FAILED: unreadable repro\n";
    return 1;
  }
  std::ostringstream all;
  all << "replaying " << events.size() << " event(s), mode=" << ModeToken(mode)
      << " seed=" << opt.seed << " window=" << opt.window
      << " break-recovery=" << (opt.break_recovery ? 1 : 0) << "\n";
  const CellResult r = RunBrokenCell(events, mode, opt);
  all << r.report;
  // A repro of a broken recovery must reproduce the violation; a repro of a
  // healthy run must stay clean.
  const bool ok = opt.break_recovery ? r.violations > 0 : r.violations == 0;
  all << (ok ? "REPLAY REPRODUCED\n" : "REPLAY FAILED: behaviour did not reproduce\n");
  *output = all.str();
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  ChaosOptions opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--window") == 0 && i + 1 < argc) {
      opt.window = cli::ParseUint<TimeNs>("fsio_chaos", flag, argv[++i], 1, kMaxWindowNs);
    } else if (std::strcmp(flag, "--seed") == 0 && i + 1 < argc) {
      opt.seed = cli::ParseUint<std::uint64_t>("fsio_chaos", flag, argv[++i]);
    } else if (std::strcmp(flag, "--jobs") == 0 && i + 1 < argc) {
      opt.jobs = cli::ParseUint<unsigned>("fsio_chaos", flag, argv[++i]);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      opt.verbose = true;
    } else if (std::strcmp(argv[i], "--break-recovery") == 0) {
      opt.break_recovery = true;
    } else if (std::strcmp(argv[i], "--tenant-crash") == 0) {
      opt.tenant_crash = true;
    } else if (std::strcmp(argv[i], "--expect-violation") == 0) {
      opt.expect_violation = true;
    } else if (std::strcmp(argv[i], "--repro-out") == 0 && i + 1 < argc) {
      opt.repro_out = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      opt.replay = argv[++i];
    } else if (std::strcmp(argv[i], "--selftest-determinism") == 0) {
      selftest = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--window NS] [--seed S] [--jobs N] [--verbose]\n"
                   "          [--break-recovery [--expect-violation] [--repro-out F]]\n"
                   "          [--tenant-crash] [--replay F] [--selftest-determinism]\n",
                   argv[0]);
      return 2;
    }
  }

  std::string output;
  int failures;
  if (!opt.replay.empty()) {
    failures = RunReplay(opt.replay, opt, &output);
  } else if (opt.tenant_crash) {
    failures = RunTenantCrash(&output);
  } else if (opt.break_recovery) {
    failures = RunBrokenRecovery(opt, &output);
  } else {
    failures = RunSuite(opt, &output);
    if (selftest) {
      std::string second;
      failures += RunSuite(opt, &second);
      if (second != output) {
        std::fprintf(stdout, "%s", output.c_str());
        std::fprintf(stdout, "DETERMINISM FAILED: two same-seed runs diverged\n");
        return 1;
      }
      output += "DETERMINISM OK\n";
    }
  }
  std::fprintf(stdout, "%s", output.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fsio

int main(int argc, char** argv) { return fsio::Main(argc, argv); }
