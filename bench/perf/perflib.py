"""Metrics, output checks and the run comparator of the simulator-speed benchmark.

run.py turns one raw perf_sim result into the named metrics and checks it;
compare.py compares two sets of result files. Both use this module, and
test_perf.py tests it without building the simulator.
"""

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PERF_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DIGESTS_JSON = PERF_DIR / "digests.json"

# Measured simulated span per host second of the run: fixed per workload so
# a run's simulated output depends only on (workload, seed, seconds). Set so
# a run takes about --seconds on a 4-core x86 container; at least
# MIN_SLICES 1 ms slices are always measured.
SIM_MS_PER_HOST_S = {"bulk_strict": 45, "bulk_fastsafe": 55, "rpc_small": 45}
MIN_SLICES = 100
DEFAULT_SEED = 1


def sim_ms_for(workload, seconds, trace=0):
    """Simulated span of one measured run. A traced run makes two of them
    (untraced and traced), each a third as long, plus the probes."""
    host_s = seconds / 3 if trace else seconds
    return max(MIN_SLICES, round(host_s * SIM_MS_PER_HOST_S[workload]))


def nearest_rank(values, p):
    """Nearest-rank percentile (p in (0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _get(counters, name):
    return counters.get(name, 0)


def _ratio(a, b):
    return a / b if b else 0.0


def _both(raw_run, name):
    return sum(_get(h, name) for h in raw_run["hosts"])


# End-to-end metrics that every untraced run prints and compare.py compares,
# but that BENCHMARK.json does not gate: the wall times as measured. On a
# shared machine the same code's wall time moves by up to 2x from minute to
# minute with the load other tenants put on the memory system, so their
# spread can pass the largest bound a gate may use. The gated host-time
# metrics are times at reference host speed (reference_scale).
# compare.py judges these against this bound.
UNGATED = {"run_s": "lower", "host_ms_per_sim_ms.p50": "lower",
           "host_ms_per_sim_ms.p90": "lower", "host_ms_per_sim_ms.p99": "lower",
           "setup_wall_s": "lower"}
UNGATED_BOUND = 0.25


def reference_scale(raw, ref_ms):
    """Factor that rescales a median wall time to reference host speed
    (host_speed.h): the nominal time of the host-speed reference loop over
    its median time in `ref_ms`, the loops timed among the measured spans.

    Medians on both sides, because a short slow episode of the host lands
    on the loop or on the measured spans, not on both."""
    return raw["ref_nominal_ms"] / statistics.median(ref_ms)


def end_to_end(raw):
    """End-to-end metrics of an untraced run: {name: (value, unit)}."""
    run = raw["runs"][0]
    span_ns = raw["sim_ms"] * 1e6
    slices = run["slice_ms"]
    return {
        "host_ms_per_sim_ms.ref_p50": (
            statistics.median(slices) * reference_scale(raw, run["ref_ms"]), "ms/ms"),
        "setup_s": (statistics.median(raw["setup_s"]) * reference_scale(raw, raw["setup_ref_ms"]),
                    "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "sim_goodput_gbps": (_get(run["hosts"][1], "host.app_rx_bytes") * 8.0 / span_ns, "Gbps"),
        "run_s": (run["run_s"], "s"),
        "host_ms_per_sim_ms.p50": (statistics.median(slices), "ms/ms"),
        "host_ms_per_sim_ms.p90": (nearest_rank(slices, 90), "ms/ms"),
        "host_ms_per_sim_ms.p99": (nearest_rank(slices, 99), "ms/ms"),
        "setup_wall_s": (statistics.median(raw["setup_s"]), "s"),
    }


def report_only(raw):
    """Figures printed with every run that are not gated metrics."""
    run = raw["runs"][0]
    out = {"host_ms_per_sim_ms.slices": (len(run["slice_ms"]), "count")}
    if run["ref_ms"]:
        out["host_ref_ms"] = (statistics.median(run["ref_ms"]), "ms")
    if len(raw["runs"]) > 1:
        out["trace.events"] = (raw["runs"][1]["trace_events"], "count")
    if run["rpc_requests"]:
        out["sim_rpc_p50_us"] = (run["rpc_latency_ns"]["p50"] / 1e3, "us")
        out["sim_rpc_p99.9_us"] = (run["rpc_latency_ns"]["p99.9"] / 1e3, "us")
        out["sim_rpc_requests"] = (run["rpc_requests"], "count")
    return out


# Host-cost probe -> the counter (summed over both hosts, or the whole
# event queue) whose calls it prices, for core.host_s_unattributed. The
# probes nest: a translate includes its cache lookups and walk reads, a TLP
# its memory accesses, a map/unmap its page table, allocator and
# invalidation work, so these four do not overlap.
ATTRIBUTED = {
    "simcore.host_ns_per_event": "events",
    "pcie.host_ns_per_tlp": "tlps",
    "iommu.host_ns_per_translate": "iommu.translations",
    "driver.host_ns_per_map_unmap": "dma.map_ops",
}


def per_layer(raw):
    """Per-layer metrics of a traced run: {name: (value, unit)}.

    Counts are the measured host's (host 1) counter deltas over the
    measured span, except transport counters, which are summed over both
    hosts because a flow's sender and receiver sit on different hosts.
    """
    untraced, traced = raw["runs"][0], raw["runs"][1]
    h = untraced["hosts"][1]
    probes = raw["probes"]
    span_ns = raw["sim_ms"] * 1e6
    cores = raw["cores"]
    drops = _get(h, "nic.drops_buffer") + _get(h, "nic.drops_nodesc")
    rcache = _get(h, "iova.cache_hits") + _get(h, "iova.cache_misses")
    calls = {
        "events": untraced["events"],
        "tlps": _both(untraced, "pcie.write_tlps") + _both(untraced, "pcie.read_tlps"),
        "iommu.translations": _both(untraced, "iommu.translations"),
        "dma.map_ops": _both(untraced, "dma.map_ops"),
    }
    attributed_s = sum(probes[p] * calls[c] for p, c in ATTRIBUTED.items()) * 1e-9
    m = {
        "simcore.events": (untraced["events"], "count"),
        "simcore.events_per_host_s": (untraced["events"] / untraced["run_s"], "1/s"),
        "simcore.window_allocations": (untraced["window_allocations"], "count"),
        "pcie.tlps": (_get(h, "pcie.write_tlps") + _get(h, "pcie.read_tlps"), "count"),
        "pcie.stall_ns": (_get(h, "pcie.stall_ns"), "ns"),
        "pcie.backpressure_bursts": (_get(h, "pcie.backpressure_bursts"), "count"),
        "mem.accesses": (_get(h, "mem.accesses"), "count"),
        "mem.queued_ns": (_get(h, "mem.queued_ns"), "ns"),
        "iommu.translations": (_get(h, "iommu.translations"), "count"),
        "iommu.iotlb_hit_ratio": (
            1.0 - _ratio(_get(h, "iommu.iotlb_miss"), _get(h, "iommu.translations")), "ratio"),
        "iommu.ptcache_l3_miss": (_get(h, "iommu.ptcache_l3_miss"), "count"),
        "iommu.walk_mem_reads": (_get(h, "iommu.mem_reads"), "count"),
        "iommu.walk_stall_ns": (_get(h, "iommu.walk_stall_ns"), "ns"),
        "iommu.inv_requests": (_get(h, "iommu.inv_requests"), "count"),
        "iommu.inv_queue_wait_ns": (_get(h, "iommu.inv_queue_wait_ns"), "ns"),
        "iova.rcache_hit_ratio": (_ratio(_get(h, "iova.cache_hits"), rcache), "ratio"),
        "iova.tree_allocs": (_get(h, "iova.tree_allocs"), "count"),
        "driver.map_ops": (_get(h, "dma.map_ops"), "count"),
        "driver.unmap_ops": (_get(h, "dma.unmap_ops"), "count"),
        "driver.spin_ns": (_get(h, "dma.spin_ns"), "ns"),
        "nic.rx_packets": (_get(h, "nic.rx_packets"), "count"),
        "nic.tx_packets": (_get(h, "nic.tx_packets"), "count"),
        "nic.drop_ratio": (_ratio(drops, _get(h, "nic.rx_packets") + drops), "ratio"),
        "transport.retransmits": (_both(untraced, "dctcp.retransmits"), "count"),
        "transport.timeouts": (_both(untraced, "dctcp.timeouts"), "count"),
        "host.cpu_utilization": (untraced["cpu_busy_ns"][1] / (span_ns * cores), "ratio"),
        "core.host_s_unattributed": (untraced["run_s"] - attributed_s, "s"),
        "trace.overhead_s": (traced["run_s"] - untraced["run_s"], "s"),
    }
    for name in (
        "simcore.host_ns_per_event", "pcie.host_ns_per_tlp", "mem.host_ns_per_access",
        "cache.host_ns_per_lookup", "cache.host_ns_per_insert",
        "cache.host_ns_per_invalidate_range", "iommu.host_ns_per_translate",
        "pagetable.host_ns_per_map", "pagetable.host_ns_per_unmap",
        "iova.host_ns_per_alloc_free", "driver.host_ns_per_map_unmap",
    ):
        m[name] = (probes[name], "ns")
    return m


def recorded_digest(workload, seed, sim_ms, digests=None):
    """The recorded simulated-output digest for this run, or None."""
    if digests is None:
        digests = json.loads(DIGESTS_JSON.read_text())["digests"]
    return digests.get(f"{workload}/{seed}/{sim_ms}")


def digests_agree(raw):
    """Whether every build and run in one raw result reached the same
    simulated state, so its digest can be recorded for the input."""
    runs = raw["runs"]
    return (len(set(raw["setup_digests"])) == 1
            and all(run["digest"] == runs[0]["digest"] for run in runs))


def check_run(raw, expected_digest):
    """Output check of one raw result. Returns one failure string per run
    whose output is wrong; an empty list means the result is correct."""
    failures = []
    runs = raw["runs"]
    if len(set(raw["setup_digests"])) != 1:
        failures.append(f"setup state differs between rebuilds: {raw['setup_digests']}")
    if len(runs) == 1:
        # An untraced run times the host-speed reference around every build
        # and through the measured span; a negative time means it failed.
        blocks = -(-len(runs[0]["slice_ms"]) // raw["ref_every"])
        refs = raw["setup_ref_ms"] + runs[0]["ref_ms"]
        if (len(raw["setup_ref_ms"]) != len(raw["setup_s"]) + 1
                or len(runs[0]["ref_ms"]) != blocks + 1 or min(refs) <= 0):
            failures.append("host-speed reference samples missing or failed")
    for i, run in enumerate(runs):
        problems = []
        if len(run["slice_ms"]) != raw["sim_ms"] or raw["sim_ms"] < MIN_SLICES:
            problems.append(f"{len(run['slice_ms'])} slices for {raw['sim_ms']} sim ms")
        if run["window_allocations"] != 0:
            problems.append(f"{run['window_allocations']} event-queue allocations in the window "
                            f"(arena grew by {run.get('arena_growth', 0)} records)")
        stale = _both(run, "iommu.stale_iotlb_use") + _both(run, "iommu.stale_ptcache_use")
        if stale != 0:
            problems.append(f"{stale} stale IOTLB/PTcache uses (safety_violations)")
        if _get(run["hosts"][1], "host.app_rx_bytes") == 0:
            problems.append("no application bytes delivered")
        if raw["workload"].startswith("rpc") and run["rpc_requests"] == 0:
            problems.append("no RPC completed")
        if run.get("traced") and run["trace_events"] == 0:
            problems.append("the tracer emitted no events")
        if i > 0 and run["digest"] != runs[0]["digest"]:
            problems.append(f"digest {run['digest']} differs from untraced {runs[0]['digest']}")
        if expected_digest is not None and run["digest"] != expected_digest:
            problems.append(f"digest {run['digest']} != recorded {expected_digest}")
        if problems:
            kind = "traced" if run.get("traced") else "untraced"
            failures.append(f"{kind} run: " + "; ".join(problems))
    return failures


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """Compares two sets of one metric's values.

    Returns "better", "no worse", "worse" or "unresolved" (the run-to-run
    spread of either side is wider than the bound and not every new run
    beats every base run).
    """
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    scale = abs(bmed) or 1.0
    spread = max((bq3 - bq1) / scale, (nq3 - nq1) / (abs(nmed) or 1.0))
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nmed - bmed) / scale  # > 0: the new side is worse
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > (bq3 - bq1) / scale and -worse_by > 0:
        return "better"
    return "no worse"


def load_results(directory):
    """Correct untraced results in `directory`, grouped by workload."""
    by_workload = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") != 0 or not result.get("correct"):
            continue
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def compare(base_dir, new_dir, spec):
    """One row per workload x end-to-end metric (gated ones first): a dict
    with the workload, metric, whether BENCHMARK.json gates it, each side's
    run count and (q1, median, q3), and the verdict."""
    base, new = load_results(base_dir), load_results(new_dir)
    metrics = [(m["name"], m["better"], m["bound"], True) for m in spec["end_to_end"]]
    metrics += [(name, better, UNGATED_BOUND, False) for name, better in UNGATED.items()]
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, better, bound, gated in metrics:
            a = [r["metrics"][name] for r in base.get(workload, []) if name in r["metrics"]]
            b = [r["metrics"][name] for r in new.get(workload, []) if name in r["metrics"]]
            row = {"workload": workload, "metric": name, "gated": gated, "n_base": len(a),
                   "n_new": len(b), "base": None, "new": None, "verdict": "missing"}
            if a and b:
                row.update(base=quartiles(a), new=quartiles(b),
                           verdict=verdict(a, b, better, bound))
            rows.append(row)
    return rows
