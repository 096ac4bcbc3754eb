"""Tests of the simulator-speed benchmark's metrics, output check and comparator.

    python3 -m unittest discover -s bench/perf -p 'test_*.py'

They use synthetic perf_sim results, so nothing is built or simulated.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import perflib

PROBES = [
    "simcore.host_ns_per_event", "pcie.host_ns_per_tlp", "mem.host_ns_per_access",
    "cache.host_ns_per_lookup", "cache.host_ns_per_insert",
    "cache.host_ns_per_invalidate_range", "iommu.host_ns_per_translate",
    "pagetable.host_ns_per_map", "pagetable.host_ns_per_unmap",
    "iova.host_ns_per_alloc_free", "driver.host_ns_per_map_unmap",
]


def fake_raw(traced=False, workload="bulk_strict"):
    host = {"host.app_rx_bytes": 4_000_000_000, "pcie.write_tlps": 15_000_000,
            "pcie.read_tlps": 500_000, "iommu.translations": 15_500_000,
            "iommu.iotlb_miss": 1_500_000, "dma.map_ops": 1_400_000,
            "dma.unmap_ops": 1_400_000, "nic.rx_packets": 1_000_000,
            "iova.cache_hits": 999, "iova.cache_misses": 1}
    # The host-speed reference loop takes its nominal 2 ms throughout, so
    # reference-speed times equal wall times.
    run = {"traced": 0, "run_s": 9.0, "slice_ms": [20.0 + (i % 7) * 0.1 for i in range(450)],
           "ref_ms": [] if traced else [2.0] * 58, "events": 10_000_000, "window_allocations": 0, "arena_growth": 0, "pending_events": 900,
           "cpu_busy_ns": [1_000_000_000, 2_000_000_000], "hosts": [dict(host), dict(host)],
           "switch": {}, "rpc_requests": 0, "rpc_latency_ns": {"p50": 0, "p99.9": 0, "max": 0},
           "digest": "00000000000000aa"}
    raw = {"workload": workload, "seed": 1, "sim_ms": 450, "cores": 5, "warmup_ms": 10,
           "inputs_digest": "0", "compiler": "gcc 12.2.0", "build_type": "RelWithDebInfo",
           "sim_threads": 1, "ref_nominal_ms": 2.0, "ref_every": 8,
           "setup_s": [0.2, 0.21, 0.19, 0.2, 0.22],
           "setup_ref_ms": [] if traced else [2.0] * 6,
           "setup_digests": ["5"] * 5, "runs": [run], "peak_rss_kb": 45_000}
    if traced:
        second = copy.deepcopy(run)
        second["traced"] = 1
        second["run_s"] = 9.5
        second["trace_events"] = 1_000_000
        raw["runs"].append(second)
        raw["probes"] = {name: 50.0 for name in PROBES}
    return raw


class MetricNamesTest(unittest.TestCase):
    def test_benchmark_json_lists_exactly_the_reported_metrics(self):
        spec = json.loads(perflib.BENCHMARK_JSON.read_text())
        gated = [m["name"] for m in spec["end_to_end"]]
        self.assertEqual(sorted(gated + list(perflib.UNGATED)),
                         sorted(perflib.end_to_end(fake_raw())))
        self.assertIn("setup_s", gated)
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]),
                         sorted(perflib.per_layer(fake_raw(traced=True))))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(perflib.SIM_MS_PER_HOST_S))

    def test_every_run_has_enough_slices_for_p90(self):
        for workload in perflib.SIM_MS_PER_HOST_S:
            self.assertGreaterEqual(perflib.sim_ms_for(workload, 1), perflib.MIN_SLICES)

    def test_end_to_end_values(self):
        raw = fake_raw()
        raw["runs"][0]["slice_ms"][-5:] = [30.0] * 5  # the slowest 1.1 % of 450 slices
        m = perflib.end_to_end(raw)
        self.assertAlmostEqual(m["setup_s"][0], 0.2)
        self.assertAlmostEqual(m["sim_goodput_gbps"][0], 4e9 * 8 / 450e6)
        self.assertAlmostEqual(m["host_ms_per_sim_ms.p90"][0], 20.6)
        self.assertAlmostEqual(m["host_ms_per_sim_ms.p99"][0], 30.0)
        self.assertAlmostEqual(m["host_ms_per_sim_ms.ref_p50"][0], 20.3)
        self.assertAlmostEqual(m["setup_wall_s"][0], 0.2)

    def test_reference_speed_metrics_divide_out_host_speed(self):
        # The whole run on a host twice as slow: wall times double, the
        # reference loop takes twice as long, reference-speed times stay.
        raw, slow = fake_raw(), fake_raw()
        run = slow["runs"][0]
        run["slice_ms"] = [2 * v for v in run["slice_ms"]]
        run["ref_ms"] = [2 * v for v in run["ref_ms"]]
        slow["setup_s"] = [2 * v for v in slow["setup_s"]]
        slow["setup_ref_ms"] = [2 * v for v in slow["setup_ref_ms"]]
        m, s = perflib.end_to_end(raw), perflib.end_to_end(slow)
        for name in ("host_ms_per_sim_ms.ref_p50", "setup_s"):
            self.assertAlmostEqual(s[name][0], m[name][0])
        for name in ("host_ms_per_sim_ms.p50", "setup_wall_s"):
            self.assertAlmostEqual(s[name][0], 2 * m[name][0])

    def test_a_short_slow_episode_does_not_move_the_reference_scale(self):
        raw = fake_raw()
        refs = raw["runs"][0]["ref_ms"]
        refs[:5] = [6.0] * 5  # 5 of 58 loops ran while the host was slow
        self.assertAlmostEqual(perflib.reference_scale(raw, refs), 1.0)
        refs[:] = [4.0] * len(refs)
        self.assertAlmostEqual(perflib.reference_scale(raw, refs), 0.5)

    def test_unattributed_time_subtracts_probe_priced_calls(self):
        m = perflib.per_layer(fake_raw(traced=True))
        calls = 10_000_000 + 2 * 15_500_000 + 2 * 15_500_000 + 2 * 1_400_000
        self.assertAlmostEqual(m["core.host_s_unattributed"][0], 9.0 - 50.0 * calls * 1e-9)
        self.assertAlmostEqual(m["trace.overhead_s"][0], 0.5)


class OutputCheckTest(unittest.TestCase):
    def assert_fails(self, raw, expected=None, needle=""):
        failures = perflib.check_run(raw, expected)
        self.assertTrue(failures, "check passed but should have failed")
        self.assertIn(needle, " ".join(failures))

    def test_correct_runs_pass(self):
        self.assertEqual(perflib.check_run(fake_raw(), None), [])
        self.assertEqual(perflib.check_run(fake_raw(traced=True), "00000000000000aa"), [])

    def test_recorded_digest_mismatch_fails(self):
        self.assert_fails(fake_raw(), "00000000000000bb", "recorded")

    def test_traced_digest_differing_from_untraced_fails(self):
        raw = fake_raw(traced=True)
        raw["runs"][1]["digest"] = "00000000000000cc"
        self.assert_fails(raw, None, "differs from untraced")

    def test_traced_run_without_trace_events_fails(self):
        raw = fake_raw(traced=True)
        raw["runs"][1]["trace_events"] = 0
        self.assert_fails(raw, None, "tracer emitted no events")

    def test_nondeterministic_setup_fails(self):
        raw = fake_raw()
        raw["setup_digests"][3] = "6"
        self.assert_fails(raw, None, "setup state differs")

    def test_safety_violation_fails(self):
        raw = fake_raw()
        raw["runs"][0]["hosts"][1]["iommu.stale_iotlb_use"] = 1
        self.assert_fails(raw, None, "safety_violations")

    def test_event_allocation_in_window_fails(self):
        raw = fake_raw()
        raw["runs"][0]["window_allocations"] = 2
        self.assert_fails(raw, None, "event-queue allocations")

    def test_missing_slices_fail(self):
        raw = fake_raw()
        raw["runs"][0]["slice_ms"] = raw["runs"][0]["slice_ms"][:-1]
        self.assert_fails(raw, None, "slices")

    def test_failed_or_missing_reference_samples_fail(self):
        raw = fake_raw()
        raw["runs"][0]["ref_ms"][7] = -1.0
        self.assert_fails(raw, None, "host-speed reference")
        raw = fake_raw()
        raw["runs"][0]["ref_ms"].pop()
        self.assert_fails(raw, None, "host-speed reference")
        raw = fake_raw()
        raw["setup_ref_ms"] = raw["setup_ref_ms"][:-1]
        self.assert_fails(raw, None, "host-speed reference")

    def test_rpc_run_without_requests_fails(self):
        self.assert_fails(fake_raw(workload="rpc_small"), None, "no RPC completed")

    def test_digests_agree_only_when_every_build_and_run_agrees(self):
        self.assertTrue(perflib.digests_agree(fake_raw(traced=True)))
        raw = fake_raw()
        raw["setup_digests"][0] = "6"
        self.assertFalse(perflib.digests_agree(raw))
        raw = fake_raw(traced=True)
        raw["runs"][1]["digest"] = "00000000000000cc"
        self.assertFalse(perflib.digests_agree(raw))
        # An event allocation fails the check but leaves the state digest usable.
        raw = fake_raw()
        raw["runs"][0]["window_allocations"] = 1
        self.assertTrue(perflib.check_run(raw, None))
        self.assertTrue(perflib.digests_agree(raw))

    def test_recorded_digests_file_is_well_formed(self):
        data = json.loads(perflib.DIGESTS_JSON.read_text())
        self.assertEqual(data["default_seed"], perflib.DEFAULT_SEED)
        self.assertNotIn(data["default_seed"], data["held_out_seeds"])
        for key, digest in data["digests"].items():
            workload, seed, sim_ms = key.split("/")
            self.assertIn(workload, perflib.SIM_MS_PER_HOST_S)
            self.assertTrue(seed.isdigit() and sim_ms.isdigit())
            self.assertEqual(len(digest), 16)


class ComparatorTest(unittest.TestCase):
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]

    def test_same_runs_are_no_worse(self):
        self.assertEqual(perflib.verdict(self.base, list(self.base), "lower", 0.1), "no worse")

    def test_slower_runs_are_worse(self):
        slower = [v * 1.3 for v in self.base]
        self.assertEqual(perflib.verdict(self.base, slower, "lower", 0.1), "worse")
        self.assertEqual(perflib.verdict(self.base, [v * 0.7 for v in self.base], "higher", 0.1),
                         "worse")

    def test_faster_runs_are_better(self):
        self.assertEqual(perflib.verdict(self.base, [v * 0.8 for v in self.base], "lower", 0.1),
                         "better")

    def test_wide_spread_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 13.0, 10.0, 6.0, 14.0, 9.0, 12.0, 11.0]
        self.assertEqual(perflib.verdict(self.base, noisy, "lower", 0.1), "unresolved")

    def test_compare_cli_fails_on_a_worse_metric(self):
        spec = json.loads(perflib.BENCHMARK_JSON.read_text())
        with tempfile.TemporaryDirectory() as tmp:
            dirs = {side: Path(tmp) / side for side in ("base", "same", "worse")}
            for side, directory in dirs.items():
                directory.mkdir()
                for i, v in enumerate(self.base):
                    factor = 1.5 if side == "worse" else 1.0
                    metrics = {m["name"]: v for m in spec["end_to_end"]}
                    metrics.update({name: v for name in perflib.UNGATED})
                    metrics["setup_s"] = v * factor
                    for w in spec["workloads"]:
                        result = {"workload": w["name"], "trace": 0, "correct": True,
                                  "metrics": metrics}
                        (directory / f"{w['name']}-{i}.json").write_text(json.dumps(result))
            # A failed-check run is left out, whatever its timings.
            (dirs["same"] / "failed.json").write_text(json.dumps(
                {"workload": "bulk_strict", "trace": 0, "correct": False,
                 "metrics": {"setup_s": 99.0}}))
            rows = perflib.compare(dirs["base"], dirs["same"], spec)
            self.assertEqual({r["verdict"] for r in rows}, {"no worse"})
            self.assertEqual({r["metric"] for r in rows if not r["gated"]}, set(perflib.UNGATED))
            cli = [sys.executable, str(perflib.PERF_DIR / "compare.py")]
            self.assertEqual(subprocess.run(cli + [str(dirs["base"]), str(dirs["same"])],
                                            capture_output=True).returncode, 0)
            worse = subprocess.run(cli + [str(dirs["base"]), str(dirs["worse"])],
                                   capture_output=True, text=True)
            self.assertEqual(worse.returncode, 1)
            self.assertIn("worse", worse.stdout)


class RunScriptTest(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(perflib.BENCHMARK_JSON, tmp)
            shutil.copytree(perflib.PERF_DIR, Path(tmp) / "bench" / "perf",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/perf/run.py", "--workload", "bulk_strict",
                 "--seed", "1", "--seconds", "10", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
