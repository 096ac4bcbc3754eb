#!/usr/bin/env python3
"""Simulator-speed benchmark: one run of one workload.

    python3 bench/perf/run.py --workload bulk_strict --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds bench/perf (and with it the simulator
libraries from src/) into .bench_build/perf, runs perf_sim once, checks its
simulated output, prints every metric by name with its unit, writes a
result file with an environment stamp to .bench_build/results/, and prints
as its last line one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See bench/perf/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import perflib

BUILD_DIR = perflib.ROOT / ".bench_build" / "perf"
RESULTS_DIR = perflib.ROOT / ".bench_build" / "results"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (perflib.ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {perflib.ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perf_build.log"
    steps = [
        ["cmake", "-S", str(perflib.PERF_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "perf_sim", "-j", "4"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {step[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return BUILD_DIR / "perf_sim"


def environment(raw):
    try:
        sha = subprocess.run(["git", "-C", str(perflib.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "unavailable"
    digest = hashlib.sha256()
    for top in ("src", "bench/perf"):
        for path in sorted((perflib.ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(perflib.ROOT)).encode())
                digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "nproc": os.cpu_count(),
        "sim_threads": raw["sim_threads"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(perflib.SIM_MS_PER_HOST_S))
    parser.add_argument("--seed", type=int, default=perflib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    binary = build()
    sim_ms = perflib.sim_ms_for(args.workload, args.seconds, args.trace)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--sim-ms", str(sim_ms), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perf_sim did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perf_sim exited {proc.returncode}: {proc.stderr.strip()}")
    raw = json.loads(proc.stdout)

    expected = perflib.recorded_digest(args.workload, args.seed, sim_ms)
    failures = perflib.check_run(raw, expected)
    attempted = len(raw["runs"])
    failed = min(attempted, len(failures))
    metrics = perflib.per_layer(raw) if args.trace else perflib.end_to_end(raw)
    extras = perflib.report_only(raw)
    extras["check_failures"] = (failed, "count")

    print(f"workload {args.workload}  seed {args.seed}  inputs {raw['inputs_digest']}  "
          f"sim {sim_ms} ms after {raw['warmup_ms']} ms warmup  trace {args.trace}")
    digest = raw["runs"][0]["digest"]
    if expected is None:
        digest_note = "no recorded digest for this seed"
    elif digest == expected:
        digest_note = "matches recorded"
    else:
        digest_note = f"DIFFERS from recorded {expected}"
    print(f"simulated-output digest {digest} ({digest_note})")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name:38s} {value:>16.6g} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "sim_ms": sim_ms, "trace": args.trace, "correct": not failures,
        "failures": failures, "digest": digest,
        "digests_agree": perflib.digests_agree(raw),
        "inputs_digest": raw["inputs_digest"], "env": environment(raw),
        # A run whose check failed keeps no timings, so compare.py skips it.
        "metrics": {} if failures else {k: v for k, (v, _) in metrics.items()},
        "report_only": {k: v for k, (v, _) in extras.items()},
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (RESULTS_DIR / name).write_text(json.dumps(result, indent=1) + "\n")

    # The result line always names every metric BENCHMARK.json lists for
    # this mode; "correct" says whether to use them.
    spec = json.loads(perflib.BENCHMARK_JSON.read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                                  for name in listed}}))


if __name__ == "__main__":
    main()
