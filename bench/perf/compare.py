#!/usr/bin/env python3
"""Compares two sets of simulator-speed benchmark runs.

    python3 bench/perf/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (.bench_build/results/
by default; copy them aside per commit). Only untraced runs whose output
check passed count. Prints one row per workload x end-to-end metric: each
side's run count, median and quartiles, and a verdict against the metric's
bound in BENCHMARK.json: better, no worse, worse, or unresolved when the
run-to-run spread is wider than the bound. Metrics BENCHMARK.json does not
gate (perflib.UNGATED) are judged against perflib.UNGATED_BOUND and marked.
Exits 1 if any gated row is worse or missing, else 0.
"""

import argparse
import json
import sys

import perflib


def fmt(q):
    return "-" if q is None else f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir")
    parser.add_argument("new_dir")
    args = parser.parse_args()
    spec = json.loads(perflib.BENCHMARK_JSON.read_text())
    rows = perflib.compare(args.base_dir, args.new_dir, spec)
    print(f"{'workload':14s} {'metric':24s} {'n':>5s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} verdict")
    for r in rows:
        n = f"{r['n_base']}/{r['n_new']}"
        gated = "" if r["gated"] else " (not gated)"
        print(f"{r['workload']:14s} {r['metric']:24s} {n:>5s} {fmt(r['base']):34s} "
              f"{fmt(r['new']):34s} {r['verdict']}{gated}")
    bad = [r for r in rows if r["gated"] and r["verdict"] in ("worse", "missing")]
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
