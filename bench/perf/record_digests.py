#!/usr/bin/env python3
"""Records simulated-output digests from run.py result files.

    python3 bench/perf/record_digests.py .bench_build/results/*.json

Adds each result's digest to digests.json under "<workload>/<seed>/<sim_ms>"
if every build and run of that result reached the same simulated state. A
result that failed another part of the output check (for example event
allocations in the window, which do not change the simulated state) still
has its digest recorded. Exits 1 without writing if two results of the
same key disagree, or if a result disagrees with a recorded digest: the
simulator must give every run of one input the same output.
"""

import json
import sys
from pathlib import Path

import perflib


def main():
    data = json.loads(perflib.DIGESTS_JSON.read_text())
    digests = data["digests"]
    conflicts = []
    for path in sys.argv[1:]:
        result = json.loads(Path(path).read_text())
        if not result.get("digests_agree"):
            continue
        key = f"{result['workload']}/{result['seed']}/{result['sim_ms']}"
        if digests.setdefault(key, result["digest"]) != result["digest"]:
            conflicts.append(f"{path}: {key} digest {result['digest']} != {digests[key]}")
    if conflicts:
        print("\n".join(conflicts), file=sys.stderr)
        sys.exit(1)
    data["digests"] = dict(sorted(digests.items()))
    perflib.DIGESTS_JSON.write_text(json.dumps(data, indent=1) + "\n")
    print(f"{len(digests)} digests recorded")


if __name__ == "__main__":
    main()
