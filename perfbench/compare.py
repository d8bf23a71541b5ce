#!/usr/bin/env python3
"""Compare two sets of benchmark records, only where the hosts match.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds JSON lines written by `perfbench/run.py --record FILE`. A
record's identity is its workload, its mode (traced or not) and its
fingerprint without git_sha, src_digest and seed: the host (CPU model,
nproc, affinity, LLC size) and the build (compiler, build type, flags,
SOMRM_OBSERVABILITY / SOMRM_NATIVE / SOMRM_CHECKED). Records of one identity
present in both files are compared metric by metric: median and quartile
spread of each side, and the change of the medians. Records whose identity
appears in only one file are listed and not compared. End-to-end metrics
whose median got worse by more than their BENCHMARK.json bound are marked
WORSE; the exit status is 1 when any is.
"""

import json
import os
import statistics
import sys

UNSTAMPED = ("git_sha", "src_digest", "seed")


def identity(record):
    fp = {k: v for k, v in record["fingerprint"].items() if k not in UNSTAMPED}
    return (record["workload"], record["trace"], json.dumps(fp, sort_keys=True))


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                groups.setdefault(identity(record), []).append(record)
    return groups


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    bounds = {}
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    worse = False
    for key in sorted(set(base) | set(new)):
        workload, trace, fp = key
        if key not in base or key not in new:
            side = sys.argv[1] if key in base else sys.argv[2]
            print(f"{workload} trace={trace}: only in {side} "
                  f"(fingerprint {fp}); not compared")
            continue
        print(f"{workload} trace={trace}: {len(base[key])} vs {len(new[key])} runs")
        names = sorted(set(base[key][0]["metrics"]) & set(new[key][0]["metrics"]))
        for name in names:
            b_med, b_spread = summary([r["metrics"][name]["value"] for r in base[key]])
            n_med, n_spread = summary([r["metrics"][name]["value"] for r in new[key]])
            unit = new[key][0]["metrics"][name]["unit"]
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            mark = ""
            if name in bounds:
                sign = 1 if bounds[name]["better"] == "lower" else -1
                if sign * change > bounds[name]["bound"]:
                    mark, worse = "  WORSE", True
            print(f"  {name:28s} {b_med:14.6g} -> {n_med:14.6g} {unit:16s} "
                  f"{change:+8.1%}  spread {b_spread:.1%} / {n_spread:.1%}{mark}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
