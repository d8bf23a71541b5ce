#!/usr/bin/env python3
"""Build and run the somrm benchmark.

Usage, from the root of a somrm checkout:

    python3 perfbench/run.py --workload solve_50k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The first run configures and builds the benchmark program and the somrm
libraries it links (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only rebuild
what changed. The
program's output is passed through: one "name value unit" line per metric, a
fingerprint line, and as the last line a JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). --record FILE appends the full result, fingerprint
included, to FILE as one JSON line (see perfbench/compare.py).

Exit status: 0 on success, 1 when an answer failed its oracle, 2 on a usage
error or when the somrm sources are missing, 3 when the build or the run
failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("solve_50k", "serve_hit_50k", "serve_churn_2k")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """SHA-256 over the library sources and build files (the checkout may
    not be a git repository)."""
    digest = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            fail(3, "build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, root, build_dir, args, workload, fingerprint_args):
    scratch = os.path.join(build_dir, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch-dir", scratch,
           "--trace-out", os.path.join(build_dir,
                                       f"trace-{workload}-{args.seed}.json")]
    cmd += fingerprint_args
    if args.record:
        cmd += ["--record", os.path.abspath(args.record)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode not in (0, 1):
        fail(3, f"{workload}: benchmark program exited with status "
             f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(3, f"{workload}: malformed result line")
    want = expected_metrics(root, args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail(3, f"{workload}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ want)}")
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", help="append full results to this JSONL file")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(2, f"no somrm sources in {root} ({needed} is missing)")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)),
                             "perfbench")
    binary = build(root, build_dir)
    fingerprint_args = ["--git-sha", git_sha(root),
                        "--src-digest", source_digest(root)]

    if args.workload != "all":
        _, code = run_one(binary, root, build_dir, args, args.workload,
                          fingerprint_args)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        result, code = run_one(binary, root, build_dir, args, workload,
                               fingerprint_args)
        status = max(status, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(status)


if __name__ == "__main__":
    main()
