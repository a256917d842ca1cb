#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload resnet50-offline|serve-mix|fleet-soak \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the simulator library
and the measuring program from source (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs one seeded
workload for S seconds and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The chip and virtual values a run
produces must repeat exactly on every run of the same seed: they are
kept under the build directory and every later run of that seed is
checked against them, each difference counting as a failed operation.
The host fingerprint of every run is printed and archived with its
result there too.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("resnet50-offline", "serve-mix", "fleet-soak")
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 850.0
APPROX_REL_TOL = 1e-9


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the measuring program."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("simulator sources (src/) not found; run from a full checkout")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "tsp_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S, check=False)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return build_dir / "tsp_perfbench"


def same(a, b, tol):
    if tol == 0.0:
        return a == b
    return abs(a - b) <= tol * max(abs(a), abs(b))


def cross_check(record_path, doc):
    """Checks this run's exact values against earlier runs of the seed.

    Returns (attempted, failed) and extends the record with new names."""
    record = {"exact": {}, "approx": {}}
    if record_path.is_file():
        record = json.loads(record_path.read_text())
    attempted = failed = 0
    for kind, tol in (("exact", 0.0), ("approx", APPROX_REL_TOL)):
        seen = record.setdefault(kind, {})
        for name, value in doc.get(kind, {}).items():
            if name in seen:
                attempted += 1
                if not same(seen[name], value, tol):
                    failed += 1
                    log(f"determinism: {name} was {seen[name]!r} on an "
                        f"earlier run of this seed, now {value!r}")
            else:
                seen[name] = value
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = build(out_dir / "perfbench")
    if exe is None:
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    trace_path = out_dir / "traces" / f"{tag}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S, check=False)
    except subprocess.TimeoutExpired:
        log("measuring program timed out")
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"measuring program failed (exit {done.returncode})")
        return 3
    doc = json.loads(lines[-1])
    host = next((json.loads(x[5:]) for x in lines if x.startswith("host ")),
                {})

    missing = [n for n in wanted if n not in doc["metrics"]]
    if missing:
        log("metrics missing from the program's report: " + ", ".join(missing))
        return 4
    # Records are per program build: a rebuilt program starts afresh.
    build_id = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    attempted, failed = cross_check(
        out_dir / "records" / build_id / f"{tag}.json", doc)
    for reason in doc.get("failures", []):
        log("check failed: " + reason)

    result = {
        "correct": bool(doc["correct"]) and failed == 0,
        "attempted": int(doc["attempted"]) + attempted,
        "failed": int(doc["failed"]) + failed,
        "metrics": {n: doc["metrics"][n] for n in wanted},
    }
    archive = out_dir / "results" / (
        f"{tag}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    archive.parent.mkdir(parents=True, exist_ok=True)
    archive.write_text(json.dumps({"host": host, "result": result,
                                   "exact": doc.get("exact", {}),
                                   "approx": doc.get("approx", {})},
                                  indent=1, sort_keys=True))
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
