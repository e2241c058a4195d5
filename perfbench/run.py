#!/usr/bin/env python3
"""Host-clock end-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale full|tiny]

Run from the root of a source tree. The script builds perfbench/ (which
compiles the runtime from ../src) in Release under $CARGO_TARGET_DIR
(default .bench_build), runs the driver, checks that it printed exactly the
metrics BENCHMARK.json names for the chosen mode, and prints two lines:

  1. the full run record: workload, seed, input sizes, source revision,
     rounds, failures, metrics and diagnostics;
  2. the result: {"correct", "attempted", "failed", "metrics"}.

The record is also kept under <build dir>/results/. Exits non-zero, without
a result line, when the build, the driver or the metric check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "imr_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "imr_perfbench"


def revision():
    """Git revision when run in a clone, plus a digest of the sources the
    benchmark builds, so runs of different trees never compare silently."""
    rev = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            rev = done.stdout.strip()
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 1
    want = expected_metrics(args.trace)

    results = out / "results"
    traces = out / "traces"
    results.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("IMR_TRACE", "IMR_LOG")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out-dir", str(traces)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    if done.returncode != 0:
        log(f"driver exited with {done.returncode}")
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("driver printed nothing")
        return 1
    record = json.loads(lines[-1])

    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if got != want:
        log(f"metric set differs from BENCHMARK.json: driver {sorted(got)} "
            f"vs expected {sorted(want)}")
        return 1
    rev, digest = revision()
    record["revision"] = rev
    record["source_digest"] = digest
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
