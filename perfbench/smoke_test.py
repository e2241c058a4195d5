#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at the tiny input size, in
both modes, must pass verification in every round and print exactly the
metrics BENCHMARK.json names, each with its unit.

    python3 perfbench/smoke_test.py

Run from the root of a source tree; builds the benchmark first if needed.
Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in (row["name"] for row in spec["workloads"]):
        for trace, rows in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            try:
                record, result = run(w, trace)
                assert set(result) == {"correct", "attempted", "failed",
                                       "metrics"}, "result keys"
                assert result["correct"] and result["failed"] == 0, (
                    f"verification failed: {record['failures']}")
                assert result["attempted"] >= 1, "no round attempted"
                want = {r["name"]: r["unit"] for r in rows}
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                assert got == want, f"metrics differ: {got} vs {want}"
                for k, m in result["metrics"].items():
                    assert isinstance(m["value"], (int, float)), k
                for key in ("seed", "inputs", "revision", "source_digest"):
                    assert key in record, f"record lacks {key}"
                m = result["metrics"]
                if trace and w == "pagerank-agg-spill":
                    assert m["dfs.spill_runs"]["value"] > 0, "no spill"
                if trace and w == "sssp-session":
                    assert (m["imapreduce.session_epochs"]["value"] ==
                            record["inputs"]["session_updates"]), "epochs"
                print(f"ok   {w} trace={trace} "
                      f"({result['attempted']} rounds)")
            except (AssertionError, ValueError, KeyError, IndexError,
                    subprocess.TimeoutExpired) as e:
                print(f"FAIL {w} trace={trace}: {e}")
                failures.append((w, trace))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
