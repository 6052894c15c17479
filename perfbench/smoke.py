"""Smoke test of the benchmark at tiny size.

    python3 perfbench/smoke.py

Runs all four workloads at ``--size tiny``, untraced and twice traced, and
checks that every metric named in BENCHMARK.json is emitted for every
workload, that no invocation failed, and that the counts repeat exactly
between the two traced runs. It also checks that run.py refuses to run, with
a non-zero exit and no result line, in a directory without ``src/``.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = ("gmm.estep_calls", "refnet.sgd_steps", "geometry.sample_calls",
          "core.load_features_calls", "metrics.auroc_calls")


def bench(trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "all",
         "--size", "tiny", "--seconds", "0.1", "--seed", "3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    results = {}
    for trace, group in ((0, "end_to_end"), (1, "per_layer"), (1, None)):
        proc = bench(trace)
        if proc.returncode != 0:
            problems.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-400:]}")
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if not last["correct"] or last["failed"] != 0 or last["attempted"] < 1:
            problems.append(f"trace {trace}: correct={last['correct']} "
                            f"failed={last['failed']}/{last['attempted']}")
        if group is None:
            for wl in workloads:
                for c in COUNTS:
                    a = results[wl + "." + c]["value"]
                    b = last["metrics"][wl + "." + c]["value"]
                    if a != b:
                        problems.append(f"{wl}.{c} did not repeat: {a} then {b}")
            continue
        for wl in workloads:
            for m in spec[group]:
                got = last["metrics"].get(f"{wl}.{m['name']}")
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{wl}: metric {m['name']} missing or unit differs")
        results.update(last["metrics"])

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench(0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py did not refuse a directory without src/")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
