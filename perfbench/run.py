"""End-to-end benchmark of the oodkit command line.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

Run from the repository root. Each workload is a closed loop with a single
client: one ``oodkit`` CLI child at a time, the next spawned only after the
previous one has exited. A round is one pass over the workload's CLI
invocations; rounds repeat until ``--seconds`` have passed. Inputs come from
``inputs.py`` for ``--seed``; one untimed warm-up round fills the file cache
and ``__pycache__`` and has its output checked against an independent numpy
recomputation (``checks.py``). Every later output must be byte-identical to
the warm-up's.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates plain
and traced rounds and reports the per-layer metrics of ``tracing.py``, with
the tracing overhead as traced minus plain round wall time. The last line of
standard output is one JSON object: correct, attempted, failed, metrics. The
full record, with samples and the machine description, goes to
``perfbench/out/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("score", "fit-gmm", "region-mc", "experiments")
EPSILON = 0.05
# Run to convergence from k-means++, EM takes 6 iterations on some input
# seeds and 37-54 on others. A fixed iteration budget (rel_tol too small to
# stop early) keeps the work the same on every seed; gmm.estep_calls in the
# traced run shows the count.
EM_ITERATIONS = 6
EM_REL_TOL = "1e-12"
CF_STRUCTURES = ("optimal", "trainable", "sandwich", "stack", "lopsided")
CF_BATCH = 64  # fixed inside run_counterfactual
DEPTHS = (1, 4)
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, True when lower is better)
END_TO_END = {
    "wall_s": ("s", True),
    "setup_s": ("s", True),
    "items_per_s": ("items/s", False),
    "cpu_s": ("s", True),
    "peak_rss_mb": ("MB", True),
}


@dataclass
class Invocation:
    args: list
    outdir: str
    check: object  # outdir -> list of problems


@dataclass
class Workload:
    item: str
    items: int
    invocations: list
    sha256: dict = field(default_factory=dict)


def _experiment_sizes(size: inputs.Size) -> dict:
    if size is inputs.TINY:
        return {"structures": CF_STRUCTURES[:2], "seeds": 2, "cf_epochs": 2,
                "depths": (1, 2), "ds_epochs": 2, "n_per_class": 50}
    return {"structures": CF_STRUCTURES, "seeds": 5, "cf_epochs": 50,
            "depths": DEPTHS, "ds_epochs": 30, "n_per_class": 200}


def build_workload(name: str, seed: int, size: inputs.Size) -> Workload:
    work = os.path.join(OUT, "work", name)

    def outdir(verb):
        return os.path.join(work, verb)

    if name == "experiments":
        e = _experiment_sizes(size)
        seeds = ",".join(str(seed * 10 + i) for i in range(e["seeds"]))
        batches = math.ceil(3 * e["n_per_class"] / CF_BATCH)
        cf = ["counterfactual", "--structures", ",".join(e["structures"]),
              "--seeds", seeds, "--epochs", str(e["cf_epochs"]),
              "--n-per-class", str(e["n_per_class"]), "--out", "counterfactual.json"]
        ds = ["depth-study", "--depths", ",".join(map(str, e["depths"])),
              "--seeds", seeds, "--epochs", str(e["ds_epochs"]),
              "--n-per-class", str(e["n_per_class"]), "--batch-size", str(CF_BATCH),
              "--out", "depth_study.json"]
        steps = batches * e["seeds"] * (len(e["structures"]) * e["cf_epochs"]
                                        + len(e["depths"]) * e["ds_epochs"])
        return Workload("SGD step", steps, [
            Invocation(cf, outdir("counterfactual"), lambda d: checks.check_counterfactual(
                d, e["structures"], e["seeds"])),
            Invocation(ds, outdir("depth-study"), lambda d: checks.check_depth_study(
                d, e["depths"], e["seeds"])),
        ])

    inp = inputs.generate(seed, size, os.path.join(work, "inputs"))
    feats, head = ["--features", inp.features_path], ["--head", inp.head_path]
    if name == "score":
        args = ["score", *feats, *head, "--gmm", inp.gmm_path, "--format", "csv",
                "--out", "scores.csv"]
        inv = Invocation(args, outdir("score"), lambda d: checks.check_score(d, inp))
        items, item = size.n, "row scored"
    elif name == "fit-gmm":
        args = ["fit-gmm", *feats, "--init", "kmeans_pp", "--k-components", str(size.k),
                "--seed", "0", "--max-iter", str(EM_ITERATIONS), "--rel-tol", EM_REL_TOL,
                "--out", "gmm.json"]
        inv = Invocation(args, outdir("fit-gmm"), lambda d: checks.check_fit_gmm(d, inp))
        items, item = size.n, "row fitted"
    elif name == "region-mc":
        args = ["region", "--kind", "linear", *head, *feats, "--epsilon", str(EPSILON),
                "--mass-samples", str(size.mass_samples), "--out", "region.json"]
        inv = Invocation(args, outdir("region"), lambda d: checks.check_region(
            d, inp, EPSILON, size.mass_samples))
        items, item = size.mass_samples, "MC sample classified"
    else:
        raise SystemExit(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Workload(item, items, [inv], inp.sha256)


# ---------------------------------------------------------------------------
# one child process
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    ok: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    report: dict = field(default_factory=dict)
    stderr: str = ""
    output_sha256: str = ""
    problem: str = ""


def _hash_dir(d: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(d, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(inv: Invocation, traced: bool, timeout: float) -> Sample:
    """Run one CLI child and time it from spawn to exit."""
    os.makedirs(inv.outdir, exist_ok=True)
    for name in os.listdir(inv.outdir):
        os.remove(os.path.join(inv.outdir, name))
    logs = inv.outdir + ".logs"
    os.makedirs(logs, exist_ok=True)
    report_path = os.path.join(logs, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), CHILD,
           report_path, "traced" if traced else "plain", *inv.args, "--outdir", inv.outdir]
    stderr_path = os.path.join(logs, "stderr.txt")
    with open(os.path.join(logs, "stdout.txt"), "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=_child_env())
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, errors="replace") as f:
        stderr = f.read()
    s = Sample(ok=False, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024.0, stderr=stderr)
    if proc.returncode != 0:
        s.problem = f"exit code {proc.returncode}: {stderr.strip()[-400:]}"
        return s
    try:
        with open(report_path) as f:
            s.report = json.load(f)
    except (OSError, ValueError) as e:
        s.problem = f"no child report: {e}"
        return s
    if not os.path.abspath(s.report["oodkit_file"]).startswith(SRC + os.sep):
        s.problem = f"imported oodkit from {s.report['oodkit_file']}, not {SRC}"
        return s
    s.setup_s = s.report["ready"] - t0
    s.output_sha256 = _hash_dir(inv.outdir)
    s.ok = True
    return s


# ---------------------------------------------------------------------------
# rounds and metrics
# ---------------------------------------------------------------------------


class Runner:
    """Spawns the rounds of one workload and keeps the failure count."""

    def __init__(self, wl: Workload, start: float):
        self.wl = wl
        self.start = start
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}  # invocation index -> sha256 of the warm-up output

    def round(self, traced: bool, warmup: bool = False):
        """One pass over the invocations; None if any of them failed."""
        samples = []
        for idx, inv in enumerate(self.wl.invocations):
            self.attempted += 1
            s = spawn(inv, traced, RUN_LIMIT_S - (time.perf_counter() - self.start))
            if s.ok and warmup:
                try:
                    problems = inv.check(inv.outdir)
                except Exception as e:  # a malformed output is a failed check
                    problems = [f"output check raised {e!r}"]
                if problems:
                    s.ok, s.problem = False, "; ".join(problems)
                self.reference[idx] = s.output_sha256
            elif s.ok and s.output_sha256 != self.reference.get(idx):
                s.ok, s.problem = False, "output differs from the warm-up run's bytes"
            if not s.ok:
                self.failed += 1
                self.problems.append(f"{inv.args[0]}: {s.problem}")
                return None
            samples.append(s)
        return samples


def round_metrics(samples: list, items: int) -> dict:
    wall = sum(s.wall_s for s in samples)
    setup = sum(s.setup_s for s in samples)
    return {"wall_s": wall, "setup_s": setup,
            "items_per_s": items / (wall - setup),
            "cpu_s": sum(s.cpu_s for s in samples),
            "peak_rss_mb": max(s.peak_rss_mb for s in samples)}


def traced_round_metrics(samples: list, size: inputs.Size) -> dict:
    spans, imports = [], {"oodkit": 0.0, "scipy.stats": 0.0}
    for s in samples:
        offset = len(spans)
        spans.extend([n, a, b, p + offset if p >= 0 else -1, w]
                     for n, a, b, p, w in s.report["spans"])
        for module, t in tracing.import_times(s.stderr).items():
            imports[module] += t
    return tracing.layer_metrics(spans, imports, size)


def tail(values: list, lower_is_better: bool):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None when there are ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    if lower_is_better:
        return 100.0 * (n - 10) / n, ordered[n - 11]
    return 100.0 * 10 / n, ordered[10]


def run_record() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "note": ("'cold' means the first run in a new process, not a cold page "
                 "cache: caches are never dropped. One untimed warm-up round "
                 "per workload warms the file cache and __pycache__; import is "
                 "still paid and measured on every invocation as setup_s."),
        "loop": "closed loop, one client, one CLI child at a time",
    }


def blas_threads():
    """OpenBLAS's default thread count, read from the loaded library."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_rows_per_s", "rows/s"),
                         ("_samples_per_s", "samples/s"), ("_gflops", "GFLOP/s.computed"),
                         ("_us", "us"), ("_ratio", "ratio"), ("_calls", "count"),
                         ("_steps", "count"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name!r}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: inputs.Size) -> dict:
    """Warm up, then run rounds for ``seconds``; return the full record."""
    start = time.perf_counter()
    wl = build_workload(name, seed, size)
    runner = Runner(wl, start)
    plain, traced, traced_walls = [], [], []
    prep_s = None
    if runner.round(traced=False, warmup=True) is not None:
        prep_s = time.perf_counter() - start
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            samples = runner.round(traced=False)
            if samples is None:
                break
            plain.append(round_metrics(samples, wl.items))
            if trace:
                samples = runner.round(traced=True)
                if samples is None:
                    break
                traced.append(traced_round_metrics(samples, size))
                traced_walls.append(sum(s.wall_s for s in samples))

    rounds = traced if trace else plain
    metrics = {k: statistics.median(r[k] for r in rounds) for k in (rounds or [{}])[0]}
    if traced:
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        overhead = statistics.median(traced_walls) - plain_wall
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_ratio"] = overhead / plain_wall
    tails = {}
    if not trace:
        for k, (_, lower) in END_TO_END.items():
            tails[k] = tail([r[k] for r in rounds], lower)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": vars(size), "item": wl.item, "items_per_round": wl.items,
        "invocations": [inv.args for inv in wl.invocations],
        "inputs_sha256": wl.sha256, "prep_s": prep_s,
        "correct": runner.failed == 0 and bool(rounds),
        "attempted": runner.attempted, "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted, "problems": runner.problems,
        "rounds_measured": len(rounds), "metrics": metrics, "tails": tails,
        "rounds": rounds, "plain_rounds": plain if trace else None, "run": run_record(),
    }


def print_table(res: dict) -> None:
    run = res["run"]
    print(f"== {res['workload']} (seed {res['seed']}, trace {res['trace']}): "
          f"{res['rounds_measured']} rounds of {len(res['invocations'])} invocation(s), "
          f"{res['items_per_round']} items ({res['item']}) per round; "
          f"nproc {run['nproc']}, BLAS {run['blas']['name']} {run['blas']['version']} "
          f"threads {run['blas']['threads']}")
    print(f"   {'metric':34s} {'unit':16s} {'median':>14s} {'n':>4s}  tail")
    for k, v in res["metrics"].items():
        t = res["tails"].get(k)
        if k not in res["tails"]:
            tail_text = ""
        elif t is None:
            tail_text = "none (n <= 10)"
        else:
            tail_text = f"p{t[0]:.1f} = {t[1]:.6g}"
        print(f"   {k:34s} {unit_of(k):16s} {v:14.6g} {res['rounds_measured']:4d}  {tail_text}")
    print(f"   {'fail_ratio':34s} {'ratio':16s} {res['fail_ratio']:14.6g} "
          f"{res['attempted']:4d}  (failed / attempted invocations)")
    for p in res["problems"]:
        print(f"   FAILED {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny is the smoke-test size")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oodkit", "cli.py")):
        print(f"oodkit sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    size = inputs.TINY if args.size == "tiny" else inputs.FULL
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), size)
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"{name}-trace{args.trace}.json"), "w") as f:
            json.dump(res, f, indent=1)
        print_table(res)
        results.append(res)
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}." if prefix else "") + k: {"value": v, "unit": unit_of(k)}
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
