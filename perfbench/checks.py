"""Independent checks of each workload's output.

Every check recomputes from the generated inputs with numpy, or tests a
stated invariant, and never calls ``oodkit``. A check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RTOL = 1e-9        # score columns and log densities against the recomputation
ATOL = 1e-9
U_STAR_RTOL = 1e-12  # region u_star against the benchmark's own quantile


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def gmm_log_density(x: np.ndarray, weights, means, covs) -> np.ndarray:
    """log sum_i pi_i N(x; mu_i, Sigma_i) through Cholesky factors."""
    h = x.shape[1]
    comp = np.empty((x.shape[0], len(weights)))
    for i, (w, mu, cov) in enumerate(zip(weights, means, covs)):
        chol = np.linalg.cholesky(cov)
        y = np.linalg.solve(chol, (x - mu).T)
        comp[:, i] = (math.log(w) - 0.5 * h * math.log(2 * math.pi)
                      - np.log(np.diag(chol)).sum() - 0.5 * (y * y).sum(axis=0))
    top = comp.max(axis=1, keepdims=True)
    return (top + np.log(np.exp(comp - top).sum(axis=1, keepdims=True))).ravel()


def _close(name, got, want, problems):
    if got.shape != want.shape:
        problems.append(f"{name}: shape {got.shape}, expected {want.shape}")
    elif not np.allclose(got, want, rtol=RTOL, atol=ATOL):
        worst = float(np.max(np.abs(got - want)))
        problems.append(f"{name}: differs from the recomputation by up to {worst:.3g}")


def check_score(outdir: str, inp) -> list:
    problems = []
    path = os.path.join(outdir, "scores.csv")
    with open(path) as f:
        header = f.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    col = {name: table[:, j] for j, name in enumerate(header)}
    x, w = inp.x, inp.w
    if table.shape[0] != x.shape[0]:
        return [f"scores.csv has {table.shape[0]} rows, expected {x.shape[0]}"]
    missing = {"sample_index", "u_max", "u_entropy", "z_norm", "max_cos",
               "argmax_class", "u_density"} - set(col)
    if missing:
        return [f"scores.csv lacks columns {sorted(missing)}"]
    logits = x @ w
    p = _softmax(logits)
    z_norm = np.linalg.norm(x, axis=1)
    cos = logits / (np.linalg.norm(w, axis=0) * z_norm[:, None])
    g = inp.gmm
    h = x.shape[1]
    covs = [np.asarray(c).reshape(h, h) for c in g["covariances"]]
    density = gmm_log_density(x, g["weights"], np.asarray(g["means"]), covs)
    if not np.array_equal(col["sample_index"], np.arange(x.shape[0])):
        problems.append("sample_index is not 0..N-1")
    _close("u_max", col["u_max"], -p.max(axis=1), problems)
    _close("u_entropy", col["u_entropy"],
           -np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0).sum(axis=1), problems)
    _close("z_norm", col["z_norm"], z_norm, problems)
    _close("max_cos", col["max_cos"], cos.max(axis=1), problems)
    _close("u_density", col["u_density"], -density, problems)
    if not np.array_equal(col["argmax_class"], logits.argmax(axis=1)):
        problems.append("argmax_class differs from the recomputation")
    return problems


def check_fit_gmm(outdir: str, inp) -> list:
    with open(os.path.join(outdir, "gmm.json")) as f:
        g = json.load(f)
    x = inp.x
    n, h = x.shape
    k = int(g["k"])
    weights = np.asarray(g["weights"], dtype=float)
    means = np.asarray(g["means"], dtype=float)
    covs = np.asarray(g["covariances"], dtype=float).reshape(k, h, h)
    problems = []
    if k != inp.size.k or weights.shape != (k,) or means.shape != (k, h):
        return [f"mixture shapes: k={k}, weights {weights.shape}, means {means.shape}"]
    if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
        problems.append("weights are not a strictly positive simplex vector")
    ll = float(gmm_log_density(x, weights, means, covs).sum())
    mu = x.mean(axis=0)
    single = gmm_log_density(x, [1.0], mu[None], [np.cov(x.T, bias=True)
                                                  + float(g["reg"]) * np.eye(h)])
    if not math.isfinite(ll):
        problems.append("log-likelihood is not finite")
    elif ll < float(single.sum()):
        problems.append(f"log-likelihood {ll:.6g} is below the single-Gaussian "
                        f"fit {float(single.sum()):.6g}")
    return problems


def check_region(outdir: str, inp, epsilon: float, mass_samples: int) -> list:
    with open(os.path.join(outdir, "region.json")) as f:
        r = json.load(f)
    problems = []
    u_max = -_softmax(inp.x @ inp.w).max(axis=1)
    rank = max(1, math.ceil(u_max.size * (1.0 - epsilon)))
    u_star = float(np.sort(u_max)[rank - 1])
    if not math.isclose(r["u_star"], u_star, rel_tol=U_STAR_RTOL, abs_tol=0.0):
        problems.append(f"u_star {r['u_star']!r}, expected {u_star!r}")
    k = inp.size.k
    pairs = sorted(tuple(s["pair"]) for s in r["slabs"])
    if pairs != [(i, j) for i in range(k) for j in range(i + 1, k)]:
        problems.append("slabs do not cover every class pair once")
    offsets = [s[key] for s in r["slabs"] for key in ("alpha_lo", "alpha_hi")]
    if not all(math.isfinite(a) and a > 0 for a in offsets):
        problems.append("a slab offset is not positive and finite")
    if not 0.0 < r.get("mc_mass", -1.0) < 1.0 or r.get("mc_samples") != mass_samples:
        problems.append(f"mc_mass {r.get('mc_mass')!r} from {r.get('mc_samples')!r} "
                        "samples is not in (0, 1)")
    return problems


def _aurocs_ok(name, values, n_seeds, problems):
    if len(values) != n_seeds:
        problems.append(f"{name}: {len(values)} AUROCs, expected {n_seeds}")
    elif not all(0.0 <= a <= 1.0 for a in values):
        problems.append(f"{name}: an AUROC lies outside [0, 1]")


def check_counterfactual(outdir: str, structures, n_seeds: int) -> list:
    with open(os.path.join(outdir, "counterfactual.json")) as f:
        got = json.load(f)["structures"]
    problems = []
    if sorted(got) != sorted(structures):
        problems.append(f"structures {sorted(got)}, expected {sorted(structures)}")
    for kind, entry in got.items():
        _aurocs_ok(f"counterfactual {kind}", entry["auroc_per_seed"], n_seeds, problems)
    return problems


def check_depth_study(outdir: str, depths, n_seeds: int) -> list:
    with open(os.path.join(outdir, "depth_study.json")) as f:
        rows = json.load(f)["rows"]
    problems = []
    if [row["depth"] for row in rows] != list(depths):
        problems.append(f"depths {[row['depth'] for row in rows]}, expected {list(depths)}")
    for row in rows:
        _aurocs_ok(f"depth {row['depth']}", row["auroc_per_seed"], n_seeds, problems)
    return problems
