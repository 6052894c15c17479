"""Seeded input generator for the benchmark.

Writes the head CSV, the labelled feature CSV and the GMM JSON in the formats
the README documents, using numpy only. Nothing here imports ``oodkit``, so a
change to ``structure`` or ``gmm`` cannot change the inputs: two commits run
on the same seed receive byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Size:
    n: int            # feature rows
    h: int            # feature dimension
    k: int            # classes, head columns and GMM components
    w_norm: float     # ||w_c|| of every head column
    scale: float      # cluster centre = scale * w_c
    mass_samples: int  # Monte Carlo samples of region-mc


# Scale 2.0 with unit noise overlaps the classes enough that EM does real
# work; see README.md for why fit-gmm runs a fixed number of EM iterations.
FULL = Size(n=20_000, h=64, k=10, w_norm=2.0, scale=2.0, mass_samples=1_000_000)
TINY = Size(n=600, h=16, k=4, w_norm=2.0, scale=2.0, mass_samples=20_000)
GMM_REG = 1e-5


def equiangular_head(rng: np.random.Generator, size: Size) -> np.ndarray:
    """H x K simplex equiangular frame with column norm ``w_norm``: the
    centred standard basis of R^K, mapped into R^H by a random isometry."""
    frame = np.eye(size.k) - 1.0 / size.k
    frame *= size.w_norm / np.linalg.norm(frame[0])
    q, _ = np.linalg.qr(rng.standard_normal((size.h, size.k)))
    return q @ frame.T


def labelled_features(rng: np.random.Generator, w: np.ndarray, size: Size):
    """Balanced classes: unit Gaussian noise around ``scale * w_c``."""
    y = np.repeat(np.arange(size.k), size.n // size.k)
    y = y[rng.permutation(y.size)]
    x = size.scale * w.T[y] + rng.standard_normal((y.size, size.h))
    return x, y


def moment_matched_gmm(x: np.ndarray, y: np.ndarray, k: int) -> dict:
    """One full-covariance component per class, in GMM JSON format 1."""
    h = x.shape[1]
    weights, means, covs = [], [], []
    for c in range(k):
        xc = x[y == c]
        mu = xc.mean(axis=0)
        d = xc - mu
        cov = d.T @ d / xc.shape[0] + GMM_REG * np.eye(h)
        cov = 0.5 * (cov + cov.T)
        weights.append(xc.shape[0] / x.shape[0])
        means.append(mu.tolist())
        covs.append(cov.reshape(-1).tolist())
    return {"format_version": 1, "k": k, "weights": weights, "means": means,
            "covariances": covs, "reg": GMM_REG, "log_transform": False}


def _write_head(path, w: np.ndarray) -> None:
    with open(path, "w") as f:
        for row in w.tolist():
            f.write(",".join(map(repr, row)) + "\n")
        f.write(",".join(["0.0"] * w.shape[1]) + "\n")


def _write_features(path, x: np.ndarray, y: np.ndarray) -> None:
    header = [f"h{i}" for i in range(x.shape[1])] + ["label"]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row, label in zip(x.tolist(), y.tolist()):
            f.write(",".join(map(repr, row)) + f",{label}\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class Inputs:
    size: Size
    head_path: str
    features_path: str
    gmm_path: str
    w: np.ndarray
    x: np.ndarray
    gmm: dict
    sha256: dict


def generate(seed: int, size: Size, outdir: str) -> Inputs:
    """Write head.csv, features.csv and gmm.json for ``seed`` into ``outdir``."""
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    w = equiangular_head(rng, size)
    x, y = labelled_features(rng, w, size)
    gmm = moment_matched_gmm(x, y, size.k)
    paths = {name: os.path.join(outdir, name)
             for name in ("head.csv", "features.csv", "gmm.json")}
    _write_head(paths["head.csv"], w)
    _write_features(paths["features.csv"], x, y)
    with open(paths["gmm.json"], "w") as f:
        json.dump(gmm, f, indent=1, sort_keys=True)
        f.write("\n")
    return Inputs(size=size, head_path=paths["head.csv"],
                  features_path=paths["features.csv"], gmm_path=paths["gmm.json"],
                  w=w, x=x, gmm=gmm,
                  sha256={name: _sha256(p) for name, p in paths.items()})
