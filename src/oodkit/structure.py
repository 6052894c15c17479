"""Head-structure generation and auditing.

Builds equiangular ("optimal") softmax heads for any K and H >= K-1,
fixed counterfactual geometries (sandwich / stack / lopsided), and the
norm/bias/angle audit applied to trained heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FeatureMatrix, LabelVector, SoftmaxHead, _angles, softmax_from_logits
from .errors import ConfigError, DegenerateWeightError, DimensionError

__all__ = [
    "OptimalStructureSpec",
    "StructureReport",
    "AngleStats",
    "gen_optimal_head",
    "gen_counterfactual_head",
    "audit_head",
    "angle_stats",
    "regularized_xent",
    "synthesize_cluster_features",
    "COUNTERFACTUAL_KINDS",
]

COUNTERFACTUAL_KINDS = ("sandwich", "stack", "lopsided")


@dataclass(frozen=True)
class OptimalStructureSpec:
    k: int
    h: int
    c1: float = 1.0  # weight norm

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        if self.h < self.k - 1:
            raise ConfigError("equiangular construction needs h >= k - 1")
        if not 0 < self.c1 < np.inf:  # NaN fails it too
            raise ConfigError("c1 must be finite and > 0")
        _check_size(max(self.k, self.h), self.k)


def _check_size(*shape: int) -> None:
    """ConfigError for a float64 array of ``shape`` whose byte count numpy
    cannot index (numpy would raise ValueError before allocating it)."""
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        raise ConfigError(f"a {' x '.join(map(str, shape))} float64 array is larger "
                          "than numpy can address")


def _random_orthonormal_map(h: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """H x d matrix with orthonormal columns, uniformly oriented."""
    g = rng.standard_normal((h, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def gen_optimal_head(spec: OptimalStructureSpec, seed: int = 0) -> SoftmaxHead:
    """Equiangular head: equal norms c1, zero bias, pairwise cosines
    -1/(K-1), zero column sum. The seed randomizes the embedding
    orientation in R^H.
    """
    k, h = spec.k, spec.h
    # The centering projection I - J/K has the simplex frame as its rows
    # once expressed in an orthonormal basis of its column space.
    m = np.eye(k) - np.full((k, k), 1.0 / k)
    eigvals, eigvecs = np.linalg.eigh(m)
    basis = eigvecs[:, eigvals > 0.5]  # eigenvalues are 0 (once) and 1 (K-1 times)
    rows = basis  # K x (K-1); rows b_i satisfy b_i . b_j = delta_ij - 1/K
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True) * spec.c1
    rng = np.random.default_rng(seed)
    embed = _random_orthonormal_map(h, k - 1, rng)
    w = embed @ rows.T  # H x K
    return SoftmaxHead(w=w, b=np.zeros(k))


def gen_counterfactual_head(kind: str, k: int = 3, h: int = 2, seed: int = 0,
                            c: float = 1.0) -> SoftmaxHead:
    """Fixed sub-optimal three-class geometries, embedded in R^H.

    sandwich: w_1=(0,c), w_2=(-c,0), w_3=(c,0); zero bias.
    stack:    parallel columns with norms (c, 2c, 3c) and biases
              (0, -c^2, -3c^2), giving stacked parallel boundaries.
    lopsided: equiangular directions with norms (c, c, 4c); zero bias.
    """
    if k != 3:
        raise ConfigError("counterfactual heads are defined for k = 3")
    if h < 2:
        raise ConfigError("counterfactual heads need h >= 2")
    if kind not in COUNTERFACTUAL_KINDS:
        raise ConfigError(f"unknown counterfactual kind {kind!r}")
    if not 0 < c < np.inf:  # NaN fails it too
        raise ConfigError("c must be finite and > 0")
    _check_size(h, max(h, 3))
    w2d = np.zeros((2, 3))
    b = np.zeros(3)
    if kind == "sandwich":
        w2d[:, 0] = (0.0, c)
        w2d[:, 1] = (-c, 0.0)
        w2d[:, 2] = (c, 0.0)
    elif kind == "stack":
        w2d[:, 0] = (c, 0.0)
        w2d[:, 1] = (2.0 * c, 0.0)
        w2d[:, 2] = (3.0 * c, 0.0)
        b = np.array([0.0, -c * c, -3.0 * c * c])
    else:  # lopsided
        angles = np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3])
        w2d = np.vstack([np.cos(angles), np.sin(angles)]) * np.array([c, c, 4.0 * c])
    w = np.zeros((h, 3))
    w[:2, :] = w2d
    if h > 2:
        # Orientation-randomized embedding keeps the geometry, moves the plane.
        rng = np.random.default_rng(seed)
        rot = _random_orthonormal_map(h, h, rng)
        w = rot @ w
    return SoftmaxHead(w=w, b=b)


@dataclass(frozen=True)
class StructureReport:
    weight_norms: np.ndarray
    biases: np.ndarray
    pairwise_cos: np.ndarray
    target_cos: float
    mean_cos_deviation: float
    max_cos_deviation: float
    norm_cv: float
    cos_hist_edges: np.ndarray
    cos_hist_counts: np.ndarray

    def to_dict(self) -> dict:
        return {
            "weight_norms": self.weight_norms.tolist(),
            "biases": self.biases.tolist(),
            "pairwise_cos": self.pairwise_cos.tolist(),
            "target_cos": self.target_cos,
            "mean_cos_deviation": self.mean_cos_deviation,
            "max_cos_deviation": self.max_cos_deviation,
            "norm_cv": self.norm_cv,
            "cos_hist_edges": self.cos_hist_edges.tolist(),
            "cos_hist_counts": self.cos_hist_counts.tolist(),
        }


def audit_head(head: SoftmaxHead, hist_bins: int = 20) -> StructureReport:
    """Norms, biases, and pairwise cosines of a head, summarized against
    the equiangular target -1/(K-1).
    """
    if hist_bins < 1:
        raise ConfigError("hist_bins must be >= 1")
    norms = head.column_norms()
    if np.any(norms == 0.0):
        raise DegenerateWeightError("zero-norm weight column")
    unit = head.w / norms
    gram = unit.T @ unit
    iu = np.triu_indices(head.k, k=1)
    cosines = np.clip(gram[iu], -1.0, 1.0)
    target = -1.0 / (head.k - 1)
    dev = np.abs(cosines - target)
    counts, edges = np.histogram(cosines, bins=hist_bins, range=(-1.0, 1.0))
    return StructureReport(
        weight_norms=norms,
        biases=head.b.copy(),
        pairwise_cos=cosines,
        target_cos=target,
        mean_cos_deviation=float(dev.mean()),
        max_cos_deviation=float(dev.max()),
        norm_cv=float(norms.std() / norms.mean()),
        cos_hist_edges=edges,
        cos_hist_counts=counts,
    )


@dataclass(frozen=True)
class AngleStats:
    z_norm: np.ndarray
    max_cos: np.ndarray
    z_norm_mean: float
    z_norm_quantiles: np.ndarray
    max_cos_mean: float
    max_cos_quantiles: np.ndarray
    z_norm_hist: tuple
    max_cos_hist: tuple


def angle_stats(features: FeatureMatrix, head: SoftmaxHead,
                hist_bins: int = 30) -> AngleStats:
    """Per-sample ||z|| and max_i cos(theta) with distribution summaries;
    both equal the ``z_norm`` and ``max_cos`` columns of score_batch."""
    _, z_norm, cos = _angles(head, features.data)
    max_cos = cos.max(axis=1)
    q = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    return AngleStats(
        z_norm=z_norm,
        max_cos=max_cos,
        z_norm_mean=float(z_norm.mean()),
        z_norm_quantiles=np.quantile(z_norm, q),
        max_cos_mean=float(max_cos.mean()),
        max_cos_quantiles=np.quantile(max_cos, q),
        z_norm_hist=np.histogram(z_norm, bins=hist_bins),
        max_cos_hist=np.histogram(max_cos, bins=hist_bins, range=(-1.0, 1.0)),
    )


def regularized_xent(features: FeatureMatrix, labels: LabelVector,
                     head: SoftmaxHead, lambda1: float = 0.0) -> float:
    """Mean cross-entropy plus lambda1 * sum ||w_i||^2 (bias included in
    the penalty).
    """
    if labels.n != features.n:
        raise DimensionError("label count does not match feature count")
    if labels.k > head.k:
        raise ConfigError("label range exceeds head classes")
    ell = features.data @ head.w + head.b
    p = softmax_from_logits(ell)
    picked = np.clip(p[np.arange(features.n), labels.labels], 1e-300, None)
    ce = float(-np.log(picked).mean())
    penalty = float((head.w ** 2).sum() + (head.b ** 2).sum())
    return ce + lambda1 * penalty


def synthesize_cluster_features(head: SoftmaxHead, c3: float, n_per_class: int,
                                noise: float = 0.05, seed: int = 0):
    """Tight class clusters at mu_i = c3 * w_i with isotropic noise."""
    rng = np.random.default_rng(seed)
    k, h = head.k, head.h
    z = np.concatenate([
        c3 * head.w[:, i] + noise * rng.standard_normal((n_per_class, h))
        for i in range(k)
    ])
    y = np.repeat(np.arange(k), n_per_class)
    perm = rng.permutation(z.shape[0])
    return FeatureMatrix(z[perm]), LabelVector(y[perm], k=k)
