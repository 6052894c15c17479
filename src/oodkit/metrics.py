"""AUROC, failure-cause attribution, and PCA projection for plots.

AUROC convention: higher score = more uncertain, and the reported value is
P(score_out > score_in) with ties counted 1/2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import FeatureMatrix
from .errors import ConfigError, DimensionError, NumericalError

__all__ = ["AttributionReport", "auroc", "attribute", "pca_project", "balance_sets"]


def auroc(scores_in, scores_out) -> float:
    """Rank-statistic AUROC with tie correction, O(n log n)."""
    s_in = np.asarray(scores_in, dtype=np.float64)
    s_out = np.asarray(scores_out, dtype=np.float64)
    if s_in.size == 0 or s_out.size == 0:
        raise ConfigError("both score sets must be nonempty")
    if np.isnan(s_in).any() or np.isnan(s_out).any():
        return float("nan")
    # Mann-Whitney U of the out-scores: per out-score, the in-scores below it
    # plus half of those equal to it.
    sorted_in = np.sort(s_in)
    u = (np.searchsorted(sorted_in, s_out, "left")
         + np.searchsorted(sorted_in, s_out, "right")).sum() / 2
    return float(u / (s_in.size * s_out.size))


@dataclass(frozen=True)
class AttributionReport:
    """Table-row attribution of the AUROC shortfall to the three causes:
    saturation (cool - entropy), extrapolation/aleatoric overlap
    (density - cool), and feature overlap (1 - density).
    """

    auroc_max: float
    auroc_entropy: float
    auroc_cool: float
    auroc_density: float

    def __post_init__(self):
        for v in (self.auroc_max, self.auroc_entropy, self.auroc_cool, self.auroc_density):
            if not 0.0 <= v <= 1.0:
                raise ConfigError("AUROC values must lie in [0, 1]")

    @property
    def cause1(self) -> float:
        return self.auroc_cool - self.auroc_entropy

    @property
    def cause2(self) -> float:
        return self.auroc_density - self.auroc_cool

    @property
    def cause3(self) -> float:
        return 1.0 - self.auroc_density

    @property
    def has_negative_cause(self) -> bool:
        return self.cause1 < 0 or self.cause2 < 0 or self.cause3 < 0

    def to_dict(self) -> dict:
        return {
            "auroc_max": self.auroc_max,
            "auroc_entropy": self.auroc_entropy,
            "auroc_cool": self.auroc_cool,
            "auroc_density": self.auroc_density,
            "cause1_saturation": self.cause1,
            "cause2_extrapolation": self.cause2,
            "cause3_feature_overlap": self.cause3,
            "negative_cause_flag": self.has_negative_cause,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


def attribute(a: float, b: float, c: float, d: float) -> AttributionReport:
    """Build the attribution report from the four estimator AUROCs
    (max, entropy, cool, density)."""
    return AttributionReport(auroc_max=a, auroc_entropy=b, auroc_cool=c, auroc_density=d)


def balance_sets(scores_in, scores_out, seed: int = 0):
    """Subsample the larger side so both sides have equal size."""
    s_in = np.asarray(scores_in, dtype=np.float64)
    s_out = np.asarray(scores_out, dtype=np.float64)
    rng = np.random.default_rng(seed)
    m = min(s_in.size, s_out.size)
    if s_in.size > m:
        s_in = s_in[rng.choice(s_in.size, size=m, replace=False)]
    if s_out.size > m:
        s_out = s_out[rng.choice(s_out.size, size=m, replace=False)]
    return s_in, s_out


def pca_project(features: FeatureMatrix, dims: int = 2):
    """Mean-centered projection onto the top principal components.

    Sign convention: the largest-magnitude coordinate of each component is
    made positive, so the projection is deterministic. Returns (N x dims
    projection, dims x H component basis, explained-variance ratios).
    """
    if dims < 1:
        raise ConfigError("dims must be >= 1")
    x = features.data
    if dims > min(features.n, features.h):
        raise DimensionError(f"dims={dims} exceeds the {features.n} samples or "
                             f"the feature width {features.h}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / max(features.n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    if eigvals[dims - 1] <= 1e-12 * max(eigvals[0], 1e-300):
        raise NumericalError("covariance rank below requested dims")
    comps = eigvecs[:, order[:dims]].T  # dims x H
    flip = np.sign(comps[np.arange(dims), np.argmax(np.abs(comps), axis=1)])
    comps = comps * flip[:, None]
    proj = centered @ comps.T
    ratios = eigvals[:dims] / eigvals.sum()
    return proj, comps, ratios
