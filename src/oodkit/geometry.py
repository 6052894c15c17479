"""Valid-OOD-region geometry.

Covers the empirical uncertainty threshold, the exact two-class slab
(solved through the Gaussian half-space mass equation), the general-K
union-of-slabs linear approximation fitted far from the origin, the
per-component density region, and a seeded Monte Carlo mass estimator used
as the oracle for all of them (``region_mass``, on labelled features; the
linear region's mass is drawn as K-wide logits).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import FeatureMatrix, LabelVector, SoftmaxHead, _logits_rows, softmax_from_logits
from .errors import ConfigError, NumericalError
from .gmm import GaussianMixture, _moment_match

__all__ = [
    "SlabRegion",
    "LinearApproxRegion",
    "DensityRegion",
    "empirical_threshold",
    "solve_alpha_exact_k2",
    "fit_linear_region",
    "density_region",
    "mc_region_mass",
    "region_mass",
]

DEFAULT_MC_SEED = 20_240_601
MC_BATCH = 100_000  # draws per batch of mc_region_mass
FAR_FIELD_FACTOR = 1e3
SEPARABILITY_TAIL = 1e-4


def empirical_threshold(train_scores, epsilon: float) -> float:
    """(1 - epsilon)-quantile of the training scores, nearest-rank-higher.

    A point z belongs to the region iff U(z) > u_star, i.e. iff it scores
    more uncertain than at least a (1 - epsilon) fraction of training data.
    """
    scores = np.asarray(train_scores, dtype=np.float64)
    if scores.size == 0:
        raise ConfigError("empty score vector")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")
    rank = max(1, int(np.ceil(scores.size * (1.0 - epsilon))))
    return float(np.sort(scores)[rank - 1])


@dataclass(frozen=True)
class SlabRegion:
    """Region between two parallel hyperplanes around a decision boundary.

    Membership: -alpha_lo * ||n||^2 < n . z - n . anchor < alpha_hi * ||n||^2
    with n the boundary normal (w_1 for K=2, or w_i - w_j).
    """

    normal: np.ndarray
    anchor: np.ndarray
    alpha_lo: float
    alpha_hi: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64)
        a = np.asarray(self.anchor, dtype=np.float64)
        if np.linalg.norm(n) == 0.0:
            raise ConfigError("slab normal must be nonzero")
        if self.alpha_lo < 0 or self.alpha_hi < 0:
            raise ConfigError("slab offsets must be nonnegative")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "anchor", a)

    def contains(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        nsq = float(self.normal @ self.normal)
        g = z @ self.normal - float(self.normal @ self.anchor)
        return (-self.alpha_lo * nsq < g) & (g < self.alpha_hi * nsq)

    def to_dict(self) -> dict:
        return {"type": "slab", "normal": self.normal.tolist(),
                "anchor": self.anchor.tolist(),
                "alpha_lo": self.alpha_lo, "alpha_hi": self.alpha_hi}


def _projected_moments(mixture: GaussianMixture, w: np.ndarray):
    """Mean and standard deviation of w . z under each component."""
    means = [float(w @ mean) for mean in mixture.means]
    sds = [float(np.sqrt(w @ cov @ w)) for cov in mixture.covariances]
    return means, sds


def _gaussian_mass_outside_slab(mixture: GaussianMixture, w: np.ndarray,
                                c_lo: float, c_hi: float) -> float:
    """Mass of the mixture outside the slab c_lo < w.z < c_hi."""
    total = 0.0
    for weight, m, s in zip(mixture.weights, *_projected_moments(mixture, w)):
        below = 0.5 * (1.0 + math.erf((c_lo - m) / (np.sqrt(2.0) * s)))
        above = 0.5 * (1.0 - math.erf((c_hi - m) / (np.sqrt(2.0) * s)))
        total += weight * (below + above)
    return total


def check_linear_separability(mixture: GaussianMixture, w: np.ndarray,
                              boundary_offset: float = 0.0) -> bool:
    """Each component keeps all but a negligible tail on its own side of the
    decision hyperplane w . z = boundary_offset.
    """
    ok = True
    for m, s in zip(*_projected_moments(mixture, w)):
        tail = 0.5 * (1.0 - math.erf(abs(m - boundary_offset) / (np.sqrt(2.0) * s)))
        ok &= tail < SEPARABILITY_TAIL
    return ok


def solve_alpha_exact_k2(mixture: GaussianMixture, head: SoftmaxHead,
                         epsilon: float) -> SlabRegion:
    """Exact two-class slab width.

    Requires w_1 = -w_2 and one mixture component per class. Solves for
    alpha > 0 such that the class-Gaussian mass outside the slab
    |w_1 . (z - z_0)| < alpha ||w_1||^2 equals 1 - epsilon, by bisection on
    the analytic half-space integrals down to a bracket of width
    1e-10 * max(1, alpha).
    """
    if mixture.k_components != 2 or head.k != 2:
        raise ConfigError("exact slab solve is defined for two classes")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")
    w1 = head.w[:, 0]
    if np.linalg.norm(head.w[:, 0] + head.w[:, 1]) > 1e-8 * max(1.0, np.linalg.norm(w1)):
        raise ConfigError("exact slab solve requires w_1 = -w_2")
    nsq = float(w1 @ w1)
    if nsq == 0.0:
        raise ConfigError("zero weight vector")
    # Decision boundary: w_1.z + b_1 = w_2.z + b_2  =>  w_1.z = (b_2-b_1)/2
    boundary = float(head.b[1] - head.b[0]) / 2.0
    if not check_linear_separability(mixture, w1, boundary):
        warnings.warn("class Gaussians are not linearly separable; "
                      "slab width is approximate", stacklevel=2)

    def out_mass(alpha: float) -> float:
        return _gaussian_mass_outside_slab(mixture, w1, boundary - alpha * nsq,
                                           boundary + alpha * nsq)

    alpha = float(_first_crossing(out_mass, 1.0 - epsilon, 1e-10))
    anchor = w1 * (boundary / nsq)
    return SlabRegion(normal=w1, anchor=anchor, alpha_lo=alpha, alpha_hi=alpha)


@dataclass(frozen=True)
class LinearApproxRegion:
    """Union over class pairs of (slab around that pair's boundary)
    intersected with the two classes' argmax cells.
    """

    head: SoftmaxHead
    slabs: dict  # (i, j) with i < j -> SlabRegion with normal w_i - w_j
    u_star: float
    epsilon: float

    def __post_init__(self):
        # Slab (i, j) is lo < n.z < hi for n = w_i - w_j, so a row whose
        # argmax class is a meets slab (a, j) iff lo[a, j] < zw_a - zw_j <
        # hi[a, j]. The reversed pair bounds -n.z, so its bounds swap and
        # flip sign. Pairs without a slab keep lo = hi = 0, which no
        # difference lies strictly between.
        lo = np.zeros((self.head.k, self.head.k))
        hi = np.zeros((self.head.k, self.head.k))
        for (i, j), slab in self.slabs.items():
            if not np.array_equal(slab.normal, self.head.w[:, i] - self.head.w[:, j]):
                raise ConfigError(f"slab ({i}, {j}) normal is not w_{i} - w_{j}")
            nsq = float(slab.normal @ slab.normal)
            c = float(slab.normal @ slab.anchor)
            lo[i, j] = c - slab.alpha_lo * nsq
            hi[i, j] = c + slab.alpha_hi * nsq
            lo[j, i], hi[j, i] = -hi[i, j], -lo[i, j]
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    def contains(self, z: np.ndarray) -> np.ndarray:
        """Rows inside a slab of a pair that holds their argmax class.

        The logits come from ``_logits_rows``, whose rows do not depend on
        the batch split, so neither does a row's answer; a BLAS z @ W gives
        other bits on a few rows (a small-matrix path, or GEMV on one).
        """
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        return self._member(_logits_rows(self.head, z))

    def _member(self, zw: np.ndarray) -> np.ndarray:
        """Membership of rows from their bias-free logits zw = z.W.

        One zw serves the argmax and every slab: n.z = zw_i - zw_j. A NaN
        row fails every comparison and stays outside.
        """
        argmax = np.argmax(zw + self.head.b, axis=1)
        d = np.take_along_axis(zw, argmax[:, None], axis=1) - zw
        return ((self._lo[argmax] < d) & (d < self._hi[argmax])).any(axis=1)

    def to_dict(self) -> dict:
        return {
            "type": "linear_approx",
            "u_star": self.u_star,
            "epsilon": self.epsilon,
            "slabs": [{"pair": [i, j], **slab.to_dict()}
                      for (i, j), slab in sorted(self.slabs.items())],
        }


def _u_max_values(head: SoftmaxHead, z: np.ndarray) -> np.ndarray:
    """u_max of N x H rows, bitwise the ``u_max`` column of score_batch."""
    return -softmax_from_logits(_logits_rows(head, z) + head.b).max(axis=1)


def _first_crossing(f, level, tol: float) -> np.ndarray:
    """Smallest t > 0 with f(t) <= level in each lane of ``level``, for f
    decreasing in t; f maps an array of t, one per lane, to their values.

    Each lane's bracket [0, 1] doubles until f(hi) <= level, at most 60
    times, then bisection stops once it is narrower than tol * max(1, hi).
    The lanes advance together, one f call per step, and stay independent:
    a finished lane is masked, not updated.
    """
    level = np.asarray(level, dtype=np.float64)
    lo, hi = np.zeros(level.shape), np.ones(level.shape)
    up = f(hi) > level
    while np.any(up):
        if np.any(up & (hi == 2.0 ** 60)):
            raise NumericalError("no crossing of the level within 60 bracket doublings")
        hi = np.where(up, 2.0 * hi, hi)
        up &= f(hi) > level
    while np.any(wide := hi - lo > tol * np.maximum(1.0, hi)):
        mid = 0.5 * (lo + hi)
        above = f(mid) > level
        lo, hi = np.where(wide & above, mid, lo), np.where(wide & ~above, mid, hi)
    return 0.5 * (lo + hi)


def fit_linear_region(head: SoftmaxHead, train_features: FeatureMatrix,
                      epsilon: float,
                      far_field_factor: float = FAR_FIELD_FACTOR) -> LinearApproxRegion:
    """Fit per-pair slab offsets so each slab matches the u_max = u_star
    contour far from the origin along the pair's boundary direction.

    The +n and -n offsets of all pairs are the lanes of one
    ``_first_crossing``, one ``_u_max_values`` call per step; its rows do not
    depend on the batch, so the lanes stay independent of each other.
    """
    u_star = empirical_threshold(_u_max_values(head, train_features.data), epsilon)
    norms = head.column_norms()
    far = far_field_factor * float(norms.max())
    pairs = {}
    for i in range(head.k):
        for j in range(i + 1, head.k):
            n = head.w[:, i] - head.w[:, j]
            nsq = float(n @ n)
            if nsq <= 1e-24:
                raise ConfigError(f"degenerate class pair ({i}, {j}): w_i = w_j")
            # Boundary point: n.z + (b_i - b_j) = 0, nearest to origin.
            d = float(head.b[i] - head.b[j])
            z0 = -d / nsq * n
            # Far-field direction along the boundary, in the (w_i, w_j) plane.
            e = head.w[:, i] + head.w[:, j]
            e = e - (e @ n) / nsq * n
            e_norm = np.linalg.norm(e)
            pairs[(i, j)] = (n, z0, z0 if e_norm < 1e-12 else z0 + far * (e / e_norm))
    # Lanes: every pair's +n side, then its -n side. u_max decreases away
    # from the boundary on either side, as the bisection assumes.
    normals, anchors, bases = zip(*pairs.values())
    lane_n, lane_base = np.array(normals * 2), np.array(bases * 2)
    side = np.repeat([1.0, -1.0], len(pairs))
    t_hi, t_lo = _first_crossing(
        lambda t: _u_max_values(head, lane_base + (side * t)[:, None] * lane_n),
        np.full(side.size, u_star), 1e-12).reshape(2, -1)
    slabs = {pair: SlabRegion(normal=n, anchor=z0, alpha_lo=float(lo), alpha_hi=float(hi))
             for pair, n, z0, lo, hi in zip(pairs, normals, anchors, t_lo, t_hi)}
    return LinearApproxRegion(head=head, slabs=slabs, u_star=u_star, epsilon=epsilon)


@dataclass(frozen=True)
class DensityRegion:
    """Outside-every-cluster region: Mahalanobis^2 to component i exceeds
    c_i for ALL components.
    """

    gmm: GaussianMixture
    thresholds: np.ndarray
    epsilon: float

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        if np.any(t <= 0):
            raise ConfigError("density-region thresholds must be positive")
        object.__setattr__(self, "thresholds", t)

    def contains(self, z: np.ndarray) -> np.ndarray:
        d2 = self.gmm.mahalanobis_sq(z)
        return np.all(d2 > self.thresholds, axis=1)

    def to_dict(self) -> dict:
        return {"type": "density", "epsilon": self.epsilon,
                "thresholds": self.thresholds.tolist()}


def _chi2_sf(x: float, h: int) -> float:
    """P(chi2_h > x) (Abramowitz & Stegun 26.4.4-5): for y = x/2, erfc(sqrt y) if h is
    odd, plus y^a e^-y / Gamma(a + 1) for a = h/2 - 1, h/2 - 2, ... >= 0, from log space."""
    y = x / 2.0
    tail = math.erfc(math.sqrt(y)) if h % 2 else 0.0
    return tail + math.fsum(math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
                            for a in (h % 2 / 2.0 + j for j in range(h // 2)))


def density_region(gmm: GaussianMixture, epsilon: float) -> DensityRegion:
    """Per-component chi-square thresholds at level 1 - epsilon.

    This is a per-component proxy for the mixture-level epsilon mass
    condition; measure the discrepancy with mc_region_mass.
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")
    # The chi-square (1 - epsilon)-quantile, bisected down to adjacent floats.
    c = float(_first_crossing(lambda x: _chi2_sf(x, gmm.h), epsilon, np.finfo(float).eps))
    return DensityRegion(gmm=gmm, thresholds=np.full(gmm.k_components, c),
                         epsilon=epsilon)


def mc_region_mass(contains, sampler: GaussianMixture, n: int, seed: int) -> float:
    """Monte Carlo estimate of the sampler's mass inside the region,
    deterministic for a seed.

    ``sampler`` is the GaussianMixture to draw from, in batches of
    ``MC_BATCH`` draws; ``contains`` maps each piece of a batch that
    ``sampler.sample_chunks`` yields (an M x sampler.h array, M >= 1) to
    booleans, so the draws are in whatever space ``contains`` reads: H-wide
    features, or K-wide logits for ``LinearApproxRegion._member``. The hits
    are counted piece by piece, so the scratch memory does not grow with the
    batch. The batches draw in turn from one ``default_rng(seed)``.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    rng = np.random.default_rng(seed)
    hits = 0
    for done in range(0, n, MC_BATCH):
        m = min(MC_BATCH, n - done)
        for piece in sampler.sample_chunks(m, rng):
            hits += int(np.count_nonzero(contains(piece)))
    return hits / n


def region_mass(region, features: FeatureMatrix, labels: LabelVector, n: int,
                seed: int) -> float:
    """Monte Carlo mass of ``region`` under p_in, from ``n`` draws of
    ``seed``: one Gaussian per labelled class, moment-matched to its rows.

    A ``LinearApproxRegion`` reads a row only through its bias-free logits,
    so its classes are matched on the N x K training logits and ``_member``
    tests the K-wide draws. W^T S W has rank <= H, and K - 1 for zero-sum
    columns, so the ridge is 1e-9 * max(1, largest logit column variance):
    it grows with every class's spread (law of total variance), where a
    fixed 1e-9 is lost in rounding from logits of about 1e4. Any other region
    is drawn H-wide with reg 1e-9; a class that is not positive definite
    there raises SingularModelError, and one with fewer than 2 rows
    ConfigError."""
    classes, counts = np.unique(labels.labels, return_counts=True)
    # the first class that is missing or has one row, else classes.size
    c = int(np.argmax(np.append((classes != np.arange(classes.size)) | (counts < 2), True)))
    if c < labels.k:
        raise ConfigError(f"class {c} has fewer than 2 samples")
    x, contains, reg = features.data, region.contains, 1e-9
    if isinstance(region, LinearApproxRegion):
        x, contains = _logits_rows(region.head, x), region._member
        reg *= max(1.0, float(x.var(axis=0).max()))
    sampler = GaussianMixture(*_moment_match(x, labels.labels, labels.k, reg))
    return mc_region_mass(contains, sampler, n=n, seed=seed)
