"""Gaussian mixture density estimation with EM, full covariances, and
log-density scoring.

Responsibilities are computed in log space. Each Sigma_i = L_i L_i^T is
factored once, and the whitening matrix [L_1^-T ... L_K^-T] is cached
C-contiguous (a transposed view gives bits that depend on the row count).
Fitted mixtures are immutable and safe to share.

The Gaussian kernels (``mahalanobis_sq`` and everything built on it, and
the k-means distances ``_sq_dists``) walk the rows in blocks of about
``_BLOCK_BYTES`` per temporary (K'H wide for the whitened rows), so their
scratch memory does not grow with N; only the N x K' outputs do. Each row's
result does not depend on the block it falls in, so the outputs are bitwise
those of one whole-batch pass, and a row's ``log_density`` equals its
``log_density_batch`` entry. The EM moments (``_moments``) are not blocked:
they reduce over N, through one N x H buffer per component. ``sample_chunks``
streams the Gaussian draws in the same row blocks, one component at a time
through one reused buffer, so a caller that only counts (the Monte Carlo
region mass) holds O(block x H) scratch memory for any n.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .core import FeatureMatrix, LabelVector, _as_f64, _file_content, _typed_params
from .errors import ConfigError, DataFormatError, DimensionError, SingularModelError

__all__ = ["GaussianMixture", "EmConfig", "fit_em"]

_LOG_2PI = np.log(2.0 * np.pi)
_BLOCK_BYTES = 1 << 20  # bytes per float64 temporary of a row block


def _block_rows(h: int) -> int:
    """Rows of an h-wide float64 temporary in _BLOCK_BYTES, at least 2."""
    return max(2, _BLOCK_BYTES // (8 * h))


def _row_blocks(n: int, h: int):
    """Slices that cover rows 0..n-1 in order: for n >= 1, ceil((n - 1) /
    step) blocks (at least one) for step = _block_rows(h), their sizes
    within one row of each other. So a block has at most step + 1 rows, and
    only a 1-row input gives a 1-row block.

    No block is much shorter than the others: a BLAS product on a few rows
    can take a small-matrix path whose bits differ from those of the same
    rows in a larger product. Which rows counts take that path depends on
    the BLAS build and the kernel it picks for the CPU; on OpenBLAS 0.3.31's
    SkylakeX kernel, 64 x 10 products on fewer than about 1562 rows did.
    """
    count = max(1, -(-(n - 1) // _block_rows(h))) if n else 0
    for i in range(count):
        yield slice(i * n // count, (i + 1) * n // count)


@dataclass(frozen=True)
class EmConfig:
    max_iter: int = 200
    rel_tol: float = 1e-6
    reg: float = 1e-5
    seed: int = 0
    init: str = "labels"  # "labels" or "kmeans_pp"
    log_transform: bool = False

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        # Written so that NaN and +-inf fail them.
        if not 0 < self.rel_tol < np.inf:
            raise ConfigError("rel_tol must be finite and > 0")
        if not 0 <= self.reg < np.inf:
            raise ConfigError("reg must be finite and >= 0")
        if self.init not in ("labels", "kmeans_pp"):
            raise ConfigError(f"unknown init {self.init!r}")


class GaussianMixture:
    """Fitted mixture: weights pi_i, means mu_i, full covariances Sigma_i."""

    FORMAT_VERSION = 1
    # The saved payload, {key: (type, default)} with the types of
    # core._typed; numpy checks the arrays, which may hold many numbers.
    PAYLOAD = {"format_version": ((FORMAT_VERSION,), ...), "k": (int, ...),
               "weights": (list, ...), "means": (list, ...), "covariances": (list, ...),
               "reg": (float, 0.0), "log_transform": (bool, False)}

    def __init__(self, weights, means, covariances, reg=0.0, log_transform=False):
        weights = np.asarray(weights, dtype=np.float64)
        means = np.asarray(means, dtype=np.float64)
        covariances = np.asarray(covariances, dtype=np.float64)
        if means.ndim != 2 or covariances.ndim != 3:
            raise DimensionError("means must be K'xH, covariances K'xHxH")
        k, h = means.shape
        if weights.shape != (k,) or covariances.shape != (k, h, h):
            raise DimensionError("mixture parameter shapes disagree")
        # Written so that NaN fails them: every comparison with NaN is false.
        if not (abs(weights.sum() - 1.0) <= 1e-12 and np.all(weights > 0)):
            raise ConfigError("weights must be a strictly positive simplex vector")
        if not np.max(np.abs(covariances - covariances.transpose(0, 2, 1))) <= 1e-10:
            raise SingularModelError("covariance not symmetric")
        self.weights = weights
        self.means = means
        self.covariances = covariances
        self.reg = float(reg)
        self.log_transform = bool(log_transform)
        self._chols = []
        self._log_norms = np.empty(k)
        for i in range(k):
            try:
                L = np.linalg.cholesky(covariances[i])
            except np.linalg.LinAlgError as e:
                raise SingularModelError(f"component {i} covariance not PD") from e
            self._chols.append(L)
            self._log_norms[i] = -0.5 * h * _LOG_2PI - np.log(np.diag(L)).sum()
        # L^T is triangular, so solve's LU is exact: back substitution.
        inv_t = [np.linalg.solve(L.T, np.eye(h)) for L in self._chols]
        self._whiten = np.hstack(inv_t)
        self._shift = np.concatenate([mean @ w for mean, w in zip(means, inv_t)])

    @property
    def k_components(self) -> int:
        return self.means.shape[0]

    @property
    def h(self) -> int:
        return self.means.shape[1]

    def _maybe_log(self, x: np.ndarray) -> np.ndarray:
        return np.log(x) if self.log_transform else x

    def component_log_densities(self, x: np.ndarray) -> np.ndarray:
        """Per-component log N(x; mu_i, Sigma_i) for an N x H batch."""
        return self._log_norms - 0.5 * self.mahalanobis_sq(x)

    def _log_joint(self, x: np.ndarray):
        """log(pi_i N(x; mu_i, Sigma_i)) per row and component (N x K'), and
        its log-sum-exp over the components, the log density (N x 1)."""
        log_joint = self.component_log_densities(x) + np.log(self.weights)
        m = log_joint.max(axis=1, keepdims=True)
        return log_joint, m + np.log(np.exp(log_joint - m).sum(axis=1, keepdims=True))

    def log_density_batch(self, x: np.ndarray) -> np.ndarray:
        return self._log_joint(x)[1].ravel()

    def log_density(self, z) -> float:
        return float(self.log_density_batch(np.asarray(z, dtype=np.float64)[None, :])[0])

    def mahalanobis_sq(self, x: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distance of each row to every component,
        one row block at a time."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.h:
            raise DimensionError(f"expected H={self.h} columns, got {x.shape[1]}")
        out = np.empty((x.shape[0], self.k_components))
        for rows in _row_blocks(x.shape[0], self._whiten.shape[1]):
            xb = self._maybe_log(x[rows])
            if xb.shape[0] == 1:
                # A 1-row GEMM takes the GEMV path; 2 equal rows keep the bits.
                xb = np.repeat(xb, 2, axis=0)
            y = xb @ self._whiten
            y -= self._shift
            y *= y
            out[rows] = y.reshape(len(y), -1, self.h).sum(axis=2)[:rows.stop - rows.start]
        return out

    def neg_log_density_grad(self, z) -> np.ndarray:
        """Gradient of -log density at a single point, the responsibility-
        weighted sum of Sigma_i^-1 (z - mu_i) = L_i^-T L_i^-1 (z - mu_i)."""
        z = np.asarray(z, dtype=np.float64)
        log_joint, total = self._log_joint(z[None, :])
        resp = np.exp(log_joint - total)[0]
        y = self._maybe_log(z) @ self._whiten - self._shift
        grad = self._whiten @ (np.repeat(resp, self.h) * y)
        if self.log_transform:
            grad = grad / z  # chain rule through the log transform
        return grad

    def sample_chunks(self, n: int, rng: np.random.Generator):
        """n draws in feature space (exponentiated under ``log_transform``),
        yielded piece by piece; the generator returns the shuffle.

        The stream of ``rng.multivariate_normal(method="cholesky")`` per
        component: multinomial counts, then mean + N(0, I) @ L^T for each
        component in ``_row_blocks``, then ``rng.permutation(n)``. L is the
        cached ``np.linalg.cholesky`` factor, the one that call uses. No
        piece is much shorter than a block unless its component is, so that
        each piece's product has the bits of that call's whole-component
        product. BLAS does not promise this: it held for every count tried
        on OpenBLAS 0.3.31's SkylakeX kernel, and a BLAS that picks another
        kernel for some piece shapes can leave the stream by an ulp on those
        rows (``test_matches_stream_when_a_component_spans_pieces`` and
        ``test_matches_multivariate_normal_stream`` then fail). The pieces
        come in component order, each a view of one reused buffer that the
        next piece overwrites; only a 1-draw component gives a 1-row piece.
        ``sample`` gathers them through the shuffle.
        """
        counts = rng.multinomial(n, self.weights)
        rows = min(int(counts.max(initial=0)), _block_rows(self.h) + 1)
        normals = np.empty((rows, self.h))
        draws = np.empty((rows, self.h))
        for i, c in enumerate(counts):
            for block in _row_blocks(c, self.h):
                m = block.stop - block.start
                rng.standard_normal(out=normals[:m])
                piece = np.matmul(normals[:m], self._chols[i].T, out=draws[:m])
                piece += self.means[i]
                yield np.exp(piece, out=piece) if self.log_transform else piece
        return rng.permutation(n)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws in feature space: the pieces of ``sample_chunks`` copied
        into one n x H array and gathered through its shuffle."""
        draws = np.empty((n, self.h))
        pieces = self.sample_chunks(n, rng)
        start = 0
        while True:
            try:
                piece = next(pieces)
            except StopIteration as end:
                return draws[end.value]
            draws[start:start + len(piece)] = piece
            start += len(piece)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "k": self.k_components,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.reshape(self.k_components, -1).tolist(),
            "reg": self.reg,
            "log_transform": self.log_transform,
        }

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1)

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianMixture":
        """Rebuild a saved mixture; a payload that does not fit ``PAYLOAD``
        or the saved layout (K rows of H*H covariance entries), or whose
        values are not finite or do not form a valid mixture (weights off
        the simplex, covariances not symmetric positive definite), raises
        DataFormatError."""
        with _file_content("mixture file"):
            p = _typed_params(cls.PAYLOAD, d, "key")
            k = p["k"]
            weights, means, covs = (_as_f64(p[key]) for key in ("weights", "means", "covariances"))
            h = means.shape[1] if means.ndim == 2 else 0
            if h < 1 or weights.shape != (k,) or means.shape[0] != k or covs.shape != (k, h * h):
                raise DataFormatError(f"mixture file needs k={k} weights, {k} means of one "
                                      f"length H and {k} rows of H*H covariance entries")
            return cls(weights, means, covs.reshape(k, h, h), reg=p["reg"],
                       log_transform=p["log_transform"])

    @classmethod
    def load(cls, path) -> "GaussianMixture":
        with open(path) as f, _file_content("mixture file"):
            return cls.from_dict(json.load(f))


def _sq_dists(x: np.ndarray, centers) -> np.ndarray:
    """Squared Euclidean distance of each row to every centre (N x C), one
    row block at a time."""
    out = np.empty((x.shape[0], len(centers)))
    for rows in _row_blocks(*x.shape):
        for i, c in enumerate(centers):
            out[rows, i] = ((x[rows] - c) ** 2).sum(axis=1)
    return out


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Each row's nearest centre after k-means++ seeding and 10 Lloyd steps."""
    n = x.shape[0]
    centers = [x[rng.integers(n)]]
    d2 = np.full(n, np.inf)  # squared distance to the nearest centre so far
    for _ in range(k - 1):
        np.minimum(d2, _sq_dists(x, centers[-1:])[:, 0], out=d2)
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(n)])
            continue
        centers.append(x[rng.choice(n, p=d2 / total)])
    centers = np.array(centers)
    for _ in range(10):
        assign = np.argmin(_sq_dists(x, centers), axis=1)
        for i in range(k):
            if np.any(assign == i):
                centers[i] = x[assign == i].mean(axis=0)
    return np.argmin(_sq_dists(x, centers), axis=1)


def _moments(x: np.ndarray, r: np.ndarray, reg: float):
    """Mass nk = sum(r), mean r @ x / nk and covariance d.T @ d / nk + reg*I
    of the rows of x weighted by r, with d = sqrt(r) * (x - mean) in one N x H
    buffer; numpy sends d.T @ d to SYRK, so the covariance is exactly symmetric."""
    nk = r.sum()
    if not nk > 0:
        raise SingularModelError("component collapsed to zero responsibility")
    mean = r @ x / nk
    d = x - mean
    d *= np.sqrt(r)[:, None]
    return nk, mean, d.T @ d / nk + reg * np.eye(x.shape[1])


def _moment_match(x, assign, k, reg):
    """Weights, means and covariances of the k components that ``assign``
    gives the rows of x, each from its own rows."""
    parts = (x[assign == i] for i in range(k))
    nk, means, covs = map(np.array, zip(*(_moments(xi, np.ones(len(xi)), reg) for xi in parts)))
    return nk / len(x), means, covs


def fit_em(features: FeatureMatrix, labels: LabelVector | None = None,
           k_components: int | None = None, cfg: EmConfig | None = None,
           return_history: bool = False):
    """Fit a full-covariance mixture with EM.

    When labels are present the default initialization moment-matches one
    component per class; otherwise k-means++ seeds the components. The total
    log-likelihood is non-decreasing across iterations (up to 1e-9 slack)
    and the fit is deterministic for a given seed. With ``return_history``
    the per-iteration log-likelihoods are returned alongside the mixture.
    """
    cfg = cfg or EmConfig()
    x = features.data
    if cfg.log_transform:
        if np.any(x <= 0):
            raise ConfigError("log transform requires strictly positive features")
        x = np.log(x)
    n, h = x.shape
    if k_components is None:
        k_components = labels.k if labels is not None else 1
    if not 1 <= k_components <= n:
        raise ConfigError(f"k_components must be in [1, {n}], the row count")
    if n <= h * k_components:
        warnings.warn("few samples per component relative to dimension; "
                      "covariances may be poorly conditioned", stacklevel=2)

    rng = np.random.default_rng(cfg.seed)
    if labels is not None and cfg.init == "labels" and labels.k == k_components:
        assign = labels.labels
    else:
        assign = _kmeans_pp_init(x, k_components, rng)

    for attempt in range(4):
        if np.bincount(assign, minlength=k_components).min() > 0:
            break
        if attempt == 3:
            raise SingularModelError("empty component after 3 reinitializations")
        assign = _kmeans_pp_init(x, k_components, rng)
    weights, means, covs = _moment_match(x, assign, k_components, cfg.reg)

    history = []
    prev_ll = -np.inf
    for _ in range(cfg.max_iter):
        # Not through log_density_batch: the E-step needs the joint as well.
        log_joint, log_total = GaussianMixture(weights, means, covs, reg=cfg.reg)._log_joint(x)
        ll = float(log_total.sum())
        history.append(ll)
        resp = np.exp(log_joint - log_total)

        if ll - prev_ll < cfg.rel_tol * abs(ll) and np.isfinite(prev_ll):
            break
        prev_ll = ll

        nk, means, covs = map(np.array, zip(*(_moments(x, resp[:, i], cfg.reg)
                                              for i in range(k_components))))
        weights = nk / n

    fitted = GaussianMixture(weights, means, covs, reg=cfg.reg,
                             log_transform=cfg.log_transform)
    return (fitted, history) if return_history else fitted
