"""Gaussian mixture density estimation with EM, full covariances, and
log-density scoring.

Responsibilities are computed in log space. Each Sigma_i = L_i L_i^T is
factored once, and the whitening is cached as one C-contiguous K' x H x H
stack of L_i^-T with a K' x H shift mu_i L_i^-T, next to a C-contiguous
stack of L_i^T for the sampler. Fitted mixtures are immutable and safe to
share.

The Gaussian kernels walk the rows in ``_row_blocks``: ``mahalanobis_sq``
(and all built on it) one ``np.matmul`` of a block with the whitening stack,
``_sq_dists`` (the k-means distances) one ``x @ C^T`` per block,
``sample_chunks`` one ``N(0, I) @ L^T`` per block, and the EM means
(``_moments``) one ``resp.T @ x`` per block. A block is a multiple of 8 rows
that holds about ``_BLOCK_BYTES`` per temporary and keeps each product within
``_BLOCK_MACS`` multiply-adds, so the kernels' scratch memory does not grow
with N and, on the default OpenBLAS kernel, each product runs on the calling
thread. The row-wise products follow one rule: a C-contiguous right operand,
and each block zero-padded to a multiple of 8 rows (``_padded``). Then a row's
bits depend neither on where a batch is split nor on the block size (within
``_BLOCK_MACS``), so the outputs are bitwise those of one whole-batch pass, and
a row's ``log_density`` equals its ``log_density_batch`` entry. The EM
covariances sum SYRK products over blocks of ``_BLOCK_BYTES`` in one buffer
for all components, so EM holds no N x H temporary.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .core import FeatureMatrix, LabelVector, _as_f64, _file_content, _typed_params
from .errors import (ConfigError, DataFormatError, DimensionError, NumericalError,
                     SingularModelError)

__all__ = ["GaussianMixture", "EmConfig", "fit_em"]

_LOG_2PI = np.log(2.0 * np.pi)
_BLOCK_BYTES = 1 << 20  # bytes per float64 temporary of a row block
# Multiply-adds of one row block's BLAS product, rows x inner x outer: few
# enough that the default OpenBLAS kernel keeps the product on the calling
# thread and on its small-matrix path. Above 10**6 a 10-column product
# leaves that path and its bits change with the block size, so the padded-
# tile rule holds only for blocks within this bound.
_BLOCK_MACS = 10 ** 6


def _block_rows(h: int, macs: int = 0) -> int:
    """Rows of a block: a multiple of 8, at least 8, with an h-wide float64
    temporary within _BLOCK_BYTES and, given macs (the multiply-adds of the
    block's BLAS product per row), the product within _BLOCK_MACS."""
    step = _BLOCK_BYTES // (8 * h)
    if macs:
        step = min(step, _BLOCK_MACS // macs)
    return max(8, step - step % 8)


def _row_blocks(n: int, h: int, macs: int = 0):
    """Slices that cover rows 0..n-1 in order, each of _block_rows(h, macs)
    rows but the shorter last one."""
    step = _block_rows(h, macs)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _padded(block: np.ndarray) -> np.ndarray:
    """block with zero rows appended up to a multiple of 8 rows."""
    pad = -len(block) % 8
    return np.concatenate((block, np.zeros((pad, block.shape[1])))) if pad else block


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
        self._chol_t = np.empty((k, h, h))
        for i in range(k):
            try:
                self._chol_t[i] = np.linalg.cholesky(covariances[i]).T
            except np.linalg.LinAlgError as e:
                raise SingularModelError(f"component {i} covariance not PD") from e
        self._log_norms = -0.5 * h * _LOG_2PI - np.log(self._chol_t.diagonal(0, 1, 2)).sum(axis=1)
        # L^T is triangular, so solve's LU is exact: back substitution. The
        # identity is broadcast to the stack's shape: numpy 1.x reads a 2-D b
        # against a 3-D a as a stack of vectors.
        self._whiten = np.linalg.solve(self._chol_t,
                                       np.broadcast_to(np.eye(h), self._chol_t.shape))
        self._shift = np.stack([mean @ w for mean, w in zip(means, self._whiten)])

    @property
    def k_components(self) -> int:
        return self.means.shape[0]

    @property
    def h(self) -> int:
        return self.means.shape[1]

    def component_log_densities(self, x: np.ndarray) -> np.ndarray:
        """Per-component log N(x; mu_i, Sigma_i) for an N x H batch."""
        return self._log_norms - 0.5 * self.mahalanobis_sq(x)

    def _log_joint(self, x: np.ndarray):
        """log(pi_i N(x; mu_i, Sigma_i)) per row and component (N x K'), and
        its log-sum-exp over the components, the log density (N x 1): -inf
        on a row whose every component is -inf."""
        log_joint = self.component_log_densities(x) + np.log(self.weights)
        # a finite m for a row of density 0, whose exp sum is 0 and its log -inf
        m = np.maximum(log_joint.max(axis=1, keepdims=True), np.finfo(np.float64).min)
        with np.errstate(divide="ignore"):
            return log_joint, m + np.log(np.exp(log_joint - m).sum(axis=1, keepdims=True))

    def log_density_batch(self, x: np.ndarray) -> np.ndarray:
        return self._log_joint(x)[1].ravel()

    def log_density(self, z) -> float:
        return float(self.log_density_batch(np.asarray(z, dtype=np.float64)[None, :])[0])

    def mahalanobis_sq(self, x: np.ndarray) -> np.ndarray:
        """Squared Mahalanobis distance of each row to every component,
        one row block at a time: |x L_i^-T - mu_i L_i^-T|^2 from one GEMM of
        the padded block with each L_i^-T. Under ``log_transform`` a row with
        an entry <= 0 has density 0, so +inf distance to every component."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.h:
            raise DimensionError(f"expected H={self.h} columns, got {x.shape[1]}")
        out = np.empty((x.shape[0], self.k_components))
        for rows in _row_blocks(x.shape[0], self.k_components * self.h, macs=self.h * self.h):
            xb, off = x[rows], False
            if self.log_transform:
                off = np.any(xb <= 0, axis=1, keepdims=True)
                xb = np.log(np.where(off, 1.0, xb))
            y = np.matmul(_padded(xb), self._whiten)  # K' x rows x H, one GEMM per component
            y -= self._shift[:, None]
            y *= y
            out[rows] = np.where(off, np.inf, y.sum(axis=2).T[:len(xb)])
        return out

    def neg_log_density_grad(self, z) -> np.ndarray:
        """Gradient of -log density at a single point, the responsibility-
        weighted sum of Sigma_i^-1 (z - mu_i) = L_i^-T L_i^-1 (z - mu_i).
        Raises where the density is 0, as off a log-space mixture's support."""
        z = np.asarray(z, dtype=np.float64)
        log_joint, total = self._log_joint(z[None, :])
        if total[0, 0] == -np.inf:
            raise NumericalError("density is 0: gradient of -log density undefined")
        resp = np.exp(log_joint - total)[0]
        y = (np.log(z) if self.log_transform else z) @ self._whiten - self._shift
        grad = np.einsum("kij,kj->i", self._whiten, resp[:, None] * y)
        if self.log_transform:
            grad = grad / z  # chain rule through the log transform
        return grad

    def sample_chunks(self, n: int, rng: np.random.Generator):
        """n draws in feature space (exponentiated under ``log_transform``),
        yielded piece by piece; ``sample`` copies them out and shuffles them.

        The stream of ``rng.multivariate_normal(method="cholesky")`` per
        component: multinomial counts, then mean + N(0, I) @ L^T for each
        component in ``_row_blocks`` of H x H multiply-adds per row, with L
        the cached ``np.linalg.cholesky`` factor that call uses. Each piece's
        product follows the module's rule (a C-contiguous L^T and the piece
        zero-padded to a multiple of 8 rows), which numpy's product with the
        view ``L.T`` does not. So the draws are bitwise independent of the
        piece size, and they lie within the rounding bound of a dot product
        of H terms of that call's draws rather than equal to them. The pieces
        come in component order, each a view of one reused buffer that the
        next piece overwrites.
        """
        counts = rng.multinomial(n, self.weights)
        normals, draws = np.empty((2, _block_rows(self.h, macs=self.h * self.h), self.h))
        for i, c in enumerate(counts):
            for block in _row_blocks(c, self.h, macs=self.h * self.h):
                m = block.stop - block.start
                rng.standard_normal(out=normals[:m])
                z = _padded(normals[:m])
                piece = np.matmul(z, self._chol_t[i], out=draws[:len(z)])[:m]
                piece += self.means[i]
                yield np.exp(piece, out=piece) if self.log_transform else piece

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws in feature space: the pieces of ``sample_chunks`` copied
        into one n x H array, then gathered through ``rng.permutation(n)``."""
        draws = np.empty((n, self.h))
        start = 0
        for piece in self.sample_chunks(n, rng):
            draws[start:start + len(piece)] = piece
            start += len(piece)
        return draws[rng.permutation(n)]

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


def _sq_dists(x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance of each row to every centre (N x C) as |x|^2 (x_sq)
    - 2 x @ C^T + |c|^2, one product per row block with only N x C arrays,
    clipped at 0: cancellation leaves small negatives, which ``rng.choice``
    rejects."""
    out = np.empty((len(x), len(centers)))
    c_sq = np.einsum("ch,ch->c", centers, centers)
    c_t = np.ascontiguousarray(centers.T)
    for rows in _row_blocks(len(x), x.shape[1], macs=centers.size):
        xc = _padded(x[rows]) @ c_t
        out[rows] = x_sq[rows, None] - 2.0 * xc[:rows.stop - rows.start] + c_sq
    return np.maximum(out, 0.0, out=out)


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Each row's nearest centre after k-means++ seeding and 10 Lloyd steps."""
    n = x.shape[0]
    x_sq = np.einsum("nh,nh->n", x, x)
    centers = [x[rng.integers(n)]]
    d2 = np.full(n, np.inf)  # squared distance to the nearest centre so far
    for _ in range(k - 1):
        np.minimum(d2, _sq_dists(x, x_sq, centers[-1][None])[:, 0], out=d2)
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(n)])
            continue
        centers.append(x[rng.choice(n, p=d2 / total)])
    centers = np.array(centers)
    for _ in range(10):
        assign = np.argmin(_sq_dists(x, x_sq, centers), axis=1)
        for i in range(k):
            if np.any(assign == i):
                centers[i] = x[assign == i].mean(axis=0)
    return np.argmin(_sq_dists(x, x_sq, centers), axis=1)


def _moments(x: np.ndarray, resp: np.ndarray, reg: float):
    """Masses nk, means sum_b resp[b].T @ x[b] / nk and covariances
    sum_b d.T @ d / nk + reg*I for each column k of the N x K' weights resp,
    every nk checked before any division; the means sum over the
    ``_row_blocks`` b, and d = sqrt(resp[b, k]) * (x[b] - mean_k) over blocks
    of ``_BLOCK_BYTES`` in one reused buffer. numpy sends d.T @ d to SYRK, and
    a sum of exactly symmetric blocks is exactly symmetric."""
    n, h = x.shape
    nk = resp.sum(axis=0)
    if not np.all(nk > 0):
        raise SingularModelError("component collapsed to zero responsibility")
    means = np.zeros((len(nk), h))
    for rows in _row_blocks(n, h, macs=len(nk) * h):
        means += resp[rows].T @ x[rows]
    means /= nk[:, None]
    covs = np.zeros((len(nk), h, h))
    buf = np.empty((min(n, _block_rows(h)), h))
    for rows in _row_blocks(n, h):
        d = buf[:rows.stop - rows.start]
        scale = np.sqrt(resp[rows])
        for i, mean in enumerate(means):
            np.subtract(x[rows], mean, out=d)
            d *= scale[:, i:i + 1]
            covs[i] += d.T @ d
    return nk, means, covs / nk[:, None, None] + reg * np.eye(h)


def _moment_match(x, assign, k, reg):
    """Weights, means and covariances of the k components that ``assign``
    gives the rows of x, each from its own rows as one all-ones column."""
    parts = (x[assign == i] for i in range(k))
    nk, means, covs = map(np.concatenate, zip(*(_moments(xi, np.ones((len(xi), 1)), reg)
                                                for xi in parts)))
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

        nk, means, covs = _moments(x, resp, cfg.reg)
        weights = nk / n

    fitted = GaussianMixture(weights, means, covs, reg=cfg.reg,
                             log_transform=cfg.log_transform)
    return (fitted, history) if return_history else fitted
