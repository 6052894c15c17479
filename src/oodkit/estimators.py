"""Softmax-derived uncertainty estimators, their gradients, and the
closed-form mental model combining activation magnitude with weight-vector
familiarity.

Sign convention throughout the toolkit: higher score = more uncertain. The
single-sample scores take their logits from the batch kernel, so each equals
its ``score_batch`` row bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (FeatureMatrix, SoftmaxHead, _angles, _entropy_rows, logits, softmax,
                   softmax_from_logits)
from .errors import ArgmaxTieError, ConfigError
from .gmm import GaussianMixture

__all__ = [
    "UncertaintyScore",
    "u_max",
    "u_entropy",
    "u_cool",
    "u_mental",
    "u_density",
    "grad_u_max",
    "grad_u_entropy",
    "grad_u_density",
    "score_batch",
    "COOL_TEMPERATURE",
]

# Cooling factor applied to logits before the entropy score; fixed constant,
# overridable per call.
COOL_TEMPERATURE = 0.1


@dataclass(frozen=True)
class UncertaintyScore:
    value: float
    estimator_id: str


def u_max(head: SoftmaxHead, z) -> UncertaintyScore:
    """Negative max softmax probability."""
    p = softmax(head, z)
    return UncertaintyScore(value=float(-p.max()), estimator_id="max")


def u_entropy(head: SoftmaxHead, z) -> UncertaintyScore:
    """Shannon entropy of the softmax output (natural log)."""
    return UncertaintyScore(value=float(_entropy_rows(softmax(head, z))),
                            estimator_id="entropy")


def u_cool(head: SoftmaxHead, z, temperature: float = COOL_TEMPERATURE) -> UncertaintyScore:
    """Entropy of the cooled softmax: the full logit (w_i . z + b_i) is scaled
    by ``temperature``, matching temperature scaling of logits."""
    ell = _cooled(logits(head, z), temperature)
    return UncertaintyScore(value=float(_entropy_rows(softmax_from_logits(ell))),
                            estimator_id="cool")


def _cooled(ell, temperature: float):
    """The logits scaled by a finite, positive temperature."""
    if not (np.isfinite(temperature) and temperature > 0):
        raise ConfigError(f"cool temperature must be finite and > 0, got {temperature!r}")
    return temperature * ell


def u_mental(k: int, z_norm: float, max_cos: float) -> UncertaintyScore:
    """Closed-form uncertainty from feature strength ||z|| and familiarity
    max cos(theta), valid under an equiangular head with unit-scale weights.
    """
    if k < 2:
        raise ConfigError("mental model needs k >= 2")
    if z_norm < 0:
        raise ConfigError("z_norm must be nonnegative")
    if not -1.0 <= max_cos <= 1.0:
        raise ConfigError("max_cos must lie in [-1, 1]")
    value = -1.0 / (1.0 + (k - 1) * np.exp(-z_norm * (1.0 / (k - 1) + max_cos)))
    return UncertaintyScore(value=float(value), estimator_id="mental")


def u_density(gmm: GaussianMixture, z) -> UncertaintyScore:
    """Negative log density under the fitted mixture."""
    return UncertaintyScore(value=-gmm.log_density(z), estimator_id="density")


_TIE_RTOL = 1e-12


def _checked_argmax(ell: np.ndarray) -> int:
    order = np.argsort(ell)[::-1]
    top, second = ell[order[0]], ell[order[1]]
    if top - second <= _TIE_RTOL * max(1.0, abs(top)):
        raise ArgmaxTieError("argmax tie: gradient undefined on the decision boundary")
    return int(order[0])


def grad_u_max(head: SoftmaxHead, z) -> np.ndarray:
    """Gradient of u_max with respect to z.

    Raises on argmax ties: the field is discontinuous across boundaries.
    """
    ell = logits(head, z)
    i = _checked_argmax(ell)
    sig = softmax_from_logits(ell)
    # sigma_i * sum_j sigma_j (w_j - w_i)
    mean_w = head.w @ sig
    return sig[i] * (mean_w - head.w[:, i])


def grad_u_entropy(head: SoftmaxHead, z) -> np.ndarray:
    """Gradient of the softmax-entropy score with respect to z."""
    ell = logits(head, z)
    sig = softmax_from_logits(ell)
    mean_w = head.w @ sig
    with np.errstate(divide="ignore"):
        coeff = np.where(sig > 0.0, np.log(np.maximum(sig, 1e-300)) + 1.0, 0.0) * sig
    # sum_i coeff_i * sum_j sigma_j (w_j - w_i)
    return mean_w * coeff.sum() - head.w @ coeff


def grad_u_density(gmm: GaussianMixture, z) -> np.ndarray:
    """Gradient of -log density(z) under the mixture."""
    return gmm.neg_log_density_grad(z)


def score_batch(head: SoftmaxHead, features: FeatureMatrix,
                gmm: GaussianMixture | None = None,
                cool_temperature: float = COOL_TEMPERATURE) -> dict:
    """Score every sample with all estimators.

    Returns a dict of column name -> 1-D array, in the batch-scoring CSV
    column order. Every column is bitwise independent of how the batch is
    split: the logits come from one row-wise einsum and every later step is
    elementwise or a reduction along a row, and ``u_density`` comes from
    ``GaussianMixture.log_density_batch``, whose rows do not depend on the
    batch either (a one-row batch included).
    """
    n = features.n
    wz, z_norm, cos = _angles(head, features.data)
    ell = wz + head.b
    p = softmax_from_logits(ell)
    return {
        "sample_index": np.arange(n),
        "u_max": -p.max(axis=1),
        "u_entropy": _entropy_rows(p),
        "u_cool": _entropy_rows(softmax_from_logits(_cooled(ell, cool_temperature))),
        "u_density": (np.full(n, np.nan) if gmm is None
                      else -gmm.log_density_batch(features.data)),
        "z_norm": z_norm,
        "max_cos": cos.max(axis=1),
        "argmax_class": ell.argmax(axis=1),
    }
