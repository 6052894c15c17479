"""Desk-scale reference networks, synthetic tasks and the experiments run
on them.

A small from-scratch MLP trainer (mini-batch SGD, seeded, deterministic)
with optional frozen softmax head, the synthetic data generators (Gaussian
blobs, ring / annulus OOD, uniform hypercube OOD, and a binary-grid
prototype task), and the frozen-head counterfactual and depth experiments
built from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import structure
from .core import (FeatureMatrix, LabelVector, SoftmaxHead, _entropy_rows, _file_content,
                   _typed_params, softmax_from_logits)
from .errors import ConfigError, DimensionError, NumericalError
from .metrics import auroc

__all__ = [
    "MlpSpec",
    "TrainConfig",
    "SyntheticTask",
    "MlpModel",
    "generate",
    "train",
    "train_stack",
    "confidence_sweep",
    "depth_study",
    "run_counterfactual",
    "run_depth_study",
    "TASKS",
    "TASK_KINDS",
]

# Parameter table per task kind, {key: (type, default)}, with the types of
# core._typed.
TASKS = {
    "gaussian_blobs": {"k": (int, 3), "dim": (int, 2), "n_per_class": (int, 200),
                       "sigma": (float, 1.0), "separation": (float, 6.0), "seed": (int, 0)},
    "ring_ood": {"n": (int, 500), "dim": (int, 2), "radius": (float, 12.0),
                 "width": (float, 2.0), "seed": (int, 0)},
    "uniform_hypercube_ood": {"n": (int, 500), "dim": (int, 2), "low": (float, -1.0),
                              "high": (float, 1.0), "seed": (int, 0)},
    "binary_grid": {"grid": (int, 9), "k": (int, 3), "n_per_class": (int, 200),
                    "flip_prob": (float, 0.05), "proto_seed": (int, 0), "seed": (int, 0)},
    "binary_grid_ood": {"grid": (int, 9), "n": (int, 500), "seed": (int, 0)},
}
TASK_KINDS = tuple(TASKS)


@dataclass(frozen=True)
class MlpSpec:
    """layer_widths = [input D, hidden..., final H]; a linear K-way head sits
    on top of the final width."""

    layer_widths: tuple
    activation: str = "relu"
    k: int = 3

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ConfigError("need at least one hidden layer (input + final width)")
        if any(w < 1 for w in widths):
            raise ConfigError("layer widths must be >= 1")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        for rows, cols in zip(widths, widths[1:] + (self.k,)):
            structure._check_size(rows, cols)

    @classmethod
    def uniform(cls, d: int, width: int, depth: int, activation: str, k: int) -> "MlpSpec":
        """``depth`` hidden layers of ``width`` on a D-wide input. Their
        depth - 1 width x width weights are size-checked before the widths
        tuple is built."""
        structure._check_size(depth - 1, width, width)
        return cls((d,) + (width,) * depth, activation, k)

    @property
    def d(self) -> int:
        return self.layer_widths[0]

    @property
    def h(self) -> int:
        return self.layer_widths[-1]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 0.05
    weight_decay: float = 0.0  # lambda1 penalty on the head
    seed: int = 0
    frozen_head: SoftmaxHead | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        # Written so that NaN and +-inf fail them.
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and positive")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError("weight_decay must be finite and >= 0")


@dataclass(frozen=True)
class SyntheticTask:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}")

    def with_params(self, **overrides) -> "SyntheticTask":
        return SyntheticTask(self.kind, {**self.params, **overrides})


def _blob_means(k: int, dim: int, radius: float) -> np.ndarray:
    """Class means on a circle in the first two dims (collinear for dim=1)."""
    means = np.zeros((k, dim))
    angles = 2.0 * np.pi * np.arange(k) / k
    if dim == 1:
        means[:, 0] = radius * np.linspace(-1.0, 1.0, k)
    else:
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
    return means


def generate(task: SyntheticTask):
    """Draw a dataset; returns (FeatureMatrix of inputs, LabelVector | None).

    ``task.params`` are checked against ``TASKS[task.kind]``. Deterministic
    for a given seed parameter.
    """
    p = _typed_params(TASKS[task.kind], task.params, "task parameter")
    rng = np.random.default_rng(p["seed"])

    if task.kind == "gaussian_blobs":
        k, dim, n_per_class, sigma = p["k"], p["dim"], p["n_per_class"], p["sigma"]
        if not (k >= 2 and dim >= 1 and n_per_class >= 1 and sigma > 0
                and p["separation"] > 0):
            raise ConfigError("invalid blob parameters")
        # Circle radius such that adjacent means sit `separation` sigmas apart.
        chord = 2.0 * np.sin(np.pi / k) if k > 1 and dim > 1 else 2.0 / max(k - 1, 1)
        radius = p["separation"] * sigma / chord
        means = _blob_means(k, dim, radius)
        x = np.concatenate([
            means[i] + sigma * rng.standard_normal((n_per_class, dim))
            for i in range(k)
        ])
        y = np.repeat(np.arange(k), n_per_class)
        perm = rng.permutation(x.shape[0])
        return FeatureMatrix(x[perm]), LabelVector(y[perm], k=k)

    if task.kind == "ring_ood":
        n, dim = p["n"], p["dim"]
        if not (n >= 1 and dim >= 1 and p["radius"] > 0 and p["width"] >= 0):
            raise ConfigError("invalid ring parameters")
        dirs = rng.standard_normal((n, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        r = p["radius"] + p["width"] * rng.random(n)
        return FeatureMatrix(dirs * r[:, None]), None

    if task.kind == "uniform_hypercube_ood":
        n, dim, low, high = p["n"], p["dim"], p["low"], p["high"]
        if n < 1 or dim < 1 or not 0 < high - low < np.inf:
            raise ConfigError("invalid hypercube parameters")
        return FeatureMatrix(rng.uniform(low, high, size=(n, dim))), None

    # binary_grid_ood: a uniform Bernoulli(0.5) sampler over the grid;
    # binary_grid: per-class binary prototypes with pixel-flip noise.
    grid = p["grid"]
    if task.kind == "binary_grid_ood":
        if p["n"] < 1 or grid < 1:
            raise ConfigError("invalid grid parameters")
        return FeatureMatrix(rng.integers(0, 2, size=(p["n"], grid * grid)).astype(float)), None
    k, n_per_class, flip_prob = p["k"], p["n_per_class"], p["flip_prob"]
    if k < 2 or n_per_class < 1 or not 0.0 <= flip_prob < 0.5 or grid < 1:
        raise ConfigError("invalid grid parameters")
    proto_rng = np.random.default_rng(p["proto_seed"])
    protos = proto_rng.integers(0, 2, size=(k, grid * grid))
    x = np.concatenate([
        np.abs(protos[i] - (rng.random((n_per_class, grid * grid)) < flip_prob))
        for i in range(k)
    ]).astype(float)
    y = np.repeat(np.arange(k), n_per_class)
    perm = rng.permutation(x.shape[0])
    return FeatureMatrix(x[perm]), LabelVector(y[perm], k=k)


class MlpModel:
    """Fully-connected network: hidden stack with activations, then a linear
    softmax head. Parameters live in ``weights``/``biases`` (per hidden
    layer) and ``head_w``/``head_b``.
    """

    FORMAT_VERSION = 1
    # The saved payload, {key: (type, default)} with the types of
    # core._typed; the arrays are checked when the model is built from them.
    # linear_features is always false; the key stays so that older files load.
    PAYLOAD = {"format_version": ((FORMAT_VERSION,), ...), "layer_widths": ([int], ...),
               "activation": (str, ...), "k": (int, ...), "linear_features": ((False,), False),
               "head_frozen": (bool, False), "weights": (list, ...), "biases": (list, ...),
               "head_w": (list, ...), "head_b": (list, ...)}

    def __init__(self, spec: MlpSpec, weights, biases, head_w, head_b,
                 head_frozen: bool = False):
        self.spec = spec
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]
        self.head_w = np.array(head_w, dtype=np.float64)
        self.head_b = np.array(head_b, dtype=np.float64)
        self.head_frozen = bool(head_frozen)
        widths = spec.layer_widths
        if not len(self.weights) == len(self.biases) == len(widths) - 1:
            raise DimensionError("layer count does not match spec")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (widths[i], widths[i + 1]) or b.shape != (widths[i + 1],):
                raise DimensionError(f"layer {i} shape mismatch")
        if self.head_w.shape != (spec.h, spec.k) or self.head_b.shape != (spec.k,):
            raise DimensionError("head shape does not match spec")
        if not all(np.isfinite(a).all() for a in
                   self.weights + self.biases + [self.head_w, self.head_b]):
            raise NumericalError("model parameters hold a non-finite value")

    @classmethod
    def init(cls, spec: MlpSpec, seed: int = 0,
             frozen_head: SoftmaxHead | None = None) -> "MlpModel":
        rng = np.random.default_rng(seed)
        widths = spec.layer_widths
        weights, biases = [], []
        for i in range(len(widths) - 1):
            std = np.sqrt(2.0 / widths[i]) if spec.activation == "relu" \
                else np.sqrt(1.0 / widths[i])
            weights.append(std * rng.standard_normal((widths[i], widths[i + 1])))
            biases.append(np.zeros(widths[i + 1]))
        if frozen_head is not None:
            if frozen_head.h != spec.h or frozen_head.k != spec.k:
                raise DimensionError("frozen head dims do not match spec (H, K)")
            head_w = frozen_head.w.copy()
            head_b = frozen_head.b.copy()
        else:
            head_w = np.sqrt(1.0 / spec.h) * rng.standard_normal((spec.h, spec.k))
            head_b = np.zeros(spec.k)
        return cls(spec, weights, biases, head_w, head_b,
                   head_frozen=frozen_head is not None)

    # -- forward -------------------------------------------------------------

    def features(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.spec.d:
            raise DimensionError(f"expected {self.spec.d} input dims, got {x.shape[1]}")
        for w, b in zip(self.weights, self.biases):
            x = x @ w + b
            x = np.maximum(x, 0.0) if self.spec.activation == "relu" else np.tanh(x)
        return x

    def logits(self, x) -> np.ndarray:
        return self.features(x) @ self.head_w + self.head_b

    def predict_proba(self, x) -> np.ndarray:
        return softmax_from_logits(self.logits(x))

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)

    def accuracy(self, features: FeatureMatrix, labels: LabelVector) -> float:
        return float(np.mean(self.predict(features.data) == labels.labels))

    def head(self) -> SoftmaxHead:
        return SoftmaxHead(w=self.head_w.copy(), b=self.head_b.copy())

    # -- loss / gradients ----------------------------------------------------

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray, weight_decay: float = 0.0):
        """Cross-entropy (+ head penalty) and gradients for every parameter:
        a one-model call of the training kernel. Labels outside [0, k)
        raise DataFormatError.

        Returns (loss, grads dict with 'weights', 'biases', 'head_w', 'head_b').
        """
        loss, grads = _loss_and_grads(
            self.spec, [w[None] for w in self.weights], [b[None, :, None] for b in self.biases],
            self.head_w[None], self.head_b[None, :, None], np.asarray(x).T[None],
            LabelVector(y, k=self.spec.k).labels[None], weight_decay)
        return float(loss[0]), {"weights": [g[0] for g in grads["weights"]],
                                "biases": [g[0, :, 0] for g in grads["biases"]],
                                "head_w": grads["head_w"][0],
                                "head_b": grads["head_b"][0, :, 0]}

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "layer_widths": list(self.spec.layer_widths),
            "activation": self.spec.activation,
            "k": self.spec.k,
            "linear_features": False,
            "head_frozen": self.head_frozen,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "head_w": self.head_w.tolist(),
            "head_b": self.head_b.tolist(),
        }

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1)

    @classmethod
    def from_dict(cls, d: dict) -> "MlpModel":
        """Rebuild a saved model; a payload that does not fit ``PAYLOAD``, or
        a field that is non-numeric, non-finite or of the wrong shape, raises
        DataFormatError."""
        with _file_content("model file"):
            p = _typed_params(cls.PAYLOAD, d, "key")
            spec = MlpSpec(tuple(p["layer_widths"]), p["activation"], p["k"])
            return cls(spec, p["weights"], p["biases"], p["head_w"], p["head_b"],
                       head_frozen=p["head_frozen"])

    @classmethod
    def load(cls, path) -> "MlpModel":
        with open(path) as f, _file_content("model file"):
            return cls.from_dict(json.load(f))


def _loss_and_grads(spec: MlpSpec, weights, biases, head_w, head_b, x, y,
                    weight_decay: float):
    """Cross-entropy (+ weight_decay * head penalty) and the gradient of every
    parameter, for a stack of S models of one spec.

    Activations are feature-major, batch axis innermost: x is S x D x n and
    every layer's output S x width x n; y is S x n integer labels,
    weights[i] S x W_i x W_{i+1}, biases[i] S x W_{i+1} x 1, head_w S x H x K
    and head_b S x K x 1. The forward pass is w^T @ a + b and the backward
    pass a @ dpre^T and w @ dpre, so the activation, the softmax over K, the
    label pick and the bias-gradient sums all run along the contiguous batch
    axis. numpy's stacked matmul makes, for each model, the BLAS call that a
    2-D product of the same shape and strides would make, and every
    elementwise op and reduction stays within one model, so each model's bits
    do not depend on the rest of the stack. Returns (S losses, grads dict
    with 'weights', 'biases', 'head_w', 'head_b', shaped like the
    parameters).
    """
    n = y.shape[1]
    relu = spec.activation == "relu"
    acts = [x]
    for w, b in zip(weights, biases):
        a = w.swapaxes(1, 2) @ acts[-1]
        a += b
        if relu:
            np.maximum(a, 0.0, out=a)
        else:
            np.tanh(a, out=a)
        acts.append(a)
    z = acts[-1]
    logits = head_w.swapaxes(1, 2) @ z
    logits += head_b
    dlogits = softmax_from_logits(logits, axis=1)
    onehot = y[:, None] == np.arange(spec.k)[:, None]
    picked = (dlogits * onehot).sum(axis=1)
    loss = -np.log(np.clip(picked, 1e-300, None)).mean(axis=1)
    loss += weight_decay * ((head_w ** 2).sum(axis=(1, 2)) + (head_b ** 2).sum(axis=(1, 2)))

    dlogits -= onehot
    dlogits /= n
    g_head_w = z @ dlogits.swapaxes(1, 2) + 2.0 * weight_decay * head_w
    g_head_b = dlogits.sum(axis=2, keepdims=True) + 2.0 * weight_decay * head_b

    dpre = head_w @ dlogits
    g_w = [None] * len(weights)
    g_b = [None] * len(biases)
    for i in range(len(weights) - 1, -1, -1):
        a_out = acts[i + 1]
        if relu:
            dpre *= a_out > 0.0
        else:
            slope = a_out * a_out
            np.subtract(1.0, slope, out=slope)
            dpre *= slope
        g_w[i] = acts[i] @ dpre.swapaxes(1, 2)
        g_b[i] = dpre.sum(axis=2, keepdims=True)
        if i:
            dpre = weights[i] @ dpre
    return loss, {"weights": g_w, "biases": g_b, "head_w": g_head_w, "head_b": g_head_b}


def train_stack(datasets, spec: MlpSpec, cfgs) -> list:
    """Train one model per (dataset, config) pair, all in lockstep.

    Each model gets its own ``MlpModel.init(cfg.seed)`` parameters, its own
    minibatch order (drawn from ``default_rng(cfg.seed + 1)``), its own data
    and its own frozen head or none; every step is one forward/backward pass
    of ``_loss_and_grads`` and one update of the whole stack. Each epoch
    gathers every model's permuted inputs and labels once, into one reused
    S x D x n buffer, and each minibatch is a slice of it. A model's
    slice has the same shape and strides whatever the stack holds, and no op
    mixes models, so the result is bitwise the one of training each model
    alone with ``train``. All pairs must share n, epochs, batch size,
    learning rate and weight decay. Raises NumericalError as soon as any
    model's loss is not finite, or when the last update leaves a parameter
    non-finite.
    """
    if len(cfgs) == 0 or len(datasets) != len(cfgs):
        raise ConfigError("a training stack needs one dataset per config and at least one")
    for features, labels in datasets:
        if labels is None:
            raise ConfigError("training requires labels")
        if labels.n != features.n:
            raise DimensionError("label count does not match input count")
        if features.h != spec.d:
            raise DimensionError("input dimension does not match spec")
        if labels.k > spec.k:
            raise ConfigError("label range exceeds spec classes")
    schedules = {(c.epochs, c.batch_size, c.learning_rate, c.weight_decay) for c in cfgs}
    sizes = {features.n for features, _ in datasets}
    if len(schedules) > 1 or len(sizes) > 1:
        raise ConfigError("models trained in one stack must share n, epochs, batch size, "
                          "learning rate and weight decay")

    models = [MlpModel.init(spec, seed=c.seed, frozen_head=c.frozen_head) for c in cfgs]
    rngs = [np.random.default_rng(c.seed + 1) for c in cfgs]
    weights = [np.stack(w) for w in zip(*(m.weights for m in models))]
    biases = [np.stack(b)[..., None] for b in zip(*(m.biases for m in models))]
    head_w = np.stack([m.head_w for m in models])
    head_b = np.stack([m.head_b for m in models])[..., None]
    trainable = np.array([not m.head_frozen for m in models])[:, None, None]
    n = sizes.pop()
    cfg = cfgs[0]
    lr = cfg.learning_rate
    x_epoch = np.empty((len(models), spec.d, n))
    y_epoch = np.empty((len(models), n), dtype=np.int64)
    for _ in range(cfg.epochs):
        for i, ((features, labels), rng) in enumerate(zip(datasets, rngs)):
            order = rng.permutation(n)
            np.take(features.data.T, order, axis=1, out=x_epoch[i])
            np.take(labels.labels, order, out=y_epoch[i])
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            loss, grads = _loss_and_grads(spec, weights, biases, head_w, head_b,
                                          x_epoch[..., batch], y_epoch[:, batch],
                                          cfg.weight_decay)
            if not np.isfinite(loss).all():
                raise NumericalError("training diverged: non-finite loss")
            for w, g in zip(weights, grads["weights"]):
                w -= lr * g
            for b, g in zip(biases, grads["biases"]):
                b -= lr * g
            np.subtract(head_w, lr * grads["head_w"], out=head_w, where=trainable)
            np.subtract(head_b, lr * grads["head_b"], out=head_b, where=trainable)
    return [MlpModel(spec, [w[i] for w in weights], [b[i, :, 0] for b in biases],
                     head_w[i], head_b[i, :, 0], head_frozen=m.head_frozen)
            for i, m in enumerate(models)]


def train(dataset, spec: MlpSpec, cfg: TrainConfig) -> MlpModel:
    """Mini-batch SGD on cross-entropy + weight_decay * head penalty.

    ``dataset`` is (FeatureMatrix of inputs, LabelVector). Deterministic for
    a given cfg.seed. Raises on divergence (non-finite loss). A one-model
    ``train_stack``.
    """
    return train_stack([dataset], spec, [cfg])[0]


class SweepState:
    """Per-class top-m accumulator for the confidence sweep.

    Ties break on the raw input coordinates, so the kept set depends only on
    the sample multiset, never on arrival order or batch boundaries.
    """

    def __init__(self, model: MlpModel, top_m: int):
        if top_m < 1:
            raise ConfigError("top_m must be >= 1")
        self.model = model
        self.top_m = top_m
        self.kept_x = {c: np.empty((0, model.spec.d)) for c in range(model.spec.k)}
        self.kept_conf = {c: np.empty(0) for c in range(model.spec.k)}

    def update(self, x: np.ndarray) -> None:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        p = self.model.predict_proba(x)
        conf = p.max(axis=1)
        cls = p.argmax(axis=1)
        for c in range(self.model.spec.k):
            mask = cls == c
            allx = np.concatenate([self.kept_x[c], x[mask]])
            allc = np.concatenate([self.kept_conf[c], conf[mask]])
            order = np.lexsort(tuple(allx.T) + (-allc,))[:self.top_m]
            self.kept_x[c], self.kept_conf[c] = allx[order], allc[order]

    def result(self) -> dict:
        return {c: (self.kept_x[c].copy(), self.kept_conf[c].copy())
                for c in range(self.model.spec.k)}


def confidence_sweep(model: MlpModel, sampler: SyntheticTask, n_samples: int, top_m: int):
    """Stream sampler draws and keep the top_m most-confident inputs per
    argmax class. The draws come in chunks of 4096, chunk i drawn with the
    sampler's seed + 7919 * i, so memory stays O(top_m * K * D + 4096 * D).

    Returns a dict class -> (top_m x D inputs, confidences sorted
    descending).
    """
    if n_samples < top_m * model.spec.k:
        raise ConfigError("n_samples must be >= top_m * K")
    state = SweepState(model, top_m)
    seed = _typed_params(TASKS[sampler.kind], sampler.params, "task parameter")["seed"]
    for i, done in enumerate(range(0, n_samples, 4096)):
        xs, _ = generate(sampler.with_params(n=min(4096, n_samples - done),
                                             seed=seed + 7919 * i))
        state.update(xs.data)
    return state.result()


def _entropy_scores(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return _entropy_rows(model.predict_proba(x))


def _check_distinct(name: str, values) -> None:
    """A repeated entry would train the same model twice and count it twice."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{name} must not repeat an entry")


def _summary(name: str, values) -> dict:
    """``<name>_per_seed``, ``<name>_mean`` and ``<name>_stderr`` of per-seed values."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    return {f"{name}_per_seed": values.tolist(),
            f"{name}_mean": float(values.mean()),
            f"{name}_stderr": float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0}


def depth_study(train_data, test_data, ood_features: FeatureMatrix,
                depths, width: int, cfg: TrainConfig, seeds, activation: str = "relu"):
    """One model per (depth, seed), the seeds of one depth trained as one
    stack; reports in-distribution test accuracy and softmax-entropy AUROC
    against the OOD set, with mean and standard error over seeds.

    Returns a list of row dicts ordered by depth.
    """
    train_x, train_y = train_data
    if len(seeds) == 0:
        raise ConfigError("depth study needs at least one seed")
    if any(depth < 1 for depth in depths):
        raise ConfigError("depth must be >= 1")
    _check_distinct("depths", depths)
    _check_distinct("seeds", seeds)
    rows = []
    for depth in depths:
        spec = MlpSpec.uniform(train_x.h, width, depth, activation, train_y.k)
        models = train_stack([(train_x, train_y)] * len(seeds), spec,
                             [replace(cfg, seed=int(seed)) for seed in seeds])
        accs = [model.accuracy(*test_data) for model in models]
        aurocs = [auroc(_entropy_scores(model, test_data[0].data),
                        _entropy_scores(model, ood_features.data)) for model in models]
        rows.append({"depth": int(depth), **_summary("accuracy", accs),
                     **_summary("auroc", aurocs)})
    return rows


def _counterfactual_frozen_head(kind: str, h: int, seed: int, c1: float = 2.0):
    if kind == "optimal":
        return structure.gen_optimal_head(
            structure.OptimalStructureSpec(k=3, h=h, c1=c1), seed=seed)
    if kind == "trainable":
        return None
    return structure.gen_counterfactual_head(kind, k=3, h=h, seed=seed)


def run_counterfactual(structures, seeds, h=2, width=16, epochs=50, activation="tanh",
                       learning_rate=0.05, weight_decay=1e-4, c1=2.0,
                       n_per_class=200, separation=6.0, ood_radius_factor=1.6,
                       n_ood=600) -> dict:
    """Frozen-head counterfactual experiment on 3-class blobs vs ring OOD.

    For each head structure and seed: train with the head frozen (or fully
    trainable), record test accuracy, softmax-entropy AUROC against an
    annulus just outside the blobs, and the regularized cross-entropy of the
    final head on training features. All structures x seeds train as one
    stack.
    """
    if len(structures) == 0 or len(seeds) == 0:
        raise ConfigError("counterfactual needs at least one structure and one seed")
    _check_distinct("structures", structures)
    _check_distinct("seeds", seeds)
    # Circumradius of the class means; the annulus sits just outside.
    mean_radius = separation / (2.0 * np.sin(np.pi / 3))
    data = []  # (train, test, ring) per position in seeds
    for seed in seeds:
        task = SyntheticTask("gaussian_blobs", {
            "k": 3, "dim": 2, "n_per_class": n_per_class,
            "separation": separation, "seed": seed})
        ring, _ = generate(SyntheticTask("ring_ood", {
            "n": n_ood, "dim": 2, "radius": ood_radius_factor * mean_radius,
            "width": 2.0, "seed": seed + 2000}))
        data.append((generate(task), generate(task.with_params(seed=seed + 1000)), ring))
    spec = MlpSpec((2, width, h), activation, 3)
    cfgs = [TrainConfig(epochs=epochs, batch_size=64, learning_rate=learning_rate,
                        weight_decay=weight_decay, seed=seed,
                        frozen_head=_counterfactual_frozen_head(kind, h, seed, c1=c1))
            for kind in structures for seed in seeds]
    models = iter(train_stack([train for train, _, _ in data] * len(structures), spec, cfgs))

    results = {}
    for kind in structures:
        accs, aurocs, xents = [], [], []
        for (train_x, train_y), (test_x, test_y), ring in data:
            model = next(models)
            accs.append(model.accuracy(test_x, test_y))
            s_in = _entropy_scores(model, test_x.data)
            s_out = _entropy_scores(model, ring.data)
            aurocs.append(auroc(s_in, s_out))
            feats = FeatureMatrix(model.features(train_x.data))
            xents.append(structure.regularized_xent(feats, train_y, model.head(),
                                                    lambda1=weight_decay))
        results[kind] = {**_summary("accuracy", accs), **_summary("auroc", aurocs),
                         **_summary("regularized_xent", xents)}
    order = sorted(results, key=lambda k: -results[k]["auroc_mean"])
    return {"structures": results, "auroc_order": order}


def run_depth_study(depths, seeds, width=16, activation="tanh", epochs=30,
                    learning_rate=0.05, batch_size=64, n_per_class=200,
                    dim=4, separation=6.0, n_ood=600) -> list:
    """Depth comparison on blobs with nuisance dimensions: class signal in
    the first two coordinates, pure noise in the rest, ring OOD in-plane."""
    task = SyntheticTask("gaussian_blobs", {
        "k": 3, "dim": dim, "n_per_class": n_per_class,
        "separation": separation, "seed": 42})
    train_x, train_y = generate(task)
    test_x, test_y = generate(task.with_params(seed=1042))
    blob_extent = float(np.linalg.norm(train_x.data, axis=1).max())
    ood, _ = generate(SyntheticTask("ring_ood", {
        "n": n_ood, "dim": dim, "radius": 1.5 * blob_extent, "width": 2.0,
        "seed": 2042}))
    tc = TrainConfig(epochs=epochs, batch_size=batch_size,
                     learning_rate=learning_rate, seed=0)
    return depth_study((train_x, train_y), (test_x, test_y), ood,
                       depths, width, tc, seeds, activation=activation)
