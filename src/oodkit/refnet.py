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
from .core import FeatureMatrix, LabelVector, SoftmaxHead, _entropy_rows, softmax_from_logits
from .errors import ConfigError, DataFormatError, DimensionError, NumericalError
from .metrics import auroc

__all__ = [
    "MlpSpec",
    "TrainConfig",
    "SyntheticTask",
    "MlpModel",
    "generate",
    "train",
    "confidence_sweep",
    "depth_study",
    "run_counterfactual",
    "run_depth_study",
    "TASK_KINDS",
]

TASK_KINDS = ("gaussian_blobs", "two_d_toy", "ring_ood",
              "uniform_hypercube_ood", "binary_grid")


@dataclass(frozen=True)
class MlpSpec:
    """layer_widths = [input D, hidden..., final H]; a linear K-way head sits
    on top of the final width."""

    layer_widths: tuple
    activation: str = "relu"
    k: int = 3
    # When True the map into the final width H is linear (no activation),
    # so final-layer activations are unbounded in R^H.
    linear_features: bool = False

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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


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

    Deterministic for a given seed parameter.
    """
    p = dict(task.params)
    seed = int(p.pop("seed", 0))
    rng = np.random.default_rng(seed)

    if task.kind in ("gaussian_blobs", "two_d_toy"):
        k = int(p.pop("k", 3))
        dim = int(p.pop("dim", 2))
        n_per_class = int(p.pop("n_per_class", 200))
        sigma = float(p.pop("sigma", 1.0))
        separation = float(p.pop("separation", 6.0))
        _reject_unknown(p)
        if k < 2 or dim < 1 or n_per_class < 1 or sigma <= 0 or separation <= 0:
            raise ConfigError("invalid blob parameters")
        # Circle radius such that adjacent means sit `separation` sigmas apart.
        chord = 2.0 * np.sin(np.pi / k) if k > 1 and dim > 1 else 2.0 / max(k - 1, 1)
        radius = separation * sigma / chord
        means = _blob_means(k, dim, radius)
        x = np.concatenate([
            means[i] + sigma * rng.standard_normal((n_per_class, dim))
            for i in range(k)
        ])
        y = np.repeat(np.arange(k), n_per_class)
        perm = rng.permutation(x.shape[0])
        return FeatureMatrix(x[perm]), LabelVector(y[perm], k=k)

    if task.kind == "ring_ood":
        n = int(p.pop("n", 500))
        dim = int(p.pop("dim", 2))
        radius = float(p.pop("radius", 12.0))
        width = float(p.pop("width", 2.0))
        _reject_unknown(p)
        if n < 1 or dim < 1 or radius <= 0 or width < 0:
            raise ConfigError("invalid ring parameters")
        dirs = rng.standard_normal((n, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        r = radius + width * rng.random(n)
        return FeatureMatrix(dirs * r[:, None]), None

    if task.kind == "uniform_hypercube_ood":
        n = int(p.pop("n", 500))
        dim = int(p.pop("dim", 2))
        low = float(p.pop("low", -1.0))
        high = float(p.pop("high", 1.0))
        _reject_unknown(p)
        if n < 1 or dim < 1 or high <= low:
            raise ConfigError("invalid hypercube parameters")
        return FeatureMatrix(rng.uniform(low, high, size=(n, dim))), None

    # binary_grid: per-class binary prototypes with pixel-flip noise, or a
    # uniform Bernoulli(0.5) sampler over the grid.
    grid = int(p.pop("grid", 9))
    mode = p.pop("mode", "classes")
    if mode == "uniform":
        n = int(p.pop("n", 500))
        _reject_unknown(p)
        if n < 1 or grid < 1:
            raise ConfigError("invalid grid parameters")
        return FeatureMatrix(rng.integers(0, 2, size=(n, grid * grid)).astype(float)), None
    k = int(p.pop("k", 3))
    n_per_class = int(p.pop("n_per_class", 200))
    flip_prob = float(p.pop("flip_prob", 0.05))
    proto_seed = int(p.pop("proto_seed", 0))
    _reject_unknown(p)
    if k < 2 or n_per_class < 1 or not 0.0 <= flip_prob < 0.5 or grid < 1:
        raise ConfigError("invalid grid parameters")
    proto_rng = np.random.default_rng(proto_seed)
    protos = proto_rng.integers(0, 2, size=(k, grid * grid))
    x = np.concatenate([
        np.abs(protos[i] - (rng.random((n_per_class, grid * grid)) < flip_prob))
        for i in range(k)
    ]).astype(float)
    y = np.repeat(np.arange(k), n_per_class)
    perm = rng.permutation(x.shape[0])
    return FeatureMatrix(x[perm]), LabelVector(y[perm], k=k)


def _reject_unknown(leftover: dict) -> None:
    if leftover:
        raise ConfigError(f"unknown task parameters: {sorted(leftover)}")


class MlpModel:
    """Fully-connected network: hidden stack with activations, then a linear
    softmax head. Parameters live in ``weights``/``biases`` (per hidden
    layer) and ``head_w``/``head_b``.
    """

    FORMAT_VERSION = 1

    def __init__(self, spec: MlpSpec, weights, biases, head_w, head_b,
                 head_frozen: bool = False):
        self.spec = spec
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]
        self.head_w = np.array(head_w, dtype=np.float64)
        self.head_b = np.array(head_b, dtype=np.float64)
        self.head_frozen = bool(head_frozen)
        widths = spec.layer_widths
        if len(self.weights) != len(widths) - 1:
            raise DimensionError("layer count does not match spec")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (widths[i], widths[i + 1]) or b.shape != (widths[i + 1],):
                raise DimensionError(f"layer {i} shape mismatch")
        if self.head_w.shape != (spec.h, spec.k) or self.head_b.shape != (spec.k,):
            raise DimensionError("head shape does not match spec")

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

    def _act(self, a: np.ndarray) -> np.ndarray:
        return np.maximum(a, 0.0) if self.spec.activation == "relu" else np.tanh(a)

    def _forward(self, x: np.ndarray):
        acts = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = a @ w + b
            a = pre if (i == last and self.spec.linear_features) else self._act(pre)
            acts.append(a)
        return acts  # acts[-1] is the final-layer z

    def features(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.spec.d:
            raise DimensionError(f"expected {self.spec.d} input dims, got {x.shape[1]}")
        return self._forward(x)[-1]

    def logits(self, x) -> np.ndarray:
        return self.features(x) @ self.head_w + self.head_b

    def predict_proba(self, x) -> np.ndarray:
        return softmax_from_logits(self.logits(x))

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)

    def accuracy(self, features: FeatureMatrix, labels: LabelVector) -> float:
        return float(np.mean(self.predict(features.data) == labels.labels))

    def head(self) -> SoftmaxHead:
        return SoftmaxHead(w=self.head_w.copy(), b=self.head_b.copy(),
                           meta={"kind": "trained", "frozen": self.head_frozen})

    # -- loss / gradients ----------------------------------------------------

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray, weight_decay: float = 0.0):
        """Cross-entropy (+ head penalty) and gradients for every parameter.

        Returns (loss, grads dict with 'weights', 'biases', 'head_w', 'head_b').
        """
        n = x.shape[0]
        acts = self._forward(x)
        z = acts[-1]
        p = softmax_from_logits(z @ self.head_w + self.head_b)
        picked = np.clip(p[np.arange(n), y], 1e-300, None)
        loss = float(-np.log(picked).mean())
        loss += weight_decay * float((self.head_w ** 2).sum() + (self.head_b ** 2).sum())

        dlogits = p.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        g_head_w = z.T @ dlogits + 2.0 * weight_decay * self.head_w
        g_head_b = dlogits.sum(axis=0) + 2.0 * weight_decay * self.head_b

        da = dlogits @ self.head_w.T
        g_w = [None] * len(self.weights)
        g_b = [None] * len(self.biases)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            a_out = acts[i + 1]
            if i == last and self.spec.linear_features:
                dpre = da
            elif self.spec.activation == "relu":
                dpre = da * (a_out > 0.0)
            else:
                dpre = da * (1.0 - a_out ** 2)
            g_w[i] = acts[i].T @ dpre
            g_b[i] = dpre.sum(axis=0)
            da = dpre @ self.weights[i].T
        return loss, {"weights": g_w, "biases": g_b,
                      "head_w": g_head_w, "head_b": g_head_b}

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "layer_widths": list(self.spec.layer_widths),
            "activation": self.spec.activation,
            "k": self.spec.k,
            "linear_features": self.spec.linear_features,
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
        """Rebuild a saved model; a payload with a missing key, a non-integer
        k, a non-boolean flag, or a field that is non-numeric or of the wrong
        shape raises DataFormatError."""
        if not isinstance(d, dict):
            raise DataFormatError("model file must hold a JSON object")
        if d.get("format_version") != cls.FORMAT_VERSION:
            raise ConfigError("unsupported model format version")
        missing = [key for key in ("layer_widths", "activation", "k", "weights", "biases",
                                   "head_w", "head_b") if key not in d]
        if missing:
            raise DataFormatError(f"model file lacks required keys {missing}")
        if type(d["k"]) is not int:
            raise DataFormatError(f"model k must be an integer, got {d['k']!r}")
        flags = {key: d.get(key, False) for key in ("linear_features", "head_frozen")}
        if not all(isinstance(v, bool) for v in flags.values()):
            raise DataFormatError(f"model flags must be true or false, got {flags}")
        try:
            spec = MlpSpec(tuple(d["layer_widths"]), d["activation"], d["k"],
                           flags["linear_features"])
            return cls(spec, d["weights"], d["biases"], d["head_w"], d["head_b"],
                       head_frozen=flags["head_frozen"])
        except (TypeError, ValueError, DimensionError) as e:
            raise DataFormatError(f"model file holds a malformed field: {e}") from e

    @classmethod
    def load(cls, path) -> "MlpModel":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def train(dataset, spec: MlpSpec, cfg: TrainConfig) -> MlpModel:
    """Mini-batch SGD on cross-entropy + weight_decay * head penalty.

    ``dataset`` is (FeatureMatrix of inputs, LabelVector). Deterministic for
    a given cfg.seed. Raises on divergence (non-finite loss).
    """
    features, labels = dataset
    if labels is None:
        raise ConfigError("training requires labels")
    if labels.n != features.n:
        raise DimensionError("label count does not match input count")
    if features.h != spec.d:
        raise DimensionError("input dimension does not match spec")
    if labels.k > spec.k:
        raise ConfigError("label range exceeds spec classes")

    model = MlpModel.init(spec, seed=cfg.seed, frozen_head=cfg.frozen_head)
    rng = np.random.default_rng(cfg.seed + 1)
    x, y = features.data, labels.labels
    n = features.n
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = model.loss_and_grads(x[idx], y[idx], cfg.weight_decay)
            if not np.isfinite(loss):
                raise NumericalError("training diverged: non-finite loss")
            lr = cfg.learning_rate
            for i in range(len(model.weights)):
                model.weights[i] -= lr * grads["weights"][i]
                model.biases[i] -= lr * grads["biases"][i]
            if not model.head_frozen:
                model.head_w -= lr * grads["head_w"]
                model.head_b -= lr * grads["head_b"]
    return model


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


def confidence_sweep(model: MlpModel, sampler: SyntheticTask, n_samples: int,
                     top_m: int, chunk: int = 4096):
    """Stream sampler draws and keep the top_m most-confident inputs per
    argmax class. Memory stays O(top_m * K * D + chunk * D).

    Returns a dict class -> (top_m x D inputs, confidences sorted
    descending).
    """
    if n_samples < top_m * model.spec.k:
        raise ConfigError("n_samples must be >= top_m * K")
    state = SweepState(model, top_m)
    seed = int(sampler.params.get("seed", 0))
    done = 0
    chunk_idx = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        xs, _ = generate(sampler.with_params(n=m, seed=seed + 7919 * chunk_idx))
        state.update(xs.data)
        done += m
        chunk_idx += 1
    return state.result()


def _entropy_scores(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return _entropy_rows(model.predict_proba(x))


def depth_study(train_data, test_data, ood_features: FeatureMatrix,
                depths, width: int, cfg: TrainConfig, seeds,
                activation: str = "relu", k: int | None = None):
    """One model per (depth, seed); reports in-distribution test accuracy and
    softmax-entropy AUROC against the OOD set, with mean and standard error
    over seeds.

    Returns a list of row dicts ordered by depth.
    """
    train_x, train_y = train_data
    if k is None:
        k = train_y.k
    rows = []
    for depth in depths:
        if depth < 1:
            raise ConfigError("depth must be >= 1")
        accs, aurocs = [], []
        for seed in seeds:
            spec = MlpSpec((train_x.h,) + (width,) * depth, activation, k)
            model = train((train_x, train_y), spec, replace(cfg, seed=int(seed)))
            accs.append(model.accuracy(*test_data))
            s_in = _entropy_scores(model, test_data[0].data)
            s_out = _entropy_scores(model, ood_features.data)
            aurocs.append(auroc(s_in, s_out))
        accs, aurocs = np.array(accs), np.array(aurocs)
        ns = max(len(seeds), 1)
        rows.append({
            "depth": int(depth),
            "accuracy_per_seed": accs.tolist(),
            "auroc_per_seed": aurocs.tolist(),
            "accuracy_mean": float(accs.mean()),
            "accuracy_stderr": float(accs.std(ddof=1) / np.sqrt(ns)) if ns > 1 else 0.0,
            "auroc_mean": float(aurocs.mean()),
            "auroc_stderr": float(aurocs.std(ddof=1) / np.sqrt(ns)) if ns > 1 else 0.0,
        })
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
    final head on training features.
    """
    results = {}
    for kind in structures:
        accs, aurocs, xents = [], [], []
        for seed in seeds:
            task = SyntheticTask("gaussian_blobs", {
                "k": 3, "dim": 2, "n_per_class": n_per_class,
                "separation": separation, "seed": seed})
            train_x, train_y = generate(task)
            test_x, test_y = generate(task.with_params(seed=seed + 1000))
            # Circumradius of the class means; the annulus sits just outside.
            mean_radius = separation / (2.0 * np.sin(np.pi / 3))
            ring, _ = generate(SyntheticTask("ring_ood", {
                "n": n_ood, "dim": 2, "radius": ood_radius_factor * mean_radius,
                "width": 2.0, "seed": seed + 2000}))
            frozen = _counterfactual_frozen_head(kind, h, seed, c1=c1)
            spec = MlpSpec((2, width, h), activation, 3)
            tc = TrainConfig(epochs=epochs, batch_size=64, learning_rate=learning_rate,
                             weight_decay=weight_decay, seed=seed, frozen_head=frozen)
            model = train((train_x, train_y), spec, tc)
            accs.append(model.accuracy(test_x, test_y))
            s_in = _entropy_scores(model, test_x.data)
            s_out = _entropy_scores(model, ring.data)
            aurocs.append(auroc(s_in, s_out))
            feats = FeatureMatrix(model.features(train_x.data))
            xents.append(structure.regularized_xent(feats, train_y, model.head(),
                                                    lambda1=weight_decay))
        accs, aurocs, xents = np.array(accs), np.array(aurocs), np.array(xents)
        n = len(seeds)
        se = (lambda a: float(a.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)
        results[kind] = {
            "accuracy_per_seed": accs.tolist(),
            "auroc_per_seed": aurocs.tolist(),
            "regularized_xent_per_seed": xents.tolist(),
            "accuracy_mean": float(accs.mean()), "accuracy_stderr": se(accs),
            "auroc_mean": float(aurocs.mean()), "auroc_stderr": se(aurocs),
            "regularized_xent_mean": float(xents.mean()),
            "regularized_xent_stderr": se(xents),
        }
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
