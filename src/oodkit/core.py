"""Core containers: feature matrices, labels, the softmax head, and the
magnitude/angle decomposition of final-layer activations.

All containers are immutable after construction and every operation here is
a pure function, so everything in this module is safe to share across
threads. Feature files may store float32; arrays are widened to float64 on
load and all arithmetic is done in 64-bit.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataFormatError, DegenerateWeightError, DimensionError,
                     NumericalError, OodkitError)

__all__ = [
    "FeatureMatrix",
    "LabelVector",
    "SoftmaxHead",
    "AngleDecomposition",
    "softmax",
    "logits",
    "decompose",
    "load_features",
    "save_features",
    "load_head",
    "save_head",
]

_FEAT_MAGIC = b"FEAT"
_FEAT_VERSION = 1


# ---------------------------------------------------------------------------
# Parameter tables: {key: (type, default[, help])}
#
# A type is int, float, bool, str, list (any JSON list, whose entries the
# caller checks), a tuple of choices, dict (a JSON object, or a string
# holding one), or a one-element list [t]: a JSON list of t, or a
# comma-separated string. Floats must be finite. A default of ... marks a
# required key, a key whose default is None also takes null, and keys
# ending in "seed" or "seeds" take no negative value, since numpy
# generators reject it.
# ---------------------------------------------------------------------------


def _typed(kind, value):
    """``value`` checked against (and, for lists and dicts, parsed as)
    ``kind``; raises ValueError when it does not fit."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"expected one of {list(kind)}, got {value!r}")
        return value
    if isinstance(kind, list):
        item = kind[0]
        if isinstance(value, str):
            value = ([value] if isinstance(item, list)
                     else [item(v) for v in value.split(",") if v != ""])
        if not isinstance(value, list):
            raise ValueError(f"expected a JSON list or a comma-separated string, "
                             f"got {value!r}")
        return [_typed(item, v) for v in value]
    if kind is dict:
        if isinstance(value, str):
            value = json.loads(value) if value else {}
        if not isinstance(value, dict):
            raise ValueError(f"expected a JSON object, got {value!r}")
        return value
    # bool is an int, so only bool keys take true or false; numpy integers
    # and floats count as the Python number they stand for
    if isinstance(value, bool) != (kind is bool):
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    if kind is int and isinstance(value, numbers.Integral):
        return int(value)
    if kind is float and isinstance(value, numbers.Real):
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        return float(value)
    if isinstance(value, kind):
        return value
    raise ValueError(f"expected {kind.__name__}, got {value!r}")


def _typed_params(table: dict, values: dict, what: str) -> dict:
    """Every key of ``table`` typed from ``values`` or else its default.

    ``values`` that are not a dict, a key missing from ``table``, a missing
    required key, or a value that does not fit its type raise ConfigError
    naming ``what`` (say "task parameter").
    """
    if not isinstance(values, dict):
        raise ConfigError(f"expected a JSON object of {what}s, got {type(values).__name__}")
    unknown = set(values) - set(table)
    if unknown:
        raise ConfigError(f"unknown {what}s: {sorted(unknown)}")
    typed = {}
    for key, (kind, default, *_) in table.items():
        value = values.get(key, default)
        try:
            if value is ...:
                raise ValueError("missing")
            typed[key] = None if value is None and default is None else _typed(kind, value)
            if key.endswith(("seed", "seeds")) and min(np.ravel(typed[key]), default=0) < 0:
                raise ValueError(f"expected non-negative seeds, got {value!r}")
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"{what} {key}: {e}") from e
    return typed


@contextmanager
def _file_content(what: str):
    """Raise an error met while building an object from the content of a
    ``what`` (say "head file") as DataFormatError naming it; a
    DataFormatError passes unchanged."""
    try:
        yield
    except DataFormatError:
        raise
    except (OodkitError, ValueError, TypeError) as e:
        raise DataFormatError(f"{what}: {e}") from e


def _as_f64(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericalError("array contains non-finite entries")
    return arr


@dataclass(frozen=True)
class FeatureMatrix:
    """N x H matrix of final-layer activations."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_f64(self.data)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"features must be a 2-D N x H matrix, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def h(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LabelVector:
    """Length-N integer class labels in [0, k)."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=np.int64)
        if arr.ndim != 1:
            raise DimensionError("labels must be a 1-D vector")
        if self.k < 1:
            raise DimensionError("k must be >= 1")
        if arr.size and (arr.min() < 0 or arr.max() >= self.k):
            raise DataFormatError(f"label out of range [0, {self.k})")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class SoftmaxHead:
    """Final-layer weights w (H x K, columns are per-class vectors) and bias b.

    The bias is kept explicit: logit_i = w_i . z + b_i.
    """

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        w = _as_f64(self.w)
        b = _as_f64(self.b)
        if w.ndim != 2:
            raise DimensionError("head weights must be an H x K matrix")
        if b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise DimensionError("bias length must equal the number of classes")
        if w.shape[1] < 2:
            raise DimensionError("a softmax head needs at least 2 classes")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)

    @property
    def h(self) -> int:
        return self.w.shape[0]

    @property
    def k(self) -> int:
        return self.w.shape[1]

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.w, axis=0)


@dataclass(frozen=True)
class AngleDecomposition:
    """||z||, the cosine of z against every weight column, and the argmax class.

    For z = 0 all cosines are defined to be 0.
    """

    z_norm: float
    cos_theta: np.ndarray
    argmax_class: int


def _row(head: SoftmaxHead, z) -> np.ndarray:
    """One activation vector as a 1 x H batch."""
    z = _as_f64(z)
    if z.shape != (head.h,):
        raise DimensionError(f"expected z of shape ({head.h},), got {z.shape}")
    return z[None, :]


def logits(head: SoftmaxHead, z: np.ndarray) -> np.ndarray:
    """w_i . z + b_i for one activation vector: a 1-row call of the batch
    kernel, so it equals the matching row of a batch bitwise."""
    return _logits_rows(head, _row(head, z))[0] + head.b


def softmax(head: SoftmaxHead, z: np.ndarray) -> np.ndarray:
    """Softmax probabilities for one activation vector.

    Uses max-logit subtraction for numerical stability.
    """
    return softmax_from_logits(logits(head, z))


def softmax_from_logits(ell: np.ndarray) -> np.ndarray:
    ell = np.asarray(ell, dtype=np.float64)
    shifted = ell - ell.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy (natural log) along the last axis; 0 log 0 is 0."""
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def decompose(head: SoftmaxHead, z: np.ndarray) -> AngleDecomposition:
    """Split w_i . z into ||z|| ||w_i|| cos(theta) terms.

    Argmax ties are broken toward the lowest class index. Cosines ignore the
    bias; the argmax class is taken over the full logits.
    """
    wz, z_norm, cos = _angles(head, _row(head, z))
    return AngleDecomposition(z_norm=float(z_norm[0]), cos_theta=cos[0],
                              argmax_class=int(np.argmax(wz[0] + head.b)))


def _logits_rows(head: SoftmaxHead, x: np.ndarray) -> np.ndarray:
    """Bias-free logits x.w of N x H rows.

    einsum with ``optimize=False`` reduces each row in the same order whatever
    the batch size, so every row's bits are independent of how a batch is
    split; a BLAS matrix product is not.
    """
    if x.shape[1] != head.h:
        raise DimensionError(f"expected features of width {head.h}, got {x.shape[1]}")
    return np.einsum("nh,hk->nk", x, head.w, optimize=False)


def _angles(head: SoftmaxHead, x: np.ndarray):
    """Bias-free logits x.w, row norms ||z|| and clipped cosines for N x H rows,
    each row independent of the batch split. Cosines of a zero row are 0.
    """
    wz = _logits_rows(head, x)
    w_norms = head.column_norms()
    if np.any(w_norms == 0.0):
        raise DegenerateWeightError("head has a zero-norm weight column")
    z_norm = np.sqrt(np.einsum("nh,nh->n", x, x, optimize=False))
    cos = np.divide(wz, np.outer(z_norm, w_norms), out=np.zeros_like(wz),
                    where=z_norm[:, None] > 0.0)
    return wz, z_norm, np.clip(cos, -1.0, 1.0, out=cos)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def save_features(path, features: FeatureMatrix, labels: LabelVector | None = None,
                  fmt: str = "csv") -> None:
    if labels is not None and labels.n != features.n:
        raise DimensionError("label count does not match feature count")
    if fmt == "csv":
        _save_features_csv(path, features, labels)
    elif fmt == "binary":
        _save_features_binary(path, features, labels)
    else:
        raise DataFormatError(f"unknown feature format {fmt!r}")


def load_features(path):
    """Read features (and labels, when present) from a binary file, which
    starts with the FEAT magic, or else from a CSV file.

    Returns (FeatureMatrix, LabelVector | None); the label range k is
    max(label) + 1.
    """
    with open(path, "rb") as f:
        binary = f.read(len(_FEAT_MAGIC)) == _FEAT_MAGIC
    with _file_content("feature file"):
        return _load_features_binary(path) if binary else _load_features_csv(path)


def _save_features_csv(path, features, labels):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        header = [f"h{i}" for i in range(features.h)]
        if labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(features.n):
            row = [repr(float(v)) for v in features.data[i]]
            if labels is not None:
                row.append(str(int(labels.labels[i])))
            writer.writerow(row)


def _load_features_csv(path):
    with open(path, newline="") as f:
        header = next(csv.reader(f), None)
        if header is None:
            raise DataFormatError("empty feature file")
        has_labels = bool(header) and header[-1] == "label"
        h = len(header) - (1 if has_labels else 0)
        if h < 1 or header[:h] != [f"h{i}" for i in range(h)]:
            raise DataFormatError("malformed feature header, expected h0..h{H-1}[,label]")
        labels = []
        lineno = 1

        def checked_lines():
            # np.loadtxt pulls one line at a time, so ``lineno`` names the line
            # being parsed when loadtxt or int() raises. loadtxt would skip
            # blank lines itself.
            nonlocal lineno
            for lineno, line in enumerate(f, start=2):
                fields = 0 if line.isspace() else line.count(",") + 1
                if fields != len(header):
                    raise DataFormatError(f"row {lineno} has {fields} fields, "
                                          f"expected {len(header)}")
                if has_labels:
                    labels.append(int(line.rpartition(",")[2]))
                yield line
            if lineno == 1:
                raise DataFormatError("feature file has no data rows")

        try:
            data = np.loadtxt(checked_lines(), delimiter=",", usecols=range(h),
                              comments=None, ndmin=2)
        except ValueError as e:
            raise DataFormatError(f"row {lineno}: non-numeric field") from e
    features = FeatureMatrix(data)
    if has_labels:
        return features, LabelVector(np.array(labels), k=max(labels) + 1)
    return features, None


def _save_features_binary(path, features, labels):
    data32 = features.data.astype("<f4")
    with open(path, "wb") as f:
        f.write(_FEAT_MAGIC)
        f.write(struct.pack("<IIIB", _FEAT_VERSION, features.n, features.h,
                            1 if labels is not None else 0))
        f.write(data32.tobytes(order="C"))
        if labels is not None:
            f.write(labels.labels.astype("<u4").tobytes())


def _load_features_binary(path):
    with open(path, "rb") as f:
        raw = f.read()
    start = len(_FEAT_MAGIC) + 13
    if len(raw) < start:
        raise DataFormatError("truncated feature header")
    version, n, h, has_labels = struct.unpack("<IIIB", raw[len(_FEAT_MAGIC):start])
    if version != _FEAT_VERSION:
        raise DataFormatError(f"unsupported feature file version {version}")
    # a slice takes sizes past the index range, so a header that claims
    # 2**32 - 1 rows and columns reads as a truncated payload
    stop = start + 4 * n * h
    body = raw[start:stop]
    if len(body) != 4 * n * h:
        raise DataFormatError("truncated feature payload")
    features = FeatureMatrix(np.frombuffer(body, dtype="<f4").reshape(n, h).astype(np.float64))
    if has_labels:
        lbl_raw = raw[stop:stop + 4 * n]
        if len(lbl_raw) != 4 * n:
            raise DataFormatError("truncated label payload")
        labels = np.frombuffer(lbl_raw, dtype="<u4").astype(np.int64)
        return features, LabelVector(labels, k=int(labels.max()) + 1)
    return features, None


def save_head(path, head: SoftmaxHead) -> None:
    """Head file: H rows x K columns of weights, one trailing row for b."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for row in head.w:
            writer.writerow([repr(float(v)) for v in row])
        writer.writerow([repr(float(v)) for v in head.b])


def load_head(path) -> SoftmaxHead:
    """Read a head file with the number grammar of the feature CSV reader."""
    with _file_content("head file"), warnings.catch_warnings():
        # an empty file raises below; loadtxt's warning would add a line
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        arr = np.loadtxt(path, delimiter=",", comments=None, ndmin=2)
        if arr.shape[0] < 2:
            raise DataFormatError("head file needs at least one weight row plus a bias row")
        return SoftmaxHead(w=arr[:-1], b=arr[-1])
