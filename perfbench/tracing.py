"""Spans around the public functions of each oodkit module, recorded from
outside ``src/`` and turned into per-layer metrics.

``install`` runs inside a traced child after ``oodkit.cli`` is imported. It
replaces each target with a wrapper under the name its caller looks up, so a
function imported by name into another module (``refnet.auroc``) is wrapped
there as well as at home (``metrics.auroc``). Spans stay in memory as
``[name, start, end, parent, work]`` until the child writes its report.

``layer_metrics`` reads the spans of one round. A span's self time is its
duration minus the durations of its direct children; the call tree is
single-threaded, so children never overlap and the self times of all spans
add up to the root span, ``cli.verb``.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import time

LAYERS = ("cli", "core", "estimators", "gmm", "geometry", "structure",
          "metrics", "refnet")


def _path_bytes(args, kwargs):
    return os.path.getsize(args[0])


def _rows(args, kwargs):
    return args[1].n


def _mc_samples(args, kwargs):
    return kwargs.get("n", args[2] if len(args) > 2 else 0)


def _sample_n(args, kwargs):
    return args[1]


# (module[:class], attribute, span name, work extractor)
TARGETS = (
    ("oodkit.core", "load_features", "core.load_features", _path_bytes),
    ("oodkit.core", "load_head", "core.load_head", None),
    ("oodkit.estimators", "score_batch", "estimators.score_batch", _rows),
    ("oodkit.gmm", "fit_em", "gmm.fit_em", None),
    ("oodkit.gmm:GaussianMixture", "component_log_densities",
     "gmm.component_log_densities", None),
    ("oodkit.gmm:GaussianMixture", "log_density_batch", "gmm.log_density_batch", None),
    ("oodkit.gmm:GaussianMixture", "load", "gmm.load", None),
    ("oodkit.gmm:GaussianMixture", "save", "gmm.save", None),
    ("oodkit.geometry", "fit_linear_region", "geometry.fit_linear_region", None),
    ("oodkit.geometry", "mc_region_mass", "geometry.mc_region_mass", _mc_samples),
    ("oodkit.geometry:GaussianClassModel", "sample", "geometry.sample", _sample_n),
    ("oodkit.geometry:LinearApproxRegion", "contains", "geometry.contains", None),
    ("oodkit.refnet", "train", "refnet.train", None),
    ("oodkit.refnet:MlpModel", "loss_and_grads", "refnet.loss_and_grads", None),
    ("oodkit.refnet", "generate", "refnet.generate", None),
    ("oodkit.refnet", "depth_study", "refnet.depth_study", None),
    ("oodkit.refnet", "_entropy_scores", "refnet.predict", None),
    ("oodkit.refnet:MlpModel", "logits", "refnet.predict", None),
    ("oodkit.refnet:MlpModel", "features", "refnet.predict", None),
    ("oodkit.metrics", "auroc", "metrics.auroc", None),
    ("oodkit.refnet", "auroc", "metrics.auroc", None),
    ("oodkit.structure", "gen_optimal_head", "structure.gen_head", None),
    ("oodkit.structure", "gen_counterfactual_head", "structure.gen_head", None),
    ("oodkit.structure", "regularized_xent", "structure.regularized_xent", None),
)


class Recorder:
    """In-memory span list with the stack of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A same-name call inside an open span (logits -> features) is
            # part of that span, not a second one.
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def install(recorder: Recorder) -> list:
    """Wrap every target that exists; return the ones that do not."""
    missing = []
    for owner_path, attr, name, work in TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append(f"{owner_path}.{attr}")
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__, work)))
        else:
            setattr(owner, attr, recorder.wrap(name, raw, work))
    return missing


_IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_times(stderr_text: str) -> dict:
    """Cumulative import seconds of oodkit and of scipy.stats, from
    ``-X importtime`` output. oodkit is the sum of its top-level entries
    (``oodkit.cli`` contains the package import when the package comes in
    through it)."""
    out = {"oodkit": 0.0, "scipy.stats": 0.0}
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        seconds, indent, name = int(m.group(1)) * 1e-6, len(m.group(2)), m.group(3)
        if indent == 1 and (name == "oodkit" or name.startswith("oodkit.")):
            out["oodkit"] += seconds
        elif name == "scipy.stats":
            out["scipy.stats"] += seconds
    return out


def _by_name(spans, name, parent_name=None):
    """Indices of the spans called ``name`` (under a ``parent_name`` span)."""
    return [i for i, s in enumerate(spans) if s[0] == name
            and (parent_name is None or s[3] >= 0 and spans[s[3]][0] == parent_name)]


def _total(spans, idxs):
    return sum(spans[i][2] - spans[i][1] for i in idxs)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list, imports: dict, size) -> dict:
    """Per-layer metrics of one round; ``spans`` holds every child's spans
    with parent indices already offset into this list."""
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_time):
        layer_self[s[0].split(".")[0]] += t

    verb = _by_name(spans, "cli.verb")
    verb_s = _total(spans, verb)
    m = {
        "import.oodkit_s": imports["oodkit"],
        "import.scipy_stats_s": imports["scipy.stats"],
        "cli.verb_s": verb_s,
        "trace.unaccounted_s": verb_s - sum(layer_self.values()),
    }
    m.update({f"{layer}.self_s": t for layer, t in layer_self.items()})

    load = _by_name(spans, "core.load_features")
    m["core.load_features_s"] = _total(spans, load)
    m["core.load_features_calls"] = len(load)
    m["core.load_features_mb_per_s"] = _ratio(sum(spans[i][4] for i in load) / 1e6,
                                              m["core.load_features_s"])
    m["core.load_head_s"] = _total(spans, _by_name(spans, "core.load_head"))

    scored = _by_name(spans, "estimators.score_batch")
    m["estimators.score_batch_s"] = _total(spans, scored)
    m["estimators.score_batch_rows_per_s"] = _ratio(sum(spans[i][4] for i in scored),
                                                    m["estimators.score_batch_s"])

    fits = _by_name(spans, "gmm.fit_em")
    esteps = _by_name(spans, "gmm.component_log_densities", "gmm.fit_em")
    init_s = 0.0
    for i in fits:
        first = next((spans[e][1] for e in esteps if spans[e][3] == i), spans[i][2])
        init_s += first - spans[i][1]
    m["gmm.fit_em_s"] = _total(spans, fits)
    m["gmm.init_s"] = init_s
    m["gmm.estep_s"] = _total(spans, esteps)
    m["gmm.estep_calls"] = len(esteps)
    m["gmm.mstep_s"] = sum(self_time[i] for i in fits) - init_s
    # Computed, not counted: a triangular solve per component is N*H^2 flops.
    m["gmm.estep_gflops"] = _ratio(len(esteps) * size.k * size.n * size.h ** 2 / 1e9,
                                   m["gmm.estep_s"])
    m["gmm.load_s"] = _total(spans, _by_name(spans, "gmm.load"))
    m["gmm.log_density_batch_s"] = _total(spans, _by_name(spans, "gmm.log_density_batch"))
    m["gmm.save_s"] = _total(spans, _by_name(spans, "gmm.save"))

    mc = _by_name(spans, "geometry.mc_region_mass")
    samples = _by_name(spans, "geometry.sample")
    m["geometry.fit_linear_region_s"] = _total(spans, _by_name(spans, "geometry.fit_linear_region"))
    m["geometry.mc_region_mass_s"] = _total(spans, mc)
    m["geometry.sample_s"] = _total(spans, samples)
    m["geometry.sample_calls"] = len(samples)
    m["geometry.contains_s"] = _total(spans, _by_name(spans, "geometry.contains"))
    m["geometry.mc_samples_per_s"] = _ratio(sum(spans[i][4] for i in mc),
                                            m["geometry.mc_region_mass_s"])

    trains = _by_name(spans, "refnet.train")
    steps = _by_name(spans, "refnet.loss_and_grads")
    m["refnet.train_s"] = _total(spans, trains)
    m["refnet.sgd_steps"] = len(steps)
    m["refnet.sgd_step_us"] = _ratio(_total(spans, steps) * 1e6, len(steps))
    m["refnet.update_s"] = sum(self_time[i] for i in trains)
    m["refnet.generate_s"] = _total(spans, _by_name(spans, "refnet.generate"))
    m["refnet.predict_s"] = _total(spans, _by_name(spans, "refnet.predict"))

    aurocs = _by_name(spans, "metrics.auroc")
    m["metrics.auroc_s"] = _total(spans, aurocs)
    m["metrics.auroc_calls"] = len(aurocs)
    m["structure.gen_head_s"] = _total(spans, _by_name(spans, "structure.gen_head"))
    m["structure.regularized_xent_s"] = _total(spans, _by_name(spans, "structure.regularized_xent"))
    return m
