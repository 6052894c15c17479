"""Command-line entry point.

Verbs: score, fit-gmm, region, audit-head, gen-head, attribute, train-toy,
counterfactual, sweep, depth-study, pca.

Configuration is a JSON/flag hybrid: ``--config file.json`` supplies values,
explicit flags override them, and the effective configuration is always
echoed to the output directory so a run can be reproduced byte-for-byte.
Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import core, estimators, geometry, gmm as gmm_mod, metrics, refnet, structure
from .errors import ConfigError, DataFormatError, NumericalError, OodkitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

OUTDIR_ENV = "OODKIT_OUT"


def _outdir(args) -> str:
    d = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(d, exist_ok=True)
    return d


def _merge_config(args, defaults: dict) -> dict:
    """File values under defaults, explicit flags on top. Unknown file keys
    are rejected so typos fail loudly."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as f:
            file_cfg = json.load(f)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _echo_config(outdir: str, verb: str, cfg: dict) -> None:
    path = os.path.join(outdir, f"{verb.replace('-', '_')}_effective_config.json")
    with open(path, "w") as f:
        json.dump(cfg, f, indent=1, sort_keys=True)
        f.write("\n")


def _write_json(path: str, payload) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def _parse_int_list(s: str) -> list:
    try:
        return [int(v) for v in str(s).split(",") if v != ""]
    except ValueError as e:
        raise ConfigError(f"expected comma-separated integers, got {s!r}") from e


def _parse_float_list(s: str) -> list:
    try:
        return [float(v) for v in str(s).split(",") if v != ""]
    except ValueError as e:
        raise ConfigError(f"expected comma-separated numbers, got {s!r}") from e


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------


def _cmd_gen_head(args) -> int:
    defaults = {"kind": "optimal", "k": 3, "h": 16, "c1": 1.0, "c": 1.0,
                "seed": 0, "out": "head.csv"}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "gen-head", cfg)
    if cfg["kind"] == "optimal":
        head = structure.gen_optimal_head(
            structure.OptimalStructureSpec(k=int(cfg["k"]), h=int(cfg["h"]),
                                           c1=float(cfg["c1"])),
            seed=int(cfg["seed"]))
    else:
        head = structure.gen_counterfactual_head(
            cfg["kind"], k=int(cfg["k"]), h=int(cfg["h"]),
            seed=int(cfg["seed"]), c=float(cfg["c"]))
    core.save_head(os.path.join(outdir, cfg["out"]), head)
    return EXIT_OK


def _cmd_audit_head(args) -> int:
    defaults = {"head": "head.csv", "out": "audit.json", "hist_bins": 20}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "audit-head", cfg)
    head = core.load_head(cfg["head"])
    report = structure.audit_head(head, hist_bins=int(cfg["hist_bins"]))
    _write_json(os.path.join(outdir, cfg["out"]), report.to_dict())
    return EXIT_OK


_SCORE_COLUMNS = ("sample_index", "u_max", "u_entropy", "u_cool", "u_density",
                  "z_norm", "max_cos", "argmax_class")


def _cmd_score(args) -> int:
    defaults = {"features": "features.csv", "head": "head.csv", "gmm": None,
                "fmt": "csv", "cool_temperature": estimators.COOL_TEMPERATURE,
                "out": "scores.csv"}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "score", cfg)
    features, _ = core.load_features(cfg["features"])
    head = core.load_head(cfg["head"])
    mixture = gmm_mod.GaussianMixture.load(cfg["gmm"]) if cfg["gmm"] else None
    cols = estimators.score_batch(head, features, gmm=mixture,
                                  cool_temperature=float(cfg["cool_temperature"]))
    out = os.path.join(outdir, cfg["out"])
    if cfg["fmt"] == "json":
        _write_json(out, {k: np.asarray(v).tolist() for k, v in cols.items()})
    elif cfg["fmt"] == "csv":
        with open(out, "w") as f:
            f.write(",".join(_SCORE_COLUMNS) + "\n")
            text = [map(str if name in ("sample_index", "argmax_class") else repr,
                        cols[name].tolist()) for name in _SCORE_COLUMNS]
            f.writelines(",".join(row) + "\n" for row in zip(*text))
    else:
        raise ConfigError(f"unknown format {cfg['fmt']!r}")
    return EXIT_OK


def _cmd_fit_gmm(args) -> int:
    defaults = {"features": "features.csv", "k_components": None, "reg": 1e-5,
                "seed": 0, "max_iter": 200, "rel_tol": 1e-6, "init": "labels",
                "log_transform": False, "out": "gmm.json"}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "fit-gmm", cfg)
    features, labels = core.load_features(cfg["features"])
    em = gmm_mod.EmConfig(max_iter=int(cfg["max_iter"]), rel_tol=float(cfg["rel_tol"]),
                          reg=float(cfg["reg"]), seed=int(cfg["seed"]),
                          init=cfg["init"], log_transform=bool(cfg["log_transform"]))
    k = int(cfg["k_components"]) if cfg["k_components"] is not None else None
    mixture = gmm_mod.fit_em(features, labels=labels, k_components=k, cfg=em)
    mixture.save(os.path.join(outdir, cfg["out"]))
    return EXIT_OK


def _cmd_region(args) -> int:
    defaults = {"kind": "linear", "head": None, "features": None, "gmm": None,
                "epsilon": 0.05, "mass_samples": 0,
                "mass_seed": geometry.DEFAULT_MC_SEED, "out": "region.json"}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "region", cfg)
    eps = float(cfg["epsilon"])
    features = labels = None
    if cfg["features"]:
        features, labels = core.load_features(cfg["features"])
    if cfg["kind"] == "linear":
        if not (cfg["head"] and features is not None):
            raise ConfigError("linear region needs --head and --features")
        head = core.load_head(cfg["head"])
        region = geometry.fit_linear_region(head, features, eps)
    elif cfg["kind"] == "density":
        if not cfg["gmm"]:
            raise ConfigError("density region needs --gmm")
        region = geometry.density_region(gmm_mod.GaussianMixture.load(cfg["gmm"]), eps)
    else:
        raise ConfigError(f"unknown region kind {cfg['kind']!r}")
    payload = region.to_dict()
    n_mass = int(cfg["mass_samples"])
    if n_mass > 0:
        if features is None or labels is None:
            raise ConfigError("mass estimation needs labeled --features")
        model = _per_class_gaussian(features, labels)
        payload["mc_mass"] = geometry.mc_region_mass(
            region.contains, model, n=n_mass, seed=int(cfg["mass_seed"]))
        payload["mc_samples"] = n_mass
    _write_json(os.path.join(outdir, cfg["out"]), payload)
    return EXIT_OK


def _per_class_gaussian(features, labels) -> "geometry.GaussianClassModel":
    """Moment-matched per-class Gaussians, the sampling stand-in for p_in."""
    means, covs, priors = [], [], []
    h = features.h
    for c in range(labels.k):
        xc = features.data[labels.labels == c]
        if xc.shape[0] < 2:
            raise ConfigError(f"class {c} has fewer than 2 samples")
        means.append(xc.mean(axis=0))
        d = xc - means[-1]
        covs.append(d.T @ d / xc.shape[0] + 1e-9 * np.eye(h))
        priors.append(xc.shape[0] / features.n)
    return geometry.GaussianClassModel(np.array(means), np.array(covs),
                                       np.array(priors))


def _cmd_attribute(args) -> int:
    defaults = {"rows": None, "fmt": "json", "out": "attribution.json"}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "attribute", cfg)
    if not cfg["rows"]:
        raise ConfigError("attribute needs at least one --row A,B,C,D")
    rows = cfg["rows"] if isinstance(cfg["rows"], list) else [cfg["rows"]]
    reports = []
    for r in rows:
        vals = _parse_float_list(r) if isinstance(r, str) else [float(v) for v in r]
        if len(vals) != 4:
            raise ConfigError("each attribution row needs exactly 4 AUROCs (A,B,C,D)")
        reports.append(metrics.attribute(*vals))
    payload = {"rows": [rep.to_dict() for rep in reports]}
    if len(reports) > 1:
        causes = np.array([[rep.cause1, rep.cause2, rep.cause3] for rep in reports])
        n = causes.shape[0]
        payload["aggregate"] = {
            "cause_mean": causes.mean(axis=0).tolist(),
            "cause_stderr": (causes.std(axis=0, ddof=1) / np.sqrt(n)).tolist(),
        }
    out = os.path.join(outdir, cfg["out"])
    if cfg["fmt"] == "csv":
        with open(out, "w") as f:
            f.write("auroc_max,auroc_entropy,auroc_cool,auroc_density,"
                    "cause1,cause2,cause3\n")
            for rep in reports:
                f.write(rep.to_csv_row() + "\n")
    else:
        _write_json(out, payload)
    return EXIT_OK


def _task_from_cfg(kind: str, params) -> "refnet.SyntheticTask":
    if isinstance(params, str):
        params = json.loads(params) if params else {}
    return refnet.SyntheticTask(kind, dict(params or {}))


def _cmd_train_toy(args) -> int:
    defaults = {"task": "gaussian_blobs", "task_params": None, "depth": 1,
                "width": 16, "activation": "relu", "k": 3, "epochs": 50,
                "batch_size": 64, "learning_rate": 0.05, "weight_decay": 0.0,
                "seed": 0, "frozen_head": None, "out": "model.json"}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "train-toy", cfg)
    task = _task_from_cfg(cfg["task"], cfg["task_params"])
    data = refnet.generate(task)
    frozen = core.load_head(cfg["frozen_head"]) if cfg["frozen_head"] else None
    spec = refnet.MlpSpec((data[0].h,) + (int(cfg["width"]),) * int(cfg["depth"]),
                          cfg["activation"], int(cfg["k"]))
    tc = refnet.TrainConfig(epochs=int(cfg["epochs"]), batch_size=int(cfg["batch_size"]),
                            learning_rate=float(cfg["learning_rate"]),
                            weight_decay=float(cfg["weight_decay"]),
                            seed=int(cfg["seed"]), frozen_head=frozen)
    model = refnet.train(data, spec, tc)
    model.save(os.path.join(outdir, cfg["out"]))
    _write_json(os.path.join(outdir, cfg["out"] + ".summary.json"),
                {"train_accuracy": model.accuracy(*data)})
    return EXIT_OK


def _counterfactual_frozen_head(kind: str, h: int, seed: int, c1: float = 2.0):
    if kind == "optimal":
        return structure.gen_optimal_head(
            structure.OptimalStructureSpec(k=3, h=h, c1=c1), seed=seed)
    if kind == "trainable":
        return None
    return structure.gen_counterfactual_head(kind, k=3, h=h, seed=seed)


def _cmd_counterfactual(args) -> int:
    defaults = {"structures": "optimal,trainable,sandwich,stack,lopsided",
                "seeds": "0,1,2", "h": 2, "epochs": 50, "width": 16,
                "activation": "tanh", "learning_rate": 0.05,
                "weight_decay": 1e-4, "c1": 2.0, "n_per_class": 200,
                "separation": 6.0, "ood_radius_factor": 1.6, "n_ood": 600,
                "out": "counterfactual.json"}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "counterfactual", cfg)
    kinds = cfg["structures"].split(",") if isinstance(cfg["structures"], str) \
        else list(cfg["structures"])
    seeds = _parse_int_list(cfg["seeds"]) if isinstance(cfg["seeds"], str) \
        else [int(s) for s in cfg["seeds"]]
    report = run_counterfactual(
        kinds, seeds, h=int(cfg["h"]), width=int(cfg["width"]),
        epochs=int(cfg["epochs"]), activation=cfg["activation"],
        learning_rate=float(cfg["learning_rate"]),
        weight_decay=float(cfg["weight_decay"]), c1=float(cfg["c1"]),
        n_per_class=int(cfg["n_per_class"]), separation=float(cfg["separation"]),
        ood_radius_factor=float(cfg["ood_radius_factor"]), n_ood=int(cfg["n_ood"]))
    _write_json(os.path.join(outdir, cfg["out"]), report)
    return EXIT_OK


def run_counterfactual(kinds, seeds, h=2, width=16, epochs=50, activation="tanh",
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
    for kind in kinds:
        accs, aurocs, xents = [], [], []
        for seed in seeds:
            task = refnet.SyntheticTask("gaussian_blobs", {
                "k": 3, "dim": 2, "n_per_class": n_per_class,
                "separation": separation, "seed": seed})
            train_x, train_y = refnet.generate(task)
            test_x, test_y = refnet.generate(task.with_params(seed=seed + 1000))
            # Circumradius of the class means; the annulus sits just outside.
            mean_radius = separation / (2.0 * np.sin(np.pi / 3))
            ring, _ = refnet.generate(refnet.SyntheticTask("ring_ood", {
                "n": n_ood, "dim": 2, "radius": ood_radius_factor * mean_radius,
                "width": 2.0, "seed": seed + 2000}))
            frozen = _counterfactual_frozen_head(kind, h, seed, c1=c1)
            spec = refnet.MlpSpec((2, width, h), activation, 3)
            tc = refnet.TrainConfig(epochs=epochs, batch_size=64,
                                    learning_rate=learning_rate,
                                    weight_decay=weight_decay, seed=seed,
                                    frozen_head=frozen)
            model = refnet.train((train_x, train_y), spec, tc)
            accs.append(model.accuracy(test_x, test_y))
            s_in = refnet._entropy_scores(model, test_x.data)
            s_out = refnet._entropy_scores(model, ring.data)
            aurocs.append(metrics.auroc(s_in, s_out))
            feats = core.FeatureMatrix(model.features(train_x.data))
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


def _cmd_sweep(args) -> int:
    defaults = {"model": "model.json", "sampler": "uniform_hypercube_ood",
                "sampler_params": None, "n_samples": 4096, "top_m": 10,
                "out": "sweep.json"}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "sweep", cfg)
    model = refnet.MlpModel.load(cfg["model"])
    sampler = _task_from_cfg(cfg["sampler"], cfg["sampler_params"])
    kept = refnet.confidence_sweep(model, sampler, int(cfg["n_samples"]),
                                   int(cfg["top_m"]))
    payload = {str(c): {"inputs": x.tolist(), "confidences": conf.tolist()}
               for c, (x, conf) in kept.items()}
    _write_json(os.path.join(outdir, cfg["out"]), payload)
    return EXIT_OK


def _cmd_depth_study(args) -> int:
    defaults = {"depths": "1,4", "width": 16, "seeds": "0,1,2,3,4",
                "activation": "tanh", "epochs": 30, "learning_rate": 0.05,
                "batch_size": 64, "n_per_class": 200, "dim": 4,
                "separation": 6.0, "n_ood": 600, "out": "depth_study.json"}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "depth-study", cfg)
    depths = _parse_int_list(cfg["depths"]) if isinstance(cfg["depths"], str) \
        else [int(d) for d in cfg["depths"]]
    seeds = _parse_int_list(cfg["seeds"]) if isinstance(cfg["seeds"], str) \
        else [int(s) for s in cfg["seeds"]]
    rows = run_depth_study(depths, seeds, width=int(cfg["width"]),
                           activation=cfg["activation"], epochs=int(cfg["epochs"]),
                           learning_rate=float(cfg["learning_rate"]),
                           batch_size=int(cfg["batch_size"]),
                           n_per_class=int(cfg["n_per_class"]), dim=int(cfg["dim"]),
                           separation=float(cfg["separation"]),
                           n_ood=int(cfg["n_ood"]))
    _write_json(os.path.join(outdir, cfg["out"]), {"rows": rows})
    return EXIT_OK


def run_depth_study(depths, seeds, width=16, activation="tanh", epochs=30,
                    learning_rate=0.05, batch_size=64, n_per_class=200,
                    dim=4, separation=6.0, n_ood=600) -> list:
    """Depth comparison on blobs with nuisance dimensions: class signal in
    the first two coordinates, pure noise in the rest, ring OOD in-plane."""
    task = refnet.SyntheticTask("gaussian_blobs", {
        "k": 3, "dim": dim, "n_per_class": n_per_class,
        "separation": separation, "seed": 42})
    train_x, train_y = refnet.generate(task)
    test_x, test_y = refnet.generate(task.with_params(seed=1042))
    blob_extent = float(np.linalg.norm(train_x.data, axis=1).max())
    ood, _ = refnet.generate(refnet.SyntheticTask("ring_ood", {
        "n": n_ood, "dim": dim, "radius": 1.5 * blob_extent, "width": 2.0,
        "seed": 2042}))
    tc = refnet.TrainConfig(epochs=epochs, batch_size=batch_size,
                            learning_rate=learning_rate, seed=0)
    return refnet.depth_study((train_x, train_y), (test_x, test_y), ood,
                              depths, width, tc, seeds, activation=activation)


def _cmd_pca(args) -> int:
    defaults = {"features": "features.csv", "dims": 2, "out": "pca.csv"}
    cfg = _merge_config(args, defaults)
    outdir = _outdir(args)
    _echo_config(outdir, "pca", cfg)
    features, labels = core.load_features(cfg["features"])
    proj, comps, ratios = metrics.pca_project(features, dims=int(cfg["dims"]))
    out = os.path.join(outdir, cfg["out"])
    with open(out, "w") as f:
        header = [f"pc{i}" for i in range(proj.shape[1])]
        if labels is not None:
            header.append("label")
        f.write(",".join(header) + "\n")
        for i in range(proj.shape[0]):
            row = [repr(float(v)) for v in proj[i]]
            if labels is not None:
                row.append(str(int(labels.labels[i])))
            f.write(",".join(row) + "\n")
    _write_json(out + ".components.json",
                {"components": comps.tolist(),
                 "explained_variance_ratio": ratios.tolist()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodkit",
        description="Softmax-confidence OOD analysis toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-head", help="generate a structured softmax head")
    _add_common(p)
    p.add_argument("--kind", choices=("optimal",) + structure.COUNTERFACTUAL_KINDS)
    p.add_argument("--k", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--c1", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_head)

    p = sub.add_parser("audit-head", help="norm/bias/angle audit of a head")
    _add_common(p)
    p.add_argument("--head")
    p.add_argument("--out")
    p.add_argument("--hist-bins", dest="hist_bins", type=int)
    p.set_defaults(func=_cmd_audit_head)

    p = sub.add_parser("score", help="batch uncertainty scoring")
    _add_common(p)
    p.add_argument("--features")
    p.add_argument("--head")
    p.add_argument("--gmm")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"))
    p.add_argument("--cool-temperature", dest="cool_temperature", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("fit-gmm", help="fit a Gaussian mixture to features")
    _add_common(p)
    p.add_argument("--features")
    p.add_argument("--k-components", dest="k_components", type=int)
    p.add_argument("--reg", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--init", choices=("labels", "kmeans_pp"))
    p.add_argument("--log-transform", dest="log_transform", action="store_true",
                   default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit_gmm)

    p = sub.add_parser("region", help="fit and export a valid OOD region")
    _add_common(p)
    p.add_argument("--kind", choices=("linear", "density"))
    p.add_argument("--head")
    p.add_argument("--features")
    p.add_argument("--gmm")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--mass-samples", dest="mass_samples", type=int)
    p.add_argument("--mass-seed", dest="mass_seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("attribute", help="AUROC shortfall attribution rows")
    _add_common(p)
    p.add_argument("--row", dest="rows", action="append",
                   help="A,B,C,D AUROC quadruple; repeatable")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_attribute)

    p = sub.add_parser("train-toy", help="train a small MLP on a synthetic task")
    _add_common(p)
    p.add_argument("--task", choices=refnet.TASK_KINDS)
    p.add_argument("--task-params", dest="task_params",
                   help="JSON dict of task parameters")
    p.add_argument("--depth", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--activation", choices=("relu", "tanh"))
    p.add_argument("--k", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--frozen-head", dest="frozen_head",
                   help="head CSV to freeze during training")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("counterfactual",
                       help="frozen-head structure comparison on blobs vs ring OOD")
    _add_common(p)
    p.add_argument("--structures")
    p.add_argument("--seeds")
    p.add_argument("--h", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--activation", choices=("relu", "tanh"))
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--c1", type=float)
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--ood-radius-factor", dest="ood_radius_factor", type=float)
    p.add_argument("--n-ood", dest="n_ood", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_counterfactual)

    p = sub.add_parser("sweep", help="keep the most confident sampler inputs per class")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--sampler", choices=refnet.TASK_KINDS)
    p.add_argument("--sampler-params", dest="sampler_params")
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--top-m", dest="top_m", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("depth-study", help="depth vs OOD-detection comparison")
    _add_common(p)
    p.add_argument("--depths")
    p.add_argument("--width", type=int)
    p.add_argument("--seeds")
    p.add_argument("--activation", choices=("relu", "tanh"))
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--n-ood", dest="n_ood", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_depth_study)

    p = sub.add_parser("pca", help="project features onto principal components")
    _add_common(p)
    p.add_argument("--features")
    p.add_argument("--dims", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pca)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError, json.JSONDecodeError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OodkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
