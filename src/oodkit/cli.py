"""Command-line entry point.

Verbs: score, fit-gmm, region, audit-head, gen-head, attribute, train-toy,
counterfactual, sweep, depth-study, pca.

Configuration is a JSON/flag hybrid: ``--config file.json`` supplies values,
explicit flags override them, and the effective configuration is always
echoed to the output directory so a run can be reproduced byte-for-byte.
Each verb declares its parameters once, in ``VERBS``; that table builds the
flags, and ``core._typed_params`` checks every value, from a flag or from
the file, against the parameter's type. Exit codes: 0 success, 2
configuration error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import core, estimators, geometry, gmm as gmm_mod, metrics, refnet, structure
from .errors import ConfigError, DataFormatError, NumericalError, OodkitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

OUTDIR_ENV = "OODKIT_OUT"


def _write_json(path: str, payload) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# verb implementations; each reads the typed config, whose "out" is a path
# ---------------------------------------------------------------------------


def _cmd_gen_head(cfg) -> None:
    if cfg["kind"] == "optimal":
        head = structure.gen_optimal_head(
            structure.OptimalStructureSpec(k=cfg["k"], h=cfg["h"], c1=cfg["c1"]),
            seed=cfg["seed"])
    else:
        head = structure.gen_counterfactual_head(
            cfg["kind"], k=cfg["k"], h=cfg["h"], seed=cfg["seed"], c=cfg["c"])
    core.save_head(cfg["out"], head)


def _cmd_audit_head(cfg) -> None:
    report = structure.audit_head(core.load_head(cfg["head"]), hist_bins=cfg["hist_bins"])
    _write_json(cfg["out"], report.to_dict())


def _cmd_score(cfg) -> None:
    features, _ = core.load_features(cfg["features"])
    head = core.load_head(cfg["head"])
    mixture = gmm_mod.GaussianMixture.load(cfg["gmm"]) if cfg["gmm"] else None
    cols = estimators.score_batch(head, features, gmm=mixture,
                                  cool_temperature=cfg["cool_temperature"])
    if cfg["fmt"] == "json":
        _write_json(cfg["out"], {k: np.asarray(v).tolist() for k, v in cols.items()})
        return
    core._write_csv(cfg["out"], cols, cols.values())


def _cmd_fit_gmm(cfg) -> None:
    features, labels = core.load_features(cfg["features"])
    em = gmm_mod.EmConfig(max_iter=cfg["max_iter"], rel_tol=cfg["rel_tol"],
                          reg=cfg["reg"], seed=cfg["seed"], init=cfg["init"],
                          log_transform=cfg["log_transform"])
    mixture = gmm_mod.fit_em(features, labels=labels, k_components=cfg["k_components"],
                             cfg=em)
    mixture.save(cfg["out"])


def _cmd_region(cfg) -> None:
    eps, n_mass = cfg["epsilon"], cfg["mass_samples"]
    if n_mass < 0:
        raise ConfigError(f"mass_samples must be >= 0 (0 skips the estimate), got {n_mass}")
    features = labels = None
    if cfg["features"]:
        features, labels = core.load_features(cfg["features"])
    if cfg["kind"] == "linear":
        if not (cfg["head"] and features is not None):
            raise ConfigError("linear region needs --head and --features")
        region = geometry.fit_linear_region(core.load_head(cfg["head"]), features, eps)
    else:
        if not cfg["gmm"]:
            raise ConfigError("density region needs --gmm")
        region = geometry.density_region(gmm_mod.GaussianMixture.load(cfg["gmm"]), eps)
    payload = region.to_dict()
    if n_mass > 0:
        if features is None or labels is None:
            raise ConfigError("mass estimation needs labeled --features")
        payload["mc_mass"] = geometry.region_mass(region, features, labels, n=n_mass,
                                                  seed=cfg["mass_seed"])
        payload["mc_samples"] = n_mass
    _write_json(cfg["out"], payload)


_ATTRIBUTION_COLUMNS = ("auroc_max", "auroc_entropy", "auroc_cool", "auroc_density",
                        "cause1", "cause2", "cause3")


def _cmd_attribute(cfg) -> None:
    if not cfg["rows"]:
        raise ConfigError("attribute needs at least one --row A,B,C,D")
    if any(len(vals) != 4 for vals in cfg["rows"]):
        raise ConfigError("each attribution row needs exactly 4 AUROCs (A,B,C,D)")
    reports = [metrics.attribute(*vals) for vals in cfg["rows"]]
    payload = {"rows": [rep.to_dict() for rep in reports]}
    if len(reports) > 1:
        causes = np.array([[rep.cause1, rep.cause2, rep.cause3] for rep in reports])
        n = causes.shape[0]
        payload["aggregate"] = {
            "cause_mean": causes.mean(axis=0).tolist(),
            "cause_stderr": (causes.std(axis=0, ddof=1) / np.sqrt(n)).tolist(),
        }
    if cfg["fmt"] == "json":
        _write_json(cfg["out"], payload)
        return
    core._write_csv(cfg["out"], _ATTRIBUTION_COLUMNS,
                    [np.array([getattr(rep, name) for rep in reports])
                     for name in _ATTRIBUTION_COLUMNS])


def _cmd_train_toy(cfg) -> None:
    data = refnet.generate(refnet.SyntheticTask(cfg["task"], cfg["task_params"] or {}))
    frozen = core.load_head(cfg["frozen_head"]) if cfg["frozen_head"] else None
    spec = refnet.MlpSpec.uniform(data[0].h, cfg["width"], cfg["depth"],
                                  cfg["activation"], cfg["k"])
    tc = refnet.TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                            learning_rate=cfg["learning_rate"],
                            weight_decay=cfg["weight_decay"], seed=cfg["seed"],
                            frozen_head=frozen)
    model = refnet.train(data, spec, tc)
    model.save(cfg["out"])
    _write_json(cfg["out"] + ".summary.json", {"train_accuracy": model.accuracy(*data)})


def _cmd_counterfactual(cfg) -> None:
    out = cfg.pop("out")
    _write_json(out, refnet.run_counterfactual(**cfg))


def _cmd_sweep(cfg) -> None:
    model = refnet.MlpModel.load(cfg["model"])
    sampler = refnet.SyntheticTask(cfg["sampler"], cfg["sampler_params"] or {})
    kept = refnet.confidence_sweep(model, sampler, cfg["n_samples"], cfg["top_m"])
    payload = {str(c): {"inputs": x.tolist(), "confidences": conf.tolist()}
               for c, (x, conf) in kept.items()}
    _write_json(cfg["out"], payload)


def _cmd_depth_study(cfg) -> None:
    out = cfg.pop("out")
    _write_json(out, {"rows": refnet.run_depth_study(**cfg)})


def _cmd_pca(cfg) -> None:
    features, labels = core.load_features(cfg["features"])
    proj, comps, ratios = metrics.pca_project(features, dims=cfg["dims"])
    header = [f"pc{i}" for i in range(proj.shape[1])]
    columns = list(proj.T)
    if labels is not None:
        header.append("label")
        columns.append(labels.labels)
    core._write_csv(cfg["out"], header, columns)
    _write_json(cfg["out"] + ".components.json",
                {"components": comps.tolist(),
                 "explained_variance_ratio": ratios.tolist()})


# ---------------------------------------------------------------------------
# parameter table: verb -> (implementation, help, {key: (type, default[, help])}),
# with the types of core._typed. The counterfactual and depth-study keys
# other than "out" are the keyword arguments of refnet.run_counterfactual
# and refnet.run_depth_study.
# ---------------------------------------------------------------------------

_ACTIVATIONS = ("relu", "tanh")

VERBS = {
    "gen-head": (_cmd_gen_head, "generate a structured softmax head", {
        "kind": (("optimal",) + structure.COUNTERFACTUAL_KINDS, "optimal"),
        "k": (int, 3),
        "h": (int, 16),
        "c1": (float, 1.0),
        "c": (float, 1.0),
        "seed": (int, 0),
        "out": (str, "head.csv"),
    }),
    "audit-head": (_cmd_audit_head, "norm/bias/angle audit of a head", {
        "head": (str, "head.csv"),
        "out": (str, "audit.json"),
        "hist_bins": (int, 20),
    }),
    "score": (_cmd_score, "batch uncertainty scoring", {
        "features": (str, "features.csv"),
        "head": (str, "head.csv"),
        "gmm": (str, None),
        "fmt": (("csv", "json"), "csv"),
        "cool_temperature": (float, estimators.COOL_TEMPERATURE),
        "out": (str, "scores.csv"),
    }),
    "fit-gmm": (_cmd_fit_gmm, "fit a Gaussian mixture to features", {
        "features": (str, "features.csv"),
        "k_components": (int, None),
        "reg": (float, 1e-5),
        "seed": (int, 0),
        "max_iter": (int, 200),
        "rel_tol": (float, 1e-6),
        "init": (("labels", "kmeans_pp"), "labels"),
        "log_transform": (bool, False),
        "out": (str, "gmm.json"),
    }),
    "region": (_cmd_region, "fit and export a valid OOD region", {
        "kind": (("linear", "density"), "linear"),
        "head": (str, None),
        "features": (str, None),
        "gmm": (str, None),
        "epsilon": (float, 0.05),
        "mass_samples": (int, 0),
        "mass_seed": (int, geometry.DEFAULT_MC_SEED),
        "out": (str, "region.json"),
    }),
    "attribute": (_cmd_attribute, "AUROC shortfall attribution rows", {
        "rows": ([[float]], None, "A,B,C,D AUROC quadruple; repeatable"),
        "fmt": (("csv", "json"), "json"),
        "out": (str, "attribution.json"),
    }),
    "train-toy": (_cmd_train_toy, "train a small MLP on a synthetic task", {
        "task": (refnet.TASK_KINDS, "gaussian_blobs"),
        "task_params": (dict, None, "JSON dict of task parameters"),
        "depth": (int, 1),
        "width": (int, 16),
        "activation": (_ACTIVATIONS, "relu"),
        "k": (int, 3),
        "epochs": (int, 50),
        "batch_size": (int, 64),
        "learning_rate": (float, 0.05),
        "weight_decay": (float, 0.0),
        "seed": (int, 0),
        "frozen_head": (str, None, "head CSV to freeze during training"),
        "out": (str, "model.json"),
    }),
    "counterfactual": (_cmd_counterfactual,
                       "frozen-head structure comparison on blobs vs ring OOD", {
        "structures": ([str], "optimal,trainable,sandwich,stack,lopsided"),
        "seeds": ([int], "0,1,2"),
        "h": (int, 2),
        "width": (int, 16),
        "epochs": (int, 50),
        "activation": (_ACTIVATIONS, "tanh"),
        "learning_rate": (float, 0.05),
        "weight_decay": (float, 1e-4),
        "c1": (float, 2.0),
        "n_per_class": (int, 200),
        "separation": (float, 6.0),
        "ood_radius_factor": (float, 1.6),
        "n_ood": (int, 600),
        "out": (str, "counterfactual.json"),
    }),
    "sweep": (_cmd_sweep, "keep the most confident sampler inputs per class", {
        "model": (str, "model.json"),
        "sampler": (tuple(kind for kind, keys in refnet.TASKS.items() if "n" in keys),
                    "uniform_hypercube_ood"),  # confidence_sweep sets each draw's n
        "sampler_params": (dict, None),
        "n_samples": (int, 4096),
        "top_m": (int, 10),
        "out": (str, "sweep.json"),
    }),
    "depth-study": (_cmd_depth_study, "depth vs OOD-detection comparison", {
        "depths": ([int], "1,4"),
        "width": (int, 16),
        "seeds": ([int], "0,1,2,3,4"),
        "activation": (_ACTIVATIONS, "tanh"),
        "epochs": (int, 30),
        "learning_rate": (float, 0.05),
        "batch_size": (int, 64),
        "n_per_class": (int, 200),
        "dim": (int, 4),
        "separation": (float, 6.0),
        "n_ood": (int, 600),
        "out": (str, "depth_study.json"),
    }),
    "pca": (_cmd_pca, "project features onto principal components", {
        "features": (str, "features.csv"),
        "dims": (int, 2),
        "out": (str, "pca.csv"),
    }),
}

# Keys whose flag is not --key with "_" turned into "-".
_FLAGS = {"fmt": "--format", "rows": "--row"}


def _config(verb: str, args) -> dict:
    """Table defaults, then the ``--config`` file, then explicit flags.

    Unknown file keys are rejected so typos fail loudly. The merged values
    are echoed to ``<verb>_effective_config.json`` as given; the returned
    copy holds them typed, with ``out`` joined onto the output directory.
    """
    params = VERBS[verb][2]
    paths = core._typed_params({"--config": (str, None), "--outdir": (str, None)},
                               {"--config": args.config, "--outdir": args.outdir}, "flag")
    given = {}
    if paths["--config"]:
        with open(paths["--config"]) as f, core._file_content("config file"):
            given = json.load(f)
        if not isinstance(given, dict):
            raise ConfigError("config file must hold a JSON object")
    given.update((key, v) for key, v in vars(args).items() if key in params and v is not None)
    typed = core._typed_params(params, given, "config key")
    outdir = paths["--outdir"] or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, f"{verb.replace('-', '_')}_effective_config.json"),
                {key: given.get(key, spec[1]) for key, spec in params.items()})
    typed["out"] = os.path.join(outdir, typed["out"])
    return typed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodkit",
        description="Softmax-confidence OOD analysis toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, verb_help, params) in VERBS.items():
        p = sub.add_parser(verb, help=verb_help)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or .)")
        for key, (kind, _, *key_help) in params.items():
            if kind is bool:
                how = {"action": "store_true", "default": None}
            elif kind in (int, float):
                how = {"type": kind}
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            elif isinstance(kind, list) and isinstance(kind[0], list):
                how = {"action": "append"}  # one inner list per flag
            else:
                how = {}
            p.add_argument(_FLAGS.get(key, "--" + key.replace("_", "-")), dest=key,
                           help=key_help[0] if key_help else None, **how)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Non-finite results raise the typed errors below; a warning prints one line.
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            VERBS[args.verb][0](_config(args.verb, args))
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OodkitError, MemoryError) as e:  # MemoryError: a size numpy cannot allocate
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
