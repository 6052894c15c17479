import csv
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oodkit
from oodkit.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, VERBS, main
from oodkit.core import FeatureMatrix, LabelVector, save_features, save_head
from oodkit.gmm import GaussianMixture
from oodkit.metrics import attribute
from oodkit.refnet import MlpModel, MlpSpec
from oodkit.structure import OptimalStructureSpec, gen_optimal_head, synthesize_cluster_features


def _run(*argv):
    return main(list(argv))


def _run_python(script, *args, flags=()):
    """Run ``script`` in a fresh interpreter, started with the interpreter
    ``flags``, that imports this oodkit."""
    src = os.path.dirname(os.path.dirname(oodkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _cli_rusage(*args):
    """The resource usage of one CLI run with ``args``: ru_maxrss and
    ru_minflt. A process's ru_maxrss starts from the peak of the one that
    exec'd it, so the CLI runs under a small launcher, not under pytest."""
    launcher = ("import resource, subprocess, sys; subprocess.run([sys.executable, '-c',"
                " 'import sys; from oodkit.cli import main; sys.exit(main())',"
                " *sys.argv[1:]], check=True);"
                " usage = resource.getrusage(resource.RUSAGE_CHILDREN);"
                " print(usage.ru_maxrss, usage.ru_minflt)")
    proc = _run_python(launcher, *args)
    assert proc.returncode == 0, proc.stderr
    maxrss, minflt = map(int, proc.stdout.split())
    return SimpleNamespace(ru_maxrss=maxrss, ru_minflt=minflt)


def _write_cluster_features(path, seed=0, k=3, h=2, c1=1.5, c3=4.0, n=120):
    head = gen_optimal_head(OptimalStructureSpec(k=k, h=h, c1=c1), seed=seed)
    fm, lv = synthesize_cluster_features(head, c3=c3, n_per_class=n, noise=0.3,
                                         seed=seed)
    save_features(path, fm, lv)
    return head


class TestGenAndAuditHead:
    def test_generated_optimal_head_audits_clean(self, tmp_path):
        assert _run("gen-head", "--outdir", str(tmp_path), "--kind", "optimal",
                    "--k", "4", "--h", "3", "--c1", "2.0",
                    "--out", "head.csv") == EXIT_OK
        assert _run("audit-head", "--outdir", str(tmp_path),
                    "--head", str(tmp_path / "head.csv"),
                    "--out", "audit.json") == EXIT_OK
        audit = json.loads((tmp_path / "audit.json").read_text())
        assert audit["max_cos_deviation"] < 1e-9
        np.testing.assert_allclose(audit["weight_norms"], 2.0, atol=1e-9)
        # both verbs echo their effective config
        assert (tmp_path / "gen_head_effective_config.json").exists()
        assert (tmp_path / "audit_head_effective_config.json").exists()

    def test_counterfactual_kind(self, tmp_path):
        assert _run("gen-head", "--outdir", str(tmp_path),
                    "--kind", "sandwich", "--k", "3", "--h", "2",
                    "--out", "s.csv") == EXIT_OK
        assert _run("audit-head", "--outdir", str(tmp_path),
                    "--head", str(tmp_path / "s.csv"),
                    "--out", "a.json") == EXIT_OK
        audit = json.loads((tmp_path / "a.json").read_text())
        assert audit["max_cos_deviation"] == pytest.approx(0.5)


class TestScore:
    def test_csv_columns_and_values(self, tmp_path):
        head = _write_cluster_features(tmp_path / "f.csv", seed=1)
        from oodkit.core import save_head
        save_head(tmp_path / "head.csv", head)
        assert _run("score", "--outdir", str(tmp_path),
                    "--features", str(tmp_path / "f.csv"),
                    "--head", str(tmp_path / "head.csv"),
                    "--out", "scores.csv") == EXIT_OK
        with open(tmp_path / "scores.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 360
        assert set(rows[0]) == {"sample_index", "u_max", "u_entropy", "u_cool",
                                "u_density", "z_norm", "max_cos", "argmax_class"}
        assert float(rows[0]["u_max"]) <= -1.0 / 3.0
        assert rows[0]["u_density"] == "nan"

    def test_json_with_gmm_density(self, tmp_path):
        head = _write_cluster_features(tmp_path / "f.csv", seed=2)
        from oodkit.core import save_head
        save_head(tmp_path / "head.csv", head)
        assert _run("fit-gmm", "--outdir", str(tmp_path),
                    "--features", str(tmp_path / "f.csv"),
                    "--out", "gmm.json") == EXIT_OK
        assert _run("score", "--outdir", str(tmp_path),
                    "--features", str(tmp_path / "f.csv"),
                    "--head", str(tmp_path / "head.csv"),
                    "--gmm", str(tmp_path / "gmm.json"),
                    "--format", "json", "--out", "scores.json") == EXIT_OK
        scores = json.loads((tmp_path / "scores.json").read_text())
        assert len(scores["u_density"]) == 360
        assert all(np.isfinite(scores["u_density"]))

    def test_binary_features_score_like_their_csv(self, tmp_path):
        head = gen_optimal_head(OptimalStructureSpec(k=3, h=2, c1=1.5), seed=3)
        fm, lv = synthesize_cluster_features(head, c3=4.0, n_per_class=50, noise=0.3, seed=3)
        fm = FeatureMatrix(fm.data.astype(np.float32))  # what a binary file can hold
        save_head(tmp_path / "head.csv", head)
        for fmt in ("csv", "binary"):
            save_features(tmp_path / f"f.{fmt}", fm, lv, fmt=fmt)
            assert _run("score", "--outdir", str(tmp_path / fmt),
                        "--features", str(tmp_path / f"f.{fmt}"),
                        "--head", str(tmp_path / "head.csv")) == EXIT_OK
        scores = (tmp_path / "csv" / "scores.csv").read_bytes()
        assert scores == (tmp_path / "binary" / "scores.csv").read_bytes()


class TestRegion:
    def test_linear_region_with_mass(self, tmp_path):
        head = _write_cluster_features(tmp_path / "f.csv", seed=3)
        from oodkit.core import save_head
        save_head(tmp_path / "head.csv", head)
        assert _run("region", "--outdir", str(tmp_path), "--kind", "linear",
                    "--head", str(tmp_path / "head.csv"),
                    "--features", str(tmp_path / "f.csv"),
                    "--epsilon", "0.05", "--mass-samples", "50000",
                    "--out", "region.json") == EXIT_OK
        region = json.loads((tmp_path / "region.json").read_text())
        assert region["type"] == "linear_approx"
        assert len(region["slabs"]) == 3
        # the slab union is a far-field approximation, so the sampled mass
        # is a diagnostic near epsilon rather than an exact match
        assert 0.0 < region["mc_mass"] < 3 * 0.05
        assert region["mc_samples"] == 50000

    def test_density_region_from_fitted_gmm(self, tmp_path):
        _write_cluster_features(tmp_path / "f.csv", seed=4)
        assert _run("fit-gmm", "--outdir", str(tmp_path),
                    "--features", str(tmp_path / "f.csv"),
                    "--out", "gmm.json") == EXIT_OK
        assert _run("region", "--outdir", str(tmp_path), "--kind", "density",
                    "--gmm", str(tmp_path / "gmm.json"),
                    "--epsilon", "0.1", "--out", "dregion.json") == EXIT_OK
        region = json.loads((tmp_path / "dregion.json").read_text())
        assert region["type"] == "density"
        assert len(region["thresholds"]) == 3
        assert all(t > 0 for t in region["thresholds"])

    def test_mass_samples_add_little_peak_memory(self, tmp_path):
        # 1e6 draws of a 20k x 64 linear region, against none: the count
        # adds the N x K logits and O(block) scratch, nothing H-wide
        resource = pytest.importorskip("resource")
        head = gen_optimal_head(OptimalStructureSpec(k=10, h=64, c1=2.0), seed=0)
        rng = np.random.default_rng(0)
        y = np.arange(20_000) % head.k
        x = 2.0 * head.w[:, y].T + rng.standard_normal((y.size, head.h))
        save_features(tmp_path / "f.csv", FeatureMatrix(x), LabelVector(y, head.k))
        save_head(tmp_path / "head.csv", head)
        args = ["region", "--kind", "linear", "--head", str(tmp_path / "head.csv"),
                "--features", str(tmp_path / "f.csv"), "--outdir", str(tmp_path)]
        peaks = [_cli_rusage(*args, *extra).ru_maxrss
                 for extra in ([], ["--mass-samples", "1000000"])]
        unit = 1 << (20 if sys.platform == "darwin" else 10)  # ru_maxrss bytes or KiB
        assert (peaks[1] - peaks[0]) / unit < 16, peaks


class TestAttribute:
    def test_identity_and_aggregate(self, tmp_path):
        assert _run("attribute", "--outdir", str(tmp_path),
                    "--row", "0.92,0.963,0.963,0.995",
                    "--row", "0.90,0.95,0.97,0.99",
                    "--out", "attr.json") == EXIT_OK
        attr = json.loads((tmp_path / "attr.json").read_text())
        for row in attr["rows"]:
            total = (row["cause1_saturation"] + row["cause2_extrapolation"]
                     + row["cause3_feature_overlap"])
            assert total == pytest.approx(1.0 - row["auroc_entropy"], abs=1e-12)
        assert len(attr["aggregate"]["cause_mean"]) == 3

    def test_csv_output(self, tmp_path):
        rows = ["0.8,0.85,0.9,0.95", "0.9,0.92,0.95,0.99", "0.71,0.6,0.123456789,1"]
        assert _run("attribute", "--outdir", str(tmp_path), "--format", "csv",
                    *[arg for row in rows for arg in ("--row", row)],
                    "--out", "attr.csv") == EXIT_OK
        lines = (tmp_path / "attr.csv").read_text().split("\n")
        # one column per AUROC and cause; the boolean flag stays in the JSON
        assert lines[0] == ("auroc_max,auroc_entropy,auroc_cool,auroc_density,"
                            "cause1,cause2,cause3")
        assert lines[-1] == "" and len(lines) == len(rows) + 2
        for line, row in zip(lines[1:], rows):
            rep = attribute(*map(float, row.split(",")))
            assert line == ",".join(repr(v) for v in (
                rep.auroc_max, rep.auroc_entropy, rep.auroc_cool, rep.auroc_density,
                rep.cause1, rep.cause2, rep.cause3))

    def test_malformed_row_is_config_error(self, tmp_path):
        assert _run("attribute", "--outdir", str(tmp_path),
                    "--row", "0.9,0.9") == EXIT_CONFIG


def _one_io_error(capsys):
    """The one "io error:" line on stderr, or "" when stderr is not that."""
    err = capsys.readouterr().err
    return err if err.startswith("io error:") and err.count("\n") == 1 else ""


# Each case exits 3 with one "io error:" line, through audit-head and score.
_BAD_HEADS = {
    "one-column": "1.0\n2.0\n0\n",
    "infinite": "1.0,-1.0\ninf,0.5\n0,0\n",
    "digit-separator": "1_0,-1.0\n0.5,-0.5\n0,0\n",
    "quoted": '"1.0",-1.0\n0.5,-0.5\n0,0\n',
    "empty": "",  # loadtxt warns of no data; the warning must not print
    "blank-line": "1.0,-1.0\n\n0.5,-0.5\n0,0\n",  # loadtxt would skip it
}


def _binary_features(n, h, floats=()):
    return b"FEAT" + struct.pack("<IIIB", 1, n, h, 0) + np.array(floats, "<f4").tobytes()


# Feature files read by score; each exits 3 with one "io error:" line.
_BAD_FEATURES = {
    "csv-nan": b"h0,h1\n1.0,nan\n0.5,0.5\n",
    "binary-nan": _binary_features(2, 2, [1.0, np.nan, 0.5, 0.5]),
    "binary-header-overflow": _binary_features(2 ** 32 - 1, 2 ** 32 - 1),
    "binary-no-rows": _binary_features(0, 2),
}

_MIXTURE = {"format_version": 1, "k": 1, "weights": [1.0], "means": [[0.0, 0.0]],
            "covariances": [[1.0, 0.0, 0.0, 1.0]]}

_BAD_MIXTURES = {
    **{key: {k: v for k, v in _MIXTURE.items() if k != key}
       for key in ("k", "weights", "means", "covariances")},
    "not-an-object": [_MIXTURE],
    "k-not-int": {**_MIXTURE, "k": "a"},
    "covariance-count": {**_MIXTURE, "covariances": [[1.0, 0.0, 1.0]]},
    "scalar-covariance": {**_MIXTURE, "covariances": [1.0]},
    "non-numeric": {**_MIXTURE, "means": [["a", 0.0]]},
    "log-transform-string": {**_MIXTURE, "log_transform": "false"},
    "weights-off-simplex": {**_MIXTURE, "weights": [0.5]},
    "asymmetric-covariance": {**_MIXTURE, "covariances": [[1.0, 0.5, 0.0, 1.0]]},
    "indefinite-covariance": {**_MIXTURE, "covariances": [[1.0, 2.0, 2.0, 1.0]]},
    "non-finite": {**_MIXTURE, "means": [[float("nan"), 0.0]]},
    "version": {**_MIXTURE, "format_version": 2},
    "version-plus-key": {**_MIXTURE, "format_version": 2, "scale": 1.0},
    "unknown-key": {**_MIXTURE, "weight": [1.0]},
}

_MODEL = MlpModel.init(MlpSpec((2, 4), "relu", 3)).to_dict()


def _model_with(key, index, value):
    """_MODEL with ``value`` at ``index`` of the array under ``key``."""
    arr = np.array(_MODEL[key])
    arr[index] = value
    return {**_MODEL, key: arr.tolist()}


_BAD_MODELS = {
    "not-an-object": [_MODEL],
    "missing-key": {k: v for k, v in _MODEL.items() if k != "head_w"},
    "k-not-int": {**_MODEL, "k": "3"},
    "non-numeric": {**_MODEL, "head_b": ["a", 0.0, 0.0]},
    "layer-shape": {**_MODEL, "weights": [[[1.0, 0.0, 0.0]] * 2]},
    "flag-string": {**_MODEL, "linear_features": "false"},
    # the key is kept for older files, which all hold false
    "linear-features": {**_MODEL, "linear_features": True},
    "linear-features-zero": {**_MODEL, "linear_features": 0},
    "head-weight-nan": _model_with("head_w", (0, 0), float("nan")),
    "hidden-weight-infinite": _model_with("weights", (0, 0, 0), float("inf")),
    "version": {**_MODEL, "format_version": 2},
    "version-plus-key": {**_MODEL, "format_version": 2, "scale": 1.0},
    "unknown-key": {**_MODEL, "frozen": False},
    "width-not-int": {**_MODEL, "layer_widths": [2.5, 4]},
    "biases-short": {**_MODEL, "biases": []},
}

# (verb, config file payload or None, flags): each is a configuration error
_BAD_CONFIGS = {
    "int-from-string": ("gen-head", {"k": "abc"}, []),
    "int-from-float": ("gen-head", {"k": 3.7}, []),
    "float-overflow": ("gen-head", {"c1": 10 ** 400}, []),
    "bool-from-string": ("fit-gmm", {"log_transform": "false"}, []),
    "seeds-number": ("counterfactual", {"seeds": 5}, []),
    "rows-number": ("attribute", {"rows": 5}, []),
    "structures-number": ("counterfactual", {"structures": 5}, []),
    "choice": ("fit-gmm", {"init": "random"}, []),
    "null-for-required": ("pca", {"dims": None}, []),
    "config-list": ("gen-head", [{"k": 3}], []),
    "task-params-flag": ("train-toy", None, ["--task-params", "{not json"]),
    "task-params-list": ("train-toy", {"task_params": "[1, 2]"}, []),
    "negative-c": ("gen-head", None, ["--kind", "sandwich", "--c", "-1"]),
    "no-seeds-counterfactual": ("counterfactual", None, ["--seeds", ""]),
    "no-structures": ("counterfactual", None, ["--structures", ""]),
    "no-seeds-depth-study": ("depth-study", None, ["--seeds", ""]),
    # a repeated entry would train one model twice and count it twice
    "repeated-structures": ("counterfactual", None, ["--structures", "optimal,trainable,optimal",
                                                     "--epochs", "1"]),
    "repeated-seeds-counterfactual": ("counterfactual", None, ["--seeds", "0,0,1",
                                                               "--epochs", "1"]),
    "repeated-depths": ("depth-study", None, ["--depths", "1,1", "--epochs", "1"]),
    "repeated-seeds-depth-study": ("depth-study", None, ["--seeds", "3,3", "--epochs", "1"]),
    "negative-seed": ("gen-head", None, ["--seed", "-1"]),
    "negative-seed-file": ("fit-gmm", {"seed": -3}, []),
    "negative-seeds": ("counterfactual", None, ["--seeds", "-1"]),
    "negative-seeds-file": ("depth-study", {"seeds": [0, -2]}, []),
    "negative-mass-seed": ("region", None, ["--head", "head.csv", "--features", "features.csv",
                                            "--mass-samples", "100", "--mass-seed", "-1"]),
    # the cases below reach the verb, with the files that the test writes
    "negative-mass-samples-linear": ("region", None, ["--head", "head.csv",
                                                      "--features", "features.csv",
                                                      "--mass-samples", "-5"]),
    "negative-mass-samples-density": ("region", {"kind": "density", "gmm": "gmm.json",
                                                 "features": "features.csv",
                                                 "mass_samples": -5}, []),
    "task-param-word": ("train-toy", None, ["--task-params", '{"k": "x"}']),
    "task-param-null": ("train-toy", None, ["--task-params", '{"k": null}']),
    "task-param-negative-seed": ("train-toy", None, ["--task-params", '{"seed": -1}']),
    "task-param-sigma-nan": ("train-toy", None, ["--task-params", '{"sigma": NaN}']),
    "task-param-separation-infinite": ("train-toy", None,
                                       ["--task-params", '{"separation": Infinity}']),
    "sampler-ring-radius-nan": ("sweep", None, ["--sampler", "ring_ood",
                                                "--sampler-params", '{"radius": NaN}']),
    "sampler-ring-width-infinite": ("sweep", None, ["--sampler", "ring_ood",
                                                    "--sampler-params", '{"width": Infinity}']),
    "sampler-param-word": ("sweep", None, ["--sampler-params", '{"dim": "abc"}']),
    "sampler-range-infinite": ("sweep", None, ["--sampler-params", '{"high": Infinity}']),
    "hist-bins-zero": ("audit-head", None, ["--hist-bins", "0"]),
    "cool-temperature-nan": ("score", None, ["--cool-temperature", "nan"]),
    "cool-temperature-zero": ("score", None, ["--cool-temperature", "0"]),
    "reg-nan": ("fit-gmm", None, ["--reg", "nan"]),
    "reg-infinite": ("fit-gmm", None, ["--reg", "inf"]),
    "rel-tol-nan": ("fit-gmm", None, ["--rel-tol", "nan"]),
    "rel-tol-infinite": ("fit-gmm", None, ["--rel-tol", "inf"]),
    "task-param-float-for-int": ("train-toy", None, ["--task-params", '{"k": 2.9}']),
    "task-param-bool-for-int": ("train-toy", None, ["--task-params", '{"n_per_class": true}']),
    "task-param-string-for-int": ("train-toy", None, ["--task-params", '{"dim": "2"}']),
    "task-param-mode-typo": ("train-toy", None, ["--task", "binary_grid",
                                                 "--task-params", '{"mode": "unifrom"}']),
    "uniform-grid-given-k": ("sweep", None, ["--sampler", "binary_grid_ood",
                                             "--sampler-params", '{"k": 3}']),
    "learning-rate-nan": ("train-toy", None, ["--learning-rate", "nan"]),
    "learning-rate-nan-file": ("train-toy", {"learning_rate": float("nan")}, []),
    "weight-decay-infinite": ("train-toy", None, ["--weight-decay", "inf"]),
    "c1-infinite": ("gen-head", None, ["--c1", "inf"]),
    "c-nan": ("gen-head", None, ["--kind", "sandwich", "--c", "nan"]),
    "counterfactual-c1-nan": ("counterfactual", None, ["--c1", "nan"]),
    "depth-study-learning-rate-nan": ("depth-study", None, ["--learning-rate", "nan",
                                                            "--epochs", "1",
                                                            "--n-per-class", "10"]),
}


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"knid": "optimal"}')
        assert _run("gen-head", "--outdir", str(tmp_path),
                    "--config", str(cfgfile)) == EXIT_CONFIG

    def test_missing_input_file(self, tmp_path):
        assert _run("audit-head", "--outdir", str(tmp_path),
                    "--head", str(tmp_path / "nope.csv")) == EXIT_IO

    def test_corrupt_json_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{not json")
        assert _run("gen-head", "--outdir", str(tmp_path),
                    "--config", str(cfgfile)) == EXIT_IO

    def test_numerical_failure(self, tmp_path):
        # rank-deficient features cannot support a 2-D PCA
        x = np.outer(np.arange(30.0), np.array([1.0, 2.0]))
        save_features(tmp_path / "flat.csv", FeatureMatrix(x))
        assert _run("pca", "--outdir", str(tmp_path),
                    "--features", str(tmp_path / "flat.csv"),
                    "--dims", "2") == EXIT_NUMERICAL

    def test_numerical_failure_prints_one_line(self, tmp_path):
        # numpy's overflow warnings used to print before the error line
        proc = _run_python("import sys; from oodkit.cli import main; sys.exit(main())",
                           "train-toy", "--outdir", str(tmp_path),
                           "--learning-rate", "1.7e308", "--epochs", "1",
                           "--activation", "relu", "--task-params",
                           '{"n_per_class": 10, "separation": 60}')
        assert proc.returncode == EXIT_NUMERICAL
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("numerical error:")

    def test_warning_prints_one_line(self, tmp_path):
        # Python's own format adds the file:line and echoes the source line
        (tmp_path / "f.csv").write_text("h0,h1,label\n" + "0,0,0\n" * 4)
        proc = _run_python("import sys; from oodkit.cli import main; sys.exit(main())",
                           "fit-gmm", "--outdir", str(tmp_path), "--k-components", "2",
                           "--init", "kmeans_pp", "--features", str(tmp_path / "f.csv"))
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr == (
            "warning: few samples per component relative to dimension; "
            "covariances may be poorly conditioned\n"
            "numerical error: empty component after 3 reinitializations\n")

    def test_overflowing_logits_are_numerical_error(self, tmp_path, capsys):
        # finite features whose logits overflow leave no threshold to write
        (tmp_path / "f.csv").write_text("h0,h1,label\n1e307,0,0\n0,1e307,1\n1,2,0\n")
        (tmp_path / "head.csv").write_text("100,0\n0,100\n0,0\n")
        assert _run("region", "--kind", "linear", "--head", str(tmp_path / "head.csv"),
                    "--features", str(tmp_path / "f.csv"),
                    "--outdir", str(tmp_path / "out")) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical error: training logits are not finite\n"
        assert not (tmp_path / "out" / "region.json").exists()

    def test_bounded_region_warns_in_one_line(self, tmp_path):
        # u_star >= -1/2: the region is written with empty slabs, and exits 0
        head = gen_optimal_head(OptimalStructureSpec(k=5, h=8, c1=1.0), seed=0)
        fm, lv = synthesize_cluster_features(head, c3=2.0, n_per_class=200, noise=1.0,
                                             seed=0)
        save_head(tmp_path / "head.csv", head)
        save_features(tmp_path / "f.csv", fm, lv)
        # under -W error too: main's own filter, not the caller's, decides
        for flags in ([], ["-W", "error"]):
            proc = _run_python("import sys; from oodkit.cli import main; sys.exit(main())",
                               "region", "--kind", "linear", "--outdir", str(tmp_path),
                               "--head", str(tmp_path / "head.csv"),
                               "--features", str(tmp_path / "f.csv"), flags=flags)
            assert proc.returncode == EXIT_OK, (flags, proc.stderr)
            assert len(proc.stderr.splitlines()) == 1
            assert re.fullmatch(r"warning: u_star = -0\.\d+ >= -1/2: the far-field "
                                r"approximation does not apply, so every slab is empty\n",
                                proc.stderr)
        region = json.loads((tmp_path / "region.json").read_text())
        assert all(s["alpha_lo"] == s["alpha_hi"] == 0.0 for s in region["slabs"])

    def test_invalid_structure_spec(self, tmp_path):
        assert _run("gen-head", "--outdir", str(tmp_path), "--kind", "optimal",
                    "--k", "5", "--h", "2") == EXIT_CONFIG

    def test_ragged_head_file(self, tmp_path):
        (tmp_path / "head.csv").write_text("1.0,2.0\n3.0\n0,0\n")
        assert _run("audit-head", "--outdir", str(tmp_path),
                    "--head", str(tmp_path / "head.csv")) == EXIT_IO

    # Features are 3 wide, the head and the mixture 2 wide.
    @pytest.mark.parametrize("flags", [
        ["pca", "--dims", "5"],
        ["region", "--kind", "linear", "--head", "HEAD"],
        ["region", "--kind", "density", "--gmm", "GMM", "--mass-samples", "1000"],
    ], ids=["pca-dims-above-width", "region-head-width", "region-mixture-width"])
    def test_width_mismatch_is_config_error(self, tmp_path, capsys, flags):
        head = _write_cluster_features(tmp_path / "f2.csv", h=2)
        from oodkit.core import save_head
        save_head(tmp_path / "head.csv", head)
        _write_cluster_features(tmp_path / "f.csv", h=3)
        (tmp_path / "gmm.json").write_text(json.dumps(_MIXTURE))
        paths = {"HEAD": str(tmp_path / "head.csv"), "GMM": str(tmp_path / "gmm.json")}
        flags = [paths.get(flag, flag) for flag in flags]
        assert _run(*flags, "--features", str(tmp_path / "f.csv"),
                    "--outdir", str(tmp_path / "out")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    _LINE_CLASS = "h0,h1,label\n0,0,0\n1e8,1e8,0\n2e8,2e8,0\n1,0,1\n0,1,1\n1,1,1\n"

    def test_singular_class_is_numerical_error(self, tmp_path, capsys):
        # class 0 lies on a line, so its moment-matched covariance is not PD
        # in the H-wide space the density region's mass is drawn in
        (tmp_path / "f.csv").write_text(self._LINE_CLASS)
        (tmp_path / "gmm.json").write_text(json.dumps(_MIXTURE))
        assert _run("region", "--kind", "density", "--gmm", str(tmp_path / "gmm.json"),
                    "--features", str(tmp_path / "f.csv"), "--mass-samples", "1000",
                    "--outdir", str(tmp_path / "out")) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical error:")

    def _line_class_linear_mass(self, tmp_path, capsys, head):
        # The row at the origin ties both logits, so u_star = -1/2: the
        # slabs are empty and the CLI prints the bounded-region warning.
        (tmp_path / "f.csv").write_text(self._LINE_CLASS)
        (tmp_path / "head.csv").write_text(head)
        assert _run("region", "--kind", "linear", "--head", str(tmp_path / "head.csv"),
                    "--features", str(tmp_path / "f.csv"), "--mass-samples", "1000",
                    "--outdir", str(tmp_path / "out")) == EXIT_OK
        assert capsys.readouterr().err.startswith("warning: u_star = -0.5 >= -1/2")
        region = json.loads((tmp_path / "out" / "region.json").read_text())
        assert 0.0 <= region["mc_mass"] <= 1.0

    def test_singular_class_linear_mass_is_counted(self, tmp_path, capsys):
        # the linear region's mass is drawn on the logits, with a ridge that
        # grows with their variance, so class 0's line is counted even
        # through a full-rank W
        self._line_class_linear_mass(tmp_path, capsys, "2.0,0.0\n0.0,1.0\n0,0\n")

    def test_class_singular_off_the_head_span_is_counted(self, tmp_path, capsys):
        # W has rank 1, so every class's logits are rank 1 too
        self._line_class_linear_mass(tmp_path, capsys, "1.0,-1.0\n0.5,-0.5\n0,0\n")

    # bytes that are not UTF-8, in a config file and in a feature CSV
    @pytest.mark.parametrize("flags", [
        ["gen-head", "--config", "bad.json"],
        ["pca", "--features", "bad.csv"],
    ], ids=["config", "features"])
    def test_undecodable_file_is_io_error(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_bytes(b'{"k": 3\xff}')
        (tmp_path / "bad.csv").write_bytes(b"h0,h1\n1.0,2\xff\n")
        assert _run(*flags, "--outdir", str(tmp_path / "out")) == EXIT_IO
        assert capsys.readouterr().err.startswith("io error:")

    @pytest.mark.parametrize("case", list(_BAD_MIXTURES))
    def test_mixture_file_missing_key(self, tmp_path, capsys, case):
        head = _write_cluster_features(tmp_path / "f.csv", h=2)
        from oodkit.core import save_head
        save_head(tmp_path / "head.csv", head)
        (tmp_path / "gmm.json").write_text(json.dumps(_BAD_MIXTURES[case]))
        assert _run("score", "--outdir", str(tmp_path),
                    "--features", str(tmp_path / "f.csv"),
                    "--head", str(tmp_path / "head.csv"),
                    "--gmm", str(tmp_path / "gmm.json")) == EXIT_IO
        line = _one_io_error(capsys)
        assert line
        if case.startswith("version"):
            # a later version is named as such, whatever keys it adds
            assert "format_version" in line

    @pytest.mark.parametrize("case", list(_BAD_MODELS))
    def test_malformed_model_file(self, tmp_path, capsys, case):
        (tmp_path / "model.json").write_text(json.dumps(_BAD_MODELS[case]))
        assert _run("sweep", "--outdir", str(tmp_path),
                    "--model", str(tmp_path / "model.json")) == EXIT_IO
        line = _one_io_error(capsys)
        assert line
        if case.startswith("version"):
            assert "format_version" in line

    @pytest.mark.parametrize("verb", ["audit-head", "score"])
    @pytest.mark.parametrize("case", list(_BAD_HEADS))
    def test_malformed_head_file(self, tmp_path, capsys, monkeypatch, case, verb):
        monkeypatch.chdir(tmp_path)
        _write_cluster_features(tmp_path / "features.csv", h=2)
        (tmp_path / "head.csv").write_text(_BAD_HEADS[case])
        assert _run(verb, "--outdir", "out") == EXIT_IO
        assert _one_io_error(capsys)

    @pytest.mark.parametrize("case", list(_BAD_FEATURES))
    def test_malformed_feature_file(self, tmp_path, capsys, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        save_head(tmp_path / "head.csv", _write_cluster_features(tmp_path / "ok.csv", h=2))
        (tmp_path / "features.csv").write_bytes(_BAD_FEATURES[case])
        assert _run("score", "--outdir", "out") == EXIT_IO
        assert _one_io_error(capsys)

    # Python int() alone took all three, the first as an integer that int64
    # cannot hold.
    @pytest.mark.parametrize("flags", [["score"], ["fit-gmm"], ["pca"],
                                       ["region", "--head", "head.csv", "--features",
                                        "features.csv", "--mass-samples", "100"]],
                             ids=["score", "fit-gmm", "pca", "region"])
    @pytest.mark.parametrize("label", ["99999999999999999999", "1_0", "\u0661"],
                             ids=["int64-overflow", "digit-separator", "arabic-digit"])
    def test_malformed_label_names_its_row(self, tmp_path, capsys, monkeypatch, flags, label):
        monkeypatch.chdir(tmp_path)
        save_head(tmp_path / "head.csv", _write_cluster_features(tmp_path / "ok.csv", h=2))
        (tmp_path / "features.csv").write_text(f"h0,h1,label\n1.0,2.0,0\n3.0,4.0,{label}\n")
        assert _run(*flags, "--outdir", "out") == EXIT_IO
        assert "row 3:" in _one_io_error(capsys)

    def test_label_past_the_class_count_range_is_config_error(self, tmp_path, capsys):
        # labels up to 2**63 - 1 give k = 2**63 classes, which bincount could
        # not count; the mass estimate names the first class without 2 rows
        head = _write_cluster_features(tmp_path / "ok.csv", h=2)
        save_head(tmp_path / "head.csv", head)
        (tmp_path / "f.csv").write_text("h0,h1,label\n1.0,2.0,0\n3.0,4.0,0\n"
                                        "1.0,0.0,9223372036854775807\n")
        assert _run("region", "--kind", "linear", "--head", str(tmp_path / "head.csv"),
                    "--features", str(tmp_path / "f.csv"), "--mass-samples", "100",
                    "--outdir", str(tmp_path / "out")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: class 1 has fewer than 2 samples\n"

    @pytest.mark.parametrize("case", list(_BAD_CONFIGS))
    def test_mistyped_config_is_config_error(self, tmp_path, capsys, monkeypatch, case):
        # valid files under the default input names, for the cases that get that far
        monkeypatch.chdir(tmp_path)
        save_head(tmp_path / "head.csv", _write_cluster_features(tmp_path / "features.csv"))
        (tmp_path / "model.json").write_text(json.dumps(_MODEL))
        GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)]).save(tmp_path / "gmm.json")
        verb, payload, flags = _BAD_CONFIGS[case]
        if payload is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(payload))
            flags = flags + ["--config", str(tmp_path / "cfg.json")]
        assert _run(verb, "--outdir", str(tmp_path / "out"), *flags) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("verb, key", [("gen-head", "out"), ("score", "features")])
    def test_nul_in_config_path_is_config_error(self, tmp_path, capsys, verb, key):
        (tmp_path / "cfg.json").write_text(json.dumps({key: "a\u0000b"}))
        assert _run(verb, "--outdir", str(tmp_path),
                    "--config", str(tmp_path / "cfg.json")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_unallocatable_size_is_config_error(self, tmp_path, capsys):
        # numpy refuses the 10**16 x 2 draws (142 PiB) without allocating them
        assert _run("gen-head", "--outdir", str(tmp_path), "--k", "3",
                    "--h", str(10 ** 16)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--config", "--outdir"])
    def test_nul_in_path_flag_is_config_error(self, capsys, flag):
        # checked before anything is read or written
        assert _run("gen-head", flag, "a\u0000b") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: flag {flag}:") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["optimal", "sandwich"])
    @pytest.mark.parametrize("h", [2 ** 62, 10 ** 20])
    def test_unindexable_size_is_config_error(self, tmp_path, capsys, kind, h):
        # numpy raises ValueError, not MemoryError, for byte counts past intp
        assert _run("gen-head", "--outdir", str(tmp_path), "--kind", kind, "--k", "3",
                    "--h", str(h)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["train-toy", "--width", str(2 ** 62)],
        ["train-toy", "--depth", str(10 ** 20)],
        ["depth-study", "--width", str(2 ** 62), "--seeds", "0"],
        ["depth-study", "--depths", str(10 ** 20), "--seeds", "0"],
    ], ids=["train-toy-width", "train-toy-depth", "depth-study-width", "depth-study-depth"])
    def test_unindexable_layer_is_config_error(self, tmp_path, capsys, flags):
        # past intp, numpy raises ValueError for the weights and Python
        # OverflowError for the widths tuple, so the sizes are checked first
        assert _run(*flags, "--epochs", "1", "--outdir", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_more_components_than_rows_is_config_error(self, tmp_path, capsys):
        _write_cluster_features(tmp_path / "f.csv", n=10)  # 30 rows
        assert _run("fit-gmm", "--outdir", str(tmp_path), "--features", str(tmp_path / "f.csv"),
                    "--init", "kmeans_pp", "--k-components", "31") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


def _fuzz_inputs():
    """Valid inputs of score --gmm and sweep --model, as bytes by file name."""
    head = gen_optimal_head(OptimalStructureSpec(k=3, h=2, c1=1.5), seed=0)
    fm, lv = synthesize_cluster_features(head, c3=4.0, n_per_class=4, noise=0.3, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        save_head(Path(tmp, "head.csv"), head)
        save_features(Path(tmp, "f.csv"), fm, lv)
        save_features(Path(tmp, "f.bin"), fm, lv, fmt="binary")
        files = {name: Path(tmp, name).read_bytes() for name in ("f.csv", "f.bin", "head.csv")}
    return {**files, "gmm.json": json.dumps(_MIXTURE, indent=1).encode(),
            "model.json": json.dumps(_MODEL, indent=1).encode()}


_FUZZ_INPUTS = _fuzz_inputs()
_FIELD = re.compile(rb"-?[0-9][0-9.eE+-]*|true|false|NaN")


class TestMutatedInputs:
    """Any one mutation of one input file exits 0, 2, 3 or 4 with at most one
    stderr line; a traceback or a warning fails the test."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_input_exits_cleanly(self, data):
        files = dict(_FUZZ_INPUTS)
        name = data.draw(st.sampled_from(sorted(files)), label="file")
        raw = files[name]
        json_file = name.endswith(".json")
        how = data.draw(st.sampled_from(["truncate", "field"]
                                        + ["drop key", "add key"] * json_file), label="how")
        if how == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        elif how == "field" and name == "f.bin":
            start = data.draw(st.integers(4, len(raw) - 4), label="offset")
            new = data.draw(st.sampled_from([np.float32(np.nan).tobytes(), b"xxxx", b""]))
            raw = raw[:start] + new + raw[start + 4:]
        elif how == "field":
            start, stop = data.draw(st.sampled_from([m.span() for m in _FIELD.finditer(raw)]),
                                    label="field")
            new = data.draw(st.sampled_from([b"nan", b"NaN", b"x", b'"x"', b""]))
            raw = raw[:start] + new + raw[stop:]
        else:
            payload = json.loads(raw)
            if how == "drop key":
                del payload[data.draw(st.sampled_from(sorted(payload)), label="key")]
            else:
                payload["extra"] = 1
            raw = json.dumps(payload).encode()
        files[name] = raw
        features = "f.bin" if name == "f.bin" else "f.csv"
        argv = (["sweep", "--model", "model.json", "--n-samples", "60", "--top-m", "2"]
                if name == "model.json" else
                ["score", "--features", features, "--head", "head.csv", "--gmm", "gmm.json"])
        with tempfile.TemporaryDirectory() as tmp:
            for fname, content in files.items():
                Path(tmp, fname).write_bytes(content)
            argv = [os.path.join(tmp, a) if a in files else a for a in argv]
            with redirect_stderr(io.StringIO()) as err:
                code = main(argv + ["--outdir", os.path.join(tmp, "out")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL)
        assert err.getvalue().count("\n") <= 1

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_config_exits_cleanly(self, data):
        verb = data.draw(st.sampled_from(["score", "attribute"]), label="verb")
        payload = ({"features": "f.csv", "head": "head.csv", "gmm": "gmm.json",
                    "fmt": "csv", "cool_temperature": 0.5, "out": "scores.csv"}
                   if verb == "score" else
                   {"rows": [[0.8, 0.85, 0.9, 0.95], [0.9, 0.92, 0.95, 0.99]],
                    "fmt": "csv", "out": "attr.csv"})
        how = data.draw(st.sampled_from(["truncate", "drop key", "add key", "value"]),
                        label="how")
        with tempfile.TemporaryDirectory() as tmp:
            for fname, content in _FUZZ_INPUTS.items():
                Path(tmp, fname).write_bytes(content)
            for key in ("features", "head", "gmm"):
                if key in payload:
                    payload[key] = os.path.join(tmp, payload[key])
            if how == "drop key":
                del payload[data.draw(st.sampled_from(sorted(payload)), label="key")]
            elif how == "add key":
                payload["extra"] = 1
            elif how == "value":
                # any entry, top-level or inside the rows
                rows = payload.get("rows", [])
                slots = ([(payload, key) for key in payload]
                         + [(rows, i) for i in range(len(rows))]
                         + [(row, i) for row in rows for i in range(4)])
                where, key = data.draw(st.sampled_from(slots), label="slot")
                where[key] = data.draw(st.sampled_from(
                    [float("nan"), "x", "", "a\u0000b", [], {}, None, True]), label="value")
            raw = json.dumps(payload).encode()
            if how == "truncate":
                raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
            Path(tmp, "cfg.json").write_bytes(raw)
            with redirect_stderr(io.StringIO()) as err:
                code = main([verb, "--config", os.path.join(tmp, "cfg.json"),
                             "--outdir", os.path.join(tmp, "out")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL)
        assert err.getvalue().count("\n") <= 1


class TestTrainToyAndSweep:
    def test_train_summary_and_sweep(self, tmp_path):
        params = json.dumps({"k": 3, "dim": 2, "n_per_class": 100,
                             "separation": 6.0, "seed": 0})
        assert _run("train-toy", "--outdir", str(tmp_path),
                    "--task", "gaussian_blobs", "--task-params", params,
                    "--depth", "1", "--width", "8", "--activation", "tanh",
                    "--epochs", "15", "--out", "model.json") == EXIT_OK
        summary = json.loads((tmp_path / "model.json.summary.json").read_text())
        assert summary["train_accuracy"] >= 0.98
        sampler_params = json.dumps({"dim": 2, "low": -12.0, "high": 12.0,
                                     "seed": 1})
        assert _run("sweep", "--outdir", str(tmp_path),
                    "--model", str(tmp_path / "model.json"),
                    "--sampler", "uniform_hypercube_ood",
                    "--sampler-params", sampler_params,
                    "--n-samples", "5000", "--top-m", "4",
                    "--out", "sweep.json") == EXIT_OK
        sweep = json.loads((tmp_path / "sweep.json").read_text())
        assert set(sweep) == {"0", "1", "2"}
        for c in sweep.values():
            assert len(c["inputs"]) == 4
            assert sorted(c["confidences"], reverse=True) == c["confidences"]

    def test_every_sampler_choice_runs(self, tmp_path):
        # a model on 4 inputs: 4-dimensional draws, or a 2 x 2 grid
        (tmp_path / "model.json").write_text(
            json.dumps(MlpModel.init(MlpSpec((4, 4), "relu", 3)).to_dict()))
        params = {"ring_ood": {"dim": 4}, "uniform_hypercube_ood": {"dim": 4},
                  "binary_grid_ood": {"grid": 2}}
        assert sorted(VERBS["sweep"][2]["sampler"][0]) == sorted(params)
        for sampler, sampler_params in params.items():
            assert _run("sweep", "--outdir", str(tmp_path / sampler),
                        "--model", str(tmp_path / "model.json"), "--sampler", sampler,
                        "--sampler-params", json.dumps(sampler_params),
                        "--n-samples", "300", "--top-m", "2") == EXIT_OK

    def test_frozen_head_flag(self, tmp_path):
        assert _run("gen-head", "--outdir", str(tmp_path), "--kind", "optimal",
                    "--k", "3", "--h", "8", "--c1", "2.0",
                    "--out", "frozen.csv") == EXIT_OK
        params = json.dumps({"k": 3, "dim": 2, "n_per_class": 60, "seed": 0})
        assert _run("train-toy", "--outdir", str(tmp_path),
                    "--task", "gaussian_blobs", "--task-params", params,
                    "--depth", "1", "--width", "8", "--epochs", "5",
                    "--frozen-head", str(tmp_path / "frozen.csv"),
                    "--out", "fm.json") == EXIT_OK
        from oodkit.core import load_head
        from oodkit.refnet import MlpModel
        frozen = load_head(tmp_path / "frozen.csv")
        model = MlpModel.load(tmp_path / "fm.json")
        np.testing.assert_array_equal(model.head_w, frozen.w)


class TestNumpyOnly:
    def test_gaussian_verbs_run_without_scipy(self, tmp_path):
        save_head(tmp_path / "head.csv", _write_cluster_features(tmp_path / "f.csv"))
        runs = [
            ["fit-gmm", "--features", "f.csv"],
            ["score", "--features", "f.csv", "--head", "head.csv", "--gmm", "gmm.json"],
            ["region", "--kind", "linear", "--head", "head.csv", "--features", "f.csv",
             "--mass-samples", "2000"],
            ["region", "--kind", "density", "--gmm", "gmm.json", "--out", "dregion.json"],
            ["counterfactual", "--seeds", "0", "--epochs", "2", "--n-per-class", "20",
             "--n-ood", "20"],
        ]
        script = ("import json, os, sys\n"
                  "sys.modules['scipy'] = None  # any scipy import now fails\n"
                  "from oodkit.cli import main\n"
                  "os.chdir(sys.argv[1])\n"
                  "print(json.dumps([main(argv + ['--outdir', '.'])\n"
                  "                  for argv in json.loads(sys.argv[2])]))\n")
        proc = _run_python(script, str(tmp_path), json.dumps(runs))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [EXIT_OK] * len(runs), proc.stderr


class TestReproducibility:
    def test_linear_mass_ignores_blas_threads(self, tmp_path, monkeypatch):
        # two batches of K = 10 logit draws, with OpenBLAS on one thread and
        # on its default count
        head = gen_optimal_head(OptimalStructureSpec(k=10, h=64, c1=2.0), seed=1)
        save_head(tmp_path / "head.csv", head)
        save_features(tmp_path / "f.csv",
                      *synthesize_cluster_features(head, c3=2.0, n_per_class=300, noise=1.0))
        outputs = []
        for threads in ("1", None):
            if threads is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            out = tmp_path / f"threads-{threads}"
            proc = _run_python("import sys; from oodkit.cli import main; sys.exit(main())",
                               "region", "--kind", "linear", "--mass-samples", "200000",
                               "--head", str(tmp_path / "head.csv"),
                               "--features", str(tmp_path / "f.csv"), "--outdir", str(out))
            assert proc.returncode == EXIT_OK and not proc.stderr, proc.stderr
            outputs.append((out / "region.json").read_bytes())
        assert b'"mc_mass"' in outputs[0]
        assert outputs[0] == outputs[1]

    def test_score_rerun_is_byte_identical(self, tmp_path):
        head = _write_cluster_features(tmp_path / "f.csv", seed=5)
        from oodkit.core import save_head
        save_head(tmp_path / "head.csv", head)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert _run("score", "--outdir", str(out),
                        "--features", str(tmp_path / "f.csv"),
                        "--head", str(tmp_path / "head.csv"),
                        "--out", "scores.csv") == EXIT_OK
        assert (out_a / "scores.csv").read_bytes() == (out_b / "scores.csv").read_bytes()

    def test_list_keys_take_json_list_or_comma_string(self, tmp_path):
        assert _run("attribute", "--outdir", str(tmp_path / "flags"),
                    "--row", "0.9,0.92,0.95,0.99", "--row", "0.8,0.85,0.9,0.95") == EXIT_OK
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"rows": [[0.9, 0.92, 0.95, 0.99],
                                                "0.8,0.85,0.9,0.95"]}))
        assert _run("attribute", "--outdir", str(tmp_path / "file"),
                    "--config", str(cfgfile)) == EXIT_OK
        assert ((tmp_path / "flags" / "attribution.json").read_bytes()
                == (tmp_path / "file" / "attribution.json").read_bytes())

    def test_effective_config_round_trips(self, tmp_path):
        assert _run("gen-head", "--outdir", str(tmp_path / "a"),
                    "--kind", "lopsided", "--k", "3", "--h", "4",
                    "--seed", "9", "--out", "head.csv") == EXIT_OK
        echoed = tmp_path / "a" / "gen_head_effective_config.json"
        # feeding the echoed config back reproduces the artifact exactly
        cfg = json.loads(echoed.read_text())
        cfg.pop("config", None)
        cfgfile = tmp_path / "replay.json"
        cfgfile.write_text(json.dumps(cfg))
        assert _run("gen-head", "--outdir", str(tmp_path / "b"),
                    "--config", str(cfgfile)) == EXIT_OK
        assert ((tmp_path / "a" / "head.csv").read_bytes()
                == (tmp_path / "b" / "head.csv").read_bytes())


class TestPca:
    def test_projection_csv_and_components(self, tmp_path):
        _write_cluster_features(tmp_path / "f.csv", seed=6, h=2)
        assert _run("pca", "--outdir", str(tmp_path),
                    "--features", str(tmp_path / "f.csv"),
                    "--dims", "2", "--out", "pca.csv") == EXIT_OK
        with open(tmp_path / "pca.csv") as f:
            rows = list(csv.DictReader(f))
        assert set(rows[0]) == {"pc0", "pc1", "label"}
        assert len(rows) == 360
        comps = json.loads((tmp_path / "pca.csv.components.json").read_text())
        assert len(comps["components"]) == 2
        assert 0.0 < sum(comps["explained_variance_ratio"]) <= 1.0 + 1e-12


class TestCsvFiles:
    @pytest.mark.parametrize("writer", ["save_features", "save_head", "gen-head", "score",
                                        "pca", "attribute"])
    def test_lines_end_with_newline_alone(self, tmp_path, monkeypatch, writer):
        monkeypatch.chdir(tmp_path)
        save_head(tmp_path / "head.csv", _write_cluster_features(tmp_path / "features.csv"))
        argv = {"gen-head": ["gen-head"], "score": ["score"], "pca": ["pca"],
                "attribute": ["attribute", "--format", "csv", "--row", "0.8,0.85,0.9,0.95"]}
        path = {"save_features": "features.csv", "save_head": "head.csv"}.get(writer, "out.csv")
        if writer in argv:
            assert _run(*argv[writer], "--out", path) == EXIT_OK
        raw = (tmp_path / path).read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw


class TestSmallStudies:
    def test_counterfactual_tiny_run(self, tmp_path):
        assert _run("counterfactual", "--outdir", str(tmp_path),
                    "--structures", "optimal,sandwich", "--seeds", "0",
                    "--epochs", "10", "--n-per-class", "60", "--n-ood", "100",
                    "--out", "cf.json") == EXIT_OK
        cf = json.loads((tmp_path / "cf.json").read_text())
        assert set(cf["structures"]) == {"optimal", "sandwich"}
        assert set(cf["auroc_order"]) == {"optimal", "sandwich"}
        for row in cf["structures"].values():
            assert 0.0 <= row["auroc_mean"] <= 1.0
            assert len(row["accuracy_per_seed"]) == 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts glibc's page faults")
    def test_counterfactual_steps_take_no_fresh_pages(self, tmp_path):
        # 5 structures x 5 seeds train as one stack, whose 25 x 16 x 64
        # activations (200 KiB) are above glibc's 128 KiB mmap threshold: a
        # step that allocated them took about 48,000 more faults over 49 epochs
        faults = [_cli_rusage("counterfactual", "--seeds", "0,1,2,3,4", "--epochs", epochs,
                              "--outdir", str(tmp_path)).ru_minflt for epochs in ("1", "50")]
        assert faults[1] - faults[0] < 5000, faults

    def test_depth_study_tiny_run(self, tmp_path):
        assert _run("depth-study", "--outdir", str(tmp_path),
                    "--depths", "1,2", "--seeds", "0", "--epochs", "5",
                    "--n-per-class", "60", "--n-ood", "100", "--dim", "2",
                    "--out", "ds.json") == EXIT_OK
        ds = json.loads((tmp_path / "ds.json").read_text())
        assert [r["depth"] for r in ds["rows"]] == [1, 2]
