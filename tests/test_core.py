import dataclasses
import inspect

import numpy as np
import pytest

from oodkit.cli import VERBS
from oodkit.core import (
    FeatureMatrix,
    LabelVector,
    SoftmaxHead,
    decompose,
    load_features,
    load_head,
    logits,
    save_features,
    save_head,
    softmax,
    _typed_params,
    softmax_from_logits,
)
from oodkit.errors import (
    ConfigError,
    DataFormatError,
    DegenerateWeightError,
    DimensionError,
    NumericalError,
)
from oodkit.gmm import EmConfig
from oodkit.refnet import (TASKS, MlpSpec, SyntheticTask, TrainConfig, generate,
                           run_counterfactual, run_depth_study)


class TestContainers:
    def test_feature_matrix_shape_and_props(self):
        fm = FeatureMatrix(np.arange(6.0).reshape(2, 3))
        assert fm.n == 2 and fm.h == 3

    def test_feature_matrix_rejects_1d(self):
        with pytest.raises(DimensionError):
            FeatureMatrix(np.arange(4.0))

    def test_feature_matrix_rejects_nonfinite(self):
        with pytest.raises(NumericalError):
            FeatureMatrix(np.array([[1.0, np.nan]]))

    def test_feature_matrix_is_immutable(self):
        fm = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            fm.data[0, 0] = 5.0

    def test_labels_range_checked(self):
        LabelVector(np.array([0, 1, 2]), k=3)
        with pytest.raises(DataFormatError):
            LabelVector(np.array([0, 3]), k=3)
        with pytest.raises(DataFormatError):
            LabelVector(np.array([-1]), k=3)

    def test_head_shape_validation(self):
        SoftmaxHead(w=np.ones((4, 2)), b=np.zeros(2))
        with pytest.raises(DimensionError):
            SoftmaxHead(w=np.ones((4, 2)), b=np.zeros(3))
        with pytest.raises(DimensionError):
            SoftmaxHead(w=np.ones((4, 1)), b=np.zeros(1))

    def test_head_column_norms(self):
        head = SoftmaxHead(w=np.array([[3.0, 0.0], [4.0, 2.0]]), b=np.zeros(2))
        np.testing.assert_allclose(head.column_norms(), [5.0, 2.0])


class TestSoftmax:
    def test_known_values(self):
        head = SoftmaxHead(w=np.eye(2), b=np.zeros(2))
        p = softmax(head, np.array([1.0, 2.0]))
        e = np.exp([1.0, 2.0])
        np.testing.assert_allclose(p, e / e.sum(), rtol=1e-15)

    def test_bias_enters_logits(self):
        head = SoftmaxHead(w=np.eye(2), b=np.array([10.0, 0.0]))
        np.testing.assert_allclose(logits(head, np.array([0.0, 0.0])), [10.0, 0.0])

    def test_stable_for_huge_logits(self):
        head = SoftmaxHead(w=np.eye(2) * 500.0, b=np.zeros(2))
        p = softmax(head, np.array([2.0, 1.0]))
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_simplex_property_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            k = int(rng.integers(2, 8))
            h = int(rng.integers(1, 6))
            head = SoftmaxHead(w=rng.standard_normal((h, k)),
                               b=rng.standard_normal(k))
            p = softmax(head, rng.standard_normal(h) * 10)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        ell = rng.standard_normal((5, 4))
        batch = softmax_from_logits(ell)
        for i in range(5):
            np.testing.assert_allclose(batch[i], softmax_from_logits(ell[i]))


class TestDecompose:
    def test_cosines_match_manual(self):
        head = SoftmaxHead(w=np.array([[2.0, 0.0], [0.0, 1.0]]), b=np.zeros(2))
        z = np.array([1.0, 1.0])
        dec = decompose(head, z)
        assert dec.z_norm == pytest.approx(np.sqrt(2.0))
        np.testing.assert_allclose(dec.cos_theta,
                                   [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)])
        assert dec.argmax_class == 0  # logit 2 vs 1

    def test_zero_vector_cosines_are_zero(self):
        head = SoftmaxHead(w=np.eye(3), b=np.zeros(3))
        dec = decompose(head, np.zeros(3))
        assert dec.z_norm == 0.0
        np.testing.assert_array_equal(dec.cos_theta, np.zeros(3))

    def test_bias_breaks_argmax_not_cosines(self):
        head = SoftmaxHead(w=np.eye(2), b=np.array([0.0, 100.0]))
        dec = decompose(head, np.array([1.0, 0.0]))
        assert dec.argmax_class == 1
        assert dec.cos_theta[0] == pytest.approx(1.0)

    def test_zero_weight_column_raises(self):
        head = SoftmaxHead(w=np.array([[1.0, 0.0], [0.0, 0.0]]), b=np.zeros(2))
        with pytest.raises(DegenerateWeightError):
            decompose(head, np.array([1.0, 1.0]))

    def test_dimension_mismatch(self):
        head = SoftmaxHead(w=np.eye(3), b=np.zeros(3))
        with pytest.raises(DimensionError):
            decompose(head, np.ones(2))


class TestFeatureFiles:
    def _data(self):
        rng = np.random.default_rng(3)
        fm = FeatureMatrix(rng.standard_normal((7, 4)).astype(np.float32))
        lv = LabelVector(rng.integers(0, 3, 7), k=3)
        return fm, lv

    def test_csv_roundtrip_with_labels(self, tmp_path):
        fm, lv = self._data()
        p = tmp_path / "f.csv"
        save_features(p, fm, lv, fmt="csv")
        fm2, lv2 = load_features(p)
        np.testing.assert_array_equal(fm2.data, fm.data)
        np.testing.assert_array_equal(lv2.labels, lv.labels)
        assert lv2.k == 3

    def test_csv_roundtrip_unlabeled(self, tmp_path):
        fm, _ = self._data()
        p = tmp_path / "f.csv"
        save_features(p, fm)
        fm2, lv2 = load_features(p)
        np.testing.assert_array_equal(fm2.data, fm.data)
        assert lv2 is None

    def test_binary_roundtrip(self, tmp_path):
        fm, lv = self._data()  # float32-representable values
        p = tmp_path / "f.bin"
        save_features(p, fm, lv, fmt="binary")
        fm2, lv2 = load_features(p)
        np.testing.assert_array_equal(fm2.data, fm.data)
        np.testing.assert_array_equal(lv2.labels, lv.labels)

    def test_label_count_mismatch(self, tmp_path):
        fm, _ = self._data()
        with pytest.raises(DimensionError):
            save_features(tmp_path / "f.csv", fm, LabelVector(np.array([0]), k=1))

    def test_malformed_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError):
            load_features(p)

    @pytest.mark.parametrize("newline", ["\r\n", "\n"])
    def test_csv_roundtrip_is_bit_exact(self, tmp_path, newline):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-300, 300, size=(50, 6))
        p = tmp_path / "f.csv"
        save_features(p, FeatureMatrix(data), LabelVector(rng.integers(0, 3, 50), k=3))
        p.write_bytes(p.read_bytes().replace(b"\r\n", newline.encode()))
        fm, _ = load_features(p)
        np.testing.assert_array_equal(fm.data, data)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("h0,h1\n1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="row 3 "):
            load_features(p)

    # Quoted numbers and digit separators are rejected: save_features writes
    # neither, and the CSV reader parses fields with numpy, not Python float().
    @pytest.mark.parametrize("text, line", [
        ("h0,h1\n1.0,2.0\n\n3.0,4.0\n", 3),
        ("h0\n1.0\n\n2.0\n", 3),
        ("h0,h1\n1.0,2.0\n3.0,x\n5.0,6.0\n", 3),
        ("h0,h1,label\n1.0,2.0,1\n3.0,4.0,3.0\n", 3),
        ("h0,h1\n1.0,2.0\n\"3.0\",4.0\n", 3),
        ("h0,h1\n1_0,2.0\n", 2),
    ], ids=["blank-line", "blank-line-one-column", "non-numeric", "float-label",
            "quoted-number", "digit-separator"])
    def test_malformed_row_names_its_line(self, tmp_path, text, line):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=f"row {line}[ :]"):
            load_features(p)

    @pytest.mark.parametrize("text", ["h0,h1\n", "label\n3\n"],
                             ids=["header-only", "label-only"])
    def test_file_without_data_or_feature_columns_rejected(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError):
            load_features(p)

    def test_truncated_binary_rejected(self, tmp_path):
        fm, lv = self._data()
        p = tmp_path / "f.bin"
        save_features(p, fm, lv, fmt="binary")
        raw = p.read_bytes()
        # a cut payload, then the magic plus 0 to 12 of the 13 header bytes
        for cut in [raw[:-5]] + [raw[:4 + m] for m in range(13)]:
            (tmp_path / "cut.bin").write_bytes(cut)
            with pytest.raises(DataFormatError):
                load_features(tmp_path / "cut.bin")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(DataFormatError):
            load_features(p)

    def test_unknown_format_rejected(self, tmp_path):
        fm, _ = self._data()
        with pytest.raises(DataFormatError):
            save_features(tmp_path / "f.x", fm, fmt="parquet")


class TestHeadFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        head = SoftmaxHead(w=rng.standard_normal((4, 3)),
                           b=rng.standard_normal(3))
        p = tmp_path / "head.csv"
        save_head(p, head)
        head2 = load_head(p)
        np.testing.assert_array_equal(head2.w, head.w)
        np.testing.assert_array_equal(head2.b, head.b)

    def test_too_short_rejected(self, tmp_path):
        p = tmp_path / "head.csv"
        p.write_text("1.0,2.0\n")
        with pytest.raises(DataFormatError):
            load_head(p)


class TestParameterTables:
    """The one checker behind CLI flags, config files and task parameters."""

    def test_every_default_passes_the_checker(self):
        for verb, (_, _, params) in VERBS.items():
            _typed_params(params, {}, "config key")
        for kind, table in TASKS.items():
            _typed_params(table, {}, "task parameter")
            features, _ = generate(SyntheticTask(kind))
            assert features.n >= 1

    def test_experiment_defaults_match_the_drivers(self):
        for verb, driver in (("counterfactual", run_counterfactual),
                             ("depth-study", run_depth_study)):
            params = VERBS[verb][2]
            signature = inspect.signature(driver).parameters
            assert set(signature) == set(params) - {"out"}
            for name, p in signature.items():
                if p.default is not p.empty:
                    assert params[name][1] == p.default, (verb, name)

    @pytest.mark.parametrize("verb, config, names", [
        ("fit-gmm", EmConfig, None),
        ("train-toy", TrainConfig, None),
        ("train-toy", MlpSpec, ("activation", "k")),
    ])
    def test_verb_defaults_match_the_config_classes(self, verb, config, names):
        params = VERBS[verb][2]
        fields = {f.name: f.default for f in dataclasses.fields(config)}
        for name in names or fields:
            assert params[name][1] == fields[name], (verb, name)

    @pytest.mark.parametrize("kind, value", [
        (int, 2.9), (int, True), (int, "2"), (float, float("nan")), (float, float("inf")),
        (float, -np.inf), ([float], "1.0,nan"), ([[float]], [[0.5, np.inf]]), (bool, 0),
        (("a", "b"), "c"), (dict, "[1]"),
    ])
    def test_misfits_are_config_errors(self, kind, value):
        with pytest.raises(ConfigError, match="thing x: expected"):
            _typed_params({"x": (kind, None)}, {"x": value}, "thing")

    def test_numpy_scalars_count_as_numbers(self):
        typed = _typed_params({"n": (int, 1), "r": (float, 1.0)},
                              {"n": np.int64(4), "r": np.float64(2.5)}, "thing")
        assert typed == {"n": 4, "r": 2.5}
        assert type(typed["n"]) is int and type(typed["r"]) is float

    def test_defaults_null_unknown_keys_and_seeds(self):
        table = {"seed": (int, 0), "seeds": ([int], "1,2"), "path": (str, None)}
        assert _typed_params(table, {}, "thing") == {"seed": 0, "seeds": [1, 2], "path": None}
        assert _typed_params(table, {"path": None}, "thing")["path"] is None
        with pytest.raises(ConfigError, match="unknown things"):
            _typed_params(table, {"sed": 1}, "thing")
        for bad in ({"seed": -1}, {"seeds": [0, -2]}, {"seed": None}):
            with pytest.raises(ConfigError):
                _typed_params(table, bad, "thing")
