import json

import numpy as np
import pytest

from oodkit.core import FeatureMatrix
from oodkit.errors import ConfigError, NumericalError
from oodkit.metrics import (
    AttributionReport,
    attribute,
    auroc,
    pca_project,
)


def _brute_force_auroc(s_in, s_out):
    wins = 0.0
    for o in s_out:
        for i in s_in:
            if o > i:
                wins += 1.0
            elif o == i:
                wins += 0.5
    return wins / (len(s_in) * len(s_out))


class TestAuroc:
    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_in = int(rng.integers(2, 40))
            n_out = int(rng.integers(2, 40))
            s_in = rng.standard_normal(n_in)
            s_out = rng.standard_normal(n_out) + rng.uniform(-1, 2)
            if rng.random() < 0.3:  # inject ties
                s_out[: n_out // 2] = rng.choice(s_in, size=n_out // 2)
            got = auroc(s_in, s_out)
            assert got == pytest.approx(_brute_force_auroc(s_in, s_out),
                                        abs=1e-12)

    def test_perfect_separation(self):
        assert auroc([0.0, 1.0], [5.0, 6.0]) == 1.0
        assert auroc([5.0, 6.0], [0.0, 1.0]) == 0.0

    def test_all_tied_is_half(self):
        assert auroc([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s_in = rng.standard_normal(30)
            s_out = rng.standard_normal(25) + 0.5
            base = auroc(s_in, s_out)
            f = lambda x: np.exp(0.7 * x) + 3.0
            assert auroc(f(s_in), f(s_out)) == pytest.approx(base, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            auroc([], [1.0])

    def test_nan_score_gives_nan(self):
        assert np.isnan(auroc([np.nan, 1.0], [2.0]))
        assert np.isnan(auroc([1.0], [2.0, np.nan]))


class TestAttribution:
    def test_pinned_decomposition(self):
        rep = attribute(0.920, 0.963, 0.963, 0.995)
        assert rep.cause1 == pytest.approx(0.0, abs=1e-12)
        assert rep.cause2 == pytest.approx(0.032, abs=1e-12)
        assert rep.cause3 == pytest.approx(0.005, abs=1e-12)
        assert not rep.has_negative_cause

    def test_causes_sum_to_one_minus_entropy_auroc(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            vals = np.sort(rng.uniform(0.5, 1.0, size=4))
            rep = attribute(vals[0], vals[1], vals[2], vals[3])
            total = (rep.cause1 + rep.cause2
                     + rep.cause3)
            assert total == pytest.approx(1.0 - vals[1], abs=1e-12)

    def test_negative_cause_flagged(self):
        rep = attribute(0.9, 0.95, 0.90, 0.99)  # cooling hurt
        assert rep.cause1 < 0
        assert rep.has_negative_cause

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            attribute(1.2, 0.9, 0.9, 0.9)
        with pytest.raises(ConfigError):
            AttributionReport(auroc_max=0.9, auroc_entropy=-0.1,
                              auroc_cool=0.9, auroc_density=0.9)

    def test_serialization(self):
        rep = attribute(0.8, 0.85, 0.9, 0.95)
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["cause1_saturation"] == pytest.approx(0.05)
        assert d["negative_cause_flag"] is False


class TestPcaProject:
    def test_recovers_planted_factors(self):
        rng = np.random.default_rng(5)
        n = 2000
        t = rng.standard_normal((n, 2)) * np.array([5.0, 2.0])
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        x = t @ basis.T + 0.01 * rng.standard_normal((n, 6))
        proj, comps, ratios = pca_project(FeatureMatrix(x), dims=2)
        assert proj.shape == (n, 2) and comps.shape == (2, 6)
        assert ratios[0] > ratios[1] > 0.0
        assert ratios.sum() > 0.99
        # leading component spans the planted high-variance direction
        assert abs(comps[0] @ basis[:, 0]) > 0.999

    def test_projection_is_centered(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((500, 4)) + 10.0
        proj, _, _ = pca_project(FeatureMatrix(x), dims=2)
        np.testing.assert_allclose(proj.mean(axis=0), 0.0, atol=1e-10)

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((300, 5))
        p1, c1, _ = pca_project(FeatureMatrix(x), dims=3)
        p2, c2, _ = pca_project(FeatureMatrix(x), dims=3)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(c1, c2)
        for row in c1:
            assert row[np.argmax(np.abs(row))] > 0

    def test_rank_deficient_rejected(self):
        x = np.outer(np.arange(50.0), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(NumericalError):
            pca_project(FeatureMatrix(x), dims=2)
