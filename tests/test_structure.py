import numpy as np
import pytest

from oodkit.core import FeatureMatrix, LabelVector, SoftmaxHead, softmax
from oodkit.errors import ConfigError, DegenerateWeightError, DimensionError
from oodkit.estimators import score_batch
from oodkit.structure import (
    COUNTERFACTUAL_KINDS,
    OptimalStructureSpec,
    angle_stats,
    audit_head,
    gen_counterfactual_head,
    gen_optimal_head,
    regularized_xent,
    synthesize_cluster_features,
)


class TestOptimalHead:
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 50])
    def test_equiangular_exactness(self, k):
        spec = OptimalStructureSpec(k=k, h=k - 1)
        head = gen_optimal_head(spec, seed=0)
        norms = head.column_norms()
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        unit = head.w / norms
        gram = unit.T @ unit
        iu = np.triu_indices(k, k=1)
        np.testing.assert_allclose(gram[iu], -1.0 / (k - 1), atol=1e-12)
        np.testing.assert_allclose(head.w.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_array_equal(head.b, 0.0)

    def test_c1_scales_norms(self):
        head = gen_optimal_head(OptimalStructureSpec(k=4, h=3, c1=2.5), seed=0)
        np.testing.assert_allclose(head.column_norms(), 2.5, atol=1e-12)

    def test_embedding_in_larger_space(self):
        head = gen_optimal_head(OptimalStructureSpec(k=3, h=7), seed=3)
        assert head.w.shape == (7, 3)
        unit = head.w / head.column_norms()
        gram = unit.T @ unit
        np.testing.assert_allclose(gram[np.triu_indices(3, k=1)], -0.5,
                                   atol=1e-12)

    def test_seed_changes_orientation_not_geometry(self):
        spec = OptimalStructureSpec(k=3, h=2)
        h0 = gen_optimal_head(spec, seed=0)
        h1 = gen_optimal_head(spec, seed=1)
        assert not np.allclose(h0.w, h1.w)
        np.testing.assert_allclose(h0.w.T @ h0.w, h1.w.T @ h1.w, atol=1e-12)

    def test_seed_is_reproducible(self):
        spec = OptimalStructureSpec(k=5, h=6)
        np.testing.assert_array_equal(gen_optimal_head(spec, seed=9).w,
                                      gen_optimal_head(spec, seed=9).w)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            OptimalStructureSpec(k=1, h=2)
        with pytest.raises(ConfigError):
            OptimalStructureSpec(k=5, h=3)
        with pytest.raises(ConfigError):
            OptimalStructureSpec(k=3, h=2, c1=0.0)


class TestCounterfactualHeads:
    def test_sandwich_vectors(self):
        head = gen_counterfactual_head("sandwich", c=1.0)
        np.testing.assert_array_equal(head.w[:, 0], [0.0, 1.0])
        np.testing.assert_array_equal(head.w[:, 1], [-1.0, 0.0])
        np.testing.assert_array_equal(head.w[:, 2], [1.0, 0.0])
        np.testing.assert_array_equal(head.b, 0.0)

    def test_stack_boundaries(self):
        # parallel columns with staggered biases: the 1|2 boundary sits at
        # x = c and the 2|3 boundary at x = 2c
        c = 1.0
        head = gen_counterfactual_head("stack", c=c)
        for x, top in [(0.5, 0), (1.5, 1), (2.5, 2)]:
            p = softmax(head, np.array([x, 0.0]))
            assert int(np.argmax(p)) == top
        l1 = head.w[:, 0] @ np.array([c, 0.0]) + head.b[0]
        l2 = head.w[:, 1] @ np.array([c, 0.0]) + head.b[1]
        assert l1 == pytest.approx(l2)
        l2 = head.w[:, 1] @ np.array([2 * c, 0.0]) + head.b[1]
        l3 = head.w[:, 2] @ np.array([2 * c, 0.0]) + head.b[2]
        assert l2 == pytest.approx(l3)

    def test_lopsided_norms_and_angles(self):
        head = gen_counterfactual_head("lopsided", c=1.0)
        np.testing.assert_allclose(sorted(head.column_norms()), [1.0, 1.0, 4.0])
        unit = head.w / head.column_norms()
        gram = unit.T @ unit
        np.testing.assert_allclose(gram[np.triu_indices(3, k=1)], -0.5,
                                   atol=1e-12)

    def test_embedding_preserves_gram(self):
        flat = gen_counterfactual_head("sandwich", h=2)
        tall = gen_counterfactual_head("sandwich", h=6, seed=4)
        np.testing.assert_allclose(tall.w.T @ tall.w, flat.w.T @ flat.w,
                                   atol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            gen_counterfactual_head("spiral")
        with pytest.raises(ConfigError):
            gen_counterfactual_head("sandwich", k=4)
        with pytest.raises(ConfigError):
            gen_counterfactual_head("sandwich", h=1)
        with pytest.raises(ConfigError):
            gen_counterfactual_head("sandwich", c=-1.0)


class TestAudit:
    def test_optimal_head_audits_clean(self):
        head = gen_optimal_head(OptimalStructureSpec(k=5, h=4, c1=2.0), seed=2)
        rep = audit_head(head)
        assert rep.max_cos_deviation < 1e-10
        assert rep.norm_cv < 1e-12
        assert rep.target_cos == pytest.approx(-0.25)

    def test_sandwich_deviations(self):
        rep = audit_head(gen_counterfactual_head("sandwich"))
        # cosines are (0, 0, -1) against target -1/2
        assert rep.max_cos_deviation == pytest.approx(0.5)
        np.testing.assert_allclose(sorted(rep.pairwise_cos), [-1.0, 0.0, 0.0],
                                   atol=1e-12)

    def test_zero_column_rejected(self):
        head = SoftmaxHead(w=np.array([[1.0, 0.0], [0.0, 0.0]]), b=np.zeros(2))
        with pytest.raises(DegenerateWeightError):
            audit_head(head)

    def test_histogram_covers_cosine_range(self):
        rep = audit_head(gen_counterfactual_head("lopsided"), hist_bins=10)
        assert rep.cos_hist_counts.sum() == 3
        assert rep.cos_hist_edges[0] == -1.0 and rep.cos_hist_edges[-1] == 1.0

    def test_json_round_trips_fields(self):
        import json
        rep = audit_head(gen_counterfactual_head("stack"))
        d = json.loads(rep.to_json())
        assert d["target_cos"] == pytest.approx(-0.5)
        assert len(d["pairwise_cos"]) == 3


class TestAngleStats:
    def test_hand_computed_values(self):
        head = SoftmaxHead(w=np.eye(2), b=np.zeros(2))
        fm = FeatureMatrix(np.array([[3.0, 4.0], [0.0, 0.0]]))
        st = angle_stats(fm, head)
        np.testing.assert_allclose(st.z_norm, [5.0, 0.0])
        assert st.max_cos[0] == pytest.approx(0.8)  # cos against e_1 vs e_2
        assert st.max_cos[1] == 0.0  # zero vector handled explicitly

    def test_dimension_check(self):
        head = SoftmaxHead(w=np.eye(3), b=np.zeros(3))
        with pytest.raises(DimensionError):
            angle_stats(FeatureMatrix(np.ones((2, 2))), head)

    def test_equals_score_columns(self):
        rng = np.random.default_rng(6)
        head = SoftmaxHead(w=rng.standard_normal((64, 10)), b=rng.standard_normal(10))
        x = rng.standard_normal((500, 64)) * rng.uniform(0.1, 10.0, size=(500, 1))
        x[3] = 0.0
        fm = FeatureMatrix(x)
        st, cols = angle_stats(fm, head), score_batch(head, fm)
        np.testing.assert_array_equal(st.z_norm, cols["z_norm"])
        np.testing.assert_array_equal(st.max_cos, cols["max_cos"])


class TestRegularizedXent:
    def test_hand_case(self):
        head = SoftmaxHead(w=np.eye(2), b=np.zeros(2))
        fm = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        lv = LabelVector(np.array([0, 1]), k=2)
        # both samples: p_correct = e / (e + 1)
        expected = -np.log(np.e / (np.e + 1.0))
        assert regularized_xent(fm, lv, head) == pytest.approx(expected)
        # penalty adds lambda1 * (sum w^2 + sum b^2) = lambda1 * 2
        assert regularized_xent(fm, lv, head, lambda1=0.5) == pytest.approx(
            expected + 1.0)

    def test_mismatched_counts(self):
        head = SoftmaxHead(w=np.eye(2), b=np.zeros(2))
        with pytest.raises(DimensionError):
            regularized_xent(FeatureMatrix(np.ones((3, 2))),
                             LabelVector(np.array([0]), k=2), head)


class TestSynthesizedClusters:
    def test_clusters_sit_on_scaled_weights(self):
        head = gen_optimal_head(OptimalStructureSpec(k=3, h=2), seed=0)
        fm, lv = synthesize_cluster_features(head, c3=5.0, n_per_class=200,
                                             noise=0.01, seed=1)
        assert fm.n == 600 and lv.k == 3
        for i in range(3):
            mu = fm.data[lv.labels == i].mean(axis=0)
            np.testing.assert_allclose(mu, 5.0 * head.w[:, i], atol=0.01)

    def test_each_kind_produces_valid_head(self):
        for kind in COUNTERFACTUAL_KINDS:
            head = gen_counterfactual_head(kind)
            assert head.k == 3 and head.h == 2
            audit_head(head)
