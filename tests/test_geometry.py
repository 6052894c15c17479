import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chi2, norm

from oodkit import geometry
from oodkit.core import (FeatureMatrix, LabelVector, SoftmaxHead, _logits_rows,
                         softmax_from_logits)
from oodkit.errors import ConfigError, NumericalError
from oodkit.estimators import score_batch, u_max
from oodkit.geometry import (
    DensityRegion,
    LinearApproxRegion,
    SlabRegion,
    density_region,
    empirical_threshold,
    fit_linear_region,
    mc_region_mass,
    region_mass,
    solve_alpha_exact_k2,
)
from oodkit.gmm import GaussianMixture, _moment_match
from oodkit.structure import OptimalStructureSpec, gen_counterfactual_head, gen_optimal_head


class TestEmpiricalThreshold:
    def test_pinned_example(self):
        # 100 scores 1..100, epsilon 0.05: rank ceil(95) = 95 -> score 95
        scores = np.arange(1.0, 101.0)
        assert empirical_threshold(scores, 0.05) == 95.0

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(500)
        t = empirical_threshold(scores, 0.1)
        assert empirical_threshold(rng.permutation(scores), 0.1) == t

    def test_tiny_epsilon_takes_max(self):
        assert empirical_threshold([3.0, 1.0, 2.0], 1e-9) == 3.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            empirical_threshold([], 0.1)
        with pytest.raises(ConfigError):
            empirical_threshold([1.0], 0.0)
        with pytest.raises(ConfigError):
            empirical_threshold([1.0], 1.0)


class TestSlabRegion:
    def test_hand_membership(self):
        # normal (2,0), anchor origin, offsets 0.5 each:
        # membership is -2 < 2 x < 2, i.e. |x| < 1
        slab = SlabRegion(normal=np.array([2.0, 0.0]), anchor=np.zeros(2),
                          alpha_lo=0.5, alpha_hi=0.5)
        pts = np.array([[0.0, 9.0], [0.99, -3.0], [1.01, 0.0], [-1.2, 0.0]])
        np.testing.assert_array_equal(slab.contains(pts),
                                      [True, True, False, False])

    def test_validation(self):
        with pytest.raises(ConfigError):
            SlabRegion(normal=np.zeros(2), anchor=np.zeros(2),
                       alpha_lo=0.1, alpha_hi=0.1)
        with pytest.raises(ConfigError):
            SlabRegion(normal=np.ones(2), anchor=np.zeros(2),
                       alpha_lo=-0.1, alpha_hi=0.1)
        # a NaN offset, a NaN normal, an anchor of another length
        for normal, anchor, alpha_lo in [(np.ones(2), np.zeros(2), np.nan),
                                         (np.array([1.0, np.nan]), np.zeros(2), 0.1),
                                         (np.ones(2), np.zeros(3), 0.1)]:
            with pytest.raises(ConfigError):
                SlabRegion(normal=normal, anchor=anchor, alpha_lo=alpha_lo, alpha_hi=0.1)


def _k2_setup(sep=4.0, sigma=0.8, bias=0.0):
    w1 = np.array([1.5, 0.5])
    head = SoftmaxHead(w=np.stack([w1, -w1], axis=1),
                       b=np.array([bias, -bias]))
    wh = w1 / np.linalg.norm(w1)
    model = GaussianMixture([0.5, 0.5], [sep * wh, -sep * wh],
                            [sigma ** 2 * np.eye(2)] * 2)
    return head, model, w1


class TestExactTwoClassSlab:
    def test_alpha_matches_independent_root_find(self):
        head, model, w1 = _k2_setup()
        eps = 0.05
        region = solve_alpha_exact_k2(model, head, eps)
        nsq = float(w1 @ w1)

        # independent oracle: scipy norm cdf + brentq on the mass equation
        def outside(alpha):
            total = 0.0
            for mean, cov, pr in zip(model.means, model.covariances, model.weights):
                mu = float(w1 @ mean)
                sd = float(np.sqrt(w1 @ cov @ w1))
                total += pr * (norm.cdf((-alpha * nsq - mu) / sd)
                               + norm.sf((alpha * nsq - mu) / sd))
            return total - (1.0 - eps)

        alpha_ref = brentq(outside, 1e-12, 50.0, xtol=1e-12)
        assert region.alpha_hi == pytest.approx(alpha_ref, rel=1e-8)
        assert region.alpha_lo == pytest.approx(alpha_ref, rel=1e-8)

    def test_mass_outside_slab_is_one_minus_epsilon(self):
        head, model, _ = _k2_setup()
        eps = 0.07
        region = solve_alpha_exact_k2(model, head, eps)
        inside = mc_region_mass(region.contains, model, n=400_000, seed=3)
        # mass inside the slab is epsilon by construction
        assert inside == pytest.approx(eps, abs=0.003)

    def test_bias_shifts_boundary(self):
        head, model, w1 = _k2_setup(bias=1.0)
        region = solve_alpha_exact_k2(model, head, 0.05)
        # boundary: w1.z = (b2 - b1)/2 = -1
        assert float(w1 @ region.anchor) == pytest.approx(-1.0, abs=1e-9)

    def test_requires_antipodal_weights(self):
        head, model, _ = _k2_setup()
        bad = SoftmaxHead(w=np.stack([head.w[:, 0], 0.5 * head.w[:, 1]], axis=1),
                          b=np.zeros(2))
        with pytest.raises(ConfigError):
            solve_alpha_exact_k2(model, bad, 0.05)

    def test_requires_two_classes(self):
        head = gen_optimal_head(OptimalStructureSpec(k=3, h=2))
        model = GaussianMixture(np.full(3, 1 / 3), np.zeros((3, 2)), [np.eye(2)] * 3)
        with pytest.raises(ConfigError):
            solve_alpha_exact_k2(model, head, 0.05)

    def test_overlapping_classes_warn(self):
        head, model, _ = _k2_setup(sep=1.0, sigma=1.0)
        with pytest.warns(UserWarning):
            solve_alpha_exact_k2(model, head, 0.05)


class TestLinearRegion:
    def _fitted(self, eps=0.05, seed=5, k=3):
        head = gen_optimal_head(OptimalStructureSpec(k=k, h=2, c1=1.5), seed=1)
        rng = np.random.default_rng(seed)
        z = np.concatenate([4.0 * head.w[:, i].T / np.linalg.norm(head.w[:, i])
                            + 0.6 * rng.standard_normal((300, 2))
                            for i in range(k)])
        return head, FeatureMatrix(z), fit_linear_region(head, FeatureMatrix(z), eps)

    def test_k2_width_matches_closed_form(self):
        head, model, w1 = _k2_setup()
        rng = np.random.default_rng(7)
        z = model.sample(2000, rng)
        region = fit_linear_region(head, FeatureMatrix(z), 0.05)
        slab = region.slabs[(0, 1)]
        p_star = -region.u_star
        n = 2.0 * w1  # w_1 - w_2
        nsq = float(n @ n)
        expected = np.log(p_star / (1.0 - p_star)) / nsq
        assert slab.alpha_hi == pytest.approx(expected, rel=1e-9)
        assert slab.alpha_lo == pytest.approx(expected, rel=1e-9)

    def test_threshold_is_empirical_quantile(self):
        # The planar 3-class fit, then random H=64, K=10 heads: u_star is
        # exactly the quantile of the u_max that score_batch and the
        # single-sample u_max report.
        fits = [self._fitted()]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            head = SoftmaxHead(w=rng.standard_normal((64, 10)), b=rng.standard_normal(10))
            fm = FeatureMatrix(rng.standard_normal((2000, 64)))
            fits.append((head, fm, fit_linear_region(head, fm, 0.05)))
        for head, fm, region in fits:
            batch = score_batch(head, fm)["u_max"]
            single = np.array([u_max(head, z).value for z in fm.data])
            assert region.u_star == empirical_threshold(batch, 0.05)
            assert region.u_star == empirical_threshold(single, 0.05)

    def test_members_exceed_threshold(self):
        head, fm, region = self._fitted()
        rng = np.random.default_rng(11)
        pts = rng.uniform(-8, 8, size=(4000, 2))
        member = region.contains(pts)
        vals = np.array([u_max(head, p).value for p in pts])
        assert member.any()
        assert np.all(vals[member] > region.u_star)

    def test_nesting_in_epsilon(self):
        head, fm, tight = self._fitted(eps=0.01)
        loose = fit_linear_region(head, fm, 0.10)
        rng = np.random.default_rng(13)
        pts = rng.uniform(-10, 10, size=(10_000, 2))
        in_tight = tight.contains(pts)
        in_loose = loose.contains(pts)
        assert not np.any(in_tight & ~in_loose)

    @pytest.mark.parametrize("tau", [np.nan, -1.0, np.inf])
    def test_tau_must_be_finite_and_nonnegative(self, tau):
        head = gen_optimal_head(OptimalStructureSpec(k=3, h=2))
        with pytest.raises(ConfigError):
            LinearApproxRegion(head=head, tau=tau, u_star=-0.9, epsilon=0.05)

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.3])
    @pytest.mark.parametrize("case", ["eq3", "eq5", "eq10", "sandwich", "stack", "lopsided",
                                      "random", "random-1e3"])
    def test_members_exceed_t_star_exactly(self, case, eps):
        # A member has l_(1) - l_(2) < tau = -t_star, and its log-odds t is
        # at least l_(2) - l_(1), rounded the same way, so t > t_star holds
        # with no tolerance. t_star >= 0 (sandwich and stack at 0.05) warns
        # and leaves the region empty.
        shapes = {"eq3": (2, 3, True, 1.0), "eq5": (8, 5, True, 1.0),
                  "eq10": (64, 10, True, 1.0), "random": (16, 6, False, 1.0),
                  "random-1e3": (16, 6, False, 1e3)}
        if case in shapes:
            h, k, equiangular, scale = shapes[case]
            fitted, x, labels = _span_case(h, k, equiangular, scale=scale)
            head = fitted.head
        else:
            head = gen_counterfactual_head(case)
            x, labels = _gaussian_features(head, 0, 2000)
        t_star = empirical_threshold(
            geometry._log_odds(_logits_rows(head, x.data) + head.b), eps)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            region = fit_linear_region(head, x, eps)
        assert len(caught) == (t_star >= 0.0)
        assert region.tau == max(0.0, -t_star)
        members = 0
        rng = np.random.default_rng(1)
        for z in _class_gaussians(x.data, labels).sample_chunks(200_000, rng):
            inside = region.contains(z)
            t = geometry._log_odds(_logits_rows(head, z) + head.b)
            assert np.all(t[inside] > t_star)
            members += int(inside.sum())
        assert (members > 0) == (t_star < 0.0)

    def test_degenerate_pair_rejected(self):
        w = np.array([[1.0, 1.0], [0.0, 0.0]])
        head = SoftmaxHead(w=w, b=np.zeros(2))
        with pytest.raises(ConfigError):
            fit_linear_region(head, FeatureMatrix(np.zeros((5, 2)) + 0.1), 0.05)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_saturated_head_mass_is_epsilon(self, seed):
        # u_max rounds to -1 on the training rows, so {u_max > u_star} is
        # empty; the log-odds quantile t_star does not saturate.
        region, x, labels = _span_case(64, 10, False, seed=seed)
        assert region.u_star == -1.0
        assert region_mass(region, x, labels, n=100_000, seed=1) == pytest.approx(0.05, abs=0.02)

    @pytest.mark.parametrize("eps", [0.2, 0.3])
    @pytest.mark.parametrize("kind", ["sandwich", "stack", "lopsided"])
    def test_members_exceed_threshold_on_any_head(self, kind, eps):
        # The slabs masked by the argmax cells are the margin set
        # {l_(1) - l_(2) < -t_star}, inside {u_max > u_star}, also for the
        # collinear pairs: sandwich's (1, 2) and all of stack's.
        region, x, labels = _counterfactual_case(kind, eps)
        z = _class_gaussians(x.data, labels).sample(200_000, np.random.default_rng(1))
        member = region.contains(z)
        assert member.sum() > 10_000
        assert np.all(_u_max_rows(region.head, z[member]) > region.u_star)

    # u_star is -0.368, -0.367 and -0.439
    @pytest.mark.parametrize("kind, seed, n", [("optimal", 0, 4000), ("optimal", 1, 4000),
                                               ("stack", 0, 2000)])
    def test_bounded_region_warns_and_is_empty(self, kind, seed, n):
        # u_star >= -1/2 has no far-field contour, so every slab is empty
        head = (gen_optimal_head(OptimalStructureSpec(k=5, h=8, c1=1.0), seed=seed)
                if kind == "optimal" else gen_counterfactual_head(kind))
        x, _ = _gaussian_features(head, seed, n)
        with pytest.warns(UserWarning, match="far-field approximation does not apply"):
            region = fit_linear_region(head, x, 0.05)
        assert region.u_star >= -0.5
        assert all(s.alpha_lo == s.alpha_hi == 0.0 for s in region.slabs.values())
        assert not region.contains(x.data).any()

    def test_overflowing_logits_raise(self):
        head = SoftmaxHead(w=100.0 * np.eye(2), b=np.zeros(2))
        x = FeatureMatrix(np.array([[1e307, 0.0], [0.0, 1e307], [1.0, 2.0]]))
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="not finite"):
            fit_linear_region(head, x, 0.05)


def _u_max_rows(head, z):
    """u_max of N x H rows, computed as score_batch computes it."""
    return -softmax_from_logits(_logits_rows(head, z) + head.b).max(axis=1)


class TestLogOdds:
    def test_split_invariant(self):
        ell = 5.0 * np.random.default_rng(0).standard_normal((1000, 10))
        whole = geometry._log_odds(ell)
        pieces = [geometry._log_odds(ell[a:b]) for a, b in ((0, 1), (1, 8), (8, 777), (777, 1000))]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
        # u_max = -1 / (1 + e^t)
        np.testing.assert_allclose(-1.0 / (1.0 + np.exp(whole)),
                                   -softmax_from_logits(ell).max(axis=1), rtol=1e-14)

    def test_finite_where_full_logsumexp_rounds_to_max(self):
        ell = np.array([[0.0, -40.0, -50.0], [-45.0, 0.0, -45.0]])
        full = np.log(np.exp(ell).sum(axis=1)) - ell.max(axis=1)
        assert np.all(full == 0.0)
        np.testing.assert_allclose(geometry._log_odds(ell),
                                   [np.logaddexp(-40.0, -50.0), -45.0 + np.log(2.0)],
                                   rtol=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_m_way_tie(self, m):
        ell = np.array([[-1e3] * (5 - m) + [2.5] * m])
        assert geometry._log_odds(ell).tolist() == [np.log(m - 1.0)]


def _scalar_crossing(f, level, tol):
    """The doubling and bisection that _first_crossing runs."""
    hi = 1.0
    while f(hi) > level:
        assert hi < 2.0 ** 60
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f(mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gaussian_features(head, seed, n):
    """Labelled features of one unit Gaussian per class around 2 w_c."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, head.k, n)
    x = FeatureMatrix(2.0 * head.w[:, y].T + rng.standard_normal((n, head.h)))
    return x, LabelVector(y, head.k)


def _counterfactual_case(kind, epsilon, seed=0, n=2000):
    """A linear region fitted at ``epsilon`` on a counterfactual head, and
    its ``_gaussian_features``."""
    head = gen_counterfactual_head(kind)
    x, labels = _gaussian_features(head, seed, n)
    return fit_linear_region(head, x, epsilon), x, labels


class TestLockstepOffsets:
    """The closed-form offsets against a far-field bisection: per pair and
    side, the first crossing of u_max = u_star from a base point 1e3 max ||w||
    out along the pair's boundary."""

    FAR = 1e3

    def _bisected_offsets(self, region):
        head = region.head
        far = self.FAR * float(head.column_norms().max())
        offsets = {}
        for i, j in region.slabs:
            n = head.w[:, i] - head.w[:, j]
            nsq = float(n @ n)
            z0 = -float(head.b[i] - head.b[j]) / nsq * n
            e = head.w[:, i] + head.w[:, j]
            e = e - (e @ n) / nsq * n
            base = z0 + far * (e / np.linalg.norm(e))
            offsets[(i, j)] = tuple(_scalar_crossing(
                lambda t: float(_u_max_rows(head, (base + side * t * n)[None, :])[0]),
                region.u_star, 1e-12) for side in (-1.0, 1.0))
        return offsets

    # equiangular K = 3, 5, 10 with biases, and lopsided. Their bases lie on
    # their pairs' faces; a collinear pair (sandwich, stack) has no far field
    # and a saturated head no crossing of u_star = -1.0, so they differ there
    # by design.
    @pytest.mark.parametrize("case", ["eq3", "eq5", "eq10", "lopsided"])
    def test_offsets_match_scalar_bisection(self, case):
        shapes = {"eq3": (2, 3, True), "eq5": (8, 5, True), "eq10": (64, 10, True)}
        region = (_span_case(*shapes[case])[0] if case in shapes
                  else _counterfactual_case(case, 0.05)[0])
        offsets = self._bisected_offsets(region)
        assert region.slabs.keys() == offsets.keys()
        for pair, slab in region.slabs.items():
            assert type(slab.alpha_lo) is float and type(slab.alpha_hi) is float
            np.testing.assert_allclose((slab.alpha_lo, slab.alpha_hi), offsets[pair],
                                       rtol=1e-10, err_msg=str(pair))


class TestFirstCrossing:
    def test_matches_scalar_reference(self):
        # crossings of c / t at level 1 are t = c: 0, 0, 3, 20 and 52 doublings
        for c in (0.3, 1.0, 5.0, 1e6, 3e15):
            t = geometry._first_crossing(lambda t: c / t, 1.0, 1e-12)
            assert type(t) is float and t == _scalar_crossing(lambda t: c / t, 1.0, 1e-12)
            np.testing.assert_allclose(t, c, rtol=1e-11)

    def test_never_crossing_raises(self):
        points = []

        def f(t):
            points.append(t)
            return 2.0

        with pytest.raises(NumericalError, match="60 bracket doublings"):
            geometry._first_crossing(f, 1.0, 1e-12)
        assert points == [2.0 ** i for i in range(61)]

    def test_scalar_solves_return_floats(self):
        head, model, w1 = _k2_setup()
        slab = solve_alpha_exact_k2(model, head, 0.05)
        nsq = float(w1 @ w1)
        alpha = _scalar_crossing(lambda a: geometry._gaussian_mass_outside_slab(
            model, w1, -a * nsq, a * nsq), 0.95, 1e-10)
        assert type(slab.alpha_lo) is type(slab.alpha_hi) is float
        assert slab.alpha_lo == slab.alpha_hi == alpha
        gmm = GaussianMixture([0.5, 0.5], np.zeros((2, 5)), [np.eye(5)] * 2)
        thresholds = density_region(gmm, 0.05).to_dict()["thresholds"]
        c = _scalar_crossing(lambda x: geometry._chi2_sf(x, 5), 0.05, np.finfo(float).eps)
        assert [type(t) for t in thresholds] == [float, float] and thresholds == [c, c]


def _contains_per_slab(region, z):
    """The per-slab membership that LinearApproxRegion.contains replaced:
    one z @ n per slab, masked by the pair's argmax cells."""
    z = np.atleast_2d(z)
    argmax = np.argmax(z @ region.head.w + region.head.b, axis=1)
    inside = np.zeros(z.shape[0], dtype=bool)
    for (i, j), slab in region.slabs.items():
        inside |= ((argmax == i) | (argmax == j)) & slab.contains(z)
    return inside


def _near_a_face(region, z):
    """Rows within the rounding bound of a dot product, 2 H eps sum|z_k n_k|,
    of a face of a slab whose pair holds their argmax class."""
    w = region.head.w
    argmax = np.argmax(z @ w + region.head.b, axis=1)
    near = np.zeros(z.shape[0], dtype=bool)
    for (i, j), slab in region.slabs.items():
        nsq = float(slab.normal @ slab.normal)
        c = float(slab.normal @ slab.anchor)
        g = z @ slab.normal - c
        dist = np.minimum(np.abs(g + slab.alpha_lo * nsq), np.abs(g - slab.alpha_hi * nsq))
        scale = (np.abs(z) @ (np.abs(w[:, i]) + np.abs(w[:, j])) + abs(c)
                 + max(slab.alpha_lo, slab.alpha_hi) * nsq)
        bound = 2 * z.shape[1] * np.finfo(float).eps * scale
        near |= ((argmax == i) | (argmax == j)) & (dist <= bound)
    return near


def _face_points(region, scales):
    """Points on each slab face and at relative steps from ulps to 1e-3
    either side, at several distances along the pair's boundary."""
    w = region.head.w
    eps = np.finfo(float).eps
    steps = [0.0] + [s * r for r in (4 * eps, 1e-13, 1e-9, 1e-6, 1e-3) for s in (-1, 1)]
    pts = []
    for (i, j), slab in region.slabs.items():
        n = slab.normal
        e = w[:, i] + w[:, j]
        e = e - (e @ n) / (n @ n) * n
        e /= np.linalg.norm(e)
        for s in scales:
            base = slab.anchor + s * e
            for t in (slab.alpha_hi, -slab.alpha_lo):
                pts.extend(base + t * (1.0 + step) * n for step in steps)
    return np.array(pts)


class TestLinearMembership:
    """contains equals the per-slab formula except within rounding of a face."""

    def _h64_k10(self):
        # Classes 1 and 2 share row 0 of W and their bias, so z = t e_0 ties
        # their logits exactly; the other biases differ, so the slabs are
        # not centred on n.z = 0 and reversed pairs differ from forward ones.
        rng = np.random.default_rng(0)
        w = rng.standard_normal((64, 10))
        w[0, 1] = w[0, 2] = np.abs(w[0]).max() + 1.0
        b = rng.standard_normal(10)
        b[2] = b[1]
        head = SoftmaxHead(w=w, b=b)
        y = rng.integers(0, 10, 2000)
        region = fit_linear_region(
            head, FeatureMatrix(0.5 * w[:, y].T + rng.standard_normal((2000, 64))), 0.05)
        y = rng.integers(0, 10, 50_000)
        gauss = 0.5 * w[:, y].T + 2.0 * rng.standard_normal((50_000, 64))
        ties = np.outer([10.0, 30.0, 100.0], np.eye(64)[0])
        return region, gauss, ties

    def _h2_k3(self):
        # b_0 = b_1 ties classes 0 and 1 at the origin.
        w = gen_optimal_head(OptimalStructureSpec(k=3, h=2, c1=1.5), seed=1).w
        head = SoftmaxHead(w=w, b=np.array([0.5, 0.5, -1.0]))
        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, 900)
        centres = 4.0 * (w / np.linalg.norm(w, axis=0)).T
        region = fit_linear_region(
            head, FeatureMatrix(centres[y] + 0.6 * rng.standard_normal((900, 2))), 0.05)
        y = rng.integers(0, 3, 50_000)
        gauss = centres[y] + 2.0 * rng.standard_normal((50_000, 2))
        return region, gauss, np.zeros((1, 2))

    @pytest.mark.parametrize("case", ["h64_k10", "h2_k3"])
    def test_matches_per_slab_formula(self, case):
        region, gauss, ties = getattr(self, "_" + case)()
        far = 1e3 * float(region.head.column_norms().max())
        faces = _face_points(region, (0.01 * far, far))
        nan_rows = np.full((2, region.head.h), 1.0)
        nan_rows[0] = np.nan
        nan_rows[1, -1] = np.nan
        for z in (gauss, faces, ties, nan_rows):
            got, want = region.contains(z), _contains_per_slab(region, z)
            assert not np.any((got != want) & ~_near_a_face(region, z))
        # the sets exercise both outcomes, the ties and the NaN rows
        assert 0 < _contains_per_slab(region, gauss).sum() < gauss.shape[0]
        assert 0 < _contains_per_slab(region, faces).sum() < faces.shape[0]
        ell = ties @ region.head.w + region.head.b
        top = np.sort(ell, axis=1)
        assert np.all(top[:, -1] == top[:, -2])
        assert region.contains(ties).all()
        assert not region.contains(nan_rows).any()

    def test_contains_is_split_invariant(self):
        # The face points lie within rounding of a face, where other bits of
        # z.W would flip the answer. Each alone, then pieces of 2, 777 and
        # 2048 rows and single rows in between.
        region, gauss, ties = self._h64_k10()
        far = 1e3 * float(region.head.column_norms().max())
        faces = _face_points(region, (0.01 * far, far))
        z = np.concatenate([faces, ties, gauss])
        cuts = list(range(len(faces) + 1))
        sizes = [2, 777, 2048, 1]
        while cuts[-1] < len(z):
            cuts.append(min(len(z), cuts[-1] + sizes[len(cuts) % len(sizes)]))
        pieces = [region.contains(z[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert {1, 2, 777, 2048} <= {b - a for a, b in zip(cuts, cuts[1:])}
        np.testing.assert_array_equal(np.concatenate(pieces), region.contains(z))


class TestDensityRegion:
    def test_single_component_mass_is_epsilon(self):
        gmm = GaussianMixture([1.0], [[1.0, -2.0]],
                              [np.array([[2.0, 0.3], [0.3, 1.0]])])
        eps = 0.05
        region = density_region(gmm, eps)
        mass = mc_region_mass(region.contains, gmm, n=400_000, seed=17)
        assert mass == pytest.approx(eps, abs=0.003)

    @pytest.mark.parametrize("h", [1, 3, 64, 256, 1024])
    @pytest.mark.parametrize("eps", [1e-6, 0.05, 0.99])
    def test_threshold_is_chi2_quantile(self, h, eps):
        gmm = GaussianMixture([0.5, 0.5], np.zeros((2, h)), [np.eye(h), np.eye(h)])
        region = density_region(gmm, eps)
        np.testing.assert_allclose(region.threshold, chi2.isf(eps, df=h), rtol=1e-12)

    def test_far_points_are_members(self):
        gmm = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
        region = density_region(gmm, 0.05)
        assert region.contains(np.array([[50.0, 50.0]]))[0]
        assert not region.contains(np.array([[0.1, 0.0]]))[0]
        # in log space, a point with an entry <= 0 has density 0
        log_region = density_region(GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)],
                                                    log_transform=True), 0.05)
        np.testing.assert_array_equal(
            log_region.contains(np.array([[-1.0, 1.0], [0.0, 1.0], [1.0, 1.0], [1e30, 1.0]])),
            [True, True, False, True])

    def test_threshold_validation(self):
        gmm = GaussianMixture([1.0], [[0.0]], [np.eye(1)])
        for c in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                DensityRegion(gmm=gmm, threshold=c, epsilon=0.1)
        with pytest.raises(ConfigError):
            density_region(gmm, 1.2)


@pytest.fixture(scope="module")
def region_and_mixture():
    """A fitted H=64, K=10 linear region, and a mixture of one Gaussian per
    class that puts about a tenth of its mass inside it."""
    rng = np.random.default_rng(4)
    w = rng.standard_normal((64, 10))
    head = SoftmaxHead(w=w, b=rng.standard_normal(10))
    y = rng.integers(0, 10, 2000)
    region = fit_linear_region(
        head, FeatureMatrix(0.5 * w[:, y].T + rng.standard_normal((2000, 64))), 0.05)
    a = rng.standard_normal((10, 64, 64)) / 8.0
    mixture = GaussianMixture(np.full(10, 0.1), 0.5 * w.T,
                              a @ a.transpose(0, 2, 1) + np.eye(64))
    return region, mixture


class TestMonteCarloMass:
    # The count is that of the sample_chunks pieces of each batch in turn,
    # drawn from one generator. n=5 gives components of exactly one draw,
    # hence 1-row pieces; a batch of 7000 leaves a short last batch. The
    # batch is a module constant, patched here to keep the draws small.
    @pytest.mark.parametrize("n, batch", [(5, 5), (20_000, 20_000), (20_000, 7_000)])
    def test_counts_what_sample_draws(self, region_and_mixture, monkeypatch, n, batch):
        region, mixture = region_and_mixture
        rng = np.random.default_rng(29)
        if n == 5:
            assert 1 in rng.multinomial(5, mixture.weights)
            rng = np.random.default_rng(29)
        hits = sum(int(np.count_nonzero(region.contains(piece)))
                   for done in range(0, n, batch)
                   for piece in mixture.sample_chunks(min(batch, n - done), rng))
        assert n < 20_000 or 0 < hits < n
        monkeypatch.setattr(geometry, "MC_BATCH", batch)
        assert mc_region_mass(region.contains, mixture, n=n, seed=29) == hits / n

    def test_scratch_memory_does_not_grow_with_batch(self, region_and_mixture, monkeypatch):
        # Drawing whole batches held two batch x H buffers: 98 MiB here.
        region, mixture = region_and_mixture
        peaks = {}
        for batch in (10_000, 100_000):
            monkeypatch.setattr(geometry, "MC_BATCH", batch)
            tracemalloc.start()
            try:
                mc_region_mass(region.contains, mixture, n=200_000, seed=31)
                peaks[batch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        mib = 1 << 20
        assert peaks[100_000] < 8 * mib
        assert abs(peaks[100_000] - peaks[10_000]) < 2 * mib

    def test_half_space_oracle(self):
        model = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
        mass = mc_region_mass(lambda z: z[:, 0] > 0.0, model, n=500_000, seed=19)
        assert mass == pytest.approx(0.5, abs=0.002)

    def test_deterministic_for_a_seed(self):
        model = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
        a = mc_region_mass(lambda z: z[:, 0] > 0.3, model, n=150_000, seed=23)
        b = mc_region_mass(lambda z: z[:, 0] > 0.3, model, n=150_000, seed=23)
        assert a == b

    def test_rejects_bad_n(self):
        model = GaussianMixture([1.0], [[0.0]], [np.eye(1)])
        with pytest.raises(ConfigError):
            mc_region_mass(lambda z: z[:, 0] > 0, model, n=0, seed=0)


def _span_case(h, k, equiangular, seed=0, n=2000, scale=1.0):
    """A fitted linear region with random biases, and labelled features of
    one unit Gaussian per class around 2 w_c, multiplied by ``scale``."""
    rng = np.random.default_rng(seed)
    w = (gen_optimal_head(OptimalStructureSpec(k=k, h=h, c1=2.0), seed=seed).w
         if equiangular else rng.standard_normal((h, k)))
    head = SoftmaxHead(w=w, b=0.5 * rng.standard_normal(k))
    y = rng.integers(0, k, n)
    x = FeatureMatrix(scale * (2.0 * w[:, y].T + rng.standard_normal((n, h))))
    return fit_linear_region(head, x, 0.05), x, LabelVector(y, k)


def _class_gaussians(x, labels, reg=1e-9):
    """One Gaussian per class, moment-matched to its rows as region_mass does."""
    return GaussianMixture(*_moment_match(x, labels.labels, labels.k, reg))


def _within_se(region, x, labels, n, seed):
    """The logit-space mass agrees with the H-wide count on the same classes
    within 4 combined binomial standard errors."""
    full = mc_region_mass(region.contains, _class_gaussians(x.data, labels), n=n, seed=seed)
    logit = region_mass(region, x, labels, n=n, seed=seed)
    se = np.sqrt((full * (1 - full) + logit * (1 - logit)) / n)
    assert 0 < full < 1 and abs(full - logit) <= 4 * se, (full, logit, se)


class TestSpanCount:
    """The linear region's mass counted on K-wide draws of the logits, whose
    law is that of the logits of the H-wide class Gaussians."""

    # (H, K, equiangular): zero-sum columns give logits of rank K - 1,
    # random ones rank K
    CASES = [(64, 10, True), (64, 10, False), (8, 5, False), (2, 3, True)]

    @pytest.mark.parametrize("h, k, equiangular", CASES)
    def test_mass_matches_full_width(self, h, k, equiangular):
        _within_se(*_span_case(h, k, equiangular), n=200_000, seed=1)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["sandwich", "stack", "lopsided"])
    def test_counterfactual_mass_matches_full_width(self, kind, seed):
        # at epsilon = 0.05 sandwich and stack have u_star > -1/2, hence
        # empty regions
        _within_se(*_counterfactual_case(kind, 0.3, seed=seed), n=200_000, seed=1)


class TestRegionMass:
    """The region's mass under the per-class Gaussians of labelled features."""

    def test_linear_region_counts_in_span(self):
        # the classes of the training logits, with the ridge scaled to them
        region, x, labels = _span_case(64, 10, True)
        zw = _logits_rows(region.head, x.data)
        model = _class_gaussians(zw, labels, 1e-9 * max(1.0, zw.var(axis=0).max()))
        assert model.h == 10
        assert (region_mass(region, x, labels, n=20_000, seed=5)
                == mc_region_mass(region._member, model, n=20_000, seed=5))

    # The logit covariance is rank-deficient (K - 1 = 3 of 4; H = 2, 3 of
    # K = 5, 10), and a fixed 1e-9 ridge is lost in its rounding at these
    # scales; the logit-scaled ridge keeps every class positive definite.
    @pytest.mark.parametrize("scale", [1e4, 1e8])
    @pytest.mark.parametrize("h, k, equiangular", [(16, 4, True), (2, 5, False),
                                                   (3, 10, False)])
    def test_linear_mass_survives_feature_scale(self, h, k, equiangular, scale):
        region, x, labels = _span_case(h, k, equiangular, scale=scale)
        assert 0.0 <= region_mass(region, x, labels, n=20_000, seed=5) <= 1.0

    def test_density_region_counts_at_full_width(self):
        _, x, labels = _span_case(8, 3, True)
        model = _class_gaussians(x.data, labels)
        region = density_region(model, 0.05)
        mass = region_mass(region, x, labels, n=20_000, seed=5)
        assert mass == mc_region_mass(region.contains, model, n=20_000, seed=5)
        assert mass == pytest.approx(0.05, abs=0.01)

    # class 1 has one row; class 1 has none; labels up to 2**63 - 1 give
    # k = 2**63 classes, where counting every class cannot allocate
    @pytest.mark.parametrize("y, first", [
        ([0, 0, 1, 2, 2], 1),
        ([0, 0, 2, 2], 1),
        ([0, 0, 1, 1, 2 ** 63 - 1], 2),
    ], ids=["one-row", "missing", "huge-label"])
    def test_rejects_a_class_with_fewer_than_two_rows(self, y, first):
        region, _, _ = _span_case(2, 3, True)
        x = FeatureMatrix(np.arange(2.0 * len(y)).reshape(-1, 2))
        labels = LabelVector(np.array(y), k=max(y) + 1)
        with pytest.raises(ConfigError, match=f"class {first} has fewer than 2 samples"):
            region_mass(region, x, labels, n=10, seed=0)


class TestSerialization:
    def test_slab_dict_fields(self):
        slab = SlabRegion(normal=np.array([1.0, 0.0]), anchor=np.zeros(2),
                          alpha_lo=0.2, alpha_hi=0.3)
        d = slab.to_dict()
        assert d["alpha_lo"] == 0.2 and d["alpha_hi"] == 0.3
