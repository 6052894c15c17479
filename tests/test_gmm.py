import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from oodkit.core import FeatureMatrix, LabelVector
from oodkit.errors import ConfigError, DataFormatError, DimensionError, SingularModelError
from oodkit.gmm import (_BLOCK_BYTES, EmConfig, GaussianMixture, _kmeans_pp_init, _moments,
                        _row_blocks, _sq_dists, fit_em)


def _two_blob_data(n_per=150, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, 2)) * 0.5 + np.array([4.0, 0.0])
    b = rng.standard_normal((n_per, 2)) * 0.8 + np.array([-4.0, 1.0])
    x = np.concatenate([a, b])
    y = np.repeat([0, 1], n_per)
    perm = rng.permutation(2 * n_per)
    return FeatureMatrix(x[perm]), LabelVector(y[perm], k=2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EmConfig(max_iter=0)
        with pytest.raises(ConfigError):
            EmConfig(rel_tol=0.0)
        with pytest.raises(ConfigError):
            EmConfig(reg=-1.0)
        with pytest.raises(ConfigError):
            EmConfig(init="random")
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError):
                EmConfig(rel_tol=value)
            with pytest.raises(ConfigError):
                EmConfig(reg=value)


class TestGaussianMixtureModel:
    def test_log_density_matches_scipy(self):
        rng = np.random.default_rng(1)
        means = rng.standard_normal((2, 3))
        a = rng.standard_normal((2, 3, 3))
        covs = a @ a.transpose(0, 2, 1) + np.eye(3)
        gmm = GaussianMixture([0.3, 0.7], means, covs)
        z = rng.standard_normal(3)
        expected = np.log(
            0.3 * multivariate_normal(means[0], covs[0]).pdf(z)
            + 0.7 * multivariate_normal(means[1], covs[1]).pdf(z))
        assert gmm.log_density(z) == pytest.approx(expected, rel=1e-10)

    def test_mahalanobis_matches_explicit_inverse(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((1, 2, 2))
        cov = a @ a.transpose(0, 2, 1) + np.eye(2)
        mean = np.array([[1.0, -2.0]])
        gmm = GaussianMixture([1.0], mean, cov)
        z = rng.standard_normal((5, 2))
        d = z - mean[0]
        expected = np.einsum("ni,ij,nj->n", d, np.linalg.inv(cov[0]), d)
        np.testing.assert_allclose(gmm.mahalanobis_sq(z)[:, 0], expected, rtol=1e-10)

    def test_spherical_radial_monotonicity(self):
        gmm = GaussianMixture([0.5, 0.5], [[3.0, 0.0], [-3.0, 0.0]],
                              [np.eye(2), np.eye(2)])
        radii = [0.0, 1.0, 3.0, 8.0, 20.0]
        scores = [-gmm.log_density(np.array([0.0, r])) for r in radii]
        assert np.all(np.diff(scores) > 0)

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            GaussianMixture([0.5, 0.6], np.zeros((2, 1)), np.ones((2, 1, 1)))
        with pytest.raises(ConfigError):
            GaussianMixture([1.2, -0.2], np.zeros((2, 1)), np.ones((2, 1, 1)))
        for weights in ([np.nan], [0.5, np.nan]):
            k = len(weights)
            with pytest.raises(ConfigError):
                GaussianMixture(weights, np.zeros((k, 1)), np.ones((k, 1, 1)))

    def test_class_model_validation(self):
        # the per-class model that the region's Monte Carlo oracle samples
        with pytest.raises(ConfigError):
            GaussianMixture([0.7], [[0.0]], [[[1.0]]])
        with pytest.raises(SingularModelError):
            GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 2.0], [2.0, 1.0]]])

    def test_not_positive_definite_rejected(self):
        with pytest.raises(SingularModelError):
            GaussianMixture([1.0], [[0.0, 0.0]],
                            [np.array([[1.0, 2.0], [2.0, 1.0]])])

    def test_asymmetric_rejected(self):
        for cov in ([[1.0, 0.5], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]):
            with pytest.raises(SingularModelError):
                GaussianMixture([1.0], [[0.0, 0.0]], [cov])

    def test_json_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2, 2))
        covs = a @ a.transpose(0, 2, 1) + np.eye(2)
        gmm = GaussianMixture([0.4, 0.6], rng.standard_normal((2, 2)), covs,
                              reg=1e-5, log_transform=False)
        p = tmp_path / "gmm.json"
        gmm.save(p)
        gmm2 = GaussianMixture.load(p)
        np.testing.assert_array_equal(gmm2.weights, gmm.weights)
        np.testing.assert_array_equal(gmm2.means, gmm.means)
        np.testing.assert_array_equal(gmm2.covariances, gmm.covariances)
        assert gmm2.reg == gmm.reg

    def test_unknown_version_rejected(self):
        with pytest.raises(DataFormatError, match="format_version"):
            GaussianMixture.from_dict({"format_version": 99})


def _kmeans_pp_init_reference(x, k, rng, n_iter=10):
    """k-means++ seeding and Lloyd steps on N x K x H distance arrays."""
    n = x.shape[0]
    centers = [x[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min([((x - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(n)])
            continue
        centers.append(x[rng.choice(n, p=d2 / total)])
    centers = np.array(centers)
    for _ in range(n_iter):
        assign = np.argmin(((x[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1)
        for i in range(k):
            if np.any(assign == i):
                centers[i] = x[assign == i].mean(axis=0)
    return np.argmin(((x[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1)


def _block_rows(h):
    return _BLOCK_BYTES // (8 * h)


def _mahalanobis_sq_reference(gmm, x):
    """One triangular solve (scipy's trsm) per component over the whole
    batch, independent of the cached whitening matrix."""
    x = gmm._maybe_log(np.atleast_2d(x))
    out = np.empty((x.shape[0], gmm.k_components))
    for i, L in enumerate(gmm._chols):
        y = solve_triangular(L, (x - gmm.means[i]).T, lower=True)
        out[:, i] = (y * y).sum(axis=0)
    return out


class TestComponentLogDensities:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_component_loop(self, seed):
        rng = np.random.default_rng(seed)
        k, h = int(rng.integers(1, 11)), 64
        a = rng.standard_normal((k, h, h)) / np.sqrt(h)
        covs = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(h)
        log_transform = seed % 2 == 1
        means = rng.standard_normal((k, h)) + (3.0 if log_transform else 0.0)
        gmm = GaussianMixture(np.full(k, 1.0 / k), means, covs, log_transform=log_transform)
        step = _block_rows(k * h)  # the blocks hold K whitened copies of each row
        x = rng.standard_normal((max(500, 2 * step + 1), h)) * rng.uniform(0.1, 3.0)
        if log_transform:
            x = np.exp(x)
        whole = gmm.component_log_densities(x)
        expected = gmm._log_norms - 0.5 * _mahalanobis_sq_reference(gmm, x)
        np.testing.assert_allclose(whole, expected, rtol=4 * np.finfo(float).eps, atol=0)
        # one row, one block, and two blocks (the second of step + 1 rows at 2 step + 1)
        for n in (1, 2, 500, 2 * step, 2 * step + 1):
            np.testing.assert_array_equal(gmm.component_log_densities(x[:n]), whole[:n])

    def test_ill_conditioned_mixture_within_condition_bound(self):
        # An explicit triangular inverse is accurate to about cond(Sigma) * u
        # (Higham 2002, ch. 14); the triangular solves are the oracle.
        rng = np.random.default_rng(5)
        k, h = 3, 64
        covs = np.empty((k, h, h))
        for i in range(k):
            q = np.linalg.qr(rng.standard_normal((h, h)))[0]
            covs[i] = (q * np.logspace(0, -10, h)) @ q.T
            covs[i] = (covs[i] + covs[i].T) / 2
        gmm = GaussianMixture(np.full(k, 1.0 / k), rng.standard_normal((k, h)), covs)
        kappa = max(np.linalg.cond(c) for c in covs)
        assert 1e9 < kappa < 1e11
        x = gmm.sample(1000, rng)
        np.testing.assert_allclose(gmm.mahalanobis_sq(x), _mahalanobis_sq_reference(gmm, x),
                                   rtol=kappa * np.finfo(float).eps, atol=0)

    # 2048 rows of H=64 float64 are 1 MiB; a huge H still gets 2-row blocks.
    @pytest.mark.parametrize("n, h, sizes", [
        (0, 64, []), (1, 64, [1]), (2, 64, [2]), (2048, 64, [2048]), (2049, 64, [2049]),
        (2050, 64, [1025, 1025]), (4097, 64, [2048, 2049]), (5000, 64, [1666, 1667, 1667]),
        (5, 10 ** 9, [2, 3]), (6, 10 ** 9, [2, 2, 2])])
    def test_row_blocks_cover_rows_in_order(self, n, h, sizes):
        blocks = list(_row_blocks(n, h))
        assert [rows.stop - rows.start for rows in blocks] == sizes
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))

    def test_kernels_hold_less_than_the_input(self):
        # Whole-batch kernels peak at 80.8 MB (mahalanobis_sq) and 30.0 MB
        # (the k-means distances) on this 25.6 MB input.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50_000, 64))
        gmm = _random_mixture(8)
        centers = x[rng.choice(x.shape[0], 10, replace=False)]
        for kernel in (gmm.mahalanobis_sq, lambda x: _sq_dists(x, centers)):
            tracemalloc.start()
            try:
                kernel(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < x.nbytes

    def test_width_mismatch_raises(self):
        gmm = GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])
        for f in (gmm.component_log_densities, gmm.mahalanobis_sq, gmm.log_density_batch):
            with pytest.raises(DimensionError):
                f(np.zeros((4, 3)))


def _sample_reference(gmm, n, rng):
    """The per-component multivariate_normal draws that sample replaced."""
    counts = rng.multinomial(n, gmm.weights)
    chunks = [rng.multivariate_normal(gmm.means[i], gmm.covariances[i], size=c,
                                      method="cholesky")
              for i, c in enumerate(counts) if c]
    return np.concatenate(chunks)[rng.permutation(n)]


def _random_mixture(seed, k=10, h=64, log_transform=False):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, h, h)) / np.sqrt(h)
    covs = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(h)
    weights = rng.uniform(0.01, 1.0, k)
    return GaussianMixture(weights / weights.sum(), rng.standard_normal((k, h)), covs,
                           log_transform=log_transform)


class TestSample:
    def test_sample_moments(self):
        m = GaussianMixture([0.5, 0.5], [[5.0, 0.0], [-5.0, 0.0]],
                            [np.eye(2), 2.0 * np.eye(2)])
        x = m.sample(200_000, np.random.default_rng(1))
        assert x.shape == (200_000, 2)
        # mixture mean is the weighted blend
        np.testing.assert_allclose(x.mean(axis=0), [0.0, 0.0], atol=0.05)
        right = x[x[:, 0] > 0]
        np.testing.assert_allclose(right.mean(axis=0), [5.0, 0.0], atol=0.05)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_multivariate_normal_stream(self, seed):
        gmm = _random_mixture(seed)
        # n=5 leaves at least five of the ten components without a draw
        for n in (1, 5, 20_000):
            np.testing.assert_array_equal(
                gmm.sample(n, np.random.default_rng(seed + 100)),
                _sample_reference(gmm, n, np.random.default_rng(seed + 100)))

    def test_matches_stream_when_a_component_spans_pieces(self):
        # 2050 and 4099 draws of one component span several pieces. A 2- or
        # 3-row last piece took OpenBLAS's small-matrix path, whose bits
        # differ from the whole-component product's. Even pieces rely on the
        # BLAS giving them the large-product kernel; where it does not, this
        # fails.
        gmm = _random_mixture(5, k=1)
        for n in (2049, 2050, 4099, 5000):
            np.testing.assert_array_equal(
                gmm.sample(n, np.random.default_rng(n)),
                _sample_reference(gmm, n, np.random.default_rng(n)))

    def test_chunks_are_the_draws_before_the_shuffle(self):
        gmm = _random_mixture(6, log_transform=True)
        rng, sample_rng = np.random.default_rng(3), np.random.default_rng(3)
        shuffle = []

        def pieces():
            shuffle.append((yield from gmm.sample_chunks(20_000, rng)))

        # each piece is a view of one reused buffer, so it is copied
        chunks = [piece.copy() for piece in pieces()]
        assert max(len(chunk) for chunk in chunks) <= _block_rows(64) + 1
        np.testing.assert_array_equal(np.concatenate(chunks)[shuffle[0]],
                                      gmm.sample(20_000, sample_rng))
        # both leave the generator at the same place in its stream
        assert rng.integers(1 << 62) == sample_rng.integers(1 << 62)

    def test_zero_draws_are_an_empty_batch(self):
        gmm = _random_mixture(4, k=3, h=5)
        x = gmm.sample(0, np.random.default_rng(0))
        assert x.shape == (0, 5)

    def test_log_transform_draws_live_in_feature_space(self):
        gmm = _random_mixture(7, k=3, h=8, log_transform=True)
        x = gmm.sample(5_000, np.random.default_rng(2))
        assert np.all(x > 0)
        np.testing.assert_array_equal(
            x, np.exp(_sample_reference(gmm, 5_000, np.random.default_rng(2))))


class TestKmeansInit:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_distance_reference(self, seed):
        rng = np.random.default_rng(seed)
        k, h = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        n = int(rng.integers(k, 300))
        x = rng.standard_normal((n, h)) + 4.0 * rng.integers(0, 3, (n, 1))  # three clusters
        if seed == 0:
            x[: x.shape[0] // 2] = x[0]  # repeated rows tie on distance
        np.testing.assert_array_equal(
            _kmeans_pp_init(x, k, np.random.default_rng(seed)),
            _kmeans_pp_init_reference(x, k, np.random.default_rng(seed)))

    def test_matches_reference_over_several_blocks(self):
        rng = np.random.default_rng(6)
        n = 2 * _block_rows(64) + 904  # two full blocks and a partial one
        x = rng.standard_normal((n, 64)) + 3.0 * rng.integers(0, 4, (n, 1))
        np.testing.assert_array_equal(
            _kmeans_pp_init(x, 5, np.random.default_rng(6)),
            _kmeans_pp_init_reference(x, 5, np.random.default_rng(6)))


class TestMoments:
    # A sum of N float64 terms is within N * eps of the exact sum, relative
    # to the sum of their magnitudes; both sides here are such sums.
    N, H = 500, 6
    TOL = N * np.finfo(np.float64).eps

    def _data(self):
        rng = np.random.default_rng(0)
        return rng.standard_normal((self.N, self.H)) * 3.0 + 1.0, rng.random(self.N)

    def test_soft_weights_match_elementwise_reference(self):
        x, r = self._data()
        tol = self.TOL
        nk, mean, cov = _moments(x, r, 1e-5)
        ref_mean = (r[:, None] * x).sum(axis=0) / r.sum()
        d = x - ref_mean
        ref_cov = (r[:, None] * d).T @ d / r.sum() + 1e-5 * np.eye(self.H)
        assert nk == pytest.approx(r.sum(), rel=tol)
        np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=tol * np.abs(x).max())
        np.testing.assert_allclose(cov, ref_cov, rtol=0, atol=tol * np.abs(ref_cov).max())
        assert np.array_equal(cov, cov.T)

    def test_unit_weights_match_sample_moments(self):
        x, _ = self._data()
        tol = self.TOL
        nk, mean, cov = _moments(x, np.ones(self.N), 0.0)
        d = x - x.mean(axis=0)
        ref_cov = d.T @ d / self.N
        assert nk == self.N
        np.testing.assert_allclose(mean, x.mean(axis=0), rtol=0, atol=tol * np.abs(x).max())
        np.testing.assert_allclose(cov, ref_cov, rtol=0, atol=tol * np.abs(ref_cov).max())

    def test_zero_mass_raises_before_dividing(self):
        x, r = self._data()
        with pytest.raises(SingularModelError):
            _moments(x, np.zeros_like(r), 1e-5)
        with pytest.raises(SingularModelError):
            _moments(x[:0], r[:0], 1e-5)


class TestFitEm:
    @pytest.mark.parametrize("scale", [1e4, 1e6])
    @pytest.mark.parametrize("init", ["labels", "kmeans_pp"])
    def test_covariances_exactly_symmetric_at_large_scale(self, scale, init):
        # a GEMM (r * d).T @ d is symmetric only to rounding, which passes the
        # constructor's absolute 1e-10 bound from features of about 1e4 on
        rng = np.random.default_rng(0)
        y = np.repeat([0, 1], 500)
        x = (rng.standard_normal((1000, 8)) + 3.0 * y[:, None]) * scale
        gmm = fit_em(FeatureMatrix(x), labels=LabelVector(y, k=2), cfg=EmConfig(init=init))
        for c in gmm.covariances:
            assert np.array_equal(c, c.T)

    def test_recovers_separated_blobs(self):
        fm, lv = _two_blob_data()
        gmm = fit_em(fm, labels=lv)
        assert gmm.k_components == 2
        order = np.argsort(gmm.means[:, 0])
        np.testing.assert_allclose(gmm.means[order[1]], [4.0, 0.0], atol=0.2)
        np.testing.assert_allclose(gmm.means[order[0]], [-4.0, 1.0], atol=0.2)
        np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.05)

    def test_loglikelihood_monotone(self):
        fm, lv = _two_blob_data(seed=4)
        _, history = fit_em(fm, labels=lv, return_history=True)
        assert len(history) >= 2
        assert np.all(np.diff(history) > -1e-9)

    def test_monotone_over_random_datasets(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, h, k = int(rng.integers(40, 90)), 2, int(rng.integers(1, 4))
            x = rng.standard_normal((n, h)) + rng.integers(-3, 4, size=(n, h))
            cfg = EmConfig(seed=int(rng.integers(1000)), init="kmeans_pp",
                           max_iter=40)
            _, history = fit_em(FeatureMatrix(x), k_components=k, cfg=cfg,
                                return_history=True)
            assert np.all(np.diff(history) > -1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_at_benchmark_shape(self, seed):
        # N=5000, H=64, K=10 overlapping clusters from k-means++, the fit-gmm shape
        rng = np.random.default_rng(seed)
        centers = 2.0 * rng.standard_normal((10, 64))
        x = centers[rng.integers(10, size=5000)] + rng.standard_normal((5000, 64))
        cfg = EmConfig(seed=seed, init="kmeans_pp", max_iter=15, rel_tol=1e-12)
        _, history = fit_em(FeatureMatrix(x), k_components=10, cfg=cfg, return_history=True)
        assert len(history) >= 2
        assert np.all(np.diff(history) >= -1e-9 * np.abs(history[1:]))

    def test_deterministic_for_seed(self):
        fm, _ = _two_blob_data(seed=6)
        cfg = EmConfig(seed=9, init="kmeans_pp")
        g1 = fit_em(fm, k_components=2, cfg=cfg)
        g2 = fit_em(fm, k_components=2, cfg=cfg)
        np.testing.assert_array_equal(g1.means, g2.means)
        np.testing.assert_array_equal(g1.covariances, g2.covariances)
        np.testing.assert_array_equal(g1.weights, g2.weights)

    def test_label_init_used_when_components_match(self):
        fm, lv = _two_blob_data(seed=7)
        gmm = fit_em(fm, labels=lv, cfg=EmConfig(max_iter=1))
        # single E-step from label moment-matching: means already near blobs
        assert abs(gmm.means[:, 0]).max() > 3.0

    def test_defaults_components_to_label_count(self):
        fm, lv = _two_blob_data(seed=8)
        assert fit_em(fm, labels=lv).k_components == lv.k

    def test_regularization_keeps_degenerate_data_fittable(self):
        x = np.zeros((30, 2))
        x[:, 0] = np.arange(30)  # second coordinate constant
        gmm = fit_em(FeatureMatrix(x), k_components=1, cfg=EmConfig(reg=1e-5))
        assert gmm.covariances[0, 1, 1] == pytest.approx(1e-5)

    def test_duplicate_points_without_reg_fails(self):
        x = np.ones((20, 2))
        with pytest.raises(SingularModelError):
            fit_em(FeatureMatrix(x), k_components=1, cfg=EmConfig(reg=0.0))

    def test_few_samples_warns(self):
        rng = np.random.default_rng(10)
        fm = FeatureMatrix(rng.standard_normal((5, 3)))
        with pytest.warns(UserWarning):
            fit_em(fm, k_components=2, cfg=EmConfig(init="kmeans_pp"))

    def test_log_transform_requires_positive(self):
        fm = FeatureMatrix(np.array([[1.0, -1.0]]))
        with pytest.raises(ConfigError):
            fit_em(fm, k_components=1, cfg=EmConfig(log_transform=True))

    def test_log_transform_fits_in_log_space(self):
        rng = np.random.default_rng(11)
        x = np.exp(rng.standard_normal((200, 2)) * 0.3 + 1.0)
        gmm = fit_em(FeatureMatrix(x), k_components=1,
                     cfg=EmConfig(log_transform=True, reg=1e-3))
        np.testing.assert_allclose(gmm.means[0], [1.0, 1.0], atol=0.1)
        # density is evaluated through the same transform
        assert np.isfinite(gmm.log_density(np.array([2.0, 2.0])))

    def test_log_transform_gradient_chain_rule(self):
        rng = np.random.default_rng(12)
        x = np.exp(rng.standard_normal((200, 2)) * 0.3)
        gmm = fit_em(FeatureMatrix(x), k_components=1,
                     cfg=EmConfig(log_transform=True, reg=1e-3))
        z = np.array([1.5, 0.7])
        g = gmm.neg_log_density_grad(z)
        eps = 1e-6
        for i in range(2):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            fd = (-gmm.log_density(zp) + gmm.log_density(zm)) / (2 * eps)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)
