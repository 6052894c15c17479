import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from oodkit.core import FeatureMatrix, LabelVector
from oodkit.errors import ConfigError, DataFormatError, DimensionError, SingularModelError
from oodkit import gmm as gmm_mod
from oodkit.gmm import (_BLOCK_MACS, EmConfig, GaussianMixture, _block_rows, _kmeans_pp_init,
                        _moments, _row_blocks, _sq_dists, fit_em)


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


def _nearest_reference(x, centers, piece=1024):
    """Each row's nearest centre from N x K x H distance arrays, computed
    piece rows at a time to bound memory; a row's sum does not depend on
    its piece."""
    return np.concatenate([
        np.argmin(((x[i:i + piece, None, :] - centers[None]) ** 2).sum(axis=2), axis=1)
        for i in range(0, x.shape[0], piece)])


def _kmeans_pp_init_reference(x, k, rng, n_iter=10):
    """k-means++ seeding and Lloyd steps on elementwise squared differences."""
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
        assign = _nearest_reference(x, centers)
        for i in range(k):
            if np.any(assign == i):
                centers[i] = x[assign == i].mean(axis=0)
    return _nearest_reference(x, centers)


def _benchmark_features(seed, n=20_000, h=64, k=10):
    """The features of the benchmark's input for ``seed``: an equiangular
    K=10 head with |w|=2 in H=64, and n rows of 2 w_y + N(0, I)."""
    rng = np.random.default_rng(seed)
    frame = np.eye(k) - 1.0 / k
    frame *= 2.0 / np.linalg.norm(frame[0])
    w = np.linalg.qr(rng.standard_normal((h, k)))[0] @ frame.T
    y = np.repeat(np.arange(k), n // k)
    y = y[rng.permutation(y.size)]
    return 2.0 * w.T[y] + rng.standard_normal((y.size, h))


def _mahalanobis_sq_reference(gmm, x):
    """One triangular solve (scipy's trsm) per component over the whole
    batch, independent of the cached whitening matrix."""
    x = np.atleast_2d(x)
    x = np.log(x) if gmm.log_transform else x
    out = np.empty((x.shape[0], gmm.k_components))
    for i, L in enumerate(gmm._chol_t.transpose(0, 2, 1)):
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
        # the blocks hold K whitened copies of each row, one H x H GEMM each
        step = _block_rows(k * h, macs=h * h)
        x = rng.standard_normal((max(500, 2 * step + 1), h)) * rng.uniform(0.1, 3.0)
        if log_transform:
            x = np.exp(x)
        whole = gmm.component_log_densities(x)
        expected = gmm._log_norms - 0.5 * _mahalanobis_sq_reference(gmm, x)
        np.testing.assert_allclose(whole, expected, rtol=4 * np.finfo(float).eps, atol=0)
        # one row, one block of step and of step + 1 rows, and two blocks
        for n in (1, 2, step, step + 1, 2 * step + 1):
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

    # 2048 rows of H=64 float64 are 1 MiB; a huge H still gets 8-row blocks.
    @pytest.mark.parametrize("n, h, sizes", [
        (0, 64, []), (1, 64, [1]), (2, 64, [2]), (2048, 64, [2048]), (2049, 64, [2048, 1]),
        (2050, 64, [2048, 2]), (4097, 64, [2048, 2048, 1]), (5000, 64, [2048, 2048, 904]),
        (5, 10 ** 9, [5]), (6, 10 ** 9, [6])])
    def test_row_blocks_cover_rows_in_order(self, n, h, sizes):
        blocks = list(_row_blocks(n, h))
        assert [rows.stop - rows.start for rows in blocks] == sizes
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))

    def test_kernels_hold_less_than_the_input(self):
        # Whole-batch kernels peak at 80.8 MB (mahalanobis_sq) and 30.0 MB
        # (the k-means distances) on this 25.6 MB input; one N x H buffer
        # per responsibility column held 51.2 MB (_moments).
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50_000, 64))
        gmm = _random_mixture(8)
        centers = x[rng.choice(x.shape[0], 10, replace=False)]
        x_sq = np.einsum("nh,nh->n", x, x)
        resp = rng.random((x.shape[0], 10))
        for kernel in (gmm.mahalanobis_sq, lambda x: _sq_dists(x, x_sq, centers),
                       lambda x: _moments(x, resp, 1e-5)):
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


class TestOneThreadBlocks:
    """Each BLAS product of a row block in the four blocked kernels, its
    block zero-padded to a multiple of 8 rows, stays within _BLOCK_MACS
    multiply-adds, few enough that OpenBLAS runs it on the calling thread."""

    @pytest.mark.parametrize("h", [2, 16, 64])
    @pytest.mark.parametrize("k", [1, 2, 10, 40])
    def test_block_products_stay_within_the_bound(self, monkeypatch, k, h):
        calls = []

        def recording_blocks(n, width, macs=0):
            blocks = list(_row_blocks(n, width, macs))
            if macs:  # the bounded product loops; the SYRK loop passes none
                calls.append((n, macs, blocks))
            return iter(blocks)

        monkeypatch.setattr(gmm_mod, "_row_blocks", recording_blocks)
        rng = np.random.default_rng(k * h)
        mixture = _random_mixture(k * h, k=k, h=h)
        one = _random_mixture(k * h, k=1, h=h)  # all its draws are one component's
        centers = rng.standard_normal((k, h))
        # (multiply-adds per block row: inner x outer of the product, kernel)
        kernels = [(h * h, mixture.mahalanobis_sq),  # rows x H @ H x H per component
                   (k * h, lambda x: _moments(x, rng.random((len(x), k)) + 0.1, 0.0)),
                   (k * h, lambda x: _sq_dists(x, np.einsum("nh,nh->n", x, x), centers)),
                   (h * h, lambda x: list(one.sample_chunks(len(x), rng)))]  # rows x H @ H x H
        for per_row, kernel in kernels:
            at_bound = min(_BLOCK_MACS // per_row, 20_000)  # rows of a product at the bound
            for n in (1, 2, at_bound - 1, at_bound + 1, 20_000):
                calls.clear()
                kernel(rng.standard_normal((n, h)))
                [(rows_n, macs, blocks)] = calls
                assert (rows_n, macs) == (n, per_row)
                assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
                padded = max(-(-(rows.stop - rows.start) // 8) * 8 for rows in blocks)
                assert padded * per_row <= _BLOCK_MACS

    def test_eight_row_floor(self):
        # a product too wide for 8 rows still gets 8-row blocks, the tail last
        assert [rows.stop - rows.start for rows in _row_blocks(20, 1, macs=_BLOCK_MACS)] == [8, 8, 4]


class TestPaddedTiles:
    """The rule of every row-wise product in gmm: a C-contiguous right operand
    and each block zero-padded to a multiple of 8 rows. Then a row's bits
    depend neither on the split of its batch nor on the block size, for
    blocks within _BLOCK_MACS (above it the default OpenBLAS kernel leaves
    its small-matrix path, whose bits differ at 10 columns)."""

    @pytest.mark.parametrize("h", [10, 64])
    def test_rows_ignore_block_size_and_split(self, monkeypatch, h):
        assert gmm_mod._BLOCK_MACS <= 10 ** 6  # the largest bound tested below
        rng = np.random.default_rng(h)
        mixture = _random_mixture(h, k=3, h=h)
        x = rng.standard_normal((20_000, h)) * 2.0
        x_sq = np.einsum("nh,nh->n", x, x)
        kernels = [lambda rows: mixture.mahalanobis_sq(x[rows]),
                   lambda rows: _sq_dists(x[rows], x_sq[rows], x[:10]),
                   lambda rows: _sq_dists(x[rows], x_sq[rows], x[:1])]  # one centre
        outputs = []
        for macs in (10 ** 4, 10 ** 5, 3 * 10 ** 5, 10 ** 6):
            monkeypatch.setattr(gmm_mod, "_BLOCK_MACS", macs)
            whole = [kernel(slice(None)) for kernel in kernels]
            for cut in (1, 7, 8, 777, 19_999):
                for kernel, rows in zip(kernels, whole):
                    np.testing.assert_array_equal(
                        np.concatenate([kernel(slice(cut)), kernel(slice(cut, None))]), rows)
            # and the draws of one seed, for n from 1 to 20,000
            draws = [mixture.sample(n, np.random.default_rng(n)) for n in (1, 7, 777, 20_000)]
            outputs.append(whole + draws)
        for output in outputs[1:]:
            for a, b in zip(outputs[0], output):
                np.testing.assert_array_equal(a, b)


def _sample_reference(gmm, n, rng):
    """The per-component multivariate_normal draws that sample replaced."""
    counts = rng.multinomial(n, gmm.weights)
    chunks = [rng.multivariate_normal(gmm.means[i], gmm.covariances[i], size=c,
                                      method="cholesky")
              for i, c in enumerate(counts) if c]
    return np.concatenate(chunks)[rng.permutation(n)]


def _assert_near_reference(gmm, n, seed):
    """sample(n) at seed keeps _sample_reference's stream and lies within
    the rounding bound of its draws.

    Both are mean + Z @ L^T on the same normals Z: each product lies within
    gamma_H |Z| @ |L^T| of the exact one and each sum within u of its own
    result (Higham 2002, sec. 3.1), for gamma_H = H u / (1 - H u).
    """
    rng, ref_rng, z_rng = (np.random.default_rng(seed) for _ in range(3))
    draws = gmm.sample(n, rng)
    ref = _sample_reference(gmm, n, ref_rng)
    # both leave the generator at the same place in its stream
    assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)
    counts = z_rng.multinomial(n, gmm.weights)
    scale = np.concatenate([np.abs(z_rng.standard_normal((c, gmm.h))) @ np.abs(l_t)
                            for c, l_t in zip(counts, gmm._chol_t)])[z_rng.permutation(n)]
    u = np.finfo(np.float64).eps / 2
    gamma = gmm.h * u / (1 - gmm.h * u)
    assert np.all(np.abs(draws - ref) <= 2 * gamma * scale + 2 * u * np.abs(ref))


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
            _assert_near_reference(gmm, n, seed + 100)

    def test_matches_stream_when_a_component_spans_pieces(self):
        # one component's 2049 to 5000 draws span 9 to 21 pieces, the last
        # shorter and zero-padded
        gmm = _random_mixture(5, k=1)
        for n in (2049, 2050, 4099, 5000):
            _assert_near_reference(gmm, n, n)

    def test_chunks_are_the_draws_before_the_shuffle(self):
        gmm = _random_mixture(6, log_transform=True)
        rng, sample_rng = np.random.default_rng(3), np.random.default_rng(3)
        # each piece is a view of one reused buffer, so it is copied
        chunks = [piece.copy() for piece in gmm.sample_chunks(20_000, rng)]
        assert max(len(chunk) for chunk in chunks) == _block_rows(64, macs=64 * 64)
        np.testing.assert_array_equal(np.concatenate(chunks)[rng.permutation(20_000)],
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
        plain = GaussianMixture(gmm.weights, gmm.means, gmm.covariances)
        np.testing.assert_array_equal(x, np.exp(plain.sample(5_000, np.random.default_rng(2))))


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
        n = 2 * _block_rows(64, macs=5 * 64) + 904  # three blocks at every centre count
        x = rng.standard_normal((n, 64)) + 3.0 * rng.integers(0, 4, (n, 1))
        np.testing.assert_array_equal(
            _kmeans_pp_init(x, 5, np.random.default_rng(6)),
            _kmeans_pp_init_reference(x, 5, np.random.default_rng(6)))

    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    def test_matches_reference_at_benchmark_shape(self, seed):
        # fit-gmm --init kmeans_pp seeds its generator with 0
        x = _benchmark_features(seed)
        np.testing.assert_array_equal(
            _kmeans_pp_init(x, 10, np.random.default_rng(0)),
            _kmeans_pp_init_reference(x, 10, np.random.default_rng(0)))

    def test_distances_are_clipped_at_zero(self):
        # Unclipped, |x|^2 - 2 x.c + |c|^2 cancels to -6e-8 on 10 of these 20
        # rows that lie on a centre, and rng.choice rejects negative weights.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 64)) * 100.0 + 1e3
        d = _sq_dists(x, np.einsum("nh,nh->n", x, x), x[:20])
        assert d.min() == 0.0
        np.testing.assert_allclose(np.diag(d[:20]), 0.0, rtol=0, atol=1e-6)
        assign = _kmeans_pp_init(np.repeat(x[:20], 10, axis=0), 5, np.random.default_rng(2))
        assert set(assign.tolist()) == set(range(5))


class TestMoments:
    # A sum of N float64 terms is within N * eps of the exact sum, relative
    # to the sum of their magnitudes; both sides here are such sums.
    N, H = 500, 6
    TOL = N * np.finfo(np.float64).eps

    def _data(self, n=N, k=1):
        rng = np.random.default_rng(0)
        return rng.standard_normal((n, self.H)) * 3.0 + 1.0, rng.random((n, k))

    def test_soft_weights_match_elementwise_reference(self):
        x, r = self._data()
        tol = self.TOL
        nk, mean, cov = (a[0] for a in _moments(x, r, 1e-5))
        r = r[:, 0]
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
        nk, mean, cov = (a[0] for a in _moments(x, np.ones((self.N, 1)), 0.0))
        d = x - x.mean(axis=0)
        ref_cov = d.T @ d / self.N
        assert nk == self.N
        np.testing.assert_allclose(mean, x.mean(axis=0), rtol=0, atol=tol * np.abs(x).max())
        np.testing.assert_allclose(cov, ref_cov, rtol=0, atol=tol * np.abs(ref_cov).max())

    # one block, and two full blocks with a partial one
    @pytest.mark.parametrize("n", [N, 2 * _block_rows(H) + 914])
    def test_columns_match_one_column_calls(self, n):
        x, r = self._data(n, k=4)
        tol = n * np.finfo(np.float64).eps
        nk, means, covs = _moments(x, r, 1e-5)
        assert nk.shape == (4,) and means.shape == (4, self.H) and covs.shape == (4, self.H, self.H)
        for i in range(4):
            nk1, mean1, cov1 = (a[0] for a in _moments(x, r[:, i:i + 1], 1e-5))
            assert nk[i] == pytest.approx(nk1, rel=tol)
            np.testing.assert_allclose(means[i], mean1, rtol=0, atol=tol * np.abs(x).max())
            np.testing.assert_allclose(covs[i], cov1, rtol=0, atol=tol * np.abs(cov1).max())
        for c in covs:
            assert np.array_equal(c, c.T)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_blocked_means_match_whole_batch_product(self, seed):
        # The means sum resp[b].T @ x[b] over row blocks, so they round unlike
        # the one whole-batch product resp.T @ x (at most 0.29 ulp of the
        # magnitude sum resp.T @ |x| / nk on benchmark features, seeds 0, 3,
        # 7 and 11); the bound is 2 ulps of it.
        x = _benchmark_features(seed)
        r = np.random.default_rng(seed).random((len(x), 10))
        r /= r.sum(axis=1, keepdims=True)
        nk, means, _ = _moments(x, r, 1e-5)
        ulp = np.finfo(np.float64).eps * (r.T @ np.abs(x)) / nk[:, None]
        np.testing.assert_array_less(np.abs(means - r.T @ x / nk[:, None]), 2 * ulp)

    def test_zero_mass_raises_before_dividing(self):
        x, r = self._data(k=3)
        with pytest.raises(SingularModelError):
            _moments(x, np.zeros_like(r), 1e-5)
        r[:, 1] = 0.0  # one collapsed column among live ones
        with pytest.raises(SingularModelError):
            _moments(x, r, 1e-5)
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
