import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onmanifold as om
from onmanifold.cidm import knn_scales, cidm_dissimilarity_sq, shape_function
from onmanifold.nystrom import _kernel_rows


def brute_force_scales(pts, k):
    """All-pairs oracle: sort every row of the distance matrix."""
    n = len(pts)
    out = np.empty(n)
    for i in range(n):
        d = np.sort([np.linalg.norm(pts[i] - pts[j]) for j in range(n) if j != i])
        out[i] = np.mean(d[:k])
    return out


class TestKnnScales:
    def test_equilateral_triangle(self):
        pts = om.PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]))
        npt.assert_allclose(knn_scales(pts, 2), [1.0, 1.0, 1.0], rtol=1e-12)

    def test_two_points(self):
        pts = om.PointCloud(np.array([[0.0], [3.0]]))
        npt.assert_allclose(knn_scales(pts, 1), [3.0, 3.0])

    def test_circle16_vs_brute_force(self):
        th = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        pts = om.PointCloud(np.column_stack([np.cos(th), np.sin(th)]))
        expected = 2 * np.sin(np.pi / 16)
        scales = knn_scales(pts, 2)
        npt.assert_allclose(scales, expected, rtol=1e-12)
        npt.assert_allclose(scales, brute_force_scales(pts.points, 2), rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_random_clouds_vs_brute_force(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = om.PointCloud(rng.standard_normal((k + 3, 3)))
        expected = brute_force_scales(pts.points, k)
        npt.assert_allclose(knn_scales(pts, k), expected, rtol=1e-10)
        # fit uses the same scales; queries at the training points reproduce them
        model = om.fit(pts, om.CidmConfig(k_nn=k, n_eigs=2))
        npt.assert_array_equal(model.knn_scale, knn_scales(pts, k))
        _, _, query_scales, _ = _kernel_rows(model, pts.points)
        npt.assert_allclose(query_scales, expected, rtol=1e-10)

    def test_kth_neighbor_variant(self):
        rng = np.random.default_rng(1)
        pts = om.PointCloud(rng.standard_normal((12, 2)))
        kth = knn_scales(pts, 3, average=False)
        full = np.sort(np.linalg.norm(pts.points[:, None] - pts.points[None], axis=2), axis=1)
        npt.assert_allclose(kth, full[:, 3], rtol=1e-12)
        model = om.fit(pts, om.CidmConfig(k_nn=3, n_eigs=4, average_scales=False))
        npt.assert_array_equal(model.knn_scale, kth)
        _, _, query_scales, _ = _kernel_rows(model, pts.points)
        npt.assert_allclose(query_scales, full[:, 3], rtol=1e-12)

    def test_duplicate_points_raise(self):
        pts = om.PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(om.DuplicatePointError):
            knn_scales(pts, 1)

    def test_k_out_of_range(self):
        pts = om.PointCloud(np.random.default_rng(0).standard_normal((5, 2)))
        with pytest.raises(ValueError):
            knn_scales(pts, 5)


class TestDissimilarity:
    def test_zero_at_coincidence(self):
        assert cidm_dissimilarity_sq(np.ones(3), np.ones(3), 0.5, 2.0) == 0.0

    def test_known_value(self):
        assert cidm_dissimilarity_sq(np.array([0.0]), np.array([2.0]), 1.0, 4.0) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_direct_recomputation_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, 4))
        sx, sy = rng.uniform(0.1, 5.0, 2)
        got = cidm_dissimilarity_sq(x, y, sx, sy)
        expected = np.linalg.norm(x - y) ** 2 / (sx * sy)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(cidm_dissimilarity_sq(y, x, sy, sx), rel=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            cidm_dissimilarity_sq(np.zeros(2), np.ones(2), 0.0, 1.0)


class TestFit:
    def test_circle_spectrum_ratios(self, circle300):
        _, _, model = circle300
        xi = model.eig_xi
        assert 0.8 <= xi[2] / xi[1] <= 1.25
        assert 3.2 <= xi[3] / xi[1] <= 5.0
        assert 7.0 <= xi[5] / xi[1] <= 11.0

    def test_constant_mode(self, circle300):
        _, _, model = circle300
        assert model.eig_xi[0] <= 1e-8
        npt.assert_array_equal(model.eig_phi[:, 0], 1.0)

    def test_orthonormal_under_model_inner_product(self, circle300):
        _, _, model = circle300
        gram = om.inner(model, model.eig_phi, model.eig_phi)
        npt.assert_allclose(gram, np.eye(model.n_eigs), atol=1e-10)

    def test_spectral_range(self, noisy_circle):
        _, _, model = noisy_circle
        assert np.all(model.eig_xi >= 0.0)
        assert np.all(model.eig_xi <= 2.0)

    def test_degree_positivity(self, noisy_circle):
        _, _, model = noisy_circle
        assert np.all(model.degree >= shape_function(np.zeros(1), 'exponential')[0])

    def test_permutation_equivariance(self):
        # a generic blob avoids the circle's near-degenerate eigenpairs,
        # whose in-pair gauge is not stable under refitting
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((60, 2))
        cfg = om.CidmConfig(k_nn=6, n_eigs=10)
        base = om.fit(om.PointCloud(pts), cfg)
        perm = rng.permutation(60)
        permuted = om.fit(om.PointCloud(pts[perm]), cfg)
        npt.assert_allclose(permuted.knn_scale, base.knn_scale[perm], rtol=1e-12)
        npt.assert_allclose(permuted.degree, base.degree[perm], rtol=1e-10)
        npt.assert_allclose(permuted.eig_xi, base.eig_xi, atol=1e-12)
        npt.assert_allclose(permuted.eig_phi, base.eig_phi[perm], atol=1e-8)

    def test_coordinate_scale_invariance(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((50, 3))
        cfg = om.CidmConfig(k_nn=5, n_eigs=8)
        base = om.fit(om.PointCloud(pts), cfg)
        scaled = om.fit(om.PointCloud(1000.0 * pts), cfg)
        npt.assert_allclose(scaled.knn_scale, 1000.0 * base.knn_scale, rtol=1e-12)
        npt.assert_allclose(scaled.eig_xi, base.eig_xi, atol=1e-12)
        npt.assert_allclose(scaled.degree, base.degree, rtol=1e-12)

    def test_kernel_symmetry_is_exact(self):
        # assembled from the symmetric formula: K - K.T must be identically 0
        from onmanifold.cidm import _kernel_matrix, _squared_distances
        rng = np.random.default_rng(3)
        cloud = om.PointCloud(rng.standard_normal((40, 2)))
        d2 = _squared_distances(cloud.points)
        cfg = om.CidmConfig(k_nn=4, n_eigs=5)
        K, _, _ = _kernel_matrix(d2, knn_scales(cloud, 4), cfg)
        npt.assert_array_equal(K, K.T)
        cfg_dm = om.CidmConfig(k_nn=4, n_eigs=5, kernel_variant='cidm_dm_normalized')
        K_dm, _, _ = _kernel_matrix(d2, knn_scales(cloud, 4), cfg_dm)
        npt.assert_array_equal(K_dm, K_dm.T)

    def test_variable_bandwidth_survives_where_fixed_disconnects(self):
        # Fig.3-style density variation: a fixed small bandwidth splits the
        # graph (second zero eigenvalue), the kNN-rescaled kernel does not.
        cloud, _ = om.generate(om.SynthSpec(kind='circle', n_points=300,
                                            noise_sigma=0.05,
                                            density_profile='angle_skewed',
                                            noise_profile='angle_varying', seed=6))
        model = om.fit(cloud, om.CidmConfig(k_nn=10, n_eigs=20))
        assert np.sum(model.eig_xi <= 1e-8) == 1

        from scipy.spatial.distance import pdist, squareform
        from scipy.linalg import eigh
        d2 = squareform(pdist(cloud.points, 'sqeuclidean'))
        eps_fixed = 0.02  # much smaller than the sparse-region spacing
        K = np.exp(-d2 / eps_fixed ** 2)
        D = K.sum(axis=1)
        lam = eigh(K / np.sqrt(np.outer(D, D)), eigvals_only=True)
        assert np.sum(np.abs(1.0 - lam) <= 1e-8) > 1

    def test_disconnected_graph_raises(self):
        # two far clusters under the indicator shape have zero cross weights
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.standard_normal((20, 2)),
                         rng.standard_normal((20, 2)) + 100.0])
        with pytest.raises(om.DisconnectedGraphError):
            om.fit(om.PointCloud(pts), om.CidmConfig(k_nn=4, n_eigs=6, shape='indicator'))

    def test_dm_normalized_variant_fits(self, circle300):
        cloud, _, base = circle300
        model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=10,
                                            kernel_variant='cidm_dm_normalized'))
        assert model.raw_degree is not None
        assert model.eig_xi[0] <= 1e-8
        # circle spectrum ratios survive the extra normalization
        assert 3.0 <= model.eig_xi[3] / model.eig_xi[1] <= 5.0

    def test_n_eigs_exceeding_n_rejected(self):
        pts = om.PointCloud(np.random.default_rng(0).standard_normal((10, 2)))
        with pytest.raises(ValueError):
            om.fit(pts, om.CidmConfig(k_nn=3, n_eigs=11))


class TestPointCloud:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        cloud = om.PointCloud(rng.standard_normal((17, 3)))
        path = tmp_path / 'pts.csv'
        cloud.to_csv(path)
        npt.assert_array_equal(om.PointCloud.from_csv(path).points, cloud.points)

    @pytest.mark.parametrize('bad', [
        np.ones((1, 2)),                       # too few points
        np.array([[np.nan, 0.0], [0.0, 1.0]]),  # non-finite
    ])
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            om.PointCloud(bad)
