import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse import csr_array
from scipy.sparse.linalg import eigsh

import onmanifold as om
from onmanifold import cidm
from onmanifold.cidm import KERNEL_TAIL, knn_scales
from onmanifold.cli import _write_csv

from conftest import (HELPER, dense_kernel_matrix, dense_squared_distances,
                      dense_training_scales, reference_cut_shape, row_weights)


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
        _, query_scales = row_weights(model, pts.points)
        npt.assert_allclose(query_scales, expected, rtol=1e-10)

    def test_duplicate_points_raise(self):
        pts = om.PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(om.DuplicatePointError):
            knn_scales(pts, 1)

    def test_k_out_of_range(self):
        pts = om.PointCloud(np.random.default_rng(0).standard_normal((5, 2)))
        with pytest.raises(ValueError):
            knn_scales(pts, 5)

    def test_overflowing_distances_are_named(self):
        # the squared distances overflow; the points are not coincident
        pts = om.PointCloud(1e160 * np.random.default_rng(0).standard_normal((30, 2)))
        with pytest.raises(ValueError, match='overflow when squared'):
            om.fit(pts, om.CidmConfig(k_nn=5, n_eigs=4))


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
        gram = cidm.inner(model, model.eig_phi, model.eig_phi)
        npt.assert_allclose(gram, np.eye(model.n_eigs), atol=1e-10)

    def test_spectral_range(self, noisy_circle):
        _, _, model = noisy_circle
        assert np.all(model.eig_xi >= 0.0)
        assert np.all(model.eig_xi <= 2.0)

    def test_degree_positivity(self, noisy_circle):
        _, _, model = noisy_circle
        assert np.all(model.degree >= 1.0)

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
        rng = np.random.default_rng(3)
        cloud = om.PointCloud(rng.standard_normal((40, 2)))
        d2 = dense_squared_distances(cloud.points)
        cfg = om.CidmConfig(k_nn=4, n_eigs=5)
        K, _, _ = dense_kernel_matrix(d2, knn_scales(cloud, 4), cfg)
        npt.assert_array_equal(K, K.T)
        cfg_dm = om.CidmConfig(k_nn=4, n_eigs=5, kernel_variant='cidm_dm_normalized')
        K_dm, _, _ = dense_kernel_matrix(d2, knn_scales(cloud, 4), cfg_dm)
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
        # the certified cutoff drops every cross weight between two clusters
        # 100 apart, at the default epsilon
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.standard_normal((20, 2)),
                         rng.standard_normal((20, 2)) + 100.0])
        with pytest.raises(om.DisconnectedGraphError, match='epsilon=1.0, k_nn=4'):
            om.fit(om.PointCloud(pts), om.CidmConfig(k_nn=4, n_eigs=6))

    def test_dm_normalized_variant_fits(self, circle300):
        cloud, _, base = circle300
        model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=10,
                                            kernel_variant='cidm_dm_normalized'))
        assert model.raw_degree is not None
        assert model.eig_xi[0] <= 1e-8
        # circle spectrum ratios survive the extra normalization
        assert 3.0 <= model.eig_xi[3] / model.eig_xi[1] <= 5.0

    def test_n_eigs_exceeding_n_rejected(self, monkeypatch):
        # refused before the O(N^2) scales and kernel are computed
        built = []
        for name in ('_training_scales', '_kernel_csr'):
            monkeypatch.setattr(cidm, name, lambda *args, name=name: built.append(name))
        pts = om.PointCloud(np.random.default_rng(0).standard_normal((10, 2)))
        with pytest.raises(ValueError, match=r'^n_eigs must be in \[1, 10\], got 11$'):
            om.fit(pts, om.CidmConfig(k_nn=3, n_eigs=11))
        assert built == []

    # 1e-160 squares to a subnormal that overflows the kernel's division
    # (an error under the suite's RuntimeWarning filter); 1e-10 cuts every
    # cross entry too
    @pytest.mark.parametrize('epsilon', [1e-160, 1e-10])
    def test_tiny_epsilon_disconnects_with_its_settings_named(self, epsilon):
        pts = om.PointCloud(np.random.default_rng(0).standard_normal((30, 2)))
        with pytest.raises(om.DisconnectedGraphError,
                           match=f'epsilon={epsilon!r}, k_nn=5; a larger epsilon or k_nn'):
            om.fit(pts, om.CidmConfig(k_nn=5, n_eigs=5, epsilon=epsilon))

    # inf squares to inf, 1e300 overflows when squared, 1e-200 squares to 0
    @pytest.mark.parametrize('epsilon', [np.inf, 1e300, 1e-200])
    def test_epsilon_square_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError, match='epsilon'):
            om.CidmConfig(k_nn=3, n_eigs=4, epsilon=epsilon)

    @pytest.mark.parametrize('field, value', [
        ('k_nn', 5.5), ('k_nn', True), ('k_nn', '5'), ('n_eigs', 4.0), ('n_eigs', False),
    ])
    def test_sizes_must_be_integers(self, field, value):
        sizes = {'k_nn': 5, 'n_eigs': 4, field: value}
        with pytest.raises(ValueError, match=f'^{field} must be an integer, got {value!r}$'):
            om.CidmConfig(**sizes)

    def test_numpy_integer_sizes_are_stored_as_ints(self, tmp_path):
        cfg = om.CidmConfig(k_nn=np.int64(5), n_eigs=np.int32(4))
        assert type(cfg.k_nn) is int and type(cfg.n_eigs) is int
        assert cfg == om.CidmConfig(k_nn=5, n_eigs=4)
        # the bundle manifest is JSON, which has no numpy integers
        pts = om.PointCloud(np.random.default_rng(0).standard_normal((30, 2)))
        om.save_bundle(tmp_path / 'm.bundle', om.ModelBundle(model=om.fit(pts, cfg)))
        assert om.load_bundle(tmp_path / 'm.bundle').model.config == cfg


def small_torus():
    cloud, _ = om.generate(om.SynthSpec(kind='torus', n_points=1000, seed=1))
    return cloud, om.CidmConfig(k_nn=24, n_eigs=40)


class TestCertifiedCutoff:
    """Exponential entries with z > ln N + KERNEL_TAIL are exactly 0."""

    @pytest.fixture(params=['fig2', 'torus'])
    def case(self, request):
        if request.param == 'fig2':
            model = request.getfixturevalue('fig2')['model']
            return model.training, model.config
        return small_torus()

    def test_dropped_row_mass_is_certified(self, case):
        cloud, cfg = case
        d2 = dense_squared_distances(cloud.points)
        scales = knn_scales(cloud, cfg.k_nn)
        K, _, _ = dense_kernel_matrix(d2, scales, cfg)
        z = d2 / np.outer(scales, scales) / cfg.epsilon ** 2
        uncut = np.exp(-z)
        kept = K != 0.0
        assert not kept.all()                      # the cutoff does drop entries
        npt.assert_array_equal(K[kept], uncut[kept])
        dropped = np.where(kept, 0.0, uncut).sum(axis=1)
        assert np.all(dropped <= np.exp(-KERNEL_TAIL) * uncut.sum(axis=1))
        assert np.exp(-KERNEL_TAIL) <= 1.3e-14

    def test_nystrom_row_keeps_the_fitted_support(self, case):
        cloud, cfg = case
        model = om.fit(cloud, cfg)
        K, _, _ = dense_kernel_matrix(dense_squared_distances(cloud.points), model.knn_scale, cfg)
        idx = np.arange(0, cloud.n_points, 7)
        weights = row_weights(model, cloud.points[idx])[0]
        npt.assert_array_equal(weights != 0.0, K[idx] != 0.0)

    @pytest.mark.parametrize('n_points', [40, 400, 4000])
    def test_clamp_before_exp_keeps_every_value(self, n_points):
        # the cut shape clamps z before the exp; the reference does not
        cut = np.log(n_points) + KERNEL_TAIL
        z = np.concatenate([
            np.linspace(0.0, 1e4, 20001),
            np.linspace(700.0, 750.0, 5001),            # subnormal and underflow exp
            [cut, np.nextafter(cut, 0.0), np.nextafter(cut, np.inf)],
            np.random.default_rng(n_points).uniform(0.0, 2.0 * cut, 5000),
        ])
        assert (z == cut).any() and (z > cut).any()
        ref = np.exp(-z)
        ref[z > cut] = 0.0
        # the cut shape reads the negated exponent -z
        got = cidm._cut_shape(np.negative(z), cut)
        npt.assert_array_equal(got, ref)

    @pytest.mark.parametrize('n_points', [40, 4000])
    def test_mask_multiply_matches_the_masked_store(self, n_points):
        # zeroing the cut entries by a 0/1 multiply gives the bits of a
        # masked store, signs of zeros and NaN included
        cut = np.log(n_points) + KERNEL_TAIL
        z = np.concatenate([
            [0.0, -0.0, cut, np.nextafter(cut, 0.0), np.nextafter(cut, np.inf),
             1e300, np.inf, np.nan],
            np.random.default_rng(n_points).uniform(0.0, 2.0 * cut, 5000),
        ])
        got = cidm._cut_shape(np.negative(z), cut)
        ref = reference_cut_shape(z.copy(), n_points)
        npt.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @staticmethod
    def symmetric_kernel(cloud, cfg):
        K, degree, _ = dense_kernel_matrix(dense_squared_distances(cloud.points),
                                           knn_scales(cloud, cfg.k_nn), cfg)
        return K / np.sqrt(np.outer(degree, degree))

    @staticmethod
    def spy_on_arpack(monkeypatch):
        """Record each operator handed to ARPACK and the traced bytes alive then."""
        calls = []

        def spy(op, **kwargs):
            calls.append((op, tracemalloc.get_traced_memory()[0]))
            return eigsh(op, **kwargs)

        monkeypatch.setattr(cidm, 'eigsh', spy)
        return calls

    def test_sparse_arpack_matches_dense_eigh(self, monkeypatch):
        cloud, cfg = small_torus()
        K_sym = self.symmetric_kernel(cloud, cfg)
        calls = self.spy_on_arpack(monkeypatch)
        half = half_kernel(K_sym)
        lam, V = cidm._top_eigenpairs(half, cfg.n_eigs)
        assert len(calls) == 1 and calls[0][0] is half
        N = cloud.n_points
        ref = eigh(K_sym, eigvals_only=True, subset_by_index=[N - cfg.n_eigs, N - 1])
        npt.assert_allclose(lam, ref[::-1], rtol=0, atol=1e-12)
        assert np.linalg.norm(K_sym @ V - V * lam, axis=0).max() <= 1e-10

    def test_fit_drops_the_dense_kernel_before_arpack(self, fig2, monkeypatch):
        model = fig2['model']
        calls = self.spy_on_arpack(monkeypatch)
        tracemalloc.start()
        try:
            om.fit(model.training, model.config)
        finally:
            tracemalloc.stop()
        (op, held), = calls
        assert isinstance(op, cidm._HalfKernel)
        # the fig2 kernel is 15 % dense: its full CSR form is 0.23 of the N^2
        # doubles that a dense K_sym alone would hold, and its half form (the
        # upper triangle and the diagonal) is 0.11; beyond the half form, the
        # fit holds a few N-vectors
        N = model.n_points
        assert held < half_bytes(op) + 16 * N * 8
        assert held < 0.15 * N ** 2 * 8


def half_kernel(K: np.ndarray) -> cidm._HalfKernel:
    """The dense symmetric ``K`` as a half kernel, its strict upper triangle
    split at column N // 2."""
    upper, h = np.triu(K, 1), K.shape[0] // 2
    left, right = upper.copy(), upper
    left[:, h:], right[:, :h] = 0.0, 0.0
    return cidm._HalfKernel(csr_array(left), csr_array(right), np.diag(K).copy())


def half_bytes(K: cidm._HalfKernel) -> int:
    """The bytes of a half kernel's arrays: both parts and the diagonal."""
    return K.diag.nbytes + sum(a.nbytes for S in (K.left, K.right)
                               for a in (S.data, S.indices, S.indptr))


def spy_on_both(monkeypatch) -> list:
    """Record the two pieces of work of each ``cidm._both`` call."""
    calls, both = [], cidm._both

    def spy(work, mine, theirs):
        calls.append((mine, theirs))
        return both(work, mine, theirs)

    monkeypatch.setattr(cidm, '_both', spy)
    return calls


def product_mode(monkeypatch, two_threads: bool) -> None:
    """Make every half kernel's product run its two halves on two threads,
    or every one inline, whatever the host; the other block work
    (``cidm._blockwise``, ``nystrom._rows``) runs on two threads or inline
    with it."""
    monkeypatch.setattr(cidm, '_TWO_THREAD_PANELS', 1 if two_threads else np.iinfo(np.int64).max)
    cpu_mode(monkeypatch, two_threads)


def cpu_mode(monkeypatch, two: bool) -> None:
    """Make the process look as if it may use two CPUs, or one."""
    monkeypatch.setattr(cidm, '_usable_cpus', lambda: 2 if two else 1)


def row_block_cases():
    fig2 = om.generate(om.SynthSpec(kind='circle', n_points=1500, noise_sigma=0.1, seed=7))[0]
    fig2_cfg = om.CidmConfig(k_nn=24, n_eigs=40)
    fig3 = om.generate(om.SynthSpec(kind='circle', n_points=800, noise_sigma=0.05, seed=7,
                                    density_profile='angle_skewed',
                                    noise_profile='angle_varying'))[0]
    rng = np.random.default_rng(11)
    return {
        # 43-row blocks: the last of the 35 blocks holds 38 rows
        'fig2': (fig2, fig2_cfg),
        'fig2-dm': (fig2, replace(fig2_cfg, kernel_variant='cidm_dm_normalized')),
        'fig2-epsilon': (fig2, replace(fig2_cfg, epsilon=0.7)),
        # a wide kernel: 32 % dense, against 15 % for fig2
        'fig2-wide': (fig2, replace(fig2_cfg, epsilon=2.0)),
        # the eigh-sized dense kernel of repro fig3: 68 % of the entries are
        # kept, so every block is more than half full; 81-row blocks, the last
        # of the 10 holding 71 rows
        'fig3': (fig3, om.CidmConfig(k_nn=80, n_eigs=48, epsilon=1.3)),
        # blocks of 218 and 82 rows
        'ragged': (om.PointCloud(rng.standard_normal((300, 3))), om.CidmConfig(k_nn=7, n_eigs=20)),
        # a full-spectrum fit, in the same two blocks
        'full-spectrum': (om.generate(om.SynthSpec(kind='circle', n_points=300, noise_sigma=0.05,
                                                   seed=3))[0],
                          om.CidmConfig(k_nn=8, n_eigs=300)),
        # 40 rows in a single block
        'one-block': (om.PointCloud(rng.standard_normal((40, 5))),
                      om.CidmConfig(k_nn=4, n_eigs=40, kernel_variant='cidm_dm_normalized')),
        # odd N: a 3-d blob of 200 points, whose rows keep most of the blob,
        # then a line of 201 points out of it, whose rows keep a few
        # neighbors each; the kernel's first diagonal block A holds about 7
        # times the entries of its second one, C
        'unbalanced': (om.PointCloud(np.vstack([
            rng.standard_normal((200, 3)),
            np.column_stack([np.linspace(0.0, 20.0, 201), np.zeros((201, 2))])])),
            om.CidmConfig(k_nn=8, n_eigs=20)),
        # the smallest kernel: one row on each side of h = 1
        'two-points': (om.PointCloud(np.array([[0.0, 0.0], [1.0, 0.5]])),
                       om.CidmConfig(k_nn=1, n_eigs=2)),
    }


class TestRowBlockKernel:
    """The row-block half kernel is the upper triangle and the diagonal of
    ``csr_array`` of the dense kernel, bit for bit; its product is the full
    product, and its dense lower triangle gives the eigenpairs of the full
    matrix, bit for bit."""

    @pytest.fixture(scope='class', params=list(row_block_cases()))
    def case(self, request):
        cloud, cfg = row_block_cases()[request.param]
        d2 = dense_squared_distances(cloud.points)
        scales, diameter = dense_training_scales(d2, cfg.k_nn)
        K, degree, raw_degree = dense_kernel_matrix(d2, scales, cfg)
        K /= np.sqrt(np.outer(degree, degree))
        ref = dict(K_sym=csr_array(K), knn_scale=scales, data_diameter=diameter,
                   degree=degree, raw_degree=raw_degree)
        return cloud, cfg, ref

    def test_csr_kernel_is_bit_identical(self, case):
        cloud, cfg, ref = case
        K, degree, raw_degree = cidm._kernel_csr(cloud.points, ref['knn_scale'], cfg)
        cidm._divide_entries(K, degree, root=True)
        want = half_kernel(ref['K_sym'].toarray())
        for part in ('left', 'right'):
            for name in ('indptr', 'indices', 'data'):
                npt.assert_array_equal(getattr(getattr(K, part), name),
                                       getattr(getattr(want, part), name), err_msg=part + name)
        npt.assert_array_equal(K.diag, ref['K_sym'].diagonal())
        # the fit holds (nnz + N) / 2 of the nnz kernel entries
        assert 2 * (K.left.nnz + K.right.nnz) + cloud.n_points == ref['K_sym'].nnz
        npt.assert_array_equal(K.dense_lower(), np.tril(ref['K_sym'].toarray()))
        npt.assert_array_equal(degree, ref['degree'])
        npt.assert_array_equal(raw_degree, ref['raw_degree'])

    def test_eigh_of_the_lower_triangle_is_bit_identical(self, case):
        # the hand-off to eigh holds only the lower triangle: eigh must read
        # that one, and get the bits of eigh of the full matrix
        cloud, cfg, ref = case
        K, degree, _ = cidm._kernel_csr(cloud.points, ref['knn_scale'], cfg)
        cidm._divide_entries(K, degree, root=True)
        lam, V = cidm._top_eigenpairs(K.dense_lower(), cfg.n_eigs)
        N = cloud.n_points
        ref_lam, ref_V = eigh(ref['K_sym'].toarray(), subset_by_index=[N - cfg.n_eigs, N - 1])
        order = np.argsort(ref_lam)[::-1]
        npt.assert_array_equal(lam, ref_lam[order])
        npt.assert_array_equal(V, ref_V[:, order])

    @pytest.mark.parametrize('panel_entries', ['default', 1])
    def test_half_kernel_product_is_bit_identical(self, case, panel_entries, monkeypatch):
        cloud, cfg, ref = case
        K, degree, _ = cidm._kernel_csr(cloud.points, ref['knn_scale'], cfg)
        cidm._divide_entries(K, degree, root=True)
        N = cloud.n_points
        if panel_entries == 1:
            monkeypatch.setattr(cidm, '_BLOCK_ENTRIES', 1)
            K = cidm._HalfKernel(K.left, K.right, K.diag)
            # a panel is one row, or rows that hold at most one stored entry;
            # the halves split at row h
            indptr = K.left.indptr + K.right.indptr
            top, bottom = K._panels
            assert all(b - a == 1 or indptr[b] - indptr[a] <= 1 for a, b in top + bottom)
            assert top[-1][1] == bottom[0][0] == N // 2 and bottom[-1][1] == N
        xs = np.random.default_rng(5).standard_normal((4, N))
        both = spy_on_both(monkeypatch)
        for two_threads in (False, True):
            product_mode(monkeypatch, two_threads)
            both.clear()
            for x in xs:
                npt.assert_array_equal(K.matvec(x), ref['K_sym'] @ x)
            # one two-thread call a product, or none
            assert len(both) == len(xs) * two_threads

    def test_two_cores_give_the_inline_kernel(self, case, monkeypatch):
        # the block passes split over two threads, alternate blocks on each,
        # give the scales, the diameter and the kernel of the inline passes
        cloud, cfg, ref = case
        out = {}
        for two in (False, True):
            cpu_mode(monkeypatch, two)
            scales, diameter = cidm._training_scales(cloud.points, cfg.k_nn)
            K, degree, raw_degree = cidm._kernel_csr(cloud.points, ref['knn_scale'], cfg)
            out[two] = dict(scales=scales, diameter=diameter, diag=K.diag, degree=degree,
                            raw_degree=raw_degree)
            for part in ('left', 'right'):
                S = getattr(K, part)
                out[two].update({part + name: getattr(S, name)
                                 for name in ('indptr', 'indices', 'data')})
        for name, want in out[False].items():
            npt.assert_array_equal(out[True][name], want, err_msg=name)
        npt.assert_array_equal(out[True]['scales'], ref['knn_scale'])

    def test_csr_kernel_has_int32_indices(self, case):
        cloud, cfg, ref = case
        K = cidm._kernel_csr(cloud.points, ref['knn_scale'], cfg)[0]
        for S in (K.left, K.right):
            assert S.indices.dtype == np.int32
            assert S.indptr.dtype == np.int32

    def test_fit_hands_arpack_an_int32_csr(self, fig2, monkeypatch):
        model = fig2['model']
        calls = TestCertifiedCutoff.spy_on_arpack(monkeypatch)
        om.fit(model.training, model.config)
        (op, _), = calls
        assert isinstance(op, cidm._HalfKernel)
        for S in (op.left, op.right):
            assert isinstance(S, csr_array)
            assert S.indices.dtype == np.int32 and S.indptr.dtype == np.int32

    def test_fitted_model_is_bit_identical(self, case):
        cloud, cfg, ref = case
        model = om.fit(cloud, cfg)
        for name in ('knn_scale', 'degree', 'raw_degree'):
            npt.assert_array_equal(getattr(model, name), ref[name], err_msg=name)
        assert model.data_diameter == ref['data_diameter']
        npt.assert_array_equal(knn_scales(cloud, cfg.k_nn), ref['knn_scale'])

    def test_single_row_blocks(self, monkeypatch):
        cloud, cfg = row_block_cases()['one-block']
        ref = om.fit(cloud, cfg)
        monkeypatch.setattr(cidm, '_BLOCK_ENTRIES', 1)
        model = om.fit(cloud, cfg)
        for name in ('knn_scale', 'degree', 'raw_degree', 'eig_xi', 'eig_phi'):
            npt.assert_array_equal(getattr(model, name), getattr(ref, name), err_msg=name)

    def test_fit_peaks_below_one_dense_array(self, fig2):
        model = fig2['model']
        tracemalloc.start()
        try:
            om.fit(model.training, model.config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one N x N float64 array is 17.2 MiB at the fig2 size (N=1500)
        assert peak < model.n_points ** 2 * 8

    def test_kernel_csr_holds_one_copy(self, fig2):
        # the kept entries right of the diagonal and the diagonal, (nnz + N) / 2
        # of the nnz kernel entries, are written once into arrays of their
        # exact size: beyond them, the build holds a few row blocks at a time
        model = fig2['model']
        tracemalloc.start()
        try:
            K = cidm._kernel_csr(model.training.points, model.knn_scale, model.config)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= half_bytes(K) + 6 * cidm._BLOCK_ENTRIES * 8

    def test_two_core_kernel_holds_one_copy(self, fig2, monkeypatch):
        # each thread walks its blocks with buffers of its own: the bound holds
        cpu_mode(monkeypatch, True)
        self.test_kernel_csr_holds_one_copy(fig2)


class TestTwoCoreProduct:
    """ARPACK's products compute their two halves of rows on two threads, in
    one ``cidm._both`` call each, when the kernel has enough panels and the
    process two CPUs; the fit's bits do not depend on it, and the two
    threads are the caller, for the top half, and the process's one helper,
    ``onmanifold-helper``, for the bottom half."""

    @staticmethod
    def spy_on_halves(monkeypatch, fail=None) -> dict:
        """Record the threads of the sparse calls ``csc_matvec`` and
        ``csr_matvec`` of each half of the rows (0, 1) under ``(name,
        half)``; with ``fail = (name, half, k)``, call k of ``name`` in
        ``half`` raises instead."""
        calls, where, rows = {}, threading.local(), cidm._HalfKernel._rows

        def run(self, half, *args):
            where.half = half
            try:
                rows(self, half, *args)
            finally:
                where.half = None

        monkeypatch.setattr(cidm._HalfKernel, '_rows', run)
        for name in ('csc_matvec', 'csr_matvec'):
            def spy(*args, _name=name, _call=getattr(cidm, name)):
                threads = calls.setdefault((_name, where.half), [])
                threads.append(threading.current_thread())
                if fail == (_name, where.half, len(threads)):
                    raise RuntimeError(f'{_name} failed')
                _call(*args)

            monkeypatch.setattr(cidm, name, spy)
        return calls

    def test_fit_bits_do_not_depend_on_the_mode(self, torus_assets, monkeypatch):
        # the N=1500 torus kernel has 7 panels; a two-thread fit computes the
        # bottom halves on the process's helper thread, which idles when it
        # returns
        cloud, _, model, _, _ = torus_assets
        fits = {}
        for two_threads in (False, True):
            product_mode(monkeypatch, two_threads)
            calls = self.spy_on_halves(monkeypatch)
            fits[two_threads] = om.fit(cloud, model.config)
            threads = [{t.name for (_, h), ts in calls.items() if h == half for t in ts}
                       for half in (0, 1)]
            me = threading.current_thread().name
            assert threads == [{me}, {HELPER if two_threads else me}]
        assert [t.name for t in threading.enumerate()
                if t.name.startswith('onmanifold')] == [HELPER]
        for name in ('eig_xi', 'eig_phi', 'degree'):
            npt.assert_array_equal(getattr(fits[True], name), getattr(fits[False], name),
                                   err_msg=name)

    def test_small_kernels_and_one_cpu_run_inline(self, fig2, torus_assets, monkeypatch):
        model = fig2['model']
        small = cidm._kernel_csr(model.training.points, model.knn_scale, model.config)[0]
        model = torus_assets[2]
        large = cidm._kernel_csr(model.training.points, model.knn_scale, model.config)[0]
        n_panels = [sum(map(len, K._panels)) for K in (small, large)]
        assert n_panels[0] < cidm._TWO_THREAD_PANELS <= n_panels[1]
        calls = self.spy_on_halves(monkeypatch)
        me = threading.current_thread().name
        for cpus, two_threads in (({0}, False), ({0, 1}, True)):
            monkeypatch.setattr(cidm.os, 'sched_getaffinity', lambda pid: cpus, raising=False)
            for K, split in ((small, False), (large, two_threads)):
                calls.clear()
                K.matvec(np.ones(K.shape[0]))
                # half 1 ran on the helper exactly when the product split
                assert {t.name for (_, h), ts in calls.items() if h == 1 for t in ts} == {
                    HELPER if split else me}

    @pytest.mark.parametrize('two_threads', [False, True])
    @pytest.mark.parametrize('half', [0, 1], ids=['top', 'bottom'])
    @pytest.mark.parametrize('name', ['csc_matvec', 'csr_matvec'])
    def test_an_error_in_either_half_is_raised_from_the_fit(self, torus_assets, monkeypatch,
                                                            name, half, two_threads):
        cloud, _, model, _, _ = torus_assets
        product_mode(monkeypatch, two_threads)
        calls = self.spy_on_halves(monkeypatch, fail=(name, half, 3))
        before = set(threading.enumerate())
        raised = []

        def run():
            try:
                om.fit(cloud, model.config)
            except RuntimeError as exc:
                raised.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive()
        assert [str(exc) for exc in raised] == [f'{name} failed']
        failed_on = calls[name, half][-1]
        assert (failed_on is not caller) == (two_threads and half == 1)
        # no thread but the helper is left, and the helper still serves
        assert {t.name for t in set(threading.enumerate()) - before} <= {HELPER}
        if two_threads:
            assert cidm._both(lambda _: threading.current_thread().name, 0, 1)[1] == HELPER

    def test_import_starts_no_thread(self):
        src = os.path.dirname(os.path.dirname(om.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get('PYTHONPATH')])))
        code = 'import threading, onmanifold.cli; print(threading.active_count())'
        done = subprocess.run([sys.executable, '-c', code], env=env, check=True,
                              capture_output=True, text=True)
        assert done.stdout.split() == ['1']


@pytest.fixture
def fresh_executor(monkeypatch):
    """A process that may use two CPUs and has no helper yet; the helper
    that the test starts is shut down after it."""
    cpu_mode(monkeypatch, True)
    monkeypatch.setattr(cidm, '_EXECUTOR', None)
    monkeypatch.setattr(cidm, '_EXECUTOR_LOCK', threading.Lock())
    yield
    if cidm._EXECUTOR is not None:
        cidm._EXECUTOR.shutdown(wait=False)


def current_thread(_) -> threading.Thread:
    return threading.current_thread()


class TestBoth:
    """``cidm._both``, the package's one two-core entry, decides by itself
    whether the second piece of work runs on the helper or inline."""

    def test_first_calls_at_once_start_one_helper(self, fresh_executor, monkeypatch):
        # two threads make their first hand-off together, while the executor
        # takes 0.1 s to start: both hand off to the one helper it starts
        started, executor = [], cidm.ThreadPoolExecutor

        def slow_start(*args, **kwargs):
            time.sleep(0.1)
            started.append(executor(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(cidm, 'ThreadPoolExecutor', slow_start)
        barrier, helpers = threading.Barrier(2), []

        def first_call():
            barrier.wait()
            helpers.append(cidm._both(current_thread, 0, 1)[1])

        callers = [threading.Thread(target=first_call, daemon=True) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert len(started) == 1 and cidm._EXECUTOR is started[0]
        assert len(helpers) == 2 and helpers[0] is helpers[1] and helpers[0].name == HELPER

    def test_a_call_on_the_helper_runs_inline(self, fresh_executor):
        # the helper never waits for its own queue
        def work(part):
            if part == 'theirs':
                return tuple(t.name for t in cidm._both(current_thread, 0, 1))
            return part

        done = []
        caller = threading.Thread(target=lambda: done.append(cidm._both(work, 'mine', 'theirs')),
                                  daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert done == [('mine', (HELPER, HELPER))]

    def test_the_callers_error_waits_for_the_helper(self, fresh_executor):
        # each half may write into arrays the caller reads: the caller's
        # error is raised once the helper's half has finished, and first
        finished = []

        def work(part):
            if part == 'mine':
                raise RuntimeError('mine failed')
            time.sleep(0.2)
            finished.append(part)
            raise RuntimeError('theirs failed')

        with pytest.raises(RuntimeError, match='^mine failed$'):
            cidm._both(work, 'mine', 'theirs')
        assert finished == ['theirs']

    @pytest.mark.parametrize('started', [False, True], ids=['no-helper', 'helper'])
    def test_a_fit_at_exit_completes(self, started):
        # an atexit handler runs after the executor has begun to shut down,
        # when it refuses work: the fit and a split batch of rows then run
        # inline, with the bits of the same work before exit, done inline
        # (no helper started) or on two threads (the helper started)
        code = textwrap.dedent(f"""
            import atexit, hashlib
            import onmanifold as om
            from onmanifold import cidm

            cloud = om.generate(om.SynthSpec(kind='circle', n_points=400, noise_sigma=0.1,
                                             seed=7))[0]

            def digest():
                model = om.fit(cloud, om.CidmConfig(k_nn=16, n_eigs=12))
                values = om.eigenfunction_values(model, cloud.points[:200], 12)
                return hashlib.sha256(model.eig_phi.tobytes() + values.tobytes()).hexdigest()

            cidm._usable_cpus = lambda: {2 if started else 1}
            print(digest())
            cidm._usable_cpus = lambda: 2       # hand off wherever this runs
            atexit.register(lambda: print(digest()))
            """)
        src = os.path.dirname(os.path.dirname(om.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get('PYTHONPATH')])))
        done = subprocess.run([sys.executable, '-c', code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stderr == ''
        before, at_exit = done.stdout.split()
        assert at_exit == before

class TestPointCloud:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        cloud = om.PointCloud(rng.standard_normal((17, 3)))
        path = tmp_path / 'pts.csv'
        _write_csv(path, cloud.points, force=False)
        assert path.read_text().splitlines() == [','.join('%.17g' % v for v in row)
                                                 for row in cloud.points]
        npt.assert_array_equal(om.PointCloud.from_csv(path).points, cloud.points)

    @pytest.mark.parametrize('bad', [
        np.ones((1, 2)),                       # too few points
        np.array([[np.nan, 0.0], [0.0, 1.0]]),  # non-finite
    ])
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            om.PointCloud(bad)
