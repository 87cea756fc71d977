import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest

import onmanifold as om
from onmanifold import nystrom
from onmanifold.cidm import KERNEL_TAIL

from conftest import reference_kernel_rows


class TestExtendEigenfunction:
    def test_constant_mode_is_one_everywhere(self, noisy_circle):
        _, _, model = noisy_circle
        rng = np.random.default_rng(0)
        for x in rng.uniform(-2, 2, size=(10, 2)):
            assert om.extend_eigenfunction(model, 0, x) == pytest.approx(1.0, abs=1e-12)

    def test_interpolates_training_values(self, circle_full):
        cloud, _, model = circle_full
        for i in (0, 41, 99, 180):
            for ell in (1, 3, 7):
                got = om.extend_eigenfunction(model, ell, cloud.points[i])
                assert got == pytest.approx(model.eig_phi[i, ell],
                                            rel=1e-8, abs=1e-10)

    def test_harmonic_between_samples(self, circle300):
        # off-sample values of the first harmonic pair follow a fitted
        # a*cos(theta) + b*sin(theta) to a couple percent RMS
        cloud, params, model = circle300
        theta_train = np.radians(params[:, 0])
        design = np.column_stack([np.cos(theta_train), np.sin(theta_train)])
        theta_q = np.radians(np.linspace(0.3, 359.0, 61))
        queries = np.column_stack([np.cos(theta_q), np.sin(theta_q)])
        for ell in (1, 2):
            coef, *_ = np.linalg.lstsq(design, model.eig_phi[:, ell], rcond=None)
            predicted = np.column_stack([np.cos(theta_q), np.sin(theta_q)]) @ coef
            got = np.array([om.extend_eigenfunction(model, ell, q) for q in queries])
            rms = np.sqrt(np.mean((got - predicted) ** 2))
            assert rms <= 0.02 * np.sqrt(np.mean(predicted ** 2))

    def test_small_eigenvalue_raises(self, circle_full):
        _, _, model = circle_full
        doctored = om.CidmModel(
            training=model.training, config=model.config,
            knn_scale=model.knn_scale, degree=model.degree,
            eig_xi=np.concatenate([model.eig_xi[:-1], [1.0]]),  # lambda = 0
            eig_phi=model.eig_phi, data_diameter=model.data_diameter)
        with pytest.raises(om.SmallEigenvalueError):
            om.extend_eigenfunction(doctored, model.n_eigs - 1, np.array([0.5, 0.5]))


class TestDiffusionMap:
    def test_training_point_matches_rows(self, circle_full):
        cloud, _, model = circle_full
        got = om.diffusion_map(model, 6, cloud.points[17])
        npt.assert_allclose(got, model.eig_phi[17, 1:7], rtol=1e-8, atol=1e-10)

    def test_pure_function_of_input(self, noisy_circle):
        _, _, model = noisy_circle
        a, b = np.array([1.3, 0.2]), np.array([-0.4, 0.9])
        npt.assert_array_equal(om.diffusion_map(model, 5, a),
                               om.diffusion_map(model, 5, a))
        swapped = np.array([om.diffusion_map(model, 5, b), om.diffusion_map(model, 5, a)])
        direct = np.array([om.diffusion_map(model, 5, a), om.diffusion_map(model, 5, b)])
        npt.assert_array_equal(swapped[::-1], direct)

    def test_grid_continuity(self, fig2):
        # adjacent grid evaluations change smoothly: bounded by 10x the grid
        # spacing times the max gradient magnitude over the ring
        model = fig2['model']
        theta = np.linspace(0, 2 * np.pi, 120, endpoint=False)
        ring = 1.2 * np.column_stack([np.cos(theta), np.sin(theta)])
        vals = np.vstack([om.diffusion_map(model, 4, q) for q in ring])
        grads = np.stack([om.diffusion_map_jacobian(model, 5, q)[1:] for q in ring])
        step = np.linalg.norm(ring[1] - ring[0])
        max_grad = np.abs(grads).max()
        jumps = np.linalg.norm(np.diff(vals, axis=0), axis=1)
        assert jumps.max() <= 10.0 * step * max_grad

    def test_skip_constant_convention(self, noisy_circle):
        _, _, model = noisy_circle
        with pytest.raises(ValueError):
            om.diffusion_map(model, model.n_eigs, np.array([1.0, 0.0]))


class TestFourierCoefficients:
    def test_eigenvector_maps_to_unit_vector(self, circle300):
        _, _, model = circle300
        coeffs = om.fourier_coefficients(model, model.eig_phi[:, 2], 10)
        expected = np.zeros(10)
        expected[2] = 1.0
        npt.assert_allclose(coeffs, expected, atol=1e-10)

    def test_constant_column(self, circle300):
        _, _, model = circle300
        coeffs = om.fourier_coefficients(model, np.full((300, 1), 3.7), 8)
        npt.assert_allclose(coeffs[0, 0], 3.7, rtol=1e-12)
        npt.assert_allclose(coeffs[1:, 0], 0.0, atol=1e-10)

    def test_full_round_trip(self, circle_full):
        _, _, model = circle_full
        rng = np.random.default_rng(12)
        f = rng.standard_normal(model.n_points)
        coeffs = om.fourier_coefficients(model, f, model.n_eigs)
        recon = model.eig_phi @ coeffs
        npt.assert_allclose(recon, f, rtol=0, atol=1e-8 * np.abs(f).max())


class TestExtendFunction:
    def test_interpolation_with_full_spectrum(self, circle_full):
        cloud, _, model = circle_full
        rng = np.random.default_rng(7)
        f = rng.standard_normal(model.n_points)
        coeffs = om.fourier_coefficients(model, f, model.n_eigs)
        got = om.extend_function(model, coeffs, cloud.points[::19])
        npt.assert_allclose(got, f[::19], atol=1e-8 * np.abs(f).max())

    def test_truncation_residual_monotone(self, circle_full):
        _, _, model = circle_full
        rng = np.random.default_rng(8)
        f = rng.standard_normal(model.n_points)
        w = model.inner_weights
        residuals = []
        for l_trunc in (5, 20, 60, 120, 200):
            coeffs = om.fourier_coefficients(model, f, l_trunc)
            recon = model.eig_phi[:, :l_trunc] @ coeffs
            residuals.append(np.sqrt(w @ (recon - f) ** 2))
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_fig1_annulus_follows_nearest_point_values(self, circle300):
        # off-manifold queries pick up approximately the value at the
        # nearest on-circle point
        from scipy.spatial import cKDTree
        from onmanifold.synth import fig1_target_function
        cloud, params, model = circle300
        target = fig1_target_function(params[:, 0])
        coeffs = om.fourier_coefficients(model, target, 20)
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, 2 * np.pi, 200)
        radii = rng.uniform(0.5, 2.0, 200)
        queries = np.column_stack([radii * np.cos(theta), radii * np.sin(theta)])
        got = om.extend_function(model, coeffs, queries)
        _, idx = cKDTree(cloud.points).query(queries)
        nearest = target[idx]
        rms = np.sqrt(np.mean((got - nearest) ** 2))
        assert rms <= 0.10 * np.sqrt(np.mean(target ** 2))


class TestProjector:
    def test_full_spectrum_identity_on_training(self, circle_clean_full):
        cloud, _, model = circle_clean_full
        projector = om.build_projector(model, model.n_eigs)
        for i in (3, 77, 150):
            got = om.project(projector, cloud.points[i], 1)
            npt.assert_allclose(got, cloud.points[i], rtol=1e-8, atol=1e-8)

    def test_single_mode_maps_to_mean(self, noisy_circle):
        cloud, _, model = noisy_circle
        projector = om.build_projector(model, 1)
        mean = om.inner(model, cloud.points, np.ones(model.n_points))
        got = om.project(projector, np.array([1.4, -0.3]), 1)
        npt.assert_allclose(got, mean, rtol=1e-10)

    def test_projection_shrinks_training_radius_spread(self, fig2):
        radii_in = np.linalg.norm(fig2['cloud'].points, axis=1)
        radii_out = np.linalg.norm(fig2['train_proj'], axis=1)
        assert radii_out.std() < radii_in.std()

    def test_grid_lands_near_circle(self, fig2):
        radii = np.linalg.norm(fig2['proj2'], axis=1)
        assert np.mean(np.abs(radii - 1.0) <= 0.05) >= 0.95

    def test_second_application_contracts(self, fig2):
        disp1 = np.linalg.norm(fig2['proj1'] - fig2['grid'], axis=1)
        proj1_again = om.project_many(fig2['projector'], fig2['proj1'], 1)
        disp2 = np.linalg.norm(proj1_again - fig2['proj1'], axis=1)
        near = disp1 <= fig2['model'].data_diameter
        assert np.median(disp2[near] / np.maximum(disp1[near], 1e-12)) <= 0.1

    def test_far_field_stays_bounded(self, noisy_circle):
        cloud, _, model = noisy_circle
        projector = om.build_projector(model, 20)
        max_radius = np.linalg.norm(cloud.points, axis=1).max()
        for far in ([1e3, 0.0], [0.0, -1e6], [3e5, 4e5]):
            got = om.project(projector, np.array(far, dtype=float), 1)
            assert np.linalg.norm(got) <= 1.5 * max_radius

    def test_iterations_must_be_positive(self, noisy_circle):
        _, _, model = noisy_circle
        projector = om.build_projector(model, 10)
        with pytest.raises(ValueError):
            om.project(projector, np.array([1.0, 0.0]), 0)


def central_difference(fn, x, h):
    g = np.zeros_like(x)
    for d in range(x.shape[0]):
        e = np.zeros_like(x)
        e[d] = h
        g[d] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


class TestGradients:
    def test_constant_mode_gradient_is_zero(self, noisy_circle):
        _, _, model = noisy_circle
        g = om.grad_eigenfunction(model, 0, np.array([0.7, 0.8]))
        npt.assert_allclose(g, 0.0, atol=1e-14)

    def test_matches_central_differences(self, noisy_circle):
        _, _, model = noisy_circle
        rng = np.random.default_rng(14)
        h = 1e-5 * model.data_diameter
        for _ in range(10):
            theta, r = rng.uniform(0, 2 * np.pi), rng.uniform(0.8, 1.3)
            x = np.array([r * np.cos(theta), r * np.sin(theta)])
            for ell in (1, 2, 5):
                got = om.grad_eigenfunction(model, ell, x)
                fd = central_difference(
                    lambda q: om.extend_eigenfunction(model, ell, q), x, h)
                assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_rotation_equivariance(self, noisy_circle):
        # rotate the model data and the query together; the eigenbasis is a
        # function of distances only, so reuse it rather than refitting (a
        # refit regauges near-degenerate eigenpairs)
        cloud, _, model = noisy_circle
        angle = 0.83
        R = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])
        rotated = om.CidmModel(
            training=om.PointCloud(cloud.points @ R.T), config=model.config,
            knn_scale=model.knn_scale, degree=model.degree,
            eig_xi=model.eig_xi, eig_phi=model.eig_phi,
            data_diameter=model.data_diameter)
        x = np.array([1.05, 0.21])
        for ell in (1, 4):
            g = om.grad_eigenfunction(model, ell, x)
            g_rot = om.grad_eigenfunction(rotated, ell, R @ x)
            npt.assert_allclose(g_rot, R @ g, rtol=1e-9, atol=1e-12)

    def test_knn_boundary_raises_at_center(self, circle300):
        _, _, model = circle300
        # the circle center is equidistant from every training point
        with pytest.raises(om.KnnBoundaryError):
            om.grad_eigenfunction(model, 1, np.array([0.0, 0.0]))

    def test_indicator_shape_rejected(self):
        cloud, _ = om.generate(om.SynthSpec(kind='circle', n_points=64, seed=0))
        model = om.fit(cloud, om.CidmConfig(k_nn=4, n_eigs=6, shape='indicator',
                                            epsilon=4.0))
        with pytest.raises(ValueError):
            om.grad_eigenfunction(model, 1, np.array([1.1, 0.0]))


class TestRestrictedLossGradient:
    def test_zero_oracle_gives_zero(self, noisy_circle):
        _, _, model = noisy_circle
        projector = om.build_projector(model, 15)
        g = om.restricted_loss_gradient(projector, lambda y: np.zeros(2),
                                        np.array([0.9, 0.5]))
        npt.assert_allclose(g, 0.0, atol=1e-14)

    def test_linear_loss_matches_composite_fd(self, noisy_circle):
        _, _, model = noisy_circle
        projector = om.build_projector(model, 15)
        c = np.array([0.6, -1.1])
        loss = lambda x: c @ om.project(projector, x, 1)
        h = 1e-5 * model.data_diameter
        rng = np.random.default_rng(3)
        for _ in range(6):
            theta, r = rng.uniform(0, 2 * np.pi), rng.uniform(0.85, 1.25)
            x = np.array([r * np.cos(theta), r * np.sin(theta)])
            got = om.restricted_loss_gradient(projector, lambda y: c, x)
            fd = central_difference(loss, x, h)
            assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_gradient_lies_along_recovered_manifold(self, noisy_circle):
        # the restricted gradient is tangent to the learned manifold: align
        # it with a numerical tangent of the recovered curve (the ideal
        # circle's tangent is biased here because the recovered radius
        # varies with angle)
        cloud, params, model = noisy_circle
        projector = om.build_projector(model, 20)
        c = np.array([1.0, 0.4])
        h = 1e-4
        for i in (10, 33, 90, 150, 210, 260):
            theta = np.radians(params[i, 0])
            x = om.project(projector, cloud.points[i], 2)
            a = om.project(projector, np.array([np.cos(theta + h), np.sin(theta + h)]), 1)
            b = om.project(projector, np.array([np.cos(theta - h), np.sin(theta - h)]), 1)
            t_rec = (a - b) / np.linalg.norm(a - b)
            g = om.restricted_loss_gradient(projector, lambda y: c, x)
            assert abs(g @ t_rec) / np.linalg.norm(g) >= 0.97

    def test_radial_loss_gradient_is_suppressed(self, noisy_circle):
        # |y|^2/2 is nearly constant along the recovered circle, so its
        # restricted gradient collapses relative to the raw gradient
        cloud, _, model = noisy_circle
        projector = om.build_projector(model, 20)
        for i in (10, 90, 210):
            x = om.project(projector, cloud.points[i], 2)
            g = om.restricted_loss_gradient(projector, lambda y: y, x)
            raw = om.project(projector, x, 1)
            assert np.linalg.norm(g) <= 0.1 * np.linalg.norm(raw)


    def test_one_kernel_row_per_gradient(self, noisy_circle, monkeypatch):
        # the c04 queries, against the two-row formula: the Jacobian's row
        # and a separate single-iteration projection
        _, _, model = noisy_circle
        projector = om.build_projector(model, 15)
        rows = nystrom._kernel_rows
        calls = []

        def counted(model, queries):
            calls.append(queries.shape[0])
            return rows(model, queries)

        monkeypatch.setattr(nystrom, '_kernel_rows', counted)
        rng = np.random.default_rng(101)
        for _ in range(100):
            theta, r = rng.uniform(0, 2 * np.pi), rng.uniform(0.8, 1.3)
            x = np.array([r * np.cos(theta), r * np.sin(theta)])
            jac = om.diffusion_map_jacobian(model, 15, x)
            target = om.project_many(projector, x, iterations=1)
            want = jac.T @ (projector.xhat @ (target - 0.3))
            seen, calls[:] = [], []
            got = om.restricted_loss_gradient(projector, lambda y: seen.append(y) or y - 0.3, x)
            assert calls == [1]
            npt.assert_array_equal(seen[0], target)
            npt.assert_array_equal(got, want)


class TestKernelVariants:
    def test_dm_normalized_extension_interpolates(self, circle300):
        cloud, _, _ = circle300
        model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=30,
                                            kernel_variant='cidm_dm_normalized'))
        for i in (5, 150):
            for ell in (1, 4):
                got = om.extend_eigenfunction(model, ell, cloud.points[i])
                assert got == pytest.approx(model.eig_phi[i, ell], rel=1e-8, abs=1e-10)

    def test_dm_normalized_gradient_matches_fd(self, circle300):
        cloud, _, _ = circle300
        model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=30,
                                            kernel_variant='cidm_dm_normalized'))
        x = np.array([1.08, 0.17])
        h = 1e-5 * model.data_diameter
        got = om.grad_eigenfunction(model, 2, x)
        fd = central_difference(lambda q: om.extend_eigenfunction(model, 2, q), x, h)
        assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_indicator_kernel_outside_support_raises(self):
        cloud, _ = om.generate(om.SynthSpec(kind='circle', n_points=64, seed=0))
        model = om.fit(cloud, om.CidmConfig(k_nn=4, n_eigs=6, shape='indicator',
                                            epsilon=2.0))
        with pytest.raises(om.GeometryError):
            om.extend_eigenfunction(model, 1, np.array([50.0, 0.0]))


class TestBadQueries:
    @pytest.mark.filterwarnings('error')
    @pytest.mark.parametrize('bad', [[np.nan, 1.0], [np.inf, 0.0], [1e200, 0.0],
                                     [1.0, 2.0, 3.0]],
                             ids=['nan', 'inf', 'overflow', 'wrong-dimension'])
    @pytest.mark.parametrize('entry', ['eigenfunction_values', 'project_many',
                                       'diffusion_map_jacobian'])
    def test_named_value_error(self, noisy_circle, bad, entry):
        _, _, model = noisy_circle
        bad = np.array(bad)
        if bad.shape[0] != model.training.ambient_dim:
            match = 'query dimension 3 does not match the training dimension 2'
            batch = np.vstack([np.zeros(3), bad])
        else:
            row = 1 if entry == 'project_many' else 0
            match = f'query row {row}: the query or its squared distances .* not finite'
            batch = np.vstack([[1.0, 0.0], bad, [0.0, 1.0]])
        with pytest.raises(ValueError, match=match):
            if entry == 'eigenfunction_values':
                om.eigenfunction_values(model, bad, 3)
            elif entry == 'project_many':
                om.project_many(om.build_projector(model, 15), batch)
            else:
                om.diffusion_map_jacobian(model, 3, bad)

    @pytest.mark.parametrize('bad', [[np.nan, 1.0], [np.inf, 0.0], [1e200, 0.0],
                                     [1.0, 2.0, 3.0]],
                             ids=['nan', 'inf', 'overflow', 'wrong-dimension'])
    @pytest.mark.parametrize('entry', ['eigenfunction_values', 'project_many',
                                       'diffusion_map_jacobian'])
    def test_named_error_type(self, noisy_circle, bad, entry):
        _, _, model = noisy_circle
        bad = np.array(bad)
        with pytest.raises(om.InvalidQueryError) as info:
            if entry == 'eigenfunction_values':
                om.eigenfunction_values(model, bad, 3)
            elif entry == 'project_many':
                om.project_many(om.build_projector(model, 15), bad)
            else:
                om.diffusion_map_jacobian(model, 3, bad)
        assert isinstance(info.value, om.GeometryError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize('shape', [(), (1, 2), (2, 2), (1, 1, 2)])
    @pytest.mark.parametrize('entry', ['diffusion_map_jacobian', 'grad_eigenfunction',
                                       'restricted_loss_gradient', 'extend_eigenfunction',
                                       'tangent_frame_at', 'local_pca_tangent',
                                       'semantic_labels'])
    def test_single_point_entries_name_the_shape(self, circle300, circle_sec, entry, shape):
        cloud, params, model = circle300
        frame, fhat = circle_sec
        calls = {
            'diffusion_map_jacobian': lambda x: om.diffusion_map_jacobian(model, 3, x),
            'grad_eigenfunction': lambda x: om.grad_eigenfunction(model, 1, x),
            'restricted_loss_gradient': lambda x: om.restricted_loss_gradient(
                om.build_projector(model, 10), lambda y: y, x),
            'extend_eigenfunction': lambda x: om.extend_eigenfunction(model, 1, x),
            'tangent_frame_at': lambda x: om.tangent_frame_at(model, frame, fhat, x, 1),
            'local_pca_tangent': lambda x: om.local_pca_tangent(cloud, x, 10, 1),
            'semantic_labels': lambda x: om.semantic_labels(
                model, om.semantic_map(model, params, [True], 10), x),
        }
        with pytest.raises(om.InvalidQueryError, match=re.escape(f'shape {shape}')):
            calls[entry](np.full(shape, 0.5))


class TestPartitionOfUnity:
    def test_weights_sum_to_one(self, noisy_circle):
        _, _, model = noisy_circle
        from onmanifold.nystrom import _kernel_rows
        rng = np.random.default_rng(2)
        queries = np.vstack([rng.uniform(-3, 3, size=(20, 2)), model.training.points[:5]])
        weights, _, _, _ = _kernel_rows(model, queries)
        npt.assert_allclose(weights.sum(axis=1), 1.0, rtol=1e-12)

    def test_idempotence_near_manifold(self, fig2):
        # empirical near-retraction: a second application moves points by a
        # small fraction of the first displacement.  Aggregated over the
        # grid (the retraction degrades pointwise near the medial axis,
        # where the projection target is ill-conditioned).
        projector, model = fig2['projector'], fig2['model']
        p1, grid = fig2['proj1'], fig2['grid']
        p2 = om.project_many(projector, p1, 1)
        lhs = np.linalg.norm(p2 - p1, axis=1)
        rhs = np.linalg.norm(p1 - grid, axis=1)
        keep = rhs > 0.05 * model.data_diameter
        ratios = lhs[keep] / rhs[keep]
        assert np.median(ratios) <= 0.1
        assert np.percentile(ratios, 90) <= 0.3


def _variant(**kw):
    """A small noisy circle fitted with one kernel setting changed, and
    queries near it."""
    cloud, _ = om.generate(om.SynthSpec(kind='circle', n_points=300, noise_sigma=0.05, seed=3))
    model = om.fit(cloud, om.CidmConfig(k_nn=10, n_eigs=20, **kw))
    near = cloud.points + np.random.default_rng(8).normal(scale=0.02, size=cloud.points.shape)
    return model, near


def _pgd_iterates(run):
    return np.vstack([np.vstack([s.x_on, s.x_stepped, s.x_next]) for s in run['trace'].steps])


#: Case -> ``request -> (model, queries)`` for the reference-row comparison.
REFERENCE_ROW_CASES = {
    'fig2-grid': lambda r: (r.getfixturevalue('fig2')['model'], r.getfixturevalue('fig2')['grid']),
    'pgd-circle-iterates': lambda r: (r.getfixturevalue('pgd_run')['model'],
                                      _pgd_iterates(r.getfixturevalue('pgd_run'))),
    'training-points': lambda r: (r.getfixturevalue('fig2')['model'],
                                  r.getfixturevalue('fig2')['cloud'].points),
    'scale-1e3': lambda r: (r.getfixturevalue('fig2')['model'],
                            1e3 * r.getfixturevalue('fig2')['grid']),
    'dm-normalized': lambda r: _variant(kernel_variant='cidm_dm_normalized'),
    'indicator': lambda r: _variant(shape='indicator', epsilon=2.0),
    'epsilon-1.3': lambda r: _variant(epsilon=1.3),
    'kth-scale': lambda r: _variant(average_scales=False),
}


class TestReferenceRows:
    """The in-place row equals the row built from fresh temporaries, bit for bit."""

    @pytest.mark.parametrize('case', list(REFERENCE_ROW_CASES))
    def test_rows_are_bit_identical(self, case, request):
        model, queries = REFERENCE_ROW_CASES[case](request)
        got = nystrom._kernel_rows(model, queries)
        ref = reference_kernel_rows(model, queries)
        for name, a, b in zip(('weights', 'dists', 'scales', 'delta2'), got, ref):
            assert a.shape == b.shape, name
            npt.assert_array_equal(a, b, err_msg=name)


class TestEmptyBatch:
    def test_empty_batch_gives_empty_rows(self, noisy_circle):
        _, _, model = noisy_circle
        empty = np.empty((0, 2))
        assert om.eigenfunction_values(model, empty, 5).shape == (0, 5)
        assert om.project_many(om.build_projector(model, 15), empty).shape == (0, 2)
        assert om.extend_function(model, np.ones(4), empty).shape == (0,)

    def test_empty_batch_of_wrong_dimension_raises(self, noisy_circle):
        _, _, model = noisy_circle
        with pytest.raises(om.InvalidQueryError, match='query dimension 3'):
            om.eigenfunction_values(model, np.empty((0, 3)), 5)


class TestModelConstants:
    """The kernel eigenvalues, the extendable modes and the cutoff that a
    model derives once, when it is made."""

    def test_replaced_model_derives_its_own_constants(self, circle_full):
        _, _, model = circle_full
        x = np.array([0.5, 0.5])
        full = om.eigenfunction_values(model, x, model.n_eigs)
        xi = model.eig_xi.copy()
        xi[7] = 1.0 + 5e-11                               # |lambda| = 5e-11
        doctored = dataclasses.replace(model, eig_xi=xi)
        with pytest.raises(om.SmallEigenvalueError) as info:
            om.eigenfunction_values(doctored, x, 8)
        # the message of an eigenvalue check made on every row
        assert str(info.value) == ('mode 7 has |lambda| = 5.00e-11 < 1e-10; '
                                   'its Nystrom extension is numerically meaningless')
        npt.assert_array_equal(om.eigenfunction_values(doctored, x, 7),
                               om.eigenfunction_values(model, x, 7))
        # the first model keeps its own constants
        npt.assert_array_equal(om.eigenfunction_values(model, x, model.n_eigs), full)
        assert doctored._n_extendable == 7 and model._n_extendable == model.n_eigs

    def test_first_small_mode_is_named(self, circle_full):
        _, _, model = circle_full
        xi = model.eig_xi.copy()
        xi[[5, 9]] = 1.0
        doctored = dataclasses.replace(model, eig_xi=xi)
        with pytest.raises(om.SmallEigenvalueError,
                           match=r'^mode 5 has \|lambda\| = 0\.00e\+00 < 1e-10;'):
            om.eigenfunction_values(doctored, np.array([0.5, 0.5]), 10)

    def test_lambdas_are_read_only(self, circle_full):
        _, _, model = circle_full
        lam = nystrom._mode_lambdas(model, 10)
        npt.assert_array_equal(lam, 1.0 - model.eig_xi[:10])
        assert not lam.flags.writeable and not model._lambdas.flags.writeable
        with pytest.raises(ValueError, match='read-only'):
            lam[0] = 2.0

    def test_cut_is_the_certified_cutoff(self, circle_full, noisy_circle):
        for _, _, model in (circle_full, noisy_circle):
            assert model._cut == np.log(model.n_points) + KERNEL_TAIL

    def test_mode_range_checked_first(self, circle_full):
        _, _, model = circle_full
        with pytest.raises(ValueError, match=r'n_modes must be in \[1, 200\]'):
            nystrom._mode_lambdas(model, 201)
