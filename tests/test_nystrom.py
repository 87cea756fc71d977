import dataclasses
import multiprocessing
import os
import re
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onmanifold as om
from scipy.spatial.distance import cdist

from onmanifold import cidm, nystrom
from onmanifold.cidm import KERNEL_TAIL

from conftest import HELPER, kernel_rows, reference_jacobian, reference_kernel_rows, row_weights


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


class TestEigenfunctionValues:
    """The diffusion map Phi(x) = (phi_1(x), ..., phi_L(x)) as
    ``eigenfunction_values(model, x, L + 1)[..., 1:]``."""

    def test_pure_function_of_input(self, noisy_circle):
        _, _, model = noisy_circle
        a, b = np.array([1.3, 0.2]), np.array([-0.4, 0.9])

        def phi(x):
            return om.eigenfunction_values(model, x, 6)[1:]

        npt.assert_array_equal(phi(a), phi(a))
        swapped = np.array([phi(b), phi(a)])
        direct = np.array([phi(a), phi(b)])
        npt.assert_array_equal(swapped[::-1], direct)

    def test_grid_continuity(self, fig2):
        # adjacent grid evaluations change smoothly: bounded by 10x the grid
        # spacing times the max gradient magnitude over the ring
        model = fig2['model']
        theta = np.linspace(0, 2 * np.pi, 120, endpoint=False)
        ring = 1.2 * np.column_stack([np.cos(theta), np.sin(theta)])
        vals = om.eigenfunction_values(model, ring, 5)[:, 1:]
        grads = np.stack([nystrom.diffusion_map_jacobian(model, 5, q)[1:] for q in ring])
        step = np.linalg.norm(ring[1] - ring[0])
        max_grad = np.abs(grads).max()
        jumps = np.linalg.norm(np.diff(vals, axis=0), axis=1)
        assert jumps.max() <= 10.0 * step * max_grad


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
        mean = cidm.inner(model, cloud.points, np.ones(model.n_points))
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

    @pytest.mark.parametrize('shape', [(0, 2), (41, 2), (10, 3), (10,), (1, 10, 2)])
    def test_xhat_shape_checked(self, noisy_circle, shape):
        _, _, model = noisy_circle          # 40 modes of a planar cloud
        with pytest.raises(ValueError, match=r'xhat must have shape \(L, 2\) with 1 <= L <= 40'):
            om.NystromProjector(model=model, xhat=np.zeros(shape))

    def test_nested_list_xhat_kept_as_an_array(self, noisy_circle):
        cloud, _, model = noisy_circle
        projector = om.build_projector(model, 8)
        listed = om.NystromProjector(model, projector.xhat.tolist())
        assert isinstance(listed.xhat, np.ndarray) and listed.xhat.dtype == np.float64
        assert listed.l_trunc == 8
        npt.assert_array_equal(listed.xhat, projector.xhat)
        npt.assert_array_equal(om.project_many(listed, cloud.points[:5]),
                               om.project_many(projector, cloud.points[:5]))
        grad = om.restricted_loss_gradient(listed, lambda y: y, cloud.points[0])
        npt.assert_array_equal(
            grad, om.restricted_loss_gradient(projector, lambda y: y, cloud.points[0]))
        # an array of float64 is kept as it is
        assert om.NystromProjector(model, projector.xhat).xhat is projector.xhat


def central_difference(fn, x, h):
    g = np.zeros_like(x)
    for d in range(x.shape[0]):
        e = np.zeros_like(x)
        e[d] = h
        g[d] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


class TestProjectionIdempotence:
    """A point projected twice is a fixed point of one more projection, up
    to c08's residual bound of 0.02 data diameters.  The worst of 12000
    random starts was 4.9e-5 diameters on pgd-circle and 0.0161 on fig2."""

    @staticmethod
    def residual(projector, radius, angle):
        x = radius * np.array([np.cos(angle), np.sin(angle)])
        twice = om.project(projector, x, 2)
        return np.linalg.norm(om.project(projector, twice, 1) - twice)

    @settings(max_examples=60, deadline=None)
    @given(radius=st.floats(0.3, 2.0), angle=st.floats(0.0, 2 * np.pi))
    def test_pgd_circle(self, pgd_run, radius, angle):
        residual = self.residual(pgd_run['projector'], radius, angle)
        assert residual <= 0.02 * pgd_run['model'].data_diameter

    @settings(max_examples=60, deadline=None)
    @given(radius=st.floats(0.3, 2.0), angle=st.floats(0.0, 2 * np.pi))
    def test_fig2(self, fig2, radius, angle):
        residual = self.residual(fig2['projector'], radius, angle)
        assert residual <= 0.02 * fig2['model'].data_diameter


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
        rows = nystrom._row_core
        calls = []

        def counted(model, d2):
            calls.append(d2.shape[0])
            return rows(model, d2)

        # the row core serves the normalized rows and the projections alike
        monkeypatch.setattr(nystrom, '_row_core', counted)
        rng = np.random.default_rng(101)
        for _ in range(100):
            theta, r = rng.uniform(0, 2 * np.pi), rng.uniform(0.8, 1.3)
            x = np.array([r * np.cos(theta), r * np.sin(theta)])
            jac = nystrom.diffusion_map_jacobian(model, 15, x)
            target = om.project_many(projector, x, iterations=1)
            want = jac.T @ (projector.xhat @ (target - 0.3))
            seen, calls[:] = [], []
            got = om.restricted_loss_gradient(projector, lambda y: seen.append(y) or y - 0.3, x)
            assert calls == [1]
            npt.assert_array_equal(seen[0], target)
            npt.assert_array_equal(got, want)

    def test_one_cdist_per_gradient(self, noisy_circle, monkeypatch):
        # the row, the distances and delta^2 of a gradient come from one
        # computation of the query's squared distances
        _, _, model = noisy_circle
        projector = om.build_projector(model, 15)
        calls = []
        monkeypatch.setattr(nystrom, 'cdist',
                            lambda a, *args, **kw: calls.append(a.shape) or cdist(a, *args, **kw))
        x = np.array([1.1, 0.2])
        nystrom.diffusion_map_jacobian(model, 15, x)
        assert calls == [(1, 2)]
        calls.clear()
        om.restricted_loss_gradient(projector, lambda y: y - 0.3, x)
        assert calls == [(1, 2)]

    @pytest.mark.parametrize('grad, message', [
        (lambda y: (y - 0.3)[:, None], r'loss_grad_at returned an array of shape \(2, 1\); '
                                       r'the gradient at the projection of x must have '
                                       r'its shape \(2,\)'),
        (lambda y: np.array([1.0, 2.0, 3.0]), r'loss_grad_at returned an array of shape \(3,\)'),
        (lambda y: 1.0, r'loss_grad_at returned an array of shape \(\)'),
        (lambda y: np.array([np.nan, 1.0]),
         r'loss_grad_at returned a gradient whose norm is not finite \(nan\)'),
        (lambda y: np.array([np.inf, 1.0]), r'not finite \(inf\)'),
        (lambda y: np.array([1e200, -1e200]), r'not finite \(inf\)'),    # the squares overflow
    ], ids=['column', 'three-vector', 'scalar', 'nan', 'inf', 'overflow'])
    def test_bad_loss_gradient_named(self, noisy_circle, grad, message):
        # the loss gradient rule of om_pgd_step: x's shape and a finite norm
        _, _, model = noisy_circle
        projector = om.build_projector(model, 15)
        with pytest.raises(ValueError, match=message):
            om.restricted_loss_gradient(projector, grad, np.array([0.9, 0.5]))


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
                nystrom.diffusion_map_jacobian(model, 3, bad)

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
                nystrom.diffusion_map_jacobian(model, 3, bad)
        assert isinstance(info.value, om.GeometryError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.filterwarnings('error')
    @pytest.mark.parametrize('entry', ['eigenfunction_values', 'project_many'])
    def test_tiny_epsilon_far_query_named(self, noisy_circle, entry):
        # epsilon^2 = 1e-300 is finite, but every exponent of a far query
        # overflows; inf - inf made the row NaN
        _, _, model = noisy_circle
        tiny = dataclasses.replace(model, config=dataclasses.replace(model.config,
                                                                     epsilon=1e-150))
        batch = np.array([[1.0, 0.0], [1e8, 0.0]])
        match = re.escape('query row 1: its smallest kernel exponent delta^2/epsilon^2 '
                          'is not finite at epsilon=1e-150')
        with pytest.raises(om.InvalidQueryError, match=match):
            if entry == 'eigenfunction_values':
                om.eigenfunction_values(tiny, batch, 3)
            else:
                om.project_many(om.build_projector(tiny, 15), batch)
        # the query near the data keeps a finite row
        assert np.isfinite(om.eigenfunction_values(tiny, batch[0], 3)).all()

    # tangent_frame_at also takes an (m, n) stack, so only its other shapes
    @pytest.mark.parametrize('entry, shape', [
        pytest.param(entry, shape, id=f'{entry}-shape{i}')
        for entry in ['diffusion_map_jacobian', 'grad_eigenfunction',
                      'restricted_loss_gradient', 'extend_eigenfunction',
                      'tangent_frame_at', 'local_pca_tangent', 'semantic_labels', 'project']
        for i, shape in enumerate([(), (1, 2), (2, 2), (1, 1, 2)])
        if not (entry == 'tangent_frame_at' and len(shape) == 2)])
    def test_single_point_entries_name_the_shape(self, circle300, circle_sec, entry, shape):
        cloud, params, model = circle300
        frame, fhat = circle_sec
        calls = {
            'diffusion_map_jacobian': lambda x: nystrom.diffusion_map_jacobian(model, 3, x),
            'grad_eigenfunction': lambda x: om.grad_eigenfunction(model, 1, x),
            'restricted_loss_gradient': lambda x: om.restricted_loss_gradient(
                om.build_projector(model, 10), lambda y: y, x),
            'extend_eigenfunction': lambda x: om.extend_eigenfunction(model, 1, x),
            'tangent_frame_at': lambda x: om.tangent_frame_at(model, frame, fhat, x, 1),
            'local_pca_tangent': lambda x: om.local_pca_tangent(cloud, x, 10, 1),
            'semantic_labels': lambda x: om.semantic_labels(
                model, om.semantic_map(model, params, [True], 10), x),
            'project': lambda x: om.project(om.build_projector(model, 10), x),
        }
        with pytest.raises(om.InvalidQueryError, match=re.escape(f'shape {shape}')):
            calls[entry](np.full(shape, 0.5))


#: Query coordinates: ordinary ones, ones too large to square, non-finite ones.
COORDINATES = st.one_of(st.floats(-3.0, 3.0),
                        st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200, 1e150, -1e153]))

#: The errors a query's row may raise, with the start of their messages.
NAMED_ROW_ERRORS = {
    om.InvalidQueryError: ('query row ', 'query dimension '),
    ValueError: ('fewer than k_nn distinct training points',),
}


@st.composite
def query_batches(draw, n_train: int):
    """A 1-D query or a batch of rows: coordinates from ``COORDINATES`` (of
    the training dimension 2 or not), training points given by index, and
    duplicates of earlier rows."""
    dim = draw(st.sampled_from([2, 2, 2, 1, 3]))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(['coordinates', 'training', 'duplicate']))
        if kind == 'training' and dim == 2:
            rows.append(('training', draw(st.integers(0, n_train - 1))))
        elif kind == 'duplicate' and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            rows.append(('coordinates', draw(st.lists(COORDINATES, min_size=dim,
                                                      max_size=dim))))
    return rows, len(rows) == 1 and draw(st.booleans())


class TestQueryProperties:
    """Every query gives finite rows that sum to 1, or a named error."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_are_finite_or_a_named_error(self, noisy_circle, data):
        _, _, model = noisy_circle
        pts = model.training.points
        rows, single = data.draw(query_batches(pts.shape[0]))
        q = np.array([pts[v] if kind == 'training' else v for kind, v in rows])
        if single:
            q = q[0]
        try:
            # the query rule of every entry, then the row
            queries = np.atleast_2d(nystrom._queries(q, pts.shape[1]))
            weights, scales = row_weights(model, queries)
        except tuple(NAMED_ROW_ERRORS) as exc:
            prefixes = next(p for t, p in NAMED_ROW_ERRORS.items() if isinstance(exc, t))
            assert str(exc).startswith(prefixes), str(exc)
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                om.eigenfunction_values(model, q, 10)
            return
        assert np.isfinite(weights).all() and np.isfinite(scales).all()
        npt.assert_allclose(weights.sum(axis=1), 1.0, rtol=1e-12)
        vals = om.eigenfunction_values(model, q, 10)
        assert vals.shape == ((10,) if single else (len(rows), 10))
        assert np.isfinite(vals).all()

    @settings(max_examples=60, deadline=None)
    @given(index=st.integers(0, 299), n_modes=st.integers(1, 40),
           copies=st.integers(1, 3))
    def test_training_point_gives_its_eig_phi_row(self, noisy_circle, index, n_modes, copies):
        # probe: at most 8.9e-15 from eig_phi over all 300 points and 40 modes
        _, _, model = noisy_circle
        x = model.training.points[index]
        want = model.eig_phi[index, :n_modes]
        npt.assert_allclose(om.eigenfunction_values(model, x, n_modes), want,
                            rtol=0, atol=1e-13)
        batch = om.eigenfunction_values(model, np.tile(x, (copies, 1)), n_modes)
        npt.assert_allclose(batch, np.tile(want, (copies, 1)), rtol=0, atol=1e-13)


class TestPartitionOfUnity:
    def test_weights_sum_to_one(self, noisy_circle):
        _, _, model = noisy_circle
        rng = np.random.default_rng(2)
        queries = np.vstack([rng.uniform(-3, 3, size=(20, 2)), model.training.points[:5]])
        weights, _ = row_weights(model, queries)
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


def _variant(kind='circle', **kw):
    """A small noisy circle (of ``kind`` circle or circle4d) fitted with one
    kernel setting changed, and queries near it."""
    cloud, _ = om.generate(om.SynthSpec(kind=kind, n_points=300, noise_sigma=0.05, seed=3))
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
    'epsilon-1.3': lambda r: _variant(epsilon=1.3),
}


class TestReferenceRows:
    """The in-place row equals the row built from fresh temporaries, bit for bit."""

    @pytest.mark.parametrize('case', list(REFERENCE_ROW_CASES))
    def test_rows_are_bit_identical(self, case, request):
        model, queries = REFERENCE_ROW_CASES[case](request)
        got = row_weights(model, queries)
        ref_weights, ref_dists, ref_scales, _ = reference_kernel_rows(model, queries)
        for name, a, b in zip(('weights', 'scales'), got, (ref_weights, ref_scales)):
            assert a.shape == b.shape, name
            npt.assert_array_equal(a, b, err_msg=name)
        # the distances that the gradients read, at every query; and at 25 of
        # them the gradient's row, and its Jacobian, which reads the row's
        # weights, distances, scale and delta^2, against the reference's
        npt.assert_array_equal(np.sqrt(nystrom._squared_distances(model, queries)), ref_dists)
        L = model._n_extendable
        for i in np.linspace(0, queries.shape[0] - 1, 25).astype(int):
            jac, rows, sums = nystrom._jacobian(model, L, queries[i])
            npt.assert_array_equal(rows[0] / sums[0], ref_weights[i])
            npt.assert_array_equal(jac, reference_jacobian(model, L, queries[i]),
                                   err_msg=f'Jacobian at query {i}')


class TestRowMemory:
    def test_row_holds_two_float_arrays_and_one_mask(self, fig2):
        # a (64, 1500) batch on the circle-project model; the slack covers
        # one ufunc casting buffer of np.getbufsize() float64s and the (m,)
        # and (m, k) arrays of the scales
        model = fig2['model']
        theta = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, 64)
        queries = 1.2 * np.column_stack([np.cos(theta), np.sin(theta)])
        m, N = queries.shape[0], model.n_points
        tracemalloc.start()
        try:
            row_weights(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * m * N + m * N + 2 * 8 * np.getbufsize(), peak

    def test_split_row_holds_two_float_arrays_and_one_mask(self, fig2, monkeypatch):
        # the same batch built in two halves on two threads, through
        # eigenfunction_values (row_weights builds it unsplit): tracemalloc
        # counts the helper thread's arrays too, and the bound is the same
        model = fig2['model']
        theta = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, 64)
        queries = 1.2 * np.column_stack([np.cos(theta), np.sin(theta)])
        m, N = queries.shape[0], model.n_points
        assert m * N >= cidm._BLOCK_ENTRIES
        monkeypatch.setattr(cidm, '_usable_cpus', lambda: 2)
        threads = spy_on_rows(monkeypatch)
        tracemalloc.start()
        try:
            om.eigenfunction_values(model, queries, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * m * N + m * N + 2 * 8 * np.getbufsize(), peak
        assert sorted(threads) == ['MainThread', HELPER]


def spy_on_rows(monkeypatch) -> list:
    """Record the name of the thread of each ``nystrom._squared_distances``
    call, the first step of a row."""
    threads = []
    squared_distances = nystrom._squared_distances

    def spy(*args, **kw):
        threads.append(threading.current_thread().name)
        return squared_distances(*args, **kw)

    monkeypatch.setattr(nystrom, '_squared_distances', spy)
    return threads


class TestSplitRows:
    """A batch of at least 2 rows and ``cidm._BLOCK_ENTRIES`` entries, in a
    process that may use two CPUs, builds its two halves on two threads
    (``nystrom._rows``): with the bits of the inline batch, the inline
    batch's errors, and no traced function on the helper."""

    @pytest.fixture(scope='class', params=['cidm', 'cidm_dm_normalized'])
    def variant(self, request):
        """A model (N=300), its projector, and 400 queries: near the
        training points, and off the circle."""
        model, near = _variant(kernel_variant=request.param)
        far = np.random.default_rng(21).uniform(-2.0, 2.0, size=(100, 2))
        return model, om.build_projector(model, 15), np.vstack([near, far])

    @staticmethod
    def both_ways(variant, m: int, split: bool, monkeypatch) -> None:
        """Values and projections of the first ``m`` queries, on one CPU and
        on two: bit for bit the same, split on two exactly when ``split``."""
        model, projector, queries = variant
        batch = queries[:m]
        out = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cidm, '_usable_cpus', lambda: cpus)
            threads = spy_on_rows(monkeypatch)
            out[cpus] = (om.eigenfunction_values(model, batch, model.n_eigs),
                         om.project_many(projector, batch))
            assert (HELPER in threads) == (split and cpus == 2), threads
        for name, got, want in zip(('values', 'projections'), out[2], out[1]):
            npt.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize('m', [2, 3, 43, 44, 45, 64, 201])
    def test_split_batch_is_the_inline_batch(self, variant, m, monkeypatch):
        # every batch of two or more rows splits here
        monkeypatch.setattr(nystrom, '_BLOCK_ENTRIES', 2)
        self.both_ways(variant, m, True, monkeypatch)

    def test_threshold(self, variant, monkeypatch):
        # N=300: 219 rows are the fewest that hold _BLOCK_ENTRIES entries
        m = -(-cidm._BLOCK_ENTRIES // variant[0].n_points)
        assert m == 219
        self.both_ways(variant, m - 1, False, monkeypatch)
        self.both_ways(variant, m, True, monkeypatch)

    @pytest.mark.filterwarnings('error')
    @pytest.mark.parametrize('row', [10, 50], ids=['caller', 'helper'])
    @pytest.mark.parametrize('bad, epsilon, message', [
        ([np.nan, 0.0], 1.0,
         'query row {row}: the query or its squared distances to the training points '
         'are not finite'),
        ([1e8, 0.0], 1e-150,
         'query row {row}: its smallest kernel exponent delta^2/epsilon^2 is not finite '
         'at epsilon=1e-150'),
    ], ids=['nan', 'exponents-overflow'])
    @pytest.mark.parametrize('entry', ['eigenfunction_values', 'project_many'])
    def test_error_in_a_half_is_the_inline_error(self, noisy_circle, monkeypatch, entry, bad,
                                                 epsilon, message, row):
        # rows 0-31 are the caller's half of the 64, rows 32-63 the helper's
        _, _, model = noisy_circle
        model = dataclasses.replace(model, config=dataclasses.replace(model.config,
                                                                      epsilon=epsilon))
        theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 64)
        batch = np.column_stack([np.cos(theta), np.sin(theta)])
        batch[row] = bad
        monkeypatch.setattr(nystrom, '_BLOCK_ENTRIES', 2)
        for cpus in (1, 2):
            monkeypatch.setattr(cidm, '_usable_cpus', lambda: cpus)
            threads = spy_on_rows(monkeypatch)
            match = f'^{re.escape(message.format(row=row))}$'
            with pytest.raises(om.InvalidQueryError, match=match):
                if entry == 'eigenfunction_values':
                    om.eigenfunction_values(model, batch, 3)
                else:
                    om.project_many(om.build_projector(model, 15), batch)
            assert (HELPER in threads) == (cpus == 2)

    def test_helper_runs_in_the_callers_errstate(self, monkeypatch):
        # an np.errstate in force applies to a half on the helper as inline
        monkeypatch.setattr(cidm, '_usable_cpus', lambda: 2)

        def errstate(_):
            return threading.current_thread().name, np.geterr()

        with np.errstate(under='raise'):
            seen = cidm._both(errstate, 0, 1)
        assert [name for name, _ in seen] == ['MainThread', HELPER]
        assert seen[1][1]['under'] == 'raise' and seen[0][1] == seen[1][1]
        assert cidm._both(errstate, 0, 1)[1][1] == np.geterr()

    def test_traced_functions_run_on_the_caller(self, fig2, monkeypatch):
        # perfbench's tracer keeps one span stack, so the helper's half calls
        # no function it wraps; extend_function and semantic_labels reach
        # eigenfunction_values through the module attribute, as traced
        model = fig2['model']
        queries = fig2['grid'][:64]
        monkeypatch.setattr(cidm, '_usable_cpus', lambda: 2)
        rows = spy_on_rows(monkeypatch)
        seen = []
        values = nystrom.eigenfunction_values

        def spy(*args):
            seen.append(threading.current_thread().name)
            return values(*args)

        monkeypatch.setattr(nystrom, 'eigenfunction_values', spy)
        om.extend_function(model, np.ones(5), queries)
        om.project_many(om.build_projector(model, 20), queries)
        assert seen == [threading.current_thread().name]
        assert rows.count(HELPER) == 3

    @pytest.mark.skipif(not hasattr(os, 'fork'), reason='fork is not available')
    @pytest.mark.filterwarnings('ignore::DeprecationWarning')
    def test_forked_child_splits_a_batch(self, fig2, monkeypatch):
        # a child forked after the helper started has no helper thread; it
        # starts its own instead of waiting on the parent's queue
        model = fig2['model']
        queries = fig2['grid'][:64]
        monkeypatch.setattr(cidm, '_usable_cpus', lambda: 2)
        want = om.eigenfunction_values(model, queries, 20)
        parent_executor = cidm._EXECUTOR
        assert parent_executor is not None
        assert HELPER in [t.name for t in threading.enumerate()]

        def child():
            assert cidm._EXECUTOR is None
            threads = spy_on_rows(monkeypatch)
            got = om.eigenfunction_values(model, queries, 20)
            assert np.array_equal(got, want)
            assert sorted(threads) == ['MainThread', HELPER]
            assert cidm._EXECUTOR not in (None, parent_executor)

        proc = multiprocessing.get_context('fork').Process(target=child)
        proc.start()
        proc.join(timeout=60)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        assert not hung and proc.exitcode == 0


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


#: Case -> ``request -> (model, queries, l_trunc)`` for the projection
#: formula; fig2 and the kernel variants have n < L, the last two n >= L.
PROJECTION_CASES = {
    'fig2-grid': lambda r: (*REFERENCE_ROW_CASES['fig2-grid'](r), 20),
    'dm-normalized': lambda r: (*REFERENCE_ROW_CASES['dm-normalized'](r), 15),
    'epsilon-1.3': lambda r: (*REFERENCE_ROW_CASES['epsilon-1.3'](r), 15),
    'circle-L1': lambda r: (*_variant(), 1),
    'circle4d-L3': lambda r: (*_variant(kind='circle4d'), 3),
}


class TestProjectorOperands:
    """A projection is one row contracted through an operand derived when
    the projector is made, then divided by the row sums."""

    @pytest.mark.parametrize('case', list(PROJECTION_CASES))
    def test_project_many_is_the_plain_formula(self, case, request):
        model, queries, l_trunc = PROJECTION_CASES[case](request)
        projector = om.build_projector(model, l_trunc)
        lam = 1.0 - model.eig_xi[:l_trunc]
        want = queries
        for iterations in (1, 2):
            w = reference_kernel_rows(model, want)[0]
            want = ((w @ model.eig_phi[:, :l_trunc]) / lam) @ projector.xhat
            got = om.project_many(projector, queries, iterations)
            npt.assert_allclose(got, want, rtol=0, atol=1e-14 * model.data_diameter)

    def test_operand_is_read_only(self, fig2, noisy_circle):
        _, _, model = noisy_circle
        for projector in (fig2['projector'], om.build_projector(model, 1)):
            assert not projector._operand.flags.writeable
            with pytest.raises(ValueError, match='read-only'):
                projector._operand[0, 0] = 1.0

    def test_small_mode_refused_when_made(self, circle_full):
        _, _, model = circle_full
        xi = model.eig_xi.copy()
        xi[7] = 1.0 + 5e-11                               # |lambda| = 5e-11
        doctored = dataclasses.replace(model, eig_xi=xi)
        message = r'^mode 7 has \|lambda\| = 5\.00e-11 < 1e-10;'
        with pytest.raises(om.SmallEigenvalueError, match=message):
            om.build_projector(doctored, 10)
        with pytest.raises(om.SmallEigenvalueError, match=message):
            om.NystromProjector(model=doctored, xhat=np.zeros((8, 2)))
        assert om.build_projector(doctored, 7).l_trunc == 7

    def test_bundle_keeps_its_bytes(self, noisy_circle, tmp_path):
        # the operand a loaded projector derives is not written back
        _, _, model = noisy_circle
        projector = om.build_projector(model, 15)
        first, second = tmp_path / 'first.bundle', tmp_path / 'second.bundle'
        om.save_bundle(first, om.ModelBundle(model=model, xhat=projector.xhat))
        loaded = om.load_bundle(first)
        npt.assert_array_equal(loaded.projector()._operand, projector._operand)
        om.save_bundle(second, loaded)
        assert second.read_bytes() == first.read_bytes()


@pytest.fixture(scope='module')
def torus600():
    cloud, _ = om.generate(om.SynthSpec(kind='torus', n_points=600, seed=5))
    return om.fit(cloud, om.CidmConfig(k_nn=24, n_eigs=20))


#: Case -> ``request -> model`` (the ``cidm`` variant) for the training-row identity.
FITTED_ROW_CASES = {
    'fig2': lambda r: r.getfixturevalue('fig2')['model'],
    'epsilon-1.3': lambda r: _variant(epsilon=1.3)[0],
    'torus-600': lambda r: r.getfixturevalue('torus600'),
}


def _sqrt_first_scales(dist: np.ndarray, k_nn: int) -> np.ndarray:
    """kNN scales partitioned on the distances themselves."""
    dist = np.partition(dist, k_nn - 1, axis=1)[:, :k_nn]
    dist.sort(axis=1)
    return dist.sum(axis=1) / k_nn


def _fitted_kernel(model) -> np.ndarray:
    """The fitted kernel, dense, rebuilt from its half form: the lower
    triangle with the diagonal and the transpose of the strict lower
    triangle do not overlap, so their sum is exact."""
    lower = cidm._kernel_csr(model.training.points, model.knn_scale, model.config)[0].dense_lower()
    return lower + np.tril(lower, -1).T


class TestTrainingRowsAreFitted:
    """Both the fit and a row build from squared distances, so the row at a
    training point is its fitted kernel row, bit for bit."""

    @pytest.mark.parametrize('case', list(FITTED_ROW_CASES))
    def test_row_is_the_fitted_kernel_row(self, case, request):
        model = FITTED_ROW_CASES[case](request)
        pts = model.training.points
        kernel = _fitted_kernel(model)
        rows, sums, scales = kernel_rows(model, pts)
        npt.assert_array_equal(rows, kernel)
        npt.assert_array_equal(sums[:, 0], model.degree)
        npt.assert_array_equal(scales, model.knn_scale)

    def test_training_points_in_a_batch(self, fig2):
        model = fig2['model']
        pts = model.training.points
        index = np.arange(0, model.n_points, 97)
        batch = np.vstack([fig2['grid'][:40], pts[index], 1.3 * pts[:5], pts[index[::-1]]])
        rows, sums, _ = kernel_rows(model, batch)
        alone, alone_sums, _ = kernel_rows(model, pts[index])
        kernel = _fitted_kernel(model)
        k = index.shape[0]
        for got, got_sums in ((rows[40:40 + k], sums[40:40 + k]),
                              (rows[-k:][::-1], sums[-k:][::-1]),
                              (alone, alone_sums)):
            npt.assert_array_equal(got, kernel[index])
            npt.assert_array_equal(got_sums[:, 0], model.degree[index])

    @pytest.mark.parametrize('variant', ['cidm', 'cidm_dm_normalized'])
    def test_batch_row_is_the_single_row(self, variant):
        # off-manifold, far (|x| = 50), near-origin and training queries:
        # row i of one batch is query i's one-query row, bit for bit
        model, near = _variant(kernel_variant=variant)
        rng = np.random.default_rng(12)
        theta = rng.uniform(0.0, 2.0 * np.pi, 12)
        ring = np.column_stack([np.cos(theta), np.sin(theta)])
        batch = np.vstack([near[::10], rng.uniform(-2.0, 2.0, size=(20, 2)), 50.0 * ring,
                           1e-3 * ring, np.zeros((1, 2)), model.training.points[::50]])
        rows, sums, scales = kernel_rows(model, batch)
        for i, x in enumerate(batch):
            one = kernel_rows(model, x[None, :])
            for name, got, want in zip(('rows', 'sums', 'scales'), (rows, sums, scales), one):
                npt.assert_array_equal(got[i], want[0], err_msg=f'{name} of query {i}')

    @pytest.mark.parametrize('seed', range(4))
    def test_scales_keep_their_bits(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6))
        pts = rng.normal(size=(int(rng.integers(30, 300)), dim)) * 10.0 ** rng.uniform(-4, 4)
        queries = np.vstack([rng.normal(size=(20, dim)) * pts.std(), pts[:5]])
        k_nn = int(rng.integers(1, 16))
        d2 = cdist(queries, pts, 'sqeuclidean')
        d2[d2 == 0.0] = np.inf
        want = _sqrt_first_scales(np.sqrt(d2), k_nn)
        npt.assert_array_equal(want, _sqrt_first_scales(
            np.where(np.isinf(d2), np.inf, cdist(queries, pts)), k_nn))
        npt.assert_array_equal(cidm._knn_scales(d2, k_nn), want)
        # the fit's scales (self excluded) and its diameter
        dist = cdist(pts, pts)
        diameter = dist.max()
        np.fill_diagonal(dist, np.inf)
        scales, got_diameter = cidm._training_scales(pts, k_nn)
        npt.assert_array_equal(scales, _sqrt_first_scales(dist, k_nn))
        assert got_diameter == diameter
