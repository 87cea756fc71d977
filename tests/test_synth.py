import numpy as np
import numpy.testing as npt
import pytest

import onmanifold as om
from onmanifold.synth import SynthSpec, fig1_target_function, generate


class TestCircle:
    def test_noiseless_points_on_unit_circle(self):
        cloud, _ = generate(SynthSpec(kind='circle', n_points=100, seed=1))
        npt.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12)

    def test_uniform_density_histogram(self):
        # the max/min bin ratio needs enough counts per bin before it is a
        # sharp uniformity statistic: at 1000 per bin its Poisson spread
        # sits well inside the 1.3 bound
        cloud, params = generate(SynthSpec(kind='circle', n_points=36000, seed=4))
        counts, _ = np.histogram(params[:, 0], bins=36, range=(0.0, 360.0))
        assert counts.max() / counts.min() < 1.3
        expected = len(params) / 36
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < 2.0 * 36   # far below any rejection threshold

    def test_skewed_density_follows_profile(self):
        _, params = generate(SynthSpec(kind='circle', n_points=20000,
                                       density_profile='angle_skewed', seed=4))
        theta = np.radians(params[:, 0])
        counts, edges = np.histogram(theta, bins=24, range=(0.0, 2 * np.pi))
        centers = 0.5 * (edges[:-1] + edges[1:])
        expected = 1.0 + 0.8 * np.cos(centers)
        ratio = counts / counts.mean()
        npt.assert_allclose(ratio, expected, rtol=0.15, atol=0.05)

    def test_radial_noise_statistics(self):
        spec = SynthSpec(kind='circle', n_points=4000, noise_sigma=0.07, seed=9)
        cloud, _ = generate(spec)
        radial_std = (np.linalg.norm(cloud.points, axis=1) - 1.0).std()
        assert radial_std == pytest.approx(0.07, rel=0.10)

    def test_angle_varying_noise_profile(self):
        spec = SynthSpec(kind='circle', n_points=20000, noise_sigma=0.05,
                         noise_profile='angle_varying', seed=10)
        cloud, params = generate(spec)
        eta = np.linalg.norm(cloud.points, axis=1) - 1.0
        theta = np.radians(params[:, 0])
        near_zero = np.abs(np.degrees(theta) - 0.0) % 360 < 20
        near_pi = np.abs(np.degrees(theta) - 180.0) < 20
        # sigma(0) = 2 sigma, sigma(pi) = sigma
        assert eta[near_zero].std() == pytest.approx(0.10, rel=0.15)
        assert eta[near_pi].std() == pytest.approx(0.05, rel=0.15)


class TestCircle4d:
    def test_isometric_to_planar_circle(self):
        cloud, params = generate(SynthSpec(kind='circle4d', n_points=128, seed=3))
        npt.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12)
        rng = np.random.default_rng(0)
        theta = np.radians(params[:, 0])
        planar = np.column_stack([np.cos(theta), np.sin(theta)])
        for _ in range(50):
            i, j = rng.integers(0, 128, 2)
            d4 = np.linalg.norm(cloud.points[i] - cloud.points[j])
            d2 = np.linalg.norm(planar[i] - planar[j])
            assert d4 == pytest.approx(d2, abs=1e-10)

    def test_ambient_span_is_two_dimensional_plane_in_4d(self):
        cloud, _ = generate(SynthSpec(kind='circle4d', n_points=64, seed=3))
        rank = np.linalg.matrix_rank(cloud.points, tol=1e-10)
        assert rank == 2
        assert cloud.ambient_dim == 4


class TestTorus:
    def test_parametrization(self):
        cloud, params = generate(SynthSpec(kind='torus', n_points=256, seed=6))
        u = np.radians(params[:, 0])
        v = np.radians(params[:, 1])
        expected = np.column_stack([(2.0 + 0.7 * np.cos(v)) * np.cos(u),
                                    (2.0 + 0.7 * np.cos(v)) * np.sin(u),
                                    0.7 * np.sin(v)])
        npt.assert_allclose(cloud.points, expected, atol=1e-12)

    def test_tube_radius(self):
        cloud, _ = generate(SynthSpec(kind='torus', n_points=256, seed=6))
        ring_dist = np.abs(np.linalg.norm(cloud.points[:, :2], axis=1) - 2.0)
        tube = np.sqrt(ring_dist ** 2 + cloud.points[:, 2] ** 2)
        npt.assert_allclose(tube, 0.7, atol=1e-12)


class TestDeterminism:
    @pytest.mark.parametrize('kind', ['circle', 'circle4d', 'torus'])
    def test_same_seed_same_bytes(self, kind):
        spec = SynthSpec(kind=kind, n_points=64, noise_sigma=0.05, seed=123)
        a_pts, a_par = generate(spec)
        b_pts, b_par = generate(spec)
        assert a_pts.points.tobytes() == b_pts.points.tobytes()
        assert a_par.tobytes() == b_par.tobytes()

    def test_different_seeds_differ(self):
        a, _ = generate(SynthSpec(kind='circle', n_points=64, seed=1))
        b, _ = generate(SynthSpec(kind='circle', n_points=64, seed=2))
        assert not np.array_equal(a.points, b.points)


class TestFig1Target:
    def test_reference_values(self):
        assert fig1_target_function(0.0) == pytest.approx(0.5)
        assert fig1_target_function(90.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_mean_over_full_period(self):
        grid = np.arange(360)
        assert abs(fig1_target_function(grid).mean()) <= 1e-10

    def test_ground_truth_round_trip(self, circle_clean_full):
        # sigma = 0 generated points recover their own angles exactly at
        # full truncation
        cloud, params, model = circle_clean_full
        smap = om.semantic_map(model, params, [True], model.n_eigs)
        for i in range(0, 200, 29):
            got = om.semantic_labels(model, smap, cloud.points[i])
            diff = (got[0] - params[i, 0] + 180.0) % 360.0 - 180.0
            assert abs(diff) <= 1.0


class TestSpecValidation:
    @pytest.mark.parametrize('kwargs', [
        dict(kind='circle', n_points=4),
        dict(kind='circle', n_points=100, noise_sigma=-0.1),
        dict(kind='klein_bottle', n_points=100),
        dict(kind='circle', n_points=100, density_profile='gaussian'),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(**kwargs)

    @pytest.mark.parametrize('sigma', [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_sigma_named(self, sigma):
        with pytest.raises(ValueError, match='^noise_sigma must be finite and >= 0'):
            SynthSpec(kind='circle', n_points=100, noise_sigma=sigma)

    def test_grid2d_kind_refused_by_name(self):
        with pytest.raises(ValueError, match="^unknown kind 'grid2d'; "
                                             "choose from circle, circle4d, torus$"):
            SynthSpec(kind='grid2d', n_points=25)

    @pytest.mark.parametrize('kind', ['grid2d', 'klein_bottle'])
    def test_periodic_flags_names_an_unknown_kind(self, kind):
        # a dict lookup raised a KeyError
        with pytest.raises(ValueError, match=f"^unknown kind '{kind}'"):
            om.periodic_flags(kind)

    @pytest.mark.parametrize('kind, flags', [('circle', [True]), ('circle4d', [True]),
                                             ('torus', [True, True])])
    def test_periodic_flags(self, kind, flags):
        assert om.periodic_flags(kind) == flags
        _, params = generate(SynthSpec(kind=kind, n_points=8))
        assert params.shape[1] == len(flags)
