import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import eigh

import onmanifold as om
from onmanifold import nystrom, sec
from conftest import dense_kernel_matrix, dense_squared_distances
from onmanifold.sec import (dirichlet_energy_tensor, eigenfields, field_operator,
                            local_pca_tangent, metric_tensor, sobolev_basis,
                            structure_constants)

from conftest import principal_angles_deg, torus_tangent_basis
from onmanifold.repro import FIG3_2D


def naive_metric_tensor(c, xi, m):
    """Direct translation of the closed-form Gram sum, one entry at a time."""
    m_inner = c.shape[0]
    G = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    acc = 0.0
                    for s in range(m_inner):
                        acc += (xi[j] + xi[l] - xi[s]) * c[j, l, s] * c[i, k, s]
                    G[i * m + j, k * m + l] = 0.5 * acc
    return G


def naive_dirichlet_tensor(c, xi, m):
    m_inner = c.shape[0]
    E = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    acc = 0.0
                    for s in range(m_inner):
                        acc += ((xi[i] + xi[k] - xi[s]) * (xi[j] + xi[l] - xi[s])
                                * c[i, k, s] * c[j, l, s]
                                - (xi[i] + xi[l] - xi[s]) * (xi[j] + xi[k] - xi[s])
                                * c[i, l, s] * c[j, k, s]
                                + (xi[i] - xi[j] - xi[s]) * (xi[k] - xi[l] - xi[s])
                                * c[i, j, s] * c[k, l, s])
                    E[i * m + j, k * m + l] = 0.25 * acc
    return E


def sampled_harmonics(n_points, n_modes):
    """Exact circle harmonics on an equispaced grid with eigenvalues m^2."""
    theta = np.arange(n_points) * 2 * np.pi / n_points
    cols, lam = [np.ones(n_points)], [0.0]
    freq = 1
    while len(cols) < n_modes:
        cols.append(np.sqrt(2) * np.cos(freq * theta))
        lam.append(float(freq * freq))
        if len(cols) < n_modes:
            cols.append(np.sqrt(2) * np.sin(freq * theta))
            lam.append(float(freq * freq))
        freq += 1
    return np.column_stack(cols), np.array(lam), theta


def harmonic_structure_constants(n_points, n_modes):
    phi, lam, _ = sampled_harmonics(n_points, n_modes)
    return np.einsum('ai,aj,as->ijs', phi / n_points, phi, phi), lam


class TestStructureConstants:
    def test_c000_is_one(self, circle300):
        _, _, model = circle300
        c = structure_constants(model, 8)
        assert c[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_c0js_is_identity(self, circle300):
        _, _, model = circle300
        c = structure_constants(model, 12)
        npt.assert_allclose(c[0], np.eye(12), atol=1e-10)

    def test_symmetric_in_leading_indices(self, noisy_circle):
        _, _, model = noisy_circle
        c = structure_constants(model, 10)
        npt.assert_allclose(c, np.swapaxes(c, 0, 1), atol=1e-14)

    @pytest.mark.parametrize('case, m_inner', [('noisy_circle', 40), ('torus_assets', 30)])
    def test_blas_blocks_match_naive_einsum(self, case, m_inner, request):
        model = request.getfixturevalue(case)[2]
        c = structure_constants(model, m_inner)
        npt.assert_array_equal(c, c.swapaxes(0, 1))
        phi = model.eig_phi[:, :m_inner]
        naive = np.einsum('ai,aj,as->ijs', phi * model.inner_weights[:, None], phi, phi)
        npt.assert_allclose(c, naive, rtol=0, atol=1e-13)

    @pytest.mark.parametrize('case', ['circle300', 'torus_assets'])
    def test_frame_rows_have_the_bits_of_the_full_cube(self, case, request):
        # a frame of m_basis=6 fills c_ijs and c_jis for i < 6 only, with the
        # bits of the full cube, which structure_constants still returns
        model = request.getfixturevalue(case)[2]
        full = structure_constants(model, 30)
        assert full.shape == (30, 30, 30) and np.isfinite(full).all()
        npt.assert_array_equal(full, full.swapaxes(0, 1))
        rows = sec._structure_constants(model, 30, 6)
        npt.assert_array_equal(rows[:6], full[:6])
        npt.assert_array_equal(rows[:, :6], full[:, :6])

    def test_circle_triple_products_match_fourier_identities(self, circle300):
        # with phi_1, phi_2 the first harmonic pair and phi_3, phi_4 the
        # second, <phi_1^2, .> projects onto the second pair with total
        # squared weight 1/2 regardless of the eigensolver's in-pair phase
        _, _, model = circle300
        c = structure_constants(model, 6)
        assert c[1, 1, 3] ** 2 + c[1, 1, 4] ** 2 == pytest.approx(0.5, rel=0.05)
        assert c[1, 2, 3] ** 2 + c[1, 2, 4] ** 2 == pytest.approx(0.5, rel=0.05)
        assert abs(c[1, 1, 1]) < 0.02 and abs(c[1, 1, 2]) < 0.02


class TestMetricTensor:
    def test_matches_naive_loops_on_fitted_model(self, noisy_circle):
        _, _, model = noisy_circle
        c = structure_constants(model, 15)
        xi = model.eig_xi[:15]
        fast = metric_tensor(c, xi, 5)
        npt.assert_allclose(fast, naive_metric_tensor(c, xi, 5), atol=1e-10)

    def test_rows_with_constant_gradient_vanish(self, circle300):
        _, _, model = circle300
        c = structure_constants(model, 20)
        G = metric_tensor(c, model.eig_xi[:20], 5)
        for i in range(5):
            npt.assert_allclose(G[i * 5 + 0], 0.0, atol=1e-8)
            npt.assert_allclose(G[:, i * 5 + 0], 0.0, atol=1e-8)

    def test_symmetry(self, noisy_circle):
        _, _, model = noisy_circle
        c = structure_constants(model, 20)
        G = metric_tensor(c, model.eig_xi[:20], 6)
        npt.assert_allclose(G, G.T, atol=1e-10)

    def test_first_harmonic_energy_identity(self, circle300):
        # <grad phi_1, grad phi_1> = xi_1 <phi_1, phi_1> by parts
        _, _, model = circle300
        c = structure_constants(model, 24)
        G = metric_tensor(c, model.eig_xi[:24], 4)
        assert G[1, 1] == pytest.approx(model.eig_xi[1], rel=0.1)

    def test_positive_semidefinite_on_exact_harmonics(self):
        c, lam = harmonic_structure_constants(512, 30)
        G = metric_tensor(c, lam, 6)
        evals = eigh(G, eigvals_only=True)
        assert evals.min() >= -1e-8 * np.abs(evals).max()


class TestDirichletTensor:
    def test_matches_naive_loops_on_fitted_model(self, noisy_circle):
        _, _, model = noisy_circle
        c = structure_constants(model, 15)
        xi = model.eig_xi[:15]
        fast = dirichlet_energy_tensor(c, xi, 5)
        npt.assert_allclose(fast, naive_dirichlet_tensor(c, xi, 5), atol=1e-10)

    def test_symmetry(self, noisy_circle):
        _, _, model = noisy_circle
        c = structure_constants(model, 20)
        E = dirichlet_energy_tensor(c, model.eig_xi[:20], 6)
        npt.assert_allclose(E, E.T, atol=1e-10)

    def test_gradient_fields_have_pure_divergence_energy(self):
        # for gradient frame elements on exact harmonics, the curl term of
        # the energy vanishes and the divergence sum alone reproduces E
        c, lam = harmonic_structure_constants(512, 30)
        m = 4
        E = dirichlet_energy_tensor(c, lam, m)
        m_inner = c.shape[0]
        for (i, j, k, l) in [(0, 1, 0, 1), (0, 2, 0, 2), (0, 1, 0, 3), (0, 3, 0, 3)]:
            div_term = 0.25 * sum(
                (lam[i] - lam[j] - lam[s]) * (lam[k] - lam[l] - lam[s])
                * c[i, j, s] * c[k, l, s] for s in range(m_inner))
            assert E[i * m + j, k * m + l] == pytest.approx(div_term, abs=1e-10)

    def test_positive_semidefinite_on_exact_harmonics(self):
        c, lam = harmonic_structure_constants(512, 30)
        E = dirichlet_energy_tensor(c, lam, 6)
        evals = eigh(E, eigvals_only=True)
        assert evals.min() >= -1e-8 * np.abs(evals).max()

    def test_rotation_field_has_smallest_energy(self, circle_sec):
        frame, _ = circle_sec
        assert abs(frame.etas[0]) < 0.2 * frame.etas[1]


class TestSobolevBasis:
    def test_zero_threshold_keeps_strictly_pd_basis(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 8))
        E = A @ A.T + 0.1 * np.eye(8)
        G = np.eye(8)
        assert sobolev_basis(E, G, 0.0).shape == (8, 8)

    def test_duplicate_frame_columns_reduce_the_basis(self, circle300):
        _, _, model = circle300
        c = structure_constants(model, 20)
        G = metric_tensor(c, model.eig_xi[:20], 4)
        E = dirichlet_energy_tensor(c, model.eig_xi[:20], 4)
        dup = np.r_[np.arange(16), [5]]          # repeat one frame element
        G2 = G[np.ix_(dup, dup)]
        E2 = E[np.ix_(dup, dup)]
        kept = sobolev_basis(E2, G2, 1e-3).shape[1]
        assert kept < len(dup)

    def test_everything_below_threshold_raises(self):
        with pytest.raises(om.DegenerateFrameError):
            sobolev_basis(np.eye(4), np.eye(4), 2.0)

    @pytest.mark.parametrize('tau_frac', [np.nan, np.inf])
    def test_non_finite_threshold_rejected(self, tau_frac):
        with pytest.raises(ValueError, match='tau_frac'):
            om.SecBasisConfig(m_basis=4, tau_frac=tau_frac)

    def test_retained_count_stable_across_resamples(self):
        counts = []
        for seed in range(5):
            cloud, _ = om.generate(om.SynthSpec(kind='circle', n_points=200, seed=seed))
            model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=30))
            c = structure_constants(model, 30)
            G = metric_tensor(c, model.eig_xi[:30], 6)
            E = dirichlet_energy_tensor(c, model.eig_xi[:30], 6)
            keep = np.array([i * 6 + j for i in range(6) for j in range(1, 6)])
            counts.append(sobolev_basis(E[np.ix_(keep, keep)], G[np.ix_(keep, keep)],
                                        1e-3).shape[1])
        assert max(counts) - min(counts) <= 4    # +-2 around the median

    def test_columns_orthonormal(self, circle300):
        _, _, model = circle300
        c = structure_constants(model, 20)
        G = metric_tensor(c, model.eig_xi[:20], 5)
        E = dirichlet_energy_tensor(c, model.eig_xi[:20], 5)
        U = sobolev_basis(E, G, 1e-3)
        npt.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)


@pytest.fixture(scope='module')
def reduced_problem(circle300):
    _, _, model = circle300
    m, m_inner = 6, 30
    c = structure_constants(model, m_inner)
    G = metric_tensor(c, model.eig_xi[:m_inner], m)
    E = dirichlet_energy_tensor(c, model.eig_xi[:m_inner], m)
    keep = np.array([i * m + j for i in range(m) for j in range(1, m)])
    G_r = G[np.ix_(keep, keep)]
    E_r = E[np.ix_(keep, keep)]
    u_tilde = sobolev_basis(E_r, G_r, 1e-3)
    return E_r, G_r, u_tilde


@pytest.fixture(scope='module')
def circle_tensors(circle300):
    """c, xi, G and E of the ``circle_sec`` frame, which the frame does not keep."""
    _, _, model = circle300
    c = structure_constants(model, 30)
    xi = model.eig_xi[:30]
    return c, xi, metric_tensor(c, xi, 6), dirichlet_energy_tensor(c, xi, 6)


class TestEigenfields:

    def test_reduced_eigenpair_residual(self, reduced_problem):
        E_r, G_r, u_tilde = reduced_problem
        etas, coeffs = eigenfields(E_r, G_r, u_tilde, 4)
        Et = u_tilde.T @ E_r @ u_tilde
        Gt = u_tilde.T @ G_r @ u_tilde
        for eta, cv in zip(etas, coeffs, strict=True):
            ct = u_tilde.T @ cv
            resid = np.linalg.norm(Et @ ct - eta * (Gt @ ct))
            # backward-error floor: eps * ||Et|| * ||ct|| covers eigenpairs
            # whose eta is an exact numerical zero
            floor = 1e-13 * np.linalg.norm(Et) * np.linalg.norm(ct)
            assert resid <= max(1e-6 * np.linalg.norm(Et @ ct), floor)

    def test_g_orthonormal_family(self, reduced_problem):
        E_r, G_r, u_tilde = reduced_problem
        _, coeffs = eigenfields(E_r, G_r, u_tilde, 4)
        npt.assert_allclose(coeffs @ G_r @ coeffs.T, np.eye(4), atol=1e-6)

    def test_eta_equals_rayleigh_quotient(self, reduced_problem):
        E_r, G_r, u_tilde = reduced_problem
        etas, coeffs = eigenfields(E_r, G_r, u_tilde, 4)
        for eta, cv in zip(etas, coeffs, strict=True):
            assert cv @ E_r @ cv == pytest.approx(eta, abs=1e-8)

    def test_eta_sorted_ascending(self, reduced_problem):
        E_r, G_r, u_tilde = reduced_problem
        etas, coeffs = eigenfields(E_r, G_r, u_tilde, 6)
        assert etas.shape == (6,) and coeffs.shape == (6, u_tilde.shape[0])
        assert list(etas) == sorted(etas)

    def test_singular_gram_raises(self, circle_tensors):
        # an identity "basis" keeps the exactly-null grad(phi_0) frame
        # columns, so the reduced Gram is singular
        _, _, G, E = circle_tensors
        with pytest.raises(om.SingularGramError):
            eigenfields(E, G, np.eye(G.shape[0]), 2)


class TestOperators:
    def test_zero_coefficients_zero_operator(self, circle_tensors):
        c, xi, G, _ = circle_tensors
        op = field_operator(c, xi, np.zeros(G.shape[0]), 6)
        assert op.shape == (30, 6)
        npt.assert_array_equal(op, 0.0)

    def test_unit_coefficient_selects_gram_column(self, circle_tensors):
        c, xi, G, _ = circle_tensors
        m = 6
        e = np.zeros(m * m)
        e[2 * m + 1] = 1.0
        op = field_operator(c, xi, e, m)
        npt.assert_allclose(op[:m].ravel(), G[:, 2 * m + 1], atol=1e-14)

    def test_field_operator_extends_square_truncation(self, reduced_problem,
                                                      circle_tensors):
        # the first eigenfield of the circle_sec set-up; the frame keeps only
        # its operator, so its coefficients are solved for again here
        E_r, G_r, u_tilde = reduced_problem
        c, xi, G, _ = circle_tensors
        m = 6
        coeffs = np.zeros(m * m)
        coeffs[[i * m + j for i in range(m) for j in range(1, m)]] = \
            eigenfields(E_r, G_r, u_tilde, 1)[1][0]
        square = (G @ coeffs).reshape(m, m)
        extended = field_operator(c, xi, coeffs, m)
        assert extended.shape == (c.shape[0], m)
        npt.assert_allclose(extended[:m], square, atol=1e-10)

    def test_operator_action_matches_pointwise_derivative(self):
        # apply the frame element phi_l grad(phi_k) to f: the reconstructed
        # v(f) must match phi_l * (dphi_k/ds) * (df/ds) computed by central
        # differences along a dense equispaced circle
        n = 720
        phi, lam, theta = sampled_harmonics(n, 24)
        c = np.einsum('ai,aj,as->ijs', phi / n, phi, phi)
        m = 4
        l_idx, k_idx = 2, 1
        coeffs = np.zeros(m * m)
        coeffs[l_idx * m + k_idx] = 1.0
        op = field_operator(c, lam, coeffs, m)
        f = phi[:, 3]
        fhat = (phi / n).T @ f
        recon = phi[:, :24] @ (op @ fhat[:m])
        ds = 2 * np.pi / n
        df = (np.roll(f, -1) - np.roll(f, 1)) / (2 * ds)
        dphik = (np.roll(phi[:, k_idx], -1) - np.roll(phi[:, k_idx], 1)) / (2 * ds)
        direct = phi[:, l_idx] * dphik * df
        rms = np.sqrt(np.mean((recon - direct) ** 2))
        assert rms <= 0.05 * np.sqrt(np.mean(direct ** 2))


class TestFieldArrows:
    """The arrows of one field at the training points, from ``eig_phi``."""

    def test_zero_operator_zero_arrows(self, circle_sec, circle300):
        _, _, model = circle300
        _, fhat = circle_sec
        # only field 0 is read: field 1 would give nonzero arrows
        zero = om.SecFrame(etas=np.zeros(2), ops=np.stack([np.zeros((6, 6)), np.eye(6)]))
        arrows = om.field_arrows(model, zero, fhat)
        assert arrows.shape == (300, 2)
        npt.assert_array_equal(arrows, 0.0)

    def test_first_field_arrow_is_tangent(self, circle_sec, circle300):
        cloud, _, model = circle300
        frame, fhat = circle_sec
        # training point 0 is (1, 0), where the tangent is the y axis
        npt.assert_array_equal(cloud.points[0], [1.0, 0.0])
        arrow = om.field_arrows(model, frame, fhat)[0]
        angle = np.degrees(np.arccos(abs(arrow[1]) / np.linalg.norm(arrow)))
        assert angle <= 15.0

    def test_4d_arrows_align_with_isometric_tangent(self, fig3_4d):
        arrows, tangents = fig3_4d['arrows'], fig3_4d['tangents']
        cs = np.abs(np.sum(arrows * tangents, axis=1))
        cs /= np.linalg.norm(arrows, axis=1) * np.linalg.norm(tangents, axis=1)
        assert np.mean(cs >= 0.9) >= 0.9


class TestTangentFrame:
    def test_columns_orthonormal(self, circle_sec, circle300):
        _, _, model = circle300
        frame, fhat = circle_sec
        T = om.tangent_frame_at(model, frame, fhat, np.array([0.0, 1.0]), 1)
        npt.assert_allclose(T.T @ T, np.eye(1), atol=1e-10)

    def test_circle_direction_matches_analytic(self, circle_sec, circle300):
        cloud, params, model = circle300
        frame, fhat = circle_sec
        for i in (0, 60, 190):
            theta = np.radians(params[i, 0])
            T = om.tangent_frame_at(model, frame, fhat, cloud.points[i], 1)
            tangent = np.array([-np.sin(theta), np.cos(theta)])
            angle = np.degrees(np.arccos(min(abs(T[:, 0] @ tangent), 1.0)))
            assert angle <= 15.0

    def test_rank_deficiency_raises(self, circle_sec, circle300):
        # fields whose arrows vanish cannot span any tangent direction
        import dataclasses
        _, _, model = circle300
        frame, fhat = circle_sec
        dead = dataclasses.replace(frame, ops=np.zeros_like(frame.ops))
        with pytest.raises(om.RankDeficiencyError):
            om.tangent_frame_at(model, dead, fhat, np.array([1.0, 0.0]), 1)

    def test_second_direction_on_circle_is_weak(self, circle_sec, circle300):
        # a 1-manifold's arrow stack is numerically near rank one: the
        # second singular value is noise well below the leading one
        _, _, model = circle300
        frame, fhat = circle_sec
        from onmanifold.nystrom import eigenfunction_values
        x = np.array([1.0, 0.0])
        vals = eigenfunction_values(model, x, frame.m_out)
        arrows = np.stack([vals @ (op @ fhat) for op in frame.ops[:2]])
        sv = np.linalg.svd(arrows.T, compute_uv=False)
        assert sv[1] <= 0.2 * sv[0]

    def test_stack_is_one_call_per_point(self, circle_sec, circle300, monkeypatch):
        cloud, _, model = circle300
        frame, fhat = circle_sec
        pts = cloud.points[::37] * 1.02
        alone = np.stack([om.tangent_frame_at(model, frame, fhat, x, 1) for x in pts])
        arrows, rows = [], []
        frame_arrows, row_core = sec._frame_arrows, nystrom._row_core
        monkeypatch.setattr(sec, '_frame_arrows',
                            lambda *a: arrows.append(1) or frame_arrows(*a))
        monkeypatch.setattr(nystrom, '_row_core',
                            lambda m, d2: rows.append(d2.shape[0]) or row_core(m, d2))
        stacked = om.tangent_frame_at(model, frame, fhat, pts, 1)
        assert stacked.shape == (len(pts), 2, 1)
        npt.assert_array_equal(stacked, alone)
        # the arrows once per call, and one one-point row per point
        assert arrows == [1] and rows == [1] * len(pts)

    def test_empty_stack(self, circle_sec, circle300):
        _, _, model = circle300
        frame, fhat = circle_sec
        assert om.tangent_frame_at(model, frame, fhat, np.empty((0, 2)), 1).shape == (0, 2, 1)

    def test_torus_stack_is_one_call_per_point(self, torus_assets):
        cloud, params, model, frame, fhat = torus_assets
        pts = cloud.points[::400] + 0.01
        npt.assert_array_equal(om.tangent_frame_at(model, frame, fhat, pts, 2),
                               np.stack([om.tangent_frame_at(model, frame, fhat, x, 2)
                                         for x in pts]))

    def test_torus_planes(self, torus_assets):
        cloud, params, model, frame, fhat = torus_assets
        queries, qparams = om.generate(om.SynthSpec(kind='torus', n_points=100, seed=99))
        hits = 0
        for x, (u_deg, v_deg) in zip(queries.points, qparams):
            T = om.tangent_frame_at(model, frame, fhat, x, 2)
            angles = principal_angles_deg(T, torus_tangent_basis(u_deg, v_deg))
            hits += angles.max() <= 20.0
        assert hits >= 85


class TestLocalPca:
    def test_global_pca_matches_covariance_eigenvector(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((500, 3)) * np.array([3.0, 1.0, 0.2])
        cloud = om.PointCloud(pts)
        direction = local_pca_tangent(cloud, pts.mean(axis=0), 500, 1)[:, 0]
        cov = np.cov((pts - pts.mean(axis=0)).T)
        evals, evecs = np.linalg.eigh(cov)
        top = evecs[:, -1]
        assert abs(direction @ top) >= 1.0 - 1e-10

    def test_clean_circle_tangent(self, circle300):
        cloud, params, _ = circle300
        for i in (10, 111):
            theta = np.radians(params[i, 0])
            v = local_pca_tangent(cloud, cloud.points[i], 20, 1)[:, 0]
            tangent = np.array([-np.sin(theta), np.cos(theta)])
            assert np.degrees(np.arccos(min(abs(v @ tangent), 1.0))) <= 15.0

    @pytest.mark.parametrize('k, dim, rank', [(2, 2, 1), (1, 1, 0)])
    def test_neighbours_that_span_fewer_directions_are_refused(self, k, dim, rank):
        # two centred neighbours span one direction and one neighbour none,
        # so any second (or first) basis vector would be arbitrary
        cloud = om.generate(om.SynthSpec(kind='torus', n_points=300, seed=1))[0]
        with pytest.raises(om.RankDeficiencyError, match=(
                f'^the {k} nearest training points span only {rank} of {dim} tangent '
                'directions at x$')):
            local_pca_tangent(cloud, cloud.points[0], k, dim)

    def test_sec_beats_pca_in_noisy_region(self, fig3_2d):
        out = fig3_2d
        arrows, tangents = out['arrows'], out['tangents']
        cs = np.abs(np.sum(arrows * tangents, axis=1))
        cs /= np.linalg.norm(arrows, axis=1) * np.linalg.norm(tangents, axis=1)
        pca = out['pca'][20]
        cs_pca = np.abs(np.sum(pca * tangents, axis=1)) / np.linalg.norm(pca, axis=1)
        noisy = ~out['clean_mask']
        assert cs[noisy].mean() > cs_pca[noisy].mean()


class TestSpectralScreen:
    """The roughness screen against an explicitly built D^{-1} K."""

    @pytest.mark.parametrize('case', ['pgd_run', 'torus_assets'])
    def test_matches_explicit_smoother(self, case, request, monkeypatch):
        if case == 'pgd_run':
            model = request.getfixturevalue(case)['model']
            config, n_fields = om.SecBasisConfig(m_basis=8, m_inner=40), 2
        else:
            model = request.getfixturevalue(case)[2]
            config, n_fields = om.SecBasisConfig(m_basis=13, m_inner=72), 4
        spectral = om.build_sec_frame(model, config, n_fields)

        K, _, _ = dense_kernel_matrix(dense_squared_distances(model.training.points),
                                      model.knn_scale, model.config)
        smoother = K / model.degree[:, None]
        w = model.inner_weights
        spectral_screen = sec._arrow_screen
        screens = []

        def explicit_screen(A, xi):
            # each candidate's arrows on the training points, and their
            # change under one step of the explicit smoother
            arrows = model.eig_phi[:, :A.shape[1]] @ A
            mass = np.einsum('i,fik->f', w, arrows ** 2)
            resid = arrows - smoother @ arrows
            rough = np.einsum('i,fik->f', w, resid ** 2) / mass
            screens.append(((mass, rough), spectral_screen(A, xi)))
            return mass, rough

        monkeypatch.setattr(sec, '_arrow_screen', explicit_screen)
        explicit = om.build_sec_frame(model, config, n_fields)
        assert len(screens) == 1 and len(screens[0][0][0]) > n_fields
        (want_mass, want_rough), (got_mass, got_rough) = screens[0]
        npt.assert_allclose(got_mass, want_mass, rtol=1e-8)
        npt.assert_allclose(got_rough, want_rough, rtol=1e-8)
        npt.assert_array_equal(explicit.ops, spectral.ops)
        npt.assert_array_equal(explicit.etas, spectral.etas)


class TestSecBasisConfig:
    @pytest.mark.parametrize('field, value', [
        ('m_basis', 4.5), ('m_basis', True), ('m_inner', 10.5), ('m_inner', False),
    ])
    def test_sizes_must_be_integers(self, field, value):
        sizes = {'m_basis': 4, 'm_inner': 10, field: value}
        with pytest.raises(ValueError, match=f'^{field} must be an integer, got {value!r}$'):
            om.SecBasisConfig(**sizes)

    def test_numpy_integer_sizes_stored_as_ints(self):
        config = om.SecBasisConfig(m_basis=np.int64(4), m_inner=np.int32(10))
        assert type(config.m_basis) is int and type(config.m_inner) is int
        assert config == om.SecBasisConfig(m_basis=4, m_inner=10)
        assert om.SecBasisConfig(m_basis=np.int64(4)).m_inner is None


@pytest.fixture(params=['circle_sec', 'fig3_2d', 'torus_assets'])
def built_frame(request):
    """A session model, the frame settings and field count of its session
    frame, and that frame."""
    if request.param == 'circle_sec':
        model = request.getfixturevalue('circle300')[2]
        return model, om.SecBasisConfig(6, 30), 3, request.getfixturevalue('circle_sec')[0]
    if request.param == 'fig3_2d':
        out, p = request.getfixturevalue('fig3_2d'), FIG3_2D
        return (out['model'], om.SecBasisConfig(p['m_basis'], p['m_inner']), p['n_fields'],
                out['frame'])
    _, _, model, frame, _ = request.getfixturevalue('torus_assets')
    return model, om.SecBasisConfig(13, 72), 4, frame


class TestFrameReadsFrameRows:
    """``build_sec_frame`` fills the structure constants only for the rows
    i < m_basis and their mirrors, the only entries its tensors read."""

    @staticmethod
    def rebuild(built_frame, monkeypatch, constants):
        """The frame built again, with ``constants(model, m_inner, m_basis)``
        in place of the structure constants."""
        model, config, n_fields, _ = built_frame
        monkeypatch.setattr(sec, '_structure_constants', constants)
        return om.build_sec_frame(model, config, n_fields)

    def test_every_row_filled_gives_the_same_frame(self, built_frame, monkeypatch):
        fill = sec._structure_constants
        frame = self.rebuild(built_frame, monkeypatch,
                             lambda model, m_inner, m_basis: fill(model, m_inner, m_inner))
        npt.assert_array_equal(frame.etas, built_frame[3].etas)
        npt.assert_array_equal(frame.ops, built_frame[3].ops)

    def test_unread_block_is_not_read(self, built_frame, monkeypatch):
        fill = sec._structure_constants

        def poisoned(model, m_inner, m_basis):
            c = fill(model, m_inner, m_basis)
            c[m_basis:, m_basis:] = np.nan
            return c

        frame = self.rebuild(built_frame, monkeypatch, poisoned)
        assert np.isfinite(frame.etas).all() and np.isfinite(frame.ops).all()
        npt.assert_array_equal(frame.etas, built_frame[3].etas)
        npt.assert_array_equal(frame.ops, built_frame[3].ops)

    def test_stacked_operators_are_one_field_operators(self, circle_tensors):
        c, xi, G, _ = circle_tensors
        coeffs = np.random.default_rng(3).standard_normal((5, G.shape[0]))
        ops = sec._field_operators(c, xi, coeffs, 6)
        for op, row in zip(ops, coeffs):
            npt.assert_array_equal(op, field_operator(c, xi, row, 6))


class TestFramePipeline:
    @pytest.mark.parametrize('etas, ops', [
        ((2,), (3, 8, 4)),          # one eta too few
        ((2, 1), (2, 8, 4)),
        ((2,), (2, 8)),
        ((2,), (2, 4, 8)),          # more input modes than output modes
        ((0,), (0, 8, 4)),
    ])
    def test_inconsistent_arrays_refused(self, etas, ops):
        with pytest.raises(ValueError, match='etas of shape'):
            om.SecFrame(etas=np.zeros(etas), ops=np.zeros(ops))

    @pytest.mark.parametrize('n_fields', [0, -1])
    def test_no_fields_refused(self, circle300, n_fields):
        _, _, model = circle300
        with pytest.raises(ValueError, match=f'^n_fields must be >= 1, got {n_fields}$'):
            om.build_sec_frame(model, om.SecBasisConfig(m_basis=6, m_inner=30), n_fields)

    def test_sizes_are_read_from_ops(self):
        frame = om.SecFrame(etas=[0.0, 1.0], ops=np.zeros((2, 8, 4)))
        assert (frame.m_out, frame.m_basis) == (8, 4)
        assert frame.etas.dtype == np.float64

    def test_frame_invariants(self, circle_sec, circle_tensors):
        frame, _ = circle_sec
        _, _, G, _ = circle_tensors
        assert list(frame.etas) == sorted(frame.etas)
        assert frame.ops.shape == (3, 30, 6) and (frame.m_out, frame.m_basis) == (30, 6)
        # a vector field differentiates: it sends the constant phi_0 to 0
        npt.assert_allclose(frame.ops[:, :, 0], 0.0, atol=1e-12 * np.abs(frame.ops).max())
        evG = eigh(G, eigvals_only=True)
        assert evG.min() >= -1e-4 * np.abs(evG).max()   # PSD up to truncation

    def test_permutation_invariance_of_tensors(self):
        # relabeling training points leaves c (and hence G, E) unchanged
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((80, 2))
        cfg = om.CidmConfig(k_nn=6, n_eigs=12)
        base = om.fit(om.PointCloud(pts), cfg)
        perm = rng.permutation(80)
        permuted = om.fit(om.PointCloud(pts[perm]), cfg)
        c1 = structure_constants(base, 10)
        c2 = structure_constants(permuted, 10)
        npt.assert_allclose(c1, c2, atol=1e-8)

    def test_truncation_stability_of_energies(self):
        # once the s-summation out-resolves low-mode products (the default
        # regime, m_inner ~ 2 m_basis^2), growing it further barely moves
        # the spectrum.  The rotation mode's eta is compared on the scale
        # of the first genuinely positive energy, since its continuum value
        # is zero and a relative-change test on it measures only noise.
        cloud, _ = om.generate(om.SynthSpec(kind='circle', n_points=200, seed=1))
        model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=60))
        etas = {}
        for m_inner in (32, 48):
            frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=4, m_inner=m_inner),
                                       n_fields=2)
            etas[m_inner] = frame.etas
        assert abs(etas[32][1] - etas[48][1]) <= 0.1 * abs(etas[48][1])
        scale = abs(etas[48][1])
        assert abs(etas[32][0] - etas[48][0]) <= 0.25 * scale
        assert abs(etas[48][0]) <= 0.6 * scale
