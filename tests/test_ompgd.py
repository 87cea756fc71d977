import re
import warnings
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onmanifold as om
from onmanifold import nystrom, ompgd, sec
from onmanifold.ompgd import om_pgd, om_pgd_step

from conftest import ReferenceSectorClassifier, angle_diff_deg


class TestSectorClassifier:
    def test_sector_center_predicts_own_label(self):
        oracle = om.sector_classifier(5, boundary_offset=10.0)
        for c, center in enumerate(oracle.center_angles_deg):
            rad = np.radians(center)
            assert oracle.predict(np.array([np.cos(rad), np.sin(rad)])) == c

    def test_sector_of_matches_predict(self):
        oracle = om.sector_classifier(4, boundary_offset=33.0)
        rng = np.random.default_rng(0)
        for theta in rng.uniform(0, 360, 50):
            x = np.array([np.cos(np.radians(theta)), np.sin(np.radians(theta))])
            assert oracle.predict(x) == oracle.sector_of(theta)

    def test_loss_grad_matches_finite_differences(self):
        oracle = om.sector_classifier(4, boundary_offset=40.0)
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(20):
            theta, r = rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 1.5)
            x = np.array([r * np.cos(theta), r * np.sin(theta)])
            label = rng.integers(0, 4)
            got = oracle.loss_grad(x, int(label))
            fd = np.array([
                (oracle.loss(x + h * e, int(label)) - oracle.loss(x - h * e, int(label))) / (2 * h)
                for e in np.eye(2)])
            npt.assert_allclose(got, fd, atol=1e-6, rtol=1e-5)

    def test_gradient_points_toward_nearest_boundary(self):
        # evaluated slightly off the sector center, where the nearest
        # boundary is unambiguous (the exact center is a symmetric
        # stationary point of the loss)
        oracle = om.sector_classifier(4, boundary_offset=0.0)
        center = oracle.center_angles_deg[0]          # 45 deg
        for offset, want_sign in ((12.0, +1.0), (-12.0, -1.0)):
            theta = np.radians(center + offset)
            x = np.array([np.cos(theta), np.sin(theta)])
            g = oracle.loss_grad(x, 0)
            tangent = np.array([-np.sin(theta), np.cos(theta)])
            assert np.sign(g @ tangent) == want_sign

    def test_few_classes_rejected(self):
        with pytest.raises(ValueError):
            om.sector_classifier(1)

    @pytest.mark.parametrize('kwargs, message', [
        (dict(n_classes=0), 'n_classes must be >= 2, got 0'),
        (dict(n_classes=-3), 'n_classes must be >= 2, got -3'),
        (dict(n_classes=2.5), 'n_classes must be an integer, got 2.5'),
        (dict(n_classes=True), 'n_classes must be an integer, got True'),
        (dict(n_classes=4, boundary_offset_deg=float('nan')),
         'boundary_offset_deg must be finite, got nan'),
        (dict(n_classes=4, boundary_offset_deg=-float('inf')),
         'boundary_offset_deg must be finite, got -inf'),
    ])
    def test_bad_settings_named_by_the_type(self, kwargs, message):
        # 0 was a ZeroDivisionError, 2.5 built 3 sectors, -3 an empty argmax
        with pytest.raises(ValueError, match=f'^{re.escape(message)}$'):
            om.SectorClassifier(**kwargs)

    def test_numpy_integer_classes_stored_as_int(self):
        oracle = om.SectorClassifier(np.int64(4), boundary_offset_deg=40.0)
        assert type(oracle.n_classes) is int
        assert oracle == om.sector_classifier(4, boundary_offset=40.0)

    @pytest.mark.parametrize('n_classes, offset', [(4, 40.0), (3, 0.0), (7, 333.3)])
    def test_matches_the_classifier_with_per_call_centres(self, n_classes, offset):
        # the centres in radians are derived once; every output keeps its bits
        oracle = om.sector_classifier(n_classes, boundary_offset=offset)
        ref = ReferenceSectorClassifier(n_classes, offset)
        rng = np.random.default_rng(n_classes)
        theta = np.concatenate([np.radians(oracle.boundary_angles_deg),
                                np.radians(oracle.center_angles_deg),
                                rng.uniform(0.0, 2.0 * np.pi, 200 - 2 * n_classes)])
        r = rng.uniform(1e-3, 10.0, 200)
        for x, label in zip(np.column_stack([r * np.cos(theta), r * np.sin(theta)]),
                            rng.integers(0, n_classes, 200)):
            label = int(label)
            npt.assert_array_equal(oracle.loss_grad(x, label), ref.loss_grad(x, label))
            assert oracle.loss(x, label) == ref.loss(x, label)
            assert oracle.predict(x) == ref.predict(x)

    @pytest.mark.parametrize('label, message', [
        (4, 'target_label must be in [0, 3], got 4'),
        (7, 'target_label must be in [0, 3], got 7'),
        (-1, 'target_label must be in [0, 3], got -1'),
        (1.0, 'target_label must be an integer, got 1.0'),
    ], ids=['4', '7', '-1', '1.0'])
    def test_label_outside_the_classes_named(self, label, message):
        # numpy would wrap -1 to the last class and refuse 7 unnamed
        oracle = om.sector_classifier(4)
        x = np.array([0.6, 0.8])
        message = re.escape(message)
        with pytest.raises(ValueError, match=message):
            oracle.loss_grad(x, label)
        with pytest.raises(ValueError, match=message):
            oracle.loss(x, label)

    def test_loss_grad_at_origin_rejected(self):
        oracle = om.sector_classifier(4)
        with pytest.raises(ValueError, match='undefined at the origin'):
            oracle.loss_grad(np.zeros(2), 0)
        with pytest.raises(ValueError, match='undefined at the origin'):
            oracle.loss_grad(np.array([-0.0, 1e-200]), 0)     # squared radius underflows


class TestPgdConfig:
    @pytest.mark.parametrize('alpha', [np.inf, np.nan, -1.0])
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ValueError, match='alpha must be finite and >= 0'):
            om.PgdConfig(alpha=alpha, max_steps=3)

    def test_largest_finite_alpha_accepted(self):
        assert om.PgdConfig(alpha=np.finfo(float).max, max_steps=3).alpha > 0

    @pytest.mark.parametrize('field, value', [
        ('max_steps', 2.5), ('max_steps', True), ('tangent_dim', 1.5), ('tangent_dim', '1'),
    ])
    def test_sizes_must_be_integers(self, field, value):
        sizes = {'max_steps': 3, 'tangent_dim': 1, field: value}
        with pytest.raises(ValueError,
                           match=f'^{field} must be an integer, got {re.escape(repr(value))}$'):
            om.PgdConfig(alpha=0.1, **sizes)

    def test_numpy_integer_sizes_stored_as_ints(self):
        config = om.PgdConfig(alpha=0.1, max_steps=np.int64(3), tangent_dim=np.int32(1))
        assert type(config.max_steps) is int and type(config.tangent_dim) is int
        assert config == om.PgdConfig(alpha=0.1, max_steps=3, tangent_dim=1)


class TestSemanticLabels:
    def test_training_points_recovered(self, circle_clean_full):
        cloud, params, model = circle_clean_full
        smap = om.semantic_map(model, params, [True], model.n_eigs)
        for i in (0, 50, 125):
            got = om.semantic_labels(model, smap, cloud.points[i])
            assert abs(angle_diff_deg(got[0], params[i, 0])) <= 1.0

    def test_off_sample_angle(self, circle_clean_full):
        _, params, model = circle_clean_full
        smap = om.semantic_map(model, params, [True], model.n_eigs)
        x = np.array([np.cos(np.radians(90.0)), np.sin(np.radians(90.0))])
        got = om.semantic_labels(model, smap, x)
        assert abs(angle_diff_deg(got[0], 90.0)) <= 2.0

    def test_radial_perturbation_keeps_angle(self, semantic_model):
        # off-manifold queries use a truncated map: the full-spectrum map
        # interpolates on-sample but divides by near-null kernel
        # eigenvalues, which amplifies noise away from the manifold
        _, params, model = semantic_model
        smap = om.semantic_map(model, params, [True], 20)
        for theta in np.arange(0.0, 360.0, 24.0):
            rad = np.radians(theta)
            x = 1.5 * np.array([np.cos(rad), np.sin(rad)])
            got = om.semantic_labels(model, smap, x)
            assert abs(angle_diff_deg(got[0], theta)) <= 5.0

    def test_non_periodic_parameters_pass_through(self, circle_clean_full):
        cloud, params, model = circle_clean_full
        values = np.column_stack([params[:, 0], 3.0 * params[:, 0] + 1.0])
        smap = om.semantic_map(model, values, [True, False], model.n_eigs)
        got = om.semantic_labels(model, smap, cloud.points[33])
        assert abs(angle_diff_deg(got[0], params[33, 0])) <= 1.0
        assert got[1] == pytest.approx(3.0 * params[33, 0] + 1.0, rel=1e-2)

    @pytest.mark.parametrize('shape', [(1, 2), (2, 2)])
    def test_non_vector_query_named(self, circle_clean_full, shape):
        _, params, model = circle_clean_full
        smap = om.semantic_map(model, params, [True], 10)
        with pytest.raises(om.InvalidQueryError, match=re.escape(f'shape {shape}')):
            om.semantic_labels(model, smap, np.ones(shape))

    def test_periodic_flags_must_match_columns(self, circle_clean_full):
        _, params, model = circle_clean_full
        with pytest.raises(ValueError):
            om.semantic_map(model, params, [True, False], 10)


class TestOmPgdStep:
    def test_exactly_normal_gradient_stalls(self, pgd_run):
        # the projection annihilates a gradient orthogonal to the computed
        # tangent frame; build the orthogonal complement of the actual
        # frame so the orthogonality is exact
        projector, model = pgd_run['projector'], pgd_run['model']
        cloud = pgd_run['cloud']
        frame, fhat = pgd_circle_frame(pgd_run)
        x_on = om.project(projector, cloud.points[0], 2)
        T = om.tangent_frame_at(model, frame, fhat, x_on, 1)
        normal = np.array([-T[1, 0], T[0, 0]])

        class NormalOracle:
            def predict(self, x):
                return 0

            def loss_grad(self, x, label):
                return normal

        with pytest.raises(om.StalledError):
            om_pgd_step(x_on, 0, NormalOracle(), projector, frame, fhat,
                        om.PgdConfig(alpha=0.05, max_steps=3))

    def test_zero_alpha_is_a_regular_step(self, pgd_run):
        projector = pgd_run['projector']
        frame, fhat = pgd_circle_frame(pgd_run)
        cloud, oracle = pgd_run['cloud'], pgd_run['oracle']
        x_on = om.project(projector, cloud.points[10], 2)
        step = om_pgd_step(x_on, oracle.predict(x_on), oracle, projector, frame,
                           fhat, om.PgdConfig(alpha=0.0, max_steps=3))
        npt.assert_allclose(step.x_next, x_on, atol=1e-3)

    def test_tangential_step_advances_angle_with_gradient_sign(self, pgd_run):
        projector, oracle = pgd_run['projector'], pgd_run['oracle']
        frame, fhat = pgd_circle_frame(pgd_run)
        theta0 = 30.0
        x_on = om.project(projector,
                          np.array([np.cos(np.radians(theta0)), np.sin(np.radians(theta0))]), 2)
        label = oracle.sector_of(theta0)
        g = oracle.loss_grad(x_on, label)
        tangent = np.array([-x_on[1], x_on[0]])
        expected_sign = np.sign(g @ tangent)
        step = om_pgd_step(x_on, label, oracle, projector, frame, fhat,
                           om.PgdConfig(alpha=np.radians(2.0), max_steps=3))
        moved = angle_diff_deg(np.degrees(np.arctan2(step.x_next[1], step.x_next[0])) % 360,
                               theta0)
        assert np.sign(moved) == expected_sign
        assert 1.0 <= abs(moved) <= 3.0

    def test_projection_contracts_gradient(self, pgd_run):
        # the step projects the unit gradient onto an orthonormal frame
        projector, oracle = pgd_run['projector'], pgd_run['oracle']
        frame, fhat = pgd_circle_frame(pgd_run)
        x_on = om.project(projector, np.array([0.3, 0.95]), 2)
        step = om_pgd_step(x_on, 0, oracle, projector, frame, fhat,
                           om.PgdConfig(alpha=0.01, max_steps=3))
        assert 0.0 < np.linalg.norm(step.g_tan) <= 1.0 + 1e-15
        npt.assert_allclose(step.x_stepped - step.x_on, 0.01 * step.g_tan, rtol=0, atol=1e-15)

    def test_tangent_projection_is_exact_linear_algebra(self, pgd_run):
        projector, oracle = pgd_run['projector'], pgd_run['oracle']
        model = pgd_run['model']
        frame, fhat = pgd_circle_frame(pgd_run)
        x_on = om.project(projector, np.array([0.7, 0.7]), 2)
        step = om_pgd_step(x_on, 1, oracle, projector, frame, fhat,
                           om.PgdConfig(alpha=0.02, max_steps=3))
        T = om.tangent_frame_at(model, frame, fhat, x_on, 1)
        normal = np.array([-T[1, 0], T[0, 0]])
        assert abs(step.g_tan @ normal) <= 1e-10


def pgd_circle_frame(pgd_run):
    model = pgd_run['model']
    frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=8, m_inner=40),
                               n_fields=2)
    fhat = om.fourier_coefficients(model, pgd_run['cloud'].points, 8)
    return frame, fhat


class TestOmPgd:
    def test_reaches_boundary_and_misclassifies(self, pgd_run):
        trace = pgd_run['trace']
        assert trace.status == 'misclassified'
        assert 4 <= len(trace.steps) <= 10
        terminal = trace.steps[-1]
        assert abs(angle_diff_deg(terminal.semantics[0], 40.0)) <= 3.0

    def test_iterates_stay_on_manifold(self, pgd_run):
        trace, projector = pgd_run['trace'], pgd_run['projector']
        model = pgd_run['model']
        for step in trace.steps:
            residual = np.linalg.norm(om.project(projector, step.x_next, 1) - step.x_next)
            assert residual <= 0.02 * model.data_diameter

    def test_no_label_means_the_oracles_label_of_the_projected_start(self, pgd_run):
        start, (_, oracle, *rest), label_map = pgd_attack(pgd_run, 40)
        x0 = om.project_many(rest[0], start)
        label = oracle.predict(x0)
        given = om_pgd(start, label, oracle, *rest, label_map=label_map)
        derived = om_pgd(start, None, oracle, *rest, label_map=label_map)
        assert derived.true_label == label and type(derived.true_label) is int
        assert derived.status == given.status and len(derived.steps) >= 4
        npt.assert_array_equal(derived.x0, given.x0)
        assert derived.to_records() == given.to_records()

    def test_label_outside_the_classes_named(self, pgd_run):
        start, (_, *args), label_map = pgd_attack(pgd_run, None)
        with pytest.raises(ValueError, match=re.escape('target_label must be in [0, 3], got 7')):
            om_pgd(start, 7, *args)

    def test_never_misclassifying_oracle_hits_max_steps(self, pgd_run):
        projector, model = pgd_run['projector'], pgd_run['model']
        frame, fhat = pgd_circle_frame(pgd_run)
        base = pgd_run['oracle']

        class Stubborn:
            def predict(self, x):
                return 7            # never equals any sector's true label

            def loss_grad(self, x, label):
                return base.loss_grad(x, 0)

        config = om.PgdConfig(alpha=np.radians(1.0), max_steps=5)
        start = np.array([1.0, 0.05])
        trace = om_pgd(start, 3, Stubborn(), projector, frame, fhat, config)
        # predict() never returns 3, so the first step already "misclassifies"
        assert trace.status == 'misclassified'

        class Agreeable:
            def predict(self, x):
                return 3

            def loss_grad(self, x, label):
                return base.loss_grad(x, 0)

        trace = om_pgd(start, 3, Agreeable(), projector, frame, fhat, config)
        assert trace.status == 'max_steps'
        assert len(trace.steps) == 5

    def test_stall_is_a_terminal_status(self, pgd_run):
        projector = pgd_run['projector']
        frame, fhat = pgd_circle_frame(pgd_run)

        class ZeroGradient:
            def predict(self, x):
                return 0

            def loss_grad(self, x, label):
                return np.zeros(2)

        trace = om_pgd(np.array([1.0, 0.0]), 0, ZeroGradient(), projector, frame,
                       fhat, om.PgdConfig(alpha=0.1, max_steps=4))
        assert trace.status == 'stalled'
        assert len(trace.steps) == 0

    def test_deterministic_rerun(self, pgd_run):
        from onmanifold.repro import pgd_circle_pipeline
        a = pgd_run['trace']
        b = pgd_circle_pipeline()['trace']
        assert a.status == b.status and len(a.steps) == len(b.steps)
        for sa, sb in zip(a.steps, b.steps):
            npt.assert_array_equal(sa.x_next, sb.x_next)
            npt.assert_array_equal(sa.g_raw, sb.g_raw)
            assert sa.label_pred == sb.label_pred

    def test_gradient_scale_invariance_with_normalization(self, pgd_run):
        projector = pgd_run['projector']
        frame, fhat = pgd_circle_frame(pgd_run)
        base = pgd_run['oracle']

        class Scaled:
            def __init__(self, factor):
                self.factor = factor

            def predict(self, x):
                return base.predict(x)

            def loss_grad(self, x, label):
                return self.factor * base.loss_grad(x, label)

        config = om.PgdConfig(alpha=np.radians(2.0), max_steps=8)
        start = np.array([np.cos(np.radians(30.0)), np.sin(np.radians(30.0))])
        label = base.sector_of(30.0)
        t1 = om_pgd(start, label, Scaled(1.0), projector, frame, fhat, config)
        t2 = om_pgd(start, label, Scaled(1e4), projector, frame, fhat, config)
        assert [s.label_pred for s in t1.steps] == [s.label_pred for s in t2.steps]
        for sa, sb in zip(t1.steps, t2.steps):
            npt.assert_allclose(sa.x_next, sb.x_next, atol=1e-12)

    def test_records_are_json_serializable(self, pgd_run):
        import json
        payload = json.dumps(pgd_run['trace'].to_records())
        assert json.loads(payload)[0]['step'] == 0


PGD_STEP_FIELDS = ('index', 'x_on', 'g_raw', 'g_tan', 'x_stepped', 'x_next', 'label_pred',
                   'semantics', 'x_next_values')


def pgd_attack(pgd_run, label_modes, m_out=40):
    """A few-step attack from 100 degrees with a label map of
    ``label_modes`` modes, or none, and SEC operators with ``m_out`` modes."""
    model, oracle = pgd_run['model'], pgd_run['oracle']
    if m_out == 40:
        frame, fhat = pgd_circle_frame(pgd_run)
    else:
        frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=8, m_inner=m_out),
                                   n_fields=2)
        fhat = om.fourier_coefficients(model, pgd_run['cloud'].points, 8)
    label_map = None if label_modes is None else om.semantic_map(
        model, pgd_run['params'], [True], label_modes)
    rad = np.radians(100.0)
    start = np.array([1.05 * np.cos(rad), 1.05 * np.sin(rad)])
    config = om.PgdConfig(alpha=np.radians(2.0), max_steps=40)
    args = (oracle.sector_of(100.0), oracle, pgd_run['projector'], frame, fhat, config)
    return start, args, label_map


class TestOneRowPerIterate:
    """om_pgd hands each step the row its predecessor computed at x_on."""

    @pytest.mark.parametrize('label_modes, m_out', [(None, 40), (40, 40), (30, 40), (40, 30)],
                             ids=['no-label-map', 'label-modes-eq-m-out',
                                  'label-modes-lt-m-out', 'label-modes-gt-m-out'])
    def test_trace_equals_chained_steps_without_carried_values(self, pgd_run, label_modes,
                                                               m_out):
        start, args, label_map = pgd_attack(pgd_run, label_modes, m_out)
        trace = om_pgd(start, *args, label_map=label_map)
        true_label, projector = args[0], args[2]
        x_on = om.project_many(projector, start)
        npt.assert_array_equal(trace.x0, x_on)
        status = 'max_steps'
        for i, carried in enumerate(trace.steps):
            step = om_pgd_step(x_on, *args, index=i, label_map=label_map)
            for name in PGD_STEP_FIELDS:
                npt.assert_array_equal(getattr(carried, name), getattr(step, name),
                                       err_msg=f'step {i} field {name}')
            x_on = step.x_next
            if step.label_pred != true_label:
                status = 'misclassified'
                break
        assert trace.status == status == 'misclassified'
        assert len(trace.steps) >= 4
        if label_map is None:
            assert all(s.x_next_values is None for s in trace.steps)
        else:
            assert all(s.x_next_values.shape == (40,) for s in trace.steps)

    @pytest.mark.parametrize('label_modes, m_out', [(None, 40), (40, 40), (40, 30)])
    def test_rows_per_attack(self, pgd_run, monkeypatch, label_modes, m_out):
        start, args, label_map = pgd_attack(pgd_run, label_modes, m_out)
        rows, widths = [], []
        row_core, values = nystrom._row_core, nystrom.eigenfunction_values

        def counted_rows(model, d2):
            rows.append(d2.shape[0])
            return row_core(model, d2)

        def counted_values(model, x, n_modes):
            widths.append(n_modes)
            return values(model, x, n_modes)

        # every row, projection or eigenfunction values, is made by the row
        # core; the values are resolved through one of the last two names
        monkeypatch.setattr(nystrom, '_row_core', counted_rows)
        monkeypatch.setattr(nystrom, 'eigenfunction_values', counted_values)
        monkeypatch.setattr(sec, 'eigenfunction_values', counted_values)
        trace = om_pgd(start, *args, label_map=label_map)
        steps = len(trace.steps)
        assert trace.status == 'misclassified' and steps >= 4
        assert set(rows) == {1}
        if label_map is None:
            # two projection rows of the start and of every step, and the
            # tangent row at every x_on
            assert len(rows) == 2 + 3 * steps
            assert Counter(widths) == {m_out: steps}
        else:
            # plus the row at x0; the row at each x_next serves its labels
            # and the next step's tangent frame, so it has both their modes
            assert len(rows) == 3 + 3 * steps
            assert Counter(widths) == {max(m_out, label_modes): 1 + steps}
        # the rest are projection rows
        assert len(rows) - len(widths) == 2 + 2 * steps

    def test_carried_values_of_the_wrong_width_rejected(self, pgd_run):
        start, args, label_map = pgd_attack(pgd_run, 30)
        x_on = om.project(args[2], start, 2)
        with pytest.raises(ValueError, match=r'x_on_values must have shape \(40,\)'):
            om_pgd_step(x_on, *args, label_map=label_map, x_on_values=np.zeros(30))


class FixedGradient:
    """An oracle whose loss gradient is the same array everywhere."""

    def __init__(self, grad):
        self.grad = grad

    def predict(self, x):
        return 0

    def loss_grad(self, x, label):
        return self.grad


@pytest.fixture(scope='module')
def circle_step(pgd_run):
    """One on-manifold iterate of the pgd-circle set-up with its frame."""
    frame, fhat = pgd_circle_frame(pgd_run)
    x_on = om.project(pgd_run['projector'], np.array([0.6, 0.8]), 2)
    return x_on, pgd_run['projector'], frame, fhat


class TestOracleGradientChecked:
    """A loss gradient that is not one finite value per coordinate is named."""

    @pytest.mark.parametrize('grad, message', [
        ([np.nan, 1.0], r'loss_grad returned a gradient whose norm is not finite \(nan\)'),
        ([np.inf, 1.0], r'loss_grad returned a gradient whose norm is not finite \(inf\)'),
        ([-np.inf, np.inf], r'not finite \(inf\)'),
        ([1e200, -1e200], r'not finite \(inf\)'),            # the squares overflow
        ([1.0, 2.0, 3.0], r'loss_grad returned an array of shape \(3,\); '
                          r'the gradient at x_on must have its shape \(2,\)'),
        ([[1.0, 2.0]], r'loss_grad returned an array of shape \(1, 2\)'),
        (1.0, r'loss_grad returned an array of shape \(\)'),
    ], ids=['nan', 'inf', 'both-infinite', 'overflow', 'three-vector', 'row', 'scalar'])
    def test_bad_gradient_named(self, circle_step, grad, message):
        x_on, projector, frame, fhat = circle_step
        with pytest.raises(ValueError, match=message):
            om_pgd_step(x_on, 0, FixedGradient(np.array(grad)), projector, frame, fhat,
                        om.PgdConfig(alpha=0.05, max_steps=3))

    def test_bad_gradient_ends_the_attack(self, circle_step):
        # not a stall: the oracle is at fault, so the error propagates
        x_on, projector, frame, fhat = circle_step
        with pytest.raises(ValueError, match='loss_grad'):
            om_pgd(x_on, 0, FixedGradient(np.array([np.nan, 0.0])), projector, frame, fhat,
                   om.PgdConfig(alpha=0.05, max_steps=3))

    @settings(max_examples=80, deadline=None)
    @given(grad=st.lists(st.floats(width=64), min_size=1, max_size=3))
    def test_any_gradient_gives_finite_fields_or_a_named_error(self, circle_step, grad):
        x_on, projector, frame, fhat = circle_step
        config = om.PgdConfig(alpha=np.radians(2.0), max_steps=3)
        with warnings.catch_warnings():
            warnings.simplefilter('error')
            try:
                step = om_pgd_step(x_on, 0, FixedGradient(np.array(grad)), projector,
                                   frame, fhat, config)
            except (ValueError, om.GeometryError):
                return
        for name in ('g_raw', 'g_tan', 'x_stepped', 'x_next'):
            assert np.isfinite(getattr(step, name)).all(), name


class TestArrowsOncePerAttack:
    def test_frame_arrows_computed_once_per_attack(self, pgd_run, monkeypatch):
        start, args, label_map = pgd_attack(pgd_run, 40)
        calls = []
        arrows = sec._frame_arrows

        def counted(*a):
            calls.append(a)
            return arrows(*a)

        monkeypatch.setattr(ompgd, '_frame_arrows', counted)
        trace = om_pgd(start, *args, label_map=label_map)
        assert len(trace.steps) >= 4 and len(calls) == 1
        # a step called on its own computes them itself
        om_pgd_step(trace.x0, *args, label_map=label_map)
        assert len(calls) == 2

    def test_bad_tangent_dim_named_before_the_first_step(self, pgd_run):
        start, args, _ = pgd_attack(pgd_run, None)
        oracle_calls = []

        class Counting:
            def predict(self, x):
                return 0

            def loss_grad(self, x, label):
                oracle_calls.append(x)
                return np.ones(2)

        config = om.PgdConfig(alpha=0.05, max_steps=3, tangent_dim=3)
        with pytest.raises(ValueError, match=re.escape('dim must be in [1, 2], got 3')):
            om_pgd(start, args[0], Counting(), *args[2:5], config)
        assert not oracle_calls
