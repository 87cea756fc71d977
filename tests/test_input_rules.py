"""The four input rules, one table each.

* Sizes (``errors._size``): every count, index or truncation a config or a
  public function takes is an integer, not a ``bool``, in its range, or a
  ValueError names it; a count read off an argument's shape names that
  argument.
* Queries (``nystrom._queries``): every entry that takes query points
  refuses any shape but an n-vector (or, where it takes a stack, an (m, n)
  array) with an InvalidQueryError naming the shape, and any n but the
  training dimension with one naming both dimensions.
* SEC sections (``sec._check_section``): a frame and its ``fhat`` come
  together and agree with the model, or a ValueError names what is wrong.
* Finite data (``errors._check_finite``): the values a function is
  expanded from, the coefficients it is evaluated from, the parameters a
  semantic map encodes, a model's arrays, a projector's ``xhat`` and a SEC
  frame's arrays and ``fhat`` are finite, or a ValueError names the first
  entry that is not, by row and column, and its value.  A model's kNN
  scales and degrees are also positive.

The cases reuse the session fixtures and fail before any O(N^2) work.
"""

import dataclasses
import re

import numpy as np
import pytest

import onmanifold as om
from onmanifold import nystrom, sec
from onmanifold.ompgd import om_pgd_step


@pytest.fixture(scope='module')
def parts(circle300, circle_sec):
    """The circle300 model (N=300, n=2, n_eigs=40), its SEC frame (m_basis=6,
    m_out=30) and fhat, a projector, a label map and 12 structure constants."""
    cloud, params, model = circle300
    frame, fhat = circle_sec
    return dict(cloud=cloud, model=model, frame=frame, fhat=fhat,
                projector=om.build_projector(model, 10),
                label_map=om.semantic_map(model, params, [True], 10),
                c=om.structure_constants(model, 12))


def _replace_k_nn(p, v):
    model = p['model']
    return dataclasses.replace(model, config=dataclasses.replace(model.config, k_nn=v))


#: id -> (name in the message, call of the value, an out-of-range value).
SIZES = {
    'CidmConfig-k_nn': ('k_nn', lambda p, v: om.CidmConfig(k_nn=v, n_eigs=4), 0),
    'CidmConfig-n_eigs': ('n_eigs', lambda p, v: om.CidmConfig(k_nn=4, n_eigs=v), 0),
    'CidmModel-k_nn': ('k_nn', _replace_k_nn, 300),
    'knn_scales-k_nn': ('k_nn', lambda p, v: om.knn_scales(p['cloud'], v), 300),
    'fit-n_eigs': ('n_eigs', lambda p, v: om.fit(om.PointCloud(p['cloud'].points[::15]),
                                                 om.CidmConfig(k_nn=3, n_eigs=v)), 21),
    'eigenfunction_values-n_modes': (
        'n_modes', lambda p, v: om.eigenfunction_values(p['model'], [1.0, 0.0], v), 41),
    'diffusion_map_jacobian-n_modes': (
        'n_modes', lambda p, v: nystrom.diffusion_map_jacobian(p['model'], v, [1.0, 0.0]), 0),
    'extend_eigenfunction-ell': (
        'ell', lambda p, v: om.extend_eigenfunction(p['model'], v, [1.0, 0.0]), 40),
    'grad_eigenfunction-ell': (
        'ell', lambda p, v: om.grad_eigenfunction(p['model'], v, [1.0, 0.0]), -1),
    'fourier_coefficients-l_trunc': (
        'l_trunc', lambda p, v: om.fourier_coefficients(p['model'], p['cloud'].points, v), 41),
    'build_projector-l_trunc': ('l_trunc', lambda p, v: om.build_projector(p['model'], v), 0),
    'semantic_map-l_trunc': (
        'l_trunc', lambda p, v: om.semantic_map(p['model'], np.zeros(300), [False], v), 41),
    'project_many-iterations': (
        'iterations', lambda p, v: om.project_many(p['projector'], [[1.0, 0.0]], v), 0),
    'project-iterations': (
        'iterations', lambda p, v: om.project(p['projector'], [1.0, 0.0], v), 0),
    'SecBasisConfig-m_basis': ('m_basis', lambda p, v: om.SecBasisConfig(m_basis=v), 1),
    'SecBasisConfig-m_inner': (
        'm_inner', lambda p, v: om.SecBasisConfig(m_basis=4, m_inner=v), 3),
    'structure_constants-m_inner': (
        'm_inner', lambda p, v: om.structure_constants(p['model'], v), 41),
    'metric_tensor-m_basis': (
        'm_basis', lambda p, v: om.metric_tensor(p['c'], p['model'].eig_xi, v), 13),
    'dirichlet_energy_tensor-m_basis': (
        'm_basis', lambda p, v: om.dirichlet_energy_tensor(p['c'], p['model'].eig_xi, v), 0),
    'field_operator-m_basis': (
        'm_basis', lambda p, v: sec.field_operator(p['c'], p['model'].eig_xi, np.zeros(16), v),
        13),
    'eigenfields-n_fields': (
        'n_fields', lambda p, v: sec.eigenfields(np.eye(4), np.eye(4), np.eye(4), v), 0),
    'build_sec_frame-n_fields': (
        'n_fields', lambda p, v: om.build_sec_frame(p['model'], om.SecBasisConfig(6, 30), v), 0),
    'build_sec_frame-m_inner': (
        'm_inner', lambda p, v: om.build_sec_frame(p['model'], om.SecBasisConfig(6, v), 2), 41),
    # an m_basis past the default m_inner = min(2 * m_basis**2, n_eigs) = 40
    'build_sec_frame-m_basis': (
        'm_basis', lambda p, v: om.build_sec_frame(p['model'], om.SecBasisConfig(v), 2), 41),
    'tangent_frame_at-dim': (
        'dim', lambda p, v: om.tangent_frame_at(p['model'], p['frame'], p['fhat'],
                                                [1.0, 0.0], v), 3),
    'local_pca_tangent-k': (
        'k', lambda p, v: om.local_pca_tangent(p['cloud'], [1.0, 0.0], v, 1), 301),
    'local_pca_tangent-dim': (
        'dim', lambda p, v: om.local_pca_tangent(p['cloud'], [1.0, 0.0], 10, v), 3),
    'SectorClassifier-n_classes': ('n_classes', lambda p, v: om.SectorClassifier(v), 1),
    'sector_classifier-n_classes': ('n_classes', lambda p, v: om.sector_classifier(v), 1),
    'loss_grad-target_label': (
        'target_label', lambda p, v: om.sector_classifier(4).loss_grad([1.0, 0.0], v), 4),
    'loss-target_label': (
        'target_label', lambda p, v: om.sector_classifier(4).loss([1.0, 0.0], v), -1),
    'PgdConfig-max_steps': ('max_steps', lambda p, v: om.PgdConfig(0.1, max_steps=v), 0),
    'PgdConfig-tangent_dim': (
        'tangent_dim', lambda p, v: om.PgdConfig(0.1, max_steps=3, tangent_dim=v), 0),
    'SynthSpec-n_points': (
        'n_points', lambda p, v: om.generate(om.SynthSpec('circle', n_points=v)), 7),
    'SynthSpec-seed': (
        'seed', lambda p, v: om.generate(om.SynthSpec('circle', n_points=8, seed=v)), -1),
}


@pytest.mark.parametrize('value', [2.5, True, 'out-of-range'])
@pytest.mark.parametrize('case', list(SIZES))
def test_size_rule(parts, case, value):
    name, call, bad = SIZES[case]
    if value == 'out-of-range':
        value = bad
        message = rf'{name} must be (>= -?\d+|in \[-?\d+, -?\d+\]), got {bad}'
    else:
        message = re.escape(f'{name} must be an integer, got {value!r}')
    with pytest.raises(ValueError, match=f'^{message}$'):
        call(parts, value)


@pytest.mark.parametrize('name, config', [('m_inner', om.SecBasisConfig(6, 41)),
                                          ('m_basis', om.SecBasisConfig(41))])
def test_sec_sizes_are_checked_before_a_row_is_filled(parts, monkeypatch, name, config):
    # the structure constants read the inner weights once, before their first row
    monkeypatch.setattr(om.CidmModel, 'inner_weights',
                        property(lambda model: pytest.fail('a row of c was filled')))
    with pytest.raises(ValueError, match=rf'^{name} must be in \[1, 40\], got 41$'):
        om.build_sec_frame(parts['model'], config, 2)


#: id -> (name in the message, call of the size): the counts an entry reads
#: off an argument's shape, which are integers, so only their range is checked.
SHAPE_SIZES = {
    'extend_function-coeffs': (
        'len(coeffs)', lambda p, v: om.extend_function(p['model'], np.ones(v), [1.0, 0.0])),
    'semantic_labels-label_map': (
        'label_map.n_modes', lambda p, v: om.semantic_labels(
            p['model'], om.SemanticMap(np.ones((v, 2)), (True,)), [1.0, 0.0])),
}


@pytest.mark.parametrize('bad', [0, 41])
@pytest.mark.parametrize('case', list(SHAPE_SIZES))
def test_shape_size_rule(parts, case, bad):
    name, call = SHAPE_SIZES[case]
    message = re.escape(f'{name} must be in [1, 40], got {bad}')
    with pytest.raises(ValueError, match=f'^{message}$'):
        call(parts, bad)


@pytest.mark.parametrize('shape', [(), (3, 2, 2)], ids=['0d', '3d'])
def test_coeffs_shape_rule(parts, shape):
    # the mode count is read off the rows of a vector or a 2-D array only;
    # these raised IndexError and numpy's matmul message, neither naming coeffs
    message = re.escape(f'coeffs has shape {shape}: coeffs needs to be a vector or a 2-D '
                        'array, one row per mode')
    with pytest.raises(ValueError, match=f'^{message}$'):
        om.extend_function(parts['model'], np.ones(shape), [1.0, 0.0])


#: id -> call of the query x.
QUERIES = {
    'eigenfunction_values': lambda p, x: om.eigenfunction_values(p['model'], x, 3),
    'extend_function': lambda p, x: om.extend_function(p['model'], np.ones(3), x),
    'project_many': lambda p, x: om.project_many(p['projector'], x),
    'project': lambda p, x: om.project(p['projector'], x),
    'extend_eigenfunction': lambda p, x: om.extend_eigenfunction(p['model'], 1, x),
    'grad_eigenfunction': lambda p, x: om.grad_eigenfunction(p['model'], 1, x),
    'diffusion_map_jacobian': lambda p, x: nystrom.diffusion_map_jacobian(p['model'], 3, x),
    'restricted_loss_gradient': lambda p, x: om.restricted_loss_gradient(
        p['projector'], lambda y: y, x),
    'tangent_frame_at': lambda p, x: om.tangent_frame_at(p['model'], p['frame'], p['fhat'],
                                                         x, 1),
    'local_pca_tangent': lambda p, x: om.local_pca_tangent(p['cloud'], x, 10, 1),
    'semantic_labels': lambda p, x: om.semantic_labels(p['model'], p['label_map'], x),
}


@pytest.mark.parametrize('shape', [(1, 1, 2), ()], ids=['3d', '0d'])
@pytest.mark.parametrize('entry', list(QUERIES))
def test_query_rule(parts, entry, shape):
    with pytest.raises(om.InvalidQueryError, match=re.escape(f'got an array of shape {shape}')):
        QUERIES[entry](parts, np.full(shape, 0.5))


@pytest.mark.parametrize('entry', list(QUERIES))
def test_query_dimension_rule(parts, entry):
    message = 'query dimension 3 does not match the training dimension 2'
    with pytest.raises(om.InvalidQueryError, match=f'^{message}$'):
        QUERIES[entry](parts, np.full(3, 0.5))


def _with(array, bad: dict) -> np.ndarray:
    """A float copy of ``array`` with the entries ``{index: value}`` set."""
    out = np.array(array, dtype=np.float64)
    for index, value in bad.items():
        out[index] = value
    return out


#: id -> (the named entry, call of a non-finite value): each call sets the
#: named entry and a later one to the value.
NON_FINITE = {
    'fourier_coefficients-values': ('values row 7, column 1', lambda p, v: om.fourier_coefficients(
        p['model'], _with(p['cloud'].points, {(7, 1): v, (9, 0): v}), 10)),
    'fourier_coefficients-vector': ('values row 7', lambda p, v: om.fourier_coefficients(
        p['model'], _with(np.ones(300), {7: v, 9: v}), 10)),
    'extend_function-coeffs': ('coeffs row 3, column 1', lambda p, v: om.extend_function(
        p['model'], _with(np.ones((10, 2)), {(3, 1): v, (4, 0): v}), [1.0, 0.0])),
    'extend_function-vector': ('coeffs row 3', lambda p, v: om.extend_function(
        p['model'], _with(np.ones(10), {3: v, 4: v}), [1.0, 0.0])),
    'semantic_map-params_deg': ('params_deg row 5, column 0', lambda p, v: om.semantic_map(
        p['model'], _with(np.zeros(300), {5: v, 6: v}), [True], 10)),
    'SemanticMap-coeffs': ('semantic_coeffs row 2, column 1', lambda p, v: om.SemanticMap(
        _with(np.ones((5, 2)), {(2, 1): v, (3, 0): v}), (True,))),
    'SemanticMap-one-column': ('semantic_coeffs row 4, column 0', lambda p, v: om.SemanticMap(
        _with(np.ones((5, 1)), {(4, 0): v}), (False,))),
    'CidmModel-knn_scale': ('knn_scale row 7', lambda p, v: _replace_array(p, 'knn_scale', 7, v)),
    'CidmModel-degree': ('degree row 7', lambda p, v: _replace_array(p, 'degree', 7, v)),
    'CidmModel-raw_degree': (
        'raw_degree row 7', lambda p, v: _replace_array(p, 'raw_degree', 7, v)),
    'CidmModel-eig_xi': ('eig_xi row 7', lambda p, v: _replace_array(p, 'eig_xi', 7, v)),
    'CidmModel-eig_phi': (
        'eig_phi row 7, column 2', lambda p, v: _replace_array(p, 'eig_phi', (7, 2), v)),
    'NystromProjector-xhat': ('xhat row 2, column 1', lambda p, v: om.NystromProjector(
        p['model'], _with(p['projector'].xhat, {(2, 1): v, (3, 0): v}))),
    'ModelBundle-xhat': ('xhat row 2, column 1', lambda p, v: om.ModelBundle(
        p['model'], xhat=_with(p['projector'].xhat, {(2, 1): v, (3, 0): v}))),
    'SecFrame-etas': ('etas row 1', lambda p, v: om.SecFrame(
        _with(p['frame'].etas, {1: v}), p['frame'].ops)),
    'SecFrame-ops': ('ops entry (0, 4, 2)', lambda p, v: om.SecFrame(
        p['frame'].etas, _with(p['frame'].ops, {(0, 4, 2): v, (1, 0, 0): v}))),
    'tangent_frame_at-fhat': ('fhat row 2, column 0', lambda p, v: om.tangent_frame_at(
        p['model'], p['frame'], _with(p['fhat'], {(2, 0): v, (3, 1): v}), [1.0, 0.0], 1)),
    'ModelBundle-sec_fhat': ('sec_fhat row 2, column 0', lambda p, v: om.ModelBundle(
        p['model'], sec_frame=p['frame'], sec_fhat=_with(p['fhat'], {(2, 0): v}))),
}


def _replace_array(p, name: str, index, value):
    """The parts' model with ``{name}[index]`` and a later entry set to
    ``value``, through ``dataclasses.replace``; ``raw_degree`` is the
    model's degrees, which the ``cidm`` variant may carry."""
    model = p['model']
    array = getattr(model, 'degree' if name == 'raw_degree' else name)
    later = (9,) + tuple(index[1:]) if isinstance(index, tuple) else 9
    return dataclasses.replace(model, **{name: _with(array, {index: value, later: value})})


@pytest.mark.parametrize('value', [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize('case', list(NON_FINITE))
def test_finite_rule(parts, case, value):
    # each of these returned NaN or infinite results without an error
    where, call = NON_FINITE[case]
    message = re.escape(f'{where} is not finite ({value})')
    with pytest.raises(ValueError, match=f'^{message}$'):
        call(parts, value)


@pytest.mark.parametrize('value', [0.0, -1.5])
@pytest.mark.parametrize('name', ['knn_scale', 'degree', 'raw_degree'])
def test_positive_rule(parts, name, value):
    # a negated knn_scale gave values of the wrong sign and size, no error
    message = re.escape(f'{name} row 7 is not positive ({value})')
    with pytest.raises(ValueError, match=f'^{message}$'):
        _replace_array(parts, name, 7, value)


def test_semantic_map_row_rule(parts):
    # the message named values, an argument semantic_map does not take
    message = re.escape('params_deg has shape (50,), but points has shape (300, 2): '
                        'params_deg needs one row per training point')
    with pytest.raises(ValueError, match=f'^{message}$'):
        om.semantic_map(parts['model'], np.zeros(50), [True], 10)


#: id -> (frame, fhat, message) from the parts; the message names the
#: arguments ``{frame}`` and ``{fhat}``.
SECTIONS = {
    'no-fhat': (lambda p: p['frame'], lambda p: None,
                'a SEC section needs both a frame and its {fhat}; {fhat} is missing'),
    'no-frame': (lambda p: None, lambda p: p['fhat'],
                 'a SEC section needs both a frame and its {fhat}; {frame} is missing'),
    'fhat-1d': (lambda p: p['frame'], lambda p: p['fhat'][:, 0],
                '{fhat} has shape (6,), but eig_xi has shape (40,) and the frame has '
                'm_basis=6: {fhat} needs between 6 and 40 rows, one per mode'),
    'fhat-fewer-rows-than-m_basis': (
        lambda p: p['frame'], lambda p: p['fhat'][:5],
        '{fhat} has shape (5, 2), but eig_xi has shape (40,) and the frame has m_basis=6'),
    'fhat-more-rows-than-n_eigs': (
        lambda p: p['frame'], lambda p: np.ones((41, 2)),
        '{fhat} has shape (41, 2), but eig_xi has shape (40,)'),
    'fhat-columns': (lambda p: p['frame'], lambda p: np.ones((6, 3)),
                     '{fhat} has shape (6, 3), but points has shape (300, 2): '
                     '{fhat} needs one column per ambient dimension'),
    'm_out-past-n_eigs': (
        lambda p: om.SecFrame(np.zeros(1), np.zeros((1, 41, 6))), lambda p: p['fhat'],
        'the SEC frame has m_out=41 output modes, but eig_xi has shape (40,): '
        'a frame reads at most 40 modes'),
}


def _pgd_args(p):
    return om.sector_classifier(4), p['projector']


#: id -> (argument prefix, call of the frame and fhat).
SECTION_ENTRIES = {
    'ModelBundle': ('sec_', lambda p, frame, fhat: om.ModelBundle(p['model'], sec_frame=frame,
                                                                 sec_fhat=fhat)),
    'tangent_frame_at': ('', lambda p, frame, fhat: om.tangent_frame_at(
        p['model'], frame, fhat, [1.0, 0.0], 1)),
    'field_arrows': ('', lambda p, frame, fhat: om.field_arrows(p['model'], frame, fhat)),
    'om_pgd': ('', lambda p, frame, fhat: om.om_pgd(
        [1.0, 0.0], None, *_pgd_args(p), frame, fhat, om.PgdConfig(0.05, 2))),
    'om_pgd_step': ('', lambda p, frame, fhat: om_pgd_step(
        p['cloud'].points[0], 0, *_pgd_args(p), frame, fhat, om.PgdConfig(0.05, 2))),
}


@pytest.mark.parametrize('case', list(SECTIONS))
@pytest.mark.parametrize('entry', list(SECTION_ENTRIES))
def test_sec_section_rule(parts, entry, case):
    prefix, call = SECTION_ENTRIES[entry]
    frame, fhat, message = SECTIONS[case]
    message = message.format(frame=f'{prefix}frame', fhat=f'{prefix}fhat')
    with pytest.raises(ValueError, match=f'^{re.escape(message)}'):
        call(parts, frame(parts), fhat(parts))


def test_bundle_with_neither_or_both(parts):
    assert om.ModelBundle(parts['model']).sec_frame is None
    bundle = om.ModelBundle(parts['model'], sec_frame=parts['frame'], sec_fhat=parts['fhat'])
    assert bundle.sec_fhat is parts['fhat']


def test_step_handed_arrows_does_not_read_fhat(parts):
    # the arrows fix everything a step reads of the frame and fhat
    args = (parts['cloud'].points[0], 0, *_pgd_args(parts), parts['frame'])
    config = om.PgdConfig(0.05, 2)
    arrows = sec._frame_arrows(parts['model'], parts['frame'], parts['fhat'], 1)
    step = om_pgd_step(*args, parts['fhat'], config)
    unread = om_pgd_step(*args, None, config, arrows=arrows)
    np.testing.assert_array_equal(unread.x_next, step.x_next)
