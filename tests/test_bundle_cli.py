import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onmanifold as om
from onmanifold import cidm, cli, nystrom, sec
from onmanifold.bundle import ModelBundle, _arrays_digest, load_bundle, save_bundle
from onmanifold.cli import _report_pgd, _write_csv, main


@pytest.fixture(scope='module')
def small_bundle(tmp_path_factory, noisy_circle):
    cloud, params, model = noisy_circle
    frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=6, m_inner=30),
                               n_fields=2)
    bundle = ModelBundle(
        model=model,
        xhat=om.build_projector(model, 15).xhat,
        sec_frame=frame,
        sec_fhat=om.fourier_coefficients(model, cloud.points, 6),
        label_map=om.semantic_map(model, params, [True], 20),
    )
    path = tmp_path_factory.mktemp('bundle') / 'model.bundle'
    save_bundle(path, bundle)
    return path, bundle


class TestBundle:
    def test_round_trip_preserves_model(self, small_bundle):
        path, bundle = small_bundle
        loaded = load_bundle(path)
        npt.assert_array_equal(loaded.model.training.points,
                               bundle.model.training.points)
        npt.assert_array_equal(loaded.model.eig_phi, bundle.model.eig_phi)
        npt.assert_array_equal(loaded.model.eig_xi, bundle.model.eig_xi)
        assert loaded.model.config == bundle.model.config
        assert loaded.model.data_diameter == bundle.model.data_diameter
        npt.assert_array_equal(loaded.xhat, bundle.xhat)
        npt.assert_array_equal(loaded.sec_frame.ops, bundle.sec_frame.ops)
        npt.assert_array_equal(loaded.sec_frame.etas, bundle.sec_frame.etas)
        npt.assert_array_equal(loaded.sec_fhat, bundle.sec_fhat)
        assert loaded.label_map.periodic == bundle.label_map.periodic

    def test_load_save_is_byte_identical(self, small_bundle, tmp_path):
        path, _ = small_bundle
        loaded = load_bundle(path)
        copy = tmp_path / 'copy.bundle'
        save_bundle(copy, loaded)
        assert copy.read_bytes() == path.read_bytes()

    def test_loaded_bundle_is_usable(self, small_bundle):
        path, bundle = small_bundle
        loaded = load_bundle(path)
        projector = loaded.projector()
        p = om.project(projector, np.array([1.5, 0.2]), 2)
        assert 0.5 <= np.linalg.norm(p) <= 1.5
        T = om.tangent_frame_at(loaded.model, loaded.sec_frame, loaded.sec_fhat,
                                np.array([0.0, 1.0]), 1)
        assert T.shape == (2, 1)
        npt.assert_array_equal(T, om.tangent_frame_at(loaded.model, bundle.sec_frame,
                                                      bundle.sec_fhat, np.array([0.0, 1.0]), 1))
        labels = om.semantic_labels(loaded.model, loaded.label_map, np.array([0.0, 1.1]))
        assert 0.0 <= labels[0] < 360.0

    @pytest.mark.parametrize('solver', ['eigh', 'arpack'])
    def test_loaded_model_gives_the_fitted_bits(self, solver, small_bundle, fig2, tmp_path):
        if solver == 'eigh':
            _, bundle = small_bundle
        else:
            model = fig2['model']
            frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=6, m_inner=30),
                                       n_fields=2)
            fhat = om.fourier_coefficients(model, model.training.points, 6)
            bundle = ModelBundle(model=model, xhat=fig2['projector'].xhat,
                                 sec_frame=frame, sec_fhat=fhat)
        model = bundle.model
        assert cidm._uses_arpack(model.n_points, model.n_eigs) == (solver == 'arpack')
        path = tmp_path / 'model.bundle'
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        queries = np.random.default_rng(8).uniform(-1.5, 1.5, size=(50, 2))
        npt.assert_array_equal(om.eigenfunction_values(loaded.model, queries, model.n_eigs),
                               om.eigenfunction_values(model, queries, model.n_eigs))
        npt.assert_array_equal(om.project_many(loaded.projector(), queries),
                               om.project_many(bundle.projector(), queries))
        for x in queries:
            npt.assert_array_equal(
                om.tangent_frame_at(loaded.model, loaded.sec_frame, loaded.sec_fhat, x, 1),
                om.tangent_frame_at(model, bundle.sec_frame, bundle.sec_fhat, x, 1))
        copy = tmp_path / 'copy.bundle'
        save_bundle(copy, loaded)
        assert copy.read_bytes() == path.read_bytes()

    def test_loaded_model_derives_the_fitted_constants(self, small_bundle):
        # the kernel eigenvalues and the cutoff are not stored; the load
        # derives them again, with the fitted model's bits
        path, bundle = small_bundle
        loaded, model = load_bundle(path).model, bundle.model
        npt.assert_array_equal(loaded._lambdas, model._lambdas)
        assert not loaded._lambdas.flags.writeable
        assert loaded._n_extendable == model._n_extendable
        assert loaded._cut == model._cut
        queries = np.random.default_rng(3).uniform(-1.5, 1.5, size=(20, 2))
        for x in queries:
            npt.assert_array_equal(om.eigenfunction_values(loaded, x, model.n_eigs),
                                   om.eigenfunction_values(model, x, model.n_eigs))

    def test_digest_guards_against_tampering(self, small_bundle, tmp_path):
        path, _ = small_bundle
        raw = bytearray(path.read_bytes())
        manifest_len = int(np.frombuffer(raw[8:16], dtype='<u8')[0])
        raw[16 + manifest_len + 8] ^= 0xFF       # a byte inside the points block
        bad = tmp_path / 'tampered.bundle'
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_bundle(bad)

    def test_failed_save_leaves_old_bundle(self, small_bundle, tmp_path):
        path, bundle = small_bundle
        target = tmp_path / 'model.bundle'
        target.write_bytes(path.read_bytes())
        # xhat fails to convert inside the write, once the temporary file is
        # open; construction refuses such an xhat, so it is set afterwards
        broken = ModelBundle(model=bundle.model)
        object.__setattr__(broken, 'xhat', np.array([['x']], dtype=object))
        with pytest.raises(ValueError):
            save_bundle(target, broken)
        assert target.read_bytes() == path.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ['model.bundle']

    def test_failed_csv_write_leaves_old_file(self, tmp_path):
        target = tmp_path / 'out.csv'
        target.write_text('old\n')
        # the first row is written before the second fails to format
        bad = np.array([[1.0, 2.0], ['x', 'y']], dtype=object)
        with pytest.raises(TypeError):
            _write_csv(target, bad, force=True)
        assert target.read_text() == 'old\n'
        assert [p.name for p in tmp_path.iterdir()] == ['out.csv']
        _write_csv(target, np.eye(2), force=True)
        npt.assert_array_equal(np.loadtxt(target, delimiter=','), np.eye(2))
        assert [p.name for p in tmp_path.iterdir()] == ['out.csv']

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / 'junk.bundle'
        path.write_bytes(b'NOTABNDL' + b'\x00' * 32)
        with pytest.raises(ValueError):
            load_bundle(path)

    def test_digest_is_stable(self):
        pts = np.arange(12, dtype=np.float64).reshape(4, 3)
        other = np.ones(5)
        assert _arrays_digest([pts, other]) == _arrays_digest([pts.copy(), other.copy()])
        assert _arrays_digest([pts, other]) != _arrays_digest([pts, other + 1])
        # one digest of the concatenated blob, however it is split
        blob = pts.tobytes() + other.tobytes()
        assert _arrays_digest([pts, other]) == 'sha256:' + hashlib.sha256(blob).hexdigest()
        assert _arrays_digest([blob[:40], blob[40:]]) == _arrays_digest([pts, other])

    def test_digest_covers_every_array(self, small_bundle, tmp_path):
        path, _ = small_bundle
        raw = bytearray(path.read_bytes())
        manifest_len = int(np.frombuffer(raw[8:16], dtype='<u8')[0])
        manifest = json.loads(raw[16:16 + manifest_len])
        offset = 16 + manifest_len
        for name, shape in manifest['arrays']:
            if name == 'eig_phi':
                break
            offset += 8 * int(np.prod(shape))
        raw[offset + 8 * 7 + 3] ^= 0x01     # one bit of one eig_phi value
        bad = tmp_path / 'tampered.bundle'
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match='digest'):
            load_bundle(bad)

    def test_truncated_bundle_named(self, small_bundle, tmp_path):
        path, bundle = small_bundle
        cut = tmp_path / 'cut.bundle'
        cut.write_bytes(path.read_bytes()[:-8])
        n_bytes = 8 * bundle.label_map.coeffs.size
        with pytest.raises(ValueError, match=f"truncated: array 'semantic_coeffs' needs "
                                             f"{n_bytes} bytes, but only {n_bytes - 8} remain"):
            load_bundle(cut)

    def test_trailing_bytes_refused(self, small_bundle, tmp_path):
        path, _ = small_bundle
        long = tmp_path / 'long.bundle'
        long.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match='past its last declared array'):
            load_bundle(long)

    @pytest.mark.parametrize('version', [2, 3])
    def test_old_version_refused(self, small_bundle, tmp_path, version):
        # format 3 still held the kernel settings 'shape' and 'average_scales'
        path, _ = small_bundle
        old = tmp_path / f'v{version}.bundle'
        old.write_bytes(edit_manifest(path.read_bytes(),
                                      lambda m: m.update(format_version=version)))
        with pytest.raises(ValueError, match=re.escape(
                f'unsupported bundle version {version} (this build reads version 4)')):
            load_bundle(old)

    @pytest.mark.parametrize('length', [2 ** 62, 2 ** 64 - 1])
    def test_huge_manifest_length_refused_before_allocating(self, small_bundle, tmp_path,
                                                            length):
        path, _ = small_bundle
        raw = path.read_bytes()
        bad = tmp_path / 'bad.bundle'
        bad.write_bytes(raw[:8] + np.uint64(length).tobytes() + raw[16:])
        with pytest.raises(ValueError, match=f'bundle truncated: the manifest needs {length} '
                                             f'bytes, but only {len(raw) - 16} remain'):
            load_bundle(bad)

    def test_huge_array_shape_refused_before_allocating(self, small_bundle, tmp_path):
        path, _ = small_bundle

        def grow(manifest):
            manifest['arrays'][0][1] = [2 ** 40]
        bad = tmp_path / 'bad.bundle'
        bad.write_bytes(edit_manifest(path.read_bytes(), grow))
        with pytest.raises(ValueError, match=f"truncated: array 'points' needs {8 * 2 ** 40} "
                                             'bytes, but only'):
            load_bundle(bad)

    @pytest.mark.parametrize('edit, named', [
        (lambda m: m.pop('format_version'), "entry 'format_version' is missing"),
        (lambda m: m.pop('cidm'), "entry 'cidm' is missing"),
        (lambda m: m.pop('data_diameter'), "entry 'data_diameter' is missing"),
        (lambda m: m.pop('arrays'), "entry 'arrays' is missing"),
        (lambda m: m.pop('arrays_digest'), "entry 'arrays_digest' is missing"),
        (lambda m: m.pop('semantics'), "entry 'semantics' is missing"),
        (lambda m: m['semantics'].pop('periodic'), "entry 'semantics.periodic' is missing"),
        (lambda m: m.update(format_version='3'), "entry 'format_version' is '3', of the wrong"),
        (lambda m: m.update(data_diameter=None), "entry 'data_diameter' is None, of the wrong"),
        (lambda m: m.update(cidm=[]), r"entry 'cidm' is \[\], of the wrong type"),
        (lambda m: m['cidm'].pop('k_nn'), "entry 'cidm' is not a CidmConfig.*k_nn"),
        (lambda m: m['semantics'].update(periodic=True), "'semantics.periodic' is True, of"),
        (lambda m: m['arrays'][0].pop(), "entry 'arrays' holds"),
        (lambda m: m['arrays'][0][1].append(-1), "entry 'arrays' holds"),
        (lambda m: m.update(arrays=[a for a in m['arrays'] if a[0] != 'sec_fhat']),
         r"section 'sec' lacks the arrays \['sec_fhat'\]"),
        (lambda m: m.update(arrays=[a for a in m['arrays'] if a[0] != 'eig_xi']),
         r"section 'model' lacks the arrays \['eig_xi'\]"),
    ])
    def test_bad_manifest_entry_named(self, small_bundle, tmp_path, edit, named):
        path, _ = small_bundle
        bad = tmp_path / 'bad.bundle'
        bad.write_bytes(edit_manifest(path.read_bytes(), edit))
        with pytest.raises(ValueError, match=named):
            load_bundle(bad)

    def test_periodic_flags_must_match_semantic_coeffs(self, small_bundle, tmp_path, capsys):
        # two periodic flags need four columns; the bundle holds two
        path, _ = small_bundle
        bad = tmp_path / 'bad.bundle'
        bad.write_bytes(edit_manifest(path.read_bytes(),
                                      lambda m: m['semantics'].update(periodic=[True, True])))
        message = ('semantic_coeffs has shape (20, 2), but periodic is [True, True]: '
                   'semantic_coeffs needs 4 columns')
        with pytest.raises(ValueError, match=re.escape(message)):
            load_bundle(bad)
        capsys.readouterr()
        out = tmp_path / 'trace.jsonl'
        assert run_cli('pgd', str(bad), '--start-index', '3', '--alpha', '0.2',
                       '--out', str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f'error: {message}') and err.count('\n') == 1
        assert not out.exists()

    def test_manifest_holds_only_what_a_load_reads(self, small_bundle):
        path, _ = small_bundle
        raw = path.read_bytes()
        manifest_len = int(np.frombuffer(raw[8:16], dtype='<u8')[0])
        manifest = json.loads(raw[16:16 + manifest_len])
        assert sorted(manifest) == ['arrays', 'arrays_digest', 'cidm', 'data_diameter',
                                    'format_version', 'semantics']
        assert sorted(manifest['cidm']) == ['epsilon', 'k_nn', 'kernel_variant', 'n_eigs']
        assert manifest['semantics'] == {'periodic': [True]}
        assert [name for name, _ in manifest['arrays']] == [
            'points', 'knn_scale', 'degree', 'eig_xi', 'eig_phi', 'xhat',
            'sec_etas', 'sec_ops', 'sec_fhat', 'semantic_coeffs']

    def test_dm_variant_round_trip(self, tmp_path, circle300):
        cloud, _, _ = circle300
        model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=10,
                                            kernel_variant='cidm_dm_normalized'))
        path = tmp_path / 'dm.bundle'
        save_bundle(path, ModelBundle(model=model))
        loaded = load_bundle(path)
        npt.assert_array_equal(loaded.model.raw_degree, model.raw_degree)
        got = om.extend_eigenfunction(loaded.model, 1, cloud.points[7])
        assert got == pytest.approx(model.eig_phi[7, 1], rel=1e-8)


@pytest.fixture(scope='module')
def variant_fits():
    """A small circle fitted with each kernel variant."""
    cloud, params = om.generate(om.SynthSpec(kind='circle', n_points=80, noise_sigma=0.02,
                                             seed=4))
    return params, {variant: om.fit(cloud, om.CidmConfig(k_nn=6, n_eigs=16,
                                                         kernel_variant=variant))
                    for variant in ('cidm', 'cidm_dm_normalized')}


@settings(max_examples=30, deadline=None)
@given(variant=st.sampled_from(['cidm', 'cidm_dm_normalized']),
       l_trunc=st.none() | st.integers(1, 16),
       sec=st.none() | st.tuples(st.integers(2, 4), st.integers(1, 3)),
       semantics=st.none() | st.integers(1, 16))
def test_round_trip_is_exact(variant_fits, tmp_path_factory, variant, l_trunc, sec,
                             semantics):
    """Each section on or off: save, load and save again gives the same
    bytes, and the loaded arrays are the saved ones."""
    params, fits = variant_fits
    model = fits[variant]
    xhat = None if l_trunc is None else om.build_projector(model, l_trunc).xhat
    frame = fhat = label_map = None
    if sec is not None:
        m_basis, n_fields = sec
        frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=m_basis), n_fields)
        fhat = om.fourier_coefficients(model, model.training.points, m_basis)
    if semantics is not None:
        label_map = om.semantic_map(model, params, [True], semantics)
    bundle = ModelBundle(model=model, xhat=xhat, sec_frame=frame, sec_fhat=fhat,
                         label_map=label_map)
    path = tmp_path_factory.mktemp('prop') / 'model.bundle'
    save_bundle(path, bundle)
    loaded = load_bundle(path)
    save_bundle(path.with_suffix('.copy'), loaded)
    assert path.with_suffix('.copy').read_bytes() == path.read_bytes()
    npt.assert_array_equal(loaded.model.eig_phi, model.eig_phi)
    npt.assert_array_equal(loaded.model.raw_degree, model.raw_degree)
    assert (loaded.xhat is None) == (xhat is None)
    if xhat is not None:
        npt.assert_array_equal(loaded.xhat, xhat)
        assert loaded.projector().l_trunc == l_trunc
    assert (loaded.sec_frame is None) == (frame is None)
    if frame is not None:
        npt.assert_array_equal(loaded.sec_frame.etas, frame.etas)
        npt.assert_array_equal(loaded.sec_frame.ops, frame.ops)
        npt.assert_array_equal(loaded.sec_fhat, fhat)
    assert (loaded.label_map is None) == (label_map is None)
    if label_map is not None:
        npt.assert_array_equal(loaded.label_map.coeffs, label_map.coeffs)
        assert loaded.label_map.periodic == label_map.periodic


def edit_manifest(raw: bytes, edit) -> bytes:
    """The bundle ``raw`` with ``edit`` applied to its manifest in place;
    the arrays and their digest are left as they are."""
    manifest_len = int(np.frombuffer(raw[8:16], dtype='<u8')[0])
    manifest = json.loads(raw[16:16 + manifest_len])
    edit(manifest)
    blob = json.dumps(manifest, sort_keys=True, separators=(',', ':')).encode('utf-8')
    return raw[:8] + np.uint64(len(blob)).tobytes() + blob + raw[16 + manifest_len:]


def rewrite_arrays(raw: bytes, edit) -> bytes:
    """The bundle ``raw`` with ``edit`` applied to its ``{name: array}``
    dict; the manifest's shapes and digest are rewritten to match, so only
    the checks of the arrays themselves can refuse it."""
    manifest_len = int(np.frombuffer(raw[8:16], dtype='<u8')[0])
    manifest = json.loads(raw[16:16 + manifest_len])
    arrays, offset = {}, 16 + manifest_len
    for name, shape in manifest['arrays']:
        size = 8 * math.prod(shape)
        arrays[name] = np.frombuffer(raw[offset:offset + size], dtype='<f8').reshape(shape)
        offset += size
    edit(arrays)
    buffers = [np.ascontiguousarray(arr, dtype='<f8') for arr in arrays.values()]
    manifest['arrays'] = [[name, list(arr.shape)] for name, arr in arrays.items()]
    manifest['arrays_digest'] = _arrays_digest(buffers)
    blob = json.dumps(manifest, sort_keys=True, separators=(',', ':')).encode('utf-8')
    return raw[:8] + np.uint64(len(blob)).tobytes() + blob + b''.join(b.tobytes() for b in buffers)


@pytest.fixture(scope='module')
def circle100(tmp_path_factory):
    """A fitted 100-point circle, its projector bundle and the points as a CSV."""
    cloud, _ = om.generate(om.SynthSpec(kind='circle', n_points=100, seed=1))
    model = om.fit(cloud, om.CidmConfig(k_nn=5, n_eigs=12))
    root = tmp_path_factory.mktemp('circle100')
    save_bundle(root / 'model.bundle',
                ModelBundle(model=model, xhat=om.build_projector(model, 8).xhat))
    np.savetxt(root / 'points.csv', cloud.points, delimiter=',')
    return model, root / 'model.bundle', root / 'points.csv'


class TestShapeChecks:
    """Arrays whose shapes disagree are refused with both arrays named."""

    def short_knn_scale(self, circle100, tmp_path):
        _, path, _ = circle100
        bad = tmp_path / 'short.bundle'
        bad.write_bytes(rewrite_arrays(path.read_bytes(),
                                       lambda a: a.update(knn_scale=a['knn_scale'][:99])))
        return bad

    def test_short_knn_scale_refused_on_load(self, circle100, tmp_path):
        with pytest.raises(ValueError, match=re.escape(
                'knn_scale has shape (99,), but points has shape (100, 2): '
                'knn_scale needs one entry per point')):
            load_bundle(self.short_knn_scale(circle100, tmp_path))

    def test_short_knn_scale_is_a_usage_error(self, circle100, tmp_path, capsys):
        _, _, points = circle100
        bad = self.short_knn_scale(circle100, tmp_path)
        capsys.readouterr()
        assert run_cli('project', str(bad), str(points), '--out',
                       str(tmp_path / 'o.csv')) == 1
        err = capsys.readouterr().err
        assert err.startswith('error: knn_scale has shape (99,), but points has shape (100, 2)')
        assert err.count('\n') == 1

    @pytest.mark.parametrize('name, edit, message', [
        ('knn_scale', lambda m: m.knn_scale[:, None], 'knn_scale has shape (100, 1), but points'),
        ('degree', lambda m: m.degree[:99], 'degree has shape (99,), but points'),
        ('raw_degree', lambda m: m.degree[:98], 'raw_degree has shape (98,), but points'),
        ('eig_xi', lambda m: m.eig_xi[:11],
         'eig_xi has shape (11,) and eig_phi has shape (100, 12), but points has shape (100, 2)'),
        ('eig_xi', lambda m: m.eig_xi[:0], 'eig_xi has shape (0,) and eig_phi'),
        ('eig_phi', lambda m: m.eig_phi[:, :11],
         'eig_xi has shape (12,) and eig_phi has shape (100, 11), but points'),
        ('eig_phi', lambda m: m.eig_phi[:99], 'eig_phi has shape (99, 12)'),
    ], ids=['knn_scale-2d', 'degree', 'raw_degree', 'eig_xi', 'eig_xi-empty',
            'eig_phi-columns', 'eig_phi-rows'])
    def test_model_arrays(self, circle100, name, edit, message):
        model, _, _ = circle100
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(model, **{name: edit(model)})

    def test_dm_normalized_model_needs_raw_degree(self, circle100):
        model, _, _ = circle100
        config = dataclasses.replace(model.config, kernel_variant='cidm_dm_normalized')
        with pytest.raises(ValueError, match='cidm_dm_normalized variant needs raw_degree'):
            dataclasses.replace(model, config=config)

    @pytest.mark.parametrize('field, value, message', [
        ('sec_fhat', np.zeros((13, 2)), 'sec_fhat has shape (13, 2), but eig_xi has shape (12,)'),
        ('sec_fhat', np.zeros(2), 'sec_fhat has shape (2,), but eig_xi has shape (12,)'),
        ('sec_fhat', np.zeros((6, 3)), 'sec_fhat has shape (6, 3), but points has shape (100, 2)'),
        ('label_map', om.SemanticMap(np.zeros((13, 2)), (True,)),
         'semantic_coeffs has shape (13, 2), but eig_xi has shape (12,)'),
        ('xhat', np.zeros((20, 3)), 'xhat must have shape (L, 2) with 1 <= L <= 12; '
                                    'got (20, 3)'),
    ], ids=['sec_fhat-rows', 'sec_fhat-1d', 'sec_fhat-columns', 'semantic_coeffs-rows',
            'xhat'])
    def test_bundle_arrays(self, circle100, field, value, message):
        model, _, _ = circle100
        # an fhat is checked against its frame, and refused without one
        frame = om.SecFrame(np.zeros(1), np.zeros((1, 8, 4))) if field == 'sec_fhat' else None
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelBundle(model=model, sec_frame=frame, **{field: value})


    @pytest.mark.parametrize('coeffs, periodic, message', [
        (np.zeros((4, 2)), (True, False), 'shape (4, 2), but periodic is [True, False]: '
                                          'semantic_coeffs needs 3 columns'),
        (np.zeros((4, 2)), (False,), 'shape (4, 2), but periodic is [False]: '
                                     'semantic_coeffs needs 1 columns'),
        (np.zeros(4), (False,), 'shape (4,), but periodic is [False]'),
        (np.zeros((4, 2, 1)), (True,), 'shape (4, 2, 1), but periodic is [True]'),
    ], ids=['too-few-columns', 'too-many-columns', '1d', '3d'])
    def test_semantic_map_columns(self, coeffs, periodic, message):
        with pytest.raises(ValueError, match=re.escape('semantic_coeffs has ' + message)):
            om.SemanticMap(coeffs, periodic)

    def test_non_finite_semantic_coeffs_refused_on_load(self, circle100, tmp_path):
        # a bundle's semantic map is checked as a constructed one is; a NaN
        # coefficient made semantic_labels return NaN labels
        model, _, _ = circle100
        path, bad = tmp_path / 'labels.bundle', tmp_path / 'nan.bundle'
        save_bundle(path, ModelBundle(model=model, label_map=om.SemanticMap(np.ones((5, 2)),
                                                                            (True,))))

        def poison(arrays):
            coeffs = arrays['semantic_coeffs'].copy()
            coeffs[3, 1] = np.nan
            arrays['semantic_coeffs'] = coeffs

        bad.write_bytes(rewrite_arrays(path.read_bytes(), poison))
        with pytest.raises(ValueError, match=re.escape(
                'semantic_coeffs row 3, column 1 is not finite (nan)')):
            load_bundle(bad)

    @pytest.mark.parametrize('name, index, value, message', [
        ('eig_phi', (3, 1), np.nan, 'eig_phi row 3, column 1 is not finite (nan)'),
        ('eig_xi', 4, np.inf, 'eig_xi row 4 is not finite (inf)'),
        ('knn_scale', 5, -0.25, 'knn_scale row 5 is not positive (-0.25)'),
        ('xhat', (2, 0), np.nan, 'xhat row 2, column 0 is not finite (nan)'),
    ], ids=['eig_phi', 'eig_xi', 'knn_scale', 'xhat'])
    def test_bad_entries_refused_on_load(self, circle100, tmp_path, name, index, value,
                                         message):
        # a model's and a projector's arrays are checked as constructed ones
        # are; each of these gave NaN or wrong values at every query
        _, path, _ = circle100
        bad = tmp_path / 'bad.bundle'

        def poison(arrays):
            arrays[name] = arrays[name].copy()
            arrays[name][index] = value

        bad.write_bytes(rewrite_arrays(path.read_bytes(), poison))
        with pytest.raises(ValueError, match=f'^{re.escape(message)}$'):
            load_bundle(bad)

    def test_c_order_replica_gives_the_fitted_bits(self, small_bundle):
        # eig_phi's layout is made by the model: a C-order copy of the same
        # array, through replace or the constructor, gives the same values
        _, bundle = small_bundle
        model = bundle.model
        c_phi = np.ascontiguousarray(model.eig_phi)
        assert not c_phi.flags.f_contiguous
        fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
        replicas = [dataclasses.replace(model, eig_phi=c_phi),
                    om.CidmModel(**{**fields, 'eig_phi': c_phi})]
        queries = np.random.default_rng(4).uniform(-1.5, 1.5, size=(30, 2))
        for replica in replicas:
            assert replica.eig_phi.flags.f_contiguous
            npt.assert_array_equal(om.eigenfunction_values(replica, queries, model.n_eigs),
                                   om.eigenfunction_values(model, queries, model.n_eigs))
            npt.assert_array_equal(
                om.tangent_frame_at(replica, bundle.sec_frame, bundle.sec_fhat, queries, 1),
                om.tangent_frame_at(model, bundle.sec_frame, bundle.sec_fhat, queries, 1))


class TestDiameterCheck:
    """A model refuses a data diameter that is not finite and positive: the
    KNN-boundary and PGD-stall thresholds are fractions of it."""

    @pytest.mark.parametrize('diameter', [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_model_refuses_it(self, circle100, diameter):
        model, _, _ = circle100
        with pytest.raises(ValueError, match=r'^data_diameter must be finite and > 0, got '):
            dataclasses.replace(model, data_diameter=diameter)

    @pytest.mark.parametrize('diameter', [float('nan'), 0.0])
    def test_bundle_manifest_is_a_usage_error(self, circle100, tmp_path, capsys, diameter):
        # the digest covers the arrays, not the manifest
        _, path, points = circle100
        bad = tmp_path / 'bad.bundle'
        bad.write_bytes(edit_manifest(path.read_bytes(),
                                      lambda m: m.update(data_diameter=diameter)))
        capsys.readouterr()
        assert run_cli('project', str(bad), str(points), '--out',
                       str(tmp_path / 'o.csv')) == 1
        err = capsys.readouterr().err
        assert err.startswith('error: data_diameter must be finite and > 0, got ')
        assert err.count('\n') == 1
        assert not (tmp_path / 'o.csv').exists()


class TestKnnCheck:
    """A model refuses a k_nn that is not an integer in [1, N - 1], also when
    a bundle's manifest holds it: a query's kNN scale partitions at k_nn."""

    @pytest.mark.parametrize('k_nn', [100, 1000])
    def test_model_refuses_it(self, circle100, k_nn):
        model, _, _ = circle100
        config = dataclasses.replace(model.config, k_nn=k_nn)
        with pytest.raises(ValueError, match=re.escape(
                f'k_nn must be in [1, 99], got {k_nn}')):
            dataclasses.replace(model, config=config)

    @pytest.mark.parametrize('k_nn, message', [
        (5.5, 'k_nn must be an integer, got 5.5'),
        (True, 'k_nn must be an integer, got True'),
        (1000, 'k_nn must be in [1, 99], got 1000'),
    ], ids=['float', 'bool', 'too-large'])
    def test_bundle_manifest_is_a_usage_error(self, circle100, tmp_path, capsys, k_nn,
                                              message):
        # the digest covers the arrays, not the manifest
        _, path, points = circle100
        bad = tmp_path / 'bad.bundle'
        bad.write_bytes(edit_manifest(path.read_bytes(),
                                      lambda m: m['cidm'].update(k_nn=k_nn)))
        capsys.readouterr()
        assert run_cli('project', str(bad), str(points), '--out',
                       str(tmp_path / 'o.csv')) == 1
        err = capsys.readouterr().err
        assert err == f'error: {message}\n'
        assert not (tmp_path / 'o.csv').exists()


    @pytest.mark.parametrize('k_nn', [4, 6])
    def test_manifest_k_nn_must_give_the_stored_scales(self, circle100, tmp_path, capsys,
                                                        k_nn):
        # a valid k_nn other than the fitted 5: the digest covers only the arrays
        _, path, points = circle100
        bad = tmp_path / 'bad.bundle'
        bad.write_bytes(edit_manifest(path.read_bytes(),
                                      lambda m: m['cidm'].update(k_nn=k_nn)))
        message = (f'bundle manifest k_nn={k_nn} does not reproduce the stored knn_scale: '
                   'the manifest and the arrays come from different fits')
        with pytest.raises(ValueError, match=f'^{re.escape(message)}$'):
            load_bundle(bad)
        capsys.readouterr()
        assert run_cli('project', str(bad), str(points), '--out',
                       str(tmp_path / 'o.csv')) == 1
        assert capsys.readouterr().err == f'error: {message}\n'
        assert not (tmp_path / 'o.csv').exists()

    def test_stored_scales_an_ulp_off_still_load(self, circle100, tmp_path):
        # another scipy build, or an FMA, may round a squared distance differently
        model = circle100[0]
        nudged = np.nextafter(model.knn_scale, np.inf)
        path = tmp_path / 'nudged.bundle'
        save_bundle(path, ModelBundle(model=dataclasses.replace(model, knn_scale=nudged)))
        npt.assert_array_equal(load_bundle(path).model.knn_scale, nudged)


def run_cli(*argv):
    return main(list(argv))


class TestCli:
    def test_synth_fit_project_round_trip(self, tmp_path):
        pts = tmp_path / 'pts.csv'
        bundle = tmp_path / 'model.bundle'
        out = tmp_path / 'proj.csv'
        assert run_cli('synth', '--kind', 'circle', '--n', '200', '--seed', '7',
                       '--out', str(pts)) == 0
        assert run_cli('fit', str(pts), '--k-nn', '8', '--n-eigs', '30',
                       '--l-trunc', '15', '--out', str(bundle)) == 0
        loaded = load_bundle(bundle)
        assert loaded.model.n_eigs == 30
        assert run_cli('project', str(bundle), str(pts), '--iters', '2',
                       '--out', str(out)) == 0
        proj = np.loadtxt(out, delimiter=',')
        assert proj.shape == (200, 2)

    def test_fit_round_trips_manifest(self, tmp_path):
        pts = tmp_path / 'pts.csv'
        bundle = tmp_path / 'model.bundle'
        run_cli('synth', '--kind', 'circle', '--n', '120', '--seed', '3',
                '--out', str(pts))
        run_cli('fit', str(pts), '--k-nn', '6', '--n-eigs', '20', '--out', str(bundle))
        first = bundle.read_bytes()
        save_bundle(bundle, load_bundle(bundle))
        assert bundle.read_bytes() == first

    def test_extend_verb(self, tmp_path):
        pts = tmp_path / 'pts.csv'
        vals = tmp_path / 'vals.csv'
        bundle = tmp_path / 'model.bundle'
        out = tmp_path / 'ext.csv'
        run_cli('synth', '--kind', 'circle', '--n', '150', '--seed', '1',
                '--out', str(pts), '--params-out', str(tmp_path / 'params.csv'))
        params = np.loadtxt(tmp_path / 'params.csv', delimiter=',')
        from onmanifold.synth import fig1_target_function
        np.savetxt(vals, fig1_target_function(params), delimiter=',')
        run_cli('fit', str(pts), '--k-nn', '8', '--n-eigs', '30', '--out', str(bundle))
        assert run_cli('extend', str(bundle), str(pts), '--values', str(vals),
                       '--l-trunc', '15', '--out', str(out)) == 0
        got = np.loadtxt(out, delimiter=',')
        assert np.corrcoef(got, fig1_target_function(params))[0, 1] > 0.99

    def test_extend_verb_refuses_a_non_finite_value(self, tmp_path, capsys):
        # a nan value wrote an all-NaN CSV and exited 0
        pts = tmp_path / 'pts.csv'
        vals = tmp_path / 'vals.csv'
        bundle = tmp_path / 'model.bundle'
        out = tmp_path / 'ext.csv'
        run_cli('synth', '--kind', 'circle', '--n', '60', '--seed', '1', '--out', str(pts))
        run_cli('fit', str(pts), '--k-nn', '6', '--n-eigs', '10', '--out', str(bundle))
        values = np.ones(60)
        values[17] = np.nan
        np.savetxt(vals, values, delimiter=',')
        capsys.readouterr()
        assert run_cli('extend', str(bundle), str(pts), '--values', str(vals),
                       '--out', str(out)) == 1
        assert capsys.readouterr().err == 'error: values row 17, column 0 is not finite (nan)\n'
        assert not out.exists()

    def test_sec_fields_and_tangent_verbs(self, tmp_path):
        pts = tmp_path / 'pts.csv'
        bundle = tmp_path / 'model.bundle'
        run_cli('synth', '--kind', 'circle', '--n', '200', '--seed', '5',
                '--out', str(pts))
        run_cli('fit', str(pts), '--k-nn', '8', '--n-eigs', '40',
                '--l-trunc', '20', '--out', str(bundle))
        assert run_cli('sec-fields', str(bundle), '--m-basis', '6',
                       '--n-fields', '2', '--force') == 0
        tans = tmp_path / 'tans.csv'
        assert run_cli('tangent', str(bundle), str(pts), '--dim', '1',
                       '--out', str(tans)) == 0
        rows = np.loadtxt(tans, delimiter=',')
        assert rows.shape == (200, 4)
        basis = rows[:, 2:]
        npt.assert_allclose(np.linalg.norm(basis, axis=1), 1.0, atol=1e-10)

    def test_tangent_verb_derives_the_arrows_once(self, small_bundle, tmp_path, monkeypatch):
        path, bundle = small_bundle
        queries = tmp_path / 'q.csv'
        noise = np.random.default_rng(4).normal(scale=0.05, size=(30, 2))
        np.savetxt(queries, bundle.model.training.points[::10] + noise, delimiter=',')
        calls = []
        frame_arrows = sec._frame_arrows

        def counted(*args):
            calls.append(args)
            return frame_arrows(*args)

        monkeypatch.setattr(sec, '_frame_arrows', counted)
        out = tmp_path / 'tangents.csv'
        assert run_cli('tangent', str(path), str(queries), '--dim', '1', '--out', str(out)) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        # the file of one tangent_frame_at call per query
        loaded = load_bundle(path)
        rows = [np.concatenate([x, om.tangent_frame_at(loaded.model, loaded.sec_frame,
                                                       loaded.sec_fhat, x, 1).ravel(order='F')])
                for x in om.PointCloud.from_csv(queries).points]
        ref = tmp_path / 'ref.csv'
        _write_csv(ref, np.vstack(rows), force=False)
        assert out.read_bytes() == ref.read_bytes()

    def test_corrupted_bundle_is_a_usage_error(self, small_bundle, tmp_path, capsys):
        path, _ = small_bundle
        raw = path.read_bytes()
        bad = tmp_path / 'bad.bundle'
        bad.write_bytes(raw[:8] + np.uint64(2 ** 62).tobytes() + raw[16:])
        queries = tmp_path / 'q.csv'
        np.savetxt(queries, np.eye(2), delimiter=',')
        capsys.readouterr()
        assert run_cli('project', str(bad), str(queries), '--out',
                       str(tmp_path / 'o.csv')) == 1
        err = capsys.readouterr().err
        assert err.startswith('error: bundle truncated: the manifest needs ')
        assert err.count('\n') == 1

    def test_usage_error_exit_code(self, tmp_path, capsys):
        assert run_cli('project', str(tmp_path / 'nope.bundle'),
                       str(tmp_path / 'nope.csv'), '--out',
                       str(tmp_path / 'o.csv')) == 1

    def test_overflowing_epsilon_is_a_usage_error(self, tmp_path, capsys):
        pts = tmp_path / 'pts.csv'
        run_cli('synth', '--kind', 'circle', '--n', '50', '--out', str(pts))
        capsys.readouterr()
        assert run_cli('fit', str(pts), '--k-nn', '5', '--n-eigs', '4', '--epsilon', '1e300',
                       '--out', str(tmp_path / 'model.bundle')) == 1
        err = capsys.readouterr().err
        assert err.startswith('error: ') and 'epsilon' in err
        assert err.count('\n') == 1

    @pytest.mark.parametrize('sigma', ['nan', 'inf', '-inf', '-1e-3', '-1_0'])
    @pytest.mark.parametrize('joined', [True, False], ids=['joined', 'spaced'])
    def test_bad_sigma_is_a_usage_error(self, tmp_path, capsys, sigma, joined):
        # argparse alone reads a spaced -inf or -1e-3 as an option: "expected
        # one argument"
        capsys.readouterr()
        value = [f'--sigma={sigma}'] if joined else ['--sigma', sigma]
        assert run_cli('synth', '--kind', 'circle', '--n', '50', *value,
                       '--out', str(tmp_path / 'pts.csv')) == 1
        err = capsys.readouterr().err
        assert err.startswith('error: noise_sigma must be finite and >= 0, got ')
        assert err.count('\n') == 1

    @pytest.mark.parametrize('value', ['-x', '--seed', '-0.5,x'])
    def test_a_non_number_is_still_an_option(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as info:
            run_cli('synth', '--kind', 'circle', '--n', '50', '--sigma', value,
                    '--out', str(tmp_path / 'pts.csv'))
        assert info.value.code == 1
        assert 'argument --sigma: expected one argument' in capsys.readouterr().err

    def test_pgd_start_in_the_left_half_plane(self, small_bundle, tmp_path, capsys):
        path, _ = small_bundle
        traces = []
        for start in (['--start', '-0.5,0.8'], ['--start=-0.5,0.8']):
            out = tmp_path / f'trace{len(traces)}.jsonl'
            assert run_cli('pgd', str(path), *start, '--alpha', '0.2', '--max-steps', '4',
                           '--out', str(out)) in (0, 2)
            traces.append(out.read_bytes())
        assert traces[0] == traces[1]
        first = json.loads(traces[0].splitlines()[0])
        assert first['x_on'][0] < 0.0

    def test_fit_refuses_a_projector_over_a_small_mode(self, tmp_path, capsys):
        # epsilon 100 on 60 circle points: |lambda| falls below 1e-10 within
        # the 12 modes, but the first 3 are well clear of it
        pts = tmp_path / 'pts.csv'
        bundle = tmp_path / 'model.bundle'
        run_cli('synth', '--kind', 'circle', '--n', '60', '--seed', '0', '--out', str(pts))
        fit_args = ('fit', str(pts), '--k-nn', '5', '--n-eigs', '12', '--epsilon', '100',
                    '--out', str(bundle))
        capsys.readouterr()
        assert run_cli(*fit_args, '--l-trunc', '12') == 2
        err = capsys.readouterr().err
        assert re.match(r'ERROR SmallEigenvalueError: mode \d+ has \|lambda\| = \S+ < 1e-10;',
                        err)
        assert err.count('\n') == 1
        assert not bundle.exists()
        assert run_cli(*fit_args, '--l-trunc', '3') == 0
        assert load_bundle(bundle).xhat.shape == (3, 2)

    def test_threads_without_threadpoolctl_warns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, 'threadpoolctl', None)    # import fails
        assert run_cli('--threads', '1', 'synth', '--kind', 'circle', '--n', '20',
                       '--out', str(tmp_path / 'pts.csv')) == 0
        err = capsys.readouterr().err
        assert 'not applied' in err
        assert 'OPENBLAS_NUM_THREADS' in err and 'OMP_NUM_THREADS' in err

    @pytest.mark.parametrize('threads', ['0', '-3'])
    def test_threads_below_one_is_a_usage_error(self, threads, tmp_path, capsys):
        out = tmp_path / 'pts.csv'
        capsys.readouterr()
        assert run_cli('--threads', threads, 'synth', '--kind', 'circle', '--n', '20',
                       '--out', str(out)) == 1
        err = capsys.readouterr().err
        assert err == f'error: --threads must be at least 1, got {threads}\n'
        assert not out.exists()

    def test_overwrite_needs_force(self, tmp_path):
        pts = tmp_path / 'pts.csv'
        assert run_cli('synth', '--kind', 'circle', '--n', '100', '--seed', '0',
                       '--out', str(pts)) == 0
        assert run_cli('synth', '--kind', 'circle', '--n', '100', '--seed', '0',
                       '--out', str(pts)) == 1
        assert run_cli('synth', '--kind', 'circle', '--n', '100', '--seed', '0',
                       '--out', str(pts), '--force') == 0

    def test_pgd_verb_misclassifies(self, tmp_path):
        pts = tmp_path / 'pts.csv'
        bundle = tmp_path / 'model.bundle'
        trace = tmp_path / 'trace.jsonl'
        run_cli('synth', '--kind', 'circle', '--n', '300', '--seed', '11',
                '--out', str(pts))
        run_cli('fit', str(pts), '--k-nn', '8', '--n-eigs', '40',
                '--l-trunc', '20', '--out', str(bundle))
        run_cli('sec-fields', str(bundle), '--m-basis', '8', '--n-fields', '2',
                '--force')
        # a step size well above the sampled circle's projection wobble
        code = run_cli('pgd', str(bundle), '--start', '0.87,0.5',
                       '--boundary-offset', '40', '--alpha', '0.15',
                       '--max-steps', '25', '--out', str(trace))
        assert code == 0
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines[-1]['summary']['status'] == 'misclassified'
        assert all('x_next' in rec for rec in lines[:-1])

    def test_pgd_stall_exits_2(self, tmp_path):
        # on a randomly sampled circle the projection has angular wobble
        # with attracting fixed points; an iterate caught by one converges
        # geometrically until the displacement stall fires
        pts = tmp_path / 'pts.csv'
        bundle = tmp_path / 'model.bundle'
        run_cli('synth', '--kind', 'circle', '--n', '400', '--seed', '11',
                '--out', str(pts))
        run_cli('fit', str(pts), '--k-nn', '8', '--n-eigs', '40',
                '--l-trunc', '20', '--out', str(bundle))
        run_cli('sec-fields', str(bundle), '--m-basis', '8', '--n-fields', '2',
                '--force')
        theta = np.radians(30.0)
        code = run_cli('pgd', str(bundle),
                       '--start', f'{np.cos(theta)},{np.sin(theta)}',
                       '--boundary-offset', '40', '--alpha', str(np.radians(2.0)),
                       '--max-steps', '60',
                       '--out', str(tmp_path / 't.jsonl'))
        assert code == 2
        lines = [json.loads(line) for line in (tmp_path / 't.jsonl').read_text().splitlines()]
        assert lines[-1]['summary']['status'] == 'stalled'

    def test_pgd_verb_projects_its_start_once(self, small_bundle, tmp_path, monkeypatch):
        path, _ = small_bundle
        rows = []
        row_core = nystrom._row_core

        def counting(model, d2):
            rows.append(d2.shape[0])
            return row_core(model, d2)

        monkeypatch.setattr(nystrom, '_row_core', counting)
        out = tmp_path / 'trace.jsonl'
        code = run_cli('pgd', str(path), '--start', '0.87,0.5', '--boundary-offset', '40',
                       '--alpha', '0.15', '--max-steps', '4', '--out', str(out))
        cli_rows = sum(rows)
        # the same attack through om_pgd, which projects the start itself;
        # the label comes from a projection outside the count
        bundle = load_bundle(path)
        projector = bundle.projector()
        start = np.array([0.87, 0.5])
        oracle = om.sector_classifier(4, boundary_offset=40.0)
        config = om.PgdConfig(alpha=0.15, max_steps=4)
        label = oracle.predict(om.project_many(projector, start))
        rows.clear()
        trace = om.om_pgd(start, label, oracle, projector, bundle.sec_frame,
                          bundle.sec_fhat, config, label_map=bundle.label_map)
        assert cli_rows == sum(rows)
        assert trace.steps
        ref = tmp_path / 'ref.jsonl'
        assert _report_pgd('pgd', ref, trace, force=False) == code
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize('label', [7, -1])
    def test_pgd_true_label_out_of_range(self, small_bundle, tmp_path, capsys, label):
        # 7 was an IndexError traceback, and -1 wrapped to the last class
        path, _ = small_bundle
        out = tmp_path / 'trace.jsonl'
        capsys.readouterr()
        code = run_cli('pgd', str(path), '--start-index', '3', '--alpha', '0.2',
                       '--true-label', str(label), '--out', str(out))
        assert code == 1
        assert capsys.readouterr().err == f'error: target_label must be in [0, 3], got {label}\n'
        assert not out.exists()

    def test_sec_fields_refuses_zero_fields(self, circle100, tmp_path, capsys):
        _, path, _ = circle100
        copy = tmp_path / 'model.bundle'
        copy.write_bytes(path.read_bytes())
        arrows = tmp_path / 'arrows.csv'
        capsys.readouterr()
        assert run_cli('sec-fields', str(copy), '--m-basis', '4', '--n-fields', '0',
                       '--arrows-out', str(arrows)) == 1
        assert capsys.readouterr().err == 'error: n_fields must be >= 1, got 0\n'
        assert copy.read_bytes() == path.read_bytes()
        assert not arrows.exists()

    def test_sec_fields_arrows_are_field_arrows(self, circle100, tmp_path):
        model, path, _ = circle100
        copy = tmp_path / 'model.bundle'
        copy.write_bytes(path.read_bytes())
        arrows = tmp_path / 'arrows.csv'
        assert run_cli('sec-fields', str(copy), '--m-basis', '4', '--n-fields', '2',
                       '--arrows-out', str(arrows)) == 0
        bundle = load_bundle(copy)
        ref = tmp_path / 'ref.csv'
        _write_csv(ref, np.hstack([model.training.points, om.field_arrows(
            bundle.model, bundle.sec_frame, bundle.sec_fhat)]), force=False)
        assert arrows.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize('index', [-1, 5000])
    def test_pgd_start_index_out_of_range(self, tmp_path, capsys, index):
        pts = tmp_path / 'pts.csv'
        bundle = tmp_path / 'model.bundle'
        run_cli('synth', '--kind', 'circle', '--n', '200', '--seed', '5', '--out', str(pts))
        run_cli('fit', str(pts), '--k-nn', '8', '--n-eigs', '40', '--l-trunc', '20',
                '--out', str(bundle))
        run_cli('sec-fields', str(bundle), '--m-basis', '6', '--n-fields', '2', '--force')
        capsys.readouterr()
        code = run_cli('pgd', str(bundle), '--start-index', str(index), '--alpha', '0.1',
                       '--out', str(tmp_path / 'trace.jsonl'))
        assert code == 1
        assert f'--start-index must be in [0, 200), got {index}' in capsys.readouterr().err
        assert not (tmp_path / 'trace.jsonl').exists()

    @pytest.mark.parametrize('verb', ['fig1', 'fig2', 'fig3', 'pgd-circle'])
    def test_repro_bytes_identical_across_processes(self, verb, tmp_path):
        # fig2 (N=1500, 40 modes) fits through ARPACK on the CSR kernel, the
        # others through dense eigh
        src = os.path.dirname(os.path.dirname(om.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS='1', OMP_NUM_THREADS='1',
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get('PYTHONPATH')])))
        for tag in ('a', 'b'):
            subprocess.run([sys.executable, '-m', 'onmanifold.cli', 'repro', verb,
                            '--out-dir', str(tmp_path / tag)],
                           env=env, check=True, capture_output=True)
        names = sorted(p.name for p in (tmp_path / 'a').iterdir())
        assert names == sorted(p.name for p in (tmp_path / 'b').iterdir())
        assert len(names) == {'fig1': 2, 'fig2': 5, 'fig3': 8, 'pgd-circle': 1}[verb]
        for name in names:
            assert (tmp_path / 'a' / name).read_bytes() == (tmp_path / 'b' / name).read_bytes(), name

    def test_repro_outputs_are_deterministic(self, tmp_path):
        d1, d2 = tmp_path / 'a', tmp_path / 'b'
        for d in (d1, d2):
            assert run_cli('--threads', '1', 'repro', 'pgd-circle',
                           '--out-dir', str(d)) == 0
        f1 = d1 / 'pgd_trace.jsonl'
        f2 = d2 / 'pgd_trace.jsonl'
        assert f1.read_bytes() == f2.read_bytes()
