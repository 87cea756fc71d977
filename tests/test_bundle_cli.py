import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import onmanifold as om
from onmanifold import cidm, nystrom
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
        for a, b in zip(loaded.sec_frame.ops, bundle.sec_frame.ops, strict=True):
            npt.assert_array_equal(a.v_op, b.v_op)
        npt.assert_array_equal(loaded.sec_fhat, bundle.sec_fhat)
        assert loaded.label_map.periodic == bundle.label_map.periodic
        for a, b in zip(loaded.sec_frame.fields, bundle.sec_frame.fields):
            assert a.eta == b.eta
            npt.assert_array_equal(a.coeffs, b.coeffs)

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
        # xhat fails to convert inside the write, once the temporary file is open
        broken = ModelBundle(model=bundle.model, xhat=np.array([['x']], dtype=object))
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

    def test_version_1_refused(self, small_bundle, tmp_path):
        path, _ = small_bundle
        raw = path.read_bytes()
        manifest_len = int(np.frombuffer(raw[8:16], dtype='<u8')[0])
        manifest = json.loads(raw[16:16 + manifest_len])
        manifest['format_version'] = 1
        blob = json.dumps(manifest, sort_keys=True, separators=(',', ':')).encode('utf-8')
        old = tmp_path / 'v1.bundle'
        old.write_bytes(raw[:8] + np.uint64(len(blob)).tobytes() + blob
                        + raw[16 + manifest_len:])
        with pytest.raises(ValueError, match='unsupported bundle version 1 '):
            load_bundle(old)

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

    def test_usage_error_exit_code(self, tmp_path, capsys):
        assert run_cli('project', str(tmp_path / 'nope.bundle'),
                       str(tmp_path / 'nope.csv'), '--out',
                       str(tmp_path / 'o.csv')) == 1

    def test_threads_without_threadpoolctl_warns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, 'threadpoolctl', None)    # import fails
        assert run_cli('--threads', '1', 'synth', '--kind', 'circle', '--n', '20',
                       '--out', str(tmp_path / 'pts.csv')) == 0
        err = capsys.readouterr().err
        assert 'not applied' in err
        assert 'OPENBLAS_NUM_THREADS' in err and 'OMP_NUM_THREADS' in err

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
        kernel_rows = nystrom._kernel_rows

        def counting(model, queries):
            rows.append(queries.shape[0])
            return kernel_rows(model, queries)

        monkeypatch.setattr(nystrom, '_kernel_rows', counting)
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
        label = oracle.predict(om.project_many(projector, start, config.project_iters))
        rows.clear()
        trace = om.om_pgd(start, label, oracle, projector, bundle.sec_frame,
                          bundle.sec_fhat, config, label_map=bundle.label_map)
        assert cli_rows == sum(rows)
        assert trace.steps
        ref = tmp_path / 'ref.jsonl'
        assert _report_pgd('pgd', ref, trace, force=False) == code
        assert out.read_bytes() == ref.read_bytes()

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
