"""Command-line entry point tying the modules into reproducible runs.

Verbs: synth, fit, extend, project, sec-fields, tangent, pgd, repro.
Exit codes: 0 success, 1 usage error, 2 numerical failure (the diagnostic
line names the error type).
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bundle import ModelBundle, atomic_write, load_bundle, save_bundle
from .cidm import CidmConfig, PointCloud, fit
from .errors import GeometryError
from .nystrom import (build_projector, extend_function, fourier_coefficients,
                      project_many)
from .ompgd import (PgdConfig, om_pgd, sector_classifier, semantic_map)
from .sec import SecBasisConfig, build_sec_frame, local_pca_tangent, tangent_frame_at
from .synth import SynthSpec, fig1_target_function, generate, periodic_flags

CSV_FMT = '%.17g'


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f'{self.prog}: error: {message}\n')


def _write_csv(path, array, force: bool) -> None:
    _guard_overwrite(path, force)
    with atomic_write(path) as fh:
        np.savetxt(fh, np.atleast_2d(array), delimiter=',', fmt=CSV_FMT)


def _write_trace(path, trace, force: bool) -> None:
    """One JSON line per PGD step, then a summary line."""
    _guard_overwrite(path, force)
    with atomic_write(path) as fh:
        for rec in trace.to_records():
            fh.write(json.dumps(rec, sort_keys=True) + '\n')
        fh.write(json.dumps({'summary': {'status': trace.status,
                                         'true_label': trace.true_label,
                                         'n_steps': len(trace.steps)}},
                            sort_keys=True) + '\n')


def _guard_overwrite(path, force: bool) -> None:
    import os
    if os.path.exists(path) and not force:
        raise UsageError(f'refusing to overwrite {path} (use --force)')


class UsageError(Exception):
    pass


def _cap_threads(n: int | None):
    if n is None:
        return None
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print(f'warning: --threads {n} was not applied because threadpoolctl is not '
              'installed; set OPENBLAS_NUM_THREADS and OMP_NUM_THREADS before '
              'starting to cap BLAS threads', file=sys.stderr)
        return None
    return threadpool_limits(limits=n)


# ---------------------------------------------------------------- verbs


def _cmd_synth(args) -> int:
    spec = SynthSpec(kind=args.kind, n_points=args.n, noise_sigma=args.sigma,
                     density_profile=args.density, noise_profile=args.noise_profile,
                     seed=args.seed)
    cloud, params = generate(spec)
    _write_csv(args.out, cloud.points, args.force)
    if args.params_out:
        _write_csv(args.params_out, params, args.force)
    return 0


def _cmd_fit(args) -> int:
    cloud = PointCloud.from_csv(args.data)
    config = CidmConfig(k_nn=args.k_nn, n_eigs=args.n_eigs, epsilon=args.epsilon,
                        shape=args.shape, kernel_variant=args.variant,
                        average_scales=not args.per_point_scales)
    _guard_overwrite(args.out, args.force)
    model = fit(cloud, config)
    xhat = build_projector(model, args.l_trunc).xhat if args.l_trunc else None
    save_bundle(args.out, ModelBundle(model=model, xhat=xhat))
    return 0


def _cmd_extend(args) -> int:
    bundle = load_bundle(args.model)
    queries = PointCloud.from_csv(args.queries).points
    values = np.loadtxt(args.values, delimiter=',', ndmin=2)
    l_trunc = args.l_trunc or bundle.model.n_eigs
    coeffs = fourier_coefficients(bundle.model, values, l_trunc)
    out = extend_function(bundle.model, coeffs, queries)
    _write_csv(args.out, out, args.force)
    return 0


def _cmd_project(args) -> int:
    bundle = load_bundle(args.model)
    queries = PointCloud.from_csv(args.queries).points
    if args.l_trunc:
        projector = build_projector(bundle.model, args.l_trunc)
    else:
        projector = bundle.projector()
    out = project_many(projector, queries, iterations=args.iters)
    _write_csv(args.out, out, args.force)
    return 0


def _cmd_sec_fields(args) -> int:
    bundle = load_bundle(args.model)
    model = bundle.model
    config = SecBasisConfig(m_basis=args.m_basis, m_inner=args.m_inner,
                            tau_frac=args.tau_frac)
    frame = build_sec_frame(model, config, n_fields=args.n_fields)
    fhat = fourier_coefficients(model, model.training.points, config.m_basis)
    save_bundle(args.model, ModelBundle(model=model, xhat=bundle.xhat,
                                        sec_frame=frame, sec_fhat=fhat,
                                        label_map=bundle.label_map))
    for i, f in enumerate(frame.fields):
        print(f'field {i}: eta={f.eta:.6e}')
    if args.arrows_out:
        arrows = model.eig_phi[:, :frame.ops[0].m_out] @ (frame.ops[0].v_op @ fhat)
        _write_csv(args.arrows_out,
                   np.hstack([model.training.points, arrows]), args.force)
    return 0


def _cmd_tangent(args) -> int:
    bundle = load_bundle(args.model)
    if bundle.sec_frame is None:
        raise UsageError('bundle has no SEC section; run sec-fields first')
    queries = PointCloud.from_csv(args.queries).points
    rows = []
    for x in queries:
        T = tangent_frame_at(bundle.model, bundle.sec_frame, bundle.sec_fhat,
                             x, args.dim)
        rows.append(np.concatenate([x, T.ravel(order='F')]))
    _write_csv(args.out, np.vstack(rows), args.force)
    return 0


def _cmd_pgd(args) -> int:
    bundle = load_bundle(args.model)
    if bundle.sec_frame is None:
        raise UsageError('bundle has no SEC section; run sec-fields first')
    projector = bundle.projector()
    model = bundle.model
    if args.start is not None:
        start = np.array([float(v) for v in args.start.split(',')])
    elif args.start_index is not None:
        start = model.training.points[args.start_index]
    else:
        raise UsageError('provide --start or --start-index')
    oracle = sector_classifier(args.classes, boundary_offset=args.boundary_offset)
    config = PgdConfig(alpha=args.alpha, max_steps=args.max_steps,
                       tangent_dim=args.tangent_dim,
                       normalize_gradient=args.normalize,
                       project_iters=args.project_iters)
    x0 = project_many(projector, start, config.project_iters)
    true_label = args.true_label if args.true_label is not None else oracle.predict(x0)
    trace = om_pgd(start, true_label, oracle, projector, bundle.sec_frame,
                   bundle.sec_fhat, config, label_map=bundle.label_map)
    _write_trace(args.out, trace, args.force)
    print(f'pgd: status={trace.status} steps={len(trace.steps)}')
    if trace.status == 'stalled':
        print('ERROR StalledError: PGD stalled before misclassification', file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- repro

#: Pinned desk-scale experiment configurations.  These are frozen so the
#: repro verbs are deterministic end to end.
FIG1 = dict(n=400, sigma=0.05, seed=21, k_nn=10, n_eigs=40, l_trunc=20)
FIG2 = dict(n=1500, sigma=0.1, seed=7, k_nn=24, n_eigs=40, l_trunc=20,
            n_angles=24, n_radii=10, radius_lo=0.3, radius_hi=2.0)
FIG3_2D = dict(n=800, sigma=0.05, seed=7, k_nn=80, epsilon=1.3, n_eigs=48,
               m_basis=8, m_inner=40, n_fields=2)
FIG3_4D = dict(n=800, sigma=0.05, seed=3, k_nn=50, epsilon=1.0, n_eigs=48,
               m_basis=8, m_inner=40, n_fields=2)
TORUS = dict(n=1500, seed=5, k_nn=24, n_eigs=80, m_basis=13, m_inner=72,
             n_fields=4, query_seed=99)
PGD_CIRCLE = dict(n=400, k_nn=8, n_eigs=40, l_trunc=20, m_basis=8, m_inner=40,
                  n_classes=4, boundary_offset=40.0, start_deg=30.0,
                  alpha_deg=2.0, max_steps=12)


def equispaced_circle(n: int) -> tuple[PointCloud, np.ndarray]:
    """Evenly spaced unit circle with its angles (degrees)."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
    return cloud, np.degrees(theta)[:, None]


def polar_grid(n_angles: int, n_radii: int, lo: float, hi: float) -> np.ndarray:
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    radii = np.linspace(lo, hi, n_radii)
    return np.array([[r * np.cos(a), r * np.sin(a)] for a in angles for r in radii])


def fig1_pipeline():
    """Noisy-circle function extension, CIDM vs the DM-normalized variant."""
    p = FIG1
    cloud, params = generate(SynthSpec(kind='circle', n_points=p['n'],
                                       noise_sigma=p['sigma'], seed=p['seed']))
    target = fig1_target_function(params[:, 0])
    grid_axis = np.linspace(-2.0, 2.0, 25)
    gx, gy = np.meshgrid(grid_axis, grid_axis, indexing='ij')
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    out = {'train': np.column_stack([cloud.points, target]), 'grid': {}}
    for variant in ('cidm', 'cidm_dm_normalized'):
        model = fit(cloud, CidmConfig(k_nn=p['k_nn'], n_eigs=p['n_eigs'],
                                      kernel_variant=variant))
        coeffs = fourier_coefficients(model, target, p['l_trunc'])
        out['grid'][variant] = extend_function(model, coeffs, grid)
    # nearest-training-point oracle values for comparison plots
    from scipy.spatial import cKDTree
    _, idx = cKDTree(cloud.points).query(grid)
    out['grid_points'] = grid
    out['nearest'] = target[idx]
    return out


def fig2_pipeline():
    """Nystrom projection of a polar grid onto a noisy circle."""
    p = FIG2
    cloud, params = generate(SynthSpec(kind='circle', n_points=p['n'],
                                       noise_sigma=p['sigma'], seed=p['seed']))
    model = fit(cloud, CidmConfig(k_nn=p['k_nn'], n_eigs=p['n_eigs']))
    projector = build_projector(model, p['l_trunc'])
    grid = polar_grid(p['n_angles'], p['n_radii'], p['radius_lo'], p['radius_hi'])
    proj1 = project_many(projector, grid, 1)
    proj2 = project_many(projector, proj1, 1)
    train2 = project_many(projector, cloud.points, 2)
    return {'cloud': cloud, 'grid': grid, 'proj1': proj1, 'proj2': proj2,
            'train_proj': train2, 'model': model, 'projector': projector}


def fig3_pipeline(kind4d: bool):
    """First SEC eigenfield arrows vs local-PCA tangents on the noisy circle."""
    p = FIG3_4D if kind4d else FIG3_2D
    spec = SynthSpec(kind='circle4d' if kind4d else 'circle', n_points=p['n'],
                     noise_sigma=p['sigma'], density_profile='angle_skewed',
                     noise_profile='angle_varying', seed=p['seed'])
    cloud, params = generate(spec)
    model = fit(cloud, CidmConfig(k_nn=p['k_nn'], n_eigs=p['n_eigs'],
                                  epsilon=p['epsilon']))
    frame = build_sec_frame(model, SecBasisConfig(m_basis=p['m_basis'],
                                                  m_inner=p['m_inner']),
                            n_fields=p['n_fields'])
    fhat = fourier_coefficients(model, cloud.points, p['m_basis'])
    arrows = model.eig_phi[:, :frame.ops[0].m_out] @ (frame.ops[0].v_op @ fhat)
    theta = np.radians(params[:, 0])
    if kind4d:
        tangents = np.column_stack([-np.sin(theta), np.cos(theta),
                                    -np.sin(theta), np.cos(theta)]) / np.sqrt(2.0)
    else:
        tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
    pca = {k: np.vstack([local_pca_tangent(cloud, x, k, 1).ravel()
                         for x in cloud.points])
           for k in (20, 40, 60)}
    sigma_theta = p['sigma'] * (1.0 + np.cos(theta / 2.0) ** 2)
    return {'cloud': cloud, 'params': params, 'arrows': arrows,
            'tangents': tangents, 'pca': pca, 'model': model, 'frame': frame,
            'clean_mask': sigma_theta <= 1.5 * sigma_theta.min()}


def pgd_circle_pipeline():
    """On-manifold PGD against the angular-sector classifier."""
    p = PGD_CIRCLE
    cloud, params = equispaced_circle(p['n'])
    model = fit(cloud, CidmConfig(k_nn=p['k_nn'], n_eigs=p['n_eigs']))
    projector = build_projector(model, p['l_trunc'])
    frame = build_sec_frame(model, SecBasisConfig(m_basis=p['m_basis'],
                                                  m_inner=p['m_inner']), n_fields=2)
    fhat = fourier_coefficients(model, cloud.points, p['m_basis'])
    label_map = semantic_map(model, params, periodic_flags('circle'), p['n_eigs'])
    oracle = sector_classifier(p['n_classes'], boundary_offset=p['boundary_offset'])
    start_rad = np.radians(p['start_deg'])
    start = np.array([np.cos(start_rad), np.sin(start_rad)])
    config = PgdConfig(alpha=np.radians(p['alpha_deg']), max_steps=p['max_steps'],
                       tangent_dim=1)
    trace = om_pgd(start, oracle.sector_of(p['start_deg']), oracle, projector,
                   frame, fhat, config, label_map=label_map)
    return {'trace': trace, 'oracle': oracle, 'model': model,
            'projector': projector, 'cloud': cloud, 'params': params}


def _cmd_repro(args) -> int:
    import os
    os.makedirs(args.out_dir, exist_ok=True)
    path = lambda name: os.path.join(args.out_dir, name)
    if args.figure == 'fig1':
        out = fig1_pipeline()
        _write_csv(path('fig1_train.csv'), out['train'], args.force)
        _write_csv(path('fig1_grid.csv'),
                   np.column_stack([out['grid_points'], out['grid']['cidm'],
                                    out['grid']['cidm_dm_normalized'], out['nearest']]),
                   args.force)
    elif args.figure == 'fig2':
        out = fig2_pipeline()
        _write_csv(path('fig2_train.csv'), out['cloud'].points, args.force)
        _write_csv(path('fig2_grid.csv'), out['grid'], args.force)
        _write_csv(path('fig2_proj1.csv'), out['proj1'], args.force)
        _write_csv(path('fig2_proj2.csv'), out['proj2'], args.force)
        _write_csv(path('fig2_train_proj.csv'), out['train_proj'], args.force)
        radii = np.linalg.norm(out['proj2'], axis=1)
        frac = float(np.mean(np.abs(radii - 1.0) <= 0.05))
        print(f'fig2: {100 * frac:.1f}% of grid projections within |r-1| <= 0.05')
    elif args.figure == 'fig3':
        for kind4d, tag in ((False, 'fig3'), (True, 'fig3_4d')):
            out = fig3_pipeline(kind4d)
            _write_csv(path(f'{tag}_arrows.csv'),
                       np.hstack([out['cloud'].points, out['arrows']]), args.force)
            for k, vecs in out['pca'].items():
                _write_csv(path(f'{tag}_pca{k}.csv'),
                           np.hstack([out['cloud'].points, vecs]), args.force)
            cs = np.abs(np.sum(out['arrows'] * out['tangents'], axis=1))
            cs /= np.maximum(np.linalg.norm(out['arrows'], axis=1), 1e-300)
            clean = out['clean_mask']
            print(f'{tag}: mean |cos| clean half {cs[clean].mean():.3f}, '
                  f'noisy half {cs[~clean].mean():.3f}')
    elif args.figure == 'pgd-circle':
        out = pgd_circle_pipeline()
        trace = out['trace']
        _write_trace(path('pgd_trace.jsonl'), trace, args.force)
        print(f'pgd-circle: status={trace.status} steps={len(trace.steps)}')
        if trace.status == 'stalled':
            print('ERROR StalledError: PGD stalled', file=sys.stderr)
            return 2
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog='onmanifold',
                     description='CIDM manifold geometry and on-manifold PGD')
    parser.add_argument('--version', action='version', version=__version__)
    parser.add_argument('--threads', type=int, default=None,
                        help='cap BLAS threads via threadpoolctl (1 = bit-reproducible mode)')
    sub = parser.add_subparsers(dest='verb', required=True)

    p = sub.add_parser('synth', help='generate a synthetic manifold sample')
    p.add_argument('--kind', required=True,
                   choices=['circle', 'circle4d', 'torus', 'grid2d'])
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--sigma', type=float, default=0.0)
    p.add_argument('--density', choices=['uniform', 'angle_skewed'], default='uniform')
    p.add_argument('--noise-profile', choices=['constant', 'angle_varying'],
                   default='constant')
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--out', required=True)
    p.add_argument('--params-out')
    p.add_argument('--force', action='store_true')
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser('fit', help='fit a CIDM model to a point CSV')
    p.add_argument('data')
    p.add_argument('--k-nn', type=int, required=True)
    p.add_argument('--n-eigs', type=int, required=True)
    p.add_argument('--epsilon', type=float, default=1.0)
    p.add_argument('--shape', choices=['exponential', 'indicator'],
                   default='exponential')
    p.add_argument('--variant', choices=['cidm', 'cidm_dm_normalized'],
                   default='cidm')
    p.add_argument('--per-point-scales', action='store_true',
                   help='use the k-th neighbor distance instead of the kNN mean')
    p.add_argument('--l-trunc', type=int, default=0,
                   help='also store a projector with this truncation')
    p.add_argument('--out', required=True)
    p.add_argument('--force', action='store_true')
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser('extend', help='extend function values to query points')
    p.add_argument('model')
    p.add_argument('queries')
    p.add_argument('--values', required=True,
                   help='CSV of function values at the training points')
    p.add_argument('--l-trunc', type=int, default=0)
    p.add_argument('--out', required=True)
    p.add_argument('--force', action='store_true')
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser('project', help='Nystrom-project query points onto the manifold')
    p.add_argument('model')
    p.add_argument('queries')
    p.add_argument('--iters', type=int, default=2)
    p.add_argument('--l-trunc', type=int, default=0)
    p.add_argument('--out', required=True)
    p.add_argument('--force', action='store_true')
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser('sec-fields', help='compute SEC eigenfields into the bundle')
    p.add_argument('model')
    p.add_argument('--m-basis', type=int, required=True)
    p.add_argument('--m-inner', type=int, default=None)
    p.add_argument('--tau-frac', type=float, default=1e-3)
    p.add_argument('--n-fields', type=int, default=2)
    p.add_argument('--arrows-out')
    p.add_argument('--force', action='store_true')
    p.set_defaults(func=_cmd_sec_fields)

    p = sub.add_parser('tangent', help='tangent bases at query points')
    p.add_argument('model')
    p.add_argument('queries')
    p.add_argument('--dim', type=int, required=True)
    p.add_argument('--out', required=True)
    p.add_argument('--force', action='store_true')
    p.set_defaults(func=_cmd_tangent)

    p = sub.add_parser('pgd', help='run on-manifold PGD against a sector classifier')
    p.add_argument('model')
    p.add_argument('--start', help='comma-separated start coordinates')
    p.add_argument('--start-index', type=int)
    p.add_argument('--true-label', type=int)
    p.add_argument('--classes', type=int, default=4)
    p.add_argument('--boundary-offset', type=float, default=0.0)
    p.add_argument('--alpha', type=float, required=True)
    p.add_argument('--max-steps', type=int, default=20)
    p.add_argument('--tangent-dim', type=int, default=1)
    p.add_argument('--normalize', action=argparse.BooleanOptionalAction, default=True)
    p.add_argument('--project-iters', type=int, default=2)
    p.add_argument('--out', required=True)
    p.add_argument('--force', action='store_true')
    p.set_defaults(func=_cmd_pgd)

    p = sub.add_parser('repro', help='run a pinned desk-scale experiment')
    p.add_argument('figure', choices=['fig1', 'fig2', 'fig3', 'pgd-circle'])
    p.add_argument('--out-dir', default='repro_out')
    p.add_argument('--force', action='store_true')
    p.set_defaults(func=_cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limiter = _cap_threads(args.threads)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f'ERROR {type(exc).__name__}: {exc}', file=sys.stderr)
        return 2
    finally:
        if limiter is not None:
            limiter.unregister()


if __name__ == '__main__':
    sys.exit(main())
