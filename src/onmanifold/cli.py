"""The ``onmanifold`` command: argument parsing, and each verb's reads and writes.

Verbs: synth, fit, extend, project, sec-fields, tangent, pgd, repro.  The
pinned experiments behind ``repro`` live in :mod:`onmanifold.repro`.
Exit codes: 0 success, 1 usage error, 2 numerical failure (the diagnostic
line names the error type).
"""

import argparse
import contextlib
import json
import os
import sys
from typing import get_args

import numpy as np

from . import __version__
from .bundle import ModelBundle, atomic_write, load_bundle, save_bundle
from .cidm import CidmConfig, KernelVariant, PointCloud, fit
from .errors import GeometryError
from .nystrom import build_projector, extend_function, fourier_coefficients, project_many
from .ompgd import PgdConfig, PgdTrace, om_pgd, sector_classifier
from .repro import FIGURES, equispaced_circle  # noqa: F401 (tests import it from here)
from .sec import SecBasisConfig, build_sec_frame, field_arrows, tangent_frame_at
from .synth import DensityProfile, Kind, NoiseProfile, SynthSpec, generate


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1, and any argument
    that parses as a number or a comma list of numbers read as a value:
    argparse would take ``-inf``, ``-1e-3`` or ``-0.5,0.8`` for an option."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f'{self.prog}: error: {message}\n')

    def _parse_optional(self, arg_string):
        try:
            for value in arg_string.split(','):
                float(value)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _write_csv(path, array, force: bool) -> None:
    _guard_overwrite(path, force)
    with atomic_write(path) as fh:
        np.savetxt(fh, np.atleast_2d(array), delimiter=',', fmt='%.17g')


def _report_pgd(verb: str, path, trace: PgdTrace, force: bool) -> int:
    """Write the trace as JSON lines and print its status; exit code 2 on a stall."""
    _guard_overwrite(path, force)
    with atomic_write(path) as fh:
        for rec in trace.to_records():
            fh.write(json.dumps(rec, sort_keys=True) + '\n')
        fh.write(json.dumps({'summary': {'status': trace.status,
                                         'true_label': trace.true_label,
                                         'n_steps': len(trace.steps)}},
                            sort_keys=True) + '\n')
    print(f'{verb}: status={trace.status} steps={len(trace.steps)}')
    if trace.status == 'stalled':
        print('ERROR StalledError: PGD stalled before misclassification', file=sys.stderr)
        return 2
    return 0


def _guard_overwrite(path, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise UsageError(f'refusing to overwrite {path} (use --force)')


class UsageError(Exception):
    pass


def _cap_threads(n: int | None):
    """A context that caps BLAS threads at ``n`` (at least 1), none if None."""
    if n is None:
        return contextlib.nullcontext()
    if n < 1:
        raise UsageError(f'--threads must be at least 1, got {n}')
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print(f'warning: --threads {n} was not applied because threadpoolctl is not '
              'installed; set OPENBLAS_NUM_THREADS and OMP_NUM_THREADS before '
              'starting to cap BLAS threads', file=sys.stderr)
        return contextlib.nullcontext()
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
                        kernel_variant=args.variant)
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
    projector = (build_projector(bundle.model, args.l_trunc) if args.l_trunc
                 else bundle.projector())
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
    for i, eta in enumerate(frame.etas):
        print(f'field {i}: eta={eta:.6e}')
    if args.arrows_out:
        _write_csv(args.arrows_out, np.hstack([model.training.points,
                                               field_arrows(model, frame, fhat)]), args.force)
    return 0


def _cmd_tangent(args) -> int:
    bundle = load_bundle(args.model)
    if bundle.sec_frame is None:
        raise UsageError('bundle has no SEC section; run sec-fields first')
    queries = PointCloud.from_csv(args.queries).points
    T = tangent_frame_at(bundle.model, bundle.sec_frame, bundle.sec_fhat, queries, args.dim)
    # each basis column-major after its query
    _write_csv(args.out, np.hstack([queries, T.transpose(0, 2, 1).reshape(len(queries), -1)]),
               args.force)
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
        if not 0 <= args.start_index < model.n_points:
            raise UsageError(f'--start-index must be in [0, {model.n_points}), '
                             f'got {args.start_index}')
        start = model.training.points[args.start_index]
    else:
        raise UsageError('provide --start or --start-index')
    oracle = sector_classifier(args.classes, boundary_offset=args.boundary_offset)
    config = PgdConfig(alpha=args.alpha, max_steps=args.max_steps,
                       tangent_dim=args.tangent_dim)
    trace = om_pgd(start, args.true_label, oracle, projector, bundle.sec_frame,
                   bundle.sec_fhat, config, bundle.label_map)
    return _report_pgd('pgd', args.out, trace, args.force)


def _cmd_repro(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    files, lines = FIGURES[args.figure]()
    code = 0
    for name, data in files.items():
        path = os.path.join(args.out_dir, name)
        if isinstance(data, PgdTrace):
            code = _report_pgd(args.figure, path, data, args.force)
        else:
            _write_csv(path, data, args.force)
    for line in lines:
        print(line)
    return code


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog='onmanifold',
                     description='CIDM manifold geometry and on-manifold PGD')
    parser.add_argument('--version', action='version', version=__version__)
    parser.add_argument('--threads', type=int, default=None,
                        help='cap BLAS threads via threadpoolctl (1 = bit-reproducible mode)')
    sub = parser.add_subparsers(dest='verb', required=True)

    p = sub.add_parser('synth', help='generate a synthetic manifold sample')
    p.add_argument('--kind', required=True, choices=get_args(Kind))
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--sigma', type=float, default=0.0)
    p.add_argument('--density', choices=get_args(DensityProfile), default='uniform')
    p.add_argument('--noise-profile', choices=get_args(NoiseProfile), default='constant')
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
    p.add_argument('--variant', choices=get_args(KernelVariant), default='cidm')
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
    p.add_argument('--out', required=True)
    p.add_argument('--force', action='store_true')
    p.set_defaults(func=_cmd_pgd)

    p = sub.add_parser('repro', help='run a pinned desk-scale experiment')
    p.add_argument('figure', choices=list(FIGURES))
    p.add_argument('--out-dir', default='repro_out')
    p.add_argument('--force', action='store_true')
    p.set_defaults(func=_cmd_repro)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _cap_threads(args.threads):
            return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f'ERROR {type(exc).__name__}: {exc}', file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
