"""Benchmark harness for the onmanifold fit -> SEC -> project -> PGD pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload circle-project --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all      # every workload, untraced then traced
    python3 perfbench/run.py --smoke    # tiny sizes: every metric name is emitted

One ``--workload`` run is one fresh process.  It pins the BLAS thread
variables before numpy is imported, imports ``onmanifold`` from ``src/``
and nothing else, repeats the workload set-up (``SETUP_REPEATS``,
``SETUP_MIN_S``), then runs operations in a closed loop with one client
for ``--seconds`` seconds, checking each output outside the timed region.
An operation that raises ``GeometryError``/``ValueError`` or fails its
check counts as failed, and a run with a failure is not ``correct``.

With ``--trace 0`` the lines before the last print every end-to-end
metric under the workload's own name (``build_s``, ``project_qps``,
``pgd_attack_p50_ms``, ``tangent_hit_frac``, ...) as measured, with unit,
direction and sample count.  The last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, whose metrics are ``GATED``,
the ones every workload has: set-up time, peak RSS, the median operation
time and work items per second (builds, projected queries or PGD steps).
Their times are rescaled to nominal machine speed by ``SpeedProbe``.
With ``--trace 1`` the metrics are the per-layer ones in ``LAYER`` (see
``tracing.py``), and the lines before list them with a table of every
span's calls, total and self time.  Each input then runs once untraced
and once traced, in alternating order, and ``trace.overhead_ms`` is the
difference of the two medians.  Full records and the spans go to
``.bench_out/``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / '.bench_out'
THREAD_VARS = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')
WORKLOAD_NAMES = ('torus-build', 'circle-project', 'circle-pgd')
DEFAULT_SEED = 1
#: Held out from tuning; confirm a later claim on this seed as well.
HELD_OUT_SEED = 2
DEFAULT_SECONDS = 30
#: Set-up runs at least this many times and until this much time has passed,
#: so a millisecond set-up gets a steady median too.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
#: The speed probe runs a burst of PROBE_BURST kernels between operations,
#: at most every PROBE_EVERY_S, and corrects each operation by the probes
#: within PROBE_WINDOW_S of it.  The nominal times are the probe medians on
#: the machine the bounds were tuned on (x86_64, 2 cores, OpenBLAS 0.3.31).
PROBE_EVERY_S = 0.25
PROBE_BURST = 3
PROBE_WINDOW_S = 1.0
PROBE_NOMINAL_MS = {'calls': 1.0, 'arrays': 2.3}

GATED = {
    'setup_s': ('s', 'lower'),
    'peak_rss_mb': ('MiB', 'lower'),
    'op_p50_ms': ('ms', 'lower'),
    'items_per_s': ('1/s', 'higher'),
}

LAYER = {
    'synth.generate_s': 's',
    'cidm.fit_s': 's',
    'cidm.knn_scales_s': 's',
    'cidm.fit_peak_mb': 'MiB',
    'sec.build_sec_frame_s': 's',
    'sec.build_sec_frame_peak_mb': 'MiB',
    'sec.tangent_frame_at_ms': 'ms',
    'sec.tangent_calls': 'count',
    'nystrom.project_many_ms': 'ms',
    'nystrom.rows': 'count',
    'nystrom.rows_per_s': '1/s',
    'nystrom.rows_per_step': 'count',
    'nystrom.build_projector_s': 's',
    'nystrom.fourier_coefficients_s': 's',
    'ompgd.om_pgd_step_ms': 'ms',
    'ompgd.om_pgd_step_self_ms': 'ms',
    'ompgd.steps_per_attack': 'count',
    'ompgd.semantic_labels_ms': 'ms',
    'ompgd.oracle_ms': 'ms',
    'ompgd.stalled': 'count',
    'bundle.save_s': 's',
    'bundle.load_s': 's',
    'bundle.bytes': 'bytes',
    'trace.overhead_ms': 'ms',
    'trace.overhead_frac': 'ratio',
}


def _pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = '1'


def _import_program():
    """Import onmanifold from this checkout's sources, never from elsewhere."""
    src = ROOT / 'src'
    if not (src / 'onmanifold' / '__init__.py').is_file():
        sys.exit(f'perfbench: no onmanifold sources under {src}')
    sys.path.insert(0, str(src))
    import onmanifold
    return onmanifold


def _environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode='dicts')['Build Dependencies']['blas']
    return {
        'python': platform.python_version(),
        'numpy': np.__version__,
        'scipy': scipy.__version__,
        'blas': f"{blas.get('name')} {blas.get('version')}",
        'nproc': len(os.sched_getaffinity(0)),
        'machine': platform.machine(),
        'threads': {var: os.environ.get(var) for var in THREAD_VARS},
    }


class SpeedProbe:
    """Fixed, program-independent control kernels timed between operations.

    Shared machines change speed by tens of percent for minutes at a time,
    which would swamp any change in the program.  The probe samples that
    speed through the run with numpy kernels of two kinds: ``'calls'``
    (single-row distance, scale, weights and a small SVD, like the per-call
    work of Nystrom rows and tangent frames) and ``'arrays'`` (a
    matrix-vector product over 32 MiB, like the vectorized batch rows, the
    dense kernel and the eigensolver of a fit).  Each workload names the
    kind that tracks its set-up and its operation; on the tuning machine
    the other kind tracked them worse.
    :meth:`correct` rescales each measured interval by the kernel's
    ``PROBE_NOMINAL_MS`` over its median time within ``PROBE_WINDOW_S``.
    """

    def __init__(self, kinds: set[str]):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._kernels = {}
        if 'calls' in kinds:
            self._points = rng.standard_normal((400, 2))
            self._modes = rng.standard_normal((400, 20))
            self._arrows = rng.standard_normal((2, 6))
            self._kernels['calls'] = self._calls
        if 'arrays' in kinds:
            self._wide = rng.standard_normal((2048, 2048))
            self._vec = rng.standard_normal(2048)
            self._kernels['arrays'] = self._arrays
        self.at: list[float] = []
        self.ms: dict[str, list[float]] = {kind: [] for kind in self._kernels}
        self.busy_s = 0.0

    def _calls(self) -> None:
        from scipy.spatial.distance import cdist
        np = self._np
        for k in range(20):
            row = cdist(self._points[k:k + 1], self._points)[0]
            scale = np.partition(row, 8)[:8].mean()
            w = np.exp(-(row - row.min()) / scale)
            (w / w.sum()) @ self._modes
            np.linalg.svd(self._arrows, full_matrices=False)

    def _arrays(self) -> None:
        self._wide @ self._vec

    def sample(self, force: bool = False) -> None:
        """Time one burst; operations longer than a few seconds call this
        between their stages, and ``busy_s`` lets the harness subtract it."""
        start = time.perf_counter()
        if not force and self.at and start - self.at[-1] < PROBE_EVERY_S:
            return
        for _ in range(PROBE_BURST):
            for kind, kernel in self._kernels.items():
                t0 = time.perf_counter()
                kernel()
                self.ms[kind].append((time.perf_counter() - t0) * 1e3)
            self.at.append(time.perf_counter())
        self.busy_s += time.perf_counter() - start

    def correct(self, intervals: list[tuple[float, float, float]], kind: str) -> list[float]:
        """Durations of ``(start, end, probe_s)`` intervals, less the probe
        time inside them, at nominal machine speed."""
        np = self._np
        at, ms = np.array(self.at), np.array(self.ms[kind])
        out = []
        for start, end, probe_s in intervals:
            lo, hi = np.searchsorted(at, [start - PROBE_WINDOW_S, end + PROBE_WINDOW_S])
            lo = min(lo, len(at) - 1)       # no probe in the window: the nearest one
            hi = max(hi, lo + 1)
            out.append((end - start - probe_s) * PROBE_NOMINAL_MS[kind]
                       / float(np.median(ms[lo:hi])))
        return out


def _named(value, unit, better, n, of) -> dict:
    return {'value': value, 'unit': unit, 'better': better, 'n': n, 'of': of}


def _tail(times, q):
    """Percentile q of times, or None unless ten samples lie beyond it."""
    import numpy as np
    value = float(np.percentile(times, q))
    return value if int(np.sum(np.asarray(times) > value)) >= 10 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """One run of one workload; returns the full record."""
    _pin_threads()
    om = _import_program()
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](scale, str(OUT))
    tracer = tracing.Tracer()
    probe = SpeedProbe({wl.setup_probe, wl.op_probe})
    probe.sample(force=True)

    def traced_if(on, op):
        return tracer.installed(op) if on else contextlib.nullcontext()

    setups = []
    while len(setups) < SETUP_REPEATS or sum(b - a for a, b, _ in setups) < SETUP_MIN_S:
        with traced_if(trace, f'setup-{len(setups)}'):
            t0 = time.perf_counter()
            state = wl.setup(seed, tracer)
            setups.append((t0, time.perf_counter(), 0.0))
        probe.sample()

    plain, traced, checks = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        query = wl.queries(seed, i)
        order = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        try:
            for on in order:
                with traced_if(on, i):
                    busy, t0 = probe.busy_s, time.perf_counter()
                    result = wl.operation(state, query, tracer, probe)
                    t1 = time.perf_counter()
                (traced if on else plain).append((t0, t1, probe.busy_s - busy))
            check = wl.check(state, query, result)
        except (om.GeometryError, ValueError) as exc:
            check = workloads.Check(ok=False, good=0, total=wl.outputs, items=0,
                                    info={'error': f'{type(exc).__name__}: {exc}'})
        checks.append(check)
        i += 1
        probe.sample()
    probe.sample(force=True)
    if not plain or (trace and not traced):
        sys.exit(f'perfbench: every {name} operation raised; first: {checks[0].info}')

    attempted = len(checks)
    failed = sum(not c.ok for c in checks)
    items = sum(c.items for c in checks)
    good = sum(c.good for c in checks)
    total = sum(c.total for c in checks)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times = [b - a for a, b, _ in setups]
    op_times = [b - a - p for a, b, p in plain]
    busy = sum(op_times)
    op_p50 = statistics.median(op_times)

    op_name, op_unit, op_scale = wl.op_metric
    named = {
        'setup_s': _named(statistics.median(setup_times), 's', 'lower',
                          len(setup_times), 'set-ups'),
        'peak_rss_mb': _named(peak_rss, 'MiB', 'lower', 1, 'process'),
        'failed_frac': _named(failed / attempted, 'ratio', 'lower', attempted, 'operations'),
        op_name: _named(op_p50 * op_scale, op_unit, 'lower', len(plain), 'operations'),
    }
    if wl.rate_metric:
        named[wl.rate_metric] = _named(items / busy, '1/s', 'higher', items, wl.item)
    if wl.tail_metric:
        tail_name, q = wl.tail_metric
        tail = _tail(op_times, q)
        named[tail_name] = _named(None if tail is None else tail * 1e3, 'ms', 'lower',
                                  len(op_times), 'operations')
    named[wl.quality_metric] = _named(good / total, 'ratio', 'higher', total, 'outputs')

    record = {
        'workload': name, 'seed': seed, 'seconds': seconds, 'trace': trace, 'scale': scale,
        'env': _environment(), 'attempted': attempted, 'failed': failed,
        'errors': [c.info['error'] for c in checks if 'error' in c.info][:5],
        'named': named,
        'probe': {'kind': wl.op_probe, 'samples': len(probe.at),
                  'median_ms': {k: statistics.median(v) for k, v in probe.ms.items()}},
    }
    if trace:
        overhead = statistics.median(b - a - p for a, b, p in traced) - op_p50
        layer = tracing.layer_metrics(tracer.spans, sum(c.info.get('stalled', 0) for c in checks))
        layer['trace.overhead_ms'] = overhead * 1e3
        layer['trace.overhead_frac'] = overhead / op_p50
        metrics = {k: {'value': layer[k], 'unit': LAYER[k]} for k in LAYER}
        record['spans'] = tracing.span_table(tracer.spans)
        tracer.write(OUT / f'{name}-seed{seed}-spans.jsonl')
    else:
        setup_nominal = probe.correct(setups, wl.setup_probe)
        op_nominal = probe.correct(plain, wl.op_probe)
        gated = {
            'setup_s': statistics.median(setup_nominal),
            'peak_rss_mb': peak_rss,
            'op_p50_ms': statistics.median(op_nominal) * 1e3,
            'items_per_s': items / sum(op_nominal),
        }
        metrics = {k: {'value': gated[k], 'unit': GATED[k][0]} for k in GATED}
    record['result'] = {'correct': failed == 0, 'attempted': attempted, 'failed': failed,
                        'metrics': metrics}
    with open(OUT / f'{name}-seed{seed}-trace{int(trace)}.json', 'w') as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(rec: dict) -> None:
    env = rec['env']
    print(f"perfbench {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} "
          f"trace={int(rec['trace'])} scale={rec['scale']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, nproc {env['nproc']}, "
          + ' '.join(f'{k}={v}' for k, v in env['threads'].items()))
    for err in rec['errors']:
        print(f'failed operation: {err}')
    if not rec['trace']:
        for key, m in rec['named'].items():
            value = ('n/a (fewer than 10 samples beyond)' if m['value'] is None
                     else f"{m['value']:.6g}")
            print(f"  {key:28s} {value} {m['unit']}  ({m['better']} is better; "
                  f"n={m['n']} {m['of']})")
    else:
        for key, m in rec['result']['metrics'].items():
            print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
        print(f"  {'span':34s} {'calls':>7s} {'total s':>9s} {'self s':>9s} "
              f"{'p50 ms':>9s} {'self p50 ms':>11s}")
        for key, s in rec['spans'].items():
            print(f"  {key:34s} {s['calls']:7d} {s['total_s']:9.4f} {s['self_s']:9.4f} "
                  f"{s['p50_ms']:9.4f} {s['self_p50_ms']:11.4f}")


def run_all(seed: int, seconds: float, scale: str) -> list[dict]:
    """Each workload in a fresh process, untraced then traced."""
    records = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), '--workload', name,
                   '--seed', str(seed), '--seconds', str(seconds), '--trace', str(trace),
                   '--scale', scale]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f'perfbench: {name} trace={trace} exited {proc.returncode}')
            with open(OUT / f'{name}-seed{seed}-trace{trace}.json') as fh:
                records.append(json.load(fh))
    with open(OUT / f'all-seed{seed}.json', 'w') as fh:
        json.dump(records, fh, indent=1)
    return records


def smoke() -> None:
    """Tiny sizes: every workload emits every metric name, both modes."""
    records = run_all(DEFAULT_SEED, 1, 'tiny')
    with open(ROOT / 'BENCHMARK.json') as fh:
        bench = json.load(fh)
    declared_e2e = {m['name'] for m in bench['end_to_end']}
    declared_layer = {m['name'] for m in bench['per_layer']}
    problems = []
    if declared_e2e != set(GATED) or declared_layer != set(LAYER):
        problems.append('BENCHMARK.json metric names differ from GATED/LAYER')
    if [w['name'] for w in bench['workloads']] != list(WORKLOAD_NAMES):
        problems.append('BENCHMARK.json workloads differ from WORKLOAD_NAMES')
    expected_named = {'setup_s', 'peak_rss_mb', 'failed_frac', 'build_s', 'tangent_hit_frac',
                      'project_qps', 'project_batch_p50_ms', 'project_batch_p95_ms',
                      'project_on_manifold_frac', 'pgd_steps_per_s', 'pgd_attack_p50_ms',
                      'pgd_attack_p90_ms', 'pgd_success_frac'}
    seen = set()
    for rec in records:
        want = set(LAYER) if rec['trace'] else set(GATED)
        got = set(rec['result']['metrics'])
        if got != want:
            problems.append(f"{rec['workload']} trace={int(rec['trace'])}: metrics "
                            f'missing {sorted(want - got)}, extra {sorted(got - want)}')
        if not rec['trace']:
            seen |= set(rec['named'])
    if seen != expected_named:
        problems.append(f'named metrics missing {sorted(expected_named - seen)}, '
                        f'extra {sorted(seen - expected_named)}')
    if problems:
        sys.exit('perfbench smoke FAILED:\n  ' + '\n  '.join(problems))
    print(f'perfbench smoke ok: {len(records)} runs, {len(GATED)} gated, '
          f'{len(expected_named)} named and {len(LAYER)} per-layer metrics emitted')


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument('--workload', choices=WORKLOAD_NAMES)
    mode.add_argument('--all', action='store_true', help='every workload, both modes')
    mode.add_argument('--smoke', action='store_true', help='tiny self-check of metric names')
    p.add_argument('--seed', type=int, default=DEFAULT_SEED,
                   help=f'workload seed (default {DEFAULT_SEED}; confirm claims on '
                        f'{HELD_OUT_SEED} too)')
    p.add_argument('--seconds', type=float, default=DEFAULT_SECONDS)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    p.add_argument('--scale', choices=('full', 'tiny'), default='full')
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error('--seed must be >= 0 and --seconds > 0')
    if args.smoke:
        smoke()
    elif args.all:
        run_all(args.seed, args.seconds, args.scale)
    else:
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
        print_record(rec)
        print(json.dumps(rec['result']))


if __name__ == '__main__':
    main()
