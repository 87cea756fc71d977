"""Print the sha256 of every ``onmanifold repro`` output, to compare two checkouts.

Each figure of ``onmanifold.repro.FIGURES`` runs as ``python -m onmanifold.cli
repro FIGURE`` in a fresh process with one BLAS thread (``OPENBLAS_NUM_THREADS``
and ``OMP_NUM_THREADS`` set to 1), writing into a temporary directory that is
removed afterwards.  One line ``<sha256>  <figure>/<file>`` is printed per
output file and one ``<sha256>  <figure>/stdout`` per figure's printed lines,
so two checkouts give byte-identical outputs exactly when their listings are
equal.  A last run, ``torus``, covers the ARPACK side of the fit at the size
of the ``torus-build`` benchmark: the N=4000 seed-1 torus fit's ``eig_xi`` and
``eig_phi``, its SEC frame's ``etas`` and ``ops``, the tangent frames at its
200 queries after a bundle round trip, the fit's Jacobians of modes 0..8
at the same queries (``nystrom.diffusion_map_jacobian``, stacked), and the
values of all 80 modes and the two-iteration projection (L=20) of the 200
queries as one (200, 3) batch each, one ``<sha256>  torus/<name>`` line per
array (C-order float64 bytes).  On a host where the process may use two
CPUs, the fit's block passes, its ARPACK products and the two batches run
on two threads; pinned to one CPU (``taskset -c 0``), inline; the listings
are the same:

    python3 tools/repro_digests.py > after.txt
    python3 tools/repro_digests.py --src ../other-checkout/src > before.txt
    diff before.txt after.txt

``--src`` is the directory that holds the ``onmanifold`` package (default: this
checkout's ``src``).  ``--against SRC`` runs the figures of the package in SRC
too, and after the listing prints to stderr one line per output whose sha256
differs there: for a CSV file the largest absolute deviation of its numeric
cells, for JSON lines that of each numeric field, by key (nested keys joined
with dots, list entries pooled), so a moved output shows how far it moved:

    python3 tools/repro_digests.py --against ../other-checkout/src > after.txt

The exit code is 1 if a figure's run or the torus run fails.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The pinned torus build, run with the bundle path as its one argument;
#: the settings and the query seed are those of ``perfbench`` ``torus-build``
#: at seed 1.
TORUS = """
import hashlib, sys
import numpy as np
import onmanifold as om

def digest(name, array):
    data = np.ascontiguousarray(array, dtype='<f8').tobytes()
    print(f'{hashlib.sha256(data).hexdigest()}  torus/{name}')

cloud = om.generate(om.SynthSpec(kind='torus', n_points=4000, seed=1))[0]
query_seed = int(np.random.SeedSequence([1, 1]).generate_state(1)[0])
queries = om.generate(om.SynthSpec(kind='torus', n_points=200, seed=query_seed))[0].points
model = om.fit(cloud, om.CidmConfig(k_nn=24, n_eigs=80))
frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=13, m_inner=72), n_fields=4)
fhat = om.fourier_coefficients(model, cloud.points, 13)
om.save_bundle(sys.argv[1], om.ModelBundle(model=model, sec_frame=frame, sec_fhat=fhat))
loaded = om.load_bundle(sys.argv[1])
digest('eig_xi', model.eig_xi)
digest('eig_phi', model.eig_phi)
digest('sec_etas', frame.etas)
digest('sec_ops', frame.ops)
digest('tangents', om.tangent_frame_at(loaded.model, loaded.sec_frame, loaded.sec_fhat,
                                       queries, 2))
digest('jacobian', np.stack([om.nystrom.diffusion_map_jacobian(model, 9, x) for x in queries]))
digest('values', om.eigenfunction_values(model, queries, 80))
digest('projection', om.project_many(om.build_projector(model, 20), queries, 2))
"""


def _environment(src: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS='1', OMP_NUM_THREADS='1')
    env['PYTHONPATH'] = os.pathsep.join(filter(None, [str(src), env.get('PYTHONPATH')]))
    return env


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _number(value):
    """``value`` as a float if it is a JSON number or a CSV cell that reads as
    one, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _leaves(value) -> list:
    """The entries of a JSON value with its nested lists flattened, in order."""
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _fields(record: dict, prefix: str = '') -> dict:
    """The fields of a JSON-lines record, nested keys joined with dots."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_fields(value, f'{prefix}{key}.'))
        else:
            out[f'{prefix}{key}'] = _leaves(value)
    return out


def _largest_deviation(ours: list, theirs: list) -> float | None:
    """The largest |a - b| over the numeric pairs of two lists of entries, or
    None if the lists differ in length or in an entry that is not a number
    (a NaN against a NaN deviates by 0, against a number by inf)."""
    if len(ours) != len(theirs):
        return None
    largest = 0.0
    for a, b in zip(ours, theirs):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            if a != b:
                return None
        elif not (x == y or (math.isnan(x) and math.isnan(y))):
            d = abs(x - y)
            largest = max(largest, math.inf if math.isnan(d) else d)
    return largest


def _deviation(name: str, ours: bytes, theirs: bytes) -> str:
    """How output ``name`` deviates between two runs, in words."""
    try:
        a, b = ours.decode(), theirs.decode()
        if name.endswith('.csv'):
            rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
            if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
                return f'rows or columns differ ({len(rows_a)} rows against {len(rows_b)})'
            dev = _largest_deviation(_leaves(rows_a), _leaves(rows_b))
            return ('a cell that is not a number differs' if dev is None
                    else f'largest |deviation| {dev:.3g} over {sum(map(len, rows_a))} cells')
        if name.endswith('.jsonl'):
            recs_a = [_fields(json.loads(line)) for line in a.splitlines()]
            recs_b = [_fields(json.loads(line)) for line in b.splitlines()]
            if [sorted(r) for r in recs_a] != [sorted(r) for r in recs_b]:
                return f'records or keys differ ({len(recs_a)} records against {len(recs_b)})'
            by_key, same = [], 0
            for key in sorted({key for rec in recs_a for key in rec}):
                leaves_a, leaves_b = ([leaf for rec in recs if key in rec for leaf in rec[key]]
                                      for recs in (recs_a, recs_b))
                if leaves_a == leaves_b:
                    same += 1
                    continue
                dev = _largest_deviation(leaves_a, leaves_b)
                by_key.append(f'{key} ' + ('differs' if dev is None else f'{dev:.3g}'))
            return (f'largest |deviation| by key over {len(recs_a)} records: '
                    + ', '.join(by_key) + f'; {same} keys unchanged')
    except (UnicodeDecodeError, ValueError) as exc:
        return f'not comparable ({exc})'
    return 'differs; only CSV cells and JSON-lines fields are compared'


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--src', type=Path, default=ROOT / 'src',
                        help='directory holding the onmanifold package')
    parser.add_argument('--against', type=Path, metavar='SRC',
                        help='another directory holding the onmanifold package; print to '
                             'stderr how far each output that differs there moved')
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix='repro-digests-') as tmp:

        def run(env, what, *argv):
            nonlocal failed
            done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                                  cwd=tmp)
            if done.returncode != 0:
                sys.stderr.write(done.stderr.decode(errors='replace'))
                print(f'{what} exited {done.returncode}', file=sys.stderr)
                failed = True
            return done.stdout

        def outputs(env, where: str) -> dict:
            """``{'<figure>/<file>': bytes}`` of every figure's output files
            and printed lines, made in ``tmp/where``."""
            figures = subprocess.run(
                [sys.executable, '-c', 'from onmanifold.repro import FIGURES; print(*FIGURES)'],
                env=env, capture_output=True, text=True, check=True).stdout.split()
            made = {}
            for figure in figures:
                out_dir = Path(tmp) / where / figure
                stdout = run(env, f'repro {figure}', '-m', 'onmanifold.cli', 'repro', figure,
                             '--out-dir', str(out_dir))
                for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
                    made[f'{figure}/{path.name}'] = path.read_bytes()
                made[f'{figure}/stdout'] = stdout
            return made

        env = _environment(args.src.resolve())
        ours = outputs(env, 'src')
        for name, data in ours.items():
            print(f'{_sha256(data)}  {name}')
        sys.stdout.write(run(env, 'torus', '-c', TORUS, str(Path(tmp) / 'torus.bundle')).decode())
        if args.against is not None:
            theirs = outputs(_environment(args.against.resolve()), 'against')
            for name in ours.keys() | theirs.keys():
                if name not in theirs or name not in ours:
                    side = '--src' if name in ours else '--against'
                    print(f'{name}: made only by {side}', file=sys.stderr)
                elif ours[name] != theirs[name]:
                    print(f'{name}: {_deviation(name, ours[name], theirs[name])}',
                          file=sys.stderr)
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main())
