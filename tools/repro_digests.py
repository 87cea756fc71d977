"""Print the sha256 of every ``onmanifold repro`` output, to compare two checkouts.

Each figure of ``onmanifold.repro.FIGURES`` runs as ``python -m onmanifold.cli
repro FIGURE`` in a fresh process with one BLAS thread (``OPENBLAS_NUM_THREADS``
and ``OMP_NUM_THREADS`` set to 1), writing into a temporary directory that is
removed afterwards.  One line ``<sha256>  <figure>/<file>`` is printed per
output file and one ``<sha256>  <figure>/stdout`` per figure's printed lines,
so two checkouts give byte-identical outputs exactly when their listings are
equal.  A last run, ``torus``, covers the ARPACK side of the fit at the size
of the ``torus-build`` benchmark: the N=4000 seed-1 torus fit's ``eig_xi`` and
``eig_phi``, its SEC frame's ``etas`` and ``ops``, and the tangent frames at
its 200 queries after a bundle round trip, one ``<sha256>  torus/<name>`` line
per array (C-order float64 bytes):

    python3 tools/repro_digests.py > after.txt
    python3 tools/repro_digests.py --src ../other-checkout/src > before.txt
    diff before.txt after.txt

``--src`` is the directory that holds the ``onmanifold`` package (default: this
checkout's ``src``).  The exit code is 1 if a figure's run or the torus run
fails.
"""

import argparse
import hashlib
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
"""


def _environment(src: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS='1', OMP_NUM_THREADS='1')
    env['PYTHONPATH'] = os.pathsep.join(filter(None, [str(src), env.get('PYTHONPATH')]))
    return env


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--src', type=Path, default=ROOT / 'src',
                        help='directory holding the onmanifold package')
    args = parser.parse_args(argv)
    env = _environment(args.src.resolve())
    figures = subprocess.run(
        [sys.executable, '-c', 'from onmanifold.repro import FIGURES; print(*FIGURES)'],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    failed = False
    with tempfile.TemporaryDirectory(prefix='repro-digests-') as tmp:

        def run(what, *argv):
            nonlocal failed
            done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                                  cwd=tmp)
            if done.returncode != 0:
                sys.stderr.write(done.stderr.decode(errors='replace'))
                print(f'{what} exited {done.returncode}', file=sys.stderr)
                failed = True
            return done.stdout

        for figure in figures:
            out_dir = Path(tmp) / figure
            stdout = run(f'repro {figure}', '-m', 'onmanifold.cli', 'repro', figure,
                         '--out-dir', str(out_dir))
            for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
                print(f'{_sha256(path.read_bytes())}  {figure}/{path.name}')
            print(f'{_sha256(stdout)}  {figure}/stdout')
        sys.stdout.write(run('torus', '-c', TORUS, str(Path(tmp) / 'torus.bundle')).decode())
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main())
