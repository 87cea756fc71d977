"""Print the sha256 of every ``onmanifold repro`` output, to compare two checkouts.

Each figure of ``onmanifold.repro.FIGURES`` runs as ``python -m onmanifold.cli
repro FIGURE`` in a fresh process with one BLAS thread (``OPENBLAS_NUM_THREADS``
and ``OMP_NUM_THREADS`` set to 1), writing into a temporary directory that is
removed afterwards.  One line ``<sha256>  <figure>/<file>`` is printed per
output file and one ``<sha256>  <figure>/stdout`` per figure's printed lines,
so two checkouts give byte-identical outputs exactly when their listings are
equal:

    python3 tools/repro_digests.py > after.txt
    python3 tools/repro_digests.py --src ../other-checkout/src > before.txt
    diff before.txt after.txt

``--src`` is the directory that holds the ``onmanifold`` package (default: this
checkout's ``src``).  The exit code is 1 if a figure's run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
        for figure in figures:
            out_dir = Path(tmp) / figure
            run = subprocess.run([sys.executable, '-m', 'onmanifold.cli', 'repro', figure,
                                  '--out-dir', str(out_dir)],
                                 env=env, capture_output=True, cwd=tmp)
            if run.returncode != 0:
                sys.stderr.write(run.stderr.decode(errors='replace'))
                print(f'repro {figure} exited {run.returncode}', file=sys.stderr)
                failed = True
            for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
                print(f'{_sha256(path.read_bytes())}  {figure}/{path.name}')
            print(f'{_sha256(run.stdout)}  {figure}/stdout')
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main())
