"""In-memory span tracer that times the onmanifold layers from outside.

The tracer never edits the package.  While an operation is traced it
replaces the public functions at the module attributes their callers
resolve at call time (``WRAPPED``), records one span per call, and puts
the originals back when the operation ends.  The harness opens spans
around the top-level calls it makes itself with :meth:`Tracer.span`.

A span is ``[name, start_ns, end_ns, parent, op, extra]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``op`` the operation
id, and ``extra`` a per-span figure (query rows for
``nystrom.eigenfunction_values``, tracemalloc peak bytes for spans opened
with ``memory=True``, file bytes for ``bundle.save``).  Spans stay in
memory until the run writes them out.
"""

import contextlib
import functools
import importlib
import json
import time
import tracemalloc

import numpy as np

#: (module, attribute, span name).  ``onmanifold.sec.eigenfunction_values``
#: is the Nystrom function as the SEC tangent frame resolves it, so both of
#: its call sites count toward the ``nystrom`` layer.
WRAPPED = (
    ('onmanifold.ompgd', 'om_pgd_step', 'ompgd.om_pgd_step'),
    ('onmanifold.ompgd', 'tangent_frame_at', 'sec.tangent_frame_at'),
    ('onmanifold.ompgd', 'project_many', 'nystrom.project_many'),
    ('onmanifold.ompgd', 'semantic_labels', 'ompgd.semantic_labels'),
    ('onmanifold.nystrom', 'eigenfunction_values', 'nystrom.eigenfunction_values'),
    ('onmanifold.sec', 'eigenfunction_values', 'nystrom.eigenfunction_values'),
)

ROWS_SPAN = 'nystrom.eigenfunction_values'

#: ``ompgd.steps_per_attack`` averages over this many leading attacks, so
#: the count depends on the seed alone and not on how many attacks fit in
#: the run.
STEPS_SAMPLE = 64

MIB = float(2 ** 20)


class Tracer:
    """Collects spans while :meth:`installed` is active; a no-op otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._op = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False):
        """Span around a harness call; yields the record (None when off)."""
        if not self.enabled:
            yield None
            return
        if memory:
            tracemalloc.start()
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)
            if memory:
                rec[5] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            if name == ROWS_SPAN:
                rec[5] = 1 if np.ndim(args[1]) == 1 else len(args[1])
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    @contextlib.contextmanager
    def installed(self, op):
        """Trace operation ``op``: wrap ``WRAPPED`` and restore them after."""
        saved = []
        try:
            for mod_name, attr, name in WRAPPED:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))
            self.enabled, self._op = True, op
            yield self
        finally:
            self.enabled, self._op = False, None
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        with open(path, 'w') as fh:
            fh.write(json.dumps(['name', 'start_ns', 'end_ns', 'parent', 'op', 'extra']) + '\n')
            for rec in self.spans:
                fh.write(json.dumps(rec) + '\n')


class TimedOracle:
    """Times the harness-owned classifier apart from the program."""

    def __init__(self, oracle, tracer: Tracer):
        self._oracle = oracle
        self._tracer = tracer

    def predict(self, x):
        with self._tracer.span('ompgd.oracle'):
            return self._oracle.predict(x)

    def loss_grad(self, x, target_label):
        with self._tracer.span('ompgd.oracle'):
            return self._oracle.loss_grad(x, target_label)


def _by_name(spans: list[list]) -> dict:
    groups: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        groups.setdefault(s[0], []).append(i)
    return groups


def _durations_and_self(spans: list[list]) -> tuple[np.ndarray, np.ndarray]:
    """Span durations and self times, in seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly on one thread, so children never overlap.
    """
    dur = np.array([(s[2] - s[1]) * 1e-9 for s in spans])
    child = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    return dur, dur - child


def span_table(spans: list[list]) -> dict:
    """Per span name: calls, total and self seconds, p50 total and self ms."""
    dur, own = _durations_and_self(spans)
    return {name: {'calls': len(idx),
                   'total_s': float(dur[idx].sum()),
                   'self_s': float(own[idx].sum()),
                   'p50_ms': float(np.median(dur[idx]) * 1e3),
                   'self_p50_ms': float(np.median(own[idx]) * 1e3)}
            for name, idx in sorted(_by_name(spans).items())}


def layer_metrics(spans: list[list], stalled: int) -> dict:
    """The per-layer metrics of the benchmark, as ``{name: value}``.

    Durations are medians over calls.  A layer that does not run on a
    workload reports 0.  Set-up spans (op ids starting with ``setup``)
    count toward the set-up layers (generation, fits, projector and SEC
    builds) but not toward the per-operation calls, rows and steps.
    """
    dur, own = _durations_and_self(spans)
    groups = _by_name(spans)
    in_op = {name: [i for i in idx if not str(spans[i][4]).startswith('setup')]
             for name, idx in groups.items()}

    def median(name, scale=1.0, ops_only=False, of=dur):
        idx = (in_op if ops_only else groups).get(name, [])
        return float(np.median(of[idx])) * scale if idx else 0.0

    def peak_mb(name):
        return max((spans[i][5] for i in groups.get(name, [])), default=0) / MIB

    def under(i, name):
        j = spans[i][3]
        while j >= 0 and spans[j][0] != name:
            j = spans[j][3]
        return j >= 0

    row_idx = in_op.get(ROWS_SPAN, [])
    rows = sum(spans[i][5] for i in row_idx)
    rows_self = float(own[row_idx].sum())
    steps = groups.get('ompgd.om_pgd_step', [])
    step_rows = sum(spans[i][5] for i in row_idx if under(i, 'ompgd.om_pgd_step'))
    sample = {spans[i][4] for i in groups.get('ompgd.om_pgd', [])[:STEPS_SAMPLE]}
    sample_steps = sum(1 for i in steps if spans[i][4] in sample)
    saves = groups.get('bundle.save', [])
    return {
        'synth.generate_s': median('synth.generate'),
        'cidm.fit_s': median('cidm.fit'),
        'cidm.knn_scales_s': median('cidm.knn_scales'),
        'cidm.fit_peak_mb': peak_mb('cidm.fit'),
        'sec.build_sec_frame_s': median('sec.build_sec_frame'),
        'sec.build_sec_frame_peak_mb': peak_mb('sec.build_sec_frame'),
        'sec.tangent_frame_at_ms': median('sec.tangent_frame_at', 1e3, ops_only=True),
        'sec.tangent_calls': len(in_op.get('sec.tangent_frame_at', [])),
        'nystrom.project_many_ms': median('nystrom.project_many', 1e3, ops_only=True),
        'nystrom.rows': rows,
        'nystrom.rows_per_s': rows / rows_self if rows_self > 0 else 0.0,
        'nystrom.rows_per_step': step_rows / len(steps) if steps else 0.0,
        'nystrom.build_projector_s': median('nystrom.build_projector'),
        'nystrom.fourier_coefficients_s': median('nystrom.fourier_coefficients'),
        'ompgd.om_pgd_step_ms': median('ompgd.om_pgd_step', 1e3),
        'ompgd.om_pgd_step_self_ms': median('ompgd.om_pgd_step', 1e3, of=own),
        'ompgd.steps_per_attack': sample_steps / len(sample) if sample else 0.0,
        'ompgd.semantic_labels_ms': median('ompgd.semantic_labels', 1e3, ops_only=True),
        'ompgd.oracle_ms': median('ompgd.oracle', 1e3, ops_only=True),
        'ompgd.stalled': stalled,
        'bundle.save_s': median('bundle.save'),
        'bundle.load_s': median('bundle.load'),
        'bundle.bytes': spans[saves[-1]][5] if saves else 0,
    }
