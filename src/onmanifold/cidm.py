"""Conformally invariant diffusion map (CIDM) fitting.

Builds the self-tuning kernel

    K_ij = exp( -delta(x_i, x_j)^2 / epsilon^2 ),
    delta(x, y)^2 = d(x, y)^2 / (scale(x) * scale(y)),

where ``scale`` is the mean distance to the k nearest neighbors,
and extracts the spectrum of the normalized graph Laplacian
``L = I - D^{-1} K`` through the symmetric conjugate
``K_sym = D^{-1/2} K D^{-1/2}``.  Eigenvectors are returned in the
``phi = D^{-1/2} v`` gauge, normalized so that ``phi_0 == 1`` exactly and
the columns are orthonormal under the degree-weighted empirical inner
product implemented by :func:`inner` (see note below).

Normalization note
------------------
Eigenvectors of ``D^{-1} K`` are orthogonal under the degree-weighted
inner product ``<f, g> = sum_i D_ii f_i g_i / sum_i D_ii``, not under the
plain ``(1/N) sum_i f_i g_i``.  Because the kNN rescaling makes the CIDM
degrees asymptotically constant, the two agree in the large-data limit;
we use the degree-weighted form throughout so that orthonormality, the
constant mode ``phi_0 == 1`` and full-spectrum interpolation identities
hold to machine precision on finite data.

The kernel is built here only: ``_knn_scales`` owns the kNN scale of any
rows of squared distances, ``_negated_exponent`` their exponent
(min-shifted by ``_shifted_exponent`` for an out-of-sample row), ``_kept``
which entries are kept, ``_cut_shape`` the kernel values, ``_kernel_csr``
the training kernel of the fit; ``nystrom._row_core`` owns the
out-of-sample row, which it builds from the same functions.

Certified cutoff
----------------
Entries with ``z - zmin > ln N + KERNEL_TAIL`` (``z = delta^2 / eps^2``,
``zmin`` the row's smallest z) are set to exactly 0, in the training
kernel and in the out-of-sample rows alike.  Every row holds an entry
``exp(0) = 1``, and at most N
entries of a row are dropped, each below
``exp(-(ln N + KERNEL_TAIL)) = e^{-32} / N``; so the dropped mass of a row
is below ``e^{-32} ~ 1.3e-14`` of its sum.  The cutoff is written once, in
``_kernel_cut``: a fit computes it once for its training kernel, and a
model once, when it is made, for its out-of-sample rows (with its kernel
eigenvalues ``1 - xi``; see :class:`CidmModel`).  Neither is stored in a
bundle.  Because row support depends on k and the intrinsic dimension
rather than on N, the kernel of a large low-dimensional cloud is mostly
exact zeros (14 % dense on the N=4000, k=24 torus).

Until the eigensolve no N x N array is formed: the scales and the kernel
are computed from row blocks of B = max(1, ``_BLOCK_ENTRIES`` // N)
training rows.  The kernel is symmetric bit for bit (K_ij and K_ji come
from the same squared distance and the same scale product), so it is held
once, as a :class:`_HalfKernel`: its strict upper triangle in CSR form and
its diagonal.  It takes two passes over the blocks: a count pass that
counts the kept entries right of the diagonal, from the distances to the
columns from the block's first row on (half of the distance work), and a
fill pass that computes full block rows, for the degrees, and writes the
kept entries right of the diagonal into CSR arrays allocated once, at
their exact size.  Each pass clears its block's own keep mask in place on
and below the diagonal, so no triangular copy of a block is made.  So the
fit holds O(B N) scratch plus (nnz + N) / 2 of the nnz kept entries.  Each
entry and each degree (the sum of a dense kernel row) is computed with the
same operations in the same order as on the full matrix, so the half
kernel is the upper triangle and diagonal of ``csr_array`` of the dense
one, bit for bit.  ARPACK runs on the half
kernel of ``K_sym``, whose product gives each entry the bits of the full
CSR product (:meth:`_HalfKernel._matvec`), with int32 index arrays while
the entry count fits; small or full-spectrum fits hand dense ``eigh`` only
the lower triangle it reads (:meth:`_HalfKernel.dense_lower`).

Two cores
---------
Where the process may use two CPUs (:func:`_usable_cpus`), the package's
large block loops run on two threads: the caller and one helper thread
per process (:class:`_Helper`), started at its first use and dropped in a
forked child.  The fit's row-block passes (the scales and the diameter,
the kernel's count and fill passes, the ``cidm_dm_normalized`` degrees)
give the caller the even-numbered blocks and the helper the odd-numbered
ones, each with its own scratch (:func:`_blockwise`); each block writes
its own slices, and the diameter is a max of block maxima.  A kernel of
``_PIPELINE_PANELS`` or more row panels runs its ARPACK product as a
two-stage pipeline (:meth:`_HalfKernel.two_cores`): the helper scatters
each panel's transpose, and the caller gathers the panels it has
scattered.  ``nystrom`` builds the two halves of a large batch of
out-of-sample rows on the two threads.  The helper runs only these
private block functions, never one that submits to it again, and every
result keeps the bits it has inline, where a process that may use one
CPU runs everything.
"""

import contextvars
import os
import threading
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from queue import SimpleQueue
from typing import Literal

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from scipy.sparse.linalg import LinearOperator, eigsh, ArpackNoConvergence
from scipy.spatial.distance import cdist

from .errors import (DisconnectedGraphError, DuplicatePointError, EigensolverFailure,
                     InvalidQueryError, _choice, _size)

__all__ = [
    'PointCloud',
    'CidmConfig',
    'CidmModel',
    'knn_scales',
    'fit',
    'inner',
]

KernelVariant = Literal['cidm', 'cidm_dm_normalized']

#: An eigenvalue of L within this distance of 0 counts as a harmonic
#: (constant) mode; more than one of them means a disconnected graph.
ZERO_EIGENVALUE_TOL = 1e-8

#: knn scales at or below this fraction of the data diameter signal
#: coincident points.
DUPLICATE_SCALE_FRAC = 1e-12

#: Exponential kernel entries with z > ln N + KERNEL_TAIL are exactly 0;
#: the dropped mass of a row is then below e^{-KERNEL_TAIL} of its sum.
KERNEL_TAIL = 32.0

#: Distances at or above this overflow when squared.
MAX_DISTANCE = np.sqrt(np.finfo(np.float64).max)

#: Modes with |lambda| below this cutoff cannot be Nystrom-extended.
SMALL_LAMBDA = 1e-10

#: Entries in one row block of the training distances and kernel (a block
#: holds at least one row); the fit holds one block plus the kept kernel
#: entries instead of O(N^2).
_BLOCK_ENTRIES = 2 ** 16

#: A half kernel of at least this many row panels runs its ARPACK products
#: on two threads (:meth:`_HalfKernel.two_cores`), when the process may use
#: two CPUs; a smaller one runs them inline.
_PIPELINE_PANELS = 6


@dataclass(frozen=True)
class PointCloud:
    """N points in n-dimensional input space, one point per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError('points must be a 2D array (N, n)')
        if pts.shape[0] < 2 or pts.shape[1] < 1:
            raise ValueError('need at least 2 points of dimension >= 1')
        if not np.all(np.isfinite(pts)):
            raise ValueError('points must be finite')
        object.__setattr__(self, 'points', pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_csv(cls, path) -> 'PointCloud':
        """Read a headerless CSV, one point per row, '.' decimal floats."""
        pts = np.loadtxt(path, delimiter=',', dtype=np.float64, ndmin=2)
        return cls(pts)


@dataclass(frozen=True)
class CidmConfig:
    """Kernel and eigensolver settings for a CIDM fit.

    The kernel is exp(-delta^2 / epsilon^2), with the kNN scale the mean of
    the distances to the ``k_nn`` nearest neighbors.  ``k_nn`` and
    ``n_eigs`` must be integers (a numpy integer is stored as an ``int``,
    a ``bool`` is refused).
    """

    k_nn: int
    n_eigs: int
    epsilon: float = 1.0
    kernel_variant: KernelVariant = 'cidm'

    def __post_init__(self):
        for name in ('k_nn', 'n_eigs'):
            object.__setattr__(self, name, _size(name, getattr(self, name), 1))
        # a float product rounds to inf or 0 where ``**`` raises OverflowError
        eps2 = float(self.epsilon) * float(self.epsilon)
        if not (self.epsilon > 0 and 0.0 < eps2 < np.inf):
            raise ValueError(f'epsilon must be positive with a finite, nonzero square, '
                             f'got {self.epsilon!r}')
        _choice('kernel_variant', self.kernel_variant, KernelVariant)


@dataclass(frozen=True)
class CidmModel:
    """Fitted CIDM kernel state.

    ``eig_xi`` holds the Laplacian eigenvalues ``xi = 1 - lambda`` in
    nondecreasing order; ``eig_phi`` the matching eigenvectors of
    ``D^{-1} K`` (columns), with ``phi_0 == 1``.  ``degree`` is the degree
    vector of the kernel the spectrum was computed from; for the
    diffusion-maps-normalized variant ``raw_degree`` additionally keeps
    the pre-normalization CIDM degrees needed by out-of-sample kernel
    rows.

    Construction (a fit, a bundle load, ``dataclasses.replace``) refuses
    arrays whose shapes disagree with ``points`` or with each other, with a
    ValueError naming both arrays and their shapes.  It derives what every
    out-of-sample row reads from these fields: the read-only kernel
    eigenvalues ``_lambdas = 1 - eig_xi``, the count ``_n_extendable`` of
    leading modes with ``|lambda| >= SMALL_LAMBDA``, and the cutoff
    ``_cut`` (:func:`_kernel_cut`).  They are not stored in a bundle.
    ``eig_phi`` is held in Fortran order, as the eigensolvers give it, so a
    copy in another layout gives the same bits in every product with it.
    """

    training: PointCloud
    config: CidmConfig
    knn_scale: np.ndarray
    degree: np.ndarray
    eig_xi: np.ndarray
    eig_phi: np.ndarray
    data_diameter: float
    raw_degree: np.ndarray | None = None

    def __post_init__(self):
        pts = self.training.points.shape
        for name in ('knn_scale', 'degree', 'raw_degree'):
            arr = getattr(self, name)
            if arr is not None and np.shape(arr) != pts[:1]:
                raise ValueError(f'{name} has shape {np.shape(arr)}, but points has shape '
                                 f'{pts}: {name} needs one entry per point')
        xi, phi = np.shape(self.eig_xi), np.shape(self.eig_phi)
        if not (len(xi) == 1 and xi[0] >= 1 and phi == (pts[0], xi[0])):
            raise ValueError(f'eig_xi has shape {xi} and eig_phi has shape {phi}, but points '
                             f'has shape {pts}: they need shapes (L,) and ({pts[0]}, L)')
        if not 0.0 < self.data_diameter < np.inf:
            raise ValueError(f'data_diameter must be finite and > 0, got {self.data_diameter!r}')
        _size('k_nn', self.config.k_nn, 1, pts[0] - 1)
        if self.config.kernel_variant == 'cidm_dm_normalized' and self.raw_degree is None:
            raise ValueError('the cidm_dm_normalized variant needs raw_degree')
        object.__setattr__(self, 'eig_phi', np.asfortranarray(self.eig_phi))
        lam = 1.0 - self.eig_xi
        lam.flags.writeable = False
        small = np.abs(lam) < SMALL_LAMBDA
        object.__setattr__(self, '_lambdas', lam)
        object.__setattr__(self, '_n_extendable',
                           int(np.argmax(small)) if small.any() else lam.shape[0])
        object.__setattr__(self, '_cut', _kernel_cut(self.n_points))

    @property
    def n_points(self) -> int:
        return self.training.n_points

    @property
    def n_eigs(self) -> int:
        return self.eig_xi.shape[0]

    @property
    def inner_weights(self) -> np.ndarray:
        """Weights w_i of the empirical inner product sum_i w_i f_i g_i (sum to 1)."""
        return self.degree / self.degree.sum()


def inner(model: CidmModel, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Empirical inner product under which ``eig_phi`` is orthonormal.

    Accepts vectors or (N, m) column stacks; contracts over the sample axis.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    w = model.inner_weights
    wf = f * (w[:, None] if f.ndim == 2 else w)
    return np.tensordot(wf, g, axes=(0, 0))


def knn_scales(points: PointCloud, k_nn: int) -> np.ndarray:
    """Per-point kNN distance scale.

    Entry i is the mean of the Euclidean distances from ``x_i`` to its
    ``k_nn`` nearest distinct-index neighbors; these are the scales
    :func:`fit` uses.

    Raises
    ------
    DuplicatePointError
        If any scale is <= 1e-12 times the maximum pairwise distance.
    """
    return _training_scales(points.points, k_nn)[0]


def _row_blocks(n_points: int):
    """Bounds ``(a, b)`` of consecutive row blocks of an N x N array, each
    holding at most ``_BLOCK_ENTRIES`` entries (and at least one row)."""
    step = max(1, _BLOCK_ENTRIES // n_points)
    for a in range(0, n_points, step):
        yield a, min(a + step, n_points)


def _knn_scales(d2: np.ndarray, k_nn: int) -> np.ndarray:
    """Mean of the k smallest distances per row, from the squared
    distances ``d2``, summed in ascending order.

    Only the k nearest squared distances get their square root; ``sqrt`` is
    monotone and correctly rounded, so this gives the bits of partitioning
    the distances themselves.  Excluded entries are inf; a row with fewer
    than k finite entries gets scale inf.  Reorders ``d2`` in place; the
    result is a new array, so ``d2`` may be reused afterwards."""
    d2.partition(k_nn - 1, axis=1)
    nearest = np.sqrt(d2[:, :k_nn])
    nearest.sort(axis=1)
    return nearest.sum(axis=1) / k_nn


def _training_row_scales(pts: np.ndarray, rows: np.ndarray, k_nn: int):
    """kNN scales of the training points ``rows`` (self excluded), and the
    largest squared distance from them to any training point."""
    d2 = cdist(pts[rows], pts, 'sqeuclidean')
    max_d2 = float(d2.max())
    # only the self-distance is excluded: a coincident pair keeps its zero
    d2[np.arange(len(rows)), rows] = np.inf
    return _knn_scales(d2, k_nn), max_d2


def _training_scales(pts: np.ndarray, k_nn: int):
    """kNN scales of the training points (self excluded) and the data
    diameter, from one row block of squared distances at a time
    (:func:`_blockwise`); the diameter is the square root of the largest
    one."""
    N = pts.shape[0]
    k_nn = _size('k_nn', k_nn, 1, N - 1)
    scales = np.empty(N)

    def scan(blocks) -> float:
        max_d2 = 0.0
        for a, b in blocks:
            scales[a:b], block_max = _training_row_scales(pts, np.arange(a, b), k_nn)
            max_d2 = max(max_d2, block_max)
        return max_d2

    diameter = float(np.sqrt(max(_blockwise(scan, list(_row_blocks(N))))))
    if not diameter < MAX_DISTANCE:
        raise ValueError(f'training distances overflow when squared: the data diameter '
                         f'{diameter:.3e} is not below {MAX_DISTANCE:.3e}; rescale the points')
    if np.any(scales <= DUPLICATE_SCALE_FRAC * max(diameter, np.finfo(float).tiny)):
        bad = int(np.argmin(scales))
        raise DuplicatePointError(
            f'point {bad} has kNN scale {scales[bad]:.3e}; '
            'coincident training points make the rescaled distance undefined')
    return scales, diameter


def _kernel_cut(n_points: int) -> float:
    """The certified cutoff ln N + ``KERNEL_TAIL`` of an N-point kernel."""
    return np.log(n_points) + KERNEL_TAIL


def _negated_exponent(d2: np.ndarray, row_scales: np.ndarray, col_scales: np.ndarray,
                      epsilon: float, scratch: np.ndarray) -> np.ndarray:
    """``s = -z`` in place of ``d2``, with z = d2 / (row_scale * col_scale) /
    epsilon^2 and the scale products in ``scratch``.  ``x / (-a * b)`` is
    ``-(x / (a * b))`` bit for bit, so the negation costs no pass.

    The products are the column scales, filled in, times the negated row
    scales: the bits of the outer product, but one broadcast operand, so
    below about 2700 columns numpy buffers half of what ``multiply.outer``
    buffers (60 against 120 KiB a call), which two threads may hold at once."""
    scratch[...] = col_scales
    scratch *= -row_scales[:, None]
    d2 /= scratch
    eps2 = epsilon ** 2
    if eps2 != 1.0:
        with np.errstate(over='ignore'):        # an infinite z is a cut entry
            d2 /= eps2
    return d2


def _shifted_exponent(d2: np.ndarray, row_scales: np.ndarray, col_scales: np.ndarray,
                      epsilon: float, scratch: np.ndarray) -> np.ndarray:
    """:func:`_negated_exponent` shifted by each row's largest entry,
    ``s = zmin - z``, which keeps a row finite far from the data; a training
    point's zmin is its self entry 0, so its row has the fit's bits.  A row
    with no finite z raises :class:`InvalidQueryError` naming it."""
    s = _negated_exponent(d2, row_scales, col_scales, epsilon, scratch)
    smax = s.max(axis=1, keepdims=True)
    if not smax.min(initial=np.inf) > -np.inf:          # -inf or NaN
        bad = int(np.argmin(smax[:, 0] > -np.inf))
        raise InvalidQueryError(f'query row {bad}: its smallest kernel exponent '
                                f'delta^2/epsilon^2 is not finite at epsilon={epsilon!r}')
    s -= smax                                   # -z + zmin is zmin - z bit for bit
    return s


def _kept(s: np.ndarray, cut: float) -> np.ndarray:
    """Mask of the kernel entries that are kept, from the negated exponent
    ``s`` (:func:`_negated_exponent`): s >= -``cut``, the certified cutoff
    (:func:`_kernel_cut`).

    The kept entries are exactly the nonzero ones: a kept value is at
    least ``exp(-cut) > 0``.
    """
    return s >= -cut


def _cut_shape(s: np.ndarray, cut: float, keep: np.ndarray | None = None) -> np.ndarray:
    """Kernel values exp(s) with the certified cutoff ``cut``
    (:func:`_kernel_cut`), from the negated exponent ``s``
    (:func:`_negated_exponent`).  ``keep`` is the mask :func:`_kept`
    of ``s``, computed here when not given; entries outside it are exactly
    0.  Entries are clamped to -``cut`` before the ``exp``, which keeps it
    off its slow subnormal and underflow inputs (s below about -708); the
    kept entries see the same input, so the values do not change.  The cut
    entries are then zeroed by multiplying with the 0/1 mask, which does
    not branch on the (random) cut pattern as a masked store does; a kept
    value is finite, so times 1 it is exact, and a NaN stays NaN.
    Overwrites ``s`` with the result.
    """
    if keep is None:
        keep = _kept(s, cut)
    np.maximum(s, -cut, out=s)
    np.exp(s, out=s)
    np.multiply(s, keep, out=s)
    return s


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, 'sched_getaffinity'):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Helper:
    """One thread, ``onmanifold-helper``, that runs the calls handed to
    :meth:`submit` one at a time, in order.

    A call runs in a copy of the submitting thread's context, so an
    ``np.errstate`` in force there applies to it as it would inline.  Its
    error is raised where its ``Future`` is read.  The thread is a daemon
    that idles between calls; the process keeps one (:func:`_helper`).
    """

    def __init__(self):
        self._calls = SimpleQueue()
        self.thread = threading.Thread(target=self._serve, name='onmanifold-helper',
                                       daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            job, run, fn, args = self._calls.get()
            try:
                job.set_result(run(fn, *args))
            except BaseException as exc:        # raised by the reader of the job
                job.set_exception(exc)

    def submit(self, fn, *args) -> Future:
        """Queue ``fn(*args)``; the returned ``Future`` holds its result."""
        job = Future()
        self._calls.put((job, contextvars.copy_context().run, fn, args))
        return job


#: The process's helper and the lock that guards its start; a forked child
#: drops both, because the parent's thread does not exist there.
_HELPER: _Helper | None = None
_HELPER_LOCK = threading.Lock()


def _drop_helper() -> None:
    global _HELPER, _HELPER_LOCK
    _HELPER, _HELPER_LOCK = None, threading.Lock()


if hasattr(os, 'register_at_fork'):
    os.register_at_fork(after_in_child=_drop_helper)


def _helper() -> _Helper | None:
    """The process's helper thread, started at the first call; None where
    the work runs inline: in a process that may use one CPU only, and on
    the helper itself, which must never wait for its own queue."""
    global _HELPER
    if _usable_cpus() < 2:
        return None
    with _HELPER_LOCK:
        if _HELPER is None:
            _HELPER = _Helper()
        helper = _HELPER
    return None if threading.current_thread() is helper.thread else helper


def _both(helper: _Helper, work, mine, theirs) -> tuple:
    """``(work(mine), work(theirs))``, the second on ``helper`` while the
    caller runs the first.  Both have finished when this returns or raises,
    since each may write into arrays the caller reads; the caller's error
    is raised first, then the helper's."""
    job = helper.submit(work, theirs)
    try:
        ours = work(mine)
    except BaseException:
        job.exception()
        raise
    return ours, job.result()


def _blockwise(work, blocks: list) -> list:
    """The results of ``work`` on a list of row blocks: ``[work(blocks)]``
    inline, or, with a helper (:func:`_helper`) and at least two blocks,
    ``work`` of the even-numbered blocks on the caller and of the
    odd-numbered ones on the helper.  ``work`` allocates its own scratch
    and writes only its blocks' slices, so the result has the same bits
    either way."""
    helper = _helper() if len(blocks) > 1 else None
    if helper is None:
        return [work(blocks)]
    return list(_both(helper, work, blocks[0::2], blocks[1::2]))


class _HalfKernel(LinearOperator):
    """A symmetric N x N kernel held once: ``upper``, its strict upper
    triangle (CSR), and ``diag``, its diagonal.

    ARPACK reads its product, that of ``csr_array`` of the full matrix bit
    for bit (:meth:`_matvec`), which walks ``upper`` in row panels of at most
    ``_BLOCK_ENTRIES`` stored entries; inside :meth:`two_cores` it may run
    the panels' scatter on a helper thread and their gather on the caller,
    with the same bits.  ``eigh`` reads :meth:`dense_lower`.
    """

    def __init__(self, upper: csr_array, diag: np.ndarray):
        super().__init__(np.float64, upper.shape)
        self.upper, self.diag = upper, diag
        # row panels of at most _BLOCK_ENTRIES stored entries (and at least one row)
        indptr, bounds = upper.indptr, [0]
        while bounds[-1] < upper.shape[0]:
            a = bounds[-1]
            b = int(np.searchsorted(indptr, int(indptr[a]) + _BLOCK_ENTRIES, side='right')) - 1
            bounds.append(max(b, a + 1))
        self._panels = list(zip(bounds[:-1], bounds[1:]))
        self._helper = None             # the helper that scatters, inside two_cores()

    @contextmanager
    def two_cores(self):
        """Run :meth:`_matvec` as a two-stage pipeline inside this block when
        it pays: the process's helper thread (:func:`_helper`) scatters, the
        caller gathers.  Each product waits for its scatter before it
        returns or raises, so nothing of it runs past the block.  The
        product stays inline (one thread) for a kernel of fewer than
        ``_PIPELINE_PANELS`` panels, whose hand-offs cost more than the
        overlap saves, and in a process that may run on one CPU only.
        Either way it has the same bits."""
        self._helper = _helper() if len(self._panels) >= _PIPELINE_PANELS else None
        try:
            yield
        finally:
            self._helper = None

    def _matvec(self, x):
        """``K @ x``, one row panel [a, b) of ``upper`` at a time: the panel's
        transpose scatters into y, then rows a..b-1 add their diagonal
        product and gather their upper entries.  So each y_i adds the
        products of its row in ascending column order, starting from 0, as
        the full CSR product does, and the second read of a panel comes from
        cache.  ``diag * x`` is formed once; each panel adds its slice.

        Inside :meth:`two_cores` the two passes run on two threads: the
        helper scatters the panels in order (:meth:`_scatter`), and the
        caller gathers panel p once the helper has scattered it.  The bits
        do not change: when panel p is gathered, every panel up to p has
        been scattered, and a later panel's scatter writes only y_c with c
        at or past p's end, never the rows being gathered.  The scatter
        streams the panel from memory, the gather is one chain of dependent
        additions per row (1.15 and 0.85 ms of a 2.1 ms product inside
        ``eigsh`` on the N=4000 torus), so the two overlap: ``eigsh`` on
        that torus ran 1.36 s against 1.67 s inline (2-core x86_64, one
        BLAS thread).

        The in-place kernels are scipy's private ``_sparsetools``: the public
        ``@`` starts each product from a new zero vector, so the lower and
        upper partial sums would be added afterwards and round differently.
        ``tests/test_cidm.py`` checks the bits against the full product, in
        both modes.

        Why panels: one product over all rows has the same bits and made
        ``eigsh`` 0.95-0.99x as long on the N=4000 torus, but on an N=20000
        torus (a 54 MiB half kernel) took 1.08-1.21x as long per product
        (14.3 against 11.8 ms; 12/12 rounds slower in each of two probes).
        One BLAS thread, 2-core x86_64.
        """
        x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
        N = x.shape[0]
        S, helper = self.upper, self._helper
        y = np.zeros(N)
        dx = self.diag * x
        if helper is not None:
            scattered = SimpleQueue()
            job = helper.submit(self._scatter, x, y, scattered)
        try:
            for a, b in self._panels:
                if helper is None:
                    self._scatter_panel(a, b, x, y)
                elif not scattered.get():
                    job.result()                # raises the helper's error
                y[a:b] += dx[a:b]
                csr_matvec(b - a, N, S.indptr[a:b + 1], S.indices, S.data, x, y[a:b])
        except BaseException:
            if helper is not None:
                job.exception()                 # the scatter writes y until it ends
            raise
        if helper is not None:
            job.result()
        return y

    def _scatter_panel(self, a: int, b: int, x: np.ndarray, y: np.ndarray) -> None:
        """``y += S[a:b].T @ x[a:b]``, in place: writes y_c for c > a only."""
        S = self.upper
        csc_matvec(x.shape[0], b - a, S.indptr[a:b + 1], S.indices, S.data, x[a:b], y)

    def _scatter(self, x: np.ndarray, y: np.ndarray, scattered: SimpleQueue) -> None:
        """The helper's stage: scatter the panels in order, putting True on
        ``scattered`` after each one, or False before raising an error, so
        the caller never waits for a panel that will not come."""
        try:
            for a, b in self._panels:
                self._scatter_panel(a, b, x, y)
                scattered.put(True)
        except BaseException:
            scattered.put(False)
            raise

    def dense_lower(self) -> np.ndarray:
        """The dense lower triangle and diagonal (0 above), in Fortran order:
        all ``eigh(..., lower=True)`` reads, so it gives the full matrix's bits."""
        K = self.upper.T.toarray()
        np.fill_diagonal(K, self.diag)
        return K


def _kernel_csr(pts: np.ndarray, scales: np.ndarray, config: CidmConfig):
    """Training kernel as a :class:`_HalfKernel`, its degree vector, and the
    raw CIDM degrees.

    Two passes over the row blocks.  The count pass computes each block's
    exponent (:func:`_negated_exponent`) to the columns from the block's
    first row on, clears the keep mask (:func:`_kept`) in place on and
    below the diagonal of the block's square, and counts the rest into
    ``indptr``.  ``data`` and ``indices`` are then allocated once, at their
    exact size, and the fill pass computes each full block row, for the
    raw degree, and writes its diagonal and its kept values and columns
    right of the diagonal straight into their slices: once the kernel
    values, the row sum and the diagonal have read the mask, it is cleared
    in the same way, and the kept entries are found in the columns from
    the block's first row on.  So the kernel's entries are held once,
    never in per-block pieces and a joined copy, which would double the
    build's peak.
    Every degree is the sum of a dense kernel row, and the kept entries are
    the nonzero ones, so the result is the upper triangle and diagonal of
    ``csr_array`` of the dense kernel, bit for bit.  The index arrays are
    int32 while the entry count fits (int64 beyond), so a sparse product
    streams 12 bytes per entry rather than 16.  The
    ``cidm_dm_normalized`` degrees are the row sums of the divided kernel,
    from a third pass that recomputes each dense block row.  Each pass may
    run on two threads (:func:`_blockwise`), each walk with its own scratch;
    a block writes only its own rows of ``indptr``, the degrees and the
    diagonal, and its own slices of ``data`` and ``indices``.
    """
    N = pts.shape[0]
    cut = _kernel_cut(N)
    blocks = list(_row_blocks(N))
    rows = blocks[0][1]                          # the first block is the largest

    def exponents(part: list, upper: bool):
        """Each block of ``part``, its bounds, exponent and scratch: to the
        columns from the block's first row on if ``upper``, else to every
        column.  The walk holds two buffers of its own, one for the squared
        distances and exponents and one for the scale products, and reuses
        them for each block, so a block is read before the next is made; the
        scratch is free after the exponent."""
        d2, scratch = np.empty((2, rows * N))
        for a, b in part:
            c = a if upper else 0
            shape, size = (b - a, N - c), (b - a) * (N - c)
            s = cdist(pts[a:b], pts[c:], 'sqeuclidean', out=d2[:size].reshape(shape))
            products = scratch[:size].reshape(shape)
            yield a, b, _negated_exponent(s, scales[a:b], scales[c:], config.epsilon,
                                          products), products

    # the entries right of the diagonal in a block's square: its first n x n
    # corner serves a last block of n rows
    right = ~np.tri(rows, dtype=bool)
    indptr = np.zeros(N + 1, dtype=np.int64)

    def count(part: list) -> None:
        for a, b, s, _ in exponents(part, upper=True):
            keep = _kept(s, cut)
            keep[:, :b - a] &= right[:b - a, :b - a]
            indptr[a + 1:b + 1] = np.count_nonzero(keep, axis=1)

    _blockwise(count, blocks)
    np.cumsum(indptr, out=indptr)
    index_dtype = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=index_dtype)
    diag = np.empty(N)
    raw_degree = np.empty(N)

    def fill(part: list) -> None:
        for a, b, s, _ in exponents(part, upper=False):
            keep = _kept(s, cut)
            K = _cut_shape(s, cut, keep)
            raw_degree[a:b] = K.sum(axis=1)
            diag[a:b] = np.diagonal(K, a)
            # the mask has been read: clear it on and below the square's
            # diagonal, and read it from column a on
            keep[:, a:b] &= right[:b - a, :b - a]
            lo, hi = indptr[a], indptr[b]
            counts = np.diff(indptr[a:b + 1])
            # entry (r, c) has flat index r (N - a) + c - a in the columns
            # from a on, and r N + c in the block: add a (r + 1)
            kept = np.flatnonzero(keep[:, a:])
            kept += np.repeat(a * np.arange(1, b - a + 1), counts)
            data[lo:hi] = K.ravel()[kept]
            # column: flat index in the block minus the start of its row
            kept -= np.repeat(np.arange(0, (b - a) * N, N), counts)
            indices[lo:hi] = kept

    _blockwise(fill, blocks)
    K = _HalfKernel(csr_array((data, indices, indptr.astype(index_dtype)), shape=(N, N)), diag)
    if config.kernel_variant == 'cidm_dm_normalized':
        _divide_entries(K, raw_degree, root=False)
        degree = np.empty(N)

        def divided_degrees(part: list) -> None:
            for a, b, s, scratch in exponents(part, upper=False):
                block = _cut_shape(s, cut)
                block /= np.multiply.outer(raw_degree[a:b], raw_degree, out=scratch)
                degree[a:b] = block.sum(axis=1)

        _blockwise(divided_degrees, blocks)
        return K, degree, raw_degree
    return K, raw_degree, None


def _divide_entries(K: _HalfKernel, d: np.ndarray, root: bool) -> None:
    """``K_ij /= d_i d_j`` (``sqrt(d_i d_j)`` if ``root``) on the stored
    entries of the half kernel, in place, one row block of its upper
    triangle at a time, and then on its diagonal."""
    S = K.upper
    indptr = S.indptr
    for a, b in _row_blocks(S.shape[0]):
        lo, hi = indptr[a], indptr[b]
        den = np.repeat(d[a:b], np.diff(indptr[a:b + 1])) * d[S.indices[lo:hi]]
        if root:
            np.sqrt(den, out=den)
        S.data[lo:hi] /= den
    den = d * d
    if root:
        np.sqrt(den, out=den)
    K.diag /= den


def _sign_gauge(columns: np.ndarray) -> np.ndarray:
    """``columns`` with each column's largest-magnitude entry (the first on
    ties) made positive; a zero column is kept as it is."""
    anchor = np.argmax(np.abs(columns), axis=0)
    signs = np.sign(columns[anchor, np.arange(columns.shape[1])])
    signs[signs == 0] = 1.0
    return columns * signs


def _uses_arpack(n_points: int, n_eigs: int) -> bool:
    """A few pairs of a large kernel go to ARPACK, the rest to dense ``eigh``."""
    return n_eigs <= n_points // 4 and n_points > 800


def _top_eigenpairs(K_sym, n_eigs: int):
    """Largest ``n_eigs`` eigenpairs of a symmetric matrix, descending.

    ``K_sym`` is a :class:`_HalfKernel`, which goes to ARPACK (its product
    has the bits of the full CSR product), or a dense lower triangle
    (:meth:`_HalfKernel.dense_lower`), which goes to ``eigh`` with
    ``lower=True``; :func:`fit` chooses which (:func:`_uses_arpack`).
    ARPACK runs inside :meth:`_HalfKernel.two_cores`, so its products may
    use one helper thread, which calls no BLAS; the helper is joined before
    this returns or raises, and an error in it is raised from here.
    """
    N = K_sym.shape[0]
    try:
        if isinstance(K_sym, _HalfKernel):
            # deterministic Lanczos start so repeated fits are bit-identical
            v0 = np.full(N, 1.0 / np.sqrt(N))
            with K_sym.two_cores():
                lam, V = eigsh(K_sym, k=n_eigs, which='LA', v0=v0)
        else:
            lam, V = eigh(K_sym, lower=True, subset_by_index=[N - n_eigs, N - 1])
    except (np.linalg.LinAlgError, ArpackNoConvergence) as exc:
        raise EigensolverFailure(f'eigensolver failed for {n_eigs} pairs: {exc}') from exc
    if lam.shape[0] < n_eigs:
        raise EigensolverFailure(f'only {lam.shape[0]} of {n_eigs} eigenpairs converged')
    order = np.argsort(lam)[::-1]
    return lam[order], V[:, order]


def fit(points: PointCloud, config: CidmConfig) -> CidmModel:
    """Fit the CIDM kernel and Laplace-Beltrami eigenbasis.

    Parameters
    ----------
    points:
        Training cloud, one point per row.
    config:
        Kernel settings; ``config.n_eigs`` eigenpairs are extracted, at
        most one per point (refused before the kernel is built).

    Returns
    -------
    CidmModel
        Immutable fitted state, safe to share across threads.

    Raises
    ------
    DuplicatePointError
        Propagated from the kNN scales of coincident points.
    EigensolverFailure
        If the requested eigenpairs did not converge.
    DisconnectedGraphError
        If more than one eigenvalue of L is numerically zero.
    """
    if isinstance(points, np.ndarray):
        points = PointCloud(points)
    n_eigs = _size('n_eigs', config.n_eigs, 1, points.n_points)
    scales, diameter = _training_scales(points.points, config.k_nn)
    # each row keeps its own entry exp(0) = 1, so every degree is positive
    K, degree, raw_degree = _kernel_csr(points.points, scales, config)
    _divide_entries(K, degree, root=True)           # K_sym, in place of K
    if not _uses_arpack(points.n_points, n_eigs):
        K = K.dense_lower()                         # the half kernel is freed here
    lam, V = _top_eigenpairs(K, n_eigs)

    xi = 1.0 - lam
    n_zero = int(np.sum(np.abs(xi) <= ZERO_EIGENVALUE_TOL))
    if n_zero > 1:
        raise DisconnectedGraphError(
            f'{n_zero} eigenvalues within {ZERO_EIGENVALUE_TOL:g} of zero: the kernel '
            f'graph has numerically disconnected components (epsilon={config.epsilon!r}, '
            f'k_nn={config.k_nn}; a larger epsilon or k_nn connects more points)')

    # phi = D^{-1/2} v, rescaled to unit norm under the degree-weighted
    # inner product; the orthonormal V makes the factor sqrt(sum(D)) global.
    phi = np.sqrt(degree.sum()) * (V / np.sqrt(degree)[:, None])
    phi = _sign_gauge(phi)
    # the Markov property D^{-1} K 1 = 1 is exact; pin the harmonic pair
    # and keep roundoff inside the Perron bounds
    xi = np.clip(xi, 0.0, 2.0)
    xi[0] = 0.0
    phi[:, 0] = 1.0

    return CidmModel(
        training=points,
        config=config,
        knn_scale=scales,
        degree=degree,
        eig_xi=xi,
        eig_phi=phi,
        data_diameter=diameter,
        raw_degree=raw_degree,
    )
