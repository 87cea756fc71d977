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
training rows.  The kernel takes two passes over the blocks: a count pass
that counts each row's kept entries, and a fill pass that writes them
into CSR arrays allocated once, at their exact size.  So the fit holds
O(B N) scratch plus the nnz kept entries, once.  Each entry and each
degree (the sum of a dense kernel row) is computed with the same
operations in the same order as on the full matrix, so the CSR kernel
equals ``csr_array`` of the dense one bit for bit.  ARPACK runs on the
CSR form of ``K_sym``, with int32 index arrays while the entry count
fits; only small or full-spectrum fits hand dense ``eigh`` its
``toarray()``.
"""

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_array
from scipy.sparse.linalg import eigsh, ArpackNoConvergence
from scipy.spatial.distance import cdist

from .errors import (DisconnectedGraphError, DuplicatePointError, EigensolverFailure,
                     InvalidQueryError)

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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f'{name} must be an integer, got {value!r}')
            object.__setattr__(self, name, int(value))
        if self.k_nn < 1:
            raise ValueError('k_nn must be >= 1')
        if self.n_eigs < 1:
            raise ValueError('n_eigs must be >= 1')
        # a float product rounds to inf or 0 where ``**`` raises OverflowError
        eps2 = float(self.epsilon) * float(self.epsilon)
        if not (self.epsilon > 0 and 0.0 < eps2 < np.inf):
            raise ValueError(f'epsilon must be positive with a finite, nonzero square, '
                             f'got {self.epsilon!r}')
        if self.kernel_variant not in ('cidm', 'cidm_dm_normalized'):
            raise ValueError(f'unknown kernel_variant {self.kernel_variant!r}')


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
        if not 1 <= self.config.k_nn <= pts[0] - 1:
            raise ValueError(f'k_nn must be in [1, {pts[0] - 1}] for N={pts[0]} training '
                             f'points, got {self.config.k_nn}')
        if self.config.kernel_variant == 'cidm_dm_normalized' and self.raw_degree is None:
            raise ValueError('the cidm_dm_normalized variant needs raw_degree')
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
    diameter, from one row block of squared distances at a time; the
    diameter is the square root of the largest one."""
    N = pts.shape[0]
    if not 1 <= k_nn <= N - 1:
        raise ValueError(f'k_nn must be in [1, {N - 1}], got {k_nn}')
    scales = np.empty(N)
    max_d2 = 0.0
    for a, b in _row_blocks(N):
        scales[a:b], block_max = _training_row_scales(pts, np.arange(a, b), k_nn)
        max_d2 = max(max_d2, block_max)
    diameter = float(np.sqrt(max_d2))
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
    ``-(x / (a * b))`` bit for bit, so the negation costs no pass."""
    d2 /= np.multiply.outer(-row_scales, col_scales, out=scratch)
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


def _kernel_csr(pts: np.ndarray, scales: np.ndarray, config: CidmConfig):
    """CSR training kernel, its degree vector, and the raw CIDM degrees.

    Two passes over the row blocks.  The count pass computes each block's
    exponent (:func:`_negated_exponent`) and counts the kept entries of each
    row into ``indptr``.  ``data`` and ``indices`` are then allocated once,
    at their exact size, and the fill pass recomputes each block and writes
    its kept values and columns straight into their slices; so the kernel's
    entries are held once, never in per-block pieces and a joined copy.
    Every degree is the sum of a dense kernel row, and the kept entries are
    the nonzero ones, so the result is ``csr_array`` of the dense kernel,
    bit for bit.  The index arrays are int32 while the entry count fits
    (int64 beyond), so a sparse product streams 12 bytes per entry rather
    than 16.
    """
    N = pts.shape[0]
    cut = _kernel_cut(N)
    blocks = list(_row_blocks(N))
    scratch = np.empty((blocks[0][1], N))       # the first block is the largest

    indptr = np.zeros(N + 1, dtype=np.int64)
    for a, b in blocks:
        s = _negated_exponent(cdist(pts[a:b], pts, 'sqeuclidean'), scales[a:b], scales,
                              config.epsilon, scratch[:b - a])
        indptr[a + 1:b + 1] = np.count_nonzero(_kept(s, cut), axis=1)
    np.cumsum(indptr, out=indptr)
    index_dtype = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=index_dtype)
    raw_degree = np.empty(N)
    for a, b in blocks:
        s = _negated_exponent(cdist(pts[a:b], pts, 'sqeuclidean'), scales[a:b], scales,
                              config.epsilon, scratch[:b - a])
        keep = _kept(s, cut)
        K = _cut_shape(s, cut, keep)
        raw_degree[a:b] = K.sum(axis=1)
        lo, hi = indptr[a], indptr[b]
        kept = np.flatnonzero(keep)
        data[lo:hi] = K.ravel()[kept]
        # column = flat index in the block minus the start of its row
        kept -= np.repeat(np.arange(0, (b - a) * N, N), np.diff(indptr[a:b + 1]))
        indices[lo:hi] = kept
    K = csr_array((data, indices, indptr.astype(index_dtype)), shape=(N, N))
    if config.kernel_variant == 'cidm_dm_normalized':
        _divide_entries(K, raw_degree, root=False)
        degree = np.empty(N)
        for a, b in blocks:
            degree[a:b] = K[a:b].toarray().sum(axis=1)
        return K, degree, raw_degree
    return K, raw_degree, None


def _divide_entries(K: csr_array, d: np.ndarray, root: bool) -> None:
    """``K_ij /= d_i d_j`` (``sqrt(d_i d_j)`` if ``root``) on the stored
    entries, in place, one row block at a time."""
    indptr = K.indptr
    for a, b in _row_blocks(K.shape[0]):
        lo, hi = indptr[a], indptr[b]
        den = np.repeat(d[a:b], np.diff(indptr[a:b + 1])) * d[K.indices[lo:hi]]
        if root:
            np.sqrt(den, out=den)
        K.data[lo:hi] /= den


def _uses_arpack(n_points: int, n_eigs: int) -> bool:
    """A few pairs of a large kernel go to ARPACK, the rest to dense ``eigh``."""
    return n_eigs <= n_points // 4 and n_points > 800


def _top_eigenpairs(K_sym, n_eigs: int):
    """Largest ``n_eigs`` eigenpairs of a symmetric matrix, descending.

    ``K_sym`` is a dense array, or its CSR form where :func:`_uses_arpack`
    holds; ARPACK always runs on the CSR form.
    """
    N = K_sym.shape[0]
    if n_eigs > N:
        raise ValueError(f'n_eigs={n_eigs} exceeds the number of points {N}')
    try:
        if _uses_arpack(N, n_eigs):
            # deterministic Lanczos start so repeated fits are bit-identical
            v0 = np.full(N, 1.0 / np.sqrt(N))
            lam, V = eigsh(csr_array(K_sym), k=n_eigs, which='LA', v0=v0)
        else:
            lam, V = eigh(K_sym, subset_by_index=[N - n_eigs, N - 1])
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
        Kernel settings; ``config.n_eigs`` eigenpairs are extracted.

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
    scales, diameter = _training_scales(points.points, config.k_nn)
    # each row keeps its own entry exp(0) = 1, so every degree is positive
    K, degree, raw_degree = _kernel_csr(points.points, scales, config)
    _divide_entries(K, degree, root=True)           # K_sym, in place of K
    if not _uses_arpack(points.n_points, config.n_eigs):
        K = K.toarray()
    lam, V = _top_eigenpairs(K, config.n_eigs)

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
    # sign gauge: largest-magnitude entry positive (first index on ties)
    anchor = np.argmax(np.abs(phi), axis=0)
    signs = np.sign(phi[anchor, np.arange(phi.shape[1])])
    signs[signs == 0] = 1.0
    phi = phi * signs
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
