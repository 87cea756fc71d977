"""Conformally invariant diffusion map (CIDM) fitting.

Builds the self-tuning kernel

    K_ij = h( delta(x_i, x_j)^2 / epsilon^2 ),
    delta(x, y)^2 = d(x, y)^2 / (scale(x) * scale(y)),

where ``scale`` is the (averaged) distance to the k nearest neighbors,
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
distance rows, ``_cut_shape`` the kernel values, ``_kernel_csr`` the
training kernel of the fit; ``nystrom._kernel_rows`` owns the
out-of-sample row.

Certified cutoff
----------------
With the exponential shape, entries with ``z = delta^2 / eps^2 >
ln N + KERNEL_TAIL`` are set to exactly 0, in the training kernel and in
the (min-shifted) out-of-sample rows alike.  Every row holds an entry
``h(0) = 1``, and at most N entries of a row are dropped, each below
``exp(-(ln N + KERNEL_TAIL)) = e^{-32} / N``; so the dropped mass of a row
is below ``e^{-32} ~ 1.3e-14`` of its sum.  The indicator shape is exactly
sparse already and is left as it is.  The cutoff is written once, in
``_kernel_cut``: a fit computes it once for its training kernel, and a
model once, when it is made, for its out-of-sample rows (with its kernel
eigenvalues ``1 - xi``; see :class:`CidmModel`).  Neither is stored in a
bundle.  Because row support depends on k and the intrinsic dimension
rather than on N, the kernel of a large low-dimensional cloud is mostly
exact zeros (14 % dense on the N=4000, k=24 torus).

Until the eigensolve no N x N array is formed: the scales and the kernel
are computed from row blocks of B = max(1, ``_BLOCK_ENTRIES`` // N)
training rows, and only the kept entries go into the CSR kernel, so the
fit holds O(B N + nnz) memory.  Each entry and each degree (the sum of a
dense kernel row) is computed with the same operations in the same order
as on the full matrix, so the CSR kernel equals ``csr_array`` of the
dense one bit for bit.  ARPACK runs on the CSR form of ``K_sym``, with
int32 index arrays while the entry count fits; only small or
full-spectrum fits hand dense ``eigh`` its ``toarray()``.
"""

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_array
from scipy.sparse.linalg import eigsh, ArpackNoConvergence
from scipy.spatial.distance import cdist

from .errors import DisconnectedGraphError, DuplicatePointError, EigensolverFailure

__all__ = [
    'PointCloud',
    'CidmConfig',
    'CidmModel',
    'knn_scales',
    'fit',
    'inner',
    'shape_function',
]

ShapeName = Literal['exponential', 'indicator']
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

    ``average_scales`` selects the kNN rescaling variant: the mean of the
    distances to the k nearest neighbors (default, less sensitive) versus
    the distance to the k-th neighbor alone.
    """

    k_nn: int
    n_eigs: int
    epsilon: float = 1.0
    shape: ShapeName = 'exponential'
    kernel_variant: KernelVariant = 'cidm'
    average_scales: bool = True

    def __post_init__(self):
        if self.k_nn < 1:
            raise ValueError('k_nn must be >= 1')
        if self.n_eigs < 1:
            raise ValueError('n_eigs must be >= 1')
        if not self.epsilon > 0:
            raise ValueError('epsilon must be positive')
        if self.shape not in ('exponential', 'indicator'):
            raise ValueError(f'unknown shape {self.shape!r}')
        if self.kernel_variant not in ('cidm', 'cidm_dm_normalized'):
            raise ValueError(f'unknown kernel_variant {self.kernel_variant!r}')


def shape_function(z: np.ndarray, shape: ShapeName) -> np.ndarray:
    """Kernel shape h(z): exp(-z) or the indicator of [0, 1]."""
    z = np.asarray(z)
    if shape == 'exponential':
        return np.exp(-z)
    return (z <= 1.0).astype(np.float64)


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

    Construction (a fit, a bundle load, ``dataclasses.replace``) derives
    what every out-of-sample row reads from these fields: the read-only
    kernel eigenvalues ``_lambdas = 1 - eig_xi``, the count
    ``_n_extendable`` of leading modes with ``|lambda| >= SMALL_LAMBDA``,
    and the cutoff ``_cut`` (:func:`_kernel_cut`).  They are not stored in
    a bundle.
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


def knn_scales(points: PointCloud, k_nn: int, average: bool = True) -> np.ndarray:
    """Per-point kNN distance scale.

    Entry i is the mean of the Euclidean distances from ``x_i`` to its
    ``k_nn`` nearest distinct-index neighbors (or the k-th distance alone
    when ``average=False``); these are the scales :func:`fit` uses.

    Raises
    ------
    DuplicatePointError
        If any scale is <= 1e-12 times the maximum pairwise distance.
    """
    return _training_scales(points.points, k_nn, average)[0]


def _row_blocks(n_points: int):
    """Bounds ``(a, b)`` of consecutive row blocks of an N x N array, each
    holding at most ``_BLOCK_ENTRIES`` entries (and at least one row)."""
    step = max(1, _BLOCK_ENTRIES // n_points)
    for a in range(0, n_points, step):
        yield a, min(a + step, n_points)


def _knn_scales(dist: np.ndarray, k_nn: int, average: bool) -> np.ndarray:
    """Mean (or, if not ``average``, largest) of the k smallest entries per row,
    reduced in ascending order.  Excluded entries are inf; a row with fewer
    than k finite entries gets scale inf.  Reorders ``dist`` in place; the
    result is a new array, so ``dist`` may be reused afterwards."""
    dist.partition(k_nn - 1, axis=1)
    nearest = dist[:, :k_nn]
    nearest.sort(axis=1)
    return nearest.sum(axis=1) / k_nn if average else nearest[:, -1].copy()


def _training_scales(pts: np.ndarray, k_nn: int, average: bool):
    """kNN scales of the training points (self excluded) and the data
    diameter, from one row block of distances at a time."""
    N = pts.shape[0]
    if not 1 <= k_nn <= N - 1:
        raise ValueError(f'k_nn must be in [1, {N - 1}], got {k_nn}')
    scales = np.empty(N)
    diameter = 0.0
    for a, b in _row_blocks(N):
        dist = np.sqrt(cdist(pts[a:b], pts, 'sqeuclidean'))
        diameter = max(diameter, float(dist.max()))
        # only the self-distance is excluded: a coincident pair keeps its zero
        dist[np.arange(b - a), np.arange(a, b)] = np.inf
        scales[a:b] = _knn_scales(dist, k_nn, average)
    if np.any(scales <= DUPLICATE_SCALE_FRAC * max(diameter, np.finfo(float).tiny)):
        bad = int(np.argmin(scales))
        raise DuplicatePointError(
            f'point {bad} has kNN scale {scales[bad]:.3e}; '
            'coincident training points make the rescaled distance undefined')
    return scales, diameter


def _kernel_cut(n_points: int) -> float:
    """The certified cutoff ln N + ``KERNEL_TAIL`` of an N-point kernel."""
    return np.log(n_points) + KERNEL_TAIL


def _cut_shape(z: np.ndarray, shape: ShapeName, cut: float) -> np.ndarray:
    """Kernel values h(z) with the certified cutoff ``cut`` (:func:`_kernel_cut`).

    Exponential entries with z > ``cut`` are exactly 0.
    Those entries are clamped to the cut before the ``exp``, which keeps it
    off its slow subnormal and underflow inputs (z above about 708); the
    kept entries see the same input, so the values do not change.  The cut
    entries are then zeroed by multiplying with the 0/1 keep mask, which
    does not branch on the (random) cut pattern as a masked store does; a
    kept value is finite, so times 1 it is exact, and a NaN stays NaN.
    Overwrites ``z`` with the result for that shape.
    """
    if shape != 'exponential':
        return shape_function(z, shape)
    keep = z <= cut
    np.minimum(z, cut, out=z)
    np.exp(np.negative(z, out=z), out=z)
    np.multiply(z, keep, out=z)
    return z


def _kernel_csr(pts: np.ndarray, scales: np.ndarray, config: CidmConfig):
    """CSR training kernel, its degree vector, and the raw CIDM degrees.

    Built one row block at a time: only the kept (nonzero) entries of a
    block are stored, and every degree is the sum of a dense kernel row, so
    the result is ``csr_array`` of the dense kernel, bit for bit.  The
    index arrays are int32 while the entry count fits (int64 beyond), so a
    sparse product streams 12 bytes per entry rather than 16.
    """
    N = pts.shape[0]
    data, indices = [], []
    indptr = np.zeros(N + 1, dtype=np.int64)
    raw_degree = np.empty(N)
    cut = _kernel_cut(N)
    for a, b in _row_blocks(N):
        z = cdist(pts[a:b], pts, 'sqeuclidean')
        z /= np.outer(scales[a:b], scales)
        z /= config.epsilon ** 2
        K = _cut_shape(z, config.shape, cut)
        raw_degree[a:b] = K.sum(axis=1)
        kept = np.flatnonzero(K)
        data.append(K.ravel()[kept])
        row_nnz = np.count_nonzero(K, axis=1)
        indptr[a + 1:b + 1] = row_nnz
        # column = flat index in the block minus the start of its row
        kept -= np.repeat(np.arange(0, (b - a) * N, N), row_nnz)
        indices.append(kept.astype(np.int32))
    np.cumsum(indptr, out=indptr)
    index_dtype = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    K = csr_array((np.concatenate(data), np.concatenate(indices, dtype=index_dtype),
                   indptr.astype(index_dtype)), shape=(N, N))
    if config.kernel_variant == 'cidm_dm_normalized':
        _divide_entries(K, raw_degree, root=False)
        degree = np.empty(N)
        for a, b in _row_blocks(N):
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
    scales, diameter = _training_scales(points.points, config.k_nn, config.average_scales)
    K, degree, raw_degree = _kernel_csr(points.points, scales, config)
    if np.any(degree <= 0):
        raise DisconnectedGraphError('kernel row sums vanish: isolated points '
                                     '(indicator shape with too small epsilon?)')

    _divide_entries(K, degree, root=True)           # K_sym, in place of K
    if not _uses_arpack(points.n_points, config.n_eigs):
        K = K.toarray()
    lam, V = _top_eigenpairs(K, config.n_eigs)

    xi = 1.0 - lam
    n_zero = int(np.sum(np.abs(xi) <= ZERO_EIGENVALUE_TOL))
    if n_zero > 1:
        raise DisconnectedGraphError(
            f'{n_zero} eigenvalues within {ZERO_EIGENVALUE_TOL:g} of zero: '
            'the kernel graph has numerically disconnected components')

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
