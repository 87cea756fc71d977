"""Nystrom extension, projection, and gradients for a fitted CIDM model.

Out-of-sample evaluation of an eigenfunction with kernel eigenvalue
``lambda`` uses the row-normalized kernel,

    phi(x) = (1/lambda) * sum_j w_j(x) phi_j,
    w_j(x) = exp(-delta(x, x_j)^2 / eps^2) / sum_m exp(-delta(x, x_m)^2 / eps^2),

where the query's kNN scale is the mean distance to its k nearest
training points at strictly positive distance.  Excluding exact-zero
distances makes the out-of-sample kernel row at a training point equal
to the fitted row, so the extension interpolates training values.  Like
the fit, a row starts from the squared distances (``cdist``
``'sqeuclidean'``) and takes square roots only of the k nearest, for the
scale; so the unnormalized row at a training point is its row of the
fitted kernel, and its sum its ``degree``, bit for bit.

``_squared_distances`` computes a query's squared distances, once, and
``_row_core`` turns them into its out-of-sample kernel row, in place
(scales, the min-shifted exponent, kernel values and the certified
cutoff come from ``cidm``, the functions of the fit); extension,
projection and gradients all go through the pair.  Where the process may
use two CPUs, a batch of values or projections of at least 2 rows and
``cidm._BLOCK_ENTRIES`` entries builds its two halves on two threads
(:func:`_rows`): the caller one and the process's helper thread the
other, each its own squared distances, into its slice of one (m, N)
array, and its own row.  Every operation of a row reads that row only,
so the halves have the bits of the whole batch; the contraction with
the modes or the projector's operand then runs once, on the caller, over
the whole batch, since a matrix product split by rows may sum a row in
another order.  The helper calls none of this module's public functions.
A row is its kept
kernel values, unnormalized, with their row sums:
:func:`eigenfunction_values` divides each row by its sum in place, and a
projection iteration multiplies the rows through the operand
``(phi_L / lambda_L) @ xhat`` that the projector derived when it was
made, one (m, N) @ (N, n) contraction (``_contract``), and divides the
(m, n) result by the sums.  ``cidm._cut_shape`` clamps the entries far
past the cut (z > 708 for 69 % of a row at a ``repro pgd-circle``
iterate) before the ``exp``, off its slow subnormal and underflow paths.
A gradient keeps its one query's (1, N) squared distances, for the
distances and delta^2 it also reads, and hands the row a copy
(``_jacobian``).  A query that is neither one n-vector nor, where an
entry takes a stack, an (m, n) array of them, or whose n is not the
training dimension, raises :class:`InvalidQueryError` (:func:`_queries`,
the query rule of every entry); so does a row whose query is not finite,
overflows when squared, or lies so far out that every exponent overflows.

A row also reads what its model derived once, when it was made (fitted,
loaded or replaced): the read-only kernel eigenvalues ``1 - xi``, the
number of leading modes whose ``|lambda|`` clears ``SMALL_LAMBDA``, and
the cutoff.  So :func:`_mode_lambdas` is the size rule, one integer
comparison and a slice.  A projector likewise checks its modes and
derives its read-only operand when it is made.  None of these is stored
in a bundle.

A row costs O(N) per query, so a caller that needs several quantities
at one point reads them from one row: :func:`eigenfunction_values` once,
for the widest range of modes, sliced; or, as the PGD loop reads the
tangent arrows and the semantic labels of an iterate, one
:func:`_contract` of the row with an operand that stacks them all
(``ompgd._attack_operand``).

Gradients differentiate the full kernel row, including the variation of
the query's kNN scale (smooth while the neighbor set is fixed); the
neighbor-set switching boundaries are rejected via
:class:`KnnBoundaryError`.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

from .cidm import (_BLOCK_ENTRIES, SMALL_LAMBDA, CidmModel, _both, _cut_shape, _knn_scales,
                   _shifted_exponent, inner)
from .errors import (InvalidQueryError, KnnBoundaryError, SmallEigenvalueError, _check_finite,
                     _size)

__all__ = [
    'NystromProjector',
    'extend_eigenfunction',
    'eigenfunction_values',
    'fourier_coefficients',
    'extend_function',
    'build_projector',
    'project',
    'project_many',
    'grad_eigenfunction',
    'diffusion_map_jacobian',
    'restricted_loss_gradient',
]

#: Relative gap (vs data diameter) below which the k-th and (k+1)-th
#: neighbor distances count as tied for gradient purposes.
KNN_GAP_FRAC = 1e-9


def _queries(x, dim: int, stack: bool = True) -> np.ndarray:
    """The query rule: ``x`` as a float array that is one n-vector or, if
    ``stack``, an (m, n) stack of them, with n the training dimension
    ``dim``; any other shape raises :class:`InvalidQueryError` naming it,
    and any other n names both dimensions."""
    q = np.asarray(x, dtype=np.float64)
    if not (q.ndim == 1 or (stack and q.ndim == 2)):
        shapes = 'an n-vector or an (m, n) stack' if stack else 'an n-vector'
        raise InvalidQueryError(f'a query must be {shapes}; got an array of shape {q.shape}')
    if q.shape[-1] != dim:
        raise InvalidQueryError(f'query dimension {q.shape[-1]} does not match '
                                f'the training dimension {dim}')
    return q


def _squared_distances(model: CidmModel, queries: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The (m, N) squared distances from an (m, n) stack of ``queries`` that
    passed the query rule (:func:`_queries`) to the training points, in
    ``out`` if given; a row that is not finite raises
    :class:`InvalidQueryError` naming it."""
    d2 = cdist(queries, model.training.points, 'sqeuclidean', out=out)
    if not d2.max(initial=0.0) < np.inf:        # NaN, inf, or overflow
        bad = int(np.argmin(d2.max(axis=1) < np.inf))
        raise InvalidQueryError(f'query row {bad}: the query or its squared distances '
                                'to the training points are not finite')
    return d2


def _row_core(model: CidmModel, w: np.ndarray):
    """Unnormalized out-of-sample kernel rows, the one kernel row, of an
    (m, n) query stack, from its squared distances ``w`` (:func:`_squared_distances`).

    Returns ``(rows, sums, scales)`` with shapes (m, N), (m, 1) and (m,):
    the kept kernel values (in ``w``), their row sums and the query scales.
    The exponent is min-shifted (``cidm._shifted_exponent``), so every row
    keeps an entry exp(0) = 1, and every sum is at least 1 (above 0 after
    the ``cidm_dm_normalized`` division by the positive ``raw_degree``).

    With ``w``, the row holds two (m, N) float arrays and one (m, N) mask.
    ``w`` holds the squared distances, then their exponent, and finally the
    kernel values; the mask is the kept entries of the exponent.  ``d`` is
    a copy of the squared distances, with the exact zeros excluded, that
    the kNN scales reorder in place, and then holds the scale products; it
    is freed before the mask is made, so the row peaks at two of the three.
    These are the fit's operations on the same squared distances, so at a
    training point the row is its fitted kernel row bit for bit.  An empty
    batch gives empty rows.
    """
    cfg = model.config
    d = w.copy()
    # exact-zero distances are skipped, so a training point's row is its fitted row
    if not w.min(initial=np.inf) > 0.0:
        d[d == 0.0] = np.inf
    scales = _knn_scales(d, cfg.k_nn)
    if np.isinf(scales).any():
        raise ValueError('fewer than k_nn distinct training points for a query')
    s = _shifted_exponent(w, scales, model.knn_scale, cfg.epsilon, d)
    del d                       # freed before the mask is made
    u = _cut_shape(s, model._cut)
    if cfg.kernel_variant == 'cidm_dm_normalized':
        u /= model.raw_degree[None, :]
    return u, u.sum(axis=1, keepdims=True), scales


def _rows(model: CidmModel, queries: np.ndarray):
    """``(rows, sums)`` of :func:`_row_core` at an (m, n) stack of ``queries``.

    A batch of at least 2 rows and ``cidm._BLOCK_ENTRIES`` (m N) entries
    builds its two halves in one ``cidm._both`` call, on two cores where
    the process may use two: the caller one, the helper the other, each its
    own squared distances in its slice of one (m, N) array and its own
    :func:`_row_core`.  Every operation of a row reads that row only, so
    the halves have the bits of the whole batch.  If a half raises, the
    batch is built again unsplit, which raises the error with its row index
    in the batch."""
    m, N = queries.shape[0], model.n_points
    if m >= 2 and m * N >= _BLOCK_ENTRIES:
        rows, sums = np.empty((m, N)), np.empty((m, 1))

        def half(part: slice) -> None:
            w = _squared_distances(model, queries[part], out=rows[part])
            sums[part] = _row_core(model, w)[1]

        try:
            _both(half, slice(0, m // 2), slice(m // 2, m))
            return rows, sums
        except Exception:       # raised again below, with its row in the batch
            pass
    return _row_core(model, _squared_distances(model, queries))[:2]


def _mode_lambdas(model: CidmModel, n_modes: int) -> np.ndarray:
    """Kernel eigenvalues of modes 0..n_modes-1, checked to be extendable: a
    read-only view of the ones the model derived when it was made."""
    n_modes = _size('n_modes', n_modes, 1, model.n_eigs)
    if n_modes > model._n_extendable:
        bad = model._n_extendable
        raise SmallEigenvalueError(
            f'mode {bad} has |lambda| = {abs(model._lambdas[bad]):.2e} < {SMALL_LAMBDA:g}; '
            'its Nystrom extension is numerically meaningless')
    return model._lambdas[:n_modes]


def eigenfunction_values(model: CidmModel, x, n_modes: int) -> np.ndarray:
    """Nystrom values of modes 0..n_modes-1 at one or many queries."""
    lam = _mode_lambdas(model, n_modes)
    q = _queries(x, model.training.ambient_dim)
    weights, sums = _rows(model, np.atleast_2d(q))
    weights /= sums
    vals = (weights @ model.eig_phi[:, :n_modes]) / lam[None, :]
    return vals[0] if q.ndim == 1 else vals


def extend_eigenfunction(model: CidmModel, ell: int, x) -> float:
    """Nystrom extension of eigenfunction ``ell`` at a single point."""
    ell = _size('ell', ell, 0, model.n_eigs - 1)
    return float(eigenfunction_values(model, _queries(x, model.training.ambient_dim, stack=False),
                                      ell + 1)[ell])


def fourier_coefficients(model: CidmModel, values: np.ndarray, l_trunc: int) -> np.ndarray:
    """Generalized Fourier coefficients <values[:, s], phi_ell> for ell < l_trunc.

    ``values`` must be finite (:func:`_check_finite`)."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape[0] != model.n_points:
        raise ValueError('values must have one row per training point')
    _check_finite('values', vals)
    l_trunc = _size('l_trunc', l_trunc, 1, model.n_eigs)
    return inner(model, model.eig_phi[:, :l_trunc], vals)


def extend_function(model: CidmModel, coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate sum_ell coeffs[ell] phi_ell(x); a regression when truncated.

    ``coeffs`` must be a vector or a 2-D array, one row per mode, and finite
    (:func:`_check_finite`)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim not in (1, 2):
        raise ValueError(f'coeffs has shape {coeffs.shape}: coeffs needs to be a vector or '
                         'a 2-D array, one row per mode')
    _check_finite('coeffs', coeffs)
    squeeze = coeffs.ndim == 1
    if squeeze:
        coeffs = coeffs[:, None]
    n_modes = _size('len(coeffs)', coeffs.shape[0], 1, model.n_eigs)
    phi_x = eigenfunction_values(model, x, n_modes)
    out = phi_x @ coeffs
    return out[..., 0] if squeeze else out


@dataclass(frozen=True)
class NystromProjector:
    """Generalized Fourier coefficients of the coordinate functions.

    ``xhat[ell, s] = <coordinate s, phi_ell>``, an (L, n) array; the
    projection is ``x -> xhat.T @ (phi_0(x), ..., phi_{L-1}(x))``, the
    constant mode included so the data mean is representable.

    Construction (``build_projector``, a bundle's ``projector()``,
    ``dataclasses.replace``) applies the xhat rule (:func:`_xhat_rule`),
    keeps ``xhat`` as the float64 array it returns, and derives, once, the
    read-only (N, n) operand ``_operand = (phi_L / lambda_L) @ xhat`` that
    :func:`_contract` multiplies a kernel row through.  It is not stored in
    a bundle.
    """

    model: CidmModel
    xhat: np.ndarray

    def __post_init__(self):
        xhat, lam = _xhat_rule(self.model, self.xhat)
        object.__setattr__(self, 'xhat', xhat)
        operand = (self.model.eig_phi[:, :lam.shape[0]] / lam[None, :]) @ xhat
        operand.flags.writeable = False
        object.__setattr__(self, '_operand', operand)

    @property
    def l_trunc(self) -> int:
        return self.xhat.shape[0]


def _xhat_rule(model: CidmModel, xhat) -> tuple[np.ndarray, np.ndarray]:
    """The projector's xhat rule: ``xhat`` as a float64 array has shape (L,
    n), with 1 <= L <= ``model.n_eigs`` and n the training dimension, and
    finite entries (:func:`errors._check_finite`), else a ValueError; and
    its L modes are extendable (:func:`_mode_lambdas`).  Returns that array
    (``xhat`` itself if it is one) and the modes' kernel eigenvalues."""
    xhat = np.asarray(xhat, dtype=np.float64)
    shape = xhat.shape
    n_eigs, dim = model.n_eigs, model.training.ambient_dim
    if not (len(shape) == 2 and 1 <= shape[0] <= n_eigs and shape[1] == dim):
        raise ValueError(f'xhat must have shape (L, {dim}) with 1 <= L <= {n_eigs}; '
                         f'got {shape}')
    _check_finite('xhat', xhat)
    return xhat, _mode_lambdas(model, shape[0])


def build_projector(model: CidmModel, l_trunc: int) -> NystromProjector:
    """Projector onto the manifold resolved by the first ``l_trunc`` modes."""
    return NystromProjector(model=model,
                            xhat=fourier_coefficients(model, model.training.points, l_trunc))


def _contract(operand: np.ndarray, rows: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """What each query reads through an (N, c) ``operand`` fixed per model,
    from its unnormalized kernel row (:func:`_row_core`): ``rows`` is
    multiplied through the operand, and the (m, c) result is divided by the
    row ``sums``.  Through a projector's ``_operand`` it is one projection
    of each query."""
    out = rows @ operand
    out /= sums
    return out


def project_many(projector: NystromProjector, x: np.ndarray, iterations: int = 2) -> np.ndarray:
    """Apply the Nystrom projection ``iterations`` times to each row of x.

    Each iteration is one kernel row per query and one (m, N) @ (N, n)
    contraction (:func:`_contract`)."""
    iterations = _size('iterations', iterations, 1)
    model = projector.model
    q = _queries(x, model.training.ambient_dim)
    out = np.atleast_2d(q)
    for _ in range(iterations):
        out = _contract(projector._operand, *_rows(model, out))
    return out[0] if q.ndim == 1 else out


def project(projector: NystromProjector, x, iterations: int = 2) -> np.ndarray:
    """Nystrom projection of a single point; see :func:`project_many`."""
    return project_many(projector,
                        _queries(x, projector.model.training.ambient_dim, stack=False),
                        iterations)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array, with the bits of ``np.linalg.norm``:
    that computes the same square root of the same dot product, behind
    several microseconds of dispatch.  ``np.vdot`` rather than ``v.dot``,
    because it does not warn where the squares overflow: the caller reports
    the infinite norm itself."""
    return math.sqrt(np.vdot(v, v))


def _loss_gradient(grad, at: np.ndarray, source: str, where: str):
    """The loss gradient rule: ``(g, norm)``, the ``grad`` that ``source``
    returned at the point ``at`` (``where`` in messages) as a float array,
    and its norm; ValueError unless g has the shape of ``at`` and a finite norm."""
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != at.shape:
        raise ValueError(f'{source} returned an array of shape {g.shape}; '
                         f'the gradient at {where} must have its shape {at.shape}')
    norm = _norm(g)
    if not norm < math.inf:         # a NaN or inf entry, or the squares overflow
        raise ValueError(f'{source} returned a gradient whose norm is not finite ({norm})')
    return g, norm


def diffusion_map_jacobian(model: CidmModel, n_modes: int, x) -> np.ndarray:
    """Rows ``ell < n_modes`` of the Jacobian d(phi_ell)/dx at x.

    Differentiates the implemented kernel row exactly within the query's
    fixed neighbor set: both the Euclidean-distance term and the kNN-scale
    variation contribute.  Mode 0 yields an exactly zero row.
    """
    return _jacobian(model, n_modes, x)[0]


def _jacobian(model: CidmModel, n_modes: int, x):
    """``(jac, rows, sums)``: :func:`diffusion_map_jacobian`, and the
    unnormalized kernel row at x and its sum that it reads.  The row
    (:func:`_row_core`) gets a copy of the query's squared distances; the
    distances, delta^2 and the gradient of the kNN scale come from them.
    The weights are the row divided by its sum, the bits of
    :func:`eigenfunction_values`."""
    lam = _mode_lambdas(model, n_modes)
    query = _queries(x, model.training.ambient_dim, stack=False)
    d2 = _squared_distances(model, query[None, :])
    rows, sums, scales = _row_core(model, d2.copy())
    pts = model.training.points
    delta2 = d2[0] / (scales[0] * model.knn_scale)
    row = np.sqrt(d2[0])
    pos = np.flatnonzero(row > 0.0)
    k = model.config.k_nn
    if pos.shape[0] < k + 1:
        raise ValueError('need at least k_nn + 1 distinct training points')
    # the k + 1 nearest, ordered by distance with ties resolved by index
    pos = pos[np.argpartition(row[pos], k)[:k + 1]]
    pos = pos[np.lexsort((pos, row[pos]))]
    gap = row[pos[k]] - row[pos[k - 1]]
    if gap < KNN_GAP_FRAC * model.data_diameter:
        raise KnnBoundaryError(
            f'query is equidistant from its {k}-th and {k + 1}-th neighbors '
            f'(gap {gap:.3e}); the kNN scale is not differentiable here')
    nbr = pos[:k]
    grad_scale = ((query[None, :] - pts[nbr]) / row[nbr][:, None]).mean(axis=0)

    weights = rows[0] / sums[0]
    eps2 = model.config.epsilon ** 2
    phi = model.eig_phi[:, :lam.shape[0]]
    phi_hat = weights @ phi                          # = lambda * phi(x), (L,)
    centered = phi - phi_hat[None, :]                # (N, L)

    a = weights / model.knn_scale                    # (N,)
    U = centered * a[:, None]
    drift = np.outer(U.sum(axis=0), query) - U.T @ pts      # (L, n)
    s_coef = (weights * delta2) @ centered                  # (L,)
    jac = -(2.0 * drift - np.outer(s_coef, grad_scale)) / (lam[:, None] * eps2 * scales[0])
    return jac, rows, sums


def grad_eigenfunction(model: CidmModel, ell: int, x) -> np.ndarray:
    """Analytic gradient of the Nystrom extension of eigenfunction ``ell``."""
    ell = _size('ell', ell, 0, model.n_eigs - 1)
    return diffusion_map_jacobian(model, ell + 1, x)[ell]


def restricted_loss_gradient(projector: NystromProjector,
                             loss_grad_at: Callable[[np.ndarray], np.ndarray],
                             x) -> np.ndarray:
    """Gradient of loss(projection(x)): DPhi(x)^T xhat gradL(projection(x)).

    ``loss_grad_at`` maps an input-space point to the loss gradient there;
    it is evaluated at the single-iteration projection of x, which is
    contracted (:func:`_contract`) from the same kernel row as the
    Jacobian, so it equals ``project(projector, x, 1)`` bit for bit.  Its
    result must pass the loss gradient rule (:func:`_loss_gradient`).
    """
    jac, rows, sums = _jacobian(projector.model, projector.l_trunc, x)
    target = _contract(projector._operand, rows, sums)[0]
    g = _loss_gradient(loss_grad_at(target), target, 'loss_grad_at', 'the projection of x')[0]
    return jac.T @ (projector.xhat @ g)
