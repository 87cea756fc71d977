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

``_row_core`` owns the out-of-sample kernel row (scales, the min-shifted
exponent, kernel values and the certified cutoff come from ``cidm``, the
functions of the fit); extension, projection and gradients all go
through it.  It returns the kept kernel values unnormalized, with their
row sums.  ``_kernel_rows`` divides each row by its sum, for the
eigenfunction values and the gradients.  A projection does not: each
iteration is one row per query and one (m, N) @ (N, n) contraction
(``_contract``) through the operand ``(phi_L / lambda_L) @ xhat`` that the
projector derived when it was made, and the (m, n) result is divided by
the sums.  Even after the shift, most of a row can lie far past the cut
(z > 708 for 69 % of the entries of a row at a ``repro pgd-circle``
iterate), where numpy's ``exp`` takes its slow subnormal and underflow
paths; ``cidm._cut_shape`` clamps those entries to the cut first.  A row
returns only the kernel values, their sums and the query scales; the
gradients, which also read the distances and delta^2 of their one query,
recompute those from the same squared distances (``_grad_pieces``).  A
query that is not finite, overflows when squared, has the wrong
dimension, or lies so far out that every exponent overflows raises
:class:`InvalidQueryError`, and so does a query of a function of one point
that is not one n-vector (``_one_point``).

A row also reads what its model derived once, when it was made (fitted,
loaded or replaced): the read-only kernel eigenvalues ``1 - xi``, the
number of leading modes whose ``|lambda|`` clears ``SMALL_LAMBDA``, and
the cutoff.  So :func:`_mode_lambdas` is a range check, one integer
comparison and a slice.  A projector likewise checks its modes and
derives its read-only operand when it is made.  None of these is stored
in a bundle.

A row costs O(N) per query, so a caller that needs several quantities
at one point asks :func:`eigenfunction_values` once, for the widest
range of modes, and slices the result: the PGD loop takes both the
tangent frame and the semantic labels of an iterate from one row.

Gradients differentiate the full kernel row, including the variation of
the query's kNN scale (smooth while the neighbor set is fixed); the
neighbor-set switching boundaries are rejected via
:class:`KnnBoundaryError`.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

from .cidm import (SMALL_LAMBDA, CidmModel, _cut_shape, _knn_scales, _shifted_exponent,
                   inner)
from .errors import InvalidQueryError, KnnBoundaryError, SmallEigenvalueError

__all__ = [
    'NystromProjector',
    'extend_eigenfunction',
    'eigenfunction_values',
    'diffusion_map',
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


def _as_queries(x) -> tuple[np.ndarray, bool]:
    q = np.asarray(x, dtype=np.float64)
    if q.ndim == 1:
        return q[None, :], True
    if q.ndim == 2:
        return q, False
    raise ValueError('query must be an n-vector or an (m, n) array')


def _one_point(x) -> np.ndarray:
    """The query of a single-point function as an n-vector; any other shape
    raises :class:`InvalidQueryError` naming it."""
    q = np.asarray(x, dtype=np.float64)
    if q.ndim != 1:
        raise InvalidQueryError(f'a single-point query must be an n-vector; '
                                f'got an array of shape {q.shape}')
    return q


def _row_core(model: CidmModel, queries: np.ndarray):
    """Unnormalized out-of-sample kernel rows, the one kernel row.

    Returns ``(rows, sums, scales)`` with shapes (m, N), (m, 1) and (m,):
    the kept kernel values, their row sums and the query scales.  The
    exponent is min-shifted (``cidm._shifted_exponent``), so every row
    keeps an entry exp(0) = 1, and every sum is at least 1 (above 0 after
    the ``cidm_dm_normalized`` division by the positive ``raw_degree``).

    The row holds two (m, N) float arrays and one (m, N) mask.  ``w``
    holds the squared distances, then their exponent, and finally the
    kernel values; the mask is the kept entries of the exponent.  ``d`` is
    a copy of the squared distances, with the exact zeros excluded, that
    the kNN scales reorder in place, and then holds the scale products.
    These are the fit's operations on the same squared distances, so at a
    training point the row is its fitted kernel row bit for bit.  An empty
    batch gives empty rows.
    """
    cfg = model.config
    pts = model.training.points
    if queries.shape[1] != pts.shape[1]:
        raise InvalidQueryError(f'query dimension {queries.shape[1]} does not match '
                                f'the training dimension {pts.shape[1]}')
    w = cdist(queries, pts, 'sqeuclidean')
    if not w.max(initial=0.0) < np.inf:         # NaN, inf, or overflow
        bad = int(np.argmin(w.max(axis=1) < np.inf))
        raise InvalidQueryError(f'query row {bad}: the query or its squared distances '
                                'to the training points are not finite')
    d = w.copy()
    # exact-zero distances are skipped, so a training point's row is its fitted row
    if not w.min(initial=np.inf) > 0.0:
        d[d == 0.0] = np.inf
    scales = _knn_scales(d, cfg.k_nn)
    if np.isinf(scales).any():
        raise ValueError('fewer than k_nn distinct training points for a query')
    u = _cut_shape(_shifted_exponent(w, scales, model.knn_scale, cfg.epsilon, d), model._cut)
    if cfg.kernel_variant == 'cidm_dm_normalized':
        u /= model.raw_degree[None, :]
    return u, u.sum(axis=1, keepdims=True), scales


def _kernel_rows(model: CidmModel, queries: np.ndarray):
    """Row-normalized out-of-sample kernel weights ``(weights, scales)``:
    the rows of :func:`_row_core`, each divided in place by its sum."""
    u, sums, scales = _row_core(model, queries)
    u /= sums
    return u, scales


def _mode_lambdas(model: CidmModel, n_modes: int) -> np.ndarray:
    """Kernel eigenvalues of modes 0..n_modes-1, checked to be extendable: a
    read-only view of the ones the model derived when it was made."""
    if not 1 <= n_modes <= model.n_eigs:
        raise ValueError(f'n_modes must be in [1, {model.n_eigs}]')
    if n_modes > model._n_extendable:
        bad = model._n_extendable
        raise SmallEigenvalueError(
            f'mode {bad} has |lambda| = {abs(model._lambdas[bad]):.2e} < {SMALL_LAMBDA:g}; '
            'its Nystrom extension is numerically meaningless')
    return model._lambdas[:n_modes]


def eigenfunction_values(model: CidmModel, x, n_modes: int) -> np.ndarray:
    """Nystrom values of modes 0..n_modes-1 at one or many queries."""
    lam = _mode_lambdas(model, n_modes)
    queries, single = _as_queries(x)
    weights = _kernel_rows(model, queries)[0]
    vals = (weights @ model.eig_phi[:, :n_modes]) / lam[None, :]
    return vals[0] if single else vals


def extend_eigenfunction(model: CidmModel, ell: int, x) -> float:
    """Nystrom extension of eigenfunction ``ell`` at a single point."""
    if not 0 <= ell < model.n_eigs:
        raise ValueError(f'ell must be in [0, {model.n_eigs})')
    return float(eigenfunction_values(model, _one_point(x), ell + 1)[ell])


def diffusion_map(model: CidmModel, l_trunc: int, x) -> np.ndarray:
    """Diffusion map Phi(x) = (phi_1(x), ..., phi_L(x)), constant mode skipped.

    Requires ``l_trunc <= n_eigs - 1`` since mode 0 is excluded.
    """
    if not 1 <= l_trunc <= model.n_eigs - 1:
        raise ValueError(f'l_trunc must be in [1, {model.n_eigs - 1}] '
                         '(the constant mode is skipped)')
    return eigenfunction_values(model, x, l_trunc + 1)[..., 1:]


def fourier_coefficients(model: CidmModel, values: np.ndarray, l_trunc: int) -> np.ndarray:
    """Generalized Fourier coefficients <values[:, s], phi_ell> for ell < l_trunc."""
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    if vals.shape[0] != model.n_points:
        raise ValueError('values must have one row per training point')
    if not 1 <= l_trunc <= model.n_eigs:
        raise ValueError(f'l_trunc must be in [1, {model.n_eigs}]')
    coeffs = inner(model, model.eig_phi[:, :l_trunc], vals)
    return coeffs[:, 0] if squeeze else coeffs


def extend_function(model: CidmModel, coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate sum_ell coeffs[ell] phi_ell(x); a regression when truncated."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    squeeze = coeffs.ndim == 1
    if squeeze:
        coeffs = coeffs[:, None]
    phi_x = eigenfunction_values(model, x, coeffs.shape[0])
    out = phi_x @ coeffs
    return out[..., 0] if squeeze else out


@dataclass(frozen=True)
class NystromProjector:
    """Generalized Fourier coefficients of the coordinate functions.

    ``xhat[ell, s] = <coordinate s, phi_ell>``, an (L, n) array; the
    projection is ``x -> xhat.T @ (phi_0(x), ..., phi_{L-1}(x))``, the
    constant mode included so the data mean is representable.

    Construction (``build_projector``, a bundle's ``projector()``,
    ``dataclasses.replace``) checks that the L modes are extendable and
    derives, once, the read-only (N, n) operand
    ``_operand = (phi_L / lambda_L) @ xhat`` that :func:`_contract`
    multiplies a kernel row through.  It is not stored in a bundle.
    """

    model: CidmModel
    xhat: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.xhat)
        n_eigs, dim = self.model.n_eigs, self.model.training.ambient_dim
        if not (len(shape) == 2 and 1 <= shape[0] <= n_eigs and shape[1] == dim):
            raise ValueError(f'xhat must have shape (L, {dim}) with 1 <= L <= {n_eigs}; '
                             f'got {shape}')
        lam = _mode_lambdas(self.model, shape[0])
        operand = (self.model.eig_phi[:, :shape[0]] / lam[None, :]) @ self.xhat
        operand.flags.writeable = False
        object.__setattr__(self, '_operand', operand)

    @property
    def l_trunc(self) -> int:
        return self.xhat.shape[0]


def build_projector(model: CidmModel, l_trunc: int) -> NystromProjector:
    """Projector onto the manifold resolved by the first ``l_trunc`` modes."""
    return NystromProjector(model=model,
                            xhat=fourier_coefficients(model, model.training.points, l_trunc))


def _contract(projector: NystromProjector, rows: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """One projection of each query from its unnormalized kernel row
    (:func:`_row_core`): ``rows`` is multiplied through the projector's
    operand, and the (m, n) result is divided by the row ``sums``."""
    out = rows @ projector._operand
    out /= sums
    return out


def project_many(projector: NystromProjector, x: np.ndarray, iterations: int = 2) -> np.ndarray:
    """Apply the Nystrom projection ``iterations`` times to each row of x.

    Each iteration is one kernel row per query and one (m, N) @ (N, n)
    contraction (:func:`_contract`)."""
    if iterations < 1:
        raise ValueError('iterations must be >= 1')
    queries, single = _as_queries(x)
    out = queries
    for _ in range(iterations):
        rows, sums, _ = _row_core(projector.model, out)
        out = _contract(projector, rows, sums)
    return out[0] if single else out


def project(projector: NystromProjector, x, iterations: int = 2) -> np.ndarray:
    """Nystrom projection of a single point; see :func:`project_many`."""
    return project_many(projector, _one_point(x), iterations)


def _grad_pieces(model: CidmModel, query: np.ndarray):
    """Unnormalized kernel row at one query and its sum
    (:func:`_row_core`), its distances and delta^2 (recomputed from the
    same squared distances, with the operations of :func:`_row_core`; the
    distances are their square roots), its kNN scale and the gradient of
    that scale."""
    rows, sums, scales = _row_core(model, query[None, :])
    pts = model.training.points
    row2 = cdist(query[None, :], pts, 'sqeuclidean')[0]
    delta2 = row2 / (scales[0] * model.knn_scale)
    row = np.sqrt(row2)
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
    return rows, sums, row, delta2, scales[0], grad_scale


def diffusion_map_jacobian(model: CidmModel, n_modes: int, x) -> np.ndarray:
    """Rows ``ell < n_modes`` of the Jacobian d(phi_ell)/dx at x.

    Differentiates the implemented kernel row exactly within the query's
    fixed neighbor set: both the Euclidean-distance term and the kNN-scale
    variation contribute.  Mode 0 yields an exactly zero row.
    """
    lam = _mode_lambdas(model, n_modes)
    query = _one_point(x)
    return _jacobian(model, lam, query, _grad_pieces(model, query))


def _jacobian(model: CidmModel, lam: np.ndarray, query: np.ndarray, pieces):
    """:func:`diffusion_map_jacobian` for the modes of the kernel
    eigenvalues ``lam``, from the kernel row at ``query`` (``pieces``, as
    :func:`_grad_pieces` returns it).  The weights are the row divided by
    its sum, the bits of :func:`_kernel_rows`."""
    rows, sums, _, delta2, scale, grad_scale = pieces
    weights = rows[0] / sums[0]

    pts = model.training.points
    eps2 = model.config.epsilon ** 2
    phi = model.eig_phi[:, :lam.shape[0]]
    phi_hat = weights @ phi                          # = lambda * phi(x), (L,)
    centered = phi - phi_hat[None, :]                # (N, L)

    a = weights / model.knn_scale                    # (N,)
    U = centered * a[:, None]
    drift = np.outer(U.sum(axis=0), query) - U.T @ pts      # (L, n)
    s_coef = (weights * delta2) @ centered                  # (L,)
    return -(2.0 * drift - np.outer(s_coef, grad_scale)) / (lam[:, None] * eps2 * scale)


def grad_eigenfunction(model: CidmModel, ell: int, x) -> np.ndarray:
    """Analytic gradient of the Nystrom extension of eigenfunction ``ell``."""
    if not 0 <= ell < model.n_eigs:
        raise ValueError(f'ell must be in [0, {model.n_eigs})')
    return diffusion_map_jacobian(model, ell + 1, x)[ell]


def restricted_loss_gradient(projector: NystromProjector,
                             loss_grad_at: Callable[[np.ndarray], np.ndarray],
                             x) -> np.ndarray:
    """Gradient of loss(projection(x)): DPhi(x)^T xhat gradL(projection(x)).

    ``loss_grad_at`` maps an input-space point to the loss gradient there;
    it is evaluated at the single-iteration projection of x, which is
    contracted (:func:`_contract`) from the same kernel row as the
    Jacobian, so it equals ``project(projector, x, 1)`` bit for bit.
    """
    model = projector.model
    lam = _mode_lambdas(model, projector.l_trunc)
    query = _one_point(x)
    pieces = _grad_pieces(model, query)
    jac = _jacobian(model, lam, query, pieces)
    rows, sums = pieces[:2]
    target = _contract(projector, rows, sums)[0]
    g = np.asarray(loss_grad_at(target), dtype=np.float64)
    return jac.T @ (projector.xhat @ g)
