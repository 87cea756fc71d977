"""Nystrom extension, projection, and gradients for a fitted CIDM model.

Out-of-sample evaluation of an eigenfunction with kernel eigenvalue
``lambda`` uses the row-normalized kernel,

    phi(x) = (1/lambda) * sum_j w_j(x) phi_j,
    w_j(x) = h(delta(x, x_j)^2 / eps^2) / sum_m h(delta(x, x_m)^2 / eps^2),

where the query's kNN scale is the mean distance to its k nearest
training points at strictly positive distance.  Excluding exact-zero
distances makes the out-of-sample kernel row at a training point equal
to the fitted row, so the extension interpolates training values.

``_kernel_rows`` owns the out-of-sample kernel row (scales, shape and the
certified cutoff come from ``cidm``); extension, projection and gradients
all go through it.  The cutoff is applied after the min-shift, so the row
at a training point has the same support as its fitted row.  Even after
the shift, most of a row can lie far past the cut (z > 708 for 69 % of
the entries of a row at a ``repro pgd-circle`` iterate), where numpy's
``exp`` takes its slow subnormal and underflow paths; ``cidm._cut_shape``
clamps those entries to the cut first.  The row's arithmetic runs in
place on one scratch array, with the operations and their order of the
plain expression, so it gives the same bits.  A query that is not finite,
overflows when squared, or has the wrong dimension raises
:class:`InvalidQueryError`, and so does a query of a function of one point
that is not one n-vector (``_one_point``).

A row also reads what its model derived once, when it was made (fitted,
loaded or replaced): the read-only kernel eigenvalues ``1 - xi``, the
number of leading modes whose ``|lambda|`` clears ``SMALL_LAMBDA``, and
the cutoff.  So :func:`_mode_lambdas` is a range check, one integer
comparison and a slice.  None of these is stored in a bundle.

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

from .cidm import SMALL_LAMBDA, CidmModel, _cut_shape, _knn_scales, inner
from .errors import (GeometryError, InvalidQueryError, KnnBoundaryError,
                     SmallEigenvalueError)

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

#: Query-to-training distances at or above this overflow when squared.
MAX_DISTANCE = np.sqrt(np.finfo(np.float64).max)


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


def _kernel_rows(model: CidmModel, queries: np.ndarray):
    """Row-normalized out-of-sample kernel weights, the one kernel row.

    Returns ``(weights, dists, scales, delta2)`` with shapes (m, N),
    (m, N), (m,), (m, N).  The exponential shape is evaluated with the
    minimum dissimilarity shifted out, which leaves the normalized
    weights unchanged but keeps them finite arbitrarily far from the
    training data; the certified cutoff then drops the shifted tail.

    Besides the three returned (m, N) arrays the row allocates one more,
    the scratch ``z``: it holds the distances the kNN scales reorder, then
    the scale products, then the weights, each operation writing in place.
    An empty batch gives empty rows.
    """
    cfg = model.config
    pts = model.training.points
    if queries.shape[1] != pts.shape[1]:
        raise InvalidQueryError(f'query dimension {queries.shape[1]} does not match '
                                f'the training dimension {pts.shape[1]}')
    dists = cdist(queries, pts)
    if not dists.max(initial=0.0) < MAX_DISTANCE:  # NaN, inf, or overflow
        bad = int(np.argmin(dists.max(axis=1) < MAX_DISTANCE))
        raise InvalidQueryError(f'query row {bad}: the query or its squared distances '
                                'to the training points are not finite')
    # exact-zero distances are skipped, so a training point's row is its fitted row
    z = np.where(dists > 0.0, dists, np.inf)
    scales = _knn_scales(z, cfg.k_nn, cfg.average_scales)
    if np.isinf(scales).any():
        raise ValueError('fewer than k_nn distinct training points for a query')
    delta2 = np.square(dists)
    delta2 /= np.multiply(scales[:, None], model.knn_scale[None, :], out=z)
    np.divide(delta2, cfg.epsilon ** 2, out=z)
    if cfg.shape == 'exponential':
        z -= z.min(axis=1, keepdims=True)
    u = _cut_shape(z, cfg.shape, model._cut)
    if cfg.kernel_variant == 'cidm_dm_normalized':
        u /= model.raw_degree[None, :]
    norm = u.sum(axis=1, keepdims=True)
    if (norm == 0.0).any():
        raise GeometryError('query outside the support of the indicator kernel')
    u /= norm
    return u, dists, scales, delta2


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

    ``xhat[ell, s] = <coordinate s, phi_ell>``; the projection is
    ``x -> xhat.T @ (phi_0(x), ..., phi_{L-1}(x))``, the constant mode
    included so the data mean is representable.
    """

    model: CidmModel
    l_trunc: int
    xhat: np.ndarray

    def __post_init__(self):
        if not 1 <= self.l_trunc <= self.model.n_eigs:
            raise ValueError('l_trunc must be in [1, n_eigs]')


def build_projector(model: CidmModel, l_trunc: int) -> NystromProjector:
    """Projector onto the manifold resolved by the first ``l_trunc`` modes."""
    xhat = fourier_coefficients(model, model.training.points, l_trunc)
    return NystromProjector(model=model, l_trunc=l_trunc, xhat=xhat)


def project_many(projector: NystromProjector, x: np.ndarray, iterations: int = 2) -> np.ndarray:
    """Apply the Nystrom projection ``iterations`` times to each row of x."""
    if iterations < 1:
        raise ValueError('iterations must be >= 1')
    queries, single = _as_queries(x)
    out = queries
    for _ in range(iterations):
        phi_x = eigenfunction_values(projector.model, out, projector.l_trunc)
        out = phi_x @ projector.xhat
    return out[0] if single else out


def project(projector: NystromProjector, x, iterations: int = 2) -> np.ndarray:
    """Nystrom projection of a single point; see :func:`project_many`."""
    return project_many(projector, np.asarray(x, dtype=np.float64), iterations)


def _grad_pieces(model: CidmModel, query: np.ndarray):
    """Kernel row at one query plus the gradient of its kNN scale."""
    cfg = model.config
    if cfg.shape != 'exponential':
        raise ValueError('gradients require the exponential shape')
    weights, dists, scales, delta2 = _kernel_rows(model, query[None, :])
    row = dists[0]
    pts = model.training.points
    pos = np.flatnonzero(row > 0.0)
    k = cfg.k_nn
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
    nbr = pos[:k] if cfg.average_scales else pos[k - 1:k]
    grad_scale = ((query[None, :] - pts[nbr]) / row[nbr][:, None]).mean(axis=0)
    return weights[0], row, delta2[0], scales[0], grad_scale


def diffusion_map_jacobian(model: CidmModel, n_modes: int, x) -> np.ndarray:
    """Rows ``ell < n_modes`` of the Jacobian d(phi_ell)/dx at x.

    Differentiates the implemented kernel row exactly within the query's
    fixed neighbor set: both the Euclidean-distance term and the kNN-scale
    variation contribute.  Mode 0 yields an exactly zero row.
    """
    lam = _mode_lambdas(model, n_modes)
    query = _one_point(x)
    return _jacobian(model, lam, query, _grad_pieces(model, query))[0]


def _jacobian(model: CidmModel, lam: np.ndarray, query: np.ndarray, pieces):
    """:func:`diffusion_map_jacobian` for the modes of the kernel
    eigenvalues ``lam``, from the kernel row at ``query`` (``pieces``, as
    :func:`_grad_pieces` returns it).  Also returns ``weights @ phi``, which
    is ``lam`` times the Nystrom values of those modes at ``query``."""
    weights, _, delta2, scale, grad_scale = pieces

    pts = model.training.points
    eps2 = model.config.epsilon ** 2
    phi = model.eig_phi[:, :lam.shape[0]]
    phi_hat = weights @ phi                          # = lambda * phi(x), (L,)
    centered = phi - phi_hat[None, :]                # (N, L)

    a = weights / model.knn_scale                    # (N,)
    U = centered * a[:, None]
    drift = np.outer(U.sum(axis=0), query) - U.T @ pts      # (L, n)
    s_coef = (weights * delta2) @ centered                  # (L,)
    jac = -(2.0 * drift - np.outer(s_coef, grad_scale)) / (lam[:, None] * eps2 * scale)
    return jac, phi_hat


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
    it is evaluated at the single-iteration projection of x, which is read
    from the same kernel row as the Jacobian.
    """
    model = projector.model
    lam = _mode_lambdas(model, projector.l_trunc)
    query = _one_point(x)
    jac, phi_hat = _jacobian(model, lam, query, _grad_pieces(model, query))
    target = (phi_hat / lam) @ projector.xhat
    g = np.asarray(loss_grad_at(target), dtype=np.float64)
    return jac.T @ (projector.xhat @ g)
