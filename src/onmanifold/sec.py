"""Spectral exterior calculus on a fitted CIDM eigenbasis.

Vector fields are represented on the frame ``{phi_i grad(phi_j)}``.  With
``c_ijs = <phi_i phi_j, phi_s>`` the structure constants and ``xi`` the
Laplacian eigenvalues, two closed-form tensors drive everything:

* the frame Gram (Riemannian) matrix
  ``G[(i,j),(k,l)] = 1/2 sum_s (xi_j + xi_l - xi_s) c_jls c_iks``
* the Dirichlet energy
  ``E[(i,j),(k,l)] = 1/4 sum_s [ (xi_i+xi_k-xi_s)(xi_j+xi_l-xi_s) c_iks c_jls
  - (xi_i+xi_l-xi_s)(xi_j+xi_k-xi_s) c_ils c_jks
  + (xi_i-xi_j-xi_s)(xi_k-xi_l-xi_s) c_ijs c_kls ]``

Index pairs are flattened row-major: ``(i, j) -> i * m_basis + j``.
Smoothest fields minimize ``c^T E c / c^T G c`` after a Sobolev (E+G)
basis reduction; their pushforward arrows in input space come from the
operator coefficients ``v_ij = sum_lk v^{lk} G_ijlk``, as
``(DF(x) v_x)_k = sum_ij v_ij fhat[j, k] phi_i(x)`` (:func:`field_arrows`)
with ``fhat`` the generalized Fourier coefficients of the embedding.

Fields are plain arrays: a :class:`SecFrame` keeps only what queries
read, the energies ``etas`` (F,) and the operators ``ops`` (F, m_out,
m_basis) of :func:`field_operator`, and reads every size from them.

Nothing here is O(N^2): the frame only acts on the span of the first
``m_inner`` eigenfunctions, where one step of the fitted diffusion
operator ``D^{-1} K`` is multiplication by the kernel eigenvalues.  The
roughness screen of :func:`build_sec_frame` uses that instead of the
training kernel.  ``c`` costs one BLAS product per frame mode i <
m_basis: the tensors read c_ijs only with i or j below m_basis.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh
from scipy.spatial import cKDTree

from .cidm import CidmModel, PointCloud, _sign_gauge
from .errors import (DegenerateFrameError, EigensolverFailure, RankDeficiencyError,
                     SingularGramError, _check_finite, _size)
from .nystrom import _queries, eigenfunction_values, fourier_coefficients

__all__ = [
    'SecBasisConfig',
    'SecFrame',
    'structure_constants',
    'metric_tensor',
    'dirichlet_energy_tensor',
    'sobolev_basis',
    'eigenfields',
    'field_operator',
    'build_sec_frame',
    'field_arrows',
    'tangent_frame_at',
    'local_pca_tangent',
]

#: Singular values below this fraction of the largest do not count
#: toward the tangent rank.
TANGENT_SVD_RTOL = 1e-8

#: Reduced Gram eigenvalues below this fraction of the largest mean the
#: Sobolev threshold let a null frame direction through.
GRAM_RTOL = 1e-12

#: Candidate eigenfields whose mean squared pushforward arrow falls below
#: this fraction of the strongest candidate's are discarded: their formal
#: G-norm is truncation noise on a null frame combination, not field mass.
ARROW_MASS_FLOOR = 0.05

#: Number of extra eigensolve candidates screened beyond n_fields.
CANDIDATE_SURPLUS = 24


@dataclass(frozen=True)
class SecBasisConfig:
    """Frame sizes for the SEC tensors.

    ``m_basis`` eigenfunctions index the frame elements; internal
    summations over products of eigenfunctions run to ``m_inner``
    (``None`` selects ``min(2 * m_basis**2, n_eigs)`` at build time,
    enough for products of low modes to be resolved).
    """

    m_basis: int
    m_inner: int | None = None
    tau_frac: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, 'm_basis', _size('m_basis', self.m_basis, 2))
        if self.m_inner is not None:
            object.__setattr__(self, 'm_inner', _size('m_inner', self.m_inner, self.m_basis))
        if not 0.0 <= self.tau_frac < np.inf:
            raise ValueError(f'tau_frac must be finite and >= 0, got {self.tau_frac!r}')


def structure_constants(model: CidmModel, m_inner: int) -> np.ndarray:
    """Triple products c_ijs = <phi_i phi_j, phi_s> up to mode m_inner,
    exactly symmetric in (i, j): every row of :func:`_structure_constants`."""
    return _structure_constants(model, m_inner, m_inner)


def _structure_constants(model: CidmModel, m_inner: int, m_basis: int) -> np.ndarray:
    """The (m_inner, m_inner, m_inner) array c of :func:`structure_constants`
    with the entries c_ijs and c_jis for i < ``m_basis`` filled: one BLAS
    product per i fills c[i, j >= i], and c[j > i, i] is mirrored from it.

    The frame tensors and :func:`field_operator` read c_ijs only with i or
    j below m_basis, so the entries with both at or above it are left
    unwritten; m_basis = m_inner fills the whole array.  The size rules of
    ``m_inner`` and ``m_basis`` run before any row is filled.
    """
    m_inner = _size('m_inner', m_inner, 1, model.n_eigs)
    m_basis = _size('m_basis', m_basis, 1, m_inner)
    phi = model.eig_phi[:, :m_inner]
    w = model.inner_weights[:, None]
    c = np.empty((m_inner, m_inner, m_inner))
    for i in range(m_basis):
        c[i, i:] = ((phi[:, i:i + 1] * phi[:, i:]) * w).T @ phi
        c[i + 1:, i] = c[i, i + 1:]
    return c


def _check_c_xi(c: np.ndarray, xi, m_basis: int) -> tuple[np.ndarray, int]:
    """``xi`` as a float array, and the summation size m_inner of ``c``."""
    if c.ndim != 3 or len({c.shape[0], c.shape[1], c.shape[2]}) != 1:
        raise ValueError('c must be a cubic 3-tensor')
    m_inner = c.shape[0]
    _size('m_basis', m_basis, 1, m_inner)
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape[0] < m_inner:
        raise ValueError('xi must cover every summation mode of c')
    return xi, m_inner


def _plus_weighted(c: np.ndarray, xi: np.ndarray, m: int, m_inner: int) -> np.ndarray:
    """P[j,k,s] = (xi_j + xi_k - xi_s) c_jks."""
    return (xi[:m, None, None] + xi[None, :m, None] - xi[None, None, :m_inner]) * c[:m, :m, :m_inner]


def metric_tensor(c: np.ndarray, xi: np.ndarray, m_basis: int) -> np.ndarray:
    """Frame Gram matrix G, reshaped to (m_basis^2, m_basis^2)."""
    xi, m_inner = _check_c_xi(c, xi, m_basis)
    P = _plus_weighted(c, xi, m_basis, m_inner)
    G4 = 0.5 * np.einsum('iks,jls->ijkl', c[:m_basis, :m_basis, :m_inner], P, optimize=True)
    G = G4.reshape(m_basis ** 2, m_basis ** 2)
    return 0.5 * (G + G.T)


def dirichlet_energy_tensor(c: np.ndarray, xi: np.ndarray, m_basis: int) -> np.ndarray:
    """Dirichlet energy matrix E (curl term plus divergence term)."""
    xi, m_inner = _check_c_xi(c, xi, m_basis)
    P = _plus_weighted(c, xi, m_basis, m_inner)
    B = (xi[:m_basis, None, None] - xi[None, :m_basis, None]
         - xi[None, None, :m_inner]) * c[:m_basis, :m_basis, :m_inner]
    E4 = 0.25 * (np.einsum('iks,jls->ijkl', P, P, optimize=True)
                 - np.einsum('ils,jks->ijkl', P, P, optimize=True)
                 + np.einsum('ijs,kls->ijkl', B, B, optimize=True))
    E = E4.reshape(m_basis ** 2, m_basis ** 2)
    return 0.5 * (E + E.T)


def sobolev_basis(E: np.ndarray, G: np.ndarray, tau_frac: float) -> np.ndarray:
    """Well-conditioned basis of the frame under the Sobolev product E + G.

    Eigendecomposes ``E + G`` and keeps the eigenvectors whose eigenvalue
    exceeds ``tau_frac`` times the largest one.
    """
    if E.shape != G.shape or E.shape[0] != E.shape[1]:
        raise ValueError('E and G must be square matrices of equal shape')
    S, U = eigh(E + G)
    S, U = S[::-1], U[:, ::-1]
    kept = S > tau_frac * S[0]
    if not np.any(kept):
        raise DegenerateFrameError('Sobolev threshold retained no frame directions')
    return U[:, kept]


def eigenfields(E: np.ndarray, G: np.ndarray, u_tilde: np.ndarray,
                n_fields: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-energy fields of the pencil (E, G) in the Sobolev basis.

    Solves ``E~ c~ = eta G~ c~`` with ``E~ = U~^T E U~`` (symmetric
    definite, Cholesky-reduced) and returns ``(etas, coeffs)`` for the
    ``n_fields`` smallest-eta fields: etas ascending, and one row of frame
    coefficients ``U~ c~`` per field, G-normalized, signs fixed so the
    largest-magnitude coefficient is positive.
    """
    n_fields = _size('n_fields', n_fields, 1)
    Et = u_tilde.T @ E @ u_tilde
    Gt = u_tilde.T @ G @ u_tilde
    gev = eigh(Gt, eigvals_only=True)
    if gev[0] < GRAM_RTOL * gev[-1]:
        raise SingularGramError(
            f'reduced Gram matrix has eigenvalue ratio {gev[0] / gev[-1]:.2e}; '
            'increase tau_frac')
    try:
        eta, C = eigh(Et, Gt)
    except LinAlgError:
        shift = 1e-12 * np.trace(Gt)
        try:
            eta, C = eigh(Et, Gt + shift * np.eye(Gt.shape[0]))
        except LinAlgError as exc:
            raise EigensolverFailure(f'generalized eigensolve failed: {exc}') from exc
    n_fields = min(n_fields, eta.shape[0])
    fields = np.column_stack([u_tilde @ C[:, a] for a in range(n_fields)])
    return eta[:n_fields], _sign_gauge(fields).T


def field_operator(c: np.ndarray, xi: np.ndarray, coeffs: np.ndarray,
                   m_basis: int) -> np.ndarray:
    """Operator coefficients v_ij = <phi_i, v(phi_j)> = sum_lk v^{lk} G_ijlk,
    as an (m_inner, m_basis) array: rows index every output mode i <
    m_inner, columns the input modes j < m_basis.

    The output index i enters only through ``c_sli = c_lsi`` with l <
    m_basis, so rows i < m_basis are the square truncation
    ``(G @ coeffs).reshape(m_basis, m_basis)``, and the further rows
    resolve the field's action on the embedding more sharply.  This is the
    one-field case of :func:`_field_operators`.
    """
    return _field_operators(c, xi, np.asarray(coeffs, dtype=np.float64).reshape(1, -1),
                            m_basis)[0]


def _field_operators(c: np.ndarray, xi: np.ndarray, coeffs: np.ndarray,
                     m_basis: int) -> np.ndarray:
    """:func:`field_operator` of each row of ``coeffs`` (F, m_basis**2), as
    an (F, m_inner, m_basis) array.

    Each operator is ``0.5 * einsum('lk,jks,sli->ij', V, P, c)`` with
    ``P = (xi_j + xi_k - xi_s) c_jks``, on the path einsum plans for it:
    first T_jls = sum_k P_jks V_lk, then the sum over (l, s).  Both steps
    are matrix products whose fixed operands, P as (j s, k) and c as
    (l s, i), are laid out once for all F fields; each field then takes its
    own two products, so its operator has the same bits alone or among
    others (one product over all fields is a wider GEMM, which can sum in
    another order).
    """
    xi, m_inner = _check_c_xi(c, xi, m_basis)
    m = m_basis
    V = coeffs.reshape(coeffs.shape[0], m, m)
    P = _plus_weighted(c, xi, m, m_inner)
    P_k = np.ascontiguousarray(P.transpose(0, 2, 1)).reshape(m * m_inner, m)
    c_ls = np.ascontiguousarray(c[:m_inner, :m, :m_inner].transpose(1, 0, 2))
    c_ls = c_ls.reshape(m * m_inner, m_inner)
    ops = np.empty((V.shape[0], m_inner, m))
    for op, v in zip(ops, V):
        T = (P_k @ v.T).reshape(m, m_inner, m).transpose(0, 2, 1).reshape(m, m * m_inner)
        op[...] = 0.5 * (T @ c_ls).T
    return ops


@dataclass(frozen=True)
class SecFrame:
    """The minimal-energy fields of one fitted model, as queries read them.

    ``etas`` (F,) holds the fields' Dirichlet energies, ascending, and
    ``ops`` (F, m_out, m_basis) their operators over m_out = m_inner
    output modes (:func:`field_operator`), which is what a tangent frame
    or a PGD step reads.  Every size is read from ``ops``; the tensors
    and the frame coefficients the fields were solved from are not kept.
    Both arrays must be finite (:func:`errors._check_finite`).
    """

    etas: np.ndarray
    ops: np.ndarray

    def __post_init__(self):
        etas = np.asarray(self.etas, dtype=np.float64)
        ops = np.asarray(self.ops, dtype=np.float64)
        if not (etas.ndim == 1 and ops.ndim == 3 and 1 <= etas.shape[0] == ops.shape[0]
                and 1 <= ops.shape[2] <= ops.shape[1]):
            raise ValueError(f'a SEC frame needs etas of shape (F,) and ops of shape '
                             f'(F, m_out, m_basis) with F >= 1 and m_out >= m_basis >= 1; '
                             f'got {etas.shape} and {ops.shape}')
        _check_finite('etas', etas)
        _check_finite('ops', ops)
        object.__setattr__(self, 'etas', etas)
        object.__setattr__(self, 'ops', ops)

    @property
    def m_basis(self) -> int:
        """Input modes of the field operators."""
        return self.ops.shape[2]

    @property
    def m_out(self) -> int:
        """Output modes of the field operators: the eigenfunction values a
        tangent frame reads."""
        return self.ops.shape[1]


def build_sec_frame(model: CidmModel, config: SecBasisConfig,
                    n_fields: int) -> SecFrame:
    """Assemble tensors, Sobolev basis, and the ``n_fields`` best eigenfields.

    The structure constants are filled only for the frame modes i <
    m_basis (:func:`_structure_constants`), after the size rules of
    ``m_inner`` and ``m_basis``, and every candidate's operator comes from
    one set of prepared operands (:func:`_field_operators`).
    Candidates from the generalized eigensolve are screened on their
    pushforward arrows, read from their eigen-coefficients (:func:`_arrow_screen`).
    Two failure modes of the truncated tensors are caught here: frame
    combinations representing the zero field can survive the Sobolev
    threshold with spuriously small energy (near-zero arrow mass), and
    truncation noise can hand low Rayleigh quotients to rough mixtures.
    Candidates below the mass floor are dropped, the remainder
    are ranked by the roughness of their arrow field under one step of
    the fitted diffusion operator, and the ``n_fields`` smoothest are
    returned in ascending-eta order; for equal eta, in roughness order.
    """
    n_fields = _size('n_fields', n_fields, 1)
    m, m_inner = config.m_basis, config.m_inner or min(2 * config.m_basis ** 2, model.n_eigs)
    c = _structure_constants(model, m_inner, m)
    xi = model.eig_xi[:m_inner]
    G = metric_tensor(c, xi, m)
    E = dirichlet_energy_tensor(c, xi, m)
    # frame indices i in [0, m), j in [1, m): phi_i grad(phi_0) vanishes
    frame_index = np.array([i * m + j for i in range(m) for j in range(1, m)])
    G_r = G[np.ix_(frame_index, frame_index)]
    E_r = E[np.ix_(frame_index, frame_index)]
    u_tilde = sobolev_basis(E_r, G_r, config.tau_frac)
    etas, reduced = eigenfields(E_r, G_r, u_tilde, n_fields + CANDIDATE_SURPLUS)

    fhat = fourier_coefficients(model, model.training.points, m)
    coeffs = np.zeros((len(etas), m * m))
    coeffs[:, frame_index] = reduced
    ops = _field_operators(c, xi, coeffs, m)
    mass, rough = _arrow_screen(ops @ fhat, xi)
    if not mass.max() > 0:
        raise DegenerateFrameError('every candidate eigenfield has zero arrow mass')
    massive = np.flatnonzero(mass >= ARROW_MASS_FLOOR * mass.max())
    smoothest = massive[np.argsort(rough[massive], kind='stable')[:n_fields]]
    kept = smoothest[np.argsort(etas[smoothest], kind='stable')]
    return SecFrame(etas=etas[kept], ops=ops[kept])


def _arrow_screen(A: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mass and roughness of each candidate's arrow field ``phi @ A[f]``
    over the training points, from its eigen-coefficients A (F, m_inner, n).

    The mass is the mean squared arrow; the roughness is the mean squared
    change of the arrows under one step of the fitted ``D^{-1} K``,
    relative to the mass.  On the span of the first ``m_inner``
    eigenfunctions that step is ``diag(lambda)``, so the change is
    ``phi @ (xi * A)`` with ``xi = 1 - lambda``; and ``eig_phi`` is
    orthonormal under ``inner_weights``, so both means are sums of squared
    coefficients, and no (N, .) array is built.
    """
    mass = (A ** 2).sum(axis=(1, 2))
    rough = ((xi[:, None] * A) ** 2).sum(axis=(1, 2)) / np.maximum(mass, np.finfo(float).tiny)
    return mass, rough


def _check_section(model: CidmModel, frame: SecFrame | None, fhat,
                   prefix: str = '') -> np.ndarray:
    """The SEC-section rule: ``fhat`` as a float array, once there are both a
    frame and an ``fhat``, ``fhat`` has between ``frame.m_basis`` and
    ``model.n_eigs`` rows and one column per ambient dimension, and the
    frame reads at most ``model.n_eigs`` modes, and ``fhat`` is finite
    (:func:`errors._check_finite`); else a ValueError naming what is wrong,
    with the arguments named ``{prefix}frame`` and ``{prefix}fhat``."""
    name = f'{prefix}fhat'
    if frame is None or fhat is None:
        missing = f'{prefix}frame' if frame is None else name
        raise ValueError(f'a SEC section needs both a frame and its {name}; '
                         f'{missing} is missing')
    fhat = np.asarray(fhat, dtype=np.float64)
    n_eigs, pts = model.n_eigs, model.training.points.shape
    if not (fhat.ndim == 2 and frame.m_basis <= fhat.shape[0] <= n_eigs):
        raise ValueError(f'{name} has shape {fhat.shape}, but eig_xi has shape ({n_eigs},) '
                         f'and the frame has m_basis={frame.m_basis}: {name} needs between '
                         f'{frame.m_basis} and {n_eigs} rows, one per mode')
    if fhat.shape[1] != pts[1]:
        raise ValueError(f'{name} has shape {fhat.shape}, but points has shape {pts}: '
                         f'{name} needs one column per ambient dimension')
    if frame.m_out > n_eigs:
        raise ValueError(f'the SEC frame has m_out={frame.m_out} output modes, but eig_xi '
                         f'has shape ({n_eigs},): a frame reads at most {n_eigs} modes')
    _check_finite(name, fhat)
    return fhat


def field_arrows(model: CidmModel, frame: SecFrame, fhat: np.ndarray) -> np.ndarray:
    """Pushforward arrows (N, n) of the smoothest field (field 0) at the
    training points, from ``eig_phi``; rows of ``fhat`` past the operators'
    input modes are ignored."""
    fhat = _check_section(model, frame, fhat)
    return model.eig_phi[:, :frame.m_out] @ (frame.ops[0] @ fhat[:frame.m_basis])


def tangent_frame_at(model: CidmModel, frame: SecFrame, fhat: np.ndarray,
                     x, dim: int) -> np.ndarray:
    """Orthonormal tangent basis from the smoothest eigenfields: (n, dim)
    at one n-vector x, or (m, n, dim) at each row of an (m, n) stack.

    Stacks pushforward arrows of the first ``min(2 * dim, available)``
    fields, takes the SVD, and returns the ``dim`` leading left singular
    vectors.  Each field contributes its arrow at three output-mode
    truncations (rows of the extended operator are truncation-independent,
    so these are free); the tangent direction is common to all of them
    while reconstruction noise is not, which steadies the SVD.  The arrows
    are derived once per call (:func:`_frame_arrows`), and each point gets
    its own one-point kernel row, so a basis has the same bits alone or in
    a stack; the PGD loop reuses a row it has already computed instead.

    Raises
    ------
    InvalidQueryError
        If x is neither an n-vector nor an (m, n) stack.
    ValueError
        If ``frame`` and ``fhat`` fail the SEC-section rule
        (:func:`_check_section`), or ``dim`` is not a size in [1, n].
    RankDeficiencyError
        If fewer than ``dim`` singular values clear the rank threshold:
        the supplied fields do not span the tangent space at a point.
    """
    q = _queries(x, model.training.ambient_dim)
    arrows = _frame_arrows(model, frame, fhat, dim)
    points = np.atleast_2d(q)
    out = np.empty(points.shape + (dim,))
    for basis, point in zip(out, points):
        basis[...] = _tangent_frame(arrows, eigenfunction_values(model, point, frame.m_out), dim)
    return out[0] if q.ndim == 1 else out


def _frame_arrows(model: CidmModel, frame: SecFrame, fhat: np.ndarray,
                  dim: int) -> tuple[tuple[int, np.ndarray], ...]:
    """What a tangent frame of dimension ``dim`` reads of ``frame`` and
    ``fhat``, at any x, once they pass the SEC-section rule
    (:func:`_check_section`): for each field it uses, the arrow
    coefficients ``op @ fhat`` (row i holds the coefficients of phi_i, so
    the arrow at x is the eigenfunction values there times this) cut to
    each of the three output-mode truncations, as ``(modes, coefficients)``
    pairs.  They are fixed once the frame and ``fhat`` are, so the PGD loop
    computes them once per attack.
    """
    fhat = _check_section(model, frame, fhat)
    dim = _size('dim', dim, 1, fhat.shape[1])
    n_fields = len(frame.etas)
    if n_fields < dim:
        raise ValueError(f'need at least {dim} eigenfields, have {n_fields}')
    n_use = min(2 * dim, n_fields)
    m_basis, m_out = frame.m_basis, frame.m_out
    resolutions = sorted({m_basis, (m_basis + m_out) // 2, m_out})
    arrows = []
    for op in frame.ops[:n_use]:
        w = op @ fhat[:m_basis]
        arrows.extend((mo, w[:mo]) for mo in resolutions)
    return tuple(arrows)


def _tangent_rank(sv: np.ndarray) -> int:
    """How many of the descending singular values ``sv`` clear the rank
    threshold, ``TANGENT_SVD_RTOL`` times the largest."""
    return int(np.sum(sv > TANGENT_SVD_RTOL * sv[0])) if sv[0] > 0 else 0


def _tangent_frame(arrows: tuple[tuple[int, np.ndarray], ...], vals: np.ndarray,
                   dim: int) -> np.ndarray:
    """The basis of :func:`tangent_frame_at` from the frame's ``arrows``
    (:func:`_frame_arrows`) and the eigenfunction values at x, ``vals``,
    which must cover modes 0..m_out-1 (further modes are not read)."""
    U, sv, _ = np.linalg.svd(np.stack([vals[:mo] @ w for mo, w in arrows]).T,
                             full_matrices=False)
    rank = _tangent_rank(sv)
    if rank < dim:
        raise RankDeficiencyError(
            f'pushforward arrows span only {rank} of {dim} tangent directions at x')
    return U[:, :dim]


def local_pca_tangent(points: PointCloud, x, k: int, dim: int) -> np.ndarray:
    """Baseline: top principal directions of the k nearest training points.

    Raises :class:`RankDeficiencyError` if the centred neighbours span fewer
    than ``dim`` directions (:func:`_tangent_rank`, the rule of
    :func:`tangent_frame_at`)."""
    pts = points.points
    k = _size('k', k, 1, pts.shape[0])
    dim = _size('dim', dim, 1, min(k, pts.shape[1]))
    _, idx = cKDTree(pts).query(_queries(x, pts.shape[1], stack=False), k=k)
    nbrs = pts[np.atleast_1d(idx)]
    centered = nbrs - nbrs.mean(axis=0)
    _, sv, Vt = np.linalg.svd(centered, full_matrices=False)
    rank = _tangent_rank(sv)
    if rank < dim:
        raise RankDeficiencyError(
            f'the {k} nearest training points span only {rank} of {dim} tangent directions '
            'at x')
    return _sign_gauge(Vt[:dim].T)
