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
training kernel, and ``c`` costs one BLAS product per mode.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh
from scipy.spatial import cKDTree

from .cidm import CidmModel, PointCloud
from .errors import (DegenerateFrameError, EigensolverFailure, InvalidQueryError,
                     RankDeficiencyError, SingularGramError)
from .nystrom import _one_point, eigenfunction_values, fourier_coefficients

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
        if self.m_basis < 2:
            raise ValueError('m_basis must be >= 2')
        if self.m_inner is not None and self.m_inner < self.m_basis:
            raise ValueError('m_inner must be >= m_basis')
        if not 0.0 <= self.tau_frac < np.inf:
            raise ValueError(f'tau_frac must be finite and >= 0, got {self.tau_frac!r}')


def structure_constants(model: CidmModel, m_inner: int) -> np.ndarray:
    """Triple products c_ijs = <phi_i phi_j, phi_s> up to mode m_inner.

    One BLAS product per i fills the rows j >= i; the rows j < i are
    mirrored from them, so c is exactly symmetric in (i, j).
    """
    if not 1 <= m_inner <= model.n_eigs:
        raise ValueError(f'm_inner must be in [1, {model.n_eigs}]')
    phi = model.eig_phi[:, :m_inner]
    w = model.inner_weights[:, None]
    c = np.empty((m_inner, m_inner, m_inner))
    for i in range(m_inner):
        c[i, i:] = ((phi[:, i:i + 1] * phi[:, i:]) * w).T @ phi
        c[i + 1:, i] = c[i, i + 1:]
    return c


def _check_c_xi(c: np.ndarray, xi: np.ndarray, m_basis: int) -> int:
    if c.ndim != 3 or len({c.shape[0], c.shape[1], c.shape[2]}) != 1:
        raise ValueError('c must be a cubic 3-tensor')
    m_inner = c.shape[0]
    if m_basis > m_inner:
        raise ValueError(f'm_basis={m_basis} exceeds the structure-constant range {m_inner}')
    if xi.shape[0] < m_inner:
        raise ValueError('xi must cover every summation mode of c')
    return m_inner


def _plus_weighted(c: np.ndarray, xi: np.ndarray, m: int, m_inner: int) -> np.ndarray:
    """P[j,k,s] = (xi_j + xi_k - xi_s) c_jks."""
    return (xi[:m, None, None] + xi[None, :m, None] - xi[None, None, :m_inner]) * c[:m, :m, :m_inner]


def metric_tensor(c: np.ndarray, xi: np.ndarray, m_basis: int) -> np.ndarray:
    """Frame Gram matrix G, reshaped to (m_basis^2, m_basis^2)."""
    xi = np.asarray(xi, dtype=np.float64)
    m_inner = _check_c_xi(c, xi, m_basis)
    P = _plus_weighted(c, xi, m_basis, m_inner)
    G4 = 0.5 * np.einsum('iks,jls->ijkl', c[:m_basis, :m_basis, :m_inner], P, optimize=True)
    G = G4.reshape(m_basis ** 2, m_basis ** 2)
    return 0.5 * (G + G.T)


def dirichlet_energy_tensor(c: np.ndarray, xi: np.ndarray, m_basis: int) -> np.ndarray:
    """Dirichlet energy matrix E (curl term plus divergence term)."""
    xi = np.asarray(xi, dtype=np.float64)
    m_inner = _check_c_xi(c, xi, m_basis)
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
    coeffs = np.empty((n_fields, u_tilde.shape[0]))
    for a in range(n_fields):
        cv = u_tilde @ C[:, a]
        coeffs[a] = cv * (np.sign(cv[np.argmax(np.abs(cv))]) or 1.0)
    return eta[:n_fields], coeffs


def field_operator(c: np.ndarray, xi: np.ndarray, coeffs: np.ndarray,
                   m_basis: int) -> np.ndarray:
    """Operator coefficients v_ij = <phi_i, v(phi_j)> = sum_lk v^{lk} G_ijlk,
    as an (m_inner, m_basis) array: rows index every output mode i <
    m_inner, columns the input modes j < m_basis.

    The output index i enters only through ``c_lsi``, so rows i < m_basis
    are the square truncation ``(G @ coeffs).reshape(m_basis, m_basis)``,
    and the further rows resolve the field's action on the embedding more
    sharply.
    """
    xi = np.asarray(xi, dtype=np.float64)
    m_inner = _check_c_xi(c, xi, m_basis)
    V = np.asarray(coeffs, dtype=np.float64).reshape(m_basis, m_basis)
    P = _plus_weighted(c, xi, m_basis, m_inner)
    return 0.5 * np.einsum('lk,jks,sli->ij', V, P, c[:m_inner, :m_basis, :m_inner],
                           optimize=True)


@dataclass(frozen=True)
class SecFrame:
    """The minimal-energy fields of one fitted model, as queries read them.

    ``etas`` (F,) holds the fields' Dirichlet energies, ascending, and
    ``ops`` (F, m_out, m_basis) their operators over m_out = m_inner
    output modes (:func:`field_operator`), which is what a tangent frame
    or a PGD step reads.  Every size is read from ``ops``; the tensors
    and the frame coefficients the fields were solved from are not kept.
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

    Candidates from the generalized eigensolve are screened on their
    pushforward arrows over the training points (eigenvector values make
    this free).  Two failure modes of the truncated tensors are caught
    here: frame combinations representing the zero field can survive the
    Sobolev threshold with spuriously small energy (near-zero arrow mass),
    and truncation noise can hand low Rayleigh quotients to rough
    mixtures.  Candidates below the mass floor are dropped, the remainder
    are ranked by the roughness of their arrow field under one step of
    the fitted diffusion operator, and the ``n_fields`` smoothest are
    returned in ascending-eta order.  The arrows lie in the span of the
    first ``m_inner`` eigenfunctions, where that step is ``diag(lambda)``:
    the screen is spectral (:func:`_arrow_screen`) and builds no kernel.
    """
    if n_fields < 1:
        raise ValueError(f'n_fields must be >= 1, got {n_fields}')
    m, m_inner = config.m_basis, config.m_inner or min(2 * config.m_basis ** 2, model.n_eigs)
    if m_inner > model.n_eigs:
        raise ValueError(f'm_inner={m_inner} exceeds the model n_eigs={model.n_eigs}')
    c = structure_constants(model, m_inner)
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
    screened = []           # (eta, op, mass, rough) per candidate
    for eta, cr in zip(etas, reduced):
        coeffs = np.zeros(m * m)
        coeffs[frame_index] = cr
        op = field_operator(c, xi, coeffs, m)
        mass, rough = _arrow_screen(model, _arrow_coeffs(op, fhat))
        screened.append((eta, op, mass, rough))
    max_mass = max(mass for _, _, mass, _ in screened)
    if max_mass <= 0:
        raise DegenerateFrameError('every candidate eigenfield has zero arrow mass')
    massive = [s for s in screened if s[2] >= ARROW_MASS_FLOOR * max_mass]
    smoothest = sorted(massive, key=lambda s: s[3])[:n_fields]
    kept = sorted(smoothest, key=lambda s: s[0])
    return SecFrame(etas=np.array([eta for eta, _, _, _ in kept]),
                    ops=np.stack([op for _, op, _, _ in kept]))


def _arrow_screen(model: CidmModel, A: np.ndarray) -> tuple[float, float]:
    """Mass and roughness of the arrow field ``phi @ A`` on the training points.

    The mass is the mean squared arrow; the roughness is the mean squared
    change of the arrows under one step of the fitted ``D^{-1} K``,
    relative to the mass.  On the span of the first ``len(A)``
    eigenfunctions that step is ``diag(lambda)``, so the change is
    ``phi @ (xi * A)`` with ``xi = 1 - lambda``.
    """
    m_inner = A.shape[0]
    phi = model.eig_phi[:, :m_inner]
    w = model.inner_weights
    mass = float(w @ ((phi @ A) ** 2).sum(axis=1))
    resid = phi @ (model.eig_xi[:m_inner, None] * A)
    rough = float(w @ (resid ** 2).sum(axis=1)) / max(mass, np.finfo(float).tiny)
    return mass, rough


def _arrow_coeffs(op: np.ndarray, fhat) -> np.ndarray:
    """The field's arrows in the eigenbasis, ``op @ fhat``: row i holds
    the coefficients of phi_i, so the arrow at x is the eigenfunction
    values there times this."""
    fhat = np.asarray(fhat, dtype=np.float64)
    m_basis = op.shape[1]
    if fhat.shape[0] < m_basis:
        raise ValueError(f'fhat must cover at least {m_basis} modes')
    return op @ fhat[:m_basis]


def field_arrows(model: CidmModel, frame: SecFrame, fhat: np.ndarray) -> np.ndarray:
    """Pushforward arrows (N, n) of the smoothest field (field 0) at the
    training points, from ``eig_phi``; rows of ``fhat`` past the operators'
    input modes are ignored."""
    return model.eig_phi[:, :frame.m_out] @ _arrow_coeffs(frame.ops[0], fhat)


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
    RankDeficiencyError
        If fewer than ``dim`` singular values clear the rank threshold:
        the supplied fields do not span the tangent space at a point.
    """
    q = np.asarray(x, dtype=np.float64)
    if q.ndim not in (1, 2):
        raise InvalidQueryError(f'tangent_frame_at needs an n-vector or an (m, n) stack; '
                                f'got an array of shape {q.shape}')
    arrows = _frame_arrows(frame, fhat, dim)
    points = np.atleast_2d(q)
    out = np.empty(points.shape + (dim,))
    for basis, point in zip(out, points):
        basis[...] = _tangent_frame(arrows, eigenfunction_values(model, point, frame.m_out), dim)
    return out[0] if q.ndim == 1 else out


def _frame_arrows(frame: SecFrame, fhat: np.ndarray,
                  dim: int) -> tuple[tuple[int, np.ndarray], ...]:
    """What a tangent frame of dimension ``dim`` reads of ``frame`` and
    ``fhat``, at any x: for each field it uses, the arrow coefficients
    (:func:`_arrow_coeffs`) cut to each of the three output-mode
    truncations, as ``(modes, coefficients)`` pairs.  They are fixed once
    the frame and ``fhat`` are, so the PGD loop computes them once per attack.
    """
    if dim < 1 or dim > np.shape(fhat)[-1]:
        raise ValueError('dim must be in [1, ambient dimension]')
    n_fields = len(frame.etas)
    if n_fields < dim:
        raise ValueError(f'need at least {dim} eigenfields, have {n_fields}')
    n_use = min(2 * dim, n_fields)
    m_basis, m_out = frame.m_basis, frame.m_out
    resolutions = sorted({m_basis, (m_basis + m_out) // 2, m_out})
    arrows = []
    for op in frame.ops[:n_use]:
        w = _arrow_coeffs(op, fhat)
        arrows.extend((mo, w[:mo]) for mo in resolutions)
    return tuple(arrows)


def _tangent_frame(arrows: tuple[tuple[int, np.ndarray], ...], vals: np.ndarray,
                   dim: int) -> np.ndarray:
    """The basis of :func:`tangent_frame_at` from the frame's ``arrows``
    (:func:`_frame_arrows`) and the eigenfunction values at x, ``vals``,
    which must cover modes 0..m_out-1 (further modes are not read)."""
    U, sv, _ = np.linalg.svd(np.stack([vals[:mo] @ w for mo, w in arrows]).T,
                             full_matrices=False)
    rank = int(np.sum(sv > TANGENT_SVD_RTOL * sv[0])) if sv[0] > 0 else 0
    if rank < dim:
        raise RankDeficiencyError(
            f'pushforward arrows span only {rank} of {dim} tangent directions at x')
    return U[:, :dim]


def local_pca_tangent(points: PointCloud, x, k: int, dim: int) -> np.ndarray:
    """Baseline: top principal directions of the k nearest training points."""
    pts = points.points
    if not 1 <= k <= pts.shape[0]:
        raise ValueError(f'k must be in [1, {pts.shape[0]}]')
    if not 1 <= dim <= min(k, pts.shape[1]):
        raise ValueError('dim must be <= min(k, ambient dimension)')
    _, idx = cKDTree(pts).query(_one_point(x), k=k)
    nbrs = pts[np.atleast_1d(idx)]
    centered = nbrs - nbrs.mean(axis=0)
    _, _, Vt = np.linalg.svd(centered, full_matrices=False)
    basis = Vt[:dim].T
    anchor = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[anchor, np.arange(dim)])
    signs[signs == 0] = 1.0
    return basis * signs
