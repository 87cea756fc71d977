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
operator coefficients ``v_ij = sum_lk v^{lk} G_ijlk``.

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
from .errors import (DegenerateFrameError, EigensolverFailure,
                     RankDeficiencyError, SingularGramError)
from .nystrom import _one_point, eigenfunction_values, fourier_coefficients

__all__ = [
    'SecBasisConfig',
    'SecFrame',
    'OperatorRep',
    'EigenField',
    'structure_constants',
    'metric_tensor',
    'dirichlet_energy_tensor',
    'sobolev_basis',
    'eigenfields',
    'field_operator',
    'build_sec_frame',
    'pushforward',
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
        if self.tau_frac < 0:
            raise ValueError('tau_frac must be >= 0')

    def resolved_m_inner(self, n_eigs: int) -> int:
        m_inner = self.m_inner if self.m_inner is not None else min(2 * self.m_basis ** 2, n_eigs)
        if m_inner > n_eigs:
            raise ValueError(f'm_inner={m_inner} exceeds the model n_eigs={n_eigs}')
        return m_inner


@dataclass(frozen=True)
class EigenField:
    """A minimal-Dirichlet-energy field: energy and frame coefficients."""

    eta: float
    coeffs: np.ndarray


@dataclass(frozen=True)
class OperatorRep:
    """Matrix of operator coefficients v_ij = <phi_i, v(phi_j)>.

    Rows index the output mode i (``m_out`` of them), columns the input
    mode j < m_basis.  :func:`field_operator` fills every output mode up
    to m_inner.
    """

    v_op: np.ndarray

    @property
    def m_out(self) -> int:
        return self.v_op.shape[0]

    @property
    def m_basis(self) -> int:
        return self.v_op.shape[1]


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
                n_fields: int) -> list[EigenField]:
    """Minimal-energy fields of the pencil (E, G) in the Sobolev basis.

    Solves ``E~ c~ = eta G~ c~`` with ``E~ = U~^T E U~`` (symmetric
    definite, Cholesky-reduced), returns the ``n_fields`` smallest-eta
    fields with frame coefficients ``U~ c~``, G-normalized, eta ascending,
    signs fixed so the largest-magnitude coefficient is positive.
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
    fields = []
    for a in range(n_fields):
        coeffs = u_tilde @ C[:, a]
        sign = np.sign(coeffs[np.argmax(np.abs(coeffs))])
        fields.append(EigenField(eta=float(eta[a]), coeffs=coeffs * (sign or 1.0)))
    return fields


def field_operator(c: np.ndarray, xi: np.ndarray, coeffs: np.ndarray,
                   m_basis: int) -> OperatorRep:
    """Operator coefficients v_ij = sum_lk v^{lk} G_ijlk for every output
    mode i < m_inner.

    The output index i enters only through ``c_lsi``, so rows i < m_basis
    are the square truncation ``(G @ coeffs).reshape(m_basis, m_basis)``,
    and the further rows resolve the field's action on the embedding more
    sharply.
    """
    xi = np.asarray(xi, dtype=np.float64)
    m_inner = _check_c_xi(c, xi, m_basis)
    V = np.asarray(coeffs, dtype=np.float64).reshape(m_basis, m_basis)
    P = _plus_weighted(c, xi, m_basis, m_inner)
    v_op = 0.5 * np.einsum('lk,jks,sli->ij', V, P, c[:m_inner, :m_basis, :m_inner],
                           optimize=True)
    return OperatorRep(v_op=v_op)


@dataclass(frozen=True)
class SecFrame:
    """The minimal-energy fields of one fitted model, as queries read them.

    ``fields`` carry full m_basis^2 frame coefficient vectors (zeros on
    the pairs (i, 0), since ``grad(phi_0) = 0``) and ``ops`` their
    operators over m_inner output modes (:func:`field_operator`), which
    is what a tangent frame or a PGD step reads.  The tensors the fields
    were solved from are not kept.
    """

    config: SecBasisConfig
    m_inner: int
    fields: list[EigenField]
    ops: list[OperatorRep]

    @property
    def m_basis(self) -> int:
        return self.config.m_basis

    @property
    def m_out(self) -> int:
        """Output modes of the field operators: the eigenfunction values a
        tangent frame reads."""
        return self.ops[0].m_out


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
    m = config.m_basis
    m_inner = config.resolved_m_inner(model.n_eigs)
    c = structure_constants(model, m_inner)
    xi = model.eig_xi[:m_inner]
    G = metric_tensor(c, xi, m)
    E = dirichlet_energy_tensor(c, xi, m)
    # frame indices i in [0, m), j in [1, m): phi_i grad(phi_0) vanishes
    frame_index = np.array([i * m + j for i in range(m) for j in range(1, m)])
    G_r = G[np.ix_(frame_index, frame_index)]
    E_r = E[np.ix_(frame_index, frame_index)]
    u_tilde = sobolev_basis(E_r, G_r, config.tau_frac)
    candidates = eigenfields(E_r, G_r, u_tilde, n_fields + CANDIDATE_SURPLUS)

    fhat = fourier_coefficients(model, model.training.points, m)
    screened = []
    for f in candidates:
        coeffs = np.zeros(m * m)
        coeffs[frame_index] = f.coeffs
        op = field_operator(c, xi, coeffs, m)
        mass, rough = _arrow_screen(model, _arrow_coeffs(op, fhat))
        screened.append((EigenField(eta=f.eta, coeffs=coeffs), op, mass, rough))
    max_mass = max(mass for _, _, mass, _ in screened)
    if max_mass <= 0:
        raise DegenerateFrameError('every candidate eigenfield has zero arrow mass')
    massive = [s for s in screened if s[2] >= ARROW_MASS_FLOOR * max_mass]
    smoothest = sorted(massive, key=lambda s: s[3])[:n_fields]
    kept = sorted(smoothest, key=lambda s: s[0].eta)
    fields = [fld for fld, _, _, _ in kept]
    ops = [op for _, op, _, _ in kept]
    return SecFrame(config=config, m_inner=m_inner, fields=fields, ops=ops)


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


def _arrow_coeffs(op: OperatorRep, fhat) -> np.ndarray:
    """The field's arrows in the eigenbasis, ``v_op @ fhat``: row i holds
    the coefficients of phi_i, so the arrow at x is the eigenfunction
    values there times this (:func:`pushforward`)."""
    fhat = np.asarray(fhat, dtype=np.float64)
    if fhat.shape[0] < op.m_basis:
        raise ValueError(f'fhat must cover at least {op.m_basis} modes')
    return op.v_op @ fhat[:op.m_basis]


def pushforward(model: CidmModel, op: OperatorRep, fhat: np.ndarray, x) -> np.ndarray:
    """Arrow of the field at x: (DF(x) v_x)_k = sum_ij v_ij fhat[j, k] phi_i(x).

    ``fhat`` holds generalized Fourier coefficients of the embedding
    (rows are modes, columns ambient coordinates); rows beyond the
    operator's input range are ignored.
    """
    return eigenfunction_values(model, x, op.m_out) @ _arrow_coeffs(op, fhat)


def tangent_frame_at(model: CidmModel, frame: SecFrame, fhat: np.ndarray,
                     x, dim: int) -> np.ndarray:
    """Orthonormal tangent basis at x from the smoothest eigenfields.

    Stacks pushforward arrows of the first ``min(2 * dim, available)``
    fields, takes the SVD, and returns the ``dim`` leading left singular
    vectors.  Each field contributes its arrow at three output-mode
    truncations (rows of the extended operator are truncation-independent,
    so these are free); the tangent direction is common to all of them
    while reconstruction noise is not, which steadies the SVD.  The one
    O(N) step is the kernel row at x; the PGD loop builds the frame from
    a row it has already computed at x instead, and from the arrows it
    computed once for the attack (:func:`_frame_arrows`).

    Raises
    ------
    RankDeficiencyError
        If fewer than ``dim`` singular values clear the rank threshold:
        the supplied fields do not span the tangent space at x.
    """
    vals = eigenfunction_values(model, _one_point(x), frame.m_out)
    return _tangent_frame(_frame_arrows(frame, fhat, dim), vals, dim)


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
    if len(frame.fields) < dim:
        raise ValueError(f'need at least {dim} eigenfields, have {len(frame.fields)}')
    n_use = min(2 * dim, len(frame.fields))
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
