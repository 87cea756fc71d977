"""On-manifold projected gradient descent.

Each step takes the oracle's loss gradient at the current on-manifold
point, projects it onto the SEC tangent frame there, steps by a fixed
amount, and Nystrom-projects the result back onto the manifold; the loop
stops at the first misclassified projected iterate.  Intrinsic
(semantic) coordinates of every iterate are recovered by extending the
known training labels.

Every Nystrom row costs O(N), and each iterate needs one row: the
semantic labels of ``x_next`` are read from it, and so is the tangent
frame of the next step, whose ``x_on`` is that ``x_next``.  What a step
reads at a point is one contraction of that row with an operand fixed per
attack (:func:`_attack_operand`): an (N, F n + p) matrix whose columns are
each of the F arrow coefficient blocks of the tangent frame
(``sec._frame_arrows``), n columns each, and then the label map's p
coefficient columns, every block premultiplied by ``eig_phi[:, :modes] /
lambda[:modes]``.  The row times the operand, divided by the row sum
(``nystrom._contract``), is the reading at the point: its F arrows, whose
SVD gives the tangent frame (``sec._tangent_basis``), and its extended
label columns, which decode to the semantic labels.  A step reads the
row at ``x_next`` once, with a label map, and returns the reading;
:func:`om_pgd` hands it to the next step.  With the two projection rows,
a step makes three rows.

A step is bound by per-call work, so what it reads that does not change
within an attack is derived once: per model, the kernel eigenvalues,
the extendable modes and the kernel cutoff (when the model is made, see
``cidm.CidmModel``); per attack, the operand, which :func:`om_pgd`
builds before its first step and hands to every step; and per
classifier, the sector centres in radians.  None of them is stored in a
bundle.  A reading differs from the arrows and labels taken from the
eigenfunction values at the point (``tangent_frame_at``,
:func:`semantic_labels`) only in the last bits, since the operand sums
the same terms in another order.
"""

import math
from dataclasses import dataclass, field
from typing import Literal, Protocol, Sequence

import numpy as np

# rows are looked up as nystrom attributes at call time, as nystrom's own
# callers look them up, so one patch of a nystrom function sees every call
from . import nystrom
from .cidm import CidmModel
from .errors import StalledError, _check_finite, _size
from .nystrom import NystromProjector, _loss_gradient, _norm, fourier_coefficients, project_many
# the step reads its frame through _frame_arrows and _tangent_basis;
# tangent_frame_at stays importable from here because perfbench/tracing.py
# wraps it by this name
from .sec import SecFrame, _frame_arrows, _tangent_basis, tangent_frame_at

__all__ = [
    'ClassifierOracle',
    'SectorClassifier',
    'sector_classifier',
    'SemanticMap',
    'semantic_map',
    'semantic_labels',
    'PgdConfig',
    'PgdStep',
    'PgdTrace',
    'om_pgd_step',
    'om_pgd',
]

#: Tangent gradients this small relative to the raw gradient mean the
#: projection annihilated it.
STALL_GRAD_RTOL = 1e-9

#: Iterate displacement this small relative to the data diameter counts
#: as no motion.
STALL_MOVE_RTOL = 1e-9

#: Sharpness of the sector classifier's logits ``SECTOR_KAPPA * cos(...)``.
SECTOR_KAPPA = 8.0


class ClassifierOracle(Protocol):
    """Pluggable classifier: deterministic labels and input-space loss gradients."""

    def predict(self, x: np.ndarray) -> int: ...

    def loss_grad(self, x: np.ndarray, target_label: int) -> np.ndarray: ...


@dataclass(frozen=True)
class SectorClassifier:
    """Angular-sector classifier on the plane with a smooth softmax loss.

    Sector ``c`` covers ``[offset + c*w, offset + (c+1)*w)`` degrees,
    ``w = 360 / n_classes``; logits are ``SECTOR_KAPPA * cos(theta - c_c)``
    so ``predict`` returns the sector whose center is nearest.  Boundary
    positions are exact, which makes PGD termination assertions easy.
    The centers in radians, which every logit reads, are derived once
    when the classifier is made.
    """

    n_classes: int
    boundary_offset_deg: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, 'n_classes', _size('n_classes', self.n_classes, 2))
        if not math.isfinite(self.boundary_offset_deg):
            raise ValueError(f'boundary_offset_deg must be finite, '
                             f'got {self.boundary_offset_deg!r}')
        centers = np.radians(self.center_angles_deg)
        centers.flags.writeable = False
        object.__setattr__(self, '_centers_rad', centers)

    @property
    def sector_width_deg(self) -> float:
        return 360.0 / self.n_classes

    @property
    def center_angles_deg(self) -> np.ndarray:
        w = self.sector_width_deg
        return (self.boundary_offset_deg + (np.arange(self.n_classes) + 0.5) * w) % 360.0

    @property
    def boundary_angles_deg(self) -> np.ndarray:
        w = self.sector_width_deg
        return (self.boundary_offset_deg + np.arange(self.n_classes) * w) % 360.0

    def sector_of(self, angle_deg: float) -> int:
        rel = (angle_deg - self.boundary_offset_deg) % 360.0
        return int(rel // self.sector_width_deg) % self.n_classes

    def _logits(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        theta = np.arctan2(x[1], x[0])
        return SECTOR_KAPPA * np.cos(theta - self._centers_rad), theta

    def predict(self, x: np.ndarray) -> int:
        z, _ = self._logits(np.asarray(x, dtype=np.float64))
        return int(np.argmax(z))

    def loss(self, x: np.ndarray, target_label: int) -> float:
        """Softmax loss at x; refuses a label as :meth:`loss_grad` does."""
        # numpy would wrap a negative index, and refuse a large one unnamed
        target_label = _size('target_label', target_label, 0, self.n_classes - 1)
        z, _ = self._logits(np.asarray(x, dtype=np.float64))
        z = z - z.max()
        return float(np.log(np.exp(z).sum()) - z[target_label])

    def loss_grad(self, x: np.ndarray, target_label: int) -> np.ndarray:
        """Gradient of :meth:`loss` in x.

        Raises
        ------
        ValueError
            If ``target_label`` is not an integer in [0, n_classes), or at
            the origin, where the angle, and so the gradient, is undefined.
        """
        target_label = _size('target_label', target_label, 0, self.n_classes - 1)
        x = np.asarray(x, dtype=np.float64)
        r2 = x[0] ** 2 + x[1] ** 2
        if r2 == 0.0:
            raise ValueError('x has squared radius 0: the angle, and so the loss '
                             'gradient, is undefined at the origin')
        z, theta = self._logits(x)
        p = np.exp(z - z.max())
        p /= p.sum()
        p[target_label] -= 1.0
        dloss_dtheta = float(p @ (-SECTOR_KAPPA * np.sin(theta - self._centers_rad)))
        grad_theta = np.array([-x[1], x[0]]) / r2
        return dloss_dtheta * grad_theta


def sector_classifier(n_classes: int, boundary_offset: float = 0.0) -> SectorClassifier:
    """Desk-scale stand-in for an image classifier, with known boundaries."""
    return SectorClassifier(n_classes=n_classes, boundary_offset_deg=boundary_offset)


@dataclass(frozen=True)
class SemanticMap:
    """Fourier coefficients of the training set's intrinsic parameters.

    Periodic parameters are stored as (cos, sin) column pairs so the
    0/360 seam never appears in the extended functions; they decode back
    to degrees via atan2.  ``coeffs`` must be 2-D with those columns, and
    finite (:func:`_check_finite`).
    """

    coeffs: np.ndarray
    periodic: tuple[bool, ...]

    def __post_init__(self):
        shape, width = np.shape(self.coeffs), sum(2 if p else 1 for p in self.periodic)
        if not (len(shape) == 2 and shape[1] == width):
            raise ValueError(f'semantic_coeffs has shape {shape}, but periodic is '
                             f'{list(self.periodic)}: semantic_coeffs needs {width} columns, '
                             'two per periodic parameter and one per plain one')
        _check_finite('semantic_coeffs', np.asarray(self.coeffs))

    @property
    def n_params(self) -> int:
        return len(self.periodic)

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]


def semantic_map(model: CidmModel, params_deg: np.ndarray,
                 periodic: Sequence[bool], l_trunc: int) -> SemanticMap:
    """Encode intrinsic parameters (degrees for periodic ones) for extension."""
    params = np.asarray(params_deg, dtype=np.float64)
    if params.ndim == 1:
        params = params[:, None]
    if params.shape[0] != model.n_points:
        raise ValueError(f'params_deg has shape {np.shape(params_deg)}, but points has shape '
                         f'{model.training.points.shape}: params_deg needs one row per '
                         'training point')
    _check_finite('params_deg', params)
    if params.shape[1] != len(periodic):
        raise ValueError('one periodic flag per parameter column required')
    cols = []
    for j, per in enumerate(periodic):
        if per:
            rad = np.radians(params[:, j])
            cols.extend([np.cos(rad), np.sin(rad)])
        else:
            cols.append(params[:, j])
    encoded = np.column_stack(cols)
    return SemanticMap(coeffs=fourier_coefficients(model, encoded, l_trunc),
                       periodic=tuple(bool(p) for p in periodic))


def semantic_labels(model: CidmModel, label_map: SemanticMap, x) -> np.ndarray:
    """Intrinsic parameters of one point x; periodic ones in degrees in [0, 360).

    Raises
    ------
    InvalidQueryError
        If x is not a single point (a 1-D array) of the training dimension.
    ValueError
        If ``label_map.n_modes`` is past the model's ``n_eigs``.
    """
    n_modes = _size('label_map.n_modes', label_map.n_modes, 1, model.n_eigs)
    q = nystrom._queries(x, model.training.ambient_dim, stack=False)
    vals = nystrom.eigenfunction_values(model, q, n_modes)
    return _decode_labels(label_map, vals @ label_map.coeffs)


def _decode_labels(label_map: SemanticMap, ext: np.ndarray) -> np.ndarray:
    """:func:`semantic_labels` from the extended columns at x, ``ext``: the
    values there of the functions whose coefficients are ``label_map.coeffs``,
    one per column."""
    out = np.empty(label_map.n_params)
    col = 0
    for j, per in enumerate(label_map.periodic):
        if per:
            out[j] = np.degrees(np.arctan2(ext[col + 1], ext[col])) % 360.0
            col += 2
        else:
            out[j] = ext[col]
            col += 1
    return out


@dataclass(frozen=True)
class PgdConfig:
    """Step size, iteration budget and tangent dimension of the PGD loop.

    A step moves ``alpha`` along the tangent part of the unit gradient and
    projects back with two Nystrom iterations of the projector.
    """

    alpha: float
    max_steps: int
    tangent_dim: int = 1

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f'alpha must be finite and >= 0, got {self.alpha}')
        for name in ('max_steps', 'tangent_dim'):
            object.__setattr__(self, name, _size(name, getattr(self, name), 1))


@dataclass(frozen=True)
class PgdStep:
    """One on-manifold PGD step, in execution order.

    ``x_next_reading`` holds what the step read at ``x_next`` through its
    attack's operand for its semantic labels (:func:`_attack_operand`;
    None without a label map); it is not part of :meth:`PgdTrace.to_records`.
    """

    index: int
    x_on: np.ndarray
    g_raw: np.ndarray
    g_tan: np.ndarray
    x_stepped: np.ndarray
    x_next: np.ndarray
    label_pred: int
    semantics: np.ndarray | None
    x_next_reading: np.ndarray | None = field(default=None, repr=False)


Status = Literal['misclassified', 'max_steps', 'stalled']


@dataclass(frozen=True)
class PgdTrace:
    start: np.ndarray
    x0: np.ndarray
    true_label: int
    steps: list[PgdStep] = field(default_factory=list)
    status: Status = 'max_steps'

    def to_records(self) -> list[dict]:
        """JSON-friendly per-step records."""
        arrays = ('x_on', 'g_raw', 'g_tan', 'x_stepped', 'x_next')
        return [{'step': s.index, **{name: getattr(s, name).tolist() for name in arrays},
                 'label_pred': s.label_pred,
                 'semantics': None if s.semantics is None else s.semantics.tolist()}
                for s in self.steps]


@dataclass(frozen=True)
class _AttackOperand:
    """What every step of one attack reads through a point's kernel row.

    ``matrix`` is the read-only (N, F n + p) operand of the module
    docstring: ``arrow_cols`` = F n columns of arrows and then the p
    columns of ``label_map`` (none without one), which it was built for.
    """

    matrix: np.ndarray
    arrow_cols: int
    label_map: SemanticMap | None


def _attack_operand(model: CidmModel, frame: SecFrame, fhat: np.ndarray, dim: int,
                    label_map: SemanticMap | None) -> _AttackOperand:
    """The operand of an attack with a tangent frame of dimension ``dim``,
    once ``frame`` and ``fhat`` pass the SEC-section rule and ``dim`` its
    size rule (``sec._frame_arrows``), and the modes it reads are
    extendable (``nystrom._mode_lambdas``).  Each arrow coefficient block
    (mo, n) and the label coefficients (k, p) are multiplied by the first
    mo or k columns of one scaled copy ``eig_phi / lambda``."""
    arrows = _frame_arrows(model, frame, fhat, dim)
    label_modes = 0 if label_map is None else label_map.n_modes
    modes = max(frame.m_out, label_modes)
    scaled = model.eig_phi[:, :modes] / nystrom._mode_lambdas(model, modes)
    blocks = [scaled[:, :mo] @ w for mo, w in arrows]
    if label_map is not None:
        blocks.append(scaled[:, :label_modes] @ label_map.coeffs)
    matrix = np.hstack(blocks)
    matrix.flags.writeable = False
    return _AttackOperand(matrix, len(arrows) * model.training.ambient_dim, label_map)


def _reading(model: CidmModel, matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The reading at one point ``x`` that passed the query rule: its one
    Nystrom row (``nystrom._rows``) through an attack's operand ``matrix``."""
    return nystrom._contract(matrix, *nystrom._rows(model, x[None, :]))[0]


def om_pgd_step(x_on: np.ndarray, true_label: int, oracle: ClassifierOracle,
                projector: NystromProjector, frame: SecFrame, fhat: np.ndarray,
                config: PgdConfig, index: int = 0,
                label_map: SemanticMap | None = None, *,
                x_on_reading: np.ndarray | None = None,
                operand: _AttackOperand | None = None) -> PgdStep:
    """One gradient / tangent-project / step / Nystrom-project cycle.

    The step reads the tangent frame at ``x_on``, and the semantic labels
    at ``x_next`` with a label map, through its attack's ``operand``
    (:func:`_attack_operand`, which :func:`om_pgd` builds once per attack);
    without one it builds it here, after ``frame`` and ``fhat`` pass the
    SEC-section rule.  A step handed ``operand`` reads neither ``frame``
    nor ``fhat``.  The reading at ``x_on`` is ``x_on_reading`` if given
    (the ``x_next_reading`` of the step that produced ``x_on``), else one
    fresh Nystrom row through the operand.  Carrying either changes no
    output bit.

    Raises
    ------
    ValueError
        If ``frame`` and ``fhat`` fail the SEC-section rule (without
        ``operand``), if ``operand`` was built for another label map, if
        ``x_on_reading`` does not hold one entry per column of the
        operand, or if the oracle's ``loss_grad`` fails the loss gradient
        rule (``nystrom._loss_gradient``): the shape of ``x_on``, a finite
        norm.
    RankDeficiencyError
        Propagated from the tangent frame when the fields do not span.
    StalledError
        If the tangent projection annihilates the gradient or the
        projected step does not move the iterate.
    """
    model = projector.model
    x_on = np.asarray(x_on, dtype=np.float64)
    if operand is None:
        operand = _attack_operand(model, frame, fhat, config.tangent_dim, label_map)
    elif operand.label_map is not label_map:
        raise ValueError('operand was built for another label map than label_map')
    matrix, split = operand.matrix, operand.arrow_cols
    if x_on_reading is not None and np.shape(x_on_reading) != (matrix.shape[1],):
        raise ValueError(f'x_on_reading must have shape ({matrix.shape[1]},), '
                         f'got {np.shape(x_on_reading)}')
    g_raw, raw_norm = _loss_gradient(oracle.loss_grad(x_on, true_label), x_on,
                                     'loss_grad', 'x_on')
    if raw_norm == 0.0:
        raise StalledError('loss gradient vanished at the current iterate')
    g = g_raw / raw_norm
    if x_on_reading is None:
        x_on_reading = _reading(model, matrix, nystrom._queries(
            x_on, model.training.ambient_dim, stack=False))
    T = _tangent_basis(x_on_reading[:split].reshape(-1, x_on.shape[0]).T, config.tangent_dim)
    g_tan = T @ (T.T @ g)
    if _norm(g_tan) <= STALL_GRAD_RTOL * _norm(g):
        raise StalledError('gradient is orthogonal to the tangent frame')
    x_stepped = x_on + config.alpha * g_tan
    x_next = project_many(projector, x_stepped)
    if _norm(x_next - x_on) < STALL_MOVE_RTOL * model.data_diameter:
        raise StalledError('projected step did not move the iterate')
    label_pred = int(oracle.predict(x_next))
    x_next_reading = semantics = None
    if label_map is not None:
        x_next_reading = _reading(model, matrix, x_next)
        semantics = _decode_labels(label_map, x_next_reading[split:])
    return PgdStep(
        index=index,
        x_on=x_on,
        g_raw=g_raw,
        g_tan=g_tan,
        x_stepped=x_stepped,
        x_next=x_next,
        label_pred=label_pred,
        semantics=semantics,
        x_next_reading=x_next_reading,
    )


def om_pgd(start: np.ndarray, true_label: int | None, oracle: ClassifierOracle,
           projector: NystromProjector, frame: SecFrame, fhat: np.ndarray,
           config: PgdConfig, label_map: SemanticMap | None = None) -> PgdTrace:
    """Iterate :func:`om_pgd_step` until misclassification, stall, or max_steps.

    The start point may be off-manifold; it is projected before step 1.
    A ``true_label`` of None means the oracle's label of that projection.
    The operand every step reads through is fixed for the attack, so it is
    built once (:func:`_attack_operand`), and each step gets the reading
    its predecessor made at its ``x_on``, so an iterate's Nystrom row is
    computed once.  Stalls terminate the trace with status ``'stalled'``
    rather than propagating.
    """
    start = np.asarray(start, dtype=np.float64)
    x0 = project_many(projector, start)
    if true_label is None:
        true_label = int(oracle.predict(x0))
    operand = _attack_operand(projector.model, frame, fhat, config.tangent_dim, label_map)
    x_on, x_on_reading = x0, None
    steps: list[PgdStep] = []
    status: Status = 'max_steps'
    for i in range(config.max_steps):
        try:
            step = om_pgd_step(x_on, true_label, oracle, projector, frame, fhat,
                               config, index=i, label_map=label_map,
                               x_on_reading=x_on_reading, operand=operand)
        except StalledError:
            status = 'stalled'
            break
        steps.append(step)
        x_on, x_on_reading = step.x_next, step.x_next_reading
        if step.label_pred != true_label:
            status = 'misclassified'
            break
    return PgdTrace(start=start, x0=x0, true_label=true_label, steps=steps, status=status)
