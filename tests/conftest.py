import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import onmanifold as om
from scipy.spatial.distance import cdist

from onmanifold import nystrom

from onmanifold.cidm import DUPLICATE_SCALE_FRAC, KERNEL_TAIL, CidmConfig, _knn_scales
from onmanifold.errors import DuplicatePointError, InvalidQueryError
from onmanifold.repro import (equispaced_circle, fig2_pipeline, fig3_pipeline,
                              pgd_circle_pipeline)

#: The name of the thread that runs the helper's half of ``cidm._both``.
HELPER = 'onmanifold-helper_0'


@pytest.fixture(scope='session')
def circle300():
    """Equispaced clean unit circle with a fitted model (k_nn=8)."""
    cloud, params = equispaced_circle(300)
    model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=40))
    return cloud, params, model


@pytest.fixture(scope='session')
def circle_full():
    """Noisy 200-point circle fitted with the full spectrum."""
    cloud, params = om.generate(om.SynthSpec(kind='circle', n_points=200,
                                             noise_sigma=0.1, seed=5))
    model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=200))
    return cloud, params, model


@pytest.fixture(scope='session')
def circle_clean_full():
    """Noiseless random 200-point circle fitted with the full spectrum."""
    cloud, params = om.generate(om.SynthSpec(kind='circle', n_points=200, seed=2))
    model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=200))
    return cloud, params, model


@pytest.fixture(scope='session')
def noisy_circle():
    """Small noisy circle for cheap out-of-sample tests."""
    cloud, params = om.generate(om.SynthSpec(kind='circle', n_points=300,
                                             noise_sigma=0.05, seed=3))
    model = om.fit(cloud, om.CidmConfig(k_nn=10, n_eigs=40))
    return cloud, params, model


@pytest.fixture(scope='session')
def circle_sec(circle300):
    """SEC frame plus embedding coefficients on the clean circle."""
    cloud, params, model = circle300
    frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=6, m_inner=30),
                               n_fields=3)
    fhat = om.fourier_coefficients(model, cloud.points, 6)
    return frame, fhat


@pytest.fixture(scope='session')
def fig2():
    return fig2_pipeline()


@pytest.fixture(scope='session')
def fig3_2d():
    return fig3_pipeline(kind4d=False)


@pytest.fixture(scope='session')
def fig3_4d():
    return fig3_pipeline(kind4d=True)


@pytest.fixture(scope='session')
def torus_assets():
    cloud, params = om.generate(om.SynthSpec(kind='torus', n_points=1500, seed=5))
    model = om.fit(cloud, om.CidmConfig(k_nn=24, n_eigs=80))
    frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=13, m_inner=72),
                               n_fields=4)
    fhat = om.fourier_coefficients(model, cloud.points, 13)
    return cloud, params, model, frame, fhat


@pytest.fixture(scope='session')
def pgd_run():
    return pgd_circle_pipeline()


@pytest.fixture(scope='session')
def semantic_model():
    """Wide-kernel clean circle for off-manifold semantic decoding."""
    cloud, params = om.generate(om.SynthSpec(kind='circle', n_points=1000, seed=2))
    model = om.fit(cloud, om.CidmConfig(k_nn=20, n_eigs=40, epsilon=2.5))
    return cloud, params, model


# ---------------------------------------------------- reference kernel values
# The kernel values with a masked store of the cut entries, and the
# out-of-sample row built from fresh temporaries: the plain forms that the
# mask multiply of ``cidm._cut_shape`` and the in-place arithmetic of the
# row builder (``row_weights``) must reproduce bit for bit.


def reference_cut_shape(z: np.ndarray, n_points: int) -> np.ndarray:
    cut = np.log(n_points) + KERNEL_TAIL
    far = z > cut
    np.minimum(z, cut, out=z)
    np.exp(np.negative(z, out=z), out=z)
    np.putmask(z, far, 0.0)
    return z


def kernel_rows(model, queries: np.ndarray):
    """``(rows, sums, scales)`` of the row builder at an (m, n) stack of
    ``queries``: ``nystrom._row_core`` of their squared distances."""
    return nystrom._row_core(model, nystrom._squared_distances(model, queries))


def row_weights(model, queries: np.ndarray):
    """``(weights, scales)`` of the out-of-sample rows of an (m, n) stack of
    ``queries``: :func:`kernel_rows`, each row divided in place by its sum,
    as ``eigenfunction_values`` divides it."""
    rows, sums, scales = kernel_rows(model, queries)
    rows /= sums
    return rows, scales


def reference_kernel_rows(model, queries: np.ndarray):
    """``(weights, dists, scales, delta2)`` of the out-of-sample rows."""
    cfg = model.config
    pts = model.training.points
    if queries.shape[1] != pts.shape[1]:
        raise InvalidQueryError(f'query dimension {queries.shape[1]} does not match '
                                f'the training dimension {pts.shape[1]}')
    d2 = cdist(queries, pts, 'sqeuclidean')
    if not d2.max() < np.inf:                      # NaN, inf, or overflow
        bad = int(np.argmin(d2.max(axis=1) < np.inf))
        raise InvalidQueryError(f'query row {bad}: the query or its squared distances '
                                'to the training points are not finite')
    # exact-zero distances are skipped, so a training point's row is its fitted row
    scales = _knn_scales(np.where(d2 > 0.0, d2, np.inf), cfg.k_nn)
    if np.isinf(scales).any():
        raise ValueError('fewer than k_nn distinct training points for a query')
    dists = np.sqrt(d2)
    delta2 = d2 / (scales[:, None] * model.knn_scale[None, :])
    z = delta2 / cfg.epsilon ** 2
    z -= z.min(axis=1, keepdims=True)
    u = reference_cut_shape(z, model.n_points)
    if cfg.kernel_variant == 'cidm_dm_normalized':
        u = u / model.raw_degree[None, :]
    return u / u.sum(axis=1, keepdims=True), dists, scales, delta2


def reference_jacobian(model, n_modes: int, query: np.ndarray) -> np.ndarray:
    """Rows ``ell < n_modes`` of the diffusion map's Jacobian at one
    ``query``: the arithmetic of ``nystrom._jacobian``, in its order, on the
    weights, distances, scale and delta^2 of :func:`reference_kernel_rows`,
    with the k nearest neighbors taken from a full sort (ties by index)."""
    weights, dists, scales, delta2 = (a[0] for a in reference_kernel_rows(model, query[None, :]))
    pts = model.training.points
    pos = np.flatnonzero(dists > 0.0)
    nbr = pos[np.lexsort((pos, dists[pos]))][:model.config.k_nn]
    grad_scale = ((query[None, :] - pts[nbr]) / dists[nbr][:, None]).mean(axis=0)
    lam = model._lambdas[:n_modes]
    phi = model.eig_phi[:, :n_modes]
    centered = phi - (weights @ phi)[None, :]
    U = centered * (weights / model.knn_scale)[:, None]
    drift = np.outer(U.sum(axis=0), query) - U.T @ pts
    s_coef = (weights * delta2) @ centered
    return -(2.0 * drift - np.outer(s_coef, grad_scale)) / (lam[:, None] * model.config.epsilon ** 2
                                                            * scales)


# ---------------------------------------------------- naive dense kernel
# The training kernel as one N x N array: the reference that the row-block
# CSR build of ``cidm.fit`` must reproduce bit for bit.


def dense_squared_distances(pts: np.ndarray) -> np.ndarray:
    return squareform(pdist(pts, 'sqeuclidean'))


def dense_training_scales(d2: np.ndarray, k_nn: int):
    """kNN scales of the training points (self excluded) and the data diameter."""
    N = d2.shape[0]
    if not 1 <= k_nn <= N - 1:
        raise ValueError(f'k_nn must be in [1, {N - 1}], got {k_nn}')
    diameter = float(np.sqrt(d2).max())
    # only the self-distance is excluded: a coincident pair keeps its zero
    excluded = d2.copy()
    np.fill_diagonal(excluded, np.inf)
    scales = _knn_scales(excluded, k_nn)
    if np.any(scales <= DUPLICATE_SCALE_FRAC * max(diameter, np.finfo(float).tiny)):
        bad = int(np.argmin(scales))
        raise DuplicatePointError(
            f'point {bad} has kNN scale {scales[bad]:.3e}; '
            'coincident training points make the rescaled distance undefined')
    return scales, diameter


def dense_kernel_matrix(d2: np.ndarray, scales: np.ndarray, config: CidmConfig):
    """Symmetric kernel matrix, its degree vector, and the raw CIDM degrees."""
    z = d2 / np.outer(scales, scales)
    z /= config.epsilon ** 2
    K = reference_cut_shape(z, d2.shape[0])
    raw_degree = K.sum(axis=1)
    if config.kernel_variant == 'cidm_dm_normalized':
        K /= np.outer(raw_degree, raw_degree)
        return K, K.sum(axis=1), raw_degree
    return K, raw_degree, None


def angle_diff_deg(a, b):
    """Signed angular difference a - b wrapped to (-180, 180]."""
    return (np.asarray(a) - np.asarray(b) + 180.0) % 360.0 - 180.0


def torus_tangent_basis(u_deg, v_deg, major=2.0, minor=0.7):
    u, v = np.radians(u_deg), np.radians(v_deg)
    tu = np.array([-(major + minor * np.cos(v)) * np.sin(u),
                   (major + minor * np.cos(v)) * np.cos(u), 0.0])
    tv = np.array([-minor * np.sin(v) * np.cos(u),
                   -minor * np.sin(v) * np.sin(u), minor * np.cos(v)])
    Q, _ = np.linalg.qr(np.column_stack([tu, tv]))
    return Q


def principal_angles_deg(A, B):
    s = np.linalg.svd(A.T @ B, compute_uv=False)
    return np.degrees(np.arccos(np.clip(s, -1.0, 1.0)))


# ---------------------------------------------------- reference sector classifier
# The classifier with its centre angles rebuilt and converted on every call:
# the plain form that the radians derived once by ``ompgd.SectorClassifier``
# must reproduce bit for bit.


class ReferenceSectorClassifier:
    def __init__(self, n_classes: int, boundary_offset_deg: float = 0.0, kappa: float = 8.0):
        self.n_classes = n_classes
        self.boundary_offset_deg = boundary_offset_deg
        self.kappa = kappa

    @property
    def sector_width_deg(self) -> float:
        return 360.0 / self.n_classes

    @property
    def center_angles_deg(self) -> np.ndarray:
        w = self.sector_width_deg
        return (self.boundary_offset_deg + (np.arange(self.n_classes) + 0.5) * w) % 360.0

    def _logits(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        theta = np.arctan2(x[1], x[0])
        centers = np.radians(self.center_angles_deg)
        return self.kappa * np.cos(theta - centers), theta

    def predict(self, x: np.ndarray) -> int:
        z, _ = self._logits(np.asarray(x, dtype=np.float64))
        return int(np.argmax(z))

    def loss(self, x: np.ndarray, target_label: int) -> float:
        z, _ = self._logits(np.asarray(x, dtype=np.float64))
        z = z - z.max()
        return float(np.log(np.exp(z).sum()) - z[target_label])

    def loss_grad(self, x: np.ndarray, target_label: int) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        z, theta = self._logits(x)
        p = np.exp(z - z.max())
        p /= p.sum()
        p[target_label] -= 1.0
        centers = np.radians(self.center_angles_deg)
        dloss_dtheta = float(p @ (-self.kappa * np.sin(theta - centers)))
        r2 = x[0] ** 2 + x[1] ** 2
        grad_theta = np.array([-x[1], x[0]]) / r2
        return dloss_dtheta * grad_theta
