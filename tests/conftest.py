import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import onmanifold as om
from onmanifold.cidm import DUPLICATE_SCALE_FRAC, CidmConfig, _cut_shape, _knn_scales
from onmanifold.errors import DuplicatePointError
from onmanifold.repro import (equispaced_circle, fig2_pipeline, fig3_pipeline,
                              pgd_circle_pipeline)


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


# ---------------------------------------------------- naive dense kernel
# The training kernel as one N x N array: the reference that the row-block
# CSR build of ``cidm.fit`` must reproduce bit for bit.


def dense_squared_distances(pts: np.ndarray) -> np.ndarray:
    return squareform(pdist(pts, 'sqeuclidean'))


def dense_training_scales(d2: np.ndarray, k_nn: int, average: bool):
    """kNN scales of the training points (self excluded) and the data diameter."""
    N = d2.shape[0]
    if not 1 <= k_nn <= N - 1:
        raise ValueError(f'k_nn must be in [1, {N - 1}], got {k_nn}')
    dist = np.sqrt(d2)
    diameter = float(dist.max())
    # only the self-distance is excluded: a coincident pair keeps its zero
    np.fill_diagonal(dist, np.inf)
    scales = _knn_scales(dist, k_nn, average)
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
    K = _cut_shape(z, config.shape, d2.shape[0])
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
