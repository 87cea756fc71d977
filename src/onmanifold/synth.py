"""Synthetic manifolds with ground-truth intrinsic parameters.

Every generator is a pure function of its spec (seeded), returns the
cloud together with the intrinsic parameters that produced each point,
and reports periodic parameters in degrees in [0, 360).
"""

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .cidm import PointCloud
from .errors import _choice, _size

__all__ = ['SynthSpec', 'generate', 'fig1_target_function', 'periodic_flags']

Kind = Literal['circle', 'circle4d', 'torus']
DensityProfile = Literal['uniform', 'angle_skewed']
NoiseProfile = Literal['constant', 'angle_varying']

TORUS_MAJOR = 2.0
TORUS_MINOR = 0.7


@dataclass(frozen=True)
class SynthSpec:
    kind: Kind
    n_points: int
    noise_sigma: float = 0.0
    density_profile: DensityProfile = 'uniform'
    noise_profile: NoiseProfile = 'constant'
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, 'n_points', _size('n_points', self.n_points, 8))
        object.__setattr__(self, 'seed', _size('seed', self.seed, 0))
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f'noise_sigma must be finite and >= 0, got {self.noise_sigma!r}')
        _choice('kind', self.kind, Kind)
        _choice('density_profile', self.density_profile, DensityProfile)
        _choice('noise_profile', self.noise_profile, NoiseProfile)


def periodic_flags(kind: Kind) -> list[bool]:
    """Which intrinsic parameters of a generator are periodic angles: all
    of them, one for a circle and two for the torus."""
    _choice('kind', kind, Kind)
    return [True, True] if kind == 'torus' else [True]


def _draw_angles(rng: np.random.Generator, n: int, profile: DensityProfile) -> np.ndarray:
    if profile == 'uniform':
        return rng.uniform(0.0, 2.0 * np.pi, n)
    # density proportional to 1 + 0.8 cos(theta); rejection against the envelope 1.8
    out = np.empty(0)
    while out.shape[0] < n:
        cand = rng.uniform(0.0, 2.0 * np.pi, 2 * (n - out.shape[0]) + 16)
        accept = rng.uniform(0.0, 1.0, cand.shape[0]) < (1.0 + 0.8 * np.cos(cand)) / 1.8
        out = np.concatenate([out, cand[accept]])
    return out[:n]


def _sigma_of(theta: np.ndarray, sigma: float, profile: NoiseProfile) -> np.ndarray:
    if profile == 'constant':
        return np.full_like(theta, sigma)
    return sigma * (1.0 + np.cos(theta / 2.0) ** 2)


def generate(spec: SynthSpec) -> tuple[PointCloud, np.ndarray]:
    """Sample a cloud; returns (points, intrinsic parameters).

    circle    radial noise: ((1+eta) cos, (1+eta) sin), eta ~ N(0, sigma(theta)^2)
    circle4d  isometric image (cos, sin, cos, sin)/sqrt(2) plus isotropic noise
    torus     (u, v) chart with R=2, r=0.7, plus isotropic noise
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_points
    theta = _draw_angles(rng, n, spec.density_profile)
    sig = _sigma_of(theta, spec.noise_sigma, spec.noise_profile)
    if spec.kind == 'circle':
        eta = sig * rng.standard_normal(n)
        pts = np.column_stack([(1.0 + eta) * np.cos(theta), (1.0 + eta) * np.sin(theta)])
        params = np.degrees(theta)[:, None] % 360.0
    elif spec.kind == 'circle4d':
        base = np.column_stack([np.cos(theta), np.sin(theta),
                                np.cos(theta), np.sin(theta)]) / np.sqrt(2.0)
        pts = base + sig[:, None] * rng.standard_normal((n, 4))
        params = np.degrees(theta)[:, None] % 360.0
    else:  # torus
        v = rng.uniform(0.0, 2.0 * np.pi, n)
        pts = np.column_stack([
            (TORUS_MAJOR + TORUS_MINOR * np.cos(v)) * np.cos(theta),
            (TORUS_MAJOR + TORUS_MINOR * np.cos(v)) * np.sin(theta),
            TORUS_MINOR * np.sin(v),
        ])
        if spec.noise_sigma > 0:
            pts = pts + sig[:, None] * rng.standard_normal((n, 3))
        params = np.degrees(np.column_stack([theta, v])) % 360.0
    return PointCloud(pts), params


def fig1_target_function(theta_deg) -> np.ndarray:
    """Smooth band-limited test function of the circle angle (degrees)."""
    t = np.radians(np.asarray(theta_deg, dtype=np.float64))
    return np.sin(2.0 * t) + 0.5 * np.cos(t)
