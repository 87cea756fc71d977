"""The pinned desk-scale experiments behind ``onmanifold repro``.

The configurations are frozen, so every figure is deterministic end to
end.  A new figure is one new :data:`FIGURES` entry; the CLI only writes
and prints what the entry returns.
"""

import numpy as np
from scipy.spatial import cKDTree

from .cidm import CidmConfig, PointCloud, fit
from .nystrom import build_projector, extend_function, fourier_coefficients, project_many
from .ompgd import PgdConfig, om_pgd, sector_classifier, semantic_map
from .sec import SecBasisConfig, _arrow_coeffs, build_sec_frame, local_pca_tangent
from .synth import SynthSpec, fig1_target_function, generate, periodic_flags

FIG1 = dict(n=400, sigma=0.05, seed=21, k_nn=10, n_eigs=40, l_trunc=20)
FIG2 = dict(n=1500, sigma=0.1, seed=7, k_nn=24, n_eigs=40, l_trunc=20,
            n_angles=24, n_radii=10, radius_lo=0.3, radius_hi=2.0)
FIG3_2D = dict(n=800, sigma=0.05, seed=7, k_nn=80, epsilon=1.3, n_eigs=48,
               m_basis=8, m_inner=40, n_fields=2)
FIG3_4D = dict(n=800, sigma=0.05, seed=3, k_nn=50, epsilon=1.0, n_eigs=48,
               m_basis=8, m_inner=40, n_fields=2)
PGD_CIRCLE = dict(n=400, k_nn=8, n_eigs=40, l_trunc=20, m_basis=8, m_inner=40,
                  n_classes=4, boundary_offset=40.0, start_deg=30.0,
                  alpha_deg=2.0, max_steps=12)


def equispaced_circle(n: int) -> tuple[PointCloud, np.ndarray]:
    """Evenly spaced unit circle with its angles (degrees)."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
    return cloud, np.degrees(theta)[:, None]


def polar_grid(n_angles: int, n_radii: int, lo: float, hi: float) -> np.ndarray:
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    radii = np.linspace(lo, hi, n_radii)
    return np.array([[r * np.cos(a), r * np.sin(a)] for a in angles for r in radii])


def fig1_pipeline():
    """Noisy-circle function extension, CIDM vs the DM-normalized variant:
    the training rows (point, target) and the grid rows (point, both
    extensions, nearest training target)."""
    p = FIG1
    cloud, params = generate(SynthSpec(kind='circle', n_points=p['n'],
                                       noise_sigma=p['sigma'], seed=p['seed']))
    target = fig1_target_function(params[:, 0])
    grid_axis = np.linspace(-2.0, 2.0, 25)
    gx, gy = np.meshgrid(grid_axis, grid_axis, indexing='ij')
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    columns = [grid]
    for variant in ('cidm', 'cidm_dm_normalized'):
        model = fit(cloud, CidmConfig(k_nn=p['k_nn'], n_eigs=p['n_eigs'],
                                      kernel_variant=variant))
        coeffs = fourier_coefficients(model, target, p['l_trunc'])
        columns.append(extend_function(model, coeffs, grid))
    # nearest-training-point oracle values for comparison plots
    _, idx = cKDTree(cloud.points).query(grid)
    columns.append(target[idx])
    return {'fig1_train.csv': np.column_stack([cloud.points, target]),
            'fig1_grid.csv': np.column_stack(columns)}, []


def fig2_pipeline():
    """Nystrom projection of a polar grid onto a noisy circle."""
    p = FIG2
    cloud, params = generate(SynthSpec(kind='circle', n_points=p['n'],
                                       noise_sigma=p['sigma'], seed=p['seed']))
    model = fit(cloud, CidmConfig(k_nn=p['k_nn'], n_eigs=p['n_eigs']))
    projector = build_projector(model, p['l_trunc'])
    grid = polar_grid(p['n_angles'], p['n_radii'], p['radius_lo'], p['radius_hi'])
    proj1 = project_many(projector, grid, 1)
    proj2 = project_many(projector, proj1, 1)
    train2 = project_many(projector, cloud.points, 2)
    return {'cloud': cloud, 'grid': grid, 'proj1': proj1, 'proj2': proj2,
            'train_proj': train2, 'model': model, 'projector': projector}


def fig3_pipeline(kind4d: bool):
    """First SEC eigenfield arrows vs local-PCA tangents on the noisy circle."""
    p = FIG3_4D if kind4d else FIG3_2D
    spec = SynthSpec(kind='circle4d' if kind4d else 'circle', n_points=p['n'],
                     noise_sigma=p['sigma'], density_profile='angle_skewed',
                     noise_profile='angle_varying', seed=p['seed'])
    cloud, params = generate(spec)
    model = fit(cloud, CidmConfig(k_nn=p['k_nn'], n_eigs=p['n_eigs'],
                                  epsilon=p['epsilon']))
    frame = build_sec_frame(model, SecBasisConfig(m_basis=p['m_basis'],
                                                  m_inner=p['m_inner']),
                            n_fields=p['n_fields'])
    fhat = fourier_coefficients(model, cloud.points, p['m_basis'])
    arrows = model.eig_phi[:, :frame.m_out] @ _arrow_coeffs(frame.ops[0], fhat)
    theta = np.radians(params[:, 0])
    if kind4d:
        tangents = np.column_stack([-np.sin(theta), np.cos(theta),
                                    -np.sin(theta), np.cos(theta)]) / np.sqrt(2.0)
    else:
        tangents = np.column_stack([-np.sin(theta), np.cos(theta)])
    pca = {k: np.vstack([local_pca_tangent(cloud, x, k, 1).ravel()
                         for x in cloud.points])
           for k in (20, 40, 60)}
    sigma_theta = p['sigma'] * (1.0 + np.cos(theta / 2.0) ** 2)
    return {'cloud': cloud, 'params': params, 'arrows': arrows,
            'tangents': tangents, 'pca': pca, 'model': model, 'frame': frame,
            'clean_mask': sigma_theta <= 1.5 * sigma_theta.min()}


def pgd_circle_pipeline():
    """On-manifold PGD against the angular-sector classifier."""
    p = PGD_CIRCLE
    cloud, params = equispaced_circle(p['n'])
    model = fit(cloud, CidmConfig(k_nn=p['k_nn'], n_eigs=p['n_eigs']))
    projector = build_projector(model, p['l_trunc'])
    frame = build_sec_frame(model, SecBasisConfig(m_basis=p['m_basis'],
                                                  m_inner=p['m_inner']), n_fields=2)
    fhat = fourier_coefficients(model, cloud.points, p['m_basis'])
    label_map = semantic_map(model, params, periodic_flags('circle'), p['n_eigs'])
    oracle = sector_classifier(p['n_classes'], boundary_offset=p['boundary_offset'])
    start_rad = np.radians(p['start_deg'])
    start = np.array([np.cos(start_rad), np.sin(start_rad)])
    config = PgdConfig(alpha=np.radians(p['alpha_deg']), max_steps=p['max_steps'],
                       tangent_dim=1)
    trace = om_pgd(start, oracle.sector_of(p['start_deg']), oracle, projector,
                   frame, fhat, config, label_map=label_map)
    return {'trace': trace, 'oracle': oracle, 'model': model,
            'projector': projector, 'cloud': cloud, 'params': params}


def _fig2():
    out = fig2_pipeline()
    files = {'fig2_train.csv': out['cloud'].points, 'fig2_grid.csv': out['grid'],
             'fig2_proj1.csv': out['proj1'], 'fig2_proj2.csv': out['proj2'],
             'fig2_train_proj.csv': out['train_proj']}
    frac = float(np.mean(np.abs(np.linalg.norm(out['proj2'], axis=1) - 1.0) <= 0.05))
    return files, [f'fig2: {100 * frac:.1f}% of grid projections within |r-1| <= 0.05']


def _fig3():
    files, lines = {}, []
    for kind4d, tag in ((False, 'fig3'), (True, 'fig3_4d')):
        out = fig3_pipeline(kind4d)
        pts = out['cloud'].points
        files[f'{tag}_arrows.csv'] = np.hstack([pts, out['arrows']])
        for k, vecs in out['pca'].items():
            files[f'{tag}_pca{k}.csv'] = np.hstack([pts, vecs])
        cs = np.abs(np.sum(out['arrows'] * out['tangents'], axis=1))
        cs /= np.maximum(np.linalg.norm(out['arrows'], axis=1), 1e-300)
        clean = out['clean_mask']
        lines.append(f'{tag}: mean |cos| clean half {cs[clean].mean():.3f}, '
                     f'noisy half {cs[~clean].mean():.3f}')
    return files, lines


#: Figure name -> ``() -> (files, lines)``: file name -> CSV rows or PGD
#: trace, in writing order, and the lines printed after them.
FIGURES = {'fig1': fig1_pipeline, 'fig2': _fig2, 'fig3': _fig3,
           'pgd-circle': lambda: ({'pgd_trace.jsonl': pgd_circle_pipeline()['trace']}, [])}
