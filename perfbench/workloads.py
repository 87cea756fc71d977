"""The three benchmark workloads, driven through the public onmanifold API.

Each workload has a ``setup`` (timed as ``setup_s``), an ``operation``
(the closed loop times it) and a ``check`` that mirrors the frozen
acceptance tolerances and runs outside the timed region.  Inputs come
from the workload seed alone: operation ``i`` draws its queries or start
point from ``default_rng([seed, stream, i])``.

Every workload also names its own end-to-end metrics: ``op_metric`` is
the median operation time, ``rate_metric`` the work completed per
second, ``tail_metric`` the tail percentile of the operation time and
``quality_metric`` the share of outputs that pass the quality check.
``outputs`` is the number of outputs one operation judges, which a
raised operation fails in full.  ``setup_probe`` and ``op_probe`` name the
``SpeedProbe`` kernel that tracks the machine speed for the set-up and
for the operation; ``operation`` gets the probe so that a long one can
sample it between its stages.
"""

import os
from dataclasses import dataclass, field

import numpy as np

import onmanifold as om
from onmanifold.synth import TORUS_MAJOR, TORUS_MINOR

from tracing import TimedOracle, Tracer


@dataclass
class Check:
    """Outcome of one operation's output check."""

    ok: bool
    good: int          # outputs that pass the quality criterion
    total: int         # outputs judged
    items: int         # work items the operation completed
    info: dict = field(default_factory=dict)


#: Fractional part of the golden ratio; its multiples fill [0, 1) evenly.
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

#: Seed of the pinned fig2 noisy circle (``repro fig2``).
FIG2_SEED = 7


def _stream(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


class TorusBuild:
    """Full model build on the pinned N=4000 torus, then 200 tangent planes."""

    name = 'torus-build'
    op_metric = ('build_s', 's', 1.0)
    rate_metric = None
    tail_metric = None
    quality_metric = 'tangent_hit_frac'
    item = 'builds'
    setup_probe, op_probe = 'calls', 'arrays'
    hit_deg = 20.0          # c07: tangent plane within 20 degrees
    min_hit_frac = 0.85     # c07: at least 85% of queries

    def __init__(self, scale: str, scratch: str):
        self.n_points, self.outputs = (4000, 200) if scale == 'full' else (1000, 20)
        self.bundle_path = os.path.join(scratch, f'torus-{os.getpid()}.bundle')

    def setup(self, seed: int, tracer: Tracer):
        query_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
        with tracer.span('synth.generate'):
            cloud, _ = om.generate(om.SynthSpec(kind='torus', n_points=self.n_points, seed=seed))
        with tracer.span('synth.generate'):
            queries, qparams = om.generate(om.SynthSpec(kind='torus', n_points=self.outputs,
                                                        seed=query_seed))
        if tracer.enabled:
            # the distances + sort share of the fit, as a separate public call
            with tracer.span('cidm.knn_scales'):
                om.knn_scales(cloud, 24)
        return cloud, queries.points, qparams

    def queries(self, seed: int, i: int) -> None:
        return None     # every build runs on the set-up cloud and queries

    def operation(self, state, query, tracer: Tracer, probe):
        cloud, queries, _ = state
        with tracer.span('cidm.fit', memory=True):
            model = om.fit(cloud, om.CidmConfig(k_nn=24, n_eigs=80))
        probe.sample(force=True)    # a build is long: sample the machine inside it
        with tracer.span('sec.build_sec_frame', memory=True):
            frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=13, m_inner=72),
                                       n_fields=4)
        probe.sample(force=True)
        with tracer.span('nystrom.fourier_coefficients'):
            fhat = om.fourier_coefficients(model, cloud.points, 13)
        with tracer.span('nystrom.build_projector'):
            projector = om.build_projector(model, 20)
        bundle = om.ModelBundle(model=model, xhat=projector.xhat, sec_frame=frame,
                                sec_fhat=fhat)
        try:
            with tracer.span('bundle.save') as rec:
                om.save_bundle(self.bundle_path, bundle)
            if rec is not None:
                rec[5] = os.path.getsize(self.bundle_path)
            with tracer.span('bundle.load'):
                loaded = om.load_bundle(self.bundle_path)
        finally:
            if os.path.exists(self.bundle_path):
                os.remove(self.bundle_path)
        tangents = []
        for x in queries:
            with tracer.span('sec.tangent_frame_at'):
                tangents.append(om.tangent_frame_at(loaded.model, loaded.sec_frame,
                                                    loaded.sec_fhat, x, 2))
        return model, loaded, tangents

    def check(self, state, query, result) -> Check:
        _, _, qparams = state
        model, loaded, tangents = result
        round_trip = np.array_equal(loaded.model.eig_phi, model.eig_phi)
        hits = sum(int(_max_principal_angle_deg(T, _torus_tangent_basis(u, v)) <= self.hit_deg)
                   for T, (u, v) in zip(tangents, qparams))
        ok = round_trip and hits >= self.min_hit_frac * len(tangents)
        return Check(ok=ok, good=hits, total=len(tangents), items=1)


def _torus_tangent_basis(u_deg: float, v_deg: float) -> np.ndarray:
    u, v = np.radians(u_deg), np.radians(v_deg)
    ring = TORUS_MAJOR + TORUS_MINOR * np.cos(v)
    tu = np.array([-ring * np.sin(u), ring * np.cos(u), 0.0])
    tv = TORUS_MINOR * np.array([-np.sin(v) * np.cos(u), -np.sin(v) * np.sin(u), np.cos(v)])
    return np.linalg.qr(np.column_stack([tu, tv]))[0]


def _max_principal_angle_deg(A: np.ndarray, B: np.ndarray) -> float:
    s = np.linalg.svd(A.T @ B, compute_uv=False)
    return float(np.degrees(np.arccos(np.clip(s, -1.0, 1.0))).max())


class CircleProject:
    """Batched Nystrom projection onto the fig2 noisy circle."""

    name = 'circle-project'
    op_metric = ('project_batch_p50_ms', 'ms', 1e3)
    rate_metric = 'project_qps'
    tail_metric = ('project_batch_p95_ms', 95.0)
    quality_metric = 'project_on_manifold_frac'
    item = 'queries'
    setup_probe, op_probe = 'arrays', 'arrays'
    batch = outputs = 64
    radius_lo, radius_hi = 0.3, 2.0       # the fig2 grid range
    tol = 0.05                            # c03: |r - 1| <= 0.05
    min_frac = 0.95                       # c03: for at least 95% of queries

    def __init__(self, scale: str, scratch: str):
        self.n_points = 1500 if scale == 'full' else 300

    def setup(self, seed: int, tracer: Tracer):
        # The pinned fig2 cloud, on which c03 sets its tolerance; the
        # workload seed draws the queries.
        with tracer.span('synth.generate'):
            cloud, _ = om.generate(om.SynthSpec(kind='circle', n_points=self.n_points,
                                                noise_sigma=0.1, seed=FIG2_SEED))
        with tracer.span('cidm.fit', memory=True):
            model = om.fit(cloud, om.CidmConfig(k_nn=24, n_eigs=40))
        with tracer.span('nystrom.build_projector'):
            return om.build_projector(model, 20)

    def queries(self, seed: int, i: int) -> np.ndarray:
        rng = _stream(seed, 2, i)
        theta = rng.uniform(0.0, 2.0 * np.pi, self.batch)
        r = rng.uniform(self.radius_lo, self.radius_hi, self.batch)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    def operation(self, projector, queries: np.ndarray, tracer: Tracer, probe):
        with tracer.span('nystrom.project_many'):
            return om.project_many(projector, queries, iterations=2)

    def check(self, projector, queries: np.ndarray, result) -> Check:
        on = int(np.sum(np.abs(np.linalg.norm(result, axis=1) - 1.0) <= self.tol))
        return Check(ok=on >= self.min_frac * len(result), good=on, total=len(result),
                     items=len(result))


@dataclass(frozen=True)
class PgdState:
    projector: om.NystromProjector
    frame: om.SecFrame
    fhat: np.ndarray
    label_map: om.SemanticMap
    oracle: om.SectorClassifier
    config: om.PgdConfig


class CirclePgd:
    """On-manifold PGD attacks in the ``repro pgd-circle`` configuration."""

    name = 'circle-pgd'
    op_metric = ('pgd_attack_p50_ms', 'ms', 1e3)
    rate_metric = 'pgd_steps_per_s'
    tail_metric = ('pgd_attack_p90_ms', 90.0)
    quality_metric = 'pgd_success_frac'
    item = 'steps'
    setup_probe, op_probe = 'arrays', 'calls'
    outputs = 1
    residual_frac = 0.02    # c08: one-iteration residual <= 0.02 * data diameter
    boundary_deg = 3.0      # c08: terminal semantic angle within 3 degrees of a boundary

    def __init__(self, scale: str, scratch: str):
        self.n_points = 400

    def setup(self, seed: int, tracer: Tracer) -> PgdState:
        theta = np.linspace(0.0, 2.0 * np.pi, self.n_points, endpoint=False)
        cloud = om.PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]))
        with tracer.span('cidm.fit', memory=True):
            model = om.fit(cloud, om.CidmConfig(k_nn=8, n_eigs=40))
        with tracer.span('nystrom.build_projector'):
            projector = om.build_projector(model, 20)
        with tracer.span('sec.build_sec_frame', memory=True):
            frame = om.build_sec_frame(model, om.SecBasisConfig(m_basis=8, m_inner=40),
                                       n_fields=2)
        with tracer.span('nystrom.fourier_coefficients'):
            fhat = om.fourier_coefficients(model, cloud.points, 8)
        with tracer.span('ompgd.semantic_map'):
            label_map = om.semantic_map(model, np.degrees(theta)[:, None], [True], 40)
        oracle = om.sector_classifier(4, boundary_offset=40.0)
        config = om.PgdConfig(alpha=np.radians(2.0), max_steps=40, tangent_dim=1)
        return PgdState(projector, frame, fhat, label_map, oracle, config)

    def queries(self, seed: int, i: int) -> tuple[np.ndarray, float]:
        # Start angles follow a golden-ratio sequence from a seeded offset:
        # uniform on the circle, and every seed gets the same mix of attack
        # lengths, so the median attack does not jump between step counts.
        offset = _stream(seed, 4, 0).uniform(0.0, 360.0)
        angle = (offset + 360.0 * GOLDEN * i) % 360.0
        r = _stream(seed, 3, i).uniform(0.9, 1.1)
        rad = np.radians(angle)
        return np.array([r * np.cos(rad), r * np.sin(rad)]), angle

    def operation(self, st: PgdState, query, tracer: Tracer, probe):
        start, angle = query
        oracle = TimedOracle(st.oracle, tracer) if tracer.enabled else st.oracle
        with tracer.span('ompgd.om_pgd'):
            return om.om_pgd(start, st.oracle.sector_of(angle), oracle, st.projector,
                             st.frame, st.fhat, st.config, label_map=st.label_map)

    def check(self, st: PgdState, query, trace) -> Check:
        success = trace.status == 'misclassified'
        limit = self.residual_frac * st.projector.model.data_diameter
        residual_ok = all(
            np.linalg.norm(om.project(st.projector, s.x_next, 1) - s.x_next) <= limit
            for s in trace.steps)
        boundary_ok = False
        if success:
            terminal = trace.steps[-1].semantics[0]
            gap = (terminal - st.oracle.boundary_angles_deg + 180.0) % 360.0 - 180.0
            boundary_ok = bool(np.min(np.abs(gap)) <= self.boundary_deg)
        return Check(ok=success and residual_ok and boundary_ok, good=int(success), total=1,
                     items=len(trace.steps), info={'stalled': int(trace.status == 'stalled')})


WORKLOADS = {w.name: w for w in (TorusBuild, CircleProject, CirclePgd)}
