"""Model persistence: JSON manifest plus a little-endian float64 blob.

File layout::

    bytes 0..7    magic b'OMFB0001'
    bytes 8..15   uint64 LE manifest length in bytes
    manifest      canonical JSON (sorted keys, no whitespace), utf-8
    arrays        concatenated C-order float64 little-endian buffers,
                  in the order declared by manifest['arrays']

The manifest is rebuilt canonically on every save, so loading a bundle
and saving it again is byte-identical.  Saves replace the target file
atomically.
"""

import contextlib
import hashlib
import json
import os
import secrets
from dataclasses import dataclass

import numpy as np

from .cidm import CidmConfig, CidmModel, PointCloud
from .nystrom import NystromProjector
from .ompgd import SemanticMap
from .sec import EigenField, OperatorRep, SecBasisConfig, SecFrame

__all__ = ['ModelBundle', 'save_bundle', 'load_bundle', 'dataset_digest']

MAGIC = b'OMFB0001'
FORMAT_VERSION = 1


def dataset_digest(points: np.ndarray) -> str:
    """SHA-256 of the canonical float64 little-endian bytes of the points."""
    blob = np.ascontiguousarray(points, dtype='<f8').tobytes()
    return 'sha256:' + hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class ModelBundle:
    """A fitted model plus whatever downstream artifacts have been attached."""

    model: CidmModel
    xhat: np.ndarray | None = None            # projector coefficients, (l_trunc, n)
    sec_frame: SecFrame | None = None
    sec_fhat: np.ndarray | None = None        # embedding coefficients for arrows
    label_map: SemanticMap | None = None

    def projector(self) -> NystromProjector:
        if self.xhat is None:
            raise ValueError('bundle has no projector section; run build_projector first')
        return NystromProjector(model=self.model, l_trunc=self.xhat.shape[0], xhat=self.xhat)


def _manifest_and_arrays(bundle: ModelBundle):
    model = bundle.model
    cfg = model.config
    arrays: list[tuple[str, np.ndarray]] = [
        ('points', model.training.points),
        ('knn_scale', model.knn_scale),
        ('degree', model.degree),
        ('eig_xi', model.eig_xi),
        ('eig_phi', model.eig_phi),
    ]
    if model.raw_degree is not None:
        arrays.append(('raw_degree', model.raw_degree))
    manifest = {
        'format_version': FORMAT_VERSION,
        'cidm': {
            'k_nn': cfg.k_nn,
            'n_eigs': cfg.n_eigs,
            'epsilon': cfg.epsilon,
            'shape': cfg.shape,
            'kernel_variant': cfg.kernel_variant,
            'average_scales': cfg.average_scales,
        },
        'n_points': model.n_points,
        'ambient_dim': model.training.ambient_dim,
        'n_eigs': model.n_eigs,
        'data_diameter': model.data_diameter,
        'dataset_digest': dataset_digest(model.training.points),
        'projector': None,
        'sec': None,
        'semantics': None,
    }
    if bundle.xhat is not None:
        manifest['projector'] = {'l_trunc': int(bundle.xhat.shape[0])}
        arrays.append(('xhat', bundle.xhat))
    frame = bundle.sec_frame
    if frame is not None:
        if bundle.sec_fhat is None:
            raise ValueError('a SEC section requires sec_fhat')
        manifest['sec'] = {
            'm_basis': frame.config.m_basis,
            'm_inner': frame.m_inner,
            'tau_frac': frame.config.tau_frac,
            'n_fields': len(frame.fields),
            'm_out': frame.ops[0].m_out if frame.ops else frame.config.m_basis,
            'frame_index': [int(i) for i in frame.frame_index],
        }
        arrays.extend([
            ('sec_c', frame.c),
            ('sec_G', frame.G),
            ('sec_E', frame.E),
            ('sec_u_tilde', frame.u_tilde),
            ('sec_etas', np.array([f.eta for f in frame.fields])),
            ('sec_coeffs', np.stack([f.coeffs for f in frame.fields])),
            ('sec_ops', np.stack([op.v_op for op in frame.ops])),
            ('sec_fhat', bundle.sec_fhat),
        ])
    if bundle.label_map is not None:
        manifest['semantics'] = {
            'periodic': list(bundle.label_map.periodic),
            'l_trunc': int(bundle.label_map.coeffs.shape[0]),
        }
        arrays.append(('semantic_coeffs', bundle.label_map.coeffs))
    manifest['arrays'] = [[name, list(arr.shape)] for name, arr in arrays]
    return manifest, arrays


@contextlib.contextmanager
def atomic_write(path, mode: str = 'x'):
    """Open a new temporary file next to ``path`` for writing (``mode`` is
    ``'x'`` or ``'xb'``) and rename it over ``path`` once the block ends; on
    any exception the temporary file is removed, so a failed write leaves
    any old file intact."""
    tmp = f'{os.fspath(path)}.{secrets.token_hex(8)}.tmp'
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_bundle(path, bundle: ModelBundle) -> None:
    """Write the bundle atomically (:func:`atomic_write`)."""
    manifest, arrays = _manifest_and_arrays(bundle)
    blob = json.dumps(manifest, sort_keys=True, separators=(',', ':')).encode('utf-8')
    with atomic_write(path, 'xb') as fh:
        fh.write(MAGIC)
        fh.write(np.uint64(len(blob)).tobytes())
        fh.write(blob)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype='<f8').tobytes())


def load_bundle(path) -> ModelBundle:
    with open(path, 'rb') as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f'not a model bundle (magic {magic!r})')
        (length,) = np.frombuffer(fh.read(8), dtype='<u8')
        manifest = json.loads(fh.read(int(length)).decode('utf-8'))
        if manifest['format_version'] != FORMAT_VERSION:
            raise ValueError(f"unsupported bundle version {manifest['format_version']}")
        data: dict[str, np.ndarray] = {}
        for name, shape in manifest['arrays']:
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            data[name] = np.frombuffer(buf, dtype='<f8').reshape(shape).copy()

    cfg = CidmConfig(**manifest['cidm'])
    model = CidmModel(
        training=PointCloud(data['points']),
        config=cfg,
        knn_scale=data['knn_scale'],
        degree=data['degree'],
        eig_xi=data['eig_xi'],
        eig_phi=data['eig_phi'],
        data_diameter=manifest['data_diameter'],
        raw_degree=data.get('raw_degree'),
    )
    if manifest['dataset_digest'] != dataset_digest(model.training.points):
        raise ValueError('bundle dataset digest does not match its stored points')

    xhat = data.get('xhat')
    sec_frame = None
    sec_fhat = None
    if manifest['sec'] is not None:
        ms = manifest['sec']
        config = SecBasisConfig(m_basis=ms['m_basis'], m_inner=ms['m_inner'],
                                tau_frac=ms['tau_frac'])
        fields = [EigenField(eta=float(e), coeffs=cv)
                  for e, cv in zip(data['sec_etas'], data['sec_coeffs'])]
        ops = [OperatorRep(v_op=v) for v in data['sec_ops']]
        sec_frame = SecFrame(config=config, m_inner=ms['m_inner'], c=data['sec_c'],
                             G=data['sec_G'], E=data['sec_E'],
                             frame_index=np.array(ms['frame_index'], dtype=int),
                             u_tilde=data['sec_u_tilde'], fields=fields, ops=ops)
        sec_fhat = data['sec_fhat']
    label_map = None
    if manifest['semantics'] is not None:
        label_map = SemanticMap(coeffs=data['semantic_coeffs'],
                                periodic=tuple(bool(p) for p in manifest['semantics']['periodic']))
    return ModelBundle(model=model, xhat=xhat, sec_frame=sec_frame,
                       sec_fhat=sec_fhat, label_map=label_map)
