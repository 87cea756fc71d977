"""Model persistence: JSON manifest plus a little-endian float64 blob.

File layout (format version 2)::

    bytes 0..7    magic b'OMFB0001'
    bytes 8..15   uint64 LE manifest length in bytes
    manifest      canonical JSON (sorted keys, no whitespace), utf-8
    arrays        concatenated C-order float64 little-endian buffers,
                  in the order declared by manifest['arrays']

A bundle stores only what queries read: the fitted model, and the
projector coefficients, SEC fields with their operators and embedding
coefficients, and semantic coefficients where attached.  The manifest's
``arrays_digest`` is one SHA-256 over the whole array blob.  A load
raises ``ValueError`` if the arrays do not match it, or if the file ends
before or runs on past the last array the manifest declares.  The manifest is rebuilt canonically on every save, so
loading a bundle and saving it again is byte-identical.  Saves replace
the target file atomically.
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

__all__ = ['ModelBundle', 'save_bundle', 'load_bundle']

MAGIC = b'OMFB0001'
FORMAT_VERSION = 2


def _arrays_digest(buffers) -> str:
    """SHA-256 of the concatenated buffers, fed one at a time."""
    h = hashlib.sha256()
    for buf in buffers:
        h.update(buf)
    return 'sha256:' + h.hexdigest()


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
    """The manifest and the (name, C-order ``<f8`` array) pairs it declares."""
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
        }
        arrays.extend([
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
    arrays = [(name, np.ascontiguousarray(arr, dtype='<f8')) for name, arr in arrays]
    manifest['arrays'] = [[name, list(arr.shape)] for name, arr in arrays]
    manifest['arrays_digest'] = _arrays_digest(arr for _, arr in arrays)
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
    """Write the bundle atomically (:func:`atomic_write`).

    The arrays are converted inside the write, so a conversion failure
    leaves any old file intact too.
    """
    with atomic_write(path, 'xb') as fh:
        manifest, arrays = _manifest_and_arrays(bundle)
        blob = json.dumps(manifest, sort_keys=True, separators=(',', ':')).encode('utf-8')
        fh.write(MAGIC)
        fh.write(np.uint64(len(blob)).tobytes())
        fh.write(blob)
        for _, arr in arrays:
            fh.write(arr)


def _read_exact(fh, n: int, what: str) -> bytearray:
    buf = bytearray(n)
    got = fh.readinto(buf)
    if got < n:
        raise ValueError(f'bundle truncated: {what} needs {n} bytes, '
                         f'but only {got} remain in the file')
    return buf


def load_bundle(path) -> ModelBundle:
    """Read a bundle written by :func:`save_bundle` and check its digest.

    Raises
    ------
    ValueError
        If the file is not a bundle, has another format version, does
        not end exactly after its last array, or its arrays do not match
        the digest.
    """
    with open(path, 'rb') as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f'not a model bundle (magic {magic!r})')
        (length,) = np.frombuffer(_read_exact(fh, 8, 'the manifest length'), dtype='<u8')
        manifest = json.loads(_read_exact(fh, int(length), 'the manifest').decode('utf-8'))
        if manifest['format_version'] != FORMAT_VERSION:
            raise ValueError(f"unsupported bundle version {manifest['format_version']} "
                             f'(this build reads version {FORMAT_VERSION})')
        buffers = [_read_exact(fh, 8 * int(np.prod(shape)), f'array {name!r}')
                   for name, shape in manifest['arrays']]
        if fh.read(1):
            raise ValueError('bundle has bytes past its last declared array')
    if manifest['arrays_digest'] != _arrays_digest(buffers):
        raise ValueError('bundle digest does not match its stored arrays')
    data = {name: np.frombuffer(buf, dtype='<f8').reshape(shape)
            for (name, shape), buf in zip(manifest['arrays'], buffers)}

    cfg = CidmConfig(**manifest['cidm'])
    model = CidmModel(
        training=PointCloud(data['points']),
        config=cfg,
        knn_scale=data['knn_scale'],
        degree=data['degree'],
        eig_xi=data['eig_xi'],
        eig_phi=np.asfortranarray(data['eig_phi']),     # the layout fit gives it
        data_diameter=manifest['data_diameter'],
        raw_degree=data.get('raw_degree'),
    )

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
        sec_frame = SecFrame(config=config, m_inner=ms['m_inner'], fields=fields, ops=ops)
        sec_fhat = data['sec_fhat']
    label_map = None
    if manifest['semantics'] is not None:
        label_map = SemanticMap(coeffs=data['semantic_coeffs'],
                                periodic=tuple(bool(p) for p in manifest['semantics']['periodic']))
    return ModelBundle(model=model, xhat=xhat, sec_frame=sec_frame,
                       sec_fhat=sec_fhat, label_map=label_map)
