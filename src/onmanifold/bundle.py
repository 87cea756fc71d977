"""Model persistence: JSON manifest plus a little-endian float64 blob.

File layout (format version 4)::

    bytes 0..7    magic b'OMFB0001'
    bytes 8..15   uint64 LE manifest length in bytes
    manifest      canonical JSON (sorted keys, no whitespace), utf-8
    arrays        concatenated C-order float64 little-endian buffers,
                  in the order declared by manifest['arrays']

A bundle stores only what queries read (``_SECTIONS``).  Sizes are read
from the arrays' shapes and a section is found by its arrays, so the
manifest holds only ``format_version``, ``cidm``, ``data_diameter``,
``semantics.periodic``, ``arrays`` (``[name, shape]`` pairs) and
``arrays_digest``, one SHA-256 over the whole array blob.  A load raises
``ValueError`` on any other version, on a missing or mistyped entry or a
partial section, on a size beyond the bytes left in the file (checked
before allocating), on bytes past the last array, and on a digest
mismatch, and on a manifest ``k_nn`` that does not give the stored kNN
scales.  Saves are atomic and canonical, so re-saving a loaded bundle
is byte-identical.
"""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

from .cidm import CidmConfig, CidmModel, PointCloud, _training_row_scales
from .nystrom import NystromProjector
from .ompgd import SemanticMap
from .sec import SecFrame

__all__ = ['ModelBundle', 'save_bundle', 'load_bundle']

MAGIC = b'OMFB0001'
FORMAT_VERSION = 4

#: The arrays of each section.  A section is in a bundle when its arrays
#: are, and ``model`` always is; ``raw_degree`` comes with models of the
#: ``cidm_dm_normalized`` variant.
_SECTIONS = {
    'model': ('points', 'knn_scale', 'degree', 'eig_xi', 'eig_phi'),
    'raw_degree': ('raw_degree',),
    'projector': ('xhat',),
    'sec': ('sec_etas', 'sec_ops', 'sec_fhat'),
    'semantics': ('semantic_coeffs',),
}


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

    def __post_init__(self):
        n_eigs, pts = self.model.n_eigs, self.model.training.points.shape
        coeffs = {'sec_fhat': self.sec_fhat,
                  'semantic_coeffs': None if self.label_map is None else self.label_map.coeffs}
        for name, arr in coeffs.items():
            shape = np.shape(arr)
            if arr is not None and not (len(shape) == 2 and 1 <= shape[0] <= n_eigs):
                raise ValueError(f'{name} has shape {shape}, but eig_xi has shape ({n_eigs},): '
                                 f'{name} needs between 1 and {n_eigs} rows, one per mode')
        if self.sec_fhat is not None and np.shape(self.sec_fhat)[1] != pts[1]:
            raise ValueError(f'sec_fhat has shape {np.shape(self.sec_fhat)}, but points has '
                             f'shape {pts}: sec_fhat needs one column per ambient dimension')

    def projector(self) -> NystromProjector:
        if self.xhat is None:
            raise ValueError('bundle has no projector section; run build_projector first')
        return NystromProjector(model=self.model, xhat=self.xhat)


def _manifest_and_arrays(bundle: ModelBundle):
    """The manifest and the (name, C-order ``<f8`` array) pairs it declares."""
    model, frame, label_map = bundle.model, bundle.sec_frame, bundle.label_map
    arrays = {'points': model.training.points, 'knn_scale': model.knn_scale,
              'degree': model.degree, 'eig_xi': model.eig_xi, 'eig_phi': model.eig_phi,
              'raw_degree': model.raw_degree, 'xhat': bundle.xhat}
    if frame is not None:
        if bundle.sec_fhat is None:
            raise ValueError('a SEC section requires sec_fhat')
        arrays.update(sec_etas=frame.etas, sec_ops=frame.ops, sec_fhat=bundle.sec_fhat)
    if label_map is not None:
        arrays['semantic_coeffs'] = label_map.coeffs
    arrays = [(name, np.ascontiguousarray(arr, dtype='<f8'))
              for name, arr in arrays.items() if arr is not None]
    manifest = {
        'format_version': FORMAT_VERSION,
        'cidm': dataclasses.asdict(model.config),
        'data_diameter': model.data_diameter,
        'arrays': [[name, list(arr.shape)] for name, arr in arrays],
        'arrays_digest': _arrays_digest(arr for _, arr in arrays),
    }
    if label_map is not None:
        manifest['semantics'] = {'periodic': list(label_map.periodic)}
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
    """The next ``n`` bytes of the file.  ``n`` is checked against the bytes
    left in the file before anything is allocated, so a corrupted size
    cannot ask for more memory than the file holds."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f'bundle truncated: {what} needs {n} bytes, '
                         f'but only {left} remain in the file')
    buf = bytearray(n)
    fh.readinto(buf)
    return buf


def _entry(mapping: dict, key: str, kind, name: str | None = None):
    """``mapping[key]`` if it is a ``kind``, else a ValueError naming it."""
    value = mapping.get(key)
    if not isinstance(value, kind):
        raise ValueError(f'bundle manifest entry {name or key!r} is ' + (
            f'{value!r}, of the wrong type' if key in mapping else 'missing'))
    return value


def _check_manifest(manifest) -> dict:
    """The manifest, once every entry a load reads has its type and each
    section declares all of its arrays or none; else a ValueError naming it."""
    if not isinstance(manifest, dict):
        raise ValueError('bundle manifest is not a JSON object')
    version = _entry(manifest, 'format_version', int)
    if version != FORMAT_VERSION:
        raise ValueError(f'unsupported bundle version {version} '
                         f'(this build reads version {FORMAT_VERSION})')
    for key, kind in ('cidm', dict), ('data_diameter', (int, float)), ('arrays_digest', str):
        _entry(manifest, key, kind)
    arrays = _entry(manifest, 'arrays', list)
    for entry in arrays:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list)
                and all(isinstance(d, int) and d >= 0 for d in entry[1])):
            raise ValueError(f"bundle manifest entry 'arrays' holds {entry!r}, "
                             'not a [name, shape] pair')
    names = [name for name, _ in arrays]
    for section, arrs in _SECTIONS.items():
        missing = [name for name in arrs if name not in names]
        if missing and (section == 'model' or len(missing) < len(arrs)):
            raise ValueError(f'bundle section {section!r} lacks the arrays {missing}')
    if 'semantic_coeffs' in names:
        _entry(_entry(manifest, 'semantics', dict), 'periodic', list, 'semantics.periodic')
    return manifest


def _check_knn_scales(model: CidmModel) -> None:
    """A ValueError naming ``k_nn`` unless the manifest's k_nn gives the
    stored kNN scales of training points 0, N//2 and N-1, with the
    operations of the fit; the digest covers only the arrays.  The match is
    to a relative 1e-12, since another scipy build or an FMA may round a
    squared distance differently, where a k one off moves a scale far more.
    A k that gives the same scales at these points (k = 1 and 2 on an
    evenly spaced circle) is not told apart."""
    N = model.training.n_points
    rows = np.array([0, N // 2, N - 1])
    scales = _training_row_scales(model.training.points, rows, model.config.k_nn)[0]
    if not np.allclose(scales, model.knn_scale[rows], rtol=1e-12, atol=0.0):
        raise ValueError(f'bundle manifest k_nn={model.config.k_nn} does not reproduce the '
                         'stored knn_scale: the manifest and the arrays come from different fits')


def load_bundle(path) -> ModelBundle:
    """Read a bundle written by :func:`save_bundle` and check its digest.

    Raises
    ------
    ValueError
        If the file is not a bundle, has another format version, has a
        manifest that lacks or mistypes an entry or declares part of a
        section, does not end exactly after its last array, or its arrays
        do not match the digest, or its ``k_nn`` does not give its stored
        kNN scales.
    """
    with open(path, 'rb') as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f'not a model bundle (magic {magic!r})')
        (length,) = np.frombuffer(_read_exact(fh, 8, 'the manifest length'), dtype='<u8')
        manifest = _check_manifest(
            json.loads(_read_exact(fh, int(length), 'the manifest').decode('utf-8')))
        buffers = [_read_exact(fh, 8 * math.prod(shape), f'array {name!r}')
                   for name, shape in manifest['arrays']]
        if fh.read(1):
            raise ValueError('bundle has bytes past its last declared array')
    if manifest['arrays_digest'] != _arrays_digest(buffers):
        raise ValueError('bundle digest does not match its stored arrays')
    data = {name: np.frombuffer(buf, dtype='<f8').reshape(shape)
            for (name, shape), buf in zip(manifest['arrays'], buffers)}

    try:
        config = CidmConfig(**manifest['cidm'])
    except TypeError as exc:
        raise ValueError(f"bundle manifest entry 'cidm' is not a CidmConfig: {exc}") from None
    model = CidmModel(
        training=PointCloud(data['points']),
        config=config,
        knn_scale=data['knn_scale'],
        degree=data['degree'],
        eig_xi=data['eig_xi'],
        eig_phi=np.asfortranarray(data['eig_phi']),     # the layout fit gives it
        data_diameter=manifest['data_diameter'],
        raw_degree=data.get('raw_degree'),
    )
    _check_knn_scales(model)
    sec_frame = None
    if 'sec_ops' in data:
        sec_frame = SecFrame(etas=data['sec_etas'], ops=data['sec_ops'])
    label_map = None
    if 'semantic_coeffs' in data:
        label_map = SemanticMap(coeffs=data['semantic_coeffs'],
                                periodic=tuple(bool(p) for p in manifest['semantics']['periodic']))
    return ModelBundle(model=model, xhat=data.get('xhat'), sec_frame=sec_frame,
                       sec_fhat=data.get('sec_fhat'), label_map=label_map)
