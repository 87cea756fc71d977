"""Exception hierarchy shared by all onmanifold modules, and the rules
for the sizes and choices they take.

Every numerical failure raised by this package derives from
:class:`GeometryError`, so callers (and the CLI) can distinguish usage
mistakes (plain ``ValueError``) from genuine numerical breakdowns.  Every
count, index and truncation a config or a public function takes passes
:func:`_size`, every named choice passes :func:`_choice`, and every array
of data that must be finite passes :func:`_check_finite`.
"""

from typing import get_args

import numpy as np

__all__ = [
    'GeometryError',
    'InvalidQueryError',
    'DuplicatePointError',
    'EigensolverFailure',
    'DisconnectedGraphError',
    'SmallEigenvalueError',
    'KnnBoundaryError',
    'DegenerateFrameError',
    'SingularGramError',
    'RankDeficiencyError',
    'StalledError',
]


class GeometryError(RuntimeError):
    """Base class for numerical failures in the geometry pipeline."""


class InvalidQueryError(GeometryError, ValueError):
    """A query point is not finite, overflows when squared against the training
    points, or has the wrong dimension.  Also a ``ValueError``: the input is at fault."""


class DuplicatePointError(GeometryError):
    """Coincident (or near-coincident) training points make the kNN scale degenerate."""


class EigensolverFailure(GeometryError):
    """The requested number of eigenpairs did not converge."""


class DisconnectedGraphError(GeometryError):
    """More than one numerically zero Laplacian eigenvalue: the kernel graph is disconnected."""


class SmallEigenvalueError(GeometryError):
    """Nystrom extension requested for a mode whose kernel eigenvalue is numerically zero."""


class KnnBoundaryError(GeometryError):
    """Query point is equidistant from its k-th and (k+1)-th neighbors; the kNN scale is not differentiable there."""


class DegenerateFrameError(GeometryError):
    """Sobolev thresholding retained no frame directions."""


class SingularGramError(GeometryError):
    """Reduced Gram matrix is numerically singular; the Sobolev threshold is too lax."""


class RankDeficiencyError(GeometryError):
    """Pushforward arrows do not span the requested tangent dimension."""


class StalledError(GeometryError):
    """A PGD step produced no usable motion (gradient normal to the manifold)."""


def _size(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an ``int`` once it is an integer (a ``bool`` is not) in
    [lo, hi], or at least ``lo`` when ``hi`` is None; else a ValueError
    naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f'{name} must be an integer, got {value!r}')
    if hi is None:
        if value < lo:
            raise ValueError(f'{name} must be >= {lo}, got {value}')
    elif not lo <= value <= hi:
        raise ValueError(f'{name} must be in [{lo}, {hi}], got {value}')
    return int(value)


def _choice(name: str, value, choices) -> None:
    """A ValueError naming ``name`` unless ``value`` is one of the ``Literal``
    type ``choices``."""
    if value not in get_args(choices):
        raise ValueError(f'unknown {name} {value!r}; choose from '
                         f'{", ".join(get_args(choices))}')


def _check_finite(name: str, array: np.ndarray) -> None:
    """ValueError naming the first entry of ``array`` that is not finite, and
    its value: by row, by row and column for a 2-D array, by index beyond."""
    bad = ~np.isfinite(array)
    if bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        where = (f'row {at[0]}' if len(at) == 1 else f'row {at[0]}, column {at[1]}'
                 if len(at) == 2 else f'entry {at}')
        raise ValueError(f'{name} {where} is not finite ({array[at]})')
