"""Exception hierarchy shared by all onmanifold modules.

Every numerical failure raised by this package derives from
:class:`GeometryError`, so callers (and the CLI) can distinguish usage
mistakes (plain ``ValueError``) from genuine numerical breakdowns.
"""

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
    'TangentRankError',
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


# The PGD driver surfaces tangent-frame failures under this name.
TangentRankError = RankDeficiencyError


class StalledError(GeometryError):
    """A PGD step produced no usable motion (gradient normal to the manifold)."""
