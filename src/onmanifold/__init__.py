"""Manifold-learning geometry engine: CIDM fitting, Nystrom extension and
projection, SEC vector fields, and on-manifold projected gradient descent."""

from .errors import (GeometryError, InvalidQueryError, DuplicatePointError,
                     EigensolverFailure, DisconnectedGraphError, SmallEigenvalueError,
                     KnnBoundaryError, DegenerateFrameError, SingularGramError,
                     RankDeficiencyError, StalledError)
from .cidm import PointCloud, CidmConfig, CidmModel, knn_scales, fit
from .nystrom import (NystromProjector, extend_eigenfunction, eigenfunction_values,
                      fourier_coefficients, extend_function, build_projector, project,
                      project_many, grad_eigenfunction, restricted_loss_gradient)
from .sec import (SecBasisConfig, SecFrame, structure_constants, metric_tensor,
                  dirichlet_energy_tensor, build_sec_frame, field_arrows,
                  tangent_frame_at, local_pca_tangent)
from .ompgd import (ClassifierOracle, SectorClassifier, sector_classifier,
                    SemanticMap, semantic_map, semantic_labels, PgdConfig,
                    PgdStep, PgdTrace, om_pgd)
from .synth import SynthSpec, generate, fig1_target_function, periodic_flags
from .bundle import ModelBundle, save_bundle, load_bundle

__version__ = '0.1.0'
