"""Nested-Grassmann dimensionality reduction for subspace-valued data."""

from .baselines import PgaModel, gknn_loo, pga_coordinates, pga_explained_variance, pga_fit, spga_fit
from .datagen import SynthConfig, SyntheticData, generate, two_class_shapes
from .errors import (
    ConvergenceError,
    CutLocusError,
    DegenerateInputError,
    DegenerateProjectionError,
    DegenerateShapeError,
    FormatError,
    GrassdrError,
    InvalidTangentError,
    ShapeError,
    SupervisionDegenerateError,
    UndefinedRatioError,
)
from .geometry import (
    Dataset,
    GrassmannPoint,
    TangentVector,
    adjoint,
    as_dataset,
    exp_map,
    frechet_mean,
    geodesic_distance,
    log_map,
    orthonormal_columns,
    orthonormalize,
    pairwise_distances,
    principal_angles,
    projection_distance,
    sample_stiefel_uniform,
    stack_points,
    tangent_project,
    variance,
)
from .nested import (
    FitReport,
    NestedMap,
    build_affinity,
    embed_point,
    explained_variance_ratio,
    fit_supervised,
    fit_unsupervised,
    nested_sequence,
    project_dataset,
    project_point,
    reconstruct_point,
)
from .optim import (
    OptimizeResult,
    OptimizerConfig,
    check_gradient,
    minimize,
    retract,
)
from .shape import KAds, kads_to_grassmann, shape_distance

__version__ = "0.1.0"
