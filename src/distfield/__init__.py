"""Signed-distance-field toolkit for analytic planar and low-dimensional domains."""

from .errors import (
    DimensionMismatch,
    DistanceFieldError,
    EmptyBand,
    InvalidSpec,
    InvalidTube,
    LevelOutOfRange,
    MedialInBall,
    NotC1,
    NotC1InNeighborhood,
    NotOnBoundary,
    PreconditionViolated,
    ScaleUnderflow,
    StartNotInDomain,
    StartOnMedialAxis,
    TooFewSamples,
    TruncationExceeded,
)
from .shapes import Cusp, Disk, Ellipse, HalfSpace, Polygon, Shape, Spiral, make_shape, shape_spec
from .projection import (
    CONTINUUM,
    ProjectionResult,
    brute_force_distance_many,
    gradient,
    gradient_from_result,
    gradient_many,
    is_medial,
    nearest_points,
    nearest_points_many,
    signed_distance,
    signed_distance_many,
)
from .characteristics import CharacteristicPath, path_to_csv, trace, verify_characteristic
from .fmm import (
    GridField,
    GridSpec,
    LevelSet,
    extract_level_set,
    grid_error,
    grid_from_csv,
    grid_from_json,
    grid_to_csv,
    grid_to_json,
    solve_fmm,
    verify_level_distance,
)
from .regularity import (
    RegularityReport,
    SampleBox,
    c1_margin,
    chi_estimate,
    differentiability_test,
    gradient_lipschitz_estimate,
)
from .counterexamples import (
    SpiralEvidence,
    cusp_medial_check,
    evidence_to_csv,
    spiral_ratio_sequence,
)

__version__ = "0.1.0"
