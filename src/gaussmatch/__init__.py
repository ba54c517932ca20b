"""Optimal Gaussian fits under family constraints and the match score.

Given a dataset, each supported family (full, fixed-mean, isotropic,
diagonal, and the fixed-mean variants of the last two) admits a closed-form
Gaussian density minimizing the cross-entropy against the data.  The match
score M reports how much worse the constrained optimum is than the
moment-matched Gaussian; a numerical oracle re-derives every closed form
for verification, and a whitening transform applies the optimal rescaling.
"""

from .errors import (
    GaussMatchError,
    InsufficientDataError,
    InvalidInputError,
    OracleConvergenceError,
    ParseError,
    SingularMatrixError,
)
from .families import (
    FAMILY_ORDER,
    FIXED_MEAN_FAMILIES,
    Family,
    FamilySpec,
    FitResult,
    RescalingTransform,
    family_report,
    fit,
    fixed_mean_cov_inverse_form,
    whitening_transform,
)
from .gaussians import (
    GaussianModel,
    Moments,
    as_point_set,
    cross_entropy,
    estimate_moments,
    mahalanobis_sq,
    match_score,
    self_cross_entropy,
)
from .ingest import (
    Raster,
    image_to_blocks,
    read_points_csv,
    read_ppm,
    sample_gaussian,
    standard_normals,
    write_points_csv,
    write_ppm,
)
from .linalg import (
    EigenDecomposition,
    min_trace_assignment,
    spd_power,
    sym_eigen,
    symmetrize,
)
from .oracle import (
    FamilyCheck,
    empirical_cross_entropy,
    oracle_minimize,
    verify_families,
)

__version__ = "0.1.0"

__all__ = [
    "EigenDecomposition",
    "Family",
    "FamilyCheck",
    "FamilySpec",
    "FitResult",
    "FAMILY_ORDER",
    "FIXED_MEAN_FAMILIES",
    "GaussMatchError",
    "GaussianModel",
    "InsufficientDataError",
    "InvalidInputError",
    "Moments",
    "OracleConvergenceError",
    "ParseError",
    "Raster",
    "RescalingTransform",
    "SingularMatrixError",
    "as_point_set",
    "cross_entropy",
    "empirical_cross_entropy",
    "estimate_moments",
    "family_report",
    "fit",
    "fixed_mean_cov_inverse_form",
    "image_to_blocks",
    "mahalanobis_sq",
    "match_score",
    "min_trace_assignment",
    "oracle_minimize",
    "read_points_csv",
    "read_ppm",
    "sample_gaussian",
    "self_cross_entropy",
    "spd_power",
    "standard_normals",
    "sym_eigen",
    "symmetrize",
    "verify_families",
    "whitening_transform",
    "write_points_csv",
    "write_ppm",
]
