"""Closed-form optimal Gaussians within constrained families.

Six families are supported, each a subset of the Gaussian densities on R^N:

    full                  all Gaussians
    fixed-mean            mean pinned to a given point m
    isotropic             covariance s * I, free mean
    fixed-mean-isotropic  covariance s * I, mean pinned to m
    diagonal              diagonal covariance, free mean
    fixed-mean-diagonal   diagonal covariance, mean pinned to m

For each family the minimizer of the cross-entropy (equivalently of the
match score) has a closed form in the dataset moments, derived here in the
docstrings of the individual ``fit_*`` functions.  ``whitening_transform``
turns a fitted model into the affine map that sends it to the standard
Gaussian.

Twin rule: each fixed-mean family is its free-mean twin with the second
moments taken about the pinned mean m instead of m_Y.  With d = m - m_Y
they are S_Y + d d' (the deflated-inverse form of the paper, by
Sherman-Morrison), so the free fit is the case d = 0.  ``fit`` is the one
closed-form path: it branches once on the covariance shape and adds the
offset d only when the mean is pinned; every ``fit_*`` function calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError
from .gaussians import GaussianModel, Moments, self_cross_entropy
from .linalg import finite_vector, float_array, frozen, require_dim, spd_power, symmetrize


class Family(str, Enum):
    """Constrained Gaussian families, named as on the command line."""

    FULL = "full"
    FIXED_MEAN = "fixed-mean"
    ISOTROPIC = "isotropic"
    FIXED_MEAN_ISOTROPIC = "fixed-mean-isotropic"
    DIAGONAL = "diagonal"
    FIXED_MEAN_DIAGONAL = "fixed-mean-diagonal"


# Each fixed-mean family and the free-mean family with its covariance shape.
FREE_TWIN = {
    Family.FIXED_MEAN: Family.FULL,
    Family.FIXED_MEAN_ISOTROPIC: Family.ISOTROPIC,
    Family.FIXED_MEAN_DIAGONAL: Family.DIAGONAL,
}

FIXED_MEAN_FAMILIES = frozenset(FREE_TWIN)

# Canonical presentation order: free-mean family, then its fixed-mean twin.
FAMILY_ORDER = (
    Family.FULL,
    Family.FIXED_MEAN,
    Family.ISOTROPIC,
    Family.FIXED_MEAN_ISOTROPIC,
    Family.DIAGONAL,
    Family.FIXED_MEAN_DIAGONAL,
)


@dataclass(frozen=True)
class FamilySpec:
    """A family together with its fixed mean when the family requires one."""

    kind: Family
    fixed_mean: np.ndarray | None = None

    def __post_init__(self):
        try:
            kind = Family(self.kind)
        except ValueError:
            names = ", ".join(family.value for family in Family)
            raise InvalidInputError(f"family must be one of {names}") from None
        object.__setattr__(self, "kind", kind)
        if kind in FIXED_MEAN_FAMILIES:
            if self.fixed_mean is None:
                raise InvalidInputError(f"family {kind.value!r} requires a fixed mean")
            mean = finite_vector(self.fixed_mean, "fixed mean")
            object.__setattr__(self, "fixed_mean", frozen(mean))
        elif self.fixed_mean is not None:
            raise InvalidInputError(f"family {kind.value!r} does not take a fixed mean")

    @property
    def shape(self) -> Family:
        """The free-mean family with this covariance shape: full, isotropic or diagonal."""
        return FREE_TWIN.get(self.kind, self.kind)


@dataclass(frozen=True)
class FitResult:
    """Optimal model within a family, with its match score and cross-entropy."""

    model: GaussianModel
    match: float
    cross_entropy: float
    family: FamilySpec


@dataclass(frozen=True)
class RescalingTransform:
    """Affine map y -> root_inv_cov @ (y - shift) written for row vectors."""

    shift: np.ndarray
    root_inv_cov: np.ndarray

    def apply(self, points) -> np.ndarray:
        """Transform a single vector or an (n, dim) array of row points.

        Raises InvalidInputError when a transformed value overflows."""
        pts = float_array(points, "points")
        if pts.ndim not in (1, 2):
            raise InvalidInputError(f"expected a vector or (n, dim) points, got shape {pts.shape}")
        require_dim(pts.shape[-1], self.shift.size, "points", "transform")
        if not np.isfinite(pts).all():
            raise InvalidInputError("points must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            out = (pts - self.shift) @ self.root_inv_cov
        if not np.isfinite(out).all():
            raise InvalidInputError("transformed points overflow the float range")
        return out


def fit(moments: Moments, spec: FamilySpec) -> FitResult:
    """Closed-form optimal Gaussian within the family described by ``spec``.

    The covariance shape is that of the free-mean twin; a pinned mean adds
    the offset d = m - m_Y to the second moments (see the module docstring).
    """
    pinned = spec.fixed_mean is not None
    d = _pinned_offset(moments, spec) if pinned else None
    n, log_det = moments.dim, moments.factor.log_det
    if spec.shape is Family.FULL:
        # A literal 0.0: 0.5 * log1p(q) at d = 0 can be -0.0.
        cov, match = moments.cov, 0.0
        if pinned:
            q = float(d @ moments.factor.precision @ d)
            cov, match = symmetrize(moments.cov + np.outer(d, d)), 0.5 * math.log1p(q)
    elif spec.shape is Family.ISOTROPIC:
        scale = (float(np.trace(moments.cov)) + (float(d @ d) if pinned else 0.0)) / n
        cov, match = scale * np.eye(n), 0.5 * (n * math.log(scale) - log_det)
    else:
        variances = np.diag(moments.cov) + d * d if pinned else np.diag(moments.cov)
        cov, match = np.diag(variances), 0.5 * (float(np.log(variances).sum()) - log_det)
    model = GaussianModel(mean=spec.fixed_mean if pinned else moments.mean, cov=cov)
    return FitResult(model=model, match=float(match),
                     cross_entropy=float(match + self_cross_entropy(moments)), family=spec)


def fit_full(moments: Moments) -> FitResult:
    """Best unconstrained Gaussian: the moment-matched one, match score 0."""
    return fit(moments, FamilySpec(Family.FULL))


def fit_fixed_mean(moments: Moments, mean) -> FitResult:
    """Best Gaussian with the mean pinned to ``mean``.

    With d = m - m_Y and q = d' inv(S_Y) d, the optimal covariance is the
    second moment about the pinned mean,

        S = S_Y + d d',

    and the match score is M = 1/2 ln(1 + q).  The same covariance can be
    written as S_Y (S_Y - d d' / (1 + q))^-1 S_Y, which
    ``fixed_mean_cov_inverse_form`` computes; the test suite checks that the
    two forms agree.
    """
    return fit(moments, FamilySpec(Family.FIXED_MEAN, mean))


def fixed_mean_cov_inverse_form(moments: Moments, mean) -> np.ndarray:
    """Fixed-mean optimal covariance via the deflated-inverse expression.

    Computes S_Y (S_Y - d d' / (1 + q))^-1 S_Y, which is algebraically equal
    to S_Y + d d' but exercises a different numerical path.  Raises
    SingularMatrixError when the deflated matrix is not invertible at
    working precision.
    """
    d = _pinned_offset(moments, FamilySpec(Family.FIXED_MEAN, mean))
    q = float(d @ moments.factor.precision @ d)
    deflated = symmetrize(moments.cov - np.outer(d, d) / (1.0 + q))
    inverse = spd_power(deflated, -1.0)
    return symmetrize(moments.cov @ inverse @ moments.cov)


def fit_isotropic(moments: Moments) -> FitResult:
    """Best Gaussian with covariance s * I and free mean.

    The mean is m_Y; minimizing over s gives s = tr(S_Y) / N and

        M = N/2 ln( tr(S_Y) / N ) - 1/2 ln det S_Y,

    the log of the ratio between the arithmetic and geometric means of the
    eigenvalues of S_Y (nonnegative by the AM-GM inequality).
    """
    return fit(moments, FamilySpec(Family.ISOTROPIC))


def fit_fixed_mean_isotropic(moments: Moments, mean) -> FitResult:
    """Best Gaussian with covariance s * I and the mean pinned to ``mean``.

    With d = m - m_Y, the optimal scale is the mean squared deviation about
    the pinned mean, s = (tr(S_Y) + ||d||^2) / N, and

        M = N/2 ln(s) - 1/2 ln det S_Y.
    """
    return fit(moments, FamilySpec(Family.FIXED_MEAN_ISOTROPIC, mean))


def fit_diagonal(moments: Moments) -> FitResult:
    """Best Gaussian with diagonal covariance and free mean.

    Coordinates decouple: the optimal diagonal holds the per-coordinate
    variances (S_Y)_ii, and

        M = 1/2 sum_i ln (S_Y)_ii - 1/2 ln det S_Y,

    nonnegative because the product of the diagonal entries of an SPD
    matrix dominates its determinant.
    """
    return fit(moments, FamilySpec(Family.DIAGONAL))


def fit_fixed_mean_diagonal(moments: Moments, mean) -> FitResult:
    """Best Gaussian with diagonal covariance and the mean pinned to ``mean``.

    Per coordinate the optimal variance is the second moment about the
    pinned mean, s_i = (S_Y)_ii + d_i^2, and

        M = 1/2 sum_i ln s_i - 1/2 ln det S_Y.
    """
    return fit(moments, FamilySpec(Family.FIXED_MEAN_DIAGONAL, mean))


def whitening_transform(model: GaussianModel) -> RescalingTransform:
    """Affine map sending ``model`` to the standard Gaussian.

    y -> inv(S)^(1/2) (y - m) using the unique symmetric positive root.
    Applying it to data distributed as the model yields zero mean and
    identity covariance; it is the rescaling that makes the Mahalanobis
    norm of the model coincide with the Euclidean norm.
    """
    root_inv = model.factor.power(-0.5)
    return RescalingTransform(shift=np.array(model.mean), root_inv_cov=root_inv)


@dataclass(frozen=True)
class ReportRow:
    """One family-report line: family, pinned mean when any, M and Hx."""

    family: Family
    fixed_mean: np.ndarray | None
    match: float
    cross_entropy: float


def family_report(moments: Moments, fixed_means) -> list[ReportRow]:
    """Fit every family and tabulate match scores and cross-entropies.

    Free-mean families contribute one row each; fixed-mean families
    contribute one row per entry of ``fixed_means``.  Rows follow
    FAMILY_ORDER, with fixed means in the order given.
    """
    means = [finite_vector(m, "fixed mean") for m in fixed_means]
    rows: list[ReportRow] = []
    for kind in FAMILY_ORDER:
        for m in means if kind in FIXED_MEAN_FAMILIES else [None]:
            res = fit(moments, FamilySpec(kind, m))
            rows.append(ReportRow(kind, res.family.fixed_mean, res.match, res.cross_entropy))
    return rows


def _pinned_offset(moments: Moments, spec: FamilySpec) -> np.ndarray:
    """d = m - m_Y for the pinned mean m, checked against the data dimension."""
    require_dim(spec.fixed_mean.size, moments.dim, "fixed mean", "data")
    return spec.fixed_mean - moments.mean
