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
docstrings of the individual ``fit_*`` functions.  ``fit`` dispatches on a
``FamilySpec``; ``whitening_transform`` turns a fitted model into the affine
map that sends it to the standard Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError
from .gaussians import GaussianModel, Moments, self_cross_entropy
from .linalg import spd_power, symmetrize


class Family(str, Enum):
    """Constrained Gaussian families, named as on the command line."""

    FULL = "full"
    FIXED_MEAN = "fixed-mean"
    ISOTROPIC = "isotropic"
    FIXED_MEAN_ISOTROPIC = "fixed-mean-isotropic"
    DIAGONAL = "diagonal"
    FIXED_MEAN_DIAGONAL = "fixed-mean-diagonal"


FIXED_MEAN_FAMILIES = frozenset(
    {Family.FIXED_MEAN, Family.FIXED_MEAN_ISOTROPIC, Family.FIXED_MEAN_DIAGONAL}
)

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
        kind = Family(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in FIXED_MEAN_FAMILIES:
            if self.fixed_mean is None:
                raise InvalidInputError(f"family {kind.value!r} requires a fixed mean")
            mean = np.asarray(self.fixed_mean, dtype=float).reshape(-1)
            if mean.size == 0 or not np.isfinite(mean).all():
                raise InvalidInputError("fixed mean must be a nonempty finite vector")
            mean = np.array(mean)
            mean.flags.writeable = False
            object.__setattr__(self, "fixed_mean", mean)
        elif self.fixed_mean is not None:
            raise InvalidInputError(f"family {kind.value!r} does not take a fixed mean")


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
        """Transform a single vector or an (n, dim) array of row points."""
        pts = np.asarray(points, dtype=float)
        if not np.isfinite(pts).all():
            raise InvalidInputError("points must be finite")
        if pts.ndim == 1:
            if pts.size != self.shift.size:
                raise InvalidInputError(
                    f"vector of length {pts.size} does not match transform "
                    f"dimension {self.shift.size}"
                )
            return (pts - self.shift) @ self.root_inv_cov
        if pts.ndim != 2 or pts.shape[1] != self.shift.size:
            raise InvalidInputError(
                f"expected points of dimension {self.shift.size}, got shape {pts.shape}"
            )
        return (pts - self.shift) @ self.root_inv_cov


def _result(moments: Moments, spec: FamilySpec, model: GaussianModel, match: float) -> FitResult:
    return FitResult(
        model=model,
        match=float(match),
        cross_entropy=float(match + self_cross_entropy(moments)),
        family=spec,
    )


def fit_full(moments: Moments) -> FitResult:
    """Best unconstrained Gaussian: the moment-matched one, match score 0."""
    spec = FamilySpec(Family.FULL)
    model = GaussianModel(mean=moments.mean, cov=moments.cov)
    return _result(moments, spec, model, 0.0)


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
    spec = FamilySpec(Family.FIXED_MEAN, mean)
    d = _pinned_offset(moments, spec)
    q = float(d @ moments.factor.precision @ d)
    cov = symmetrize(moments.cov + np.outer(d, d))
    model = GaussianModel(mean=spec.fixed_mean, cov=cov)
    return _result(moments, spec, model, 0.5 * math.log1p(q))


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
    spec = FamilySpec(Family.ISOTROPIC)
    n = moments.dim
    log_det = moments.factor.log_det
    scale = float(np.trace(moments.cov)) / n
    match = 0.5 * (n * math.log(scale) - log_det)
    model = GaussianModel(mean=moments.mean, cov=scale * np.eye(n))
    return _result(moments, spec, model, match)


def fit_fixed_mean_isotropic(moments: Moments, mean) -> FitResult:
    """Best Gaussian with covariance s * I and the mean pinned to ``mean``.

    With d = m - m_Y, the optimal scale is the mean squared deviation about
    the pinned mean, s = (tr(S_Y) + ||d||^2) / N, and

        M = N/2 ln(s) - 1/2 ln det S_Y.
    """
    spec = FamilySpec(Family.FIXED_MEAN_ISOTROPIC, mean)
    d = _pinned_offset(moments, spec)
    n = moments.dim
    log_det = moments.factor.log_det
    scale = (float(np.trace(moments.cov)) + float(d @ d)) / n
    match = 0.5 * (n * math.log(scale) - log_det)
    model = GaussianModel(mean=spec.fixed_mean, cov=scale * np.eye(n))
    return _result(moments, spec, model, match)


def fit_diagonal(moments: Moments) -> FitResult:
    """Best Gaussian with diagonal covariance and free mean.

    Coordinates decouple: the optimal diagonal holds the per-coordinate
    variances (S_Y)_ii, and

        M = 1/2 sum_i ln (S_Y)_ii - 1/2 ln det S_Y,

    nonnegative because the product of the diagonal entries of an SPD
    matrix dominates its determinant.
    """
    spec = FamilySpec(Family.DIAGONAL)
    log_det = moments.factor.log_det
    variances = np.diag(moments.cov).copy()
    match = 0.5 * (float(np.log(variances).sum()) - log_det)
    model = GaussianModel(mean=moments.mean, cov=np.diag(variances))
    return _result(moments, spec, model, match)


def fit_fixed_mean_diagonal(moments: Moments, mean) -> FitResult:
    """Best Gaussian with diagonal covariance and the mean pinned to ``mean``.

    Per coordinate the optimal variance is the second moment about the
    pinned mean, s_i = (S_Y)_ii + d_i^2, and

        M = 1/2 sum_i ln s_i - 1/2 ln det S_Y.
    """
    spec = FamilySpec(Family.FIXED_MEAN_DIAGONAL, mean)
    d = _pinned_offset(moments, spec)
    log_det = moments.factor.log_det
    variances = np.diag(moments.cov) + d * d
    match = 0.5 * (float(np.log(variances).sum()) - log_det)
    model = GaussianModel(mean=spec.fixed_mean, cov=np.diag(variances))
    return _result(moments, spec, model, match)


_FREE_FITTERS = {
    Family.FULL: fit_full,
    Family.ISOTROPIC: fit_isotropic,
    Family.DIAGONAL: fit_diagonal,
}

_FIXED_FITTERS = {
    Family.FIXED_MEAN: fit_fixed_mean,
    Family.FIXED_MEAN_ISOTROPIC: fit_fixed_mean_isotropic,
    Family.FIXED_MEAN_DIAGONAL: fit_fixed_mean_diagonal,
}


def fit(moments: Moments, spec: FamilySpec) -> FitResult:
    """Closed-form optimal Gaussian within the family described by ``spec``."""
    if spec.kind in _FIXED_FITTERS:
        return _FIXED_FITTERS[spec.kind](moments, spec.fixed_mean)
    return _FREE_FITTERS[spec.kind](moments)


def whitening_transform(model: GaussianModel) -> RescalingTransform:
    """Affine map sending ``model`` to the standard Gaussian.

    y -> inv(S)^(1/2) (y - m) using the unique symmetric positive root.
    Applying it to data distributed as the model yields zero mean and
    identity covariance; it is the rescaling that makes the Mahalanobis
    norm of the model coincide with the Euclidean norm.
    """
    root_inv = spd_power(model.cov, -0.5)
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
    means = [np.asarray(m, dtype=float).reshape(-1) for m in fixed_means]
    rows: list[ReportRow] = []
    for kind in FAMILY_ORDER:
        if kind in FIXED_MEAN_FAMILIES:
            for m in means:
                res = fit(moments, FamilySpec(kind, m))
                rows.append(ReportRow(kind, res.family.fixed_mean, res.match, res.cross_entropy))
        else:
            res = fit(moments, FamilySpec(kind))
            rows.append(ReportRow(kind, None, res.match, res.cross_entropy))
    return rows


def _pinned_offset(moments: Moments, spec: FamilySpec) -> np.ndarray:
    """d = m - m_Y for the pinned mean m, checked against the data dimension."""
    if spec.fixed_mean.size != moments.dim:
        raise InvalidInputError(
            f"fixed mean of length {spec.fixed_mean.size} does not match "
            f"data dimension {moments.dim}"
        )
    return spec.fixed_mean - moments.mean
