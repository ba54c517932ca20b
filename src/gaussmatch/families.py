"""Closed-form optimal Gaussians within constrained families.

Six families are supported, each a subset of the Gaussian densities on R^N:

    full                  all Gaussians
    fixed-mean            mean pinned to a given point m
    isotropic             covariance s * I, free mean
    fixed-mean-isotropic  covariance s * I, mean pinned to m
    diagonal              diagonal covariance, free mean
    fixed-mean-diagonal   diagonal covariance, mean pinned to m

For each family the minimizer of the cross-entropy (equivalently of the
match score) has a closed form in the dataset moments; ``fit`` computes it
for any family, and its docstring lists the six closed forms and where
they come from.  ``family_report`` fits every family at once, or one at a
time through ``family_fits``, and
``whitening_transform`` turns a fitted model into the affine map that sends
it to the standard Gaussian.

Twin rule: each fixed-mean family is its free-mean twin with the second
moments taken about the pinned mean m instead of m_Y.  With d = m - m_Y
they are S_Y + d d' (the deflated-inverse form of the paper, by
Sherman-Morrison), so the free fit is the case d = 0.  ``fit`` is the one
closed-form path: its ``_optimum`` branches once on the covariance shape
and adds the offset d only when the mean is pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import InvalidInputError
from .gaussians import GaussianModel, Moments, self_cross_entropy
from .linalg import finite_vector, float_array, frozen, require_dim, row_blocks, spd_power
from .linalg import symmetrize, within_float_range


class Family(str, Enum):
    """Constrained Gaussian families, named as on the command line.

    The members are in presentation order: each free-mean family, then its
    fixed-mean twin.
    """

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

FAMILY_ORDER = tuple(Family)

_FAR_MEAN = "fixed mean is so far from the data that its fit overflows the float range"


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """A family together with its fixed mean when the family requires one.
    ``==`` compares identity."""

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


@dataclass(frozen=True, eq=False)
class FitResult:
    """Optimal model within a family, with its match score and cross-entropy.
    ``==`` compares identity."""

    model: GaussianModel
    match: float
    cross_entropy: float
    family: FamilySpec


@dataclass(frozen=True, eq=False)
class RescalingTransform:
    """Affine map y -> root_inv_cov @ (y - shift) written for row vectors.
    ``==`` compares identity."""

    shift: np.ndarray
    root_inv_cov: np.ndarray

    def apply(self, points, overwrite: bool = False) -> np.ndarray:
        """Transform a single vector or an (n, dim) array of row points.

        The rows are whitened by the blocks of ``row_blocks``, the ones that
        ``estimate_moments`` sums by, and each block's ``block - shift`` is
        the only temporary.  With ``overwrite`` the result is written over
        the points when they are a writable C-ordered float array, and the
        points are lost: the transform then holds one array of their size
        and a block.  The result has the same bits either way.  Raises
        InvalidInputError when a transformed value overflows."""
        pts = float_array(points, "points")
        if pts.ndim not in (1, 2):
            raise InvalidInputError(f"expected a vector or (n, dim) points, got shape {pts.shape}")
        require_dim(pts.shape[-1], self.shift.size, "points", "transform")
        if not np.isfinite(pts).all():
            raise InvalidInputError("points must be finite")
        out = pts if overwrite and pts.flags.writeable and pts.flags.c_contiguous else None
        return within_float_range(partial(self._whiten, pts, out),
                                  "transformed points overflow the float range")

    def _whiten(self, pts: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """``(pts - shift) @ root_inv_cov`` written into ``out``, or a new array
        when it is None, by row blocks; a vector is one row."""
        out = np.empty(pts.shape) if out is None else out
        rows, out_rows = (a.reshape(-1, self.shift.size) for a in (pts, out))
        for block in row_blocks(rows.shape):
            np.matmul(rows[block] - self.shift, self.root_inv_cov, out=out_rows[block])
        return out


def fit(moments: Moments, spec: FamilySpec) -> FitResult:
    """Closed-form optimal Gaussian within the family described by ``spec``.

    The covariance shape is that of the free-mean twin; a pinned mean adds
    the offset d = m - m_Y to the second moments (see the module docstring).
    With N the dimension and q = d' inv(S_Y) d, the optimum of each family is:

    full                  Nor(m_Y, S_Y), the moment-matched Gaussian, M = 0.
    fixed-mean            S = S_Y + d d', M = 1/2 ln(1 + q); the same S in the
                          deflated-inverse form S_Y (S_Y - d d' / (1 + q))^-1 S_Y
                          is ``fixed_mean_cov_inverse_form``.
    isotropic             S = s I with s = tr(S_Y) / N, and
                          M = N/2 ln(s) - 1/2 ln det S_Y, the log of the ratio
                          of the arithmetic to the geometric mean of the
                          eigenvalues of S_Y (nonnegative by AM-GM).
    fixed-mean-isotropic  s = (tr(S_Y) + ||d||^2) / N, the mean squared
                          deviation about m, and M as for isotropic.
    diagonal              S = diag((S_Y)_ii): coordinates decouple, and
                          M = 1/2 sum_i ln (S_Y)_ii - 1/2 ln det S_Y, nonnegative
                          because the product of the diagonal entries of an
                          SPD matrix dominates its determinant.
    fixed-mean-diagonal   s_i = (S_Y)_ii + d_i^2, the second moment about m
                          per coordinate, and M = 1/2 sum_i ln s_i - 1/2 ln det S_Y.

    A pinned mean so far from the data that its fit overflows the float
    range raises InvalidInputError.
    """
    pinned = spec.fixed_mean is not None
    # The terms in d overflow for a pinned mean far from the data; a finite
    # fit has the same bits either way.
    cov, match, _ = (within_float_range(partial(_optimum, moments, spec), _FAR_MEAN) if pinned
                     else _optimum(moments, spec))
    model = GaussianModel(mean=spec.fixed_mean if pinned else moments.mean, cov=cov)
    return FitResult(model=model, match=float(match),
                     cross_entropy=float(match + self_cross_entropy(moments)), family=spec)


def _optimum(moments: Moments, spec: FamilySpec):
    """(S, M, S + S') of the family's optimum, by the closed form of its
    covariance shape, with d = m - m_Y added when the mean is pinned.

    S + S' is there to be checked: a pinned fit is refused whenever
    GaussianModel would refuse S, as one whose (S + S') / 2 overflows."""
    pinned = spec.fixed_mean is not None
    n, log_det = moments.dim, moments.factor.log_det
    d = _pinned_offset(moments, spec) if pinned else None
    if spec.shape is Family.FULL:
        # A literal 0.0: 0.5 * log1p(q) at d = 0 can be -0.0.
        cov, match = moments.cov, 0.0
        if pinned:
            q = float(d @ moments.factor.precision @ d)
            cov, match = moments.cov + np.outer(d, d), 0.5 * math.log1p(q)
    elif spec.shape is Family.ISOTROPIC:
        scale = (float(np.trace(moments.cov)) + (float(d @ d) if pinned else 0.0)) / n
        cov, match = scale * np.eye(n), 0.5 * (n * math.log(scale) - log_det)
    else:
        variances = np.diag(moments.cov) + d * d if pinned else np.diag(moments.cov)
        cov, match = np.diag(variances), 0.5 * (float(np.log(variances).sum()) - log_det)
    return cov, match, cov + cov.T


def fixed_mean_cov_inverse_form(moments: Moments, mean) -> np.ndarray:
    """Fixed-mean optimal covariance via the deflated-inverse expression.

    Computes S_Y (S_Y - d d' / (1 + q))^-1 S_Y, which is algebraically equal
    to S_Y + d d' but exercises a different numerical path.  Raises
    SingularMatrixError when the deflated matrix is not invertible at
    working precision, and InvalidInputError, as ``fit`` does, when a
    fixed mean far from the data makes a term overflow the float range.
    """
    d = _pinned_offset(moments, FamilySpec(Family.FIXED_MEAN, mean))
    q = within_float_range(lambda: float(d @ moments.factor.precision @ d), _FAR_MEAN)
    deflated = within_float_range(lambda: moments.cov - np.outer(d, d) / (1.0 + q), _FAR_MEAN)
    inverse = spd_power(deflated, -1.0)
    return symmetrize(within_float_range(lambda: moments.cov @ inverse @ moments.cov, _FAR_MEAN))


def whitening_transform(model: GaussianModel) -> RescalingTransform:
    """Affine map sending ``model`` to the standard Gaussian.

    y -> inv(S)^(1/2) (y - m) using the unique symmetric positive root.
    Applying it to data distributed as the model yields zero mean and
    identity covariance; it is the rescaling that makes the Mahalanobis
    norm of the model coincide with the Euclidean norm.
    """
    root_inv = model.factor.power(-0.5)
    return RescalingTransform(shift=np.array(model.mean), root_inv_cov=root_inv)


def family_report(moments: Moments, fixed_means) -> list[FitResult]:
    """Fit every family: one FitResult per free-mean family and, for each
    fixed-mean family, one per entry of ``fixed_means``.  Results follow
    FAMILY_ORDER, with fixed means in the order given.
    """
    return list(family_fits(moments, fixed_means))


def family_fits(moments: Moments, fixed_means):
    """Generator of the FitResults of ``family_report``, in its order, each
    fitted as it is asked for, so that a caller that keeps only its numbers
    holds one fit at a time.  The fixed means are checked first.
    """
    try:
        means = [finite_vector(m, "fixed mean") for m in fixed_means]
    except TypeError:  # fixed_means is not iterable
        raise InvalidInputError(
            f"fixed_means must be a sequence of vectors, got {type(fixed_means).__name__}"
        ) from None
    for kind in FAMILY_ORDER:
        for m in means if kind in FIXED_MEAN_FAMILIES else [None]:
            yield fit(moments, FamilySpec(kind, m))


def _pinned_offset(moments: Moments, spec: FamilySpec) -> np.ndarray:
    """d = m - m_Y for the pinned mean m, checked against the data dimension."""
    require_dim(spec.fixed_mean.size, moments.dim, "fixed mean", "data")
    return spec.fixed_mean - moments.mean
