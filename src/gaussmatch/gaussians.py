"""Dataset moments, Gaussian cross-entropy, and the match score.

For a dataset Y with mean m_Y and covariance S_Y, the cross-entropy of Y
against the Gaussian density Nor(m, S) has the closed form

    Hx(Y || Nor(m, S)) = N/2 ln(2 pi) + 1/2 ||m - m_Y||_S^2
                         + 1/2 tr(S^-1 S_Y) + 1/2 ln det S

where ||v||_S^2 = v' S^-1 v is the squared Mahalanobis norm.  Subtracting
the entropy of the moment-matched Gaussian gives the match score

    M(Y || Nor(m, S)) = Hx(Y || Nor(m, S)) - Hx(Y || Nor(m_Y, S_Y))
                      = 1/2 ( ||m - m_Y||_S^2 + tr(S^-1 S_Y)
                              - ln det(S^-1 S_Y) - N )

which is nonnegative and zero exactly when (m, S) = (m_Y, S_Y).  The score
depends on the data only through its first two moments, so the routines
here take a ``Moments`` summary rather than raw points.  A ``Moments`` is
itself a ``GaussianModel``: the moment-matched Nor(m_Y, S_Y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .linalg import EigenDecomposition, SpdFactor, finite_vector, float_array, frozen
from .linalg import require_dim, require_nonnegative_definite, spd_factor, sym_eigen, symmetrize
from .linalg import row_blocks, within_float_range

LOG_TWO_PI = math.log(2.0 * math.pi)


def as_point_set(points) -> np.ndarray:
    """Validate and return a dataset as an (n, dim) float array.

    One-dimensional input is treated as n scalar observations.  At least
    two points are required; entries must be finite.
    """
    pts = float_array(points, "points")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise InvalidInputError(f"expected an (n, dim) array of points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidInputError("points must be finite")
    if pts.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 points, got {pts.shape[0]}")
    return pts


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Parameters (mean, covariance) of a Gaussian density.  ``==`` compares identity."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = finite_vector(self.mean, "mean")
        cov = symmetrize(self.cov)
        require_dim(cov.shape[0], mean.size, "covariance", "mean")
        object.__setattr__(self, "mean", frozen(mean))
        object.__setattr__(self, "cov", frozen(cov))

    @property
    def dim(self) -> int:
        return self.mean.size

    @cached_property
    def factor(self) -> SpdFactor:
        """Spectrum, ``ln det S`` and ``inv(S)`` of the covariance, computed on first use.

        Raises SingularMatrixError when S is below the eigenvalue floor.
        """
        return spd_factor(self.cov, name="model covariance")


class Moments(GaussianModel):
    """Mean and covariance of a dataset: its moment-matched Gaussian Nor(m_Y, S_Y).

    S_Y must be nonnegative definite.  It is decomposed once, on
    construction; every fit shares ``factor``.
    """

    def __post_init__(self):
        super().__post_init__()
        eig = sym_eigen(self.cov)
        require_nonnegative_definite(eig.values, "covariance")
        object.__setattr__(self, "_eigen", EigenDecomposition(*map(frozen, eig)))

    @cached_property
    def factor(self) -> SpdFactor:
        """Spectrum, ``ln det S_Y`` and ``inv(S_Y)`` from the decomposition made on construction.

        Raises SingularMatrixError when S_Y is below the eigenvalue floor.
        """
        return spd_factor(self.cov, self._eigen, "data covariance")


def estimate_moments(points) -> Moments:
    """Sample mean and covariance of a dataset.

    The covariance uses the 1/n divisor: it is the second central moment of
    the empirical distribution, which is what the cross-entropy formulas
    integrate against.  It is ``moments_from_sums(moment_sums(points))``,
    so the points are never written and no second array of their size is
    made.  Points so large that the mean or the covariance overflows the
    float range raise InvalidInputError.
    """
    return moments_from_sums(moment_sums(as_point_set(points)))


# The refusal of points whose moments overflow the float range.
_TOO_LARGE = "points are too large: their covariance overflows the float range"


def moment_sums(points: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, mean, centred product) of an (n, dim) float array with n >= 1.

    The centred product is the sum of ``block.T @ block`` of the centred
    rows ``block = points[rows] - mean`` over the blocks of ``row_blocks``, the
    ones that ``RescalingTransform.apply`` whitens by; up to
    ``BLOCK_CELLS // dim`` points are one block and one product.  Raises
    InvalidInputError when the mean or the product overflows."""

    def sums():
        mean = points.mean(axis=0)
        centred = (points[rows] - mean for rows in row_blocks(points.shape))
        # map keeps no block while it makes the next; reduce adds no 0
        # first, which would turn a -0.0 product into 0.0
        return len(points), mean, reduce(np.add, map(lambda block: block.T @ block, centred))

    return within_float_range(sums, _TOO_LARGE)


def merge_moment_sums(first, second) -> tuple[int, np.ndarray, np.ndarray]:
    """The ``moment_sums`` of two point sets together, from theirs.

    The pairwise update of Chan, Golub & LeVeque (1979): with delta the
    difference of the means, the mean moves by delta * n2 / n and the
    centred products add, plus delta delta' * n1 n2 / n.  Raises
    InvalidInputError when the two differ in dimension, or when the result,
    or the sum of the points that the mean implies, overflows."""
    (count_1, mean_1, product_1), (count_2, mean_2, product_2) = first, second
    require_dim(mean_2.size, mean_1.size, "points", "points")
    count = count_1 + count_2

    def merged():
        delta = mean_2 - mean_1
        mean = mean_1 + delta * (count_2 / count)
        product = product_1 + product_2 + np.outer(delta, delta) * (count_1 * count_2 / count)
        return count, mean, product, mean * count

    return within_float_range(merged, _TOO_LARGE)[:3]


def moments_from_sums(sums) -> Moments:
    """The Moments of a point set from its ``moment_sums``: the mean, and
    the centred product over n.  Fewer than two points raise
    InsufficientDataError."""
    count, mean, product = sums
    if count < 2:
        raise InsufficientDataError(f"need at least 2 points, got {count}")
    return Moments(mean, product / count)


def mahalanobis_sq(vector, cov) -> float:
    """Squared Mahalanobis norm ``v' inv(S) v`` of a vector under covariance S.

    Raises InvalidInputError when the norm overflows the float range."""
    v = finite_vector(vector, "vector")
    s = symmetrize(cov)
    require_dim(v.size, s.shape[0], "vector", "covariance")
    precision = spd_factor(s, name="covariance").precision
    return within_float_range(lambda: float(v @ precision @ v),
                              "vector is too long: its Mahalanobis norm overflows the float range")


def cross_entropy(moments: Moments, model: GaussianModel) -> float:
    """Cross-entropy of the data distribution against a Gaussian density.

    Closed form in the dataset moments; equals the mean negative
    log-density of the data points under the model.
    """
    maha, trace_term, model_log_det = _model_terms(moments, model)
    return 0.5 * (moments.dim * LOG_TWO_PI + maha + trace_term + model_log_det)


def self_cross_entropy(moments: Moments) -> float:
    """Cross-entropy of the data against its own moment-matched Gaussian.

    Equals the differential entropy N/2 ln(2 pi e) + 1/2 ln det S_Y and is
    the infimum of ``cross_entropy`` over all Gaussian models.
    """
    return 0.5 * (moments.dim * (LOG_TWO_PI + 1.0) + moments.factor.log_det)


def match_score(moments: Moments, model: GaussianModel) -> float:
    """Excess cross-entropy of ``model`` over the best Gaussian for the data.

    M = 1/2 ( ||m - m_Y||_S^2 + tr(S^-1 S_Y) - ln det(S^-1 S_Y) - N ).

    Nonnegative; zero exactly at the moment-matched model.  Invariant under
    applying one affine change of variables to both the data and the model.
    """
    maha, trace_term, model_log_det = _model_terms(moments, model)
    return 0.5 * (maha + trace_term - (moments.factor.log_det - model_log_det) - moments.dim)


def _model_terms(moments: Moments, model: GaussianModel) -> tuple[float, float, float]:
    """``||m - m_Y||_S^2``, ``tr(S^-1 S_Y)`` and ``ln det S`` for the model (m, S).

    Raises InvalidInputError, without a numpy warning, when the first two
    overflow the float range, as for a model mean far from the data."""
    require_dim(model.dim, moments.dim, "model", "data")
    factor = model.factor

    def terms():
        diff = model.mean - moments.mean
        maha = float(diff @ factor.precision @ diff)
        trace_term = float(np.sum(factor.precision * moments.cov))
        # the sum is checked too: the score adds the two
        return maha, trace_term, factor.log_det, maha + trace_term

    return within_float_range(
        terms, "model is so far from the data that its score overflows the float range")[:3]
