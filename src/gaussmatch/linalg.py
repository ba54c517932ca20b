"""Symmetric-matrix helpers: eigendecompositions, SPD powers, trace minimization.

Everything downstream (Mahalanobis distances, whitening, the closed-form
family fits) funnels through these few routines, so they pin down the
numerical conventions once: eigenvalues are reported in descending order,
eigenvector signs are normalized, and positive definiteness is judged
against a single relative floor.  They also hold the argument checks that
every module shares: ``float_array``, ``finite_vector``, ``require_dim``,
``integer`` (with an optional upper bound) and ``require_seed``, and
``frozen``, the read-only copy in which models and families keep arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, SingularMatrixError

# Relative positivity floor: an SPD matrix counts as singular once its
# smallest eigenvalue falls to 1e-10 times the mean of its spectrum.
EIGENVALUE_FLOOR_SCALE = 1e-10

# Seeds are unsigned 64-bit words; a larger or negative one is an error,
# not an alias of another seed.
_MAX_SEED = 2**64 - 1

# Sign convention threshold: the first eigenvector component with magnitude
# above this is made positive.
_SIGN_EPS = 1e-12


class EigenDecomposition(NamedTuple):
    """Spectral factorization M = vectors @ diag(values) @ vectors.T."""

    values: np.ndarray   # eigenvalues, descending
    vectors: np.ndarray  # orthonormal columns, column i pairs with values[i]


def float_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; InvalidInputError naming it when numpy cannot
    convert it, as for a ragged list, a dict, text that is not a number or an
    integer beyond the float range."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{name} is not an array of numbers") from None


def finite_vector(value, name: str) -> np.ndarray:
    """``value`` flattened to a float vector; InvalidInputError naming it when the
    vector is empty or holds a value that is not finite."""
    vector = float_array(value, name).reshape(-1)
    if vector.size == 0 or not np.isfinite(vector).all():
        raise InvalidInputError(f"{name} must be a nonempty finite vector")
    return vector


def require_dim(size: int, dim: int, what: str, against: str) -> None:
    """Raise InvalidInputError, naming both sides, unless ``what`` of dimension
    ``size`` agrees with ``against`` of dimension ``dim``."""
    if size != dim:
        raise InvalidInputError(f"{what} has dimension {size}, {against} has dimension {dim}")


def integer(value, name: str, high: int | None = None) -> int:
    """``value`` as an int; InvalidInputError naming it unless it is an integer,
    such as a count or a size, and at most ``high`` when that is given.  Numpy
    integers count, bools do not.  The message leaves out a value above
    ``high``, which can have more digits than ``str`` converts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {type(value).__name__}")
    if high is not None and value > high:
        raise InvalidInputError(f"{name} must be at most {high}")
    return int(value)


def require_seed(seed) -> None:
    """Raise InvalidInputError unless ``seed`` is an integer in 0..2**64-1.
    Numpy integers count, bools do not.  The message names an int of more
    than 2048 bits by its length, since ``str`` may refuse its digits."""
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and 0 <= seed <= _MAX_SEED):
        long = isinstance(seed, int) and seed.bit_length() > 2048
        got = f"an integer of {seed.bit_length()} bits" if long else repr(seed)
        raise InvalidInputError(f"seed must be an integer in 0..2**64-1, got {got}")


def frozen(array) -> np.ndarray:
    """A read-only float copy of ``array``."""
    out = np.array(array, dtype=float)
    out.flags.writeable = False
    return out


def symmetrize(matrix) -> np.ndarray:
    """Return ``(M + M.T) / 2`` as a float array, validating the shape.

    Raises InvalidInputError when an entry of ``M`` or of the result is not
    finite; entries near the float maximum can overflow in the sum."""
    m = float_array(matrix, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (m + m.T) / 2.0
    if not np.isfinite(sym).all():
        if not np.isfinite(m).all():
            raise InvalidInputError("matrix entries must be finite")
        raise InvalidInputError("matrix entries overflow when symmetrized")
    return sym


def eigenvalue_floor(matrix: np.ndarray) -> float:
    """Smallest eigenvalue still treated as strictly positive for ``matrix``."""
    n = matrix.shape[0]
    return EIGENVALUE_FLOOR_SCALE * (float(np.trace(matrix)) / n)


def sym_eigen(matrix) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix with deterministic output.

    The input is symmetrized first, eigenvalues come back in descending
    order, and each eigenvector is flipped if needed so that its first
    component of magnitude above 1e-12 is positive.  Degenerate subspaces
    still admit many valid bases, but for simple spectra the result is a
    reproducible function of the input.
    """
    m = symmetrize(matrix)
    raw_values, raw_vectors = np.linalg.eigh(m)
    # eigh returns ascending eigenvalues; flip to descending.
    values = raw_values[::-1].copy()
    vectors = raw_vectors[:, ::-1].copy()
    if vectors.size:
        # Row of each column's first entry above the threshold; a unit
        # column always has one.
        lead = (np.abs(vectors) > _SIGN_EPS).argmax(axis=0)
        flip = vectors[lead, np.arange(m.shape[0])] < 0.0
        vectors[:, flip] = -vectors[:, flip]
    return EigenDecomposition(values, vectors)


def require_positive_definite(smallest: float, matrix: np.ndarray, name: str = "matrix") -> None:
    """Raise SingularMatrixError unless ``smallest``, the smallest eigenvalue of
    ``matrix``, clears its floor.  A NaN never does."""
    floor = eigenvalue_floor(matrix)
    if not smallest > floor:
        raise SingularMatrixError(
            f"{name} is singular at working precision "
            f"(smallest eigenvalue {smallest:.3e}, floor {floor:.3e})", smallest, floor
        )


def require_nonnegative_definite(values: np.ndarray, name: str = "matrix") -> None:
    """Raise InvalidInputError when the descending spectrum ``values`` is negative
    beyond rounding: its smallest entry below -1e-10 * max(1, largest entry)."""
    if float(values[-1]) < -1e-10 * max(1.0, float(values[0])):
        raise InvalidInputError(
            f"{name} must be nonnegative definite (smallest eigenvalue {values[-1]:.3e})"
        )


@dataclass(frozen=True, eq=False)
class SpdFactor:
    """Spectral factor of a symmetric positive definite matrix S."""

    values: np.ndarray   # eigenvalues, descending, all above the floor
    vectors: np.ndarray  # orthonormal columns, column i pairs with values[i]
    log_det: float       # ln det S

    @cached_property
    def precision(self) -> np.ndarray:
        """``inv(S)``, symmetrized and read-only, computed on first read."""
        precision = symmetrize((self.vectors / self.values) @ self.vectors.T)
        precision.flags.writeable = False
        return precision

    def power(self, exponent: float) -> np.ndarray:
        """``S**t`` by the spectral map ``V diag(lam**t) V.T``, symmetrized."""
        return symmetrize((self.vectors * self.values ** exponent) @ self.vectors.T)


def spd_factor(matrix, eig: EigenDecomposition | None = None, name: str = "matrix") -> SpdFactor:
    """Spectral factor of an SPD matrix from ``eig = sym_eigen(matrix)``; its inverse
    is built on the first read of ``precision``.

    Raises InvalidInputError for a 0x0 matrix, which has no spectrum to judge,
    and SingularMatrixError below the positivity floor."""
    m = symmetrize(matrix)
    if m.size == 0:
        raise InvalidInputError(f"{name} is empty")
    if eig is None:
        eig = sym_eigen(m)
    require_positive_definite(float(eig.values[-1]), m, name)
    return SpdFactor(eig.values, eig.vectors, float(np.log(eig.values).sum()))


def log_det_spd(matrix) -> float:
    """``ln det M`` for symmetric positive definite ``M``.

    Raises SingularMatrixError when the smallest eigenvalue does not clear
    the positivity floor.
    """
    return spd_factor(matrix).log_det


def spd_power(matrix, exponent: float) -> np.ndarray:
    """Symmetric power ``M**t`` via the spectral map ``U diag(lam**t) U.T``.

    Negative exponents require the matrix to be positive definite above the
    eigenvalue floor; SingularMatrixError is raised otherwise.  Nonnegative
    exponents tolerate a semidefinite input by clamping stray negative
    eigenvalues to zero.
    """
    if exponent < 0.0:
        return spd_factor(matrix).power(exponent)
    eig = sym_eigen(matrix)
    powered = np.clip(eig.values, 0.0, None) ** exponent
    return symmetrize((eig.vectors * powered) @ eig.vectors.T)


def min_trace_assignment(target_spectrum, matrix) -> float:
    """Minimum of ``tr(A @ B)`` over symmetric A with a prescribed spectrum.

    ``target_spectrum`` lists the eigenvalues A must have, in ascending
    order.  The minimum pairs them against the eigenvalues of B taken in
    descending order:

        min tr(A B) = sum_i  lam_i^ascending * beta_i^descending

    and is attained when A and B share eigenvectors with that pairing.
    B must be symmetric nonnegative definite.
    """
    lam = finite_vector(target_spectrum, "target spectrum")
    if np.any(np.diff(lam) < 0.0):
        raise InvalidInputError("target spectrum must be in ascending order")
    if np.any(lam < 0.0):
        raise InvalidInputError("target spectrum must be nonnegative")
    b = symmetrize(matrix)
    require_dim(lam.size, b.shape[0], "target spectrum", "matrix")
    beta = sym_eigen(b).values
    require_nonnegative_definite(beta)
    beta = np.clip(beta, 0.0, None)
    # lam ascending, beta descending: the anti-aligned pairing.
    return float(lam @ beta)
