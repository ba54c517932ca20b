"""Symmetric-matrix helpers: eigendecompositions, SPD powers, trace minimization.

Everything downstream (Mahalanobis distances, whitening, the closed-form
family fits) funnels through these few routines, so they pin down the
numerical conventions once: eigenvalues are reported in descending order,
eigenvector signs are normalized, and positive definiteness is judged
against a single relative floor, in ``spd_factor``, whose factor holds the
spectrum, ``log_det``, precision and powers that every other module reads.
They also hold the argument checks that every module shares:
``float_array``, ``finite_vector``, ``require_dim``, ``integer`` (with an
optional upper bound) and ``require_seed``, ``frozen``, the read-only
copy in which models and families keep arrays, ``row_blocks``, the row
blocks by which points are summed and whitened, and ``within_float_range``,
through which every refusal of a result beyond the float range goes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, SingularMatrixError

# Relative positivity floor: an SPD matrix counts as singular once its
# smallest eigenvalue falls to 1e-10 times the mean of its spectrum, and a
# spectrum is negative beyond rounding below -1e-10 times its largest magnitude.
EIGENVALUE_FLOOR_SCALE = 1e-10

# Seeds are unsigned 64-bit words; a larger or negative one is an error,
# not an alias of another seed.
_MAX_SEED = 2**64 - 1

# Sign convention threshold: the first eigenvector component with magnitude
# above this is made positive.
_SIGN_EPS = 1e-12

# Cells (rows times columns) in one block of rows: the moments and the
# whitening go through the points a block at a time, the CSV writer formats
# one block at a time, so that no copy of the whole text is built, and either
# codec's table of distinct values holds at most this many before it is left.
# On the 4096x192 image blocks (2-vCPU host), written blocks of 2**10 to 2**17
# cells take the same time within noise, while the memory traced while
# writing their whitened points grows from about 2**15 cells on (2**14:
# 1.5 MiB; 2**17: 11.5 MiB).
BLOCK_CELLS = 2**14


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


def row_blocks(shape) -> list[slice]:
    """Slices that split the rows of an array of ``shape`` (rows, dim) into
    blocks of at most about ``BLOCK_CELLS`` cells, as even as their count
    allows: the one block rule by which ``estimate_moments`` sums the points
    and ``RescalingTransform.apply`` whitens them.

    Up to ``BLOCK_CELLS // dim`` rows are one block.  Even blocks leave no
    short last block, whose product BLAS can take by another kernel than a
    longer one's."""
    rows, dim = shape
    count = -(-rows // max(1, BLOCK_CELLS // dim))
    return [slice(rows * i // count, rows * (i + 1) // count) for i in range(count)]


def within_float_range(compute, message: str):
    """``compute()``, run with numpy's overflow and invalid-value warnings off.

    Raises InvalidInputError(message) unless every value of the result, an
    array, a float or a tuple of them, is finite.  Every overflow refusal of
    the package goes through here, so that an overflow ends in one named
    error and never in a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = compute()
    values = result if isinstance(result, tuple) else (result,)
    if not all(np.isfinite(value).all() for value in values):
        raise InvalidInputError(message)
    return result


def symmetrize(matrix) -> np.ndarray:
    """Return ``(M + M.T) / 2`` as a float array, validating the shape.

    Raises InvalidInputError when an entry of ``M`` or of the result is not
    finite; entries near the float maximum can overflow in the sum."""
    m = float_array(matrix, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix entries must be finite")
    return within_float_range(lambda: (m + m.T) / 2.0, "matrix entries overflow when symmetrized")


def eigenvalue_floor(trace: float, n: int) -> float:
    """Smallest eigenvalue still treated as strictly positive for an n x n
    matrix of trace ``trace``."""
    return EIGENVALUE_FLOOR_SCALE * (trace / n)


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
    ``matrix``, clears its floor.  A NaN never does.  A matrix whose trace
    overflows the float range raises InvalidInputError."""
    trace = within_float_range(lambda: float(np.trace(matrix)),
                               f"{name} is too large: its trace overflows the float range")
    floor = eigenvalue_floor(trace, matrix.shape[0])
    if not smallest > floor:
        raise SingularMatrixError(
            f"{name} is singular at working precision "
            f"(smallest eigenvalue {smallest:.3e}, floor {floor:.3e})", smallest, floor
        )


def require_nonnegative_definite(values: np.ndarray, name: str = "matrix") -> np.ndarray:
    """The descending spectrum ``values`` with its stray negative entries clipped
    to 0.  Raises InvalidInputError when the spectrum is negative beyond rounding:
    its smallest entry below -EIGENVALUE_FLOOR_SCALE times the largest eigenvalue
    magnitude, so that the rule holds at any scale.  An empty spectrum passes."""
    if values.size and values[-1] < -EIGENVALUE_FLOOR_SCALE * max(values[0], -values[-1]):
        raise InvalidInputError(
            f"{name} must be nonnegative definite (smallest eigenvalue {values[-1]:.3e})"
        )
    return np.clip(values, 0.0, None)


def _spectral_power(vectors: np.ndarray, values: np.ndarray, exponent: float, name: str):
    """``V diag(lam**t) V.T``, symmetrized; InvalidInputError naming ``name`` when an
    entry overflows the float range."""
    powered = within_float_range(lambda: (vectors * values ** exponent) @ vectors.T,
                                 f"power {exponent:g} of the {name} overflows the float range")
    return symmetrize(powered)


@dataclass(frozen=True, eq=False)
class SpdFactor:
    """Spectral factor of a symmetric positive definite matrix S.

    The inverse and the powers raise InvalidInputError, naming S, when an
    entry overflows the float range, as for a subnormal spectrum."""

    values: np.ndarray   # eigenvalues, descending, all above the floor
    vectors: np.ndarray  # orthonormal columns, column i pairs with values[i]
    log_det: float       # ln det S
    name: str            # what S is, for error messages

    @cached_property
    def precision(self) -> np.ndarray:
        """``inv(S)``, symmetrized and read-only, computed on first read."""
        precision = within_float_range(lambda: (self.vectors / self.values) @ self.vectors.T,
                                       f"inverse of the {self.name} overflows the float range")
        return frozen(symmetrize(precision))

    def power(self, exponent: float) -> np.ndarray:
        """``S**t`` by the spectral map ``V diag(lam**t) V.T``, symmetrized."""
        return _spectral_power(self.vectors, self.values, exponent, self.name)


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
    return SpdFactor(eig.values, eig.vectors, float(np.log(eig.values).sum()), name)


def spd_power(matrix, exponent: float) -> np.ndarray:
    """Symmetric power ``M**t`` via the spectral map ``U diag(lam**t) U.T``.

    Negative exponents require the matrix to be positive definite above the
    eigenvalue floor; SingularMatrixError is raised otherwise.  Nonnegative
    exponents take a nonnegative definite input, as ``min_trace_assignment``
    does, and clamp its stray negative eigenvalues to zero; an empty matrix
    gives an empty result.  A power that overflows the float range raises
    InvalidInputError.
    """
    if exponent < 0.0:
        return spd_factor(matrix).power(exponent)
    eig = sym_eigen(matrix)
    return _spectral_power(eig.vectors, require_nonnegative_definite(eig.values), exponent,
                           "matrix")


def min_trace_assignment(target_spectrum, matrix) -> float:
    """Minimum of ``tr(A @ B)`` over symmetric A with a prescribed spectrum.

    ``target_spectrum`` lists the eigenvalues A must have, in ascending
    order.  The minimum pairs them against the eigenvalues of B taken in
    descending order:

        min tr(A B) = sum_i  lam_i^ascending * beta_i^descending

    and is attained when A and B share eigenvectors with that pairing.
    B must be symmetric nonnegative definite.  A minimum beyond the float
    range raises InvalidInputError.
    """
    lam = finite_vector(target_spectrum, "target spectrum")
    if np.any(np.diff(lam) < 0.0):
        raise InvalidInputError("target spectrum must be in ascending order")
    if np.any(lam < 0.0):
        raise InvalidInputError("target spectrum must be nonnegative")
    b = symmetrize(matrix)
    require_dim(lam.size, b.shape[0], "target spectrum", "matrix")
    beta = require_nonnegative_definite(sym_eigen(b).values)
    # lam ascending, beta descending: the anti-aligned pairing.
    return within_float_range(lambda: float(lam @ beta),
                              "spectra are too large: their minimum trace overflows the float range")
