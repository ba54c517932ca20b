"""Symmetric eigen helpers, SPD powers, and the trace-minimization bound."""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaussmatch import (
    Family,
    FamilySpec,
    GaussianModel,
    GaussMatchError,
    InvalidInputError,
    Moments,
    Raster,
    SingularMatrixError,
    as_point_set,
    estimate_moments,
    family_report,
    image_to_blocks,
    mahalanobis_sq,
    min_trace_assignment,
    sample_gaussian,
    spd_power,
    standard_normals,
    sym_eigen,
    symmetrize,
    verify_families,
    whitening_transform,
    write_points_csv,
    write_ppm,
)
from gaussmatch.linalg import (
    SpdFactor,
    finite_vector,
    float_array,
    frozen,
    integer,
    require_dim,
    require_seed,
    spd_factor,
)
from helpers import random_orthogonal, random_spd

RECON_TOL = 1e-10
ORTHO_TOL = 1e-10


def _loop_sign_rule(vectors):
    """Flip each column whose first entry above 1e-12 in magnitude is negative."""
    out = vectors.copy()
    for i in range(out.shape[1]):
        column = out[:, i]
        lead = np.flatnonzero(np.abs(column) > 1e-12)
        if lead.size and column[lead[0]] < 0.0:
            out[:, i] = -column
    return out


class TestSymEigen:
    def test_identity(self):
        eig = sym_eigen(np.eye(3))
        np.testing.assert_allclose(eig.values, np.ones(3))
        np.testing.assert_allclose(eig.vectors @ eig.vectors.T, np.eye(3), atol=ORTHO_TOL)

    def test_diagonal_descending(self):
        eig = sym_eigen(np.diag([1.0, 3.0, 2.0]))
        np.testing.assert_allclose(eig.values, [3.0, 2.0, 1.0])

    def test_worked_2d_example(self):
        # char poly: lam^2 - 1.6 lam + 0.51, roots (1.6 +- sqrt(0.52)) / 2
        cov = np.array([[1.0, 0.3], [0.3, 0.6]])
        eig = sym_eigen(cov)
        root = math.sqrt(1.6 * 1.6 - 4 * 0.51)
        np.testing.assert_allclose(eig.values, [(1.6 + root) / 2, (1.6 - root) / 2], rtol=1e-12)
        assert abs(np.prod(eig.values) - 0.51) < 1e-12
        assert abs(np.sum(eig.values) - 1.6) < 1e-12

    def test_reconstruction_and_orthogonality(self):
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            n = int(rng.integers(2, 6))
            m = random_spd(rng, n)
            eig = sym_eigen(m)
            scale = np.linalg.norm(m)
            recon = (eig.vectors * eig.values) @ eig.vectors.T
            assert np.linalg.norm(recon - m) <= RECON_TOL * scale
            assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(n)) <= ORTHO_TOL
            assert np.all(np.diff(eig.values) <= 1e-12 * max(1.0, scale))

    def test_sign_convention(self):
        # eigenvector of [[0,1],[1,0]] for eigenvalue -1 is (1,-1)/sqrt(2) after flip
        eig = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for i in range(2):
            column = eig.vectors[:, i]
            lead = np.flatnonzero(np.abs(column) > 1e-12)[0]
            assert column[lead] > 0
        # Block-diagonal and permuted inputs have eigenvectors whose leading
        # entries are exactly 0 (or below the threshold), so the rule must
        # look past them; the vectors must match the column-by-column rule.
        rng = np.random.default_rng(3)
        blocks = np.zeros((5, 5))
        blocks[:2, :2] = [[2.0, -1.0], [-1.0, 3.0]]
        blocks[2:, 2:] = [[5.0, -2.0, 0.5], [-2.0, 1.0, 0.0], [0.5, 0.0, 7.0]]
        perm = np.array([3, 0, 4, 2, 1])
        tiny = np.array([[1.0, 1e-13, 0.0], [1e-13, 2.0, -0.5], [0.0, -0.5, 4.0]])
        inputs = [blocks, blocks[np.ix_(perm, perm)], -blocks, tiny, random_spd(rng, 6),
                  np.diag([1.0, -2.0, 3.0]), np.zeros((0, 0))]
        zero_leads = 0
        for m in inputs:
            eig = sym_eigen(m)
            raw = np.linalg.eigh(symmetrize(m))[1][:, ::-1]
            expected = _loop_sign_rule(raw)
            assert eig.vectors.tobytes() == expected.tobytes()
            zero_leads += int(np.count_nonzero(np.abs(eig.vectors[:1]) <= 1e-12))
        assert zero_leads >= 4

    def test_determinism(self):
        rng = np.random.default_rng(7)
        m = random_spd(rng, 4)
        a = sym_eigen(m)
        b = sym_eigen(m.copy())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(InvalidInputError):
            sym_eigen(np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestSpdPower:
    def test_square_matches_matmul(self):
        rng = np.random.default_rng(11)
        m = random_spd(rng, 3)
        np.testing.assert_allclose(spd_power(m, 2.0), m @ m, rtol=1e-10, atol=1e-12)

    def test_inverse(self):
        m = np.array([[2.0, 0.0], [0.0, 0.5]])
        np.testing.assert_allclose(spd_power(m, -1.0), np.diag([0.5, 2.0]), rtol=1e-12)

    def test_root_squares_back(self):
        for trial in range(8):
            rng = np.random.default_rng(200 + trial)
            n = int(rng.integers(2, 6))
            m = random_spd(rng, n)
            root = spd_power(m, 0.5)
            assert np.linalg.norm(root @ root - m) <= 1e-9 * np.linalg.norm(m)
            assert np.linalg.norm(root - root.T) == 0.0

    def test_zero_power_is_identity(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 4)
        np.testing.assert_allclose(spd_power(m, 0.0), np.eye(4), atol=1e-12)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([(-1.0, 0.5), (0.5, 0.5), (-0.5, -0.5), (1.0, 2.0)]),
    )
    def test_power_law(self, seed, exponents):
        a, b = exponents
        rng = np.random.default_rng(seed)
        m = random_spd(rng, int(rng.integers(2, 5)))
        left = spd_power(m, a) @ spd_power(m, b)
        right = spd_power(m, a + b)
        assert np.linalg.norm(left - right) <= 1e-8 * max(1.0, np.linalg.norm(right))

    @pytest.mark.parametrize("exponent", [-1.0, -0.5, 0.5, 2.0])
    def test_factor_power_is_the_spectral_map(self, exponent):
        rng = np.random.default_rng(12)
        m = random_spd(rng, 6)
        eig = sym_eigen(m)
        expected = symmetrize((eig.vectors * eig.values ** exponent) @ eig.vectors.T)
        assert spd_factor(m).power(exponent).tobytes() == expected.tobytes()
        assert spd_power(m, exponent).tobytes() == expected.tobytes()
        if exponent == 0.5:
            # the sampler's root, once written with np.sqrt
            root = symmetrize((eig.vectors * np.sqrt(eig.values)) @ eig.vectors.T)
            assert spd_factor(m).power(0.5).tobytes() == root.tobytes()

    def test_precision_is_built_on_first_read(self):
        rng = np.random.default_rng(13)
        m = random_spd(rng, 5)
        factor = spd_factor(m)
        factor.power(-0.5)
        assert "precision" not in vars(factor)
        eig = sym_eigen(m)
        expected = symmetrize((eig.vectors / eig.values) @ eig.vectors.T)
        assert factor.precision.tobytes() == expected.tobytes()
        assert factor.precision is factor.precision
        assert not factor.precision.flags.writeable

    def test_whitening_and_sampling_build_no_precision(self, monkeypatch):
        rng = np.random.default_rng(14)
        cov = random_spd(rng, 4)
        model = GaussianModel(mean=np.zeros(4), cov=cov)
        whitening_transform(model)
        assert "precision" not in vars(model.factor)

        def unread(factor):
            raise AssertionError("precision read")

        monkeypatch.setattr(SpdFactor, "precision", property(unread))
        whitening_transform(GaussianModel(mean=np.zeros(4), cov=cov))
        sample_gaussian(np.zeros(4), cov, 10, seed=1)

    def test_negative_power_of_singular_raises(self):
        m = np.diag([1.0, 1e-22])
        with pytest.raises(SingularMatrixError) as info:
            spd_power(m, -1.0)
        assert info.value.smallest_eigenvalue == pytest.approx(1e-22, rel=1e-6)
        assert info.value.floor == pytest.approx(0.5e-10, rel=1e-12)
        assert "floor 5.000e-11" in str(info.value)

    def test_nonnegative_power_tolerates_semidefinite(self):
        m = np.diag([1.0, 0.0])
        np.testing.assert_allclose(spd_power(m, 0.5), np.diag([1.0, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("exponent", [0.0, 0.5, 2.0])
    def test_nonnegative_power_refuses_indefinite(self, exponent):
        # the rule min_trace_assignment and Moments apply, not a silent clip
        m = [[1.0, 0.0], [0.0, -5.0]]
        message = r"^matrix must be nonnegative definite \(smallest eigenvalue -5.000e\+00\)$"
        with pytest.raises(InvalidInputError, match=message):
            spd_power(m, exponent)
        with pytest.raises(InvalidInputError, match=message):
            min_trace_assignment([1.0, 2.0], m)

    @pytest.mark.parametrize("diagonal, exponent", [([1e200, 1.0], 2.0), ([1e-200, 1e-200], -2.0)])
    def test_overflowing_power_is_refused_without_warning(self, diagonal, exponent):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"^power {exponent:g} of the matrix overflows the float range$"
            with pytest.raises(InvalidInputError, match=message):
                spd_power(np.diag(diagonal), exponent)


class TestLogDet:
    def test_example(self):
        assert spd_factor(np.array([[1.0, 0.3], [0.3, 0.6]])).log_det == pytest.approx(
            math.log(0.51), rel=1e-12
        )

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            spd_factor(np.diag([1.0, 0.0])).log_det

    def test_empty_matrix_is_invalid(self):
        # a 0x0 matrix has no smallest eigenvalue to judge
        empty = np.zeros((0, 0))
        with pytest.raises(InvalidInputError, match="^matrix is empty$"):
            spd_factor(empty).log_det
        with pytest.raises(InvalidInputError, match="^matrix is empty$"):
            spd_power(empty, -1.0)
        with pytest.raises(InvalidInputError, match="^vector must be a nonempty finite vector$"):
            mahalanobis_sq([], empty)
        assert sym_eigen(empty).values.shape == (0,)
        assert spd_power(empty, 0.5).shape == (0, 0)


def sampled_trace_min(target, matrix, rng, samples=2000):
    """Independent check: minimum of tr(Q diag(target) Q' B) over random rotations."""
    d = np.diag(target)
    best = np.inf
    for _ in range(samples):
        q = random_orthogonal(rng, len(target))
        best = min(best, float(np.trace(q @ d @ q.T @ matrix)))
    return best


class TestMinTraceAssignment:
    def test_identity_spectrum_gives_trace(self):
        b = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert min_trace_assignment([1.0, 1.0], b) == pytest.approx(np.trace(b), rel=1e-12)

    def test_2d_worked_example(self):
        # spectrum (1, 2) against B with eigenvalues (3, 1): 1*3 + 2*1 = 5
        rng = np.random.default_rng(42)
        q = random_orthogonal(rng, 2)
        b = (q * np.array([3.0, 1.0])) @ q.T
        closed = min_trace_assignment([1.0, 2.0], b)
        assert closed == pytest.approx(5.0, abs=1e-12)
        sampled = sampled_trace_min(np.array([1.0, 2.0]), b, np.random.default_rng(1))
        assert sampled >= closed - 1e-9
        assert sampled - closed <= 0.01

    def test_3d_worked_example(self):
        # spectrum (1/2, 1, 1) against diag(3, 1, 1): 0.5*3 + 1 + 1 = 3.5
        b = np.diag([3.0, 1.0, 1.0])
        closed = min_trace_assignment([0.5, 1.0, 1.0], b)
        assert closed == pytest.approx(3.5, abs=1e-12)
        sampled = sampled_trace_min(np.array([0.5, 1.0, 1.0]), b, np.random.default_rng(2))
        assert sampled >= closed - 1e-9

    def test_lower_bound_property(self):
        for trial in range(25):
            rng = np.random.default_rng(300 + trial)
            n = int(rng.integers(2, 5))
            lam = np.sort(rng.uniform(0.0, 3.0, n))
            b = random_spd(rng, n)
            closed = min_trace_assignment(lam, b)
            for _ in range(40):
                q = random_orthogonal(rng, n)
                value = float(np.trace((q * lam) @ q.T @ b))
                assert value >= closed - 1e-9 * max(1.0, abs(value))

    def test_attained_at_anti_aligned_basis(self):
        rng = np.random.default_rng(9)
        n = 4
        lam = np.sort(rng.uniform(0.1, 2.0, n))
        b = random_spd(rng, n)
        eig = sym_eigen(b)
        # pair ascending lam with descending eigenvalues of B via B's own basis
        a = (eig.vectors * lam) @ eig.vectors.T
        closed = min_trace_assignment(lam, b)
        assert float(np.trace(a @ b)) == pytest.approx(closed, rel=1e-10)

    def test_input_validation(self):
        b = np.eye(2)
        with pytest.raises(InvalidInputError):
            min_trace_assignment([2.0, 1.0], b)  # not ascending
        with pytest.raises(InvalidInputError):
            min_trace_assignment([-1.0, 1.0], b)  # negative
        with pytest.raises(InvalidInputError):
            min_trace_assignment([1.0, 2.0, 3.0], b)  # size mismatch
        with pytest.raises(InvalidInputError):
            min_trace_assignment([1.0, 2.0], np.diag([1.0, -1.0]))  # B indefinite
        with pytest.raises(InvalidInputError):
            min_trace_assignment([np.nan, 1.0], b)

    def test_semidefinite_judged_as_by_moments(self):
        # eigh leaves the zero eigenvalue of 1e8 * Q diag(0, 1, 2, 3) Q' at up
        # to about -1e-7: negative by rounding only, relative to 3e8.
        # The rule is relative at every scale: powers of two scale the
        # spectrum exactly, and a negative eigenvalue 1e5 times the positive
        # one is refused however small both are.
        rng = np.random.default_rng(10)
        lam = [0.0, 1.0, 2.0, 3.0]
        for _ in range(200):
            q = random_orthogonal(rng, 4)
            b = 1e8 * (q * np.array(lam)) @ q.T
            for scale in (1.0, 2.0**-400, 2.0**400):
                Moments(np.zeros(4), scale * b)
                assert min_trace_assignment(lam, scale * b) == pytest.approx(4e8 * scale, rel=1e-9)
        for reject in (lambda m: Moments(np.zeros(2), m), lambda m: min_trace_assignment(lam[:2], m)):
            for matrix in (np.diag([1.0, -1.0]), np.diag([1e-20, -1e-15])):
                with pytest.raises(InvalidInputError, match="nonnegative definite"):
                    reject(matrix)


class TestSymmetrize:
    def test_averages_transpose(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(symmetrize(m), [[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            symmetrize(np.ones(3))
        with pytest.raises(InvalidInputError):
            symmetrize(np.full((2, 2), np.inf))

    def test_overflowing_sum_is_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflow"):
                symmetrize([[1e308, 1e308], [1e308, 1e308]])
            with pytest.raises(InvalidInputError, match="must be finite"):
                symmetrize([[1.0, np.inf], [-np.inf, 1.0]])

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4)
                      .map(lambda shape: (shape[0], shape[0])),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_finite_results_are_the_plain_average(self, m):
        with np.errstate(over="ignore"):
            plain = (m + m.T) / 2.0
        if np.isfinite(plain).all():
            assert symmetrize(m).tobytes() == plain.tobytes()
        else:
            with pytest.raises(InvalidInputError):
                symmetrize(m)


# Values that are no valid argument, or valid only in some places: text,
# None, dicts, ragged and nested lists, empty arrays, values that are not
# finite, and arrays of every small shape, the wrong dimension included.
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(),
                     st.text(max_size=3), st.just(10**400))
_bad_arguments = st.one_of(
    _scalars,
    st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=8),
    st.dictionaries(st.text(max_size=2), _scalars, max_size=2),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
               elements=st.floats(width=64)),
    st.sampled_from([[], [[]], np.zeros((0, 0)), np.zeros((2, 0)), [[1.0], [2.0, 3.0]],
                     [1.0, [2.0]], [[[1.0]]], [np.nan, 0.0], [[np.inf, 0.0], [0.0, 1.0]],
                     np.eye(3), np.ones(3), [1.0], [[4.0]]]),
)

_EYE = np.eye(2)
_SINGULAR = [[1.0, 0.0], [0.0, 0.0]]
_RASTER = Raster(pixels=np.zeros((2, 2, 3), dtype=np.uint16), maxval=255)
_MOMENTS = estimate_moments([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])

# Each call puts the bad value in one argument and valid values in the others.
_CHECKED_CALLS = {
    "FamilySpec": lambda value: FamilySpec(Family.FIXED_MEAN, value),
    "GaussianModel mean": lambda value: GaussianModel(value, _EYE),
    "GaussianModel cov": lambda value: GaussianModel([0.0, 1.0], value),
    "Moments mean": lambda value: Moments(value, _EYE),
    "Moments cov": lambda value: Moments([0.0, 1.0], value),
    "as_point_set": as_point_set,
    "estimate_moments": estimate_moments,
    "mahalanobis_sq vector": lambda value: mahalanobis_sq(value, _EYE),
    "mahalanobis_sq cov": lambda value: mahalanobis_sq([1.0, 2.0], value),
    "min_trace_assignment spectrum": lambda value: min_trace_assignment(value, _EYE),
    "min_trace_assignment matrix": lambda value: min_trace_assignment([1.0, 2.0], value),
    "symmetrize": symmetrize,
    "sym_eigen": sym_eigen,
    "spd_power negative": lambda value: spd_power(value, -0.5),
    "spd_power nonnegative": lambda value: spd_power(value, 0.5),
    "spd_factor": lambda value: spd_factor(value).log_det,
    "sample_gaussian mean": lambda value: sample_gaussian(value, _EYE, 4, 0),
    "sample_gaussian cov": lambda value: sample_gaussian([0.0, 1.0], value, 4, 0),
    "apply": lambda value: whitening_transform(GaussianModel([0.0, 1.0], _EYE)).apply(value),
    "write_points_csv": lambda value: write_points_csv(value, io.StringIO()),
    # Scalars; a valid value meets an error in a later argument, before any work.
    "FamilySpec kind": FamilySpec,
    "standard_normals count": lambda value: standard_normals(value, -1),
    "sample_gaussian count": lambda value: sample_gaussian([0.0, 1.0], _SINGULAR, value, 0),
    "image_to_blocks block size": lambda value: image_to_blocks(_RASTER, value),
    "verify_families dims": lambda value: verify_families(value, 0, 0),
    "verify_families dim": lambda value: verify_families((value,), 0, 0),
    "write_ppm pixels": lambda value: write_ppm(Raster(value, 255), io.BytesIO()),
    "write_ppm maxval": lambda value: write_ppm(_RASTER._replace(maxval=value), io.BytesIO()),
    "image_to_blocks pixels": lambda value: image_to_blocks(Raster(value, 255), 1),
    "image_to_blocks maxval": lambda value: image_to_blocks(_RASTER._replace(maxval=value), 1),
    "verify_families trials": lambda value: verify_families((1,), value, -1),
}

# The scalar arguments that escaped as bare ValueError or TypeError, with their messages.
_SCALAR_CASES = {
    "FamilySpec kind": (lambda: FamilySpec("bogus"), "family must be one of full, fixed-mean, "
                        "isotropic, fixed-mean-isotropic, diagonal, fixed-mean-diagonal"),
    "standard_normals text": (lambda: standard_normals("3", 0), "count must be an integer, got str"),
    "standard_normals float": (lambda: standard_normals(2.5, 0),
                               "count must be an integer, got float"),
    "sample_gaussian": (lambda: sample_gaussian([0.0, 1.0], _EYE, "5", 0),
                        "count must be an integer, got str"),
    "image_to_blocks text": (lambda: image_to_blocks(_RASTER, "x"),
                             "block size must be an integer, got str"),
    "image_to_blocks float": (lambda: image_to_blocks(_RASTER, 2.5),
                              "block size must be an integer, got float"),
    "verify_families trials": (lambda: verify_families((1,), "2", 0),
                               "trials must be an integer, got str"),
    "verify_families trials bound": (lambda: verify_families((1,), 10**20, 0),
                                     "trials must be at most 10000"),
    "verify_families dim text": (lambda: verify_families(("x",), 2, 0),
                                 "dim must be an integer, got str"),
    "verify_families dim float": (lambda: verify_families((1.5,), 2, 0),
                                  "dim must be an integer, got float"),
    "verify_families dims int": (lambda: verify_families(3, 5, 0),
                                 "dims must be a sequence of integers, got int"),
    "family_report fixed_means None": (lambda: family_report(_MOMENTS, None),
                                       "fixed_means must be a sequence of vectors, got NoneType"),
    "family_report fixed_means int": (lambda: family_report(_MOMENTS, 5),
                                      "fixed_means must be a sequence of vectors, got int"),
}


class TestArgumentChecks:
    def test_messages(self):
        with pytest.raises(InvalidInputError, match="^mean is not an array of numbers$"):
            float_array([[1.0], [2.0, 3.0]], "mean")
        with pytest.raises(InvalidInputError, match="^mean must be a nonempty finite vector$"):
            finite_vector([1.0, np.nan], "mean")
        assert finite_vector([[1.0], [2.0]], "mean").tolist() == [1.0, 2.0]
        with pytest.raises(InvalidInputError,
                           match="^model has dimension 3, data has dimension 2$"):
            require_dim(3, 2, "model", "data")
        require_dim(2, 2, "model", "data")
        assert integer(np.int64(3), "count") == 3 and type(integer(np.uint8(3), "count")) is int
        for value, got in [("3", "str"), (2.5, "float"), (True, "bool"), (np.float64(3.0), "float64")]:
            with pytest.raises(InvalidInputError, match=f"^count must be an integer, got {got}$"):
                integer(value, "count")
        assert integer(np.uint64(2**64 - 1), "count", high=2**64 - 1) == 2**64 - 1
        for value in (2**64, 10**5000, np.uint64(2**64 - 1)):
            with pytest.raises(InvalidInputError, match=f"^count must be at most {2**64 - 2}$"):
                integer(value, "count", high=2**64 - 2)
        require_seed(np.uint64(2**64 - 1))
        for value in (True, -1, 2**64, 0.0, "0"):
            with pytest.raises(InvalidInputError,
                               match=r"^seed must be an integer in 0\.\.2\*\*64-1, got "):
                require_seed(value)
        with pytest.raises(InvalidInputError, match=r"got an integer of 16610 bits$"):
            require_seed(-10**5000)
        kept = frozen([1, 2])
        assert kept.dtype == float and not kept.flags.writeable
        assert standard_normals(np.int64(3), np.uint8(0)).size == 3
        assert image_to_blocks(_RASTER, np.int32(2)).shape == (1, 12)

    @pytest.mark.parametrize("case", sorted(_SCALAR_CASES))
    def test_scalar_messages(self, case):
        call, message = _SCALAR_CASES[case]
        with pytest.raises(InvalidInputError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("call", sorted(_CHECKED_CALLS))
    @given(_bad_arguments)
    @example("abc")
    @example([[1], [2, 3]])
    @example(["x"])
    @example(np.zeros((0, 0)))
    @example({"a": 1.0})
    @example(10**400)
    @example(2.5)
    def test_only_package_errors_escape(self, call, value):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                _CHECKED_CALLS[call](value)
            except GaussMatchError:
                pass
