"""Moment estimation, cross-entropy closed forms, and the match score."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaussmatch import (
    GaussianModel,
    InsufficientDataError,
    InvalidInputError,
    Moments,
    SingularMatrixError,
    as_point_set,
    cross_entropy,
    estimate_moments,
    mahalanobis_sq,
    match_score,
    self_cross_entropy,
)
from helpers import random_moments, random_spd

LOG_2PI = math.log(2.0 * math.pi)


class TestPointSet:
    def test_promotes_1d(self):
        pts = as_point_set([-1.0, 1.0])
        assert pts.shape == (2, 1)

    def test_rejects_single_point(self):
        with pytest.raises(InsufficientDataError):
            as_point_set([[1.0, 2.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            as_point_set([[1.0], [np.nan]])


class TestEstimateMoments:
    def test_unit_square(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        mom = estimate_moments(pts)
        np.testing.assert_allclose(mom.mean, [0.5, 0.5])
        np.testing.assert_allclose(mom.cov, [[0.25, 0.0], [0.0, 0.25]], atol=1e-15)

    def test_univariate_pm_one(self):
        mom = estimate_moments([-1.0, 1.0])
        assert mom.mean[0] == 0.0
        assert mom.cov[0, 0] == 1.0

    def test_divisor_is_n(self):
        # second central moment of {0, 1, 2} is 2/3, not the n-1 normalized 1
        mom = estimate_moments([0.0, 1.0, 2.0])
        assert mom.cov[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_moments_are_frozen(self):
        mom = estimate_moments([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            mom.mean[0] = 5.0

    def test_equality_is_identity(self):
        mean, cov = [1.0, 2.0], [[1.0, 0.2], [0.2, 1.0]]
        for cls in (Moments, GaussianModel):
            a, b = cls(mean, cov), cls(mean, cov)
            assert (a == a) is True
            assert (a == b) is False
            assert (a != b) is True
            assert len({a, b}) == 2

    def test_moments_are_the_moment_matched_model(self):
        rng = np.random.default_rng(11)
        mom = estimate_moments(rng.normal(size=(40, 3)))
        assert isinstance(mom, GaussianModel)
        copy = GaussianModel(mom.mean, mom.cov)
        assert copy.mean.tobytes() == mom.mean.tobytes()
        assert copy.cov.tobytes() == mom.cov.tobytes()
        assert match_score(mom, mom) == match_score(mom, copy)
        assert cross_entropy(mom, mom) == cross_entropy(mom, copy)
        assert abs(match_score(mom, mom)) < 1e-12
        singular = Moments(mean=[0.0, 0.0], cov=np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError, match="^data covariance is singular"):
            singular.factor
        with pytest.raises(SingularMatrixError, match="^model covariance is singular"):
            GaussianModel(singular.mean, singular.cov).factor

    def test_moments_reject_indefinite_cov(self):
        with pytest.raises(InvalidInputError):
            Moments(mean=[0.0, 0.0], cov=[[1.0, 0.0], [0.0, -1.0]])


class TestMahalanobis:
    def test_identity_covariance(self):
        assert mahalanobis_sq([3.0, 4.0], np.eye(2)) == pytest.approx(25.0, rel=1e-12)

    def test_diagonal_covariance(self):
        assert mahalanobis_sq([2.0, 1.0], np.diag([4.0, 1.0])) == pytest.approx(2.0, rel=1e-12)

    def test_worked_2d_example(self):
        # inv([[1,.3],[.3,.6]]) has determinant 0.51; v = (3,4) gives 14.2/0.51
        value = mahalanobis_sq([3.0, 4.0], [[1.0, 0.3], [0.3, 0.6]])
        assert value == pytest.approx(14.2 / 0.51, rel=1e-12)

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            mahalanobis_sq([1.0, 2.0, 3.0], np.eye(2))
        with pytest.raises(SingularMatrixError):
            mahalanobis_sq([1.0, 2.0], np.diag([1.0, 0.0]))


class TestCrossEntropy:
    def test_standard_normal_1d(self):
        mom = Moments(mean=[0.0], cov=[[1.0]])
        model = GaussianModel(mean=[0.0], cov=[[1.0]])
        assert cross_entropy(mom, model) == pytest.approx(0.5 * (LOG_2PI + 1.0), rel=1e-14)

    def test_shifted_scaled_1d(self):
        # Hx = 1/2 (ln 2pi + 1/2 + 1/2 + ln 2)
        mom = Moments(mean=[0.0], cov=[[1.0]])
        model = GaussianModel(mean=[1.0], cov=[[2.0]])
        expected = 0.5 * (LOG_2PI + 0.5 + 0.5 + math.log(2.0))
        assert cross_entropy(mom, model) == pytest.approx(expected, rel=1e-14)

    def test_self_cross_entropy_is_entropy(self):
        mom = Moments(mean=[0.0], cov=[[1.0]])
        assert self_cross_entropy(mom) == pytest.approx(0.5 * (LOG_2PI + 1.0), rel=1e-14)

    def test_moment_matched_model_attains_self_value(self):
        for trial in range(10):
            rng = np.random.default_rng(400 + trial)
            mom = random_moments(rng, int(rng.integers(1, 6)))
            model = GaussianModel(mean=mom.mean, cov=mom.cov)
            assert cross_entropy(mom, model) == pytest.approx(
                self_cross_entropy(mom), abs=1e-12
            )

    def test_self_value_is_infimum(self):
        rng = np.random.default_rng(5)
        mom = random_moments(rng, 3)
        floor = self_cross_entropy(mom)
        for trial in range(50):
            model = GaussianModel(
                mean=mom.mean + rng.normal(0.0, 1.0, 3), cov=random_spd(rng, 3)
            )
            assert cross_entropy(mom, model) >= floor - 1e-12

    def test_dimension_mismatch(self):
        mom = Moments(mean=[0.0], cov=[[1.0]])
        with pytest.raises(InvalidInputError):
            cross_entropy(mom, GaussianModel(mean=[0.0, 0.0], cov=np.eye(2)))


class TestMatchScore:
    def test_zero_at_moment_matched(self):
        for trial in range(10):
            rng = np.random.default_rng(500 + trial)
            mom = random_moments(rng, int(rng.integers(1, 6)))
            model = GaussianModel(mean=mom.mean, cov=mom.cov)
            assert abs(match_score(mom, model)) <= 1e-12

    def test_doubled_variance_1d(self):
        # M = 1/2 (1/2 - ln 1/2 - 1) per coordinate with ratio eigenvalue 1/2
        mom = Moments(mean=[0.0], cov=[[1.0]])
        model = GaussianModel(mean=[0.0], cov=[[2.0]])
        expected = 0.5 * (0.5 - math.log(0.5) - 1.0)
        assert match_score(mom, model) == pytest.approx(expected, rel=1e-13)

    def test_shifted_scaled_1d(self):
        mom = Moments(mean=[0.0], cov=[[1.0]])
        model = GaussianModel(mean=[1.0], cov=[[2.0]])
        assert match_score(mom, model) == pytest.approx(0.5 * math.log(2.0), rel=1e-13)

    def test_matches_cross_entropy_difference(self):
        for trial in range(20):
            rng = np.random.default_rng(600 + trial)
            n = int(rng.integers(1, 6))
            mom = random_moments(rng, n)
            model = GaussianModel(mean=rng.normal(0.0, 2.0, n), cov=random_spd(rng, n))
            direct = match_score(mom, model)
            via_ce = cross_entropy(mom, model) - self_cross_entropy(mom)
            assert direct == pytest.approx(via_ce, abs=1e-9)

    def test_nonnegative(self):
        for trial in range(100):
            rng = np.random.default_rng(700 + trial)
            n = int(rng.integers(1, 6))
            mom = random_moments(rng, n)
            model = GaussianModel(mean=rng.normal(0.0, 2.0, n), cov=random_spd(rng, n))
            assert match_score(mom, model) >= -1e-12

    def test_positive_away_from_optimum(self):
        mom = Moments(mean=[0.0, 0.0], cov=np.eye(2))
        model = GaussianModel(mean=[0.5, 0.0], cov=np.eye(2))
        assert match_score(mom, model) > 0.01

    def test_spectral_identity_with_shared_mean(self):
        # M = 1/2 sum (lam - ln lam - 1) over eigenvalues of inv(S) S_Y
        for trial in range(10):
            rng = np.random.default_rng(800 + trial)
            n = int(rng.integers(1, 5))
            mom = random_moments(rng, n)
            cov = random_spd(rng, n)
            model = GaussianModel(mean=mom.mean, cov=cov)
            ratios = np.linalg.eigvals(np.linalg.inv(cov) @ mom.cov).real
            expected = 0.5 * float(np.sum(ratios - np.log(ratios) - 1.0))
            assert match_score(mom, model) == pytest.approx(expected, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        mom = random_moments(rng, n)
        model = GaussianModel(mean=rng.normal(0.0, 1.0, n), cov=random_spd(rng, n))
        before = match_score(mom, model)
        a = rng.normal(0.0, 1.0, (n, n)) + 3.0 * np.eye(n)
        b = rng.normal(0.0, 2.0, n)
        mapped_mom = Moments(mean=a @ mom.mean + b, cov=a @ mom.cov @ a.T)
        mapped_model = GaussianModel(mean=a @ model.mean + b, cov=a @ model.cov @ a.T)
        after = match_score(mapped_mom, mapped_model)
        assert after == pytest.approx(before, rel=1e-7, abs=1e-9)

    def test_singular_model_covariance(self):
        mom = Moments(mean=[0.0, 0.0], cov=np.eye(2))
        with pytest.raises(SingularMatrixError):
            match_score(mom, GaussianModel(mean=[0.0, 0.0], cov=np.diag([1.0, 0.0])))
