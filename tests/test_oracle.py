"""Numerical oracle: empirical cross-entropy and Nelder-Mead family fits."""

import math

import numpy as np
import pytest

from gaussmatch import (
    Family,
    FamilySpec,
    GaussianModel,
    InvalidInputError,
    OracleConfig,
    OracleConvergenceError,
    SingularMatrixError,
    cross_entropy,
    empirical_cross_entropy,
    estimate_moments,
    fit,
    oracle_minimize,
    sample_gaussian,
    verify_families,
)
from gaussmatch.oracle import _minimize_details
from helpers import random_dataset

LOG_2PI = math.log(2.0 * math.pi)


class TestEmpiricalCrossEntropy:
    def test_pm_one_under_standard_normal(self):
        value = empirical_cross_entropy([-1.0, 1.0], GaussianModel(mean=[0.0], cov=[[1.0]]))
        assert value == pytest.approx(0.5 * (LOG_2PI + 1.0), rel=1e-14)

    def test_pm_one_under_shifted_model(self):
        # -log density under Nor(1, 2): 1/2 ln(4 pi) + (y-1)^2/4, i.e. 1 at y=-1, 0 at y=1
        value = empirical_cross_entropy([-1.0, 1.0], GaussianModel(mean=[1.0], cov=[[2.0]]))
        expected = 0.5 * (LOG_2PI + math.log(2.0)) + (1.0 + 0.0) / 2.0
        assert value == pytest.approx(expected, rel=1e-14)

    def test_agrees_with_closed_form(self):
        for trial in range(20):
            rng = np.random.default_rng(1200 + trial)
            dim = int(rng.integers(1, 6))
            pts = random_dataset(rng, dim, int(rng.integers(10, 200)))
            model = GaussianModel(
                mean=rng.normal(0.0, 1.0, dim),
                cov=np.diag(rng.uniform(0.5, 2.0, dim)) + 0.1 * np.ones((dim, dim)),
            )
            closed = cross_entropy(estimate_moments(pts), model)
            empirical = empirical_cross_entropy(pts, model)
            assert empirical == pytest.approx(closed, abs=1e-10, rel=1e-10)

    def test_singular_model(self):
        with pytest.raises(SingularMatrixError):
            empirical_cross_entropy(
                [[0.0, 0.0], [1.0, 1.0]],
                GaussianModel(mean=[0.0, 0.0], cov=np.diag([1.0, 0.0])),
            )

    def test_overflowing_log_density_is_not_called_singular(self):
        with pytest.raises(InvalidInputError, match="not finite"):
            empirical_cross_entropy(
                [[0.0, 0.0], [1e200, 1e200]], GaussianModel(mean=[0.0, 0.0], cov=np.eye(2))
            )

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            empirical_cross_entropy([-1.0, 1.0], GaussianModel(mean=[0.0, 0.0], cov=np.eye(2)))


class TestOracleMinimize:
    def test_full_family_finds_zero_match(self):
        rng = np.random.default_rng(51)
        pts = random_dataset(rng, 2, 120)
        res = oracle_minimize(pts, FamilySpec(Family.FULL), OracleConfig(seed=1))
        assert abs(res.match) <= 1e-6

    def test_fixed_mean_isotropic_pm_one(self):
        # data {-1, 1} pinned at mean 1: optimal scale 2, match ln(2)/2
        res = oracle_minimize(
            [-1.0, 1.0],
            FamilySpec(Family.FIXED_MEAN_ISOTROPIC, [1.0]),
            OracleConfig(seed=2),
        )
        assert res.model.cov[0, 0] == pytest.approx(2.0, abs=1e-4)
        assert res.match == pytest.approx(0.5 * math.log(2.0), abs=1e-6)

    def test_matches_closed_form_fixed_mean(self):
        pts = sample_gaussian([3.0, 4.0], [[1.0, 0.3], [0.3, 0.6]], 300, seed=5)
        spec = FamilySpec(Family.FIXED_MEAN, np.zeros(2))
        closed = fit(estimate_moments(pts), spec)
        numeric = oracle_minimize(pts, spec, OracleConfig(seed=3))
        assert numeric.match == pytest.approx(closed.match, abs=1e-5)
        assert numeric.match >= closed.match - 1e-9

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(53)
        pts = random_dataset(rng, 2, 80)
        spec = FamilySpec(Family.DIAGONAL)
        cfg = OracleConfig(seed=11)
        x1, f1, runs1 = _minimize_details(pts, spec, cfg)
        x2, f2, runs2 = _minimize_details(pts, spec, cfg)
        assert f1 == f2
        assert np.array_equal(x1, x2)
        assert [r["iterations"] for r in runs1] == [r["iterations"] for r in runs2]
        assert [r["evaluations"] for r in runs1] == [r["evaluations"] for r in runs2]
        assert [r["fun"] for r in runs1] == [r["fun"] for r in runs2]

    def test_seed_changes_restart_paths(self):
        rng = np.random.default_rng(54)
        pts = random_dataset(rng, 2, 80)
        spec = FamilySpec(Family.DIAGONAL)
        _, _, runs_a = _minimize_details(pts, spec, OracleConfig(seed=1))
        _, _, runs_b = _minimize_details(pts, spec, OracleConfig(seed=2))
        # restart 0 starts from the same deterministic point; later restarts differ
        assert runs_a[1]["evaluations"] != runs_b[1]["evaluations"] or not np.isclose(
            runs_a[1]["fun"], runs_b[1]["fun"], rtol=0, atol=1e-15
        )

    def test_convergence_failure_raises_with_best_value(self):
        rng = np.random.default_rng(55)
        pts = random_dataset(rng, 3, 60)
        with pytest.raises(OracleConvergenceError) as info:
            oracle_minimize(pts, FamilySpec(Family.FULL), OracleConfig(max_iterations=1, seed=1))
        assert isinstance(info.value.best_value, float)

    def test_rejects_high_dimension(self):
        rng = np.random.default_rng(56)
        pts = rng.normal(size=(30, 9))
        with pytest.raises(InvalidInputError):
            oracle_minimize(pts, FamilySpec(Family.ISOTROPIC), OracleConfig())

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            OracleConfig(max_iterations=0)
        with pytest.raises(InvalidInputError):
            OracleConfig(rel_tolerance=0.0)
        with pytest.raises(InvalidInputError):
            OracleConfig(restarts=0)


class TestStationarity:
    """Finite-difference derivatives vanish at the closed-form optima."""

    def test_isotropic_scale(self):
        rng = np.random.default_rng(57)
        pts = random_dataset(rng, 3, 150)
        mom = estimate_moments(pts)
        best = fit(mom, FamilySpec(Family.ISOTROPIC))
        s = best.model.cov[0, 0]
        h = 1e-5 * s

        def ce(scale):
            return empirical_cross_entropy(pts, GaussianModel(mean=mom.mean, cov=scale * np.eye(3)))

        derivative = (ce(s + h) - ce(s - h)) / (2 * h)
        assert abs(derivative) <= 1e-6 / s

    def test_diagonal_coordinates(self):
        rng = np.random.default_rng(58)
        pts = random_dataset(rng, 3, 150)
        mom = estimate_moments(pts)
        best = fit(mom, FamilySpec(Family.DIAGONAL))
        diag = np.diag(best.model.cov).copy()
        for i in range(3):
            h = 1e-5 * diag[i]

            def ce(value, index=i):
                d = diag.copy()
                d[index] = value
                return empirical_cross_entropy(pts, GaussianModel(mean=mom.mean, cov=np.diag(d)))

            derivative = (ce(diag[i] + h) - ce(diag[i] - h)) / (2 * h)
            assert abs(derivative) <= 1e-6 / diag[i]

    def test_free_mean_gradient(self):
        rng = np.random.default_rng(59)
        pts = random_dataset(rng, 2, 150)
        mom = estimate_moments(pts)
        best = fit(mom, FamilySpec(Family.FULL))
        for i in range(2):
            h = 1e-6

            def ce(shift, index=i):
                mean = np.array(best.model.mean)
                mean[index] += shift
                return empirical_cross_entropy(pts, GaussianModel(mean=mean, cov=best.model.cov))

            derivative = (ce(h) - ce(-h)) / (2 * h)
            assert abs(derivative) <= 1e-5


class TestVerifyFamilies:
    def test_small_run_passes(self):
        checks = verify_families(dims=(1, 2), trials=3, seed=7)
        assert len(checks) == 6
        for check in checks:
            assert check.passed
            assert check.trials == 3
            assert check.max_abs_diff <= 1e-4
            assert check.worst_margin >= -1e-6

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            verify_families(dims=(), trials=3)
        with pytest.raises(InvalidInputError):
            verify_families(dims=(9,), trials=3)
        with pytest.raises(InvalidInputError):
            verify_families(dims=(2,), trials=0)
