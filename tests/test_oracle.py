"""Numerical oracle: empirical cross-entropy and Nelder-Mead family fits."""

import math
import multiprocessing
import os
import signal
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmatch import (
    Family,
    FamilySpec,
    GaussianModel,
    InvalidInputError,
    Moments,
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
from gaussmatch import _pool, cli, oracle
from gaussmatch.families import FAMILY_ORDER, FIXED_MEAN_FAMILIES
from gaussmatch.oracle import (
    _ce_terms,
    _make_objective,
    _mean_cov_from_params,
    _oracle_fit,
)
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
        res = oracle_minimize(pts, FamilySpec(Family.FULL), seed=1)
        assert abs(res.match) <= 1e-6

    def test_fixed_mean_isotropic_pm_one(self):
        # data {-1, 1} pinned at mean 1: optimal scale 2, match ln(2)/2
        res = oracle_minimize(
            [-1.0, 1.0],
            FamilySpec(Family.FIXED_MEAN_ISOTROPIC, [1.0]),
            seed=2,
        )
        assert res.model.cov[0, 0] == pytest.approx(2.0, abs=1e-4)
        assert res.match == pytest.approx(0.5 * math.log(2.0), abs=1e-6)

    def test_matches_closed_form_fixed_mean(self):
        pts = sample_gaussian([3.0, 4.0], [[1.0, 0.3], [0.3, 0.6]], 300, seed=5)
        spec = FamilySpec(Family.FIXED_MEAN, np.zeros(2))
        closed = fit(estimate_moments(pts), spec)
        numeric = oracle_minimize(pts, spec, seed=3)
        assert numeric.match == pytest.approx(closed.match, abs=1e-5)
        assert numeric.match >= closed.match - 1e-9

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(53)
        pts = random_dataset(rng, 2, 80)
        spec = FamilySpec(Family.DIAGONAL)
        moments = estimate_moments(pts)
        baseline = empirical_cross_entropy(pts, GaussianModel(moments.mean, moments.cov))
        fit1, runs1 = _oracle_fit(pts, moments, baseline, spec, 11)
        fit2, runs2 = _oracle_fit(pts, moments, baseline, spec, 11)
        assert fit1.cross_entropy == fit2.cross_entropy
        assert np.array_equal(fit1.model.cov, fit2.model.cov)
        assert np.array_equal(fit1.model.mean, fit2.model.mean)
        assert [r["iterations"] for r in runs1] == [r["iterations"] for r in runs2]
        assert [r["evaluations"] for r in runs1] == [r["evaluations"] for r in runs2]
        assert [r["fun"] for r in runs1] == [r["fun"] for r in runs2]

    def test_seed_changes_restart_paths(self):
        rng = np.random.default_rng(54)
        pts = random_dataset(rng, 2, 80)
        spec = FamilySpec(Family.DIAGONAL)
        moments = estimate_moments(pts)
        baseline = empirical_cross_entropy(pts, GaussianModel(moments.mean, moments.cov))
        _, runs_a = _oracle_fit(pts, moments, baseline, spec, 1)
        _, runs_b = _oracle_fit(pts, moments, baseline, spec, 2)
        # restart 0 starts from the same deterministic point; later restarts differ
        assert runs_a[1]["evaluations"] != runs_b[1]["evaluations"] or not np.isclose(
            runs_a[1]["fun"], runs_b[1]["fun"], rtol=0, atol=1e-15
        )

    def test_convergence_failure_raises_with_best_value(self, monkeypatch):
        rng = np.random.default_rng(55)
        pts = random_dataset(rng, 3, 60)
        monkeypatch.setattr(oracle, "ORACLE_MAX_ITERATIONS", 1)
        with pytest.raises(OracleConvergenceError, match="within 1 iterations") as info:
            oracle_minimize(pts, FamilySpec(Family.FULL), seed=1)
        assert isinstance(info.value.best_value, float)

    def test_rejects_high_dimension(self):
        rng = np.random.default_rng(56)
        pts = rng.normal(size=(30, 9))
        with pytest.raises(InvalidInputError):
            oracle_minimize(pts, FamilySpec(Family.ISOTROPIC))

    def test_config_validation(self):
        # the seed is the only setting left; its largest value is accepted
        res = oracle_minimize([-1.0, 1.0], FamilySpec(Family.ISOTROPIC), seed=2**64 - 1)
        assert res.match == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [2**64, -1, 1.5, True])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        # 2**64 once aliased seed 0, -1 aliased 2**64 - 1, True aliased 1, and
        # 1.5 was a TypeError
        message = f"seed must be an integer in 0..2**64-1, got {seed!r}"
        for call in (lambda: oracle_minimize([-1.0, 1.0], FamilySpec(Family.ISOTROPIC), seed=seed),
                     lambda: verify_families((1, 2), 5, seed)):
            with pytest.raises(InvalidInputError) as info:
                call()
            assert str(info.value) == message


def _reference_case(index: int):
    """Seeded Nelder-Mead problem: (objective, simplex, max_iterations, fatol).

    Cycles through plain quadratics, quadratics rounded to 2 decimals (so
    that vertices tie), and quadratics that are infinite on a half-space,
    each under a budget of 3, 20 and 5000 iterations.
    """
    rng = np.random.default_rng([2012, index])
    n = int(rng.integers(1, 15))
    a = rng.normal(0.0, 1.0, (n, n))
    hessian = a @ a.T / n + np.diag(rng.uniform(0.1, 1.0, n))
    centre = rng.normal(0.0, 1.0, n)
    kind = index % 3

    def objective(x):
        d = x - centre
        value = float(d @ hessian @ d)
        if kind == 1:
            return round(value, 2)
        if kind == 2 and x[0] > centre[0] + 0.3:
            return math.inf
        return value

    max_iterations = (3, 20, 5000)[index // 3 % 3]
    x0 = centre + rng.normal(0.0, 2.0, n)
    if kind == 2 and max_iterations == 5000:
        # A simplex stuck in the infinite half shrinks until the budget runs
        # out; the short budgets cover that quickly, the long one starts finite.
        x0[0] = min(x0[0], centre[0])
    simplex = np.vstack([x0, x0 + np.diag(rng.uniform(0.1, 1.0, n))])
    return objective, simplex, max_iterations, 1e-8


class TestNelderMead:
    def test_reproduces_scipy_step_for_step(self):
        from scipy.optimize import minimize

        for index in range(300):
            objective, simplex, max_iterations, fatol = _reference_case(index)
            with np.errstate(invalid="ignore"):  # inf - inf in the convergence test
                ours = oracle._nelder_mead(objective, simplex, max_iterations, fatol)
                ref = minimize(
                    objective,
                    simplex[0],
                    method="Nelder-Mead",
                    options={
                        "maxiter": max_iterations,
                        "maxfev": 10 * max_iterations,
                        "initial_simplex": simplex,
                        "xatol": oracle._XATOL,
                        "fatol": fatol,
                        "adaptive": True,
                    },
                )
            assert ours["x"].tobytes() == ref.x.tobytes(), index
            assert (ours["fun"], ours["iterations"], ours["evaluations"], ours["converged"]) == (
                ref.fun, ref.nit, ref.nfev, ref.success
            ), index


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


def _serial(monkeypatch):
    """Run the fits of verify_families in this process."""
    monkeypatch.setattr(_pool, "worker_count", lambda tasks: 1)


class TestVerifyFamilies:
    def test_restart_totals(self, monkeypatch):
        # the recording below lives in this process, so the fits must run here
        _serial(monkeypatch)
        first = verify_families(dims=(1, 2), trials=2, seed=3)
        per_fit = []
        oracle_fit = oracle._oracle_fit

        def recording(pts, moments, baseline, spec, seed):
            result = oracle_fit(pts, moments, baseline, spec, seed)
            per_fit.append((spec.kind, result[1]))
            return result

        monkeypatch.setattr(oracle, "_oracle_fit", recording)
        second = verify_families(dims=(1, 2), trials=2, seed=3)
        assert first == second
        for check in second:
            runs = [run for kind, fit_runs in per_fit if kind is check.family for run in fit_runs]
            assert check.restarts == len(runs) == 2 * oracle.ORACLE_RESTARTS
            assert check.converged_restarts == sum(run["converged"] for run in runs)
            assert check.iterations == sum(run["iterations"] for run in runs)
            assert check.evaluations == sum(run["evaluations"] for run in runs)
            assert check.evaluations > check.iterations > 0

    def test_one_moments_and_baseline_per_dataset(self):
        # each of the 5 datasets gets one Moments (one eigh) and one baseline
        # (one eigh); the closed-form and oracle fits of all six families share them
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, mock.patch.object(
            Moments, "__post_init__", autospec=True, side_effect=Moments.__post_init__
        ) as built:
            verify_families((1, 2, 3, 4), 5, 0)
        assert eigh.call_count == 10
        assert built.call_count == 5

    def test_pinned_work(self):
        # exact totals of the reference schedule; any change to a Nelder-Mead
        # step, to the objective or to the seeding moves them
        checks = verify_families((1, 2, 3, 4), 5, 0)
        assert sum(c.evaluations for c in checks) == 25428
        assert sum(c.iterations for c in checks) == 14711
        assert sum(c.restarts for c in checks) == 90
        assert sum(c.converged_restarts for c in checks) == 90

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


_SMALL_RUNS = [((1, 2, 3, 4), 5, 0), ((1, 2), 3, 7), ((3,), 4, 11)]


class TestParallelFits:
    """The forked (dataset, family) fits against the same fits in this process."""

    @pytest.mark.parametrize("run", _SMALL_RUNS)
    def test_parallel_equals_serial(self, monkeypatch, two_cpus, pool_spy, run):
        parallel = verify_families(*run)
        assert pool_spy.call_args_list == [mock.call("fork")]
        _serial(monkeypatch)
        assert repr(parallel) == repr(verify_families(*run))
        assert pool_spy.call_count == 1

    def test_each_family_keeps_its_work(self, two_cpus, pool_spy):
        # exact per-family totals of ((1, 2), 3, 7): a result filed under the
        # wrong (trial, family) pair moves them
        checks = verify_families((1, 2), 3, 7)
        assert pool_spy.called
        assert [(c.family.value, c.iterations, c.evaluations) for c in checks] == [
            ("full", 972, 1761),
            ("fixed-mean", 433, 810),
            ("isotropic", 562, 1045),
            ("fixed-mean-isotropic", 137, 274),
            ("diagonal", 758, 1414),
            ("fixed-mean-diagonal", 248, 486),
        ]
        assert all(c.restarts == c.converged_restarts == 9 for c in checks)

    def test_nothing_left_running(self, two_cpus, pool_spy):
        verify_families((1, 2), 1, 0)
        assert pool_spy.called
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1

    def test_worker_error_reaches_caller(self, monkeypatch, two_cpus, pool_spy, capsys):
        # the forked workers inherit the patched budget
        monkeypatch.setattr(oracle, "ORACLE_MAX_ITERATIONS", 1)
        with pytest.raises(OracleConvergenceError, match="within 1 iterations") as parallel:
            verify_families((1, 2), 2, 0)
        assert pool_spy.called
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1
        assert isinstance(parallel.value.best_value, float)
        # the first failure in task order, as a serial run raises it
        with monkeypatch.context() as serial:
            _serial(serial)
            with pytest.raises(OracleConvergenceError) as expected:
                verify_families((1, 2), 2, 0)
        assert str(parallel.value) == str(expected.value)
        assert parallel.value.best_value == expected.value.best_value
        assert cli.run(["verify", "--dims", "1..2", "--trials", "2"]) == 2
        assert "error: no restart converged" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


    def test_killed_worker_is_an_error(self, monkeypatch, two_cpus, capsys):
        fit_case = oracle._fit_case

        def killed(cases, task):
            if task == (3, 0):
                os.kill(os.getpid(), signal.SIGKILL)
            return fit_case(cases, task)

        # the forked workers inherit the patch; a pool alone would wait for ever
        monkeypatch.setattr(oracle, "_fit_case", killed)
        with pytest.raises(ChildProcessError, match="exit code -9"):
            verify_families((1, 2, 3, 4), 5, 0)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1
        assert cli.run(["verify", "--dims", "1..4", "--trials", "5"]) == 2
        assert "error: an oracle worker process ended" in capsys.readouterr().err


def _verify_in_daemon(expected: str) -> None:
    sys.exit(0 if repr(verify_families((1, 2), 1, 0)) == expected else 1)


class TestSerialFallback:
    """Where forking is unsafe or impossible, the fits run in this process."""

    @pytest.fixture()
    def no_pool(self, monkeypatch):
        expected = repr(verify_families((1, 2), 1, 0))
        monkeypatch.setattr(
            multiprocessing, "get_context", mock.Mock(side_effect=AssertionError("pool made"))
        )
        return expected

    def test_one_cpu(self, monkeypatch, no_pool):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        # in this process the eigh count covers the fits too: the dataset's
        # Moments and baseline take one each, and the 6 fits none
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            assert repr(verify_families((1, 2), 1, 0)) == no_pool
        assert eigh.call_count == 2

    def test_no_fork_start_method(self, monkeypatch, two_cpus, no_pool):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert repr(verify_families((1, 2), 1, 0)) == no_pool

    def test_live_thread(self, two_cpus, no_pool):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            assert repr(verify_families((1, 2), 1, 0)) == no_pool
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()

    def test_daemonic_caller(self, two_cpus):
        expected = repr(verify_families((1, 2), 1, 0))
        context = multiprocessing.get_context("fork")
        with mock.patch.object(
            multiprocessing, "get_context", side_effect=AssertionError("pool made")
        ):
            child = context.Process(target=_verify_in_daemon, args=(expected,), daemon=True)
            child.start()
            child.join(timeout=60)
        assert not child.is_alive()
        assert child.exitcode == 0


def _reference_objective(pts, spec, params):
    """Reference objective: `_ce_terms`, an eigh of the covariance the parameters describe."""
    mean, cov = _mean_cov_from_params(spec, pts.shape[1], params)
    value, _ = _ce_terms(pts, mean, cov)
    return math.inf if value is None or not np.isfinite(value) else value


def _exact_full_objective(pts, spec, params):
    """Full-family objective with the quadratic term in exact rational arithmetic."""
    n = pts.shape[1]
    mean, cov = _mean_cov_from_params(spec, n, params)
    start = n if spec.fixed_mean is None else 0
    lower = np.zeros((n, n))
    lower[np.diag_indices(n)] = np.exp(params[start : start + n])
    lower[np.tril_indices(n, -1)] = params[start + n :]
    factor = [[Fraction(float(x)) for x in row] for row in lower]
    total = Fraction(0)
    for point in pts:
        z = []
        for i in range(n):
            rest = Fraction(float(point[i])) - Fraction(float(mean[i]))
            rest -= sum((factor[i][k] * z[k] for k in range(i)), Fraction(0))
            z.append(rest / factor[i][i])
        total += sum(t * t for t in z)
    quad = float(total / len(pts))
    log_det = 2.0 * math.fsum(math.log(float(x)) for x in np.diag(lower))
    return 0.5 * (n * LOG_2PI + log_det + quad), quad


# Log-scales at the edges of exp's range: 709.78 overflows, 745.13 underflows
# to 0, below -708.4 the result is subnormal, and 354 squared is near overflow.
_EDGE_LOG_SCALES = (-745.2, -745.0, -744.5, -709.0, -708.0, 0.0, 353.5, 354.0, 354.5,
                    708.5, 709.0, 709.5, 709.8)
_log_scales = st.one_of(
    st.floats(-12.0, 6.0),
    st.sampled_from(_EDGE_LOG_SCALES).flatmap(lambda c: st.floats(c - 0.6, c + 0.6)),
)
_off_diagonals = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e5, 1e5))
_large_off_diagonals = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                                 st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 4.0))


@st.composite
def _objective_case(draw, shapes=FAMILY_ORDER):
    """Points, a family spec and a parameter vector in that family's layout."""
    kind = draw(st.sampled_from(shapes))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), (draw(st.integers(2, 12)), n))
    fixed = kind in FIXED_MEAN_FAMILIES
    spec = FamilySpec(kind, rng.normal(0.0, 1.0, n) if fixed else None)
    mean = [] if fixed else list(rng.normal(0.0, 1.0, n))
    if spec.shape is Family.ISOTROPIC:
        scales = [draw(_log_scales)]
    elif spec.shape is Family.DIAGONAL:
        scales = draw(st.lists(_log_scales, min_size=n, max_size=n))
    elif draw(st.booleans()):
        # near-singular: a tiny diagonal under a large off-diagonal
        scales = draw(st.lists(st.floats(-14.0, 1.0), min_size=n, max_size=n))
        scales += draw(st.lists(_large_off_diagonals, min_size=n * (n - 1) // 2,
                                max_size=n * (n - 1) // 2))
    else:
        scales = draw(st.lists(_log_scales, min_size=n, max_size=n))
        scales += draw(st.lists(_off_diagonals, min_size=n * (n - 1) // 2,
                                max_size=n * (n - 1) // 2))
    return pts, spec, np.array(mean + scales, dtype=float)


class TestObjective:
    """The objective built from the factor against the eigh route it replaced."""

    @settings(max_examples=400)
    @given(_objective_case())
    def test_matches_eigh_route(self, case):
        pts, spec, params = case
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value = _make_objective(pts, spec)(params)
            reference = _reference_objective(pts, spec, params)
        assert math.isinf(value) == math.isinf(reference), (value, reference)
        if math.isinf(value):
            return
        tol = 1e-12 * max(1.0, abs(reference))
        if spec.shape is Family.FULL:
            # eigh resolves the spectrum of L @ L.T to an absolute error of
            # about eps * tr, so the reference itself is off by eps * cond
            # relative; test_full_matches_exact_arithmetic checks the new value.
            _, cov = _mean_cov_from_params(spec, pts.shape[1], params)
            spectrum = np.linalg.eigvalsh(cov)
            _, quad = _exact_full_objective(pts, spec, params)
            tol += 8 * np.finfo(float).eps * (spectrum[-1] / spectrum[0]) * (
                pts.shape[1] + quad + abs(reference)
            )
        assert abs(value - reference) <= tol, (value, reference, tol)

    @settings(max_examples=200)
    @given(_objective_case(shapes=(Family.FULL, Family.FIXED_MEAN)))
    def test_full_matches_exact_arithmetic(self, case):
        pts, spec, params = case
        with mock.patch.object(oracle, "_ce_terms", wraps=_ce_terms) as fallback:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value = _make_objective(pts, spec)(params)
        if fallback.called:
            assert value == _reference_objective(pts, spec, params)
        elif math.isfinite(value):
            exact, quad = _exact_full_objective(pts, spec, params)
            assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact), quad), (value, exact)

    @staticmethod
    def _count_eigh(monkeypatch):
        calls = [0]
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls[0] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_well_conditioned_full_run_calls_no_eigh(self, monkeypatch):
        rng = np.random.default_rng(60)
        pts = random_dataset(rng, 3, 80)
        moments = estimate_moments(pts)
        calls = self._count_eigh(monkeypatch)
        _oracle_fit(pts, moments, 0.0, FamilySpec(Family.FULL), 4)
        assert calls[0] == 0

    def test_tiny_trace_uses_eigh_route(self, monkeypatch):
        # L = [[1e-160, 0], [1e-160, 1e-163]] clears the AM-GM bound, but the
        # products in L @ L.T underflow to a singular matrix, which eigh
        # rejects; the trace range sends such a factor to eigh.
        pts = np.zeros((2, 2))
        spec = FamilySpec(Family.FIXED_MEAN, np.zeros(2))
        params = np.array([math.log(1e-160), math.log(1e-163), 1e-160])
        calls = self._count_eigh(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert _make_objective(pts, spec)(params) == math.inf
        assert calls[0] == 1

    @pytest.mark.parametrize("ratio, accepted", [(0.5, False), (1.5, True), (3.0, True)])
    def test_factor_near_floor(self, monkeypatch, ratio, accepted):
        # L = [[1, 0], [a, b]]: det(L L^T) = b^2 and for n = 2 the AM-GM bound
        # b^2 / tr sits within 1e-10 of the smallest eigenvalue.  Solve for b
        # so that the bound is `ratio` times the floor 1e-10 * tr / 2.
        a, b = 100.0, 0.0
        for _ in range(3):
            b = math.sqrt(ratio * 5e-11) * (1.0 + a * a + b * b)
        pts = np.array([[0.5, 40.0], [-0.5, 60.0], [1.0, 100.0]])
        spec = FamilySpec(Family.FULL)
        params = np.array([0.0, 50.0, 0.0, math.log(b), a])
        calls = self._count_eigh(monkeypatch)
        value = _make_objective(pts, spec)(params)
        if ratio < 2.0:
            # inside the slack: the eigh route decides, and its value is returned
            assert calls[0] == 1
            assert value == _reference_objective(pts, spec, params)
        else:
            assert calls[0] == 0
        assert math.isfinite(value) == accepted
