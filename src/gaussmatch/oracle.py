"""Derivative-free verification oracle for the closed-form family fits.

The closed forms in :mod:`gaussmatch.families` claim to minimize the
cross-entropy of a dataset against a Gaussian within a constrained family.
This module re-derives those minima numerically: each family gets an
unconstrained parameterization whose image is exactly the family's
positive-definite interior, and a seeded Nelder-Mead search minimizes the
empirical cross-entropy (mean negative log-density) over it.  Agreement
between the two routes is the strongest check the package offers, and the
``verify`` CLI subcommand exposes it directly.  The search is the adaptive
Nelder-Mead of Gao & Han (2012), implemented here once, as the generator
``_nelder_mead_steps``, so that it reproduces the steps of scipy's
``minimize(method="Nelder-Mead", adaptive=True)`` exactly without
importing scipy.  The generator yields each trial point and is sent its
value; ``_nelder_mead`` drives the restarts of a fit in lockstep, which
share the points and the family, and evaluates their pending points in
one batched call of the objective.  A lone run is a batch of one.

The oracle evaluates the objective from the raw points, not from the
closed-form moment expressions, so the two routes share no algebra beyond
the density itself.  ``verify_families`` handles each dataset in one pass:
its moments and baseline cross-entropy serve the closed-form and oracle
fits of all six families.

``verify_families`` builds every dataset, with its moments, baseline and
pinned mean, in the calling process, then runs the (dataset, family) fits
through ``_pool.forked_map``, heaviest fits first: the calling process
and one forked child per other CPU in ``os.sched_getaffinity(0)`` each
take the next fit as they come free, or the calling process runs them
all where that module says.  The children inherit the datasets.  No
option, argument or environment variable changes this.  A child that
dies raises ChildProcessError.

A stack of parameter vectors is read in one place, ``_unpack``, which
turns each into a mean, a covariance factor and the log-determinant of
the covariance; the objective and the final model of a fit both decode
through it, and ``_initial_point`` writes its blocks in the same order.
Each fit builds its objective once (``_make_objective``) and evaluates a
stack from those factors and log-determinants, with no
eigendecomposition: elementwise from the variances for the diagonal and
isotropic families, and by one linear solve of the centred points with
the stacked factors L for the full family.  Each row has the bits of a
call on that row alone.  A covariance must clear the positivity floor of
:mod:`gaussmatch.linalg`, exactly as an ``eigh`` of it would decide.  The
variances are their own spectrum.  A factor L passes when the AM-GM lower
bound ``det * ((n-1)/tr)**(n-1)`` on the smallest eigenvalue of L @ L.T
beats the floor twice over; any other factor is judged, and evaluated,
through ``eigh`` of L @ L.T, on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._pool import forked_map
from .errors import InvalidInputError, OracleConvergenceError
from .families import FAMILY_ORDER, FIXED_MEAN_FAMILIES, Family, FamilySpec, FitResult, fit
from .gaussians import LOG_TWO_PI, GaussianModel, as_point_set, estimate_moments
from .linalg import EIGENVALUE_FLOOR_SCALE, eigenvalue_floor, integer, require_dim
from .linalg import require_positive_definite, require_seed, within_float_range

# Nelder-Mead is reliable only in modest dimension; a full covariance in
# dimension 8 already means 44 free parameters.
MAX_ORACLE_DIM = 8

# Most trials of one verification: every dataset is built before the first
# fit, so an unbounded count runs until the process is killed.
MAX_VERIFY_TRIALS = 10_000

# Agreement thresholds for oracle-vs-closed-form comparisons.
ORACLE_ABS_TOL = 1e-4
ORACLE_MARGIN = 1e-6

# Nelder-Mead restarts per fit, and the objective tolerance of each run
# relative to the objective at the starting point.
ORACLE_RESTARTS = 3
ORACLE_REL_TOL = 1e-10
# Iteration budget of each run; its evaluation budget is ten times this.
ORACLE_MAX_ITERATIONS = 5000
# Largest vertex spread, per coordinate, of a converged Nelder-Mead simplex.
_XATOL = 1e-6

# A full-family factor L skips the eigendecomposition only when the AM-GM
# bound on the smallest eigenvalue of L @ L.T beats the positivity floor by
# this factor, which dwarfs the rounding of the eigh route (about 2e-6 * n
# of the floor), and only when tr(L @ L.T) lies in this range, far from
# overflow and from subnormal products.
_BOUND_SLACK = 2.0
_TRACE_RANGE = (1e-290, 1e290)

# Indices of the entries below the diagonal of an n x n matrix, per
# dimension the oracle accepts.
_BELOW_DIAGONAL = {n: np.tril_indices(n, -1) for n in range(1, MAX_ORACLE_DIM + 1)}


def _ce_terms(pts: np.ndarray, mean: np.ndarray, cov: np.ndarray):
    """Empirical cross-entropy of the points and the smallest eigenvalue of cov.

    The eigenvalue is NaN when eigh fails or returns values that are not
    finite; the cross-entropy is None exactly when it does not clear the floor."""
    try:
        values, vectors = np.linalg.eigh(cov)
    except np.linalg.LinAlgError:
        return None, math.nan
    smallest = float(values[0]) if np.isfinite(values).all() else math.nan
    # The trace can overflow too; its floor is then inf, and
    # empirical_cross_entropy refuses the covariance by name.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if not smallest > eigenvalue_floor(float(np.trace(cov)), cov.shape[0]):
            return None, smallest
        z = ((pts - mean) @ vectors) / np.sqrt(values)
        quad = float(np.einsum("ij,ij->", z, z)) / pts.shape[0]
        n = pts.shape[1]
        value = 0.5 * (n * LOG_TWO_PI + float(np.log(values).sum()) + quad)
    return value, smallest


def empirical_cross_entropy(points, model: GaussianModel) -> float:
    """Mean negative log-density of the points under the model.

    Agrees with the closed-form ``cross_entropy`` of the dataset moments;
    the two are computed along different paths and are compared in the
    test suite.  A log-density beyond the float range raises
    InvalidInputError.
    """
    pts = as_point_set(points)
    require_dim(pts.shape[1], model.dim, "points", "model")
    value, smallest = _ce_terms(pts, model.mean, model.cov)
    require_positive_definite(smallest, model.cov, "model covariance")
    return within_float_range(
        lambda: float(value),
        "points are too far from the model: their log-density overflows the float range")


def _unpack(shape: Family, fixed_mean, n: int, params: np.ndarray):
    """Decode a (K, p) stack of unconstrained parameter vectors into
    (means, factors, log_dets), one row of each per vector.

    The one reader of the parameter layout, for a family of covariance
    ``shape`` (a ``FamilySpec.shape``) whose mean is pinned at
    ``fixed_mean``, or free when it is None.  A free mean takes the first n
    parameters, and ``means`` is their (K, n) stack; a pinned one is
    returned as it is.  The rest describe the covariance on the log axis.
    The factor is the vector of variances for the diagonal and isotropic
    families (all infinite at an isotropic log-scale of 709 or more, where
    ``math.exp`` overflows), and for the full family the lower-triangular L
    of the covariance L @ L.T: the log of its diagonal, then its entries
    below the diagonal row by row.  ``log_dets`` holds ln det of each
    covariance: the sum of the log-variances, or twice the sum of L's
    log-diagonal as the parameters hold it, so that it is exact.  Sets no
    numpy error state.
    """
    if fixed_mean is None:
        means, rest = params[:, :n], params[:, n:]
    else:
        means, rest = fixed_mean, params
    count = params.shape[0]
    if shape is Family.FULL:
        lower = np.zeros((count, n, n))
        lower.reshape(count, n * n)[:, :: n + 1] = np.exp(rest[:, :n])
        lower[(slice(None), *_BELOW_DIAGONAL[n])] = rest[:, n:]
        return means, lower, 2.0 * rest[:, :n].sum(axis=1)
    if shape is Family.ISOTROPIC:
        scales = [math.exp(s) if s < 709.0 else math.inf for s in rest[:, 0].tolist()]
        variances = np.repeat(np.array(scales)[:, None], n, axis=1)
    else:
        variances = np.exp(rest)
    return means, variances, np.log(variances).sum(axis=1)


def _mean_cov_from_params(spec: FamilySpec, n: int, params: np.ndarray):
    """Map an unconstrained parameter vector to (mean, cov) for the family.

    The covariance is L @ L.T with a positive diagonal, or the diagonal
    matrix of the variances, from ``_unpack``; so every parameter vector
    maps to a symmetric positive definite covariance inside the family.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        means, factors, _ = _unpack(spec.shape, spec.fixed_mean, n, params[None])
        factor = factors[0]
        cov = factor @ factor.T if spec.shape is Family.FULL else np.diag(factor)
    return np.asarray(means if spec.fixed_mean is not None else means[0], dtype=float), cov


def _initial_point(spec: FamilySpec, moments, n: int):
    """Starting parameter vector and a per-parameter perturbation scale.

    Both follow the blocks ``_unpack`` reads, for a mean variance s of the
    data: a free mean at the data mean; the log-axis entries (one for the
    isotropic family) at ln s, or ½ ln s for L; the entries below L's
    diagonal at 0.
    """
    scale = max(float(np.trace(moments.cov)) / n, 1e-12)
    full = spec.shape is Family.FULL
    blocks = (
        (moments.mean if spec.fixed_mean is None else np.empty(0), 0.35 * math.sqrt(scale)),
        (np.full(1 if spec.shape is Family.ISOTROPIC else n,
                 (0.5 if full else 1.0) * math.log(scale)), 0.35),
        (np.zeros(n * (n - 1) // 2 if full else 0), 0.35 * math.sqrt(scale)),
    )
    return (np.concatenate([start for start, _ in blocks]),
            np.concatenate([np.full(start.size, sigma) for start, sigma in blocks]))


def _make_objective(pts: np.ndarray, spec: FamilySpec):
    """Build the Nelder-Mead objective for one family and one point set.

    The returned function takes one parameter vector, and gives its value
    as a float, or a (K, p) stack of them, and gives the list of their
    values.  It reads the vectors through ``_unpack`` and maps each to the
    empirical cross-entropy of ``pts``, or to ``inf`` wherever ``_ce_terms``
    on the same covariance rejects it or gives a value that is not finite.
    Each row's value has the bits of a call on that row alone.  It never
    sets numpy error states; call it under ``np.errstate`` to silence
    overflow warnings at extreme parameters.  The module docstring says
    how each family is evaluated and how the floor is decided.
    """
    n = pts.shape[1]
    # log of the AM-GM bound minus log of the slackened floor is
    # log_det + bound_const - n * log(tr).
    bound_const = (n - 1) * math.log(max(n - 1, 1)) - math.log(
        _BOUND_SLACK * EIGENVALUE_FLOOR_SCALE / n
    )
    fixed_centred = None if spec.fixed_mean is None else pts - spec.fixed_mean
    # the shape and the pinned mean are looked up once, not at each evaluation
    return partial(_objective, pts, spec.shape, spec.fixed_mean, fixed_centred, bound_const)


def _objective(pts, shape, fixed_mean, fixed_centred, bound_const, params):
    """The function ``_make_objective`` returns, with its bound arguments first.

    Reads ``params`` only through ``_unpack``.  The rows that pass their
    family's gate are evaluated together: one ``solve`` of the stacked
    factors, or one division by the variances, and one ``einsum``; a full
    factor that fails the gate goes through ``_ce_terms`` alone."""
    count, n = pts.shape
    means, factors, log_dets = _unpack(shape, fixed_mean, n, params.reshape(-1, params.shape[-1]))
    log_dets = log_dets.tolist()
    values = [math.inf] * len(log_dets)
    if factors.ndim == 3:  # the full family's L
        passed = [
            _TRACE_RANGE[0] < tr < _TRACE_RANGE[1] and log_det + bound_const > n * math.log(tr)
            for tr, log_det in zip(np.einsum("kij,kij->k", factors, factors).tolist(), log_dets)
        ]
        for row in [row for row, ok in enumerate(passed) if not ok]:
            mean = means if fixed_mean is not None else means[row]
            value, _ = _ce_terms(pts, mean, factors[row] @ factors[row].T)
            values[row] = value if value is not None and np.isfinite(value) else math.inf
    else:
        passed = [low > eigenvalue_floor(total, n) for low, total
                  in zip(factors.min(axis=1).tolist(), factors.sum(axis=1).tolist())]
    rows = [row for row, ok in enumerate(passed) if ok]
    if rows:
        if len(rows) < len(passed):
            factors = factors[rows]
            means = means if fixed_mean is not None else means[rows]
        centred = fixed_centred if fixed_mean is not None else pts - means[:, None, :]
        if factors.ndim == 3:
            # The bound keeps every diagonal entry of L normal, so L is invertible.
            z = np.linalg.solve(factors, centred.swapaxes(-1, -2))
        else:
            z = centred / np.sqrt(factors)[:, None, :]
        for row, quad in zip(rows, np.einsum("kij,kij->k", z, z).tolist()):
            value = 0.5 * (n * LOG_TWO_PI + log_dets[row] + quad / count)
            values[row] = value if math.isfinite(value) else math.inf
    return values if params.ndim == 2 else values[0]


class _BudgetSpent(Exception):
    """The evaluation budget of a Nelder-Mead run ran out mid-iteration."""


def _nelder_mead_steps(simplex, max_iterations: int, fatol: float):
    """Adaptive Nelder-Mead (Gao & Han 2012) from the given initial simplex.

    A generator: it yields each trial point, is sent that point's value,
    and returns the run as a dict: ``x``, ``fun``, ``iterations``,
    ``evaluations``, and ``converged`` when neither budget ran out.
    Reproduces ``scipy.optimize.minimize(method="Nelder-Mead",
    adaptive=True)`` of scipy 1.17 step for step: the same coefficients,
    the same numpy expression for every trial point, the same ``argsort``
    reordering, and a budget of ``10 * max_iterations`` evaluations that
    stops a run inside the iteration that spends it.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    max_evaluations = 10 * max_iterations
    evaluations = 0

    def f(x):
        nonlocal evaluations
        if evaluations >= max_evaluations:
            raise _BudgetSpent
        evaluations += 1
        return (yield x)

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = yield from f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):  # scipy sorts the first simplex twice; ties may move
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
    iterations = 1
    while evaluations < max_evaluations and iterations < max_iterations:
        if (
            np.abs(fsim[0] - fsim[1:]).max() <= fatol
            and np.abs(sim[1:] - sim[0]).max() <= _XATOL
        ):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = yield from f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = yield from f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = yield from f(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = yield from f(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = yield from f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
    return {
        "x": sim[0],
        "fun": float(fsim.min()),
        "iterations": iterations,
        "evaluations": evaluations,
        "converged": evaluations < max_evaluations and iterations < max_iterations,
    }


def _nelder_mead(objective, simplex, max_iterations: int, fatol: float):
    """Nelder-Mead runs of ``_nelder_mead_steps`` from ``simplex``, in lockstep.

    ``simplex`` is a stack of initial simplices: each step, ``objective``
    gets the (K, p) stack of the pending trial point of every live run and
    gives their K values, and the batch shrinks as runs end; the list of
    run dicts comes back.  A single simplex is a batch of one whose
    ``objective`` takes one point and gives one value; its run dict comes
    back.
    """
    simplices = np.asarray(simplex, dtype=float)
    single = simplices.ndim == 2
    batch = (lambda points: [objective(points[0])]) if single else objective
    runs = [_nelder_mead_steps(start, max_iterations, fatol)
            for start in (simplices[None] if single else simplices)]
    found = [None] * len(runs)
    pending = {}

    def advance(run, value):
        try:
            pending[run] = runs[run].send(value)
        except StopIteration as end:
            pending.pop(run, None)
            found[run] = end.value

    for run in range(len(runs)):
        advance(run, None)
    while pending:
        live = list(pending)
        for run, value in zip(live, batch(np.array([pending[run] for run in live]))):
            advance(run, value)
    return found[0] if single else found


def oracle_minimize(points, spec: FamilySpec, seed: int = 0) -> FitResult:
    """Numerically minimize the empirical cross-entropy within a family.

    Runs ``ORACLE_RESTARTS`` seeded Nelder-Mead searches from perturbed
    starting points and keeps the best converged run.  The returned match
    score is the best objective value minus the empirical cross-entropy of
    the moment-matched Gaussian, mirroring the closed-form definition.

    Raises OracleConvergenceError (carrying the best match value seen) when
    no restart converges within ``ORACLE_MAX_ITERATIONS``.
    """
    require_seed(seed)
    pts = as_point_set(points)
    if pts.shape[1] > MAX_ORACLE_DIM:
        raise InvalidInputError(
            f"oracle supports dimension <= {MAX_ORACLE_DIM}, got {pts.shape[1]}"
        )
    moments = estimate_moments(pts)
    if spec.fixed_mean is not None:
        require_dim(spec.fixed_mean.size, moments.dim, "fixed mean", "data")
    baseline = empirical_cross_entropy(pts, moments)
    return _oracle_fit(pts, moments, baseline, spec, seed)[0]


def _oracle_fit(pts: np.ndarray, moments, baseline: float, spec: FamilySpec, seed: int):
    """``oracle_minimize`` on validated points; returns (FitResult, per-restart run dicts)."""
    objective = _make_objective(pts, spec)
    base, sigma = _initial_point(spec, moments, pts.shape[1])
    # One error state for the whole fit; the objective sets none per call.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_base = objective(base)
        fatol = ORACLE_REL_TOL * max(1.0, abs(f_base) if np.isfinite(f_base) else 1.0)
        step = 0.25 * sigma + 0.05 * np.abs(base)
        simplices = []
        for r in range(ORACLE_RESTARTS):
            rng = np.random.default_rng([seed, r])
            x0 = base if r == 0 else base + rng.normal(0.0, 1.0, base.size) * sigma
            simplices.append(np.vstack([x0, x0 + np.diag(step)]))
        # the restarts share the points and the family, so they run in lockstep
        runs = _nelder_mead(objective, simplices, ORACLE_MAX_ITERATIONS, fatol)
    converged = [run for run in runs if run["converged"]]
    best = min(converged or runs, key=lambda run: run["fun"])
    match = float(best["fun"] - baseline)
    if not converged:
        raise OracleConvergenceError(
            f"no restart converged within {ORACLE_MAX_ITERATIONS} iterations "
            f"for family {spec.kind.value!r}",
            best_value=match,
        )
    mean, cov = _mean_cov_from_params(spec, pts.shape[1], best["x"])
    return FitResult(
        model=GaussianModel(mean=mean, cov=cov),
        match=match,
        cross_entropy=float(best["fun"]),
        family=spec,
    ), runs


@dataclass(frozen=True)
class FamilyCheck:
    """Aggregate oracle-vs-closed-form agreement for one family.

    The last four fields sum the Nelder-Mead restarts over all trials.
    """

    family: Family
    trials: int
    max_abs_diff: float
    worst_margin: float
    passed: bool
    converged_restarts: int = 0
    restarts: int = 0
    iterations: int = 0
    evaluations: int = 0


def _verification_dataset(seed: int, index: int, dims) -> np.ndarray:
    """Seeded random dataset with a well-conditioned covariance."""
    rng = np.random.default_rng([seed, index])
    dim = int(dims[index % len(dims)])
    n = int(rng.integers(20, 121))
    mean = rng.normal(0.0, 2.0, dim)
    a = rng.normal(0.0, 1.0, (dim, dim))
    cov = a @ a.T / dim + np.diag(rng.uniform(0.3, 1.0, dim))
    chol = np.linalg.cholesky(cov)
    return mean + rng.standard_normal((n, dim)) @ chol.T


def verify_families(dims=(1, 2, 3, 4), trials: int = 50, seed: int = 0) -> list[FamilyCheck]:
    """Compare closed-form and oracle match scores across random datasets.

    For every family, fits ``trials`` seeded datasets both ways and checks
    that |M_closed - M_oracle| <= ORACLE_ABS_TOL and that the oracle never
    lands more than ORACLE_MARGIN below the closed form (which would
    contradict the closed form's optimality).  The (dataset, family) fits
    run in parallel across the CPUs available to the process, or serially
    where the module docstring says; the result is the same either way.
    """
    try:
        dims = tuple(integer(d, "dim") for d in dims)
    except TypeError:  # dims is not iterable
        raise InvalidInputError(
            f"dims must be a sequence of integers, got {type(dims).__name__}"
        ) from None
    if not dims or min(dims) < 1 or max(dims) > MAX_ORACLE_DIM:
        raise InvalidInputError(f"dims must lie in 1..{MAX_ORACLE_DIM}")
    trials = integer(trials, "trials", high=MAX_VERIFY_TRIALS)
    if trials < 1:
        raise InvalidInputError("trials must be positive")
    require_seed(seed)
    cases = []
    for t in range(trials):
        pts = _verification_dataset(seed, t, dims)
        moments = estimate_moments(pts)
        baseline = empirical_cross_entropy(pts, moments)
        rng = np.random.default_rng([seed, t, 1])
        pinned = pts.mean(axis=0) + rng.normal(0.0, 1.0, pts.shape[1])
        cases.append((pts, moments, baseline, pinned))
    # Heaviest first, so that no long fit starts last: highest dimension,
    # then family order (the full family has the most parameters).
    tasks = sorted(
        ((t, f_index) for t in range(trials) for f_index in range(len(FAMILY_ORDER))),
        key=lambda task: (-cases[task[0]][0].shape[1], task[1]),
    )
    # Forked children inherit ``cases`` and ``tasks``, so only a task's index
    # and its result, a float and a few counts, cross a pipe.
    results = dict(zip(tasks, forked_map(_fit_case, cases, tasks)))
    checks = []
    for f_index, kind in enumerate(FAMILY_ORDER):
        margins, runs = zip(*(results[t, f_index] for t in range(trials)))
        converged, iterations, evaluations = zip(*(run for fit_runs in runs for run in fit_runs))
        max_abs_diff, worst_margin = max(map(abs, margins)), min(margins)
        checks.append(FamilyCheck(
            kind, trials, max_abs_diff, worst_margin,
            passed=max_abs_diff <= ORACLE_ABS_TOL and worst_margin >= -ORACLE_MARGIN,
            converged_restarts=sum(converged), restarts=len(converged),
            iterations=sum(iterations), evaluations=sum(evaluations),
        ))
    return checks


def _fit_case(cases, task):
    """Closed-form and oracle fit of one (trial, family) pair of ``verify_families``.

    Returns the margin ``M_oracle - M_closed`` and, per restart,
    ``(converged, iterations, evaluations)``.
    """
    t, f_index = task
    pts, moments, baseline, pinned = cases[t]
    kind = FAMILY_ORDER[f_index]
    spec = FamilySpec(kind, pinned if kind in FIXED_MEAN_FAMILIES else None)
    closed = fit(moments, spec)
    numeric, runs = _oracle_fit(pts, moments, baseline, spec, 7919 * t + f_index)
    margin = numeric.match - closed.match
    return margin, [(run["converged"], run["iterations"], run["evaluations"]) for run in runs]
