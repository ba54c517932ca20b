"""Acceptance suite: ten numbered criteria, one printed PASS/FAIL line each.

Run with:  pytest tests/test_acceptance.py -v -s

Criterion 7 needs the USC-SIPI 512x512 color test image as a binary PPM at
data/usc_sipi_4_2_04.ppm (or a path in $GAUSSMATCH_IMAGE).  It is not
redistributable with the package; scripts/fetch_test_image.py downloads and
converts it on a machine with network access.
"""

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import gaussmatch as gm
from helpers import random_dataset, random_moments, random_orthogonal, random_spd

REPO_ROOT = Path(__file__).resolve().parents[1]
IMAGE_PATH = Path(
    os.environ.get("GAUSSMATCH_IMAGE", REPO_ROOT / "data" / "usc_sipi_4_2_04.ppm")
)


def criterion(number, title, seconds=None):
    """Wrap a test so it prints one 'criterion N ...: PASS/FAIL' line."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} {title}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            if seconds is not None and elapsed > seconds:
                print(
                    f"criterion {number:2d} {title}: FAIL "
                    f"(runtime {elapsed:.1f}s over the {seconds:.0f}s budget)"
                )
                pytest.fail(f"runtime {elapsed:.1f}s exceeded the {seconds:.0f}s budget")
            print(f"criterion {number:2d} {title}: PASS ({elapsed:.1f}s)")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def suite_datasets():
    """100 seeded datasets covering dimensions 1 through 5."""
    datasets = []
    for index in range(100):
        rng = np.random.default_rng([1234, index])
        dim = 1 + index % 5
        count = 20 + (13 * index) % 380
        datasets.append(random_dataset(rng, dim, count))
    return datasets


@criterion(1, "zero match identity", seconds=5.0)
def test_criterion_01_zero_match(suite_datasets):
    for pts in suite_datasets:
        mom = gm.estimate_moments(pts)
        res = gm.fit(mom, gm.FamilySpec(gm.Family.FULL))
        assert abs(res.match) <= 1e-12
        assert abs(gm.match_score(mom, res.model)) <= 1e-12
    models = 0
    for index, pts in enumerate(suite_datasets):
        mom = gm.estimate_moments(pts)
        rng = np.random.default_rng([4321, index])
        for _ in range(10):
            model = gm.GaussianModel(
                mean=mom.mean + rng.normal(0.0, 2.0, mom.dim),
                cov=random_spd(rng, mom.dim),
            )
            assert gm.match_score(mom, model) >= -1e-12
            models += 1
    assert models == 1000


@criterion(2, "oracle equivalence", seconds=120.0)
def test_criterion_02_oracle_equivalence():
    checks = gm.verify_families(dims=(1, 2, 3, 4), trials=50, seed=0)
    assert len(checks) == 6
    for check in checks:
        assert check.max_abs_diff <= 1e-4, (check.family, check.max_abs_diff)
        assert check.worst_margin >= -1e-6, (check.family, check.worst_margin)
        assert check.passed


@criterion(3, "pinned-mean covariance forms")
def test_criterion_03_pinned_mean_forms():
    for trial in range(100):
        rng = np.random.default_rng([555, trial])
        n = int(rng.integers(1, 6))
        mom = random_moments(rng, n)
        m = mom.mean + rng.normal(0.0, 2.0, n)
        d = m - mom.mean
        direct = mom.cov + np.outer(d, d)
        alt = gm.fixed_mean_cov_inverse_form(mom, m)
        assert np.linalg.norm(alt - direct) <= 1e-8 * np.linalg.norm(direct)
        res = gm.fit(mom, gm.FamilySpec(gm.Family.FIXED_MEAN, m))
        q = float(d @ np.linalg.solve(mom.cov, d))
        assert abs(res.match - 0.5 * math.log1p(q)) <= 1e-10


@criterion(4, "univariate scale rule")
def test_criterion_04_univariate_rule():
    mom = gm.estimate_moments([-1.0, 1.0])
    res = gm.fit(mom, gm.FamilySpec(gm.Family.FIXED_MEAN_ISOTROPIC, [1.0]))
    assert abs(res.model.cov[0, 0] - 2.0) <= 1e-12
    assert abs(res.match - 0.5 * math.log(2.0)) <= 1e-12
    # pinning the mean at zero, whitening divides by the root mean square
    for trial in range(20):
        rng = np.random.default_rng([777, trial])
        y = rng.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0), int(rng.integers(5, 200)))
        rms = math.sqrt(float(np.mean(y * y)))
        spec = gm.FamilySpec(gm.Family.FIXED_MEAN_ISOTROPIC, [0.0])
        fitted = gm.fit(gm.estimate_moments(y), spec)
        transform = gm.whitening_transform(fitted.model)
        np.testing.assert_allclose(
            transform.apply(y.reshape(-1, 1)).ravel(), y / rms, rtol=1e-12, atol=1e-14
        )


@criterion(5, "population-scale 2d example", seconds=10.0)
def test_criterion_05_population_example():
    pts = gm.sample_gaussian([3.0, 4.0], [[1.0, 0.3], [0.3, 0.6]], 100_000, seed=7)
    mom = gm.estimate_moments(pts)
    origin = np.zeros(2)
    fm = gm.fit(mom, gm.FamilySpec(gm.Family.FIXED_MEAN, origin)).match
    fmi = gm.fit(mom, gm.FamilySpec(gm.Family.FIXED_MEAN_ISOTROPIC, origin)).match
    assert abs(fm - 1.68198) <= 0.05, fm
    assert abs(fmi - 2.92444) <= 0.05, fmi


@criterion(6, "nesting monotonicity")
def test_criterion_06_nesting(suite_datasets):
    tol = 1e-9
    for index, pts in enumerate(suite_datasets):
        mom = gm.estimate_moments(pts)
        rng = np.random.default_rng([8888, index])
        m = mom.mean + rng.normal(0.0, 1.5, mom.dim)
        m_full = gm.fit(mom, gm.FamilySpec(gm.Family.FULL)).match
        m_fm = gm.fit(mom, gm.FamilySpec(gm.Family.FIXED_MEAN, m)).match
        m_fm_diag = gm.fit(mom, gm.FamilySpec(gm.Family.FIXED_MEAN_DIAGONAL, m)).match
        m_fm_iso = gm.fit(mom, gm.FamilySpec(gm.Family.FIXED_MEAN_ISOTROPIC, m)).match
        m_diag = gm.fit(mom, gm.FamilySpec(gm.Family.DIAGONAL)).match
        m_iso = gm.fit(mom, gm.FamilySpec(gm.Family.ISOTROPIC)).match
        assert m_full <= m_fm + tol
        assert m_fm <= m_fm_diag + tol
        assert m_fm_diag <= m_fm_iso + tol
        assert m_full <= m_diag + tol
        assert m_diag <= m_iso + tol


@criterion(7, "image table structure", seconds=30.0)
def test_criterion_07_image_table():
    if not IMAGE_PATH.exists():
        pytest.fail(
            f"512x512 test image not found at {IMAGE_PATH}; set GAUSSMATCH_IMAGE or run "
            "scripts/fetch_test_image.py on a machine with network access (this sandbox "
            "has none; see README, section 'The image benchmark')"
        )
    raster = gm.read_ppm(IMAGE_PATH)
    assert raster.pixels.shape == (512, 512, 3)
    blocks = gm.image_to_blocks(raster, block_size=8)
    assert blocks.shape == (4096, 192)
    mom = gm.estimate_moments(blocks)

    table = {}
    for label, pinned in (
        ("mean", mom.mean),
        ("half", np.full(192, 0.5)),
        ("zero", np.zeros(192)),
    ):
        table[label] = (
            gm.fit(mom, gm.FamilySpec(gm.Family.FIXED_MEAN, pinned)).match,
            gm.fit(mom, gm.FamilySpec(gm.Family.FIXED_MEAN_DIAGONAL, pinned)).match,
            gm.fit(mom, gm.FamilySpec(gm.Family.FIXED_MEAN_ISOTROPIC, pinned)).match,
        )

    # pinning at the data mean costs nothing
    assert abs(table["mean"][0]) <= 1e-12
    # quantitative targets for the unconstrained-covariance column
    assert abs(table["half"][0] - 0.520298) <= 0.25 * 0.520298, table["half"][0]
    assert abs(table["zero"][0] - 2.73125) <= 0.25 * 2.73125, table["zero"][0]
    # diagonal / isotropic columns live in the hundreds
    for label in table:
        assert 100.0 <= table[label][1] <= 2000.0, (label, table[label][1])
        assert 100.0 <= table[label][2] <= 2000.0, (label, table[label][2])
    # nesting holds for every pinned mean (the published middle row does not)
    for label in table:
        fm, fm_diag, fm_iso = table[label]
        assert fm <= fm_diag + 1e-9
        assert fm_diag <= fm_iso + 1e-9


@criterion(8, "whitening normalizes suite datasets")
def test_criterion_08_whitening(suite_datasets):
    for pts in suite_datasets:
        mom = gm.estimate_moments(pts)
        transform = gm.whitening_transform(gm.fit(mom, gm.FamilySpec(gm.Family.FULL)).model)
        out = gm.estimate_moments(transform.apply(pts))
        assert np.abs(out.mean).max() < 1e-9
        assert np.abs(out.cov - np.eye(mom.dim)).max() <= 1e-9


@criterion(9, "trace lower bound certificate")
def test_criterion_09_trace_bound():
    for instance, n in enumerate((2, 3, 4, 5)):
        rng = np.random.default_rng([999, instance])
        lam = np.sort(rng.uniform(0.05, 3.0, n))
        b = random_spd(rng, n)
        closed = gm.min_trace_assignment(lam, b)
        diag = np.diag(lam)
        for _ in range(10_000):
            q = random_orthogonal(rng, n)
            value = float(np.trace(q @ diag @ q.T @ b))
            assert value >= closed - 1e-9 * max(1.0, abs(value))
        eig = gm.sym_eigen(b)
        aligned = float(np.trace((eig.vectors * lam) @ eig.vectors.T @ b))
        assert abs(aligned - closed) <= 1e-9 * max(1.0, abs(closed))


@criterion(10, "cross-entropy consistency")
def test_criterion_10_cross_entropy_consistency():
    for trial in range(20):
        rng = np.random.default_rng([313, trial])
        dim = int(rng.integers(1, 6))
        pts = random_dataset(rng, dim, int(rng.integers(10, 300)))
        model = gm.GaussianModel(mean=rng.normal(0.0, 1.0, dim), cov=random_spd(rng, dim))
        closed = gm.cross_entropy(gm.estimate_moments(pts), model)
        empirical = gm.empirical_cross_entropy(pts, model)
        assert abs(empirical - closed) <= 1e-8
