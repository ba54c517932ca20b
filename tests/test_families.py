"""Closed-form family fits: worked examples, optimality, nesting, whitening."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaussmatch import (
    FAMILY_ORDER,
    FIXED_MEAN_FAMILIES,
    Family,
    FamilySpec,
    GaussianModel,
    InvalidInputError,
    Moments,
    SingularMatrixError,
    cross_entropy,
    estimate_moments,
    family_report,
    fit,
    fixed_mean_cov_inverse_form,
    image_to_blocks,
    mahalanobis_sq,
    match_score,
    self_cross_entropy,
    spd_power,
    whitening_transform,
)
from helpers import random_moments, random_orthogonal, random_spd
from test_pipeline import synthetic_photo

# Worked 2D example used throughout: mean (3, 4), cov [[1, .3], [.3, .6]],
# so det = 0.51, trace = 1.6, and ||mean||^2_cov = 14.2/0.51.
EX_MOM = Moments(mean=[3.0, 4.0], cov=[[1.0, 0.3], [0.3, 0.6]])
EX_Q = 14.2 / 0.51
ORIGIN = np.zeros(2)


class TestFitFull:
    def test_returns_moment_matched_model(self):
        res = fit(EX_MOM, FamilySpec(Family.FULL))
        np.testing.assert_array_equal(res.model.mean, EX_MOM.mean)
        np.testing.assert_array_equal(res.model.cov, EX_MOM.cov)
        assert res.match == 0.0
        assert res.cross_entropy == self_cross_entropy(EX_MOM)


class TestFitFixedMean:
    def test_worked_example(self):
        res = fit(EX_MOM, FamilySpec(Family.FIXED_MEAN, ORIGIN))
        expected_cov = np.array([[1.0, 0.3], [0.3, 0.6]]) + np.outer([3.0, 4.0], [3.0, 4.0])
        np.testing.assert_allclose(res.model.cov, expected_cov, rtol=1e-12)
        assert res.match == pytest.approx(0.5 * math.log1p(EX_Q), rel=1e-13)

    def test_at_data_mean_recovers_full(self):
        res = fit(EX_MOM, FamilySpec(Family.FIXED_MEAN, EX_MOM.mean))
        assert res.match == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(res.model.cov, EX_MOM.cov, rtol=1e-12)

    def test_inverse_form_agrees(self):
        for trial in range(50):
            rng = np.random.default_rng(900 + trial)
            n = int(rng.integers(1, 6))
            mom = random_moments(rng, n)
            m = mom.mean + rng.normal(0.0, 2.0, n)
            direct = mom.cov + np.outer(m - mom.mean, m - mom.mean)
            alt = fixed_mean_cov_inverse_form(mom, m)
            assert np.linalg.norm(alt - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_match_equals_generic_score_of_model(self):
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            n = int(rng.integers(1, 6))
            mom = random_moments(rng, n)
            m = mom.mean + rng.normal(0.0, 2.0, n)
            res = fit(mom, FamilySpec(Family.FIXED_MEAN, m))
            assert abs(res.match - match_score(mom, res.model)) <= 1e-10

    def test_monotone_along_ray(self):
        rng = np.random.default_rng(17)
        mom = random_moments(rng, 3)
        direction = rng.normal(0.0, 1.0, 3)
        matches = [
            fit(mom, FamilySpec(Family.FIXED_MEAN, mom.mean + t * direction)).match
            for t in np.linspace(0, 4, 9)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(matches, matches[1:]))

    def test_affine_equivariance(self):
        # applying one invertible affine map to data and pinned mean preserves M
        rng = np.random.default_rng(23)
        mom = random_moments(rng, 3)
        m = mom.mean + rng.normal(0.0, 1.0, 3)
        base = fit(mom, FamilySpec(Family.FIXED_MEAN, m)).match
        a = rng.normal(0.0, 1.0, (3, 3)) + 3.0 * np.eye(3)
        b = rng.normal(0.0, 1.0, 3)
        mapped = Moments(mean=a @ mom.mean + b, cov=a @ mom.cov @ a.T)
        pinned = fit(mapped, FamilySpec(Family.FIXED_MEAN, a @ m + b))
        assert pinned.match == pytest.approx(base, rel=1e-9)


class TestFitIsotropic:
    def test_worked_example(self):
        res = fit(EX_MOM, FamilySpec(Family.ISOTROPIC))
        np.testing.assert_allclose(res.model.cov, 0.8 * np.eye(2), rtol=1e-12)
        np.testing.assert_array_equal(res.model.mean, EX_MOM.mean)
        expected = 0.5 * (2.0 * math.log(0.8) - math.log(0.51))
        assert res.match == pytest.approx(expected, rel=1e-12)

    def test_zero_match_iff_already_isotropic(self):
        mom = Moments(mean=[1.0, -1.0], cov=2.5 * np.eye(2))
        assert fit(mom, FamilySpec(Family.ISOTROPIC)).match == pytest.approx(0.0, abs=1e-14)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        mom = random_moments(rng, 4)
        q = random_orthogonal(rng, 4)
        rotated = Moments(mean=q @ mom.mean, cov=q @ mom.cov @ q.T)
        assert fit(rotated, FamilySpec(Family.ISOTROPIC)).match == pytest.approx(
            fit(mom, FamilySpec(Family.ISOTROPIC)).match, rel=1e-10
        )


class TestFitFixedMeanIsotropic:
    def test_worked_example(self):
        res = fit(EX_MOM, FamilySpec(Family.FIXED_MEAN_ISOTROPIC, ORIGIN))
        # s = (trace + ||d||^2) / N = (1.6 + 25) / 2
        np.testing.assert_allclose(res.model.cov, 13.3 * np.eye(2), rtol=1e-12)
        expected = 0.5 * (2.0 * math.log(13.3) - math.log(0.51))
        assert res.match == pytest.approx(expected, rel=1e-12)

    def test_univariate_pm_one_at_mean_one(self):
        mom = estimate_moments([-1.0, 1.0])
        res = fit(mom, FamilySpec(Family.FIXED_MEAN_ISOTROPIC, [1.0]))
        assert res.model.cov[0, 0] == pytest.approx(2.0, abs=1e-14)
        assert res.match == pytest.approx(0.5 * math.log(2.0), abs=1e-14)


class TestFitDiagonal:
    def test_worked_example(self):
        res = fit(EX_MOM, FamilySpec(Family.DIAGONAL))
        np.testing.assert_allclose(res.model.cov, np.diag([1.0, 0.6]), rtol=1e-12)
        expected = 0.5 * (math.log(0.6) - math.log(0.51))
        assert res.match == pytest.approx(expected, rel=1e-12)

    def test_zero_match_for_diagonal_data(self):
        mom = Moments(mean=[0.0, 1.0], cov=np.diag([2.0, 3.0]))
        assert fit(mom, FamilySpec(Family.DIAGONAL)).match == pytest.approx(0.0, abs=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(37)
        mom = random_moments(rng, 4)
        perm = rng.permutation(4)
        shuffled = Moments(mean=mom.mean[perm], cov=mom.cov[np.ix_(perm, perm)])
        assert fit(shuffled, FamilySpec(Family.DIAGONAL)).match == pytest.approx(
            fit(mom, FamilySpec(Family.DIAGONAL)).match, rel=1e-11
        )


class TestFitFixedMeanDiagonal:
    def test_worked_example(self):
        res = fit(EX_MOM, FamilySpec(Family.FIXED_MEAN_DIAGONAL, ORIGIN))
        np.testing.assert_allclose(res.model.cov, np.diag([10.0, 16.6]), rtol=1e-12)
        expected = 0.5 * (math.log(10.0) + math.log(16.6) - math.log(0.51))
        assert res.match == pytest.approx(expected, rel=1e-12)


class TestOptimalityByPerturbation:
    """Closed-form fits beat every sampled competitor inside their family."""

    def _moments(self, seed):
        return random_moments(np.random.default_rng(seed), 3)

    def test_isotropic(self):
        mom = self._moments(41)
        best = fit(mom, FamilySpec(Family.ISOTROPIC))
        rng = np.random.default_rng(42)
        s_opt = best.model.cov[0, 0]
        for _ in range(60):
            rival = GaussianModel(
                mean=mom.mean + rng.normal(0.0, 0.5, 3),
                cov=s_opt * math.exp(rng.normal(0.0, 0.5)) * np.eye(3),
            )
            assert cross_entropy(mom, rival) >= best.cross_entropy - 1e-12

    def test_fixed_mean(self):
        mom = self._moments(43)
        m = mom.mean + np.array([1.0, -0.5, 0.25])
        best = fit(mom, FamilySpec(Family.FIXED_MEAN, m))
        rng = np.random.default_rng(44)
        for _ in range(60):
            rival = GaussianModel(mean=m, cov=best.model.cov + 0.2 * random_spd(rng, 3))
            assert cross_entropy(mom, rival) >= best.cross_entropy - 1e-12
            jitter = rng.normal(0.0, 0.05, (3, 3))
            cov = best.model.cov + (jitter + jitter.T) / 2.0
            if np.linalg.eigvalsh(cov)[0] > 1e-6:
                rival = GaussianModel(mean=m, cov=cov)
                assert cross_entropy(mom, rival) >= best.cross_entropy - 1e-12

    def test_diagonal_families(self):
        mom = self._moments(45)
        m = mom.mean + np.array([0.5, 0.0, -1.0])
        rng = np.random.default_rng(46)
        free = fit(mom, FamilySpec(Family.DIAGONAL))
        pinned = fit(mom, FamilySpec(Family.FIXED_MEAN_DIAGONAL, m))
        for _ in range(60):
            scales = np.exp(rng.normal(0.0, 0.4, 3))
            rival_free = GaussianModel(
                mean=mom.mean + rng.normal(0.0, 0.3, 3),
                cov=np.diag(np.diag(free.model.cov) * scales),
            )
            assert cross_entropy(mom, rival_free) >= free.cross_entropy - 1e-12
            rival_pinned = GaussianModel(mean=m, cov=np.diag(np.diag(pinned.model.cov) * scales))
            assert cross_entropy(mom, rival_pinned) >= pinned.cross_entropy - 1e-12


class TestNesting:
    @given(st.integers(min_value=0, max_value=10**6))
    def test_match_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        mom = random_moments(rng, n)
        m = mom.mean + rng.normal(0.0, 1.5, n)
        m_full = fit(mom, FamilySpec(Family.FULL)).match
        m_fm = fit(mom, FamilySpec(Family.FIXED_MEAN, m)).match
        m_iso = fit(mom, FamilySpec(Family.ISOTROPIC)).match
        m_fm_iso = fit(mom, FamilySpec(Family.FIXED_MEAN_ISOTROPIC, m)).match
        m_diag = fit(mom, FamilySpec(Family.DIAGONAL)).match
        m_fm_diag = fit(mom, FamilySpec(Family.FIXED_MEAN_DIAGONAL, m)).match
        tol = 1e-9
        assert m_full <= m_fm + tol
        assert m_fm <= m_fm_diag + tol
        assert m_fm_diag <= m_fm_iso + tol
        assert m_full <= m_diag + tol
        assert m_diag <= m_iso + tol
        assert m_diag <= m_fm_diag + tol
        assert m_iso <= m_fm_iso + tol


class TestDispatch:
    def test_fit_routes_every_family(self):
        for kind in FAMILY_ORDER:
            spec = (
                FamilySpec(kind, ORIGIN)
                if kind in (Family.FIXED_MEAN, Family.FIXED_MEAN_ISOTROPIC, Family.FIXED_MEAN_DIAGONAL)
                else FamilySpec(kind)
            )
            res = fit(EX_MOM, spec)
            assert res.family.kind is kind
            assert res.match >= 0.0
            assert res.cross_entropy == pytest.approx(
                res.match + self_cross_entropy(EX_MOM), rel=1e-13
            )

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            FamilySpec(Family.FIXED_MEAN)
        with pytest.raises(InvalidInputError):
            FamilySpec(Family.FULL, ORIGIN)
        with pytest.raises(InvalidInputError):
            fit(EX_MOM, FamilySpec(Family.FIXED_MEAN, [1.0, 2.0, 3.0]))

    def test_singular_data_covariance(self):
        mom = Moments(mean=[0.0, 0.0], cov=np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            fit(mom, FamilySpec(Family.ISOTROPIC))


class TestWhitening:
    def test_diagonal_example(self):
        model = GaussianModel(mean=[1.0, 1.0], cov=np.diag([4.0, 1.0]))
        t = whitening_transform(model)
        np.testing.assert_allclose(t.apply(np.array([3.0, 2.0])), [1.0, 1.0], rtol=1e-12)

    def test_conjugates_model_cov_to_identity(self):
        rng = np.random.default_rng(47)
        model = GaussianModel(mean=rng.normal(size=4), cov=random_spd(rng, 4))
        t = whitening_transform(model)
        np.testing.assert_allclose(
            t.root_inv_cov @ model.cov @ t.root_inv_cov, np.eye(4), atol=1e-10
        )

    def test_whitens_any_dataset_through_full_fit(self):
        for trial in range(10):
            rng = np.random.default_rng(1100 + trial)
            n = int(rng.integers(1, 6))
            pts = rng.normal(0.0, 2.0, (40, n)) @ random_spd(rng, n)
            mom = estimate_moments(pts)
            t = whitening_transform(fit(mom, FamilySpec(Family.FULL)).model)
            out_mom = estimate_moments(t.apply(pts))
            assert np.abs(out_mom.mean).max() < 1e-9
            assert np.abs(out_mom.cov - np.eye(n)).max() < 1e-9

    def test_matrix_and_vector_agree(self):
        model = GaussianModel(mean=[1.0, -1.0], cov=[[2.0, 0.5], [0.5, 1.0]])
        t = whitening_transform(model)
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        np.testing.assert_allclose(t.apply(pts)[1], t.apply(pts[1]), rtol=1e-14)

    def test_rejects_singular_model(self):
        with pytest.raises(SingularMatrixError):
            whitening_transform(GaussianModel(mean=[0.0, 0.0], cov=np.diag([1.0, 0.0])))

    @pytest.mark.parametrize("points", [[[1e300, -1e300], [-1e300, 1e300]], [1.7e308, 0.0]])
    def test_overflow_raises_without_warning(self, points):
        # 1e300 * 1e125 overflows in the product; 1.7e308 - (-1.7e308) already
        # in the difference
        t = whitening_transform(GaussianModel(mean=[-1.7e308, 0.0], cov=1e-250 * np.eye(2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflow"):
                t.apply(np.array(points))


class TestSharedFactor:
    """Every fit on one Moments reuses the decomposition of S_Y taken when it was built."""

    @pytest.fixture()
    def eigh_calls(self, monkeypatch):
        calls = [0]
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def counted(*args, _solver=solver, **kwargs):
                calls[0] += 1
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_report_and_fits_call_no_eigensolver(self, eigh_calls):
        rng = np.random.default_rng(53)
        built = [random_moments(rng, 5) for _ in range(1 + len(FAMILY_ORDER))]
        eigh_calls[0] = 0
        means = [built[0].mean, np.full(5, 0.5), np.zeros(5)]
        assert len(family_report(built[0], means)) == 12
        assert eigh_calls[0] == 0
        for mom, kind in zip(built[1:], FAMILY_ORDER):
            spec = FamilySpec(kind, np.zeros(5)) if kind in FIXED_MEAN_FAMILIES else FamilySpec(kind)
            fit(mom, spec)
            assert eigh_calls[0] == 0, kind

    def test_score_factors_the_model_once(self, eigh_calls):
        rng = np.random.default_rng(59)
        mom = random_moments(rng, 4)
        model = GaussianModel(mean=rng.normal(size=4), cov=random_spd(rng, 4))
        eigh_calls[0] = 0
        match_score(mom, model)
        cross_entropy(mom, model)
        assert eigh_calls[0] == 1

    def test_whitening_after_fit_calls_no_eigensolver(self, eigh_calls):
        # the README quick start: fit, then whiten with the same Moments
        rng = np.random.default_rng(61)
        mom = random_moments(rng, 4)
        fit(mom, FamilySpec(Family.FULL))
        eigh_calls[0] = 0
        transform = whitening_transform(mom)
        assert eigh_calls[0] == 0
        assert transform.root_inv_cov.tobytes() == spd_power(mom.cov, -0.5).tobytes()

    def test_singular_covariance_fails_only_when_fitted(self):
        mom = Moments(mean=[0.0, 0.0], cov=np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError) as info:
            fit(mom, FamilySpec(Family.ISOTROPIC))
        assert info.value.smallest_eigenvalue == 0.0
        assert info.value.floor == pytest.approx(0.5e-10, rel=1e-12)


class TestTwinRule:
    """A fixed-mean fit pinned at m_Y is exactly its free-mean twin."""

    @pytest.mark.parametrize("seed", range(8))
    def test_pinned_at_data_mean_equals_free_twin(self, seed):
        rng = np.random.default_rng(seed)
        mom = random_moments(rng, int(rng.integers(1, 7)))
        twins = (
            (Family.FIXED_MEAN, Family.FULL),
            (Family.FIXED_MEAN_ISOTROPIC, Family.ISOTROPIC),
            (Family.FIXED_MEAN_DIAGONAL, Family.DIAGONAL),
        )
        for pinned_kind, free_kind in twins:
            pinned = fit(mom, FamilySpec(pinned_kind, mom.mean))
            free = fit(mom, FamilySpec(free_kind))
            assert pinned.match == free.match
            assert pinned.cross_entropy == free.cross_entropy
            np.testing.assert_array_equal(pinned.model.mean, free.model.mean)
            np.testing.assert_array_equal(pinned.model.cov, free.model.cov)


class TestFamilyReport:
    def test_row_order_and_counts(self):
        rows = family_report(EX_MOM, [EX_MOM.mean, ORIGIN])
        kinds = [r.family.kind for r in rows]
        assert kinds == [
            Family.FULL,
            Family.FIXED_MEAN,
            Family.FIXED_MEAN,
            Family.ISOTROPIC,
            Family.FIXED_MEAN_ISOTROPIC,
            Family.FIXED_MEAN_ISOTROPIC,
            Family.DIAGONAL,
            Family.FIXED_MEAN_DIAGONAL,
            Family.FIXED_MEAN_DIAGONAL,
        ]
        assert rows[0].family.fixed_mean is None
        np.testing.assert_array_equal(rows[1].family.fixed_mean, EX_MOM.mean)
        np.testing.assert_array_equal(rows[2].family.fixed_mean, ORIGIN)

    def test_rows_match_individual_fits(self):
        rows = family_report(EX_MOM, [ORIGIN])
        by_kind = {r.family.kind: r for r in rows if r.family.fixed_mean is not None}
        assert (
            by_kind[Family.FIXED_MEAN].match
            == fit(EX_MOM, FamilySpec(Family.FIXED_MEAN, ORIGIN)).match
        )
        assert (
            by_kind[Family.FIXED_MEAN_ISOTROPIC].match
            == fit(EX_MOM, FamilySpec(Family.FIXED_MEAN_ISOTROPIC, ORIGIN)).match
        )

    def test_each_row_is_fit_of_its_family(self):
        # the 8x8 RGB tiles of the synthetic photo, pinned as in the image report
        mom = estimate_moments(image_to_blocks(synthetic_photo()))
        rows = family_report(mom, [mom.mean, np.full(192, 0.5), np.zeros(192)])
        assert len(rows) == 12
        for row in rows:
            alone = fit(mom, row.family)
            assert row.match == alone.match
            assert row.cross_entropy == alone.cross_entropy
            assert row.model.mean.tobytes() == alone.model.mean.tobytes()
            assert row.model.cov.tobytes() == alone.model.cov.tobytes()


class TestFarPinnedMean:
    """A pinned mean whose fit overflows the float range is refused without a warning."""

    MESSAGE = "^fixed mean is so far from the data that its fit overflows the float range$"

    @pytest.mark.parametrize("kind", [f.value for f in FAMILY_ORDER if f in FIXED_MEAN_FAMILIES])
    def test_overflowing_covariance(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=self.MESSAGE):
                fit(EX_MOM, FamilySpec(kind, [1e-320, 1e300]))

    def test_overflowing_match(self):
        # S_Y + d d' is finite, but q = d' inv(S_Y) d is not
        tight = Moments(mean=[0.0, 0.0], cov=[[1e-300, 0.0], [0.0, 1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=self.MESSAGE):
                fit(tight, FamilySpec(Family.FIXED_MEAN, [1e10, 0.0]))
            assert math.isclose(fit(tight, FamilySpec(Family.FIXED_MEAN, [1e-140, 0.0])).match,
                                0.5 * math.log1p(1e20))
