"""Design measures, information matrices, and the determinant oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optdesign import (
    EXP1,
    EXP2,
    EXP3,
    DegenerateDesignError,
    DesignMeasure,
    InfoMatrix,
    NEG_INF,
    canonical_merge,
    det_via_cauchy_binet,
    gram_determinant,
    information_matrix,
    log_det,
)
from optdesign.design import det_info
from optdesign.scales import (
    ScaleFunction,
    density_integral,
    identity,
    logarithm,
    step,
    truncated_exponential,
)


class TestDesignMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DesignMeasure((0.2, 0.8), (0.5, 0.6))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DesignMeasure((0.2, 0.8), (1.2, -0.2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DesignMeasure((0.2, 0.8), (1.0,))

    def test_from_arrays_normalizes(self):
        d = DesignMeasure.from_arrays((0.1, 0.9), (2.0, 6.0))
        np.testing.assert_allclose(d.weights, (0.25, 0.75))

    def test_dict_round_trip(self):
        d = DesignMeasure((0.25, 0.75), (0.4, 0.6))
        assert DesignMeasure.from_dict(d.to_dict()) == d

    def test_mix_is_convex_combination(self):
        a = DesignMeasure.point_mass(0.3)
        b = DesignMeasure.point_mass(0.7)
        m = a.mix(b, 0.25)
        np.testing.assert_allclose(sorted(m.weights), (0.25, 0.75))


class TestInformationMatrix:
    def test_scalar_model_local_design_value(self):
        # point mass at 1/beta gives the known scalar information (e*beta)^-2
        for beta in (1.0, 2.0, 5.0):
            M = information_matrix(
                DesignMeasure.point_mass(1.0 / beta), EXP1, beta
            )
            np.testing.assert_allclose(
                M.entries[0, 0], (math.e * beta) ** -2, rtol=1e-12
            )

    def test_two_parameter_local_determinant(self):
        # equal masses at {0, 1/beta}: determinant 1/(4 (e beta)^2)
        for beta in (1.0, 4.0, 10.0):
            d = DesignMeasure((0.0, 1.0 / beta), (0.5, 0.5))
            det = det_info(d, EXP2, beta)
            np.testing.assert_allclose(
                det, 1.0 / (4.0 * (math.e * beta) ** 2), rtol=1e-12
            )

    def test_one_point_design_is_rank_one(self):
        d = DesignMeasure.point_mass(0.4)
        assert det_info(d, EXP2, 2.0) == 0.0

    def test_linearity_in_the_design(self):
        a = DesignMeasure((0.1, 0.6), (0.3, 0.7))
        b = DesignMeasure((0.2, 0.9), (0.5, 0.5))
        alpha = 0.35
        mixed = a.mix(b, alpha)
        Ma = information_matrix(a, EXP2, 3.0).entries
        Mb = information_matrix(b, EXP2, 3.0).entries
        Mm = information_matrix(mixed, EXP2, 3.0).entries
        np.testing.assert_allclose(
            Mm, alpha * Ma + (1 - alpha) * Mb, atol=1e-12
        )

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            InfoMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError):
            InfoMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestLogDet:
    def test_identity(self):
        assert log_det(InfoMatrix(np.eye(2))) == 0.0

    def test_scalar_value(self):
        # log((2e)^-2) = -2 (1 + log 2)
        v = log_det(InfoMatrix(np.array([[(2.0 * math.e) ** -2]])))
        np.testing.assert_allclose(v, -2.0 * (1.0 + math.log(2.0)), rtol=1e-12)

    def test_singular_gives_sentinel(self):
        f = np.array([[1.0], [2.0]])
        assert log_det(InfoMatrix(f @ f.T)) == NEG_INF


class TestGramDeterminant:
    def test_two_parameter_closed_form(self):
        # points (0, 1/bt): value bt^-2 e^(-2 beta/bt)
        for beta, bt in ((1.0, 2.0), (3.0, 1.5), (5.0, 5.0)):
            got = gram_determinant((0.0, 1.0 / bt), EXP2, beta)
            np.testing.assert_allclose(
                got, bt**-2 * math.exp(-2.0 * beta / bt), rtol=1e-12
            )

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            gram_determinant((0.1, 0.2), EXP1, 1.0)

    def test_coincident_points_vanish(self):
        assert gram_determinant((0.3, 0.3), EXP2, 2.0) == 0.0

    @given(
        pts=st.lists(
            st.floats(0.01, 1.0), min_size=3, max_size=3, unique=True
        ),
        beta=st.floats(0.5, 20.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, pts, beta):
        base = gram_determinant(tuple(pts), EXP3, beta)
        perm = gram_determinant((pts[2], pts[0], pts[1]), EXP3, beta)
        # absolute floor: nearly-coincident points leave only rounding noise
        np.testing.assert_allclose(perm, base, rtol=1e-9, atol=1e-30)


class TestCauchyBinet:
    def test_scalar_model_equals_weighted_sum(self):
        d = DesignMeasure((0.2, 0.5, 0.9), (0.3, 0.3, 0.4))
        beta = 2.0
        expected = sum(
            w * x**2 * math.exp(-2.0 * beta * x)
            for x, w in zip(d.points, d.weights)
        )
        np.testing.assert_allclose(
            det_via_cauchy_binet(d, EXP1, beta), expected, rtol=1e-12
        )

    def test_two_parameter_local_design(self):
        beta = 3.0
        d = DesignMeasure((0.0, 1.0 / beta), (0.5, 0.5))
        np.testing.assert_allclose(
            det_via_cauchy_binet(d, EXP2, beta),
            0.25 * gram_determinant((0.0, 1.0 / beta), EXP2, beta),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            det_via_cauchy_binet(d, EXP2, beta),
            1.0 / (4.0 * (math.e * beta) ** 2),
            rtol=1e-12,
        )

    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
        model_ix=st.integers(0, 2),
        beta=st.floats(0.5, 12.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_direct_determinant(self, n, seed, model_ix, beta):
        # beta capped so the determinant stays clear of cancellation noise
        model = (EXP1, EXP2, EXP3)[model_ix]
        if n < model.m:
            n = model.m
        rng = np.random.default_rng(seed)
        d = DesignMeasure.from_arrays(
            rng.uniform(0.0, 1.0, n), rng.uniform(0.1, 1.0, n)
        )
        direct = det_info(d, model, beta)
        cb = det_via_cauchy_binet(d, model, beta)
        # absolute floor covers determinants wiped out by cancellation
        np.testing.assert_allclose(cb, direct, rtol=1e-10, atol=1e-18)


class TestCanonicalMerge:
    def test_duplicates_merge(self):
        d = DesignMeasure((0.5, 0.5 + 1e-9), (0.5, 0.5))
        m = canonical_merge(d, 1e-6, 0.0)
        assert m.n == 1
        np.testing.assert_allclose(m.points[0], 0.5, atol=1e-9)
        assert m.weights[0] == 1.0

    def test_floor_removal_renormalizes(self):
        d = DesignMeasure((0.2, 0.9), (0.999, 0.001))
        m = canonical_merge(d, 1e-6, 1e-2)
        assert m.n == 1 and m.points[0] == 0.2 and m.weights[0] == 1.0

    def test_separated_support_unchanged(self):
        d = DesignMeasure.from_arrays((0.142, 0.771), (0.553, 0.447))
        m = canonical_merge(d, 1e-3, 1e-3)
        np.testing.assert_allclose(m.points, d.points)
        np.testing.assert_allclose(m.weights, d.weights)

    def test_all_below_floor_is_degenerate(self):
        d = DesignMeasure((0.1, 0.9), (0.5, 0.5))
        with pytest.raises(DegenerateDesignError):
            canonical_merge(d, 1e-6, 0.9)


_SCALES = pytest.mark.parametrize("scale, lo, hi", [
    (identity(), 1.0, 100.0),
    (logarithm(), 1.0, 5000.0),
    (truncated_exponential(0.3), 0.0, 1.0 / 0.3),
    (step((1.5, 2.0, 7.25)), 1.0, 10.0),
    (density_integral(lambda b: 1.0 / b, 1.0), 1.0, 50.0),
], ids=["identity", "logarithm", "truncexp", "step", "density"])


class TestScaleFunctions:
    def test_identity_and_log(self):
        assert identity()(3.5) == 3.5
        np.testing.assert_allclose(logarithm()(math.e), 1.0, rtol=1e-12)

    def test_step_is_right_continuous(self):
        s = step((1.0, 2.0, 3.0))
        assert s(0.5) == 0.0
        assert s(1.0) == 1.0
        assert s(2.5) == 2.0
        assert s(3.0) == 3.0

    def test_truncated_exponential_cumulative(self):
        a = 0.5
        s = truncated_exponential(a)
        c = 1.0 / (1.0 - math.exp(-1.0))
        for b in (0.1, 0.7, 1.5):
            expected = c * a**-0.5 * (1.0 - math.exp(-a * b))
            np.testing.assert_allclose(s(b), expected, rtol=1e-10)

    def test_invert_round_trips(self):
        s = logarithm()
        b = s.invert(s(7.3), 1.0, 100.0)
        np.testing.assert_allclose(b, 7.3, rtol=1e-10)

    @_SCALES
    def test_invert_stops_at_the_bisection_fixed_point(self, scale, lo, hi):
        def reference(target):
            # the full 200-step bisection, without the early stop
            a, b = lo, hi
            for _ in range(200):
                mid = 0.5 * (a + b)
                if scale(mid) < target:
                    a = mid
                else:
                    b = mid
            return 0.5 * (a + b)

        calls = []

        def counted(b):
            calls.append(b)
            return scale(b)

        counting = ScaleFunction(counted)
        flo, fhi = scale(lo), scale(hi)
        for target in np.linspace(flo, fhi, 9)[[0, 1, 3, 4, 6, 8]]:
            calls.clear()
            assert counting.invert(target, lo, hi) == reference(target)
            # a root at 0 bisects down through the subnormals to the cap,
            # and ell at the capped answer is checked once; any other root
            # is a few dozen doubles' halvings from the start
            assert len(calls) <= 2 + 200 + 1
            if scale(lo) < target or lo > 0.0:
                assert len(calls) < 2 + 100

    def test_capped_bisection_that_misses_its_target_raises(self):
        # without the exact inverse, 200 halvings of [1e-300, 1e300] stop
        # near 3.1e239, far from the root at 1.6e-300
        bare = ScaleFunction(np.log)
        with pytest.raises(ArithmeticError, match="200 halvings"):
            bare.invert(-690.3, 1e-300, 1e300)
        with pytest.raises(ArithmeticError):
            bare.invert(np.array([0.0, -690.3]), 1e-300, 1e300)
        np.testing.assert_allclose(
            logarithm().invert(-690.3, 1e-300, 1e300), math.exp(-690.3),
            rtol=1e-12)


class TestArrayScaleInversion:
    @_SCALES
    def test_array_invert_is_the_scalar_invert(self, scale, lo, hi):
        targets = np.linspace(scale(lo), scale(hi), 41)
        got = scale.invert(targets, lo, hi)
        assert isinstance(got, np.ndarray) and got.shape == targets.shape
        assert got.tolist() == [scale.invert(float(t), lo, hi) for t in targets]
        assert isinstance(scale.invert(float(targets[7]), lo, hi), float)
        # an array keeps its shape, and ell of an array is elementwise
        grid = scale.invert(targets[1:].reshape(4, 10), lo, hi)
        assert grid.tolist() == got[1:].reshape(4, 10).tolist()
        assert scale(got).tolist() == [scale(float(b)) for b in got]

    @_SCALES
    def test_ell_brackets_each_target(self, scale, lo, hi):
        targets = np.linspace(scale(lo), scale(hi), 41)[1:-1]
        beta = scale.invert(targets, lo, hi)
        assert np.all((lo <= beta) & (beta <= hi))
        # the last bracket is beta and one adjacent double: ell rises
        # through the target on one side (quad noise breaks monotonicity
        # of the density scale across both sides)
        at = scale(beta)
        below = scale(np.nextafter(beta, -np.inf))
        above = scale(np.nextafter(beta, np.inf))
        assert np.all(((below <= targets) & (targets <= at))
                      | ((at <= targets) & (targets <= above)))

    @_SCALES
    def test_out_of_range_or_nan_target_raises(self, scale, lo, hi):
        flo, fhi = scale(lo), scale(hi)
        for bad in (flo - 1.0, fhi + 1.0, math.nan):
            with pytest.raises(ValueError):
                scale.invert(bad, lo, hi)
            with pytest.raises(ValueError):
                scale.invert(np.array([flo, bad, fhi]), lo, hi)

    @pytest.mark.parametrize("scale, lo, hi", [
        (identity(), 1.0, 100.0), (identity(), 0.0, 5.0),
        (logarithm(), 1.0, 150.0), (logarithm(), 1e-6, 1.0),
        (logarithm(), 2.0, 2.0000001),
    ], ids=["identity", "identity-from-0", "logarithm", "log-below-1",
            "log-narrow"])
    def test_exact_inverse_only_narrows_the_first_bracket(self, scale, lo, hi):
        # the same fixed point as bisection from [lo, hi], with fewer ell
        # evaluations; the range ends and their neighbours keep the full
        # bracket
        calls = {"narrow": 0, "full": 0}

        def counted(key):
            def ell(b):
                calls[key] += np.size(b)
                return scale(b)
            return ell

        narrow = ScaleFunction(counted("narrow"), scale._inverse)
        full = ScaleFunction(counted("full"))
        flo, fhi = scale(lo), scale(hi)
        targets = np.r_[np.linspace(flo, fhi, 501),
                        np.random.default_rng(2).uniform(flo, fhi, 500),
                        np.nextafter(flo, fhi), np.nextafter(fhi, flo)]
        assert narrow.invert(targets, lo, hi).tolist() == (
            full.invert(targets, lo, hi).tolist())
        assert calls["narrow"] < calls["full"]
