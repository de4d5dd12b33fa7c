"""Local D-optimal solver and its equivalence certificate."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from optdesign import (
    EXP1,
    EXP2,
    EXP3,
    LOGISTIC,
    DesignMeasure,
    GridSpec,
    canonical_merge,
    directional_derivative,
    information_matrix,
    local_design,
    log_det,
    solve_local,
)
from optdesign.design import det_info
from optdesign.local import (
    SingularInformationError,
    _exp3_local_design,
    audit_grid,
    build_grid,
)
from optdesign.models import h_function


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(count=1)
        with pytest.raises(ValueError):
            GridSpec(spacing="weird")

    def test_build_grid_sorted_unique(self):
        x = build_grid((0.0, 1.0), GridSpec(count=101), extra_points=[0.5, 0.5])
        assert np.all(np.diff(x) > 0)
        assert x[0] == 0.0 and x[-1] == 1.0

    def test_log_tilted_grid_denser_near_zero(self):
        x = build_grid((0.0, 1.0), GridSpec(count=1001, spacing="log-tilted"))
        below = np.count_nonzero(x < 0.1)
        assert below > 300  # far more than the uniform share


class TestSolveLocal:
    @pytest.mark.parametrize("beta", [1.0, 2.0, 5.0, 10.0, 25.0])
    def test_scalar_exponential_matches_oracle(self, beta):
        design, cert = solve_local(EXP1, beta)
        assert cert.passed
        assert design.n == 1
        assert abs(design.points[0] - min(1.0 / beta, 1.0)) < 1e-6
        got = det_info(design, EXP1, beta)
        np.testing.assert_allclose(got, (math.e * beta) ** -2, rtol=1e-8)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 5.0, 10.0, 25.0])
    def test_two_parameter_matches_oracle(self, beta):
        design, cert = solve_local(EXP2, beta)
        assert cert.passed
        oracle = EXP2.analytic_local(beta)
        assert design.n == 2
        for p, q in zip(sorted(design.points), sorted(oracle.points)):
            assert abs(p - q) < 1e-6
        np.testing.assert_allclose(
            det_info(design, EXP2, beta),
            1.0 / (4.0 * (math.e * beta) ** 2),
            rtol=1e-8,
        )

    @pytest.mark.parametrize("beta", [1.0, 2.0, 5.0, 10.0, 25.0])
    def test_logistic_matches_oracle(self, beta):
        design, cert = solve_local(LOGISTIC, beta)
        assert cert.passed
        assert abs(design.points[0] - beta) < 1e-6
        np.testing.assert_allclose(
            det_info(design, LOGISTIC, beta), 0.25, rtol=1e-8
        )

    @pytest.mark.parametrize("beta", [1.0, 3.0, 10.0, 30.0, 100.0])
    def test_three_parameter_structure(self, beta):
        design, cert = solve_local(EXP3, beta)
        assert cert.passed
        merged = canonical_merge(design, 1e-3, 1e-3)
        assert merged.n == 3
        pts = sorted(merged.points)
        assert abs(pts[0] - 0.0) < 1e-9
        np.testing.assert_allclose(merged.weights, [1 / 3] * 3, atol=1e-6)
        # the outer point sits at the right endpoint, except when the decay
        # is so fast that the tail is flat and the endpoint is non-unique
        if abs(pts[2] - 1.0) >= 1e-9:
            at_end = DesignMeasure((pts[0], pts[1], 1.0), merged.weights)
            np.testing.assert_allclose(
                det_info(merged, EXP3, beta),
                det_info(at_end, EXP3, beta),
                rtol=1e-9,
            )

    def test_certificate_bound_tight_at_support(self):
        design, cert = solve_local(EXP2, 4.0)
        d = directional_derivative(design, EXP2, 4.0, design.points_array())
        np.testing.assert_allclose(d, EXP2.m, rtol=1e-6)

    def test_certificate_audit_is_sound(self):
        for model, beta in ((EXP1, 3.0), (EXP2, 7.0), (LOGISTIC, 12.0)):
            design, cert = solve_local(model, beta)
            ax = audit_grid(model.design_interval, design)
            d = directional_derivative(design, model, beta, ax)
            assert d.max() <= model.m * (1.0 + 1e-6)
            assert cert.max_directional_derivative <= model.m * (1.0 + 1e-6)

    def test_solution_at_least_as_good_as_seed(self):
        # the numeric solve must never fall below the analytic seed
        for model, beta in ((EXP1, 6.0), (EXP2, 2.5)):
            design, _ = solve_local(model, beta)
            seed = model.analytic_local(beta)
            assert (
                log_det(information_matrix(design, model, beta))
                >= log_det(information_matrix(seed, model, beta)) - 1e-10
            )


class TestDirectionalDerivative:
    def test_weighted_average_over_design_is_dimension(self):
        design, _ = solve_local(EXP2, 3.0)
        d = directional_derivative(design, EXP2, 3.0, design.points_array())
        np.testing.assert_allclose(
            float(np.dot(d, design.weights_array())), EXP2.m, rtol=1e-9
        )

    def test_scalar_exponential_closed_curve(self):
        # against the local optimum: d(x) = (x beta)^2 e^(2 - 2 beta x),
        # maximized at x = 1/beta with value 1
        beta = 2.0
        design = EXP1.analytic_local(beta)
        xs = np.linspace(0.01, 1.0, 57)
        d = directional_derivative(design, EXP1, beta, xs)
        want = (xs * beta) ** 2 * np.exp(2.0 - 2.0 * beta * xs)
        np.testing.assert_allclose(d, want, rtol=1e-10)
        assert d.max() <= 1.0 + 1e-12

    def test_singular_information_raises(self):
        with pytest.raises(SingularInformationError):
            directional_derivative(
                DesignMeasure.point_mass(0.3), EXP2, 2.0, np.array([0.5])
            )


class TestLocalDesignCache:
    def test_cached_design_matches_solver(self):
        d1 = local_design(EXP1, 4.0)
        d2, _ = solve_local(EXP1, 4.0)
        assert abs(d1.points[0] - d2.points[0]) < 1e-9

    def test_cache_returns_identical_object(self):
        assert local_design(EXP2, 9.0) is local_design(EXP2, 9.0)


def _exp3_reference_design(beta):
    """The EXP3 local design from a scalar h_function scan of the bracket."""
    xs = np.linspace(1e-6, 1.0 - 1e-6, 1001)
    vals = np.array([h_function(0.0, xx, 1.0, beta) ** 2 for xx in xs])
    k = int(np.argmax(vals))
    res = minimize_scalar(
        lambda xx: -h_function(0.0, xx, 1.0, beta) ** 2,
        bounds=(xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    third = 1.0 / 3.0
    return DesignMeasure((0.0, float(res.x), 1.0), (third, third, third))


class TestExp3LocalDesign:
    def test_vectorized_scan_matches_scalar_scan(self):
        for beta in np.geomspace(0.01, 5000.0, 200):
            beta = float(beta)
            assert _exp3_local_design(beta) == _exp3_reference_design(beta)
