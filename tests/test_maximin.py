"""Worst-case-efficiency criterion and the maximin solver."""

import math

import numpy as np
import pytest

from optdesign import (
    EXP1,
    EXP2,
    EXP3,
    BetaGrid,
    DesignMeasure,
    maximin_criterion,
    q_efficiency,
    solve_local,
    solve_maximin,
    support_count,
)
from optdesign.local import Criterion, local_design
from optdesign.models import q_exp1_closed


class TestBetaGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            BetaGrid(5.0, 2.0)
        with pytest.raises(ValueError):
            BetaGrid(1.0, 2.0, count=1)
        with pytest.raises(ValueError):
            BetaGrid(1.0, 2.0, spacing="cubic")

    def test_singleton_grid(self):
        g = BetaGrid(3.0, 3.0)
        np.testing.assert_allclose(g.values, [3.0])

    def test_log_spacing(self):
        g = BetaGrid(1.0, 100.0, count=3)
        np.testing.assert_allclose(g.values, [1.0, 10.0, 100.0], rtol=1e-12)


class TestMaximinCriterion:
    def test_local_design_on_singleton_grid_scores_one(self):
        d = EXP1.analytic_local(2.0)
        phi, beta_star = maximin_criterion(d, EXP1, BetaGrid(2.0, 2.0))
        np.testing.assert_allclose(phi, 1.0, rtol=1e-10)
        assert beta_star == 2.0

    @pytest.mark.parametrize("model", [EXP1, EXP2, EXP3], ids=lambda m: m.name)
    def test_local_design_efficiency_is_exactly_one_on_a_grid(self, model):
        # numerator and standardizing offset share one determinant kernel
        betas = BetaGrid(1.0, 50.0, 12).values
        crit = Criterion.maximin(model, betas)
        for j, b in enumerate(betas):
            g = crit.log_efficiencies(model, local_design(model, float(b)))
            assert g[j] == 0.0

    def test_point_design_worst_case_is_an_endpoint(self):
        # efficiency of a point design decays monotonically in the
        # parameter ratio, so the far endpoint is the worst case
        B = 10.0
        x = 1.0 / math.sqrt(B)  # local point for the log-midpoint parameter
        d = DesignMeasure.point_mass(x)
        phi, beta_star = maximin_criterion(d, EXP1, BetaGrid(1.0, B, count=801))
        assert beta_star in (1.0, B)
        want = q_exp1_closed(math.sqrt(B), 1.0)
        np.testing.assert_allclose(phi, want, rtol=1e-10)

    def test_singular_somewhere_scores_zero(self):
        d = DesignMeasure.point_mass(0.3)
        phi, _ = maximin_criterion(d, EXP2, BetaGrid(1.0, 10.0, count=5))
        assert phi == 0.0

    def test_monotone_in_the_parameter_range(self, maximin_results):
        # widening the range can only lower the attainable worst case
        values = [
            maximin_criterion(maximin_results[B][0], EXP1, BetaGrid(1.0, B))[0]
            for B in (10, 40, 50, 100, 200)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSupportCount:
    def test_published_style_designs(self):
        five = DesignMeasure(
            (0.014, 0.064, 0.156, 0.287, 0.838),
            (0.336, 0.193, 0.093, 0.137, 0.241),
        )
        assert support_count(five) == 5
        assert support_count(DesignMeasure.point_mass(0.182)) == 1

    def test_merges_near_duplicates(self):
        d = DesignMeasure((0.2, 0.2004, 0.8), (0.4, 0.4, 0.2))
        assert support_count(d) == 2


class TestSolveMaximin:
    def test_singleton_grid_recovers_local_solution(self):
        for beta in (2.0, 7.0):
            dm, cm = solve_maximin(EXP1, BetaGrid(beta, beta))
            dl, _ = solve_local(EXP1, beta)
            assert cm.passed
            assert dm.n == 1
            assert abs(dm.points[0] - dl.points[0]) < 1e-6
            phi, _ = maximin_criterion(dm, EXP1, BetaGrid(beta, beta))
            np.testing.assert_allclose(phi, 1.0, rtol=1e-8)

    def test_narrow_range_two_points(self, maximin_results):
        design, cert, _ = maximin_results[10]
        assert cert.passed
        assert support_count(design) == 2
        pts = sorted(design.points)
        assert abs(pts[0] - 0.142) < 0.01 and abs(pts[1] - 0.771) < 0.01

    def test_certificate_carries_least_favorable_weights(self, maximin_results):
        design, cert, _ = maximin_results[50]
        assert cert.passed
        mu = cert.least_favorable_weights
        assert isinstance(mu, dict) and mu
        assert all(1.0 <= b <= 50.0 for b in mu)
        assert all(w > 0.0 for w in mu.values())
        np.testing.assert_allclose(sum(mu.values()), 1.0, rtol=1e-8)

    def test_solution_dominates_local_mixtures(self, maximin_results):
        grid = BetaGrid(1.0, 40.0)
        design = maximin_results[40][0]
        best, _ = maximin_criterion(design, EXP1, grid)
        rival = EXP1.analytic_local(2.0).mix(EXP1.analytic_local(20.0), 0.5)
        phi_rival, _ = maximin_criterion(rival, EXP1, grid)
        assert best >= phi_rival - 1e-12

    def test_worst_efficiency_at_least_half_band_floor(self, maximin_results):
        # mixing ceil(log(B)/(2 log 2)) local designs guarantees a positive
        # floor; the optimum cannot fall below any feasible design
        for B in (10, 40, 50):
            phi, _ = maximin_criterion(
                maximin_results[B][0], EXP1, BetaGrid(1.0, B)
            )
            n = math.ceil(math.log(B) / (2.0 * math.log(2.0)))
            assert phi >= 0.5 / n

    def test_two_parameter_model_small_range(self):
        design, cert = solve_maximin(EXP2, BetaGrid(1.0, 4.0, count=40))
        assert cert.passed
        assert design.points[0] == pytest.approx(0.0, abs=1e-6)
        phi, _ = maximin_criterion(design, EXP2, BetaGrid(1.0, 4.0, count=40))
        assert phi > 0.5


class TestEfficiencyConsistency:
    def test_local_design_efficiency_matches_closed_form(self):
        # the criterion evaluated on a local design for a single off-grid
        # parameter reduces to the pairwise efficiency function
        d = EXP1.analytic_local(3.0)
        phi, _ = maximin_criterion(d, EXP1, BetaGrid(6.0, 6.0))
        np.testing.assert_allclose(phi, q_efficiency(EXP1, 6.0, 3.0), rtol=1e-9)
