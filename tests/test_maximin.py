"""Worst-case-efficiency criterion and the maximin solver."""

import logging
import math

import numpy as np
import pytest

from optdesign import (
    EXP1,
    EXP2,
    EXP3,
    LOGISTIC,
    BetaGrid,
    DesignMeasure,
    Model,
    ParameterPrior,
    maximin_criterion,
    q_efficiency,
    solve_bayes,
    solve_local,
    solve_maximin,
    support_count,
)
from optdesign.design import det_stack
from optdesign.local import (
    Criterion,
    SingularInformationError,
    _log_eff_jacobian,
    local_design,
    stacked_scores,
)
from optdesign.models import q_exp1_closed


class TestBetaGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            BetaGrid(5.0, 2.0)
        with pytest.raises(ValueError):
            BetaGrid(1.0, 2.0, count=1)
        # bounds are checked before numpy's geomspace sees them
        for lo, hi in [(0.0, 10.0), (-1.0, 10.0), (1.0, math.inf),
                       (math.nan, 10.0), (1.0, math.nan)]:
            with pytest.raises(ValueError):
                BetaGrid(lo, hi)

    # a float count reached np.geomspace, a TypeError
    @pytest.mark.parametrize("count", [2.5, 400.5, math.inf, math.nan])
    def test_count_must_be_a_whole_number(self, count):
        with pytest.raises(ValueError, match="count"):
            BetaGrid(1.0, 50.0, count)

    def test_whole_count_is_stored_as_an_int(self):
        grid = BetaGrid(1.0, 50.0, 400.0)
        assert grid == BetaGrid(1.0, 50.0) and type(grid.count) is int
        assert len(grid.values) == 400

    def test_singleton_grid(self):
        g = BetaGrid(3.0, 3.0)
        np.testing.assert_allclose(g.values, [3.0])

    def test_log_spacing(self):
        g = BetaGrid(1.0, 100.0, count=3)
        np.testing.assert_allclose(g.values, [1.0, 10.0, 100.0], rtol=1e-12)


class TestMaximinCriterion:
    def test_local_design_on_singleton_grid_scores_one(self):
        d = local_design(EXP1, 2.0)
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
        assert support_count(five, EXP1) == 5
        assert support_count(DesignMeasure.point_mass(0.182), EXP1) == 1

    def test_merges_near_duplicates(self):
        d = DesignMeasure((0.2, 0.2004, 0.8), (0.4, 0.4, 0.2))
        assert support_count(d, EXP1) == 2

    def test_merge_radius_follows_the_model_interval(self):
        # 1e-3 of the logistic [0, 30] is 0.03, so 10 and 10.02 are one point
        d = DesignMeasure((10.0, 10.02, 20.0), (0.4, 0.3, 0.3))
        assert support_count(d, LOGISTIC) == 2

    @pytest.mark.parametrize("model, beta, points", [
        (EXP3, 2000.0, 3), (EXP2, 1e4, 2)], ids=["exp3", "exp2"])
    def test_a_point_near_the_fixed_support_counts(self, model, beta, points):
        # {0, 5e-4, 1} and {0, 1e-4}: the point next to 0 stays apart
        design, cert = solve_local(model, beta)
        assert cert.passed
        assert support_count(design, model) == design.n == points


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
        assert support_count(design, EXP1) == 2
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
        rival = local_design(EXP1, 2.0).mix(local_design(EXP1, 20.0), 0.5)
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

    def test_model_without_score_dx_differences_the_constraints(
            self, maximin_results, bayes_results):
        # an EXP1 clone without score_dx takes SLSQP's differences, of the
        # maximin constraints and of the Bayes objective
        clone = Model(name="exp1-clone", m=1, m_eta=0,
                      design_interval=EXP1.design_interval,
                      beta_range=EXP1.beta_range, score=EXP1.score,
                      analytic_local=EXP1.analytic_local)
        for (design, cert), want in (
                (solve_maximin(clone, BetaGrid(1.0, 50.0)), maximin_results[50][0]),
                (solve_bayes(clone, ParameterPrior.uniform(1.0, 50.0)),
                 bayes_results[50][0])):
            assert cert.passed and design.n == want.n
            np.testing.assert_allclose(design.points, want.points, atol=1e-6)
            np.testing.assert_allclose(design.weights, want.weights, atol=1e-6)

    def test_singular_seed_starts_the_polish_at_a_finite_epigraph(self):
        # the grid weights merge to one point, singular at some beta: the
        # epigraph variable starts at the clamped -1e6, not at -inf, which
        # SLSQP cannot difference without a RuntimeWarning
        with pytest.raises(SingularInformationError):
            solve_maximin(EXP1, BetaGrid(1.0, 1e5))

    def test_two_parameter_model_small_range(self):
        design, cert = solve_maximin(EXP2, BetaGrid(1.0, 4.0, count=40))
        assert cert.passed
        assert design.points[0] == pytest.approx(0.0, abs=1e-6)
        phi, _ = maximin_criterion(design, EXP2, BetaGrid(1.0, 4.0, count=40))
        assert phi > 0.5

    # (B, parameter values, support size, phi).  Provenance: phi at B =
    # 3.484026254796982 is perfbench/reference.json's seed-0 maximin-multi
    # value; the others are the certified values of the exponentiated-
    # gradient saddle-point grid solve that preceded the seed-and-Kelley
    # path, on the same grids.
    @pytest.mark.parametrize("B, count, points, want", [
        (3.484026254796982, 20, 3, 0.7141730066604756),
        (3.0, 20, 3, 0.74405195592452),
        (20.0, 60, 5, 0.5710964529080454),
        (50.0, 100, 6, 0.5383810156276221),
    ])
    def test_two_parameter_certified_values(self, B, count, points, want):
        grid = BetaGrid(1.0, B, count)
        design, cert = solve_maximin(EXP2, grid)
        assert cert.passed
        assert support_count(design, EXP2) == points
        phi, _ = maximin_criterion(design, EXP2, grid)
        assert abs(phi - want) <= 1e-6


class TestPolishJacobian:
    @pytest.mark.parametrize("model, betas", [
        (EXP1, BetaGrid(1.0, 50.0, 30).values),
        (EXP2, BetaGrid(1.0, 50.0, 30).values),
        (EXP3, BetaGrid(1.0, 20.0, 30).values),
        (LOGISTIC, np.linspace(1.0, 20.0, 30)),
    ], ids=["exp1", "exp2", "exp3", "logistic"])
    def test_matches_central_differences(self, model, betas):
        # the differenced log-efficiencies g_j = log det M_j - offset_j take
        # their determinants in extended precision: in double, EXP3's
        # ill-conditioned M leaves differences good to about 1e-5 only.
        # The mean's gradient q @ J is checked against differences of q . g
        crit = Criterion.maximin(model, betas)
        lo, hi = model.design_interval
        q = np.random.default_rng(6).dirichlet(np.ones(len(betas)))

        def g(z):
            d = det_stack(stacked_scores(model, z[:6], betas), z[6:], 6, betas)
            return np.log(d) - crit.offsets

        rng = np.random.default_rng(5)
        for _ in range(5):
            z = np.r_[rng.uniform(lo, hi, 6), rng.dirichlet(np.ones(6))]
            jac = _log_eff_jacobian(model, crit, z[:6], z[6:])
            assert jac.shape == (len(betas), 12)
            num = np.empty_like(jac)
            num_mean = np.empty(12)
            for i in range(12):
                e = np.zeros(12)
                e[i] = 1e-6 * ((hi - lo) if i < 6 else 1.0)
                h = (z + e)[i] - (z - e)[i]
                num[:, i] = (g(z + e) - g(z - e)) / h
                num_mean[i] = (q @ g(z + e) - q @ g(z - e)) / h
            np.testing.assert_allclose(jac, num, rtol=0.0,
                                       atol=1e-7 * np.abs(jac).max())
            np.testing.assert_allclose(q @ jac, num_mean, rtol=0.0,
                                       atol=1e-7 * np.abs(q @ jac).max())

    def test_singular_node_has_a_flat_row(self):
        # one support point: M is singular at every beta for EXP2
        betas = BetaGrid(1.0, 10.0, 5).values
        jac = _log_eff_jacobian(EXP2, Criterion.maximin(EXP2, betas),
                                np.array([0.3, 0.3]), np.array([0.5, 0.5]))
        assert jac.shape == (5, 4) and np.all(jac == 0.0)


class TestFallbackLog:
    # seeded m > 1 solves that once reached the Kelley cutting-plane
    # fallback; refine now certifies them from the seed on its own
    @pytest.mark.parametrize("B", [3.0, 3.484026254796982])
    def test_merged_insertion_gives_way_to_the_next_peak(self, B):
        # the derivative peaks at x = 1 and at an interior point that the
        # polish merges into the support; refine inserts both at once, and
        # the seed certifies
        design, cert = solve_maximin(EXP2, BetaGrid(1.0, B, 20))
        assert cert.passed and max(design.points) == pytest.approx(1.0, abs=1e-9)

    def test_wide_two_parameter_grid_certifies_from_the_seed(self):
        # the seed's first certificate peaks at several points; one round
        # inserts them all, where one point per round fell back to Kelley
        _, cert = solve_maximin(EXP2, BetaGrid(1.0, 200.0))
        assert cert.passed

    def test_seeded_solve_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="optdesign")
        solve_maximin(EXP3, BetaGrid(1.0, 2.6905995908071647, 20))
        assert not [r for r in caplog.records if r.name.startswith("optdesign")]


class TestEfficiencyConsistency:
    def test_local_design_efficiency_matches_closed_form(self):
        # the criterion evaluated on a local design for a single off-grid
        # parameter reduces to the pairwise efficiency function
        d = local_design(EXP1, 3.0)
        phi, _ = maximin_criterion(d, EXP1, BetaGrid(6.0, 6.0))
        np.testing.assert_allclose(phi, q_efficiency(EXP1, 6.0, 3.0), rtol=1e-9)
