"""Structural checks: decay envelopes, dominance, lower-bound constructions."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from optdesign import (
    EXP1,
    EXP2,
    EXP3,
    LOGISTIC,
    DecayEnvelope,
    DesignMeasure,
    ParameterPrior,
    bayes_criterion,
    check_condition_2_9,
    check_uniform_decrease,
    construct_lower_bound_design,
    gram_determinant,
    growth_study,
    q_efficiency,
    verify_lower_bounds,
)
from optdesign import theory
from optdesign.design import det_info
from optdesign.local import local_offsets
from optdesign.theory import write_growth_csv
from optdesign.scales import identity, logarithm


class TestDecayEnvelope:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecayEnvelope("cubic", 1.0, 1.0)
        with pytest.raises(ValueError):
            DecayEnvelope("power", -1.0, 2.0)

    def test_evaluation(self):
        e = DecayEnvelope("exponential", math.e**2, 2.0)
        np.testing.assert_allclose(e(0.0), math.e**2, rtol=1e-12)
        np.testing.assert_allclose(e(1.0), 1.0, rtol=1e-12)
        p = DecayEnvelope("power", 2.0, 2.0)
        np.testing.assert_allclose(p(2.0), 0.5, rtol=1e-12)

    def test_admissibility_threshold(self):
        # power decay forces growth only past the net parameter dimension
        assert DecayEnvelope("power", 1.0, 2.0).admissible_for_maximin(EXP2)
        assert not DecayEnvelope("power", 1.0, 1.0).admissible_for_maximin(EXP2)
        assert DecayEnvelope("exponential", 1.0, 0.5).admissible_for_maximin(EXP2)


class TestUniformDecrease:
    def test_scalar_exponential_envelope_holds(self):
        rep = check_uniform_decrease(
            EXP1,
            logarithm(),
            DecayEnvelope("exponential", math.e**2, 2.0),
            np.geomspace(1.0, 100.0, 120),
        )
        assert rep.passed
        assert rep.worst_margin <= 1e-12
        # the measured half-efficiency band: wider than log 2, below 0.74
        assert math.log(2.0) <= rep.lambda_estimate <= 0.74

    def test_logistic_envelope_and_band(self):
        rep = check_uniform_decrease(
            LOGISTIC,
            identity(),
            DecayEnvelope("exponential", 4.0, 1.0),
            np.linspace(0.0, 8.0, 80),
        )
        assert rep.passed
        # Q >= 1/2 out to -log(3 - 2 sqrt(2)) ~ 1.763 on the identity scale
        assert rep.lambda_estimate >= 1.0

    def test_violations_counted_for_too_tight_envelope(self):
        rep = check_uniform_decrease(
            EXP1,
            logarithm(),
            DecayEnvelope("exponential", 0.5, 2.0),
            np.geomspace(1.0, 10.0, 20),
        )
        assert not rep.passed
        assert rep.violations > 0 and rep.worst_margin > 0.0

    def test_nan_efficiency_is_a_violation(self, monkeypatch):
        real = theory._pairwise_q

        def with_nan(*args):
            q = real(*args)
            q[0, 1] = math.nan
            return q

        monkeypatch.setattr(theory, "_pairwise_q", with_nan)
        rep = check_uniform_decrease(
            EXP1,
            logarithm(),
            DecayEnvelope("exponential", math.e**2, 2.0),
            np.geomspace(1.0, 10.0, 20),
        )
        assert rep.violations == 1 and not rep.passed


class TestStackedEfficiency:
    @pytest.mark.parametrize("model, betas", [
        (EXP1, np.geomspace(0.1, 1e4, 40)),
        (EXP2, np.geomspace(0.1, 1e3, 40)),
        (LOGISTIC, np.linspace(0.0, 30.0, 40)),
        (EXP3, np.geomspace(0.01, 500.0, 30)),
    ], ids=["exp1", "exp2", "logistic", "exp3"])
    def test_pairwise_q_equals_q_efficiency(self, model, betas):
        want = np.array([
            [q_efficiency(model, float(b), float(bt))
             for bt in betas]
            for b in betas
        ])
        np.testing.assert_allclose(
            theory._pairwise_q(model, betas), want, rtol=1e-12, atol=0.0)

        # the stacked determinants are the scalar ones, bit for bit
        lo, hi = model.design_interval
        rng = np.random.default_rng(5)
        xi = DesignMeasure.from_arrays(rng.uniform(lo, hi, 5), rng.uniform(size=5))
        scalar = [det_info(xi, model, float(b)) for b in betas]
        assert det_info(xi, model, betas).tolist() == scalar
        pts = tuple(rng.uniform(lo, hi, model.m))
        scalar = [gram_determinant(pts, model, float(b)) for b in betas]
        assert gram_determinant(pts, model, betas).tolist() == scalar


class TestGramDominance:
    def test_scalar_model(self):
        rep = check_condition_2_9(
            EXP1, [(0.5,), (0.1,), (1.0,)], np.geomspace(1.0, 20.0, 25)
        )
        assert rep.passed
        assert rep.constants["c0"] > 0.0

    def test_two_parameter_model(self):
        rng = np.random.default_rng(2)
        tuples = [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(20)]
        rep = check_condition_2_9(EXP2, tuples, np.geomspace(1.0, 20.0, 25))
        assert rep.passed

    def test_nan_determinant_is_a_violation(self, monkeypatch):
        betas = np.geomspace(1.0, 20.0, 25)
        assert check_condition_2_9(EXP2, [(0.25, 0.5)], betas).passed
        real = theory.gram_determinant

        def nan_at_tuple(points, model, beta):
            if points == (0.25, 0.5):
                return np.full(np.shape(beta), math.nan)
            return real(points, model, beta)

        monkeypatch.setattr(theory, "gram_determinant", nan_at_tuple)
        rep = check_condition_2_9(EXP2, [(0.25, 0.5)], betas)
        assert rep.violations == len(betas) and not rep.passed
        assert math.isnan(rep.worst_margin)

    def test_generator_of_tuples_is_counted(self):
        tuples = [(0.25, 0.5), (0.1, 0.9)]
        betas = np.geomspace(1.0, 20.0, 10)
        rep = check_condition_2_9(EXP2, (t for t in tuples), betas)
        assert rep.domain == "exp2, 2 tuples x 10 parameters"
        assert rep == check_condition_2_9(EXP2, tuples, betas)

    def test_three_parameter_model(self):
        rng = np.random.default_rng(4)
        tuples = [tuple(rng.uniform(0.0, 1.0, 3)) for _ in range(15)]
        rep = check_condition_2_9(EXP3, tuples, np.geomspace(1.0, 20.0, 25))
        assert rep.passed

    def test_no_recipe_without_fixed_support_or_one_parameter(self):
        # the recipe follows the structure, not the name: EXP2 without its
        # fixed support has neither
        model = dataclasses.replace(EXP2, name="free", m_eta=0,
                                    fixed_support=())
        with pytest.raises(ValueError, match="no dominance recipe"):
            check_condition_2_9(model, [(0.25, 0.5)], [1.0, 2.0])


class TestLowerBoundConstruction:
    def test_scalar_band_spaced_mixture(self):
        # span 4 on the log scale with band log 2: three local designs at
        # the cell midpoints e^{2/3}, e^2, e^{10/3}
        xi = construct_lower_bound_design(
            EXP1, logarithm(), 1.0, math.exp(4.0), math.log(2.0)
        )
        assert xi.n == 3
        np.testing.assert_allclose(
            sorted(xi.points),
            [math.exp(-10.0 / 3.0), math.exp(-2.0), math.exp(-2.0 / 3.0)],
            rtol=1e-9,
        )
        np.testing.assert_allclose(xi.weights, [1 / 3] * 3, rtol=1e-12)

    def test_minimal_span_gives_two_points(self):
        lam = math.log(2.0)
        xi = construct_lower_bound_design(EXP1, logarithm(), 1.0, 16.0, lam)
        assert xi.n == 2
        np.testing.assert_allclose(sorted(xi.points), [0.125, 0.5], rtol=1e-12)

    def test_span_below_four_bands_rejected(self):
        with pytest.raises(ValueError):
            construct_lower_bound_design(
                EXP1, logarithm(), 1.0, 2.0, math.log(2.0)
            )

    def test_shared_origin_merges_once(self):
        xi = construct_lower_bound_design(
            EXP2, logarithm(), 1.0, math.exp(4.0), math.log(2.0)
        )
        # three two-point local designs sharing the origin: 4 atoms total
        assert xi.n == 4
        assert xi.points[0] == 0.0
        np.testing.assert_allclose(xi.weights[0], 0.5, rtol=1e-12)


class TestLowerBounds:
    def test_scalar_model_floors(self):
        rep = verify_lower_bounds(
            EXP1, logarithm(), (1.0, math.exp(4.0)), math.log(2.0)
        )
        assert rep.passed
        c = rep.constants
        assert c["phi"] >= math.log(2.0) / 8.0
        assert c["psi_st"] >= -4.0 + math.log(math.log(2.0))

    def test_two_parameter_efficiency_floor(self):
        rep = verify_lower_bounds(EXP2, logarithm(), (1.0, 16.0), math.log(2.0))
        assert rep.passed
        assert rep.constants["min_efficiency"] >= rep.constants["efficiency_bound"]

    def test_three_parameter_efficiency_floor(self):
        rep = verify_lower_bounds(EXP3, logarithm(), (1.0, 16.0), math.log(2.0))
        assert rep.passed

    @pytest.mark.parametrize("model", [EXP1, EXP2], ids=["exp1", "exp2"])
    @pytest.mark.parametrize("offset", [-math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_efficiency_fails_closed(self, monkeypatch, model, offset):
        # an offset of -inf gives efficiency +inf, a NaN offset a NaN one;
        # neither compares below a bound, so each must count on its own
        def broken(m, betas):
            off = local_offsets(m, betas)
            off[len(off) // 2] = offset
            return off

        monkeypatch.setattr(theory, "local_offsets", broken)
        rep = verify_lower_bounds(model, logarithm(), (1.0, 40.0), math.log(2.0))
        assert rep.violations >= 1 and not rep.passed

    @pytest.mark.parametrize("beta_range", [(1.0, 40.0), (1.0, 300.0), (2.0, 3000.0)])
    def test_log_audit_grid_is_geometric(self, monkeypatch, beta_range):
        seen = []

        def recording(m, betas):
            seen.append(betas)
            return local_offsets(m, betas)

        monkeypatch.setattr(theory, "local_offsets", recording)
        verify_lower_bounds(EXP1, logarithm(), beta_range, math.log(2.0),
                            audit_count=500)
        (grid,) = seen
        want = np.geomspace(*beta_range, 500)
        # the log resolves beta only to its own last bit: compare in ulps of
        # the largest log on the grid, a relative error in beta
        ulp = np.spacing(max(abs(math.log(b)) for b in beta_range))
        assert np.all(np.abs(grid - want) <= 4.0 * ulp * want)


class TestOnePointCriterionDecay:
    def test_best_one_point_average_strictly_decreases(self):
        # the best single-point design loses ground as the range widens,
        # which is what forces extra support points
        vals = []
        for B in (10.0, 100.0, 1000.0):
            prior = ParameterPrior.uniform(1.0, B)

            def neg(x):
                return -bayes_criterion(
                    DesignMeasure.point_mass(x), EXP1, prior, standardized=True
                )

            res = minimize_scalar(neg, bounds=(1e-4, 1.0), method="bounded")
            vals.append(-res.fun)
        assert vals[0] > vals[1] > vals[2]
        assert all(v < 0.0 for v in vals)


class TestGrowthStudy:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            growth_study(EXP1, "entropy", [5.0, 10.0])
        with pytest.raises(ValueError):
            growth_study(EXP1, "maximin", [10.0, 5.0])

    def test_maximin_sweep_and_csv(self, tmp_path):
        path = tmp_path / "growth.csv"
        rows = growth_study(EXP1, "maximin", [5.0, 10.0], csv_path=str(path))
        assert [r.B for r in rows] == [5.0, 10.0]
        assert all(r.certified for r in rows)
        assert rows[0].support_count <= rows[1].support_count

        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        labels = [row[0] for row in table]
        assert labels[:4] == ["B", "count", "value", "certified"]
        kmax = max(r.support_count for r in rows)
        assert labels[4:] == [
            f"{tag}_{k}" for k in range(1, kmax + 1) for tag in ("x", "w")
        ]
        assert table[0][1:] == ["5", "10"]
        # columns round-trip at full precision
        x1 = float(table[4][2])
        assert x1 == rows[1].design.points[0]

    def test_two_parameter_maximin_support_grows(self):
        rows = growth_study(EXP2, "maximin", [4.0, 20.0, 50.0])
        assert all(r.certified for r in rows)
        assert [r.support_count for r in rows] == [3, 5, 6]

    def test_bayes_alias_accepted(self):
        rows = growth_study(EXP1, "bayes", [5.0])
        assert rows[0].certified and rows[0].support_count == 1

    def test_failed_row_records_error(self, tmp_path):
        rows = [
            r if r.error is None else r
            for r in growth_study(EXP1, "maximin", [5.0])
        ]
        # synthesize a failed row and check the writer tolerates it
        from optdesign.theory import GrowthRow

        rows.append(GrowthRow(B=20.0, support_count=None, value=None,
                              certified=None, error="RuntimeError: boom"))
        path = tmp_path / "g.csv"
        write_growth_csv(rows, str(path))
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[1][2] == ""  # missing count stays blank
