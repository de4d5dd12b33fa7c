"""Structural checks: decay envelopes, dominance, lower-bound constructions."""

import csv
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
    growth_study,
    verify_lower_bounds,
)
from optdesign import theory
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
                return math.nan
            return real(points, model, beta)

        monkeypatch.setattr(theory, "gram_determinant", nan_at_tuple)
        rep = check_condition_2_9(EXP2, [(0.25, 0.5)], betas)
        assert rep.violations == len(betas) and not rep.passed
        assert math.isnan(rep.worst_margin)

    def test_three_parameter_model(self):
        rng = np.random.default_rng(4)
        tuples = [tuple(rng.uniform(0.0, 1.0, 3)) for _ in range(15)]
        rep = check_condition_2_9(EXP3, tuples, np.geomspace(1.0, 20.0, 25))
        assert rep.passed


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

    def test_bayes_alias_accepted(self):
        rows = growth_study(EXP1, "bayes", [5.0])
        assert rows[0].certified and rows[0].support_count == 1

    def test_threaded_rows_match_serial(self, monkeypatch):
        serial = growth_study(EXP1, "maximin", [5.0, 10.0])
        monkeypatch.setenv("OPTDESIGN_THREADS", "2")
        threaded = growth_study(EXP1, "maximin", [5.0, 10.0])
        for a, b in zip(serial, threaded):
            assert a.support_count == b.support_count
            np.testing.assert_allclose(a.value, b.value, rtol=1e-9)

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
