"""Built-in models: scores, local oracles, efficiency functions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optdesign import (
    EXP1,
    EXP2,
    EXP3,
    LOGISTIC,
    BetaDomainError,
    DesignMeasure,
    Model,
    ParameterPrior,
    bayes_criterion,
    get_model,
    gram_determinant,
    h_function,
    information_matrix,
    make_logistic,
    q_efficiency,
)
from optdesign.design import det_info
from optdesign.local import Criterion, local_design, stacked_scores
from optdesign.models import q_exp1_closed, q_logistic_closed


def _nan_at_half_model():
    # an EXP1-like score that is NaN at the local design's only point:
    # the NaN determinant must not slip past the "<= 0" guards
    def score(x, beta):
        return np.where(x == 0.5, np.nan, x * np.exp(-beta * x))[..., None]

    return Model(name="nan-at-half", m=1, m_eta=0,
                 design_interval=(0.0, 1.0), beta_range=(1e-12, math.inf),
                 score=score,
                 analytic_local=lambda b: (np.full((len(b), 1), 0.5),
                                           np.ones((len(b), 1))))


class TestModelSpec:
    def test_builtin_lookup(self):
        assert get_model("exp1") is EXP1
        with pytest.raises(KeyError):
            get_model("nope")

    def test_dimension_bookkeeping(self):
        for model, m, m_eta in ((EXP1, 1, 0), (EXP2, 2, 1), (EXP3, 3, 2),
                                (LOGISTIC, 1, 0)):
            assert (model.m, model.m_eta) == (m, m_eta)
            assert len(model.fixed_support) == m_eta

    def test_beta_domain_enforced(self):
        with pytest.raises(BetaDomainError):
            EXP1.check_beta(-1.0)
        with pytest.raises(BetaDomainError):
            LOGISTIC.check_beta(float("nan"))
        with pytest.raises(BetaDomainError, match="beta=0.0"):
            EXP1.check_beta(np.array([1.0, 0.0, 2.0]))
        EXP1.check_beta(np.geomspace(1e-12, 1e300, 7))

    def test_local_designs_check_the_domain(self):
        # the analytic oracles would divide by zero or return a point
        # mass at 0 for these values: every entry point checks first
        for beta in (0.0, -1.0):
            with pytest.raises(BetaDomainError):
                local_design(EXP1, beta)
        with pytest.raises(BetaDomainError):
            Criterion.maximin(EXP1, [0.0, 1.0])

    def test_fixed_support_arity_validated(self):
        with pytest.raises(ValueError):
            Model(
                name="bad",
                m=2,
                m_eta=1,
                design_interval=(0.0, 1.0),
                beta_range=(0.0, 10.0),
                score=EXP2.score,
                fixed_support=(),
            )

    def test_logistic_interval_configurable(self):
        m = make_logistic(12.0)
        assert m.design_interval == (0.0, 12.0)
        P, W = m.analytic_local(np.array([20.0, 5.0]))
        assert P.tolist() == [[12.0], [5.0]] and W.tolist() == [[1.0], [1.0]]
        # the logistic interval grows with the parameter range; the
        # exponential models keep [0, 1]
        assert LOGISTIC.widen(12.0).design_interval == (0.0, 12.0)
        assert [mod.widen for mod in (EXP1, EXP2, EXP3)] == [None] * 3

    @pytest.mark.parametrize("x_max", [math.inf, math.nan, 0.0, -5.0])
    def test_design_interval_must_be_finite_and_nonempty(self, x_max):
        # on [0, inf) the audit grid is two points: nothing it certifies
        # would hold on the continuum
        with pytest.raises(ValueError, match="design interval"):
            make_logistic(x_max)

    def test_theory_defaults(self):
        # Q decays on the log scale for the exponential models and on the
        # identity scale for the logistic model
        for model in (EXP1, EXP2, EXP3):
            assert model.theory_defaults == (
                "log", math.e ** 2, 2.0, math.log(2.0))
        assert LOGISTIC.theory_defaults == ("identity", 4.0 * math.e, 1.0, 1.0)


def _domain_draws(model):
    """x values in the design interval and beta values in the admissible
    range, capped at 1e300 so that every draw is finite."""
    lo, hi = model.design_interval
    b_lo, b_hi = model.beta_range
    xs = st.lists(st.floats(lo, hi), min_size=1, max_size=30)
    betas = st.lists(st.floats(b_lo, min(b_hi, 1e300)), min_size=1, max_size=12)
    return st.tuples(xs, betas)


class TestBroadcastScores:
    @pytest.mark.parametrize("model", [EXP1, EXP2, EXP3, LOGISTIC],
                             ids=lambda m: m.name)
    def test_stacked_scores_equal_per_beta_stack(self, model):
        @given(_domain_draws(model))
        @settings(max_examples=150, deadline=None)
        def check(draw):
            x, betas = (np.array(v, dtype=float) for v in draw)
            Fs = stacked_scores(model, x, betas)
            ref = np.stack([model.score(x, float(b)) for b in betas])
            assert Fs.shape == (len(betas), len(x), model.m)
            assert np.array_equal(Fs, ref)
            assert np.all(np.isfinite(Fs))

        check()

    def test_scalar_only_score_is_rejected(self):
        def scalar_beta_score(x, beta):
            # ones_like(x) does not broadcast against an array of betas
            e = np.exp(-beta * x)
            return np.stack([np.ones_like(x), -x * e], axis=1)

        def wrong_axis_score(x, beta):
            return (x * np.exp(-beta * x))[:, None]

        x = np.linspace(0.0, 1.0, 7)
        for score, m, fixed in ((scalar_beta_score, 2, (0.0,)),
                                (wrong_axis_score, 1, ())):
            model = Model(name="scalar-only", m=m, m_eta=len(fixed),
                          design_interval=(0.0, 1.0),
                          beta_range=(1e-12, math.inf), score=score,
                          fixed_support=fixed)
            with pytest.raises(ValueError, match="broadcast x against beta"):
                stacked_scores(model, x, [1.0, 2.0, 3.0])
            # a scalar beta is a stack of one, checked the same way
            xi = DesignMeasure(x, np.full(7, 1.0 / 7.0))
            for value in (information_matrix, det_info):
                with pytest.raises(ValueError, match="broadcast x against beta"):
                    value(xi, model, 2.0)

    def test_logistic_score_finite_far_from_beta(self):
        model = make_logistic(2005.0)
        x = np.array([0.0, 1000.0, 2005.0])
        F = model.score(x, 0.0)[:, 0]
        assert np.all(np.isfinite(F)) and F[0] == 0.5 and F[2] == 0.0
        # the |x - beta| form agrees with e^{z/2} / (1 + e^z) where that
        # form does not overflow
        z = np.linspace(-700.0, 700.0, 2001)
        old = np.exp(z / 2.0) / (1.0 + np.exp(z))
        new = LOGISTIC.score(z, 0.0)[:, 0]
        np.testing.assert_allclose(new, old, rtol=1e-15, atol=0.0)


class TestScoreDerivative:
    @pytest.mark.parametrize("model, betas", [
        (EXP1, [1e-3, 0.5, 3.0, 50.0, 500.0]),
        (EXP2, [1e-3, 0.5, 3.0, 50.0, 500.0]),
        (EXP3, [1e-3, 0.5, 3.0, 50.0, 500.0]),
        (make_logistic(1000.0), [0.0, 3.0, 17.5, 500.0]),
    ], ids=["exp1", "exp2", "exp3", "logistic"])
    def test_matches_central_differences(self, model, betas):
        lo, hi = model.design_interval
        for beta in betas:
            # both ends, the interior and, for the logistic model, x = beta
            x = np.unique(np.r_[np.linspace(lo, hi, 41), beta])
            x = x[x <= hi]
            # a step relative to the score's x-scale: 1/beta for the
            # exponential models, 1 for the logistic one
            h = 1e-6 / max(1.0, beta) if model.name != "logistic" else 1e-6
            D = stacked_scores(model, x, [beta], dx=True)[0]
            up, down = x + h, x - h  # divide by the step that was taken
            num = ((stacked_scores(model, up, [beta])[0]
                    - stacked_scores(model, down, [beta])[0])
                   / (up - down)[:, None])
            np.testing.assert_allclose(D, num, rtol=0.0,
                                       atol=1e-8 * np.abs(D).max())

    def test_logistic_derivative_vanishes_at_beta(self):
        D = stacked_scores(LOGISTIC, np.array([0.0, 7.0, 30.0]), [7.0], dx=True)
        assert D[0, 1, 0] == 0.0 and D[0, 0, 0] > 0.0 > D[0, 2, 0]

    def test_wrong_axis_derivative_is_rejected(self):
        model = dataclasses.replace(
            EXP1, score_dx=lambda x, beta: (np.exp(-beta * x))[:, None])
        x = np.linspace(0.0, 1.0, 7)
        with pytest.raises(ValueError, match="score_dx of model"):
            stacked_scores(model, x, [1.0, 2.0, 3.0], dx=True)

    def test_builtins_have_it_and_custom_models_need_not(self):
        assert all(m.score_dx is not None for m in (EXP1, EXP2, EXP3, LOGISTIC))
        assert _nan_at_half_model().score_dx is None


class TestAnalyticLocalDesigns:
    def test_scalar_exponential_clips(self):
        assert local_design(EXP1, 4.0).points[0] == 0.25
        assert local_design(EXP1, 0.5).points[0] == 1.0

    def test_two_parameter_shares_origin(self):
        d = local_design(EXP2, 5.0)
        assert d.points == (0.0, 0.2) and d.weights == (0.5, 0.5)

    def test_logistic_local_information(self):
        beta = 3.0
        d = local_design(LOGISTIC, beta)
        M = det_info(d, LOGISTIC, beta)
        np.testing.assert_allclose(M, 0.25, rtol=1e-12)


class TestQEfficiency:
    def test_equal_parameters_give_one(self):
        for model in (EXP1, EXP2, LOGISTIC):
            np.testing.assert_allclose(
                q_efficiency(model, 3.0, 3.0), 1.0, rtol=1e-12
            )

    def test_scalar_exponential_closed_form_value(self):
        np.testing.assert_allclose(
            q_efficiency(EXP1, 2.0, 1.0), 4.0 * math.exp(-2.0), rtol=1e-12
        )

    def test_logistic_unit_distance_value(self):
        got = q_efficiency(LOGISTIC, 4.0, 3.0)
        want = 4.0 * math.exp(-1.0) / (1.0 + math.exp(-1.0)) ** 2
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert want >= 0.5

    def test_matrix_q_matches_closed_forms(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            b, bt = rng.uniform(1.0, 100.0, 2)
            np.testing.assert_allclose(
                q_efficiency(EXP1, b, bt), q_exp1_closed(b, bt), rtol=1e-10
            )
            b, bt = rng.uniform(0.0, 20.0, 2)
            np.testing.assert_allclose(
                q_efficiency(LOGISTIC, b, bt), q_logistic_closed(b, bt),
                rtol=1e-10,
            )

    def test_numeric_local_design_without_oracle(self):
        # without an oracle both local designs come from the numeric solve
        numeric = dataclasses.replace(EXP2, analytic_local=None)
        for b, bt in ((2.0, 3.0), (5.0, 1.5)):
            np.testing.assert_allclose(
                q_efficiency(numeric, b, bt), q_efficiency(EXP2, b, bt),
                rtol=0.0, atol=1e-6)

    def test_numeric_local_solver_accepted(self):
        q = q_efficiency(EXP3, 2.0, 3.0)
        assert 0.0 < q < 1.0

    def test_nan_determinant_raises(self):
        model = _nan_at_half_model()
        with pytest.raises(ArithmeticError):
            det_info(DesignMeasure.point_mass(0.5), model, 2.0)
        for b, bt in ((2.0, 3.0), (3.0, 2.0)):
            with pytest.raises(ArithmeticError):
                q_efficiency(model, b, bt)

    def test_nan_determinant_raises_in_the_criterion(self):
        # the criteria share det_info's determinant, so they raise too
        # instead of reading the NaN as a singular matrix
        model = _nan_at_half_model()
        with pytest.raises(ArithmeticError):
            Criterion.local(2.0).log_efficiencies(
                model, DesignMeasure.point_mass(0.5))
        with pytest.raises(ArithmeticError):
            bayes_criterion(DesignMeasure.point_mass(0.5), model,
                            ParameterPrior.uniform(1.0, 3.0))

    def test_decay_envelope_on_log_grid(self):
        # Q <= e^2 e^(-2 |log b - log bt|) over a wide log grid
        bs = np.geomspace(1.0, 1e3, 100)
        worst = -np.inf
        for b in bs:
            for bt in bs:
                q = q_exp1_closed(b, bt)
                env = math.e**2 * math.exp(-2.0 * abs(math.log(b / bt)))
                worst = max(worst, q - env)
        assert worst <= 1e-12

    def test_half_band_at_factor_two(self):
        # Q >= 1/2 whenever the parameter ratio is within [1/2, 2]
        for y in np.linspace(0.5, 2.0, 101):
            assert q_exp1_closed(y, 1.0) >= 0.5


class TestExp3Structure:
    def test_bracket_vanishes_at_interval_ends(self):
        for beta in (1.0, 5.0):
            assert h_function(0.0, 0.0, 1.0, beta) == 0.0
            assert h_function(0.0, 1.0, 1.0, beta) == 0.0

    def test_bracket_positive_inside(self):
        assert h_function(0.0, 0.5, 1.0, 2.0) > 0.0

    def test_bracket_squared_is_gram_determinant(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x1, x2, x3 = rng.uniform(0.0, 1.0, 3)
            beta = rng.uniform(0.5, 10.0)
            np.testing.assert_allclose(
                h_function(x1, x2, x3, beta) ** 2,
                gram_determinant((x1, x2, x3), EXP3, beta),
                rtol=1e-9,
                atol=1e-25,
            )

    def test_amplitude_invariance_of_q(self):
        # restoring a free amplitude multiplies every determinant by its
        # square, so determinant ratios are amplitude-independent
        def scaled_score(alpha2):
            def score(x, beta):
                e = np.exp(-beta * x)
                return np.stack(
                    [np.ones_like(x), e, -alpha2 * x * e], axis=1
                )
            return score

        variants = [
            Model(
                name=f"exp3a{a}",
                m=3,
                m_eta=2,
                design_interval=(0.0, 1.0),
                beta_range=(1e-12, math.inf),
                score=scaled_score(a),
                fixed_support=(0.0, 1.0),
            )
            for a in (1.0, 2.0, 0.3)
        ]
        da = DesignMeasure((0.0, 0.2, 1.0), (0.4, 0.3, 0.3))
        db = DesignMeasure((0.0, 0.5, 1.0), (1 / 3, 1 / 3, 1 / 3))
        ratios = [
            det_info(da, v, 2.0) / det_info(db, v, 2.0) for v in variants
        ]
        np.testing.assert_allclose(ratios[1:], ratios[0], rtol=1e-12)

    def test_dominance_by_anchored_brackets(self):
        # I3(x1,x2,x3) <= sum_k I3(0, x_k, 1) in any order of the points
        rng = np.random.default_rng(3)
        for beta in (1.0, 5.0, 20.0):
            for _ in range(500):
                xs = rng.uniform(0.0, 1.0, 3)
                lhs = gram_determinant(tuple(xs), EXP3, beta)
                rhs = sum(
                    gram_determinant((0.0, x, 1.0), EXP3, beta) for x in xs
                )
                assert lhs <= rhs + 1e-15

    def test_large_beta_determinant_scaling(self):
        # the local optimum determinant scales as 1/beta^2: bounded below by
        # 1/(81 e^2 b^2) and above by 3/(81 e^2 b^2), the large-beta limit
        # where the middle bracket approaches the scalar-model information
        for beta in (20.0, 50.0):
            d = local_design(EXP3, beta)
            det = det_info(d, EXP3, beta)
            unit = 1.0 / (81.0 * math.e**2 * beta**2)
            assert unit <= det <= 3.0 * unit * 1.01
