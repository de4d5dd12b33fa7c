"""Prior-averaged criterion, quadrature rules, and the Bayesian solver."""

import dataclasses
import math

import numpy as np
import pytest

from optdesign import (
    EXP1,
    EXP2,
    EXP3,
    LOGISTIC,
    DesignMeasure,
    ParameterPrior,
    averaged_directional_derivative,
    bayes_a_criterion,
    bayes_criterion,
    information_matrix,
    local_design,
    log_det,
    make_logistic,
    quadrature,
    solve_bayes,
    solve_local,
)
import optdesign.bayes
import optdesign.local
from optdesign.bayes import POS_INF, _gauss_legendre, prior_criterion
from optdesign.local import SingularInformationError, certify


class TestParameterPrior:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterPrior.uniform(5.0, 2.0)
        with pytest.raises(ValueError):
            ParameterPrior.trunc_exp(-1.0)
        with pytest.raises(ValueError):
            ParameterPrior.discrete_uniform(0)

    # int() ran first: 2.5 became 2, and inf raised OverflowError
    @pytest.mark.parametrize("L", [2.5, math.inf, -math.inf, math.nan])
    def test_discrete_count_must_be_a_finite_integer(self, L):
        with pytest.raises(ValueError):
            ParameterPrior.discrete_uniform(L)

    def test_discrete_count_is_stored_as_an_int(self):
        # a stored artifact can carry (3.0,); quadrature needs an int count
        prior = ParameterPrior("discrete_uniform", (3.0,), 1)
        assert prior.params == (3,) and type(prior.params[0]) is int
        np.testing.assert_array_equal(quadrature(prior)[0], [1.0, 2.0, 3.0])

    # a float count reached np.polynomial.legendre.leggauss, a TypeError
    @pytest.mark.parametrize("nodes", [200.5, 0, -3.0, math.inf, math.nan])
    def test_quadrature_nodes_must_be_a_whole_number(self, nodes):
        with pytest.raises(ValueError, match="quadrature_nodes"):
            ParameterPrior("uniform", (1.0, 50.0), nodes)

    def test_whole_quadrature_nodes_are_stored_as_an_int(self):
        prior = ParameterPrior("uniform", (1.0, 50.0), 200.0)
        assert prior == ParameterPrior.uniform(1.0, 50.0)
        assert type(prior.quadrature_nodes) is int
        assert len(quadrature(prior)[0]) == 200

    @pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (-math.inf, 1.0),
                                        (math.nan, 1.0), (1.0, math.nan)])
    def test_uniform_bounds_must_be_finite(self, lo, hi):
        # lo < hi alone lets (1, inf) through to quadrature, which warns
        with pytest.raises(ValueError):
            ParameterPrior.uniform(lo, hi)

    def test_support_intervals(self):
        assert ParameterPrior.uniform(1.0, 40.0).support_interval == (1.0, 40.0)
        assert ParameterPrior.trunc_exp(0.25).support_interval == (0.0, 4.0)
        assert ParameterPrior.discrete_uniform(6).support_interval == (1.0, 6.0)

    def test_each_kind_owns_its_node_default(self):
        # the constructor and the named builders agree: 200 nodes for a
        # uniform prior, 400 for trunc_exp, 1 for the discrete and point ones
        for kind, params, nodes, named in (
                ("uniform", (1.0, 40.0), 200, ParameterPrior.uniform(1.0, 40.0)),
                ("trunc_exp", (0.5,), 400, ParameterPrior.trunc_exp(0.5)),
                ("discrete_uniform", (3,), 1, ParameterPrior.discrete_uniform(3)),
                ("point_mass", (2.0,), 1, ParameterPrior.point_mass(2.0))):
            prior = ParameterPrior(kind, params)
            assert prior == named and prior.quadrature_nodes == nodes
        assert ParameterPrior.trunc_exp(0.5, 120).quadrature_nodes == 120


class TestQuadrature:
    def test_point_mass_is_exact(self):
        nodes, qw = quadrature(ParameterPrior.point_mass(3.7))
        assert nodes.tolist() == [3.7] and qw.tolist() == [1.0]

    def test_discrete_atoms_are_exact(self):
        nodes, qw = quadrature(ParameterPrior.discrete_uniform(5))
        np.testing.assert_allclose(nodes, [1, 2, 3, 4, 5])
        np.testing.assert_allclose(qw, 0.2)

    def test_uniform_moments(self):
        nodes, qw = quadrature(ParameterPrior.uniform(1.0, 40.0))
        np.testing.assert_allclose(qw.sum(), 1.0, rtol=1e-12)
        np.testing.assert_allclose(qw @ nodes, 20.5, rtol=1e-10)
        np.testing.assert_allclose(
            qw @ nodes**2, (40.0**3 - 1.0) / (3.0 * 39.0), rtol=1e-10
        )

    def test_wide_uniform_resolves_small_parameters(self):
        nodes, qw = quadrature(ParameterPrior.uniform(1.0, 3000.0))
        np.testing.assert_allclose(qw.sum(), 1.0, rtol=1e-12)
        np.testing.assert_allclose(qw @ nodes, 1500.5, rtol=1e-8)
        assert np.count_nonzero(nodes < 10.0) > 20

    def test_rule_is_cached_read_only(self):
        t, wt = _gauss_legendre(200)
        again = _gauss_legendre(200)
        assert again[0] is t and again[1] is wt
        for arr in (t, wt):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_truncated_exponential_mean(self):
        a = 0.5
        nodes, qw = quadrature(ParameterPrior.trunc_exp(a))
        np.testing.assert_allclose(qw.sum(), 1.0, rtol=1e-12)
        want = (1.0 - 2.0 * math.exp(-1.0)) / (a * (1.0 - math.exp(-1.0)))
        np.testing.assert_allclose(qw @ nodes, want, rtol=1e-8)
        assert nodes.min() > 0.0 and nodes.max() < 1.0 / a


class TestBayesCriterion:
    def test_point_prior_reduces_to_logdet(self):
        d = DesignMeasure((0.0, 0.5), (0.5, 0.5))
        got = bayes_criterion(d, EXP2, ParameterPrior.point_mass(2.0))
        want = log_det(information_matrix(d, EXP2, 2.0))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_scalar_point_example(self):
        # one-point design at 0.4, parameter 2: log(0.4^2 e^{-1.6})
        got = bayes_criterion(
            DesignMeasure.point_mass(0.4), EXP1, ParameterPrior.point_mass(2.0)
        )
        np.testing.assert_allclose(
            got, math.log(0.16 * math.exp(-1.6)), rtol=1e-12
        )

    def test_standardized_subtracts_local_optimum(self):
        d = DesignMeasure.point_mass(0.4)
        prior = ParameterPrior.point_mass(2.0)
        raw = bayes_criterion(d, EXP1, prior)
        st = bayes_criterion(d, EXP1, prior, standardized=True)
        np.testing.assert_allclose(
            st, raw - math.log((2.0 * math.e) ** -2), rtol=1e-12
        )
        assert st <= 1e-12  # never beats the local optimum

    def test_singular_design_gives_sentinel(self):
        got = bayes_criterion(
            DesignMeasure.point_mass(0.3), EXP2, ParameterPrior.uniform(1.0, 4.0)
        )
        assert got == float("-inf")

    def test_concavity_in_the_design(self):
        rng = np.random.default_rng(5)
        prior = ParameterPrior.uniform(1.0, 10.0)
        for _ in range(25):
            a = DesignMeasure.from_arrays(
                rng.uniform(0.0, 1.0, 3), rng.uniform(0.1, 1.0, 3)
            )
            b = DesignMeasure.from_arrays(
                rng.uniform(0.0, 1.0, 3), rng.uniform(0.1, 1.0, 3)
            )
            alpha = float(rng.uniform(0.1, 0.9))
            lhs = bayes_criterion(a.mix(b, alpha), EXP2, prior)
            rhs = alpha * bayes_criterion(a, EXP2, prior) + (
                1.0 - alpha
            ) * bayes_criterion(b, EXP2, prior)
            assert lhs >= rhs - 1e-10


class TestAveragedDerivative:
    def test_design_average_equals_dimension(self):
        prior = ParameterPrior.uniform(1.0, 10.0)
        design, cert = solve_bayes(EXP1, prior)
        assert cert.passed
        d = averaged_directional_derivative(
            design, EXP1, prior, design.points_array()
        )
        np.testing.assert_allclose(
            float(d @ design.weights_array()), 1.0, rtol=1e-9
        )
        assert d.max() <= 1.0 + 1e-6


class TestSolveBayes:
    def test_point_prior_recovers_local_solution(self):
        for beta in (2.0, 8.0):
            db, cb = solve_bayes(EXP1, ParameterPrior.point_mass(beta))
            dl, cl = solve_local(EXP1, beta)
            assert cb.passed and cl.passed
            assert db.n == dl.n == 1
            assert abs(db.points[0] - dl.points[0]) < 1e-6
        # a local design is the point-prior Bayes design, by the same solve
        for model, beta in ((EXP1, 3.0), (EXP2, 4.0), (EXP3, 10.0),
                            (LOGISTIC, 12.0)):
            db, cb = solve_bayes(model, ParameterPrior.point_mass(beta))
            dl, cl = solve_local(model, beta)
            assert cb.passed
            assert db == dl and cb == cl

    def test_narrow_uniform_one_point(self, bayes_results):
        design, cert = bayes_results[10]
        assert cert.passed
        assert design.n == 1
        assert abs(design.points[0] - 0.182) < 0.01

    def test_moderate_uniform_two_points(self, bayes_results):
        design, cert = bayes_results[40]
        assert cert.passed
        assert design.n == 2
        pts = sorted(design.points)
        assert abs(pts[0] - 0.048) < 0.01 and abs(pts[1] - 0.354) < 0.01

    def test_optimum_beats_every_local_design(self):
        prior = ParameterPrior.uniform(1.0, 40.0)
        design, _ = solve_bayes(EXP1, prior)
        best = bayes_criterion(design, EXP1, prior)
        for beta in (1.0, 5.0, 20.0, 40.0):
            rival = local_design(EXP1, beta)
            assert best >= bayes_criterion(rival, EXP1, prior) - 1e-12

    def test_two_parameter_discrete_prior(self):
        design, cert = solve_bayes(EXP2, ParameterPrior.discrete_uniform(3))
        assert cert.passed
        assert design.points[0] == pytest.approx(0.0, abs=1e-6)


def _engine_columns(monkeypatch):
    """Record the candidate-column count of every Bayes grid-engine call."""
    seen = []
    engine = optdesign.bayes.maximize_weighted_logdet

    def recording(Fs, *args, **kwargs):
        seen.append(Fs.shape[1])
        return engine(Fs, *args, **kwargs)

    monkeypatch.setattr(optdesign.bayes, "maximize_weighted_logdet", recording)
    return seen


class TestSeededSolve:
    # the two anchors of the perfbench bayes workload at seed 0
    @pytest.mark.parametrize("model, prior", [
        (EXP2, ParameterPrior.uniform(1.0, 9.99079, 50)),
        (EXP1, ParameterPrior.uniform(1.0, 134.238, 200)),
    ])
    def test_seed_certifies_on_a_few_candidates(self, model, prior,
                                                monkeypatch):
        seen = _engine_columns(monkeypatch)
        _, cert = solve_bayes(model, prior)
        assert cert.passed
        assert seen and max(seen) < 50

    def test_model_without_local_designs_solves_on_the_grid(self, monkeypatch):
        seen = _engine_columns(monkeypatch)
        model = dataclasses.replace(EXP1, analytic_local=None)
        design, cert = solve_bayes(model, ParameterPrior.uniform(1.0, 50.0))
        assert cert.passed and design.n == 2
        # the first call weights the 21 evenly spaced start points
        assert seen[0] == 21

    @pytest.mark.parametrize("model, n", [(EXP2, 2), (EXP3, 3)],
                             ids=["exp2", "exp3"])
    def test_fixed_support_on_the_start_points_is_one_column(
            self, model, n, monkeypatch):
        # the fixed support lies on the 21 start points: no duplicate column
        seen = _engine_columns(monkeypatch)
        model = dataclasses.replace(model, analytic_local=None)
        design, cert = solve_bayes(model, ParameterPrior.uniform(1.0, 3.0))
        assert cert.passed and design.n == n
        assert seen[0] == 21

    def test_exp3_far_below_its_scale_fails_closed(self):
        # no certified design is known this far below beta = 1: the solve
        # must fail closed, with a failed certificate or the documented error
        try:
            _, cert = solve_bayes(EXP3, ParameterPrior.point_mass(1e-6))
        except SingularInformationError:
            return
        assert not cert.passed

    # 0.001 certifies since the polish pins the fixed support {0, 1}, 0.1
    # and 0.5 since the seed is the mixture itself and the weight solver
    # takes f^T M^-1 f from the QR factor; each certificate also holds on a
    # rule with twice the quadrature nodes
    @pytest.mark.parametrize("a", [0.001, 0.1, 0.5])
    def test_exp3_truncated_exponential_certifies_at_a_small_rate(self, a):
        design, cert = solve_bayes(EXP3, ParameterPrior.trunc_exp(a))
        assert cert.passed
        fine = prior_criterion(EXP3, ParameterPrior.trunc_exp(a, 800))
        assert certify(EXP3, design, fine).passed

    def test_failed_solve_returns_its_best_round(self, monkeypatch):
        # the exchange rounds of this wide prior alternate between designs;
        # the last one read 4.311 where the best read 4.101
        seen = []
        certify = optdesign.local.certify

        def recording(*args):
            cert = certify(*args)
            seen.append(cert.max_directional_derivative)
            return cert

        monkeypatch.setattr(optdesign.local, "certify", recording)
        _, cert = solve_bayes(EXP1, ParameterPrior.uniform(1.0, 1e5))
        assert cert.max_directional_derivative == min(seen)

    def test_wide_logistic_prior_certifies_from_the_seed(self):
        # optdesign bayes --model logistic --prior uniform:1:30: the 15-point
        # design needs several peaks inserted per exchange round
        _, cert = solve_bayes(make_logistic(35.0),
                              ParameterPrior.uniform(1.0, 30.0))
        assert cert.passed

    def test_singular_inverse_in_the_audit_fails_closed(self):
        # the certificate's double-precision inverse can fail where the
        # extended-precision determinant passed: the documented error, or a
        # failed certificate, never a bare numpy LinAlgError
        try:
            _, cert = solve_bayes(EXP3, ParameterPrior.uniform(1.0, 6000.0))
        except SingularInformationError:
            return
        assert not cert.passed


class TestWeightSolve:
    # B = 10 is where a Newton step accepted by comparing slogdet values
    # stalled at a KKT residual of 7.6e-9
    @pytest.mark.parametrize("B", [5.0, 9.99079, 10.0, 10.01, 20.0])
    def test_polished_weights_meet_the_kkt_conditions(self, B):
        prior = ParameterPrior.uniform(1.0, B, 50)
        design, cert = solve_bayes(EXP2, prior)
        d = prior_criterion(EXP2, prior).derivative(
            EXP2, design, design.points_array())
        assert cert.passed
        assert np.max(np.abs(d - EXP2.m)) <= 1e-10 * EXP2.m


class TestTraceCriterion:
    def test_local_design_scores_one(self):
        d = local_design(EXP1, 2.0)
        got = bayes_a_criterion(d, EXP1, ParameterPrior.point_mass(2.0))
        np.testing.assert_allclose(got, 1.0, rtol=1e-10)

    def test_scalar_point_example(self):
        got = bayes_a_criterion(
            DesignMeasure.point_mass(0.4), EXP1, ParameterPrior.point_mass(2.0)
        )
        # trace ratio = (1 / (0.16 e^{-1.6})) / (2e)^2
        want = (1.0 / (0.16 * math.exp(-1.6))) / (2.0 * math.e) ** 2
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_never_below_one_for_scalar_model(self):
        # for a one-parameter model the trace ratio is an inverse efficiency
        rng = np.random.default_rng(9)
        prior = ParameterPrior.uniform(1.0, 10.0)
        for _ in range(25):
            d = DesignMeasure.from_arrays(
                rng.uniform(0.01, 1.0, 3), rng.uniform(0.1, 1.0, 3)
            )
            assert bayes_a_criterion(d, EXP1, prior) >= 1.0 - 1e-10

    def test_singular_gives_sentinel(self):
        got = bayes_a_criterion(
            DesignMeasure.point_mass(0.3), EXP2, ParameterPrior.point_mass(2.0)
        )
        assert got == POS_INF
