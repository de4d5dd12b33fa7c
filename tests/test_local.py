"""Local D-optimal solver and its equivalence certificate."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize_scalar
from scipy.optimize._highspy._core import HighsModelStatus

import optdesign.io
import optdesign.local
import optdesign.maximin

from optdesign import (
    EXP1,
    EXP2,
    EXP3,
    LOGISTIC,
    BetaGrid,
    DesignMeasure,
    Model,
    ParameterPrior,
    canonical_merge,
    directional_derivative,
    information_matrix,
    local_design,
    log_det,
    solve_bayes,
    solve_local,
    solve_maximin,
)
from optdesign.bayes import prior_criterion
from optdesign.design import NEG_INF, det_info, det_via_cauchy_binet
from optdesign.local import (
    _GAME_STRIDE,
    _NODE_BLOCK,
    Criterion,
    MatrixGameError,
    SingularInformationError,
    _inverse_factor,
    _least_favorable_lp,
    _node_derivatives,
    _run_game,
    audit_grid,
    band_mixture,
    band_seed,
    build_grid,
    certify,
    dirderiv_stack,
    info_stack,
    local_offsets,
    maximize_weighted_logdet,
    refine,
    stacked_scores,
)
from optdesign.models import h_function, make_logistic
from optdesign.scales import logarithm
from optdesign.theory import construct_lower_bound_design


class TestBuildGrid:
    def test_build_grid_sorted_unique(self):
        x = build_grid((0.0, 1.0))
        assert np.all(np.diff(x) > 0)
        assert x[0] == 0.0 and x[-1] == 1.0
        assert len(x) == 2001


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
        oracle = local_design(EXP2, beta)
        assert design.n == 2
        for p, q in zip(sorted(design.points), sorted(oracle.points)):
            assert abs(p - q) < 1e-6
        np.testing.assert_allclose(
            det_info(design, EXP2, beta),
            1.0 / (4.0 * (math.e * beta) ** 2),
            rtol=1e-8,
        )

    @pytest.mark.parametrize("beta", [130.0, 300.0, 1000.0])
    def test_two_parameter_fast_decay_matches_oracle_determinant(self, beta):
        # no point positions: above beta ~ 37 the score's far tail equals
        # f(0) to double precision, so a tail point can stand in for 0
        design, cert = solve_local(EXP2, beta)
        assert cert.passed
        assert design.n == 2
        np.testing.assert_allclose(
            det_info(design, EXP2, beta),
            1.0 / (4.0 * (math.e * beta) ** 2),
            rtol=1e-8,
        )

    @pytest.mark.parametrize("beta", [130.0, 300.0, 1000.0])
    def test_two_parameter_fast_decay_sits_on_the_analytic_support(self, beta):
        # the grid solve puts weight on 0 itself, not on a far-tail point
        # whose score equals f(0) in double precision
        design, _ = solve_local(EXP2, beta)
        oracle = local_design(EXP2, beta)
        assert design.n == oracle.n
        np.testing.assert_allclose(design.points_array(),
                                   oracle.points_array(), rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 5.0, 10.0, 25.0])
    def test_logistic_matches_oracle(self, beta):
        design, cert = solve_local(LOGISTIC, beta)
        assert cert.passed
        assert abs(design.points[0] - beta) < 1e-6
        np.testing.assert_allclose(
            det_info(design, LOGISTIC, beta), 0.25, rtol=1e-8
        )

    def test_logistic_at_zero_certifies(self):
        # a zero node has no log-spaced mixture seed: the grid path solves it
        design, cert = solve_local(LOGISTIC, 0.0)
        assert cert.passed and design.points == (0.0,)

    @pytest.mark.parametrize(
        "beta", [1.0, 3.0, 10.0, 30.0, 100.0, 160.0, 370.0, 850.0])
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
            seed = local_design(model, beta)
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
        design = local_design(EXP1, beta)
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

    def test_certify_fails_closed_far_below_the_design_beta(self):
        # far below its own beta the design's M is nearly singular, but the
        # derivative from the QR factor of the weighted scores still holds:
        # an 80-digit evaluation of this design peaks at 3.92625 (x = 0.54)
        # at beta = 1e-4 and at 3.92635 at 1e-6, where the rounded scores
        # themselves leave about 3 digits
        design = local_design(EXP3, 2.0)
        for beta, tol in ((1e-4, 1e-3), (1e-6, 2e-2)):
            cert = certify(EXP3, design, Criterion.local(beta))
            assert not cert.passed
            assert abs(cert.max_directional_derivative - 3.926) <= tol
        # a design on fewer than m points is singular by structure
        with pytest.raises(SingularInformationError):
            certify(EXP3, DesignMeasure((0.0, 1.0), (0.5, 0.5)),
                    Criterion.local(1e-4))


def _kernel_case(model, seed):
    """A random design, one point in each of m + 3 equal cells of the
    interval, with positive weights; 20 parameter nodes (three node blocks)
    with random weights; and 400 random audit points.  Spread points and
    betas of 2 to 5 keep cond(M) below 2e4 even for EXP3, so the
    inverse-based oracle holds to 1e-12."""
    rng = np.random.default_rng(seed)
    lo, hi = model.design_interval
    k = model.m + 3
    design = DesignMeasure.from_arrays(
        lo + (hi - lo) * (np.arange(k) + rng.uniform(0.0, 1.0, k)) / k,
        rng.uniform(0.2, 1.0, k))
    betas = rng.uniform(*((1.0, 25.0) if model is LOGISTIC else (2.0, 5.0)), 20)
    q = rng.uniform(0.0, 1.0, 20)
    return design, betas, q / q.sum(), np.sort(rng.uniform(lo, hi, 400))


class TestDerivativeKernel:
    """The certificate's f^T M^-1 f = ||f R^-1||^2, built plane by plane,
    against the inverse of M."""

    @pytest.mark.parametrize("model", [EXP1, EXP2, EXP3, LOGISTIC],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_inverse_oracle(self, model, seed):
        design, betas, q, x = _kernel_case(model, seed)
        Fd = stacked_scores(model, design.points_array(), betas)
        Ms = info_stack(Fd, design.weights_array())
        assert np.linalg.cond(Ms).max() < 2e4
        want = dirderiv_stack(stacked_scores(model, x, betas), Ms)
        d = np.concatenate([dj for _, dj in
                            _node_derivatives(model, design, betas, x)])
        np.testing.assert_allclose(d, want, rtol=1e-12)
        np.testing.assert_allclose(
            Criterion(betas, q, np.zeros(len(betas))).derivative(model, design, x),
            q @ want, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_parameter_model_is_bit_identical_to_the_matrix_product(self, seed):
        design, betas, q, x = _kernel_case(EXP1, seed)
        Rinv = _inverse_factor(stacked_scores(EXP1, design.points_array(), betas),
                               design.weights_array())
        old = (np.matmul(stacked_scores(EXP1, x, betas), Rinv) ** 2).sum(axis=2)
        d = np.concatenate([dj for _, dj in
                            _node_derivatives(EXP1, design, betas, x)])
        np.testing.assert_array_equal(d, old)
        total = np.zeros(len(x))
        for j in range(0, len(betas), _NODE_BLOCK):
            total += q[j:j + _NODE_BLOCK] @ old[j:j + _NODE_BLOCK]
        np.testing.assert_array_equal(
            Criterion(betas, q, np.zeros(len(betas))).derivative(EXP1, design, x),
            total)

    @pytest.mark.parametrize("model", [EXP1, EXP2, EXP3, LOGISTIC],
                             ids=lambda m: m.name)
    def test_inverse_factor_is_exactly_upper_triangular(self, model):
        # the planes sum over b <= a only: an entry below the diagonal
        # would be dropped, not approximated
        design, betas, _, _ = _kernel_case(model, 0)
        R = _inverse_factor(stacked_scores(model, design.points_array(), betas),
                            design.weights_array())
        assert np.array_equal(R, np.triu(R))


def _poisoned_model(value):
    """An EXP2-like m = 2 model whose score at x = 0.5 under beta = 2 alone
    is exp(value) in place of e^(-beta x): NaN for value NaN, an overflow
    to inf for value 800."""
    def score(x, beta):
        x, beta = np.asarray(x), np.asarray(beta)
        with np.errstate(over="ignore"):
            e = np.exp(np.where((x == 0.5) & (beta == 2.0), value, -beta * x))
        return np.stack(np.broadcast_arrays(1.0, -x * e), axis=-1)

    return Model(name="poisoned", m=2, m_eta=0, design_interval=(0.0, 1.0),
                 beta_range=(0.1, 10.0), score=score)


class TestNonFiniteDerivativeFailsClosed:
    """The mean path checks the node-weighted total once; a node weight of
    0 must not hide the bad node's NaN or inf (0 * NaN and 0 * inf are NaN)."""

    DESIGN = DesignMeasure((0.0, 0.3, 1.0), (0.4, 0.3, 0.3))
    BETAS = np.array([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("value", [np.nan, 800.0], ids=["nan", "inf"])
    def test_poisoned_point_is_on_the_audit_grid(self, value):
        model = _poisoned_model(value)
        assert 0.5 in audit_grid(model.design_interval, self.DESIGN)
        F = stacked_scores(model, np.array([0.5]), self.BETAS)
        assert not np.isfinite(F[1]).all() and np.isfinite(F[[0, 2]]).all()

    @pytest.mark.parametrize("value", [np.nan, 800.0], ids=["nan", "inf"])
    def test_mean_path_raises_at_a_zero_node_weight(self, value):
        model = _poisoned_model(value)
        crit = Criterion(self.BETAS, np.array([0.5, 0.0, 0.5]), np.zeros(3))
        with pytest.raises(SingularInformationError, match="non-finite"):
            crit.derivative(model, self.DESIGN, np.array([0.2, 0.5, 0.7]))
        with pytest.raises(SingularInformationError, match="non-finite"):
            certify(model, self.DESIGN, crit)

    @pytest.mark.parametrize("value", [np.nan, 800.0], ids=["nan", "inf"])
    def test_wong_path_raises(self, value):
        model = _poisoned_model(value)
        # offsets equal to the log-determinants put every node in the
        # active set, the poisoned one included
        g = Criterion(self.BETAS, None, np.zeros(3)).log_efficiencies(
            model, self.DESIGN)
        with pytest.raises(SingularInformationError, match="non-finite"):
            certify(model, self.DESIGN, Criterion(self.BETAS, None, g))


def _engine_problem(model):
    """Score stack on five evenly spaced candidates at six beta nodes, with
    quadrature-like node weights.  Few candidates: the 0.9 boundary cut
    shrinks a weight at most tenfold per Newton step, so hundreds of zero
    weights would outlast the step cap."""
    x = np.linspace(*model.design_interval, 5)
    betas = np.geomspace(1.0, 5.0, 6)
    q = np.random.default_rng(1).uniform(0.5, 1.5, 6)
    return stacked_scores(model, x, betas), q / q.sum()


class TestNewtonWeights:
    def test_singular_support_returns_start_weights(self):
        # at beta = 1e4 both score rows round to (1, 0): M is exactly singular
        Fs = stacked_scores(EXP2, np.array([0.0, 1.0]), [1e4])
        w = maximize_weighted_logdet(Fs, np.ones(1), np.array([0.5, 0.5]), 2)[0]
        np.testing.assert_array_equal(w, [0.5, 0.5])

    # ill-conditioned local weights (condition number 1e7 at beta = 0.1034),
    # where rounded slogdet comparisons rejected the step to the optimum;
    # 1e-3 and 1e-4 certify since the weight solver takes f^T M^-1 f from
    # the QR factor, not from an inverse of M
    @pytest.mark.parametrize("beta", [1e-4, 1e-3, 0.01, 0.0118, 0.0140, 0.1034])
    def test_exp3_small_beta_certifies_from_the_seed(self, beta):
        _, cert = solve_local(EXP3, beta)
        assert cert.passed


class TestMomentMatrixEngine:
    @pytest.mark.parametrize("model", [EXP1, EXP2, EXP3], ids=lambda m: m.name)
    def test_engine_reports_its_own_iterate(self, model):
        Fs, q = _engine_problem(model)
        n = Fs.shape[1]
        w, maxd, history = maximize_weighted_logdet(
            Fs, q, np.full(n, 1.0 / n), model.m)
        # maxd covers every candidate, the pruned ones included
        want = (q @ dirderiv_stack(Fs, info_stack(Fs, w))).max()
        np.testing.assert_allclose(maxd, want, rtol=1e-12)
        assert history[-1] <= 1e-12 * model.m
        assert maxd <= model.m * (1.0 + 1e-9)

    def test_boundary_optimum_prunes_to_exact_zeros(self):
        # EXP2's local design at beta = 5 is optimal among any candidates
        local = local_design(EXP2, 5.0)
        x = np.r_[local.points_array(), 0.05, 0.5, 0.9]
        Fs = stacked_scores(EXP2, x, [5.0])
        w, maxd, _ = maximize_weighted_logdet(Fs, np.ones(1), np.ones(5), EXP2.m)
        np.testing.assert_allclose(w[:2], local.weights_array(), rtol=1e-9)
        assert np.all(w[2:] == 0.0)
        assert maxd <= EXP2.m * (1.0 + 1e-9)


class TestSeedMixture:
    @pytest.mark.parametrize("model", [EXP1, EXP2, EXP3], ids=lambda m: m.name)
    def test_seed_mass_sits_on_the_lower_bound_design(self, model):
        # span log 40 >= 4 log 2: the seed is the lower-bound band mixture
        x, w = band_seed(model, 1.0, 40.0)
        xi = construct_lower_bound_design(model, logarithm(), 1.0, 40.0,
                                          math.log(2.0))
        np.testing.assert_array_equal(x, xi.points_array())
        np.testing.assert_array_equal(w, xi.weights_array())

    @pytest.mark.parametrize("model", [EXP1, EXP2, EXP3], ids=lambda m: m.name)
    def test_point_range_gives_the_local_design(self, model):
        xi = band_mixture(model, logarithm(), 3.0, 3.0, math.log(2.0))
        local = local_design(model, 3.0)
        assert xi.points == local.points
        np.testing.assert_allclose(xi.weights, local.weights, rtol=1e-15)


class TestCriterionDeterminant:
    def test_exp3_small_beta_matches_cauchy_binet(self):
        # far below its own beta the EXP3 local design is nearly singular:
        # a matrix rounded to double loses ~5e-6 of log det here
        design = local_design(EXP3, 2.0)
        betas = np.geomspace(0.01, 0.5, 12)
        crit = Criterion(betas, np.full(12, 1.0 / 12.0), np.zeros(12))
        want = np.log(
            [det_via_cauchy_binet(design, EXP3, float(b)) for b in betas])
        np.testing.assert_allclose(
            crit.log_efficiencies(EXP3, design), want, rtol=0.0, atol=1e-7)


def _one_or_two_point_model(m, name):
    """A custom model on [0, 1] whose local design has two points from
    beta = 5 on and one below: stacked offsets pad the short designs."""

    def score(x, beta):
        e = np.exp(-beta * x)
        return np.stack([np.ones_like(e), -x * e][2 - m:], axis=-1)

    def local(betas):
        two = betas >= 5.0
        P = np.stack([np.where(two, 0.0, 0.5), np.where(two, 1.0 / betas, 0.5)],
                     axis=1)
        W = np.stack([np.where(two, 0.4, 1.0), np.where(two, 0.6, 0.0)], axis=1)
        return P, W

    return Model(name=name, m=m, m_eta=0, design_interval=(0.0, 1.0),
                 beta_range=(1e-12, math.inf), score=score,
                 analytic_local=local)


def _per_beta_offsets(model, betas):
    return [float(Criterion.local(b).log_efficiencies(
        model, local_design(model, float(b)))[0]) for b in betas]


class TestLocalOffsets:
    @pytest.mark.parametrize("model", [EXP1, EXP2, EXP3, LOGISTIC],
                             ids=["exp1", "exp2", "exp3", "logistic"])
    def test_stacked_offsets_are_the_per_beta_ones(self, model):
        betas = np.geomspace(1.0, 300.0, 60)
        assert local_offsets(model, betas).tolist() == _per_beta_offsets(model, betas)

    def test_shorter_designs_are_padded_exactly(self):
        model = _one_or_two_point_model(1, "one-or-two")
        betas = np.geomspace(1.0, 40.0, 25)
        got = local_offsets(model, betas)
        assert got.tolist() == _per_beta_offsets(model, betas)
        assert np.all(np.isfinite(got))

    def test_fewer_than_m_points_give_neg_inf(self):
        model = _one_or_two_point_model(2, "one-or-two-m2")
        betas = np.geomspace(1.0, 40.0, 25)
        got = local_offsets(model, betas)
        assert got.tolist() == _per_beta_offsets(model, betas)
        assert np.all((got == NEG_INF) == (betas < 5.0))
        assert np.all(np.isfinite(got[betas >= 5.0]))

    def test_nan_score_raises(self):
        def score(x, beta):
            return np.where(beta > 3.0, np.nan, x * np.exp(-beta * x))[..., None]

        model = Model(name="nan-above-3", m=1, m_eta=0, design_interval=(0.0, 1.0),
                      beta_range=(1e-12, math.inf), score=score,
                      analytic_local=EXP1.analytic_local)
        assert np.all(np.isfinite(local_offsets(model, [1.0, 2.0, 3.0])))
        with pytest.raises(ArithmeticError, match="beta=4"):
            local_offsets(model, [1.0, 2.0, 4.0, 5.0])


class TestLocalDesignCache:
    def test_cached_design_matches_solver(self):
        d1 = local_design(EXP1, 4.0)
        d2, _ = solve_local(EXP1, 4.0)
        assert abs(d1.points[0] - d2.points[0]) < 1e-9

    def test_cache_returns_identical_object(self):
        assert local_design(EXP2, 9.0) is local_design(EXP2, 9.0)


def _dense_game_value(dmat):
    """Oracle: the value min_mu max(mu^T dmat) of the whole game, one dense LP."""
    A, n = dmat.shape
    c = np.zeros(A + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.hstack([dmat.T, -np.ones((n, 1))]),
                  b_ub=np.zeros(n), A_eq=[[1.0] * A + [0.0]], b_eq=[1.0],
                  bounds=[(0.0, None)] * A + [(None, None)], method="highs")
    assert res.success
    return res.fun


def _exp1_grid_game(B):
    """The matrix game that solve_maximin's scalar grid LP solves for EXP1
    on [1, B]: rows are design points, columns parameter values."""
    betas = BetaGrid(1.0, float(B)).values
    offsets = Criterion.maximin(EXP1, betas).offsets
    x = build_grid(EXP1.design_interval)
    Fs = stacked_scores(EXP1, x, betas)
    return -(Fs[:, :, 0] ** 2 * np.exp(-offsets)[:, None]).T


def _off_stride_game():
    """60 x 60 game with value 0.75 whose optimal strategies are rows
    {7, 33} and columns {13, 41}: none in the starting stride (every 20th
    index and the last)."""
    R, C = [7, 33], [13, 41]
    d = np.ones((60, 60))
    d[np.ix_(R, range(60))] = 0.0
    d[:, C] = 2.0
    d[np.ix_(R, C)] = [[1.0, 0.5], [0.5, 1.0]]
    return d


def _random_games():
    rng = np.random.default_rng(11)
    games = [rng.normal(size=shape) for shape in
             [(1, 40), (40, 1), (3, 500), (500, 3), (45, 45), (120, 70)]]
    dup = rng.normal(size=(30, 80))
    games.append(np.concatenate([dup, dup[::3], dup[5:6]]))
    games.append(rng.integers(-2, 3, size=(50, 90)).astype(float))
    return games


class TestLeastFavorableLP:
    """Row and column generation against a dense LP of the whole game: game
    values must agree, vertices need not (degenerate games have many)."""

    @pytest.mark.parametrize(
        "dmat",
        _random_games() + [_off_stride_game()],
        ids=lambda d: "x".join(map(str, d.shape)))
    def test_value_matches_dense_oracle(self, dmat):
        self._check(dmat)

    @pytest.mark.parametrize("B", [12, 150])
    def test_exp1_grid_game_matches_dense_oracle(self, B):
        self._check(_exp1_grid_game(B))

    def test_identity_needs_every_row(self):
        # the unique optimum is uniform, and the stride holds 3 of 37 rows
        mu = _least_favorable_lp(np.eye(37))
        np.testing.assert_allclose(mu, np.full(37, 1.0 / 37.0), rtol=1e-9)
        self._check(np.eye(37))

    def test_off_stride_game_finds_its_strategies(self):
        mu = _least_favorable_lp(_off_stride_game())
        assert np.flatnonzero(mu).tolist() == [7, 33]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payoff_raises(self, bad):
        # (2, 137) is off the starting stride, so only the input check sees it
        d = np.random.default_rng(3).uniform(0.0, 1.0, (5, 200))
        d[2, 137] = bad
        with pytest.raises(ArithmeticError):
            _least_favorable_lp(d)

    def test_all_zero_payoff_raises(self):
        with pytest.raises(ArithmeticError, match="all-zero"):
            _least_favorable_lp(np.zeros((4, 30)))

    def test_mixed_strategy_ignores_the_payoff_scale(self):
        # a power of two scales every entry exactly
        d = _random_games()[5]
        np.testing.assert_array_equal(_least_favorable_lp(d),
                                      _least_favorable_lp(d * 2.0 ** 40))

    def test_badly_conditioned_audit_game_solves(self):
        # unscaled, the Wong audit's game of this EXP2 design (payoffs in
        # [1, 6.27]) ended in HiGHS status 15 under 1 and 2 BLAS threads
        points = [float.fromhex(h) for h in (
            "0x1.751f76606c464p-57", "0x1.1be6f8582aacap-7",
            "0x1.1691adca13cf8p-5", "0x1.6bc174c8e581fp-4",
            "0x1.98a67cbb6131ep-3", "0x1.bbbca1e86ca2ap-2",
            "0x1.0000000000000p+0")]
        weights = [float.fromhex(h) for h in (
            "0x1.4bd1cd76497cep-3", "0x1.5e833b31d5adfp-3",
            "0x1.1034bb208f2a6p-3", "0x1.04518c0ae8b57p-3",
            "0x1.16aec2afe588dp-3", "0x1.25d6064ead8e6p-3",
            "0x1.049fe72dd5de4p-3")]
        design = DesignMeasure.from_arrays(np.array(points), np.array(weights))
        cert = certify(EXP2, design,
                       Criterion.maximin(EXP2, BetaGrid(1.0, 150.0).values))
        assert cert.least_favorable_weights

    def test_one_row_game_needs_no_lp(self, monkeypatch):
        def no_model():
            raise AssertionError("a one-row game built a HiGHS model")

        monkeypatch.setattr(optdesign.local, "_Highs", no_model)
        mu = _least_favorable_lp(np.array([[0.5, -2.0, 3.0]]))
        assert mu.tolist() == [1.0]
        # the payoff checks still come first
        with pytest.raises(ArithmeticError, match="non-finite"):
            _least_favorable_lp(np.array([[0.5, np.nan]]))
        with pytest.raises(ArithmeticError, match="all-zero"):
            _least_favorable_lp(np.zeros((1, 30)))

    def test_support_start_matches_the_stride_start(self, maximin_results,
                                                    monkeypatch):
        # certify starts the Wong game on the design's support columns as
        # well: the same value, and the weights on the same betas
        seen = []

        def recording(dmat, cols=()):
            seen.append((dmat, np.asarray(cols)))
            return _least_favorable_lp(dmat, cols)

        monkeypatch.setattr(optdesign.local, "_least_favorable_lp", recording)
        for B, (design, _, _) in maximin_results.items():
            seen.clear()
            crit = Criterion.maximin(EXP1, BetaGrid(1.0, float(B)).values)
            cert = certify(EXP1, design, crit)
            (dmat, cols), = seen
            ax = audit_grid(EXP1.design_interval, design)
            assert ax[cols].tolist() == design.points_array().tolist()
            mu, mu_stride = _least_favorable_lp(dmat, cols), _least_favorable_lp(dmat)
            assert abs((mu @ dmat).max() - (mu_stride @ dmat).max()) <= (
                1e-9 * np.abs(dmat).max())
            assert (np.flatnonzero(mu > 1e-12).tolist()
                    == np.flatnonzero(mu_stride > 1e-12).tolist())
            assert len(cert.least_favorable_weights) == np.count_nonzero(mu > 1e-12)

    @staticmethod
    def _check(dmat):
        # from the stride alone, and with extra start columns: off the
        # stride, the same ones twice, and every column
        n, value = dmat.shape[1], _dense_game_value(dmat)
        off = np.arange(1, n, 7)
        off = off[off % _GAME_STRIDE != 0]
        for cols in ((), off, np.r_[off, off[::-1]], np.arange(n)):
            mu = _least_favorable_lp(dmat, cols)
            assert mu.shape == (dmat.shape[0],)
            assert np.all(mu >= 0.0)
            np.testing.assert_allclose(mu.sum(), 1.0, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose((mu @ dmat).max(), value, rtol=0.0,
                                       atol=1e-7 * np.abs(dmat).max())


def _failed_run(highs, solver):
    return HighsModelStatus.kSolveError, None, None


def _recording(calls, fail=()):
    """A _run_game that records (model, solver) and fails the calls whose
    index is in fail."""
    def run(highs, solver):
        calls.append((highs, solver))
        if len(calls) - 1 in fail:
            return _failed_run(highs, solver)
        return _run_game(highs, solver)
    return run


class TestMatrixGameFailsClosed:
    """Every restricted game is solved through local._run_game: a warm
    simplex run on the game's one model, then simplex on a fresh model of
    the same restricted game, then interior point on that fresh model; if
    all three fail, MatrixGameError, which the certificate turns into a
    failed audit."""

    def test_ladder_is_warm_simplex_then_fresh_simplex_then_fresh_ipm(
            self, monkeypatch):
        dmat = _off_stride_game()
        for first in (0, 1):  # the failures in round 1, then in round 2
            calls = []
            monkeypatch.setattr(optdesign.local, "_run_game",
                                _recording(calls, fail=(first, first + 1)))
            mu = _least_favorable_lp(dmat)
            (warm, s0), (fresh, s1), (again, s2) = calls[first:first + 3]
            assert [s0, s1, s2] == ["simplex", "simplex", "ipm"]
            assert fresh is not warm and again is fresh
            # the rounds before grew the first model; the rounds after grow
            # the fresh one, with warm simplex runs
            assert all(h is warm and s == "simplex" for h, s in calls[:first])
            assert all(h is fresh and s == "simplex" for h, s in calls[first + 3:])
            assert len(calls) - 2 >= 2  # two rounds or more, two failed runs
            assert np.flatnonzero(mu).tolist() == [7, 33]
            np.testing.assert_allclose((mu @ dmat).max(), 0.75, rtol=0.0,
                                       atol=1e-9)

    def test_unconfirmed_answer_is_retried_on_a_fresh_model(self, monkeypatch):
        # HiGHS reports an optimum with a row mix that is no equilibrium:
        # the numpy check of its gap rejects it
        calls = []

        def wrong_answer(highs, solver):
            calls.append((highs, solver))
            status, x, y = _run_game(highs, solver)
            if len(calls) == 1:
                x[1:] = np.eye(len(x) - 1)[0]
            return status, x, y

        monkeypatch.setattr(optdesign.local, "_run_game", wrong_answer)
        dmat = _random_games()[4]
        mu = _least_favorable_lp(dmat)
        assert calls[1][0] is not calls[0][0] and calls[1][1] == "simplex"
        np.testing.assert_allclose((mu @ dmat).max(), _dense_game_value(dmat),
                                   rtol=0.0, atol=1e-7 * np.abs(dmat).max())

    def test_unsolved_game_raises_matrix_game_error(self, monkeypatch):
        calls = []
        monkeypatch.setattr(optdesign.local, "_run_game",
                            _recording(calls, fail=range(3)))
        assert issubclass(MatrixGameError, ArithmeticError)
        assert not issubclass(MatrixGameError, RuntimeError)
        with pytest.raises(MatrixGameError, match="Solve error"):
            _least_favorable_lp(_off_stride_game())
        assert [s for _, s in calls] == ["simplex", "simplex", "ipm"]

    @pytest.mark.parametrize("dmat", [_off_stride_game(), _random_games()[5]],
                             ids=["off-stride", "120x70"])
    def test_one_game_builds_one_model(self, monkeypatch, dmat):
        built, calls, real = [], [], optdesign.local._Highs

        def counted():
            built.append(real())
            return built[-1]

        monkeypatch.setattr(optdesign.local, "_Highs", counted)
        monkeypatch.setattr(optdesign.local, "_run_game", _recording(calls))
        _least_favorable_lp(dmat)
        assert len(calls) > 1  # more than one round, no failed rung
        assert len(built) == 1 and all(h is built[0] for h, _ in calls)

    def test_options_fail_closed(self, monkeypatch):
        options = optdesign.local._HIGHS_OPTIONS
        for bad in ({"primal_feasibility_tolernce": 1e-10},
                    {"dual_feasibility_tolerance": -1.0},
                    {"presolve": False}):  # a string option in HiGHS
            monkeypatch.setattr(optdesign.local, "_HIGHS_OPTIONS",
                                {**options, **bad})
            with pytest.raises(ValueError, match=next(iter(bad))):
                _least_favorable_lp(_off_stride_game())

    def test_logistic_game_after_a_failed_warm_run_certifies(self):
        # a warm run of one of its Wong games ended in a HiGHS solve error
        # that a fresh model of the same game does not hit; with an ipm
        # retry on the same model alone, the solve failed closed (inf)
        model = make_logistic(30.0)
        _, cert = solve_maximin(model, BetaGrid(1.0, 25.0))
        assert cert.passed

    def test_certificate_fails_closed(self, maximin_results, monkeypatch,
                                      tmp_path):
        design = maximin_results[50][0]
        crit = Criterion.maximin(EXP1, BetaGrid(1.0, 50.0).values)
        assert certify(EXP1, design, crit).passed
        monkeypatch.setattr(optdesign.local, "_run_game", _failed_run)
        failed = certify(EXP1, design, crit)
        assert not failed.passed
        assert failed.max_directional_derivative == math.inf
        assert failed.least_favorable_weights is None
        assert failed.peaks == ()
        # the stored artifact's audit fails the same way
        recert = optdesign.io.recertify(
            EXP1, design, {"kind": "maximin", "beta_min": 1.0, "beta_max": 50.0,
                           "count": 400})
        assert not recert.passed and recert.max_directional_derivative == math.inf
        # the plot data has no weights to average the derivative over
        with pytest.raises(MatrixGameError):
            optdesign.io.write_plot_data(str(tmp_path / "plot"), EXP1, design,
                                         BetaGrid(1.0, 50.0))

    def test_solve_maximin_returns_a_failed_certificate(self, monkeypatch):
        # m > 1 seeds from the band mixture, so only the audit plays a game;
        # every refine round fails and the solve returns its best one
        monkeypatch.setattr(optdesign.local, "_run_game", _failed_run)
        design, cert = solve_maximin(EXP2, BetaGrid(1.0, 4.0, 20))
        assert not cert.passed and design.n >= 2
        # the m = 1 seed is the grid game itself: unsolved, it falls back to
        # the band seed, and the failed audit decides
        design, cert = solve_maximin(EXP1, BetaGrid(1.0, 50.0))
        assert not cert.passed and cert.max_directional_derivative == math.inf
        assert cert.least_favorable_weights is None and design.n >= 1

    def test_unsolved_seed_game_falls_back_to_the_band_seed(
            self, maximin_results, monkeypatch):
        def unsolved(model, x, betas, offsets):
            raise MatrixGameError("seed game unsolved")

        monkeypatch.setattr(optdesign.maximin, "_grid_maximin_lp", unsolved)
        design, cert = solve_maximin(EXP1, BetaGrid(1.0, 50.0))
        want = maximin_results[50][0]
        assert cert.passed and design.n == want.n == 4
        np.testing.assert_allclose(design.points_array(), want.points_array(),
                                   rtol=0.0, atol=1e-6)



def _exp1_seed(B):
    """The m = 1 seed of solve_maximin for EXP1 on [1, B], from its block
    oracle."""
    betas = BetaGrid(1.0, float(B)).values
    offsets = Criterion.maximin(EXP1, betas).offsets
    return optdesign.maximin._grid_maximin_lp(
        EXP1, build_grid(EXP1.design_interval), betas, offsets)


class TestLazySeedGame:
    """The m = 1 seed game reads its payoff by blocks: the same mixed
    strategy as the dense game, from a fraction of its entries."""

    @pytest.mark.parametrize("B", [12, 150])
    def test_seed_matches_the_dense_game(self, B):
        np.testing.assert_allclose(_exp1_seed(B),
                                   _least_favorable_lp(_exp1_grid_game(B)),
                                   rtol=0.0, atol=1e-12)

    def test_seed_scores_at_most_half_the_game(self, monkeypatch):
        sizes, real = [], optdesign.maximin.stacked_scores

        def counting(model, x, betas, dx=False):
            F = real(model, x, betas, dx)
            sizes.append(F.size)
            return F

        monkeypatch.setattr(optdesign.maximin, "stacked_scores", counting)
        mu = _exp1_seed(150)
        assert len(sizes) >= 2
        assert sum(sizes) <= 0.5 * len(mu) * 400

    def test_non_finite_score_raises_before_any_lp(self, monkeypatch):
        x = build_grid(EXP1.design_interval)
        bad = x[10 * _GAME_STRIDE]  # a row of the starting stride

        def score(x, beta):
            f = EXP1.score(x, beta)
            return np.where((np.asarray(x) == bad)[..., None], np.nan, f)

        def no_model():
            raise AssertionError("a non-finite seed game built a HiGHS model")

        model = Model(name="nan-on-a-stride-row", m=1, m_eta=0,
                      design_interval=EXP1.design_interval,
                      beta_range=EXP1.beta_range, score=score,
                      analytic_local=EXP1.analytic_local)
        monkeypatch.setattr(optdesign.local, "_Highs", no_model)
        with pytest.raises(ArithmeticError, match="non-finite payoff"):
            solve_maximin(model, BetaGrid(1.0, 50.0))


class TestSupportOffTheInterval:
    """check_points accepts a design point up to 1e-12 outside the
    interval; the audit reads the support check at that point itself."""

    CASES = [(EXP3, 2.0, -1, 5e-13), (EXP2, 3.0, 0, -5e-13)]

    @staticmethod
    def _shifted(model, beta, i, eps):
        design = local_design(model, beta)
        points = list(design.points)
        points[i] += eps
        return design, DesignMeasure(tuple(points), design.weights)

    @pytest.mark.parametrize("case", CASES, ids=["exp3-above-1", "exp2-below-0"])
    def test_audit_grid_holds_the_support(self, case):
        _, shifted = self._shifted(*case)
        x = shifted.points_array()
        ax = audit_grid(case[0].design_interval, shifted)
        assert ax[np.searchsorted(ax, x)].tolist() == x.tolist()
        assert np.all(np.diff(ax) > 0.0)

    @pytest.mark.parametrize("case", CASES, ids=["exp3-above-1", "exp2-below-0"])
    def test_certify_passes_the_shifted_design(self, case):
        model, beta = case[:2]
        design, shifted = self._shifted(*case)
        crit = Criterion.local(beta)
        cert, want = certify(model, shifted, crit), certify(model, design, crit)
        assert cert.passed and want.passed
        assert abs(cert.max_directional_derivative
                   - want.max_directional_derivative) <= 1e-9

def _h_extended(x, beta):
    """h(0, x, 1, beta) in extended precision: the double h_function
    cancels to about 1e-12 relative near beta = 0.01."""
    x, beta = np.longdouble(x), np.longdouble(beta)
    e2, e3 = np.exp(-beta * x), np.exp(-beta)
    return x * e2 * (1 - e3) + e3 * (e2 - 1)


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
    def test_closed_form_is_the_scalar_search_maximizer(self):
        # the search stops up to 7.9e-7 from the exact maximizer (near
        # beta = 0.012): the closed form must do at least as well
        betas = np.geomspace(0.01, 5000.0, 200)
        P, W = EXP3.analytic_local(betas)
        assert np.all(P[:, [0, 2]] == [0.0, 1.0]) and np.all(W == 1.0 / 3.0)
        for beta, x in zip(betas.tolist(), P[:, 1].tolist()):
            ref = _exp3_reference_design(beta).points[1]
            assert (_h_extended(x, beta) ** 2
                    >= _h_extended(ref, beta) ** 2 * (1.0 - 1e-12))
            assert abs(x - ref) <= 1e-6
        x = EXP3.analytic_local(np.array([1e-12, 1e-8, 1e-4, 1.0, 700.0, 1e6]))[0]
        assert np.all(np.isfinite(x)) and np.all((x[:, 1] > 0.0) & (x[:, 1] <= 0.5))


class TestRefine:
    """The one polish-certify-exchange loop, from a one-point start at
    x = 0.5: the polish never adds a point, so every further support
    point was inserted by the exchange."""

    def _one_point(self):
        x = build_grid(EXP1.design_interval)
        return x, np.where(x == 0.5, 1.0, 0.0)

    def _check(self, design, cert, want, points):
        assert cert.passed
        assert design.n == len(points) > 1
        np.testing.assert_allclose(design.points_array(), points, rtol=2e-5)
        np.testing.assert_allclose(design.points_array(), want.points_array(),
                                   rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(design.weights_array(),
                                   want.weights_array(), rtol=0.0, atol=1e-6)

    def test_bayes_support_grows_to_the_solved_design(self, bayes_results):
        prior = ParameterPrior.uniform(1.0, 50.0)
        design, cert = refine(EXP1, prior_criterion(EXP1, prior),
                              *self._one_point())
        self._check(design, cert, bayes_results[50][0], (0.03829, 0.318472))

    def test_maximin_support_grows_to_the_solved_design(self):
        grid = BetaGrid(1.0, 20.0)
        design, cert = refine(EXP1, Criterion.maximin(EXP1, grid.values),
                              *self._one_point())
        want, _ = solve_maximin(EXP1, grid)
        self._check(design, cert, want, (0.066306, 0.298745, 0.919543))

    @pytest.mark.parametrize("solve", [
        lambda: solve_maximin(EXP3, BetaGrid(1.0, 2.0, 20)),
        lambda: solve_bayes(EXP3, ParameterPrior.uniform(1.0, 3000.0)),
    ], ids=["maximin", "bayes"])
    def test_polish_never_moves_a_fixed_point(self, solve):
        # unpinned, SLSQP left 5.44e-17 and 0.9999999999999998 in the
        # maximin design and 0.9999999999987763 in the Bayes one
        pts = solve()[0].points_array()
        fixed = np.array(EXP3.fixed_support)
        near = np.abs(pts[:, None] - fixed).min(axis=1) <= 1e-6
        assert near.sum() == 2 and np.all(np.isin(pts[near], fixed))

    def test_a_fixed_point_may_leave_with_zero_weight(self):
        # the merge drops a fixed point whose weight falls below its floor
        design, cert = solve_bayes(EXP2, ParameterPrior.uniform(1.0, 1000.0))
        assert cert.passed and min(design.points) > 1e-3
