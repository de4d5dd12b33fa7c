"""Acceptance gate: one check per shipped guarantee, one printed line each.

Each test prints exactly one line, "ACCEPTANCE <n> (<what>): PASS|FAIL",
with output capture suspended so the verdicts appear in every run log, and
then asserts the same condition.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from optdesign import (
    EXP1,
    EXP2,
    EXP3,
    LOGISTIC,
    BetaGrid,
    DecayEnvelope,
    DesignMeasure,
    ParameterPrior,
    bayes_criterion,
    canonical_merge,
    check_uniform_decrease,
    det_via_cauchy_binet,
    maximin_criterion,
    q_efficiency,
    quadrature,
    solve_local,
    support_count,
    verify_lower_bounds,
)
from optdesign.design import det_info
from optdesign.models import q_exp1_closed, q_logistic_closed
from optdesign.scales import logarithm

# Published reference designs for the scalar exponential model: worst-case
# (by parameter-range width B) and uniform-prior (by prior width B). Some
# columns are not optima of the criteria as this package defines them; the
# referee designs below replace those columns in the comparisons, and each
# replacement is backed by an assertion in the test that uses it.
MAXIMIN_TABLE = {
    10: ((0.142, 0.771), (0.553, 0.447)),
    40: ((0.037, 0.193, 0.772), (0.414, 0.272, 0.314)),
    50: ((0.028, 0.131, 0.374, 0.972), (0.379, 0.221, 0.170, 0.230)),
    100: ((0.014, 0.064, 0.156, 0.287, 0.838),
          (0.336, 0.193, 0.093, 0.137, 0.241)),
    200: ((0.007, 0.034, 0.101, 0.250, 0.326, 0.856),
          (0.306, 0.182, 0.147, 0.089, 0.066, 0.210)),
}
BAYES_TABLE = {
    10: ((0.182,), (1.000,)),
    40: ((0.048, 0.354), (0.981, 0.019)),
    50: ((0.038, 0.318), (0.973, 0.027)),
    100: ((0.019, 0.215), (0.962, 0.038)),
    200: ((0.010, 0.134), (0.959, 0.041)),
    300: ((0.006, 0.084, 0.236), (0.957, 0.037, 0.006)),
}
# The published B=3000 column has a support point at x = 1.000 with weight
# 0.004; the dense-rule derivative check in test_acceptance_2 shows that the
# optimal design puts no mass there.
BAYES_3000_PUBLISHED_POINT = (1.000, 0.004)

# Referee worst-case designs. The standardized maximin problem for EXP1 is a
# linear program in the weights once x and beta are discretized: maximize t
# subject to sum_i w_i x_i^2 e^{-2 beta x_i} (e beta)^2 >= t for every beta,
# sum_i w_i = 1, w >= 0. HiGHS (scipy.optimize.linprog) on 4,000 equally
# spaced x in (0, 1] and 3,000 log-spaced beta in [1, B], with grid
# neighbours merged, gives these designs; no package code is involved.
MAXIMIN_REFEREE = {
    40: ((0.035, 0.160, 0.352, 0.853), (0.396, 0.216, 0.115, 0.272)),
    50: ((0.027, 0.122, 0.331, 0.896), (0.373, 0.210, 0.167, 0.250)),
    100: ((0.014, 0.064, 0.167, 0.320, 0.860),
          (0.335, 0.193, 0.119, 0.120, 0.233)),
    200: ((0.007, 0.033, 0.094, 0.168, 0.293, 0.855),
          (0.303, 0.178, 0.132, 0.043, 0.131, 0.213)),
}
# Referee uniform-prior design for B=3000: a free 4-point Nelder-Mead polish
# of the prior-averaged log information under a 40,000-node composite
# Gauss-Legendre rule (5,000 log-spaced panels of 8 nodes on [1, 3000]).
BAYES_3000_REFEREE = ((0.00064, 0.0084, 0.0453, 0.1817),
                      (0.9544, 0.0389, 0.0054, 0.0014))


@pytest.fixture
def report(request, capsys):
    """Prints the verdict with output capture suspended, on lines of its own,
    so that it shows in every run, -q included."""
    terminal = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(num: int, what: str, ok: bool, detail: str = "") -> bool:
        lines = [f"ACCEPTANCE {num} ({what}): {'PASS' if ok else 'FAIL'}"]
        if not ok and detail:
            lines.append(f"  detail: {detail}")
        with capsys.disabled():
            if terminal is None:
                print("\n".join(lines), flush=True)
                return ok
            terminal.ensure_newline()  # after a file name
            tw = request.config.get_terminal_writer()
            if tw.width_of_current_line:  # after -q progress dots
                tw.line()
            for line in lines:
                tw.line(line)
        return ok

    return _report


def _merged(design: DesignMeasure) -> DesignMeasure:
    return canonical_merge(design, 1e-3, 1e-3)


def test_acceptance_1_maximin_table(maximin_results, report):
    problems = []
    for B in (10, 40, 50):
        design, cert, seconds = maximin_results[B]
        d = _merged(design)
        # B=10 agrees with the published column; the others use the referee
        pts, wts = MAXIMIN_REFEREE.get(B, MAXIMIN_TABLE[B])
        if not cert.passed:
            problems.append(f"B={B}: certificate failed")
        if seconds >= 60.0:
            problems.append(f"B={B}: took {seconds:.1f} s")
        if d.n != len(pts):
            problems.append(f"B={B}: {d.n} points, expected {len(pts)}")
            continue
        dp = max(abs(a - b) for a, b in zip(sorted(d.points), pts))
        dw = max(abs(a - b) for a, b in zip(
            [w for _, w in sorted(zip(d.points, d.weights))], wts))
        if dp > 0.01:
            problems.append(f"B={B}: point deviation {dp:.4f} > 0.01")
        if dw > 0.02:
            problems.append(f"B={B}: weight deviation {dw:.4f} > 0.02")
    for B, count in ((100, 5), (200, 6)):
        design, cert, _ = maximin_results[B]
        d = _merged(design)
        pts, _ = MAXIMIN_REFEREE[B]
        if not cert.passed:
            problems.append(f"B={B}: certificate failed")
        if d.n != count:
            problems.append(f"B={B}: {d.n} points, expected {count}")
            continue
        dp = max(abs(a - b) for a, b in zip(sorted(d.points), pts))
        if dp > 0.02:
            problems.append(f"B={B}: point deviation {dp:.4f} > 0.02")
    # wherever the solver departs from a published column, the published
    # design is no better on a dense parameter grid
    for B, (design, _, _) in maximin_results.items():
        betas = np.geomspace(1.0, float(B), 200_001)
        ours = _maximin_value(design.points_array(), design.weights_array(),
                              betas)
        published = _maximin_value(*MAXIMIN_TABLE[B], betas)
        if ours < published:
            problems.append(f"B={B}: worst efficiency {ours:.6f} below the "
                            f"published design's {published:.6f}")
    assert report(1, "worst-case designs reproduce the reference table",
                   not problems, "; ".join(problems))


def _bayes_derivative(points, weights, lo, hi, xs, panels=1000, order=8):
    """Averaged directional derivative of the uniform[lo, hi]-prior log
    information for EXP1 at each x, under a composite Gauss-Legendre rule on
    log-spaced panels; evaluated in chunks of x to keep memory small."""
    t, tw = np.polynomial.legendre.leggauss(order)
    edges = np.geomspace(lo, hi, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    nodes = ((b - a) / 2.0 * t + (a + b) / 2.0).ravel()
    qw = ((b - a) / 2.0 * tw).ravel() / (hi - lo)
    info = (points[None, :] ** 2
            * np.exp(-2.0 * nodes[:, None] * points[None, :])) @ weights
    return np.concatenate([
        (qw / info) @ (x[None, :] ** 2 * np.exp(-2.0 * nodes[:, None] * x))
        for x in np.array_split(xs, max(1, xs.size // 256))
    ])


def test_acceptance_2_bayes_table(bayes_results, report):
    problems = []
    columns = {**BAYES_TABLE, 3000: BAYES_3000_REFEREE}
    for B, (pts, wts) in columns.items():
        design, cert = bayes_results[B]
        d = _merged(design)
        wtol = 0.003 if B == 3000 else 0.01
        if not cert.passed:
            problems.append(f"B={B}: certificate failed")
        if d.n != len(pts):
            problems.append(f"B={B}: {d.n} points, expected {len(pts)}")
            continue
        dp = max(abs(a - b) for a, b in zip(sorted(d.points), pts))
        dw = max(abs(a - b) for a, b in zip(
            [w for _, w in sorted(zip(d.points, d.weights))], wts))
        if dp > 0.01:
            problems.append(f"B={B}: point deviation {dp:.4f} > 0.01")
        if dw > wtol:
            problems.append(f"B={B}: weight deviation {dw:.4f} > {wtol}")
    # equivalence theorem under a dense rule: the derivative stays below 1
    # (reaching it on the support), so the design is globally optimal, and
    # mass at the published point x = 1.000 would lower the criterion
    design, _ = bayes_results[3000]
    p0, w0 = design.points_array(), design.weights_array()
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001),
                                   np.geomspace(1e-6, 1.0, 2001), p0]))
    peak = _bayes_derivative(p0, w0, 1.0, 3000.0, xs).max()
    if not 1.0 - 1e-6 <= peak <= 1.0 + 1e-6:
        problems.append(
            f"B=3000: dense-rule derivative peaks at {peak:.8f}, not 1")
    x_pub = BAYES_3000_PUBLISHED_POINT[0]
    d_pub = _bayes_derivative(p0, w0, 1.0, 3000.0, np.array([x_pub]))[0]
    if d_pub >= 1.0:
        problems.append(f"B=3000: derivative {d_pub:.4f} at x={x_pub:.3f}")
    assert report(2, "uniform-prior designs reproduce the reference table",
                   not problems, "; ".join(problems))


def test_acceptance_3_local_oracles(report):
    problems = []
    cases = (
        (EXP1, lambda b: (math.e * b) ** -2),
        (EXP2, lambda b: 1.0 / (4.0 * (math.e * b) ** 2)),
        (LOGISTIC, lambda b: 0.25),
    )
    for model, oracle_det in cases:
        for beta in (1.0, 2.0, 5.0, 10.0, 25.0):
            design, cert = solve_local(model, beta)
            ref = model.analytic_local(beta)
            if not cert.passed:
                problems.append(f"{model.name} beta={beta:g}: cert failed")
            dp = max(abs(a - b) for a, b in zip(sorted(design.points),
                                                sorted(ref.points)))
            if dp > 1e-6:
                problems.append(
                    f"{model.name} beta={beta:g}: support off by {dp:.2e}")
            det = det_info(design, model, beta)
            rel = abs(det - oracle_det(beta)) / oracle_det(beta)
            if rel > 1e-8:
                problems.append(
                    f"{model.name} beta={beta:g}: criterion off by {rel:.2e}")
    assert report(3, "local solutions match the analytic oracles",
                   not problems, "; ".join(problems))


def test_acceptance_4_efficiency_closed_forms(report):
    rng = np.random.default_rng(42)
    worst = 0.0
    # beta >= 1 keeps every local optimum interior, the closed form's domain
    for _ in range(5000):
        b, bt = rng.uniform(1.0, 100.0, 2)
        got = q_efficiency(EXP1, b, bt)
        want = q_exp1_closed(b, bt)
        worst = max(worst, abs(got - want) / want)
    for _ in range(5000):
        b, bt = rng.uniform(0.0, 30.0, 2)
        got = q_efficiency(LOGISTIC, b, bt)
        want = q_logistic_closed(b, bt)
        worst = max(worst, abs(got - want) / want)
    assert report(4, "matrix efficiency matches closed forms on 1e4 pairs",
                   worst <= 1e-10, f"worst relative error {worst:.2e}")


def test_acceptance_5_envelope_and_band(report):
    betas = np.geomspace(1.0, 100.0, 200)
    rep = check_uniform_decrease(
        EXP1,
        logarithm(),
        DecayEnvelope("exponential", math.e ** 2, 2.0),
        betas,
    )
    # exact half-band on the log scale: Q = (y e^{1-y})^2 with y = b/bt is
    # >= 1/2 exactly on [y_lo, y_hi]; log 2 is a sufficient radius, and the
    # sampled estimate lies within one spacing h below the exact one
    def half(y):
        return q_exp1_closed(y, 1.0) - 0.5

    exact = min(-math.log(brentq(half, 1e-3, 1.0)),
                math.log(brentq(half, 1.0, 10.0)))
    h = math.log(betas[1] / betas[0])
    lam = rep.lambda_estimate
    problems = []
    if rep.violations != 0:
        problems.append(f"{rep.violations} envelope violations")
    if lam < math.log(2.0):
        problems.append(f"measured band {lam:.4f} below log 2")
    if not exact - h <= lam <= exact:
        problems.append(
            f"measured band {lam:.4f} outside [{exact - h:.4f}, "
            f"{exact:.4f}], one spacing below the exact radius")
    assert report(5, "decay envelope holds and the half-band covers log 2",
                   not problems, "; ".join(problems))


def test_acceptance_6_mixture_lower_bounds(report):
    problems = []
    rep1 = verify_lower_bounds(EXP1, logarithm(), (1.0, math.exp(4.0)),
                               math.log(2.0))
    if rep1.constants["phi"] < math.log(2.0) / 8.0:
        problems.append(f"phi {rep1.constants['phi']:.5f} below log(2)/8")
    if rep1.constants["psi_st"] < -4.0 + math.log(math.log(2.0)):
        problems.append(f"psi_st {rep1.constants['psi_st']:.5f} below bound")
    for model in (EXP2, EXP3):
        rep = verify_lower_bounds(model, logarithm(), (1.0, math.exp(4.0)),
                                  math.log(2.0))
        if not rep.passed:
            problems.append(
                f"{model.name}: min efficiency "
                f"{rep.constants['min_efficiency']:.5f} below "
                f"{rep.constants['efficiency_bound']:.5f}")
    assert report(6, "band-spaced mixtures meet the criterion floors",
                   not problems, "; ".join(problems))


def _maximin_value(points, weights, betas):
    # scalar model: efficiency is linear in the weights
    points, weights = np.asarray(points), np.asarray(weights)
    a = points[None, :] ** 2 * np.exp(-2.0 * betas[:, None] * points[None, :])
    eff = (a @ weights) * (math.e * betas) ** 2
    return float(eff.min())


def _bayes_value(points, weights, nodes, qw):
    a = points[None, :] ** 2 * np.exp(-2.0 * nodes[:, None] * points[None, :])
    info = a @ weights
    if np.any(info <= 0.0):
        return -math.inf
    return float(qw @ np.log(info))


def _perturbations(rng, points, weights, count=1000):
    """Random feasible neighbors: jittered points, tilted weights, and an
    occasional extra support point."""
    for _ in range(count):
        s = 10.0 ** rng.uniform(-4.0, -0.5)
        pts = np.clip(points + s * rng.standard_normal(points.shape), 0.0, 1.0)
        wts = weights * np.exp(s * rng.standard_normal(weights.shape))
        if rng.random() < 0.5:
            pts = np.append(pts, rng.uniform(0.0, 1.0))
            wts = np.append(wts, rng.uniform(0.0, 0.05))
        yield pts, wts / wts.sum()


def test_acceptance_7_certified_designs_are_unimprovable(
    maximin_results, bayes_results, report
):
    rng = np.random.default_rng(2024)
    problems = []
    for B, (design, cert, _) in maximin_results.items():
        if not cert.passed:
            continue
        betas = BetaGrid(1.0, float(B)).values
        p0, w0 = design.points_array(), design.weights_array()
        base = _maximin_value(p0, w0, betas)
        gain = max(
            _maximin_value(p, w, betas) / base - 1.0
            for p, w in _perturbations(rng, p0, w0)
        )
        if gain > 1e-6:
            problems.append(f"maximin B={B}: improved by {gain:.2e}")
    for B, (design, cert) in bayes_results.items():
        if not cert.passed:
            continue
        nodes, qw = quadrature(ParameterPrior.uniform(1.0, float(B)))
        p0, w0 = design.points_array(), design.weights_array()
        base = _bayes_value(p0, w0, nodes, qw)
        gain = max(
            math.exp(_bayes_value(p, w, nodes, qw) - base) - 1.0
            for p, w in _perturbations(rng, p0, w0)
        )
        if gain > 1e-6:
            problems.append(f"bayes B={B}: improved by {gain:.2e}")
    assert report(7, "no certified design improves under 1000 perturbations",
                   not problems, "; ".join(problems))


def test_acceptance_8_determinant_oracle_agreement(report):
    rng = np.random.default_rng(7)
    models = (EXP1, EXP2, EXP3, LOGISTIC)
    worst = 0.0
    for k in range(10000):
        model = models[k % 4]
        lo, hi = model.design_interval
        n = int(rng.integers(model.m, 9))
        d = DesignMeasure.from_arrays(
            rng.uniform(lo, hi, n), rng.uniform(0.1, 1.0, n)
        )
        beta = float(rng.uniform(0.5, 10.0))
        direct = det_info(d, model, beta)
        cb = det_via_cauchy_binet(d, model, beta)
        denom = max(abs(direct), 1e-8 * abs(cb), 1e-300)
        rel = abs(direct - cb) / denom
        if abs(direct - cb) > 1e-18:  # absolute floor for vanishing values
            worst = max(worst, rel)
    assert report(8, "closed-form and subset-sum determinants agree on 1e4 "
                      "designs", worst <= 1e-10,
                   f"worst relative error {worst:.2e}")


def test_acceptance_9_support_count_ordering(
    maximin_results, bayes_results, report
):
    problems = []
    for B in (10, 40, 50, 100, 200):
        cm = support_count(maximin_results[B][0])
        cb = support_count(bayes_results[B][0])
        if cm < cb:
            problems.append(f"B={B}: maximin {cm} < bayes {cb}")
    assert report(9, "worst-case designs need at least as many points",
                   not problems, "; ".join(problems))
