"""Bayesian D-optimal design: priors, quadrature, criterion and solver.

The criterion is the prior average of log det M(xi, beta); its standardized
form subtracts the local optimum's log-determinant at each node, which
shifts the criterion by a design-independent constant.  Optimization reuses
the grid engine from the local solver with node-averaged directional
derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import DesignMeasure, NEG_INF, default_merge, information_matrix
from .local import (
    Criterion,
    GridSpec,
    _newton_weights,
    build_grid,
    certify,
    info_stack,
    local_offsets,
    logdet_stack,
    maximize_weighted_logdet,
    stacked_scores,
)
from .models import Model

POS_INF = float("inf")


@dataclass(frozen=True)
class ParameterPrior:
    """Prior on the nonlinear parameter.

    kinds: uniform(lo, hi); trunc_exp(a) with density c*a*e^{-a b} on
    [0, 1/a), c = 1/(1 - e^{-1}); discrete_uniform(L) on {1, ..., L};
    point_mass(b).
    """

    kind: str
    params: tuple
    quadrature_nodes: int = 200

    def __post_init__(self):
        if self.kind == "uniform":
            lo, hi = self.params
            if not lo < hi:
                raise ValueError("uniform prior needs lo < hi")
        elif self.kind == "trunc_exp":
            (a,) = self.params
            if not 0.0 < a < 1.0:
                raise ValueError("trunc_exp needs a in (0, 1)")
        elif self.kind == "discrete_uniform":
            (L,) = self.params
            if int(L) < 1 or int(L) != L:
                raise ValueError("discrete_uniform needs integer L >= 1")
        elif self.kind == "point_mass":
            (b,) = self.params
            if not math.isfinite(b):
                raise ValueError("point mass must be finite")
        else:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.quadrature_nodes < 1:
            raise ValueError("quadrature_nodes must be positive")

    @staticmethod
    def uniform(lo: float, hi: float, quadrature_nodes: int = 200):
        return ParameterPrior("uniform", (float(lo), float(hi)), quadrature_nodes)

    @staticmethod
    def trunc_exp(a: float, quadrature_nodes: int = 400):
        return ParameterPrior("trunc_exp", (float(a),), quadrature_nodes)

    @staticmethod
    def discrete_uniform(L: int):
        return ParameterPrior("discrete_uniform", (int(L),), 1)

    @staticmethod
    def point_mass(beta: float):
        return ParameterPrior("point_mass", (float(beta),), 1)

    @property
    def support_interval(self) -> tuple:
        if self.kind == "uniform":
            return self.params
        if self.kind == "trunc_exp":
            return (0.0, 1.0 / self.params[0])
        if self.kind == "discrete_uniform":
            return (1.0, float(self.params[0]))
        return (self.params[0], self.params[0])


def quadrature(prior: ParameterPrior):
    """Nodes and weights integrating the prior; weights sum to 1.

    Continuous priors use Gauss-Legendre rules (composite for the truncated
    exponential); discrete priors return their atoms exactly.
    """
    if prior.kind == "point_mass":
        return np.array(prior.params), np.array([1.0])
    if prior.kind == "discrete_uniform":
        L = prior.params[0]
        return np.arange(1, L + 1, dtype=float), np.full(L, 1.0 / L)
    if prior.kind == "uniform":
        lo, hi = prior.params
        if lo > 0.0 and hi / lo > 50.0:
            # wide range: composite panels, log-spaced edges, so that the
            # small-beta region keeps enough nodes
            npanels = max(prior.quadrature_nodes // 10, 1)
            per = max(prior.quadrature_nodes // npanels, 2)
            edges = np.geomspace(lo, hi, npanels + 1)
            t, wt = np.polynomial.legendre.leggauss(per)
            nodes, weights = [], []
            for a, b in zip(edges[:-1], edges[1:]):
                nodes.append(a + 0.5 * (b - a) * (t + 1.0))
                weights.append(0.5 * (b - a) / (hi - lo) * wt)
            return np.concatenate(nodes), np.concatenate(weights)
        t, wt = np.polynomial.legendre.leggauss(prior.quadrature_nodes)
        nodes = lo + 0.5 * (hi - lo) * (t + 1.0)
        weights = 0.5 * wt  # density 1/(hi-lo) times jacobian (hi-lo)/2
        return nodes, weights
    # trunc_exp: composite Gauss-Legendre over [0, 1/a)
    (a,) = prior.params
    c = 1.0 / (1.0 - math.exp(-1.0))
    npanels = max(prior.quadrature_nodes // 20, 1)
    per = max(prior.quadrature_nodes // npanels, 2)
    edges = np.linspace(0.0, 1.0 / a, npanels + 1)
    t, wt = np.polynomial.legendre.leggauss(per)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = lo + 0.5 * (hi - lo) * (t + 1.0)
        nodes.append(x)
        weights.append(0.5 * (hi - lo) * wt * c * a * np.exp(-a * x))
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    return nodes, weights / weights.sum()


def prior_criterion(
    model: Model, prior: ParameterPrior, standardized: bool = False
) -> Criterion:
    """Quadrature mean of the log-determinant over the prior; standardized
    offsets subtract the local optimum's log-determinant at each node."""
    nodes, qw = quadrature(prior)
    offsets = local_offsets(model, nodes) if standardized else np.zeros(len(nodes))
    return Criterion(nodes, qw, offsets)


def bayes_criterion(
    design: DesignMeasure,
    model: Model,
    prior: ParameterPrior,
    standardized: bool = False,
) -> float:
    """Prior-averaged log det M(xi, beta), optionally standardized.

    Returns the minus-infinity sentinel if M is singular at any node.
    """
    crit = prior_criterion(model, prior, standardized)
    g = crit.log_efficiencies(model, design)
    if not np.all(np.isfinite(g)):
        return NEG_INF
    return float(crit.q @ g)


def averaged_directional_derivative(
    design: DesignMeasure, model: Model, prior: ParameterPrior, x
) -> np.ndarray:
    """Prior average of trace(M^{-1}(xi, beta) I(x, beta)) over x."""
    return prior_criterion(model, prior).derivative(model, design, x)


def _polish_bayes(model: Model, nodes, qw, points, weights):
    """Continuous refinement of support locations and weights for the
    node-averaged log-determinant criterion."""
    from scipy.optimize import minimize

    lo, hi = model.design_interval
    k = len(points)

    def neg_crit(z):
        pts, wts = z[:k], z[k:]
        Fs = stacked_scores(model, pts, nodes)
        ld = logdet_stack(info_stack(Fs, wts))
        if not np.all(np.isfinite(ld)):
            return 1e6
        return -float(qw @ ld)

    z0 = np.concatenate((points, weights))
    bounds = [(lo, hi)] * k + [(0.0, 1.0)] * k
    res = minimize(
        neg_crit,
        z0,
        method="SLSQP",
        bounds=bounds,
        constraints=[{"type": "eq", "fun": lambda z: z[k:].sum() - 1.0}],
        options={"maxiter": 300, "ftol": 1e-15},
    )
    z = res.x if res.fun <= neg_crit(z0) else z0
    pts, wts = z[:k], np.clip(z[k:], 0.0, None)
    return pts, wts / wts.sum()


def solve_bayes(
    model: Model, prior: ParameterPrior, grid: GridSpec = GridSpec()
):
    """Bayesian D-optimal design: grid phase, continuous polish, audit.

    The grid solve locates the support structure; SLSQP then frees the
    support locations, and an exchange loop inserts the worst audit point
    whenever the averaged-derivative certificate fails.
    """
    crit = prior_criterion(model, prior)
    nodes, qw = crit.betas, crit.q
    seeds = [
        model.analytic_local(float(b)) if model.analytic_local else None
        for b in (nodes[0], nodes[-1])
    ]
    extra = list(model.fixed_support)
    for s in seeds:
        if s is not None:
            extra.extend(s.points)
    x = build_grid(model.design_interval, grid, extra_points=extra)
    w = np.full(len(x), 1.0 / len(x))
    w, _, _ = maximize_weighted_logdet(
        Fs=stacked_scores(model, x, nodes),
        q=qw,
        w0=w,
        m=model.m,
        tol=1e-7,
    )
    rough = default_merge(DesignMeasure.from_arrays(x[w > 0], w[w > 0]), model)

    pts = rough.points_array()
    wts = rough.weights_array()
    design, cert = rough, None
    for _ in range(8):
        pts, wts = _polish_bayes(model, nodes, qw, pts, wts)
        # exact weight solve at the polished support
        wts, _ = _newton_weights(
            stacked_scores(model, pts, nodes), qw, wts, model.m
        )
        design = default_merge(DesignMeasure.from_arrays(pts, wts), model)
        cert = certify(model, design, crit)
        if cert.passed:
            break
        worst_x = cert.worst_point
        if min(abs(worst_x - p) for p in design.points) < 1e-8:
            break  # violation at an existing point: not a structure defect
        pts = np.append(design.points_array(), worst_x)
        wts = np.append(design.weights_array() * 0.99, 0.01)
    return design, cert


def bayes_a_criterion(
    design: DesignMeasure, model: Model, prior: ParameterPrior
) -> float:
    """Prior average of trace(M^{-1}(xi)) / trace(M^{-1}(xi[beta])).

    Evaluation only; returns the plus-infinity sentinel when M is singular
    at some node (the quantity is minimization-type).
    """
    from .local import local_design

    nodes, qw = quadrature(prior)
    total = 0.0
    for b, q in zip(nodes, qw):
        b = float(b)
        M = information_matrix(design, model, b).entries
        det = np.linalg.det(M)
        if det <= 0.0 or not np.isfinite(det):
            return POS_INF
        tr = float(np.trace(np.linalg.inv(M)))
        Mloc = information_matrix(local_design(model, b), model, b).entries
        tr_loc = float(np.trace(np.linalg.inv(Mloc)))
        total += q * tr / tr_loc
    return total
