"""Bayesian D-optimal design: priors, quadrature, criterion and solver.

The criterion is the prior average of log det M(xi, beta); its standardized
form subtracts each node's local optimum, a design-independent constant.
The solver seeds :func:`local.refine` with the optimal weights of a few
candidate points: the points of the mixture of local designs, or, for a
model without local designs, 21 evenly spaced interval points plus the
fixed support.  A point-mass prior gives the local solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import DesignMeasure, NEG_INF, as_count
from .local import (
    Criterion,
    band_seed,
    local_offsets,
    maximize_weighted_logdet,
    refine,
    stacked_scores,
)
from .models import Model


@dataclass(frozen=True)
class ParameterPrior:
    """Prior on the nonlinear parameter.

    kinds: uniform(lo, hi); trunc_exp(a) with density c*a*e^{-a b} on
    [0, 1/a), c = 1/(1 - e^{-1}); discrete_uniform(L) on {1, ..., L};
    point_mass(b).  quadrature_nodes defaults to the kind's own: 200 for
    uniform, 400 for trunc_exp, 1 for the discrete and point priors.
    """

    kind: str
    params: tuple
    quadrature_nodes: Optional[int] = None

    def __post_init__(self):
        if self.kind == "uniform":
            lo, hi = self.params
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("uniform prior needs finite lo < hi")
        elif self.kind == "trunc_exp":
            (a,) = self.params
            if not 0.0 < a < 1.0:
                raise ValueError("trunc_exp needs a in (0, 1)")
        elif self.kind == "discrete_uniform":
            (L,) = self.params
            object.__setattr__(self, "params", (as_count(L, "discrete_uniform L", 1),))
        elif self.kind == "point_mass":
            (b,) = self.params
            if not math.isfinite(b):
                raise ValueError("point mass must be finite")
        else:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        nodes = self.quadrature_nodes
        if nodes is None:
            nodes = {"uniform": 200, "trunc_exp": 400}.get(self.kind, 1)
        object.__setattr__(self, "quadrature_nodes",
                           as_count(nodes, "quadrature_nodes", 1))

    @staticmethod
    def uniform(lo: float, hi: float, quadrature_nodes: Optional[int] = None):
        return ParameterPrior("uniform", (float(lo), float(hi)), quadrature_nodes)

    @staticmethod
    def trunc_exp(a: float, quadrature_nodes: Optional[int] = None):
        return ParameterPrior("trunc_exp", (float(a),), quadrature_nodes)

    @staticmethod
    def discrete_uniform(L: int):
        return ParameterPrior("discrete_uniform", (L,))

    @staticmethod
    def point_mass(beta: float):
        return ParameterPrior("point_mass", (float(beta),))

    @property
    def support_interval(self) -> tuple:
        if self.kind == "uniform":
            return self.params
        if self.kind == "trunc_exp":
            return (0.0, 1.0 / self.params[0])
        if self.kind == "discrete_uniform":
            return (1.0, float(self.params[0]))
        return (self.params[0], self.params[0])


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """n-node Gauss-Legendre rule on [-1, 1], read-only: callers share it."""
    t, wt = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def _composite(edges: np.ndarray, per: int):
    """Composite Gauss-Legendre rule, per nodes on each panel between
    consecutive edges; the weights integrate Lebesgue measure."""
    t, wt = _gauss_legendre(per)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = edges[:-1, None] + half * (t + 1.0)
    return nodes.ravel(), (half * wt).ravel()


def quadrature(prior: ParameterPrior):
    """Nodes and weights integrating the prior; weights sum to 1.

    Continuous priors use Gauss-Legendre rules (composite for the truncated
    exponential and wide uniform ranges); discrete priors return their
    atoms exactly.
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
            nodes, weights = _composite(np.geomspace(lo, hi, npanels + 1), per)
            return nodes, weights / (hi - lo)
        t, wt = _gauss_legendre(prior.quadrature_nodes)
        nodes = lo + 0.5 * (hi - lo) * (t + 1.0)
        weights = 0.5 * wt  # density 1/(hi-lo) times jacobian (hi-lo)/2
        return nodes, weights
    # trunc_exp: composite Gauss-Legendre over [0, 1/a)
    (a,) = prior.params
    c = 1.0 / (1.0 - math.exp(-1.0))
    npanels = max(prior.quadrature_nodes // 20, 1)
    per = max(prior.quadrature_nodes // npanels, 2)
    nodes, weights = _composite(np.linspace(0.0, 1.0 / a, npanels + 1), per)
    weights = weights * c * a * np.exp(-a * nodes)
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


def solve_bayes(model: Model, prior: ParameterPrior):
    """Bayesian D-optimal design: :func:`local.refine` from the optimal
    weights of a few candidates.

    The candidates are the points of the mixture of local designs between
    the prior's extreme nodes (:func:`local.band_seed`), weighted by
    :func:`local.maximize_weighted_logdet` from the mixture weights.
    Without analytic local designs, or with a node <= 0, they are 21 evenly
    spaced interval points plus the fixed support, from uniform weights.  A
    point-mass prior gives the local design (:func:`solve_local`).
    """
    crit = prior_criterion(model, prior)
    nodes, qw = crit.betas, crit.q
    if model.analytic_local is None or nodes[0] <= 0.0:
        lo, hi = model.design_interval
        x = np.unique(np.r_[np.linspace(lo, hi, 21), model.fixed_support])
        w0 = np.ones(len(x))
    else:
        x, w0 = band_seed(model, nodes[0], nodes[-1])
    w = maximize_weighted_logdet(stacked_scores(model, x, nodes), qw, w0,
                                 model.m)[0]
    return refine(model, crit, x, w)

