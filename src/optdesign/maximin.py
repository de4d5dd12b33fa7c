"""Standardized maximin D-optimal designs over a finite parameter grid.

The criterion is the worst efficiency det M(xi, b)/det M(xi[b], b) over the
grid.  Stage 1 puts weights on an x-grid: for m = 1 the exact grid solution
(a matrix game); for m > 1 a mixture of local designs.  Stages 2-3 are the
shared :func:`local.refine`: it polishes the merged support on the continuum
(here SLSQP in epigraph form) and inserts the worst audit point while the
certificate fails.  If the m > 1 seed still ends uncertified, the grid
problem is solved exactly by the cutting planes of
:func:`local.maximize_weighted_logdet` on the min aggregate, and stages 2-3
rerun.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .design import DesignMeasure, canonical_merge, default_merge
from .local import (
    _KELLEY_TOL,
    Criterion,
    GridSpec,
    _least_favorable_lp,
    build_grid,
    info_stack,
    local_design,
    logdet_stack,
    maximize_weighted_logdet,
    refine,
    solve_local,
    stacked_scores,
    transfer_weights,
)
from .models import Model

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BetaGrid:
    beta_min: float
    beta_max: float
    count: int = 400
    spacing: str = "log"  # "log" | "uniform"

    def __post_init__(self):
        if self.beta_min > self.beta_max:
            raise ValueError("need beta_min <= beta_max")
        if self.beta_min < self.beta_max and self.count < 2:
            raise ValueError("need at least 2 grid values")
        if self.spacing not in ("log", "uniform"):
            raise ValueError(f"unknown spacing {self.spacing!r}")

    @property
    def values(self) -> np.ndarray:
        if self.beta_min == self.beta_max:
            return np.array([self.beta_min])
        if self.spacing == "log":
            return np.geomspace(self.beta_min, self.beta_max, self.count)
        return np.linspace(self.beta_min, self.beta_max, self.count)


def maximin_criterion(design: DesignMeasure, model: Model, grid: BetaGrid):
    """(worst efficiency, minimizing beta) over the parameter grid."""
    betas = grid.values
    g = Criterion.maximin(model, betas).log_efficiencies(model, design)
    j = int(np.argmin(g))
    return float(math.exp(g[j])), float(betas[j])


def support_count(design: DesignMeasure, interval=(0.0, 1.0)) -> int:
    """Number of support points after the canonical reporting merge."""
    lo, hi = interval
    return canonical_merge(design, 1e-3 * (hi - lo), 1e-3).n


def _seed_mixture_weights(model: Model, betas, x: np.ndarray) -> np.ndarray:
    """Mixture of local designs at log-equispaced parameters, mapped to the grid."""
    span = math.log(betas[-1] / betas[0])
    n = max(int(math.ceil(span / (2.0 * math.log(2.0)))), 1)
    w = np.full(len(x), 0.1 / len(x))
    for k in range(1, n + 1):
        b = betas[0] * math.exp((2 * k - 1) * span / (2 * n))
        d = local_design(model, float(b))
        w += 0.9 / n * transfer_weights(d.points_array(), d.weights_array(), x)
    return w / w.sum()


def _polish_minimax(model: Model, crit: Criterion, points, weights):
    """Free-support minimax refinement: maximize t s.t. log-eff_j >= t over
    z = (points, weights, t); returns the merged design."""
    k = len(points)

    def logeffs(z):
        Fs = stacked_scores(model, np.asarray(z[:k]), crit.betas)  # (J, k, m)
        return logdet_stack(info_stack(Fs, np.asarray(z[k:2 * k]))) - crit.offsets

    def cons_eff(z):
        g = logeffs(z)
        g[~np.isfinite(g)] = -1e6
        return g - z[2 * k]

    z0 = np.concatenate((points, weights, [0.0]))
    z0[-1] = float(np.min(logeffs(z0)))
    res = minimize(
        lambda z: -z[2 * k], z0, method="SLSQP",
        bounds=[model.design_interval] * k + [(0.0, 1.0)] * k + [(None, 0.0)],
        constraints=[
            {"type": "ineq", "fun": cons_eff},
            {"type": "eq", "fun": lambda z: z[k:2 * k].sum() - 1.0},
        ],
        options={"maxiter": 400, "ftol": 1e-14},
    )
    wts = np.clip(res.x[k:2 * k], 0.0, None)
    return default_merge(DesignMeasure.from_arrays(res.x[:k], wts / wts.sum()), model)


def _grid_maximin_lp(Fs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Exact grid solution for scalar information (m = 1): each efficiency
    is linear in the weights, so maximizing min_j sum_i w_i a_ij is the
    matrix game of _least_favorable_lp with the signs flipped."""
    a = Fs[:, :, 0] ** 2 * np.exp(-offsets)[:, None]  # (J, n) efficiencies
    return _least_favorable_lp(-a.T)


def solve_maximin(model: Model, grid: BetaGrid, xgrid: GridSpec = GridSpec()):
    """Standardized maximin D-optimal design with a least-favorable certificate."""
    betas = grid.values
    if len(betas) == 1:  # a single parameter value is the local problem
        return solve_local(model, float(betas[0]), xgrid)
    crit = Criterion.maximin(model, betas)
    x = build_grid(model.design_interval, xgrid,
                   extra_points=list(model.fixed_support))
    Fs = stacked_scores(model, x, betas)
    if model.m == 1:  # stage 1, exact: the grid problem is a linear program
        w = _grid_maximin_lp(Fs, crit.offsets)
        return refine(model, crit, x, w, _polish_minimax)
    w0 = _seed_mixture_weights(model, betas, x)
    design, cert = refine(model, crit, x, w0, _polish_minimax)
    if cert.passed:
        return design, cert
    # the seed's basin fails: solve the grid problem exactly and restart
    w, _, history = maximize_weighted_logdet(Fs, None, w0, model.m,
                                             offsets=crit.offsets)
    lower, upper = history[-1]
    gap_closed = upper - lower <= _KELLEY_TOL * max(1.0, abs(lower))
    log.debug("maximin %s on %d parameter values: seed certificate failed "
              "(max derivative %.9g, bound %g); Kelley fallback ran %d "
              "rounds, gap %.3g, stopped on the %s", model.name, len(betas),
              cert.max_directional_derivative, cert.bound, len(history),
              upper - lower, "gap" if gap_closed else "round cap")
    return refine(model, crit, x, w, _polish_minimax)
