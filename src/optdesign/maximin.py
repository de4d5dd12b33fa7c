"""Standardized maximin D-optimal designs over a finite parameter grid.

The criterion is the worst efficiency det M(xi, b)/det M(xi[b], b) over the
grid.  The grid weights come from a linear program for m = 1, solved
exactly, and from the mixture of local designs for m > 1.  Both end in
:func:`local.refine`, whose polish here is SLSQP in epigraph form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .design import DesignMeasure, canonical_merge, default_merge
from .local import (
    Criterion,
    GridSpec,
    _least_favorable_lp,
    _seed_mixture_weights,
    build_grid,
    info_stack,
    logdet_stack,
    refine,
    solve_local,
    stacked_scores,
)
from .models import Model


@dataclass(frozen=True)
class BetaGrid:
    beta_min: float
    beta_max: float
    count: int = 400

    def __post_init__(self):
        if self.beta_min > self.beta_max:
            raise ValueError("need beta_min <= beta_max")
        if self.beta_min < self.beta_max and self.count < 2:
            raise ValueError("need at least 2 grid values")

    @property
    def values(self) -> np.ndarray:
        if self.beta_min == self.beta_max:
            return np.array([self.beta_min])
        return np.geomspace(self.beta_min, self.beta_max, self.count)


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


def _log_eff_jacobian(model: Model, crit: Criterion, z: np.ndarray) -> np.ndarray:
    """Jacobian of the epigraph constraints log det M_j - offset_j - t over
    z = (points, weights, t), shape (J, 2k + 1) (Fedorov 1972; Atkinson,
    Donev & Tobias 2007): 2 w_i f_ji^T M_j^-1 f'_ji for x_i, f_ji^T M_j^-1
    f_ji for w_i, and -1 for t, with f_ji = f(x_i, beta_j) and f' its
    x-derivative.  A node whose M_j is singular, or whose row is not
    finite, gets zeros for x and w, as its clamped constraint is flat."""
    k = (len(z) - 1) // 2
    x, w = z[:k], z[k:2 * k]
    Fs = stacked_scores(model, x, crit.betas)  # (J, k, m)
    Ds = stacked_scores(model, x, crit.betas, dx=True)
    Ms = info_stack(Fs, w)
    ok = np.linalg.slogdet(Ms)[0] > 0
    Ms[~ok] = np.eye(model.m)
    with np.errstate(over="ignore", invalid="ignore"):
        X = np.linalg.solve(Ms, Fs.transpose(0, 2, 1)).transpose(0, 2, 1)
        jac = np.concatenate(
            (2.0 * w * (X * Ds).sum(axis=2), (X * Fs).sum(axis=2)), axis=1)
    jac[~(ok & np.isfinite(jac).all(axis=1))] = 0.0
    return np.concatenate((jac, -np.ones((len(jac), 1))), axis=1)


def _polish_minimax(model: Model, crit: Criterion, points, weights):
    """Free-support minimax refinement: maximize t s.t. log-eff_j >= t over
    z = (points, weights, t); returns the merged design.  SLSQP gets exact
    Jacobians, the constraints' from :func:`_log_eff_jacobian`; for a model
    without score_dx it differences the constraints."""
    k = len(points)

    def cons_eff(z):
        Fs = stacked_scores(model, np.asarray(z[:k]), crit.betas)  # (J, k, m)
        g = logdet_stack(info_stack(Fs, np.asarray(z[k:2 * k]))) - crit.offsets
        g[~np.isfinite(g)] = -1e6
        return g - z[2 * k]

    z0 = np.concatenate((points, weights, [0.0]))
    z0[-1] = float(np.min(cons_eff(z0)))  # finite: a singular node reads -1e6
    grad = np.zeros(2 * k + 1)
    grad[-1] = -1.0
    ones = np.concatenate((np.zeros(k), np.ones(k), [0.0]))[None, :]
    res = minimize(
        lambda z: -z[2 * k], z0, method="SLSQP", jac=lambda z: grad,
        bounds=[model.design_interval] * k + [(0.0, 1.0)] * k + [(None, 0.0)],
        constraints=[
            {"type": "ineq", "fun": cons_eff,
             "jac": (None if model.score_dx is None
                     else lambda z: _log_eff_jacobian(model, crit, z))},
            {"type": "eq", "fun": lambda z: z[k:2 * k].sum() - 1.0,
             "jac": lambda z: ones},
        ],
        options={"maxiter": 400, "ftol": 1e-12},
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
    if model.m == 1:  # the grid problem is a linear program
        w = _grid_maximin_lp(stacked_scores(model, x, betas), crit.offsets)
    else:
        w = _seed_mixture_weights(model, betas, x)
    return refine(model, crit, x, w, _polish_minimax)
