"""Standardized maximin D-optimal designs over a finite parameter grid.

The criterion is the worst efficiency det M(xi, b)/det M(xi[b], b) over the
grid.  Optimization runs in three stages.  Stage 1 solves the grid problem:
for scalar information (m = 1) exactly, as the matrix-game linear program of
:func:`optdesign.local._least_favorable_lp`; otherwise by a saddle-point
search alternating weighted-Bayesian solves with exponentiated-gradient
updates of the least-favorable weights.  Stage 2 is a continuous minimax
polish of the surviving support (SLSQP on the epigraph form), and stage 3 an
exchange loop that inserts the worst audit point whenever certification
fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .design import DesignMeasure, default_merge
from .local import (
    Criterion,
    GridSpec,
    _least_favorable_lp,
    build_grid,
    certify,
    info_stack,
    logdet_stack,
    maximize_weighted_logdet,
    stacked_scores,
    transfer_weights,
)
from .models import Model


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
    if g[j] == -math.inf:
        return 0.0, float(betas[j])
    return float(math.exp(g[j])), float(betas[j])


def support_count(design: DesignMeasure, interval=(0.0, 1.0)) -> int:
    """Number of support points after the canonical reporting merge."""
    from .design import canonical_merge

    lo, hi = interval
    return canonical_merge(design, 1e-3 * (hi - lo), 1e-3).n


def _seed_mixture_weights(model: Model, betas, x: np.ndarray) -> np.ndarray:
    """Mixture of local designs at log-equispaced parameters, mapped to the grid."""
    span = math.log(betas[-1] / betas[0])
    n = max(int(math.ceil(span / (2.0 * math.log(2.0)))), 1)
    w = np.full(len(x), 0.1 / len(x))
    from .local import local_design

    for k in range(1, n + 1):
        b = betas[0] * math.exp((2 * k - 1) * span / (2 * n))
        d = local_design(model, float(b))
        w += 0.9 / n * transfer_weights(d.points_array(), d.weights_array(), x)
    return w / w.sum()


def _polish_minimax(model: Model, betas, offsets, points, weights):
    """Free-support minimax refinement: maximize t s.t. log-eff_j >= t."""
    lo, hi = model.design_interval
    k = len(points)
    J = len(betas)

    def logeffs(pts, wts):
        Fs = stacked_scores(model, np.asarray(pts), betas)  # (J, k, m)
        ld = logdet_stack(info_stack(Fs, np.asarray(wts)))
        return ld - offsets

    def unpack(z):
        return z[:k], z[k : 2 * k], z[2 * k]

    def neg_t(z):
        return -z[2 * k]

    def cons_eff(z):
        pts, wts, t = unpack(z)
        g = logeffs(pts, wts)
        g[~np.isfinite(g)] = -1e6
        return g - t

    z0 = np.concatenate(
        (points, weights, [float(np.min(logeffs(points, weights)))])
    )
    bounds = [(lo, hi)] * k + [(0.0, 1.0)] * k + [(None, 0.0)]
    res = minimize(
        neg_t,
        z0,
        method="SLSQP",
        bounds=bounds,
        constraints=[
            {"type": "ineq", "fun": cons_eff},
            {"type": "eq", "fun": lambda z: z[k : 2 * k].sum() - 1.0},
        ],
        options={"maxiter": 400, "ftol": 1e-14},
    )
    pts, wts, _ = unpack(res.x)
    wts = np.clip(wts, 0.0, None)
    wts /= wts.sum()
    return np.asarray(pts), wts


def _grid_maximin_lp(Fs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Exact grid solution for scalar-information models.

    With m = 1 the information at each parameter is linear in the design
    weights, so maximizing the worst efficiency min_j sum_i w_i a_ij is the
    matrix game that _least_favorable_lp solves, with the signs flipped.
    """
    a = Fs[:, :, 0] ** 2 * np.exp(-offsets)[:, None]  # (J, n) efficiencies
    return _least_favorable_lp(-a.T)


def solve_maximin(
    model: Model,
    grid: BetaGrid,
    xgrid: GridSpec = GridSpec(),
    outer_iters: int = 60,
    eta0: float = 10.0,
):
    """Standardized maximin D-optimal design with a least-favorable certificate."""
    betas = grid.values
    if len(betas) == 1:
        # a single parameter value reduces to the local problem
        from .local import solve_local

        return solve_local(model, float(betas[0]), xgrid)
    crit = Criterion.maximin(model, betas)
    offsets = crit.offsets
    x = build_grid(model.design_interval, xgrid,
                   extra_points=list(model.fixed_support))
    Fs = stacked_scores(model, x, betas)

    if model.m == 1:
        # stage 1, exact: the grid problem is a linear program
        best_w = _grid_maximin_lp(Fs, offsets)
    else:
        # stage 1, saddle-point search: exponentiated-gradient on the
        # least-favorable weights, weighted-Bayesian best response in the design
        mu = np.full(len(betas), 1.0 / len(betas))
        w = _seed_mixture_weights(model, betas, x)
        best_w, best_phi = w.copy(), -math.inf
        prev_phi = -math.inf
        for t in range(1, outer_iters + 1):
            w, _, _ = maximize_weighted_logdet(
                Fs, mu, w, model.m, tol=1e-6, max_iter=200
            )
            g = logdet_stack(info_stack(Fs, w)) - offsets
            phi = float(np.exp(g.min()))
            if phi > best_phi:
                best_phi, best_w = phi, w.copy()
            eta = eta0 / math.sqrt(t)
            mu = mu * np.exp(-eta * (g - g.min()))
            mu /= mu.sum()
            if abs(phi - prev_phi) < 1e-8 and t > 10:
                break
            prev_phi = phi

    rough = default_merge(DesignMeasure.from_arrays(x[best_w > 0], best_w[best_w > 0]),
                          model)

    # stage 2/3: continuous polish plus certificate-driven exchange
    pts = rough.points_array()
    wts = rough.weights_array()
    design = rough
    cert = None
    for _ in range(6):
        pts, wts = _polish_minimax(model, betas, offsets, pts, wts)
        design = default_merge(DesignMeasure.from_arrays(pts, wts), model)
        cert = certify(model, design, crit)
        if cert.passed:
            break
        # insert the violating point and re-polish
        worst_x = cert.worst_point
        if min(abs(worst_x - p) for p in design.points) < 1e-6:
            break  # violation at an existing point: no structural fix left
        pts = np.append(design.points_array(), worst_x)
        wts = np.append(design.weights_array() * 0.97, 0.03)

    return design, cert
