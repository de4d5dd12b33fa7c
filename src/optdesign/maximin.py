"""Standardized maximin D-optimal designs over a finite parameter grid.

The criterion is the worst efficiency det M(xi, b)/det M(xi[b], b) over the
grid.  For m = 1 the seed is the exact solution of a linear program on a
fixed 2,001-point x-grid, a matrix game whose payoff is read through a
block oracle, so only the x-grid rows and beta columns that its row and
column generation visits are scored; for m > 1, and for an m = 1 game
that stays unsolved, it is the mixture of local designs between the
grid's ends.  Both end in :func:`local.refine`, whose polish takes the
minimum in epigraph form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMeasure, as_count, default_merge
from .local import (
    Criterion,
    MatrixGameError,
    _least_favorable_lp,
    band_seed,
    build_grid,
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
        if not 0.0 < self.beta_min <= self.beta_max < math.inf:
            raise ValueError("need 0 < beta_min <= beta_max < inf")
        least = 2 if self.beta_min < self.beta_max else 1
        object.__setattr__(self, "count", as_count(self.count, "count", least))

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


def support_count(design: DesignMeasure, model: Model) -> int:
    """Number of support points after the merge that the solvers apply,
    design.default_merge on the model's interval: a point near the model's
    fixed support counts apart from it."""
    return default_merge(design, model).n


def _grid_maximin_lp(model: Model, x: np.ndarray, betas: np.ndarray,
                     offsets: np.ndarray) -> np.ndarray:
    """Exact grid solution for scalar information (m = 1): each efficiency
    sum_i w_i f(x_i, b_j)^2 / exp(offset_j) is linear in the weights w, so
    maximizing its minimum over the betas is the matrix game of
    _least_favorable_lp with the signs flipped, rows x and columns betas.
    The game reads that payoff through a block oracle, one stacked_scores
    call per block, so it scores only the rows and columns that its
    generation visits."""
    inv = np.exp(-offsets)

    def block(rows, cols):
        F = stacked_scores(model, x[rows], betas[cols])[:, :, 0]
        return -(F ** 2 * inv[cols, None]).T

    block.shape = (len(x), len(betas))
    return _least_favorable_lp(block)


def solve_maximin(model: Model, grid: BetaGrid):
    """Standardized maximin D-optimal design with a least-favorable
    certificate.  A Wong game that HiGHS leaves unsolved fails the
    certificate.  For m = 1 the seed is itself a grid game; an unsolved
    one (local.MatrixGameError) falls back to the band mixture seed of
    m > 1, and the certificate decides."""
    betas = grid.values
    if len(betas) == 1:  # a single parameter value is the local problem
        return solve_local(model, float(betas[0]))
    crit = Criterion.maximin(model, betas)
    seed = None
    if model.m == 1:  # the grid problem is a linear program
        x = build_grid(model.design_interval)
        try:
            seed = x, _grid_maximin_lp(model, x, betas, crit.offsets)
        except MatrixGameError:
            pass
    if seed is None:
        seed = band_seed(model, betas[0], betas[-1])
    return refine(model, crit, *seed)
