"""Scale functions used to measure distance between parameter values.

A scale is a nondecreasing continuous map ell on the parameter interval;
|ell(b1) - ell(b2)| acts as a distance.  Besides the identity and the
logarithm, a scale can be the cumulative integral of a density (continuous
priors) or a right-continuous step function counting discrete atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad


@dataclass(frozen=True)
class ScaleFunction:
    # elementwise on a float array; every built-in ell is written in numpy
    _ell: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    # the exact inverse of ell, elementwise, where a closed form exists: it
    # only narrows the first bracket of invert
    _inverse: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False)

    def __call__(self, beta):
        """ell(beta): a float for a scalar beta, for an array the array of
        the same shape, from one call of the elementwise ell."""
        val = self._ell(np.asarray(beta, dtype=float))
        return float(val) if np.ndim(beta) == 0 else np.asarray(val, dtype=float)

    def span(self, beta_min: float, beta_max: float) -> float:
        return self(beta_max) - self(beta_min)

    def invert(self, target, beta_min: float, beta_max: float):
        """Solve ell(beta) = target on [beta_min, beta_max] by bisection: a
        float for a scalar target, for an array of targets the array of
        solutions, all bisected together with one ell call per step.

        Each element stops at its own fixed point: once its bracket is two
        adjacent doubles, the midpoint rounds to an end and no step changes
        (lo, hi) again, so it leaves the bisection.  A target outside
        [ell(beta_min), ell(beta_max)], or NaN, raises ValueError.  An
        element still bisecting after 200 halvings keeps its midpoint only
        if ell there is within 1e-12 (ell(beta_max) - ell(beta_min)) of its
        target; otherwise ArithmeticError.

        With an exact inverse g = inverse(t), a target that ell brackets on
        [g (1 - 1e-12), g (1 + 1e-12)], clipped to the range, ell below t at
        the left end and at least t at the right, as every bisection bracket
        is, starts from that bracket instead of [beta_min, beta_max]; for a
        nondecreasing ell both starts end on the same two adjacent doubles.
        """
        t = np.asarray(target, dtype=float)
        flo, fhi = self(beta_min), self(beta_max)
        inside = (flo <= t) & (t <= fhi)
        if not np.all(inside):
            bad = t[~inside].ravel()[0]
            raise ValueError(f"target {bad} outside ell range [{flo}, {fhi}]")
        t = t.ravel()
        lo = np.full(t.shape, float(beta_min))
        hi = np.full(t.shape, float(beta_max))
        if self._inverse is not None:
            g = self._inverse(t)
            a = np.clip(g * (1.0 - 1e-12), beta_min, beta_max)
            b = np.clip(g * (1.0 + 1e-12), beta_min, beta_max)
            narrow = (self._ell(a) < t) & (t <= self._ell(b))
            lo[narrow], hi[narrow] = a[narrow], b[narrow]
        live = np.arange(t.size)
        for _ in range(200):
            if not live.size:
                break
            mid = 0.5 * (lo[live] + hi[live])
            below = self._ell(mid) < t[live]
            moved = np.where(below, lo[live] != mid, hi[live] != mid)
            live, mid, below = live[moved], mid[moved], below[moved]
            lo[live[below]] = mid[below]
            hi[live[~below]] = mid[~below]
        beta = 0.5 * (lo + hi)
        if live.size:
            miss = np.abs(self._ell(beta[live]) - t[live]).max()
            if not miss <= 1e-12 * (fhi - flo):  # NaN fails too
                raise ArithmeticError(f"bisection stopped after 200 halvings "
                                      f"with ell {miss} from its target")
        return float(beta[0]) if np.ndim(target) == 0 else beta.reshape(np.shape(target))


def identity() -> ScaleFunction:
    return ScaleFunction(lambda b: b, lambda t: t)


def logarithm() -> ScaleFunction:
    return ScaleFunction(np.log, np.exp)


def density_integral(density: Callable[[float], float], lower: float) -> ScaleFunction:
    """Scale defined by ell(b) = integral of ``density`` from ``lower`` to b,
    one ``quad`` per element."""

    def ell(b: float) -> float:
        if b <= lower:
            return 0.0
        val, _ = quad(density, lower, b, limit=200)
        return val

    return ScaleFunction(np.vectorize(ell, otypes=[float]))


def step(atoms) -> ScaleFunction:
    """Right-continuous step scale with a unit jump at each atom."""
    pts = np.sort(np.asarray(atoms, dtype=float))

    def ell(b):
        return np.searchsorted(pts, b, side="right").astype(float)

    return ScaleFunction(ell)


def truncated_exponential(a: float) -> ScaleFunction:
    """Cumulative of c*sqrt(a)*exp(-a*b) on [0, 1/a), c = 1/(1 - e^{-1}).

    Total span over [0, 1/a) is a^{-1/2}.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must be in (0, 1)")
    c = 1.0 / (1.0 - math.exp(-1.0))

    def ell(b):
        return c / math.sqrt(a) * (1.0 - np.exp(-a * np.clip(b, 0.0, 1.0 / a)))

    return ScaleFunction(ell)
