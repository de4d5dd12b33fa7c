"""Scale functions used to measure distance between parameter values.

A scale is a nondecreasing continuous map ell on the parameter interval;
|ell(b1) - ell(b2)| acts as a distance.  Besides the identity and the
logarithm, a scale can be the cumulative integral of a density (continuous
priors) or a right-continuous step function counting discrete atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad


@dataclass(frozen=True)
class ScaleFunction:
    kind: str  # "identity" | "logarithm" | "density-integral"
    _ell: Callable[[float], float] = field(repr=False)

    def __call__(self, beta):
        if np.ndim(beta) == 0:
            return self._ell(float(beta))
        return np.array([self._ell(float(b)) for b in np.ravel(beta)]).reshape(
            np.shape(beta)
        )

    def span(self, beta_min: float, beta_max: float) -> float:
        return self._ell(float(beta_max)) - self._ell(float(beta_min))

    def invert(self, target: float, beta_min: float, beta_max: float) -> float:
        """Solve ell(beta) = target on [beta_min, beta_max] by bisection.

        Stops at the fixed point: once the bracket is two adjacent doubles,
        the midpoint rounds to an end and no step changes (lo, hi) again.
        """
        lo, hi = float(beta_min), float(beta_max)
        flo, fhi = self._ell(lo), self._ell(hi)
        if not flo <= target <= fhi:
            raise ValueError(f"target {target} outside ell range [{flo}, {fhi}]")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._ell(mid) < target:
                if lo == mid:
                    break
                lo = mid
            else:
                if hi == mid:
                    break
                hi = mid
        return 0.5 * (lo + hi)


def identity() -> ScaleFunction:
    return ScaleFunction("identity", lambda b: b)


def logarithm() -> ScaleFunction:
    return ScaleFunction("logarithm", math.log)


def density_integral(density: Callable[[float], float], lower: float) -> ScaleFunction:
    """Scale defined by ell(b) = integral of ``density`` from ``lower`` to b."""

    def ell(b: float) -> float:
        if b <= lower:
            return 0.0
        val, _ = quad(density, lower, b, limit=200)
        return val

    return ScaleFunction("density-integral", ell)


def step(atoms) -> ScaleFunction:
    """Right-continuous step scale with a unit jump at each atom."""
    pts = np.sort(np.asarray(atoms, dtype=float))

    def ell(b: float) -> float:
        return float(np.searchsorted(pts, b, side="right"))

    return ScaleFunction("density-integral", ell)


def truncated_exponential(a: float) -> ScaleFunction:
    """Cumulative of c*sqrt(a)*exp(-a*b) on [0, 1/a), c = 1/(1 - e^{-1}).

    Total span over [0, 1/a) is a^{-1/2}.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must be in (0, 1)")
    c = 1.0 / (1.0 - math.exp(-1.0))

    def ell(b: float) -> float:
        b = min(max(b, 0.0), 1.0 / a)
        return c / math.sqrt(a) * (1.0 - math.exp(-a * b))

    return ScaleFunction("density-integral", ell)
