"""Built-in nonlinear regression models and their efficiency functions.

Each model carries the Fisher score vector f(x, beta) (so that the pointwise
information is the rank-one product f f^T), the design interval, and, where
available, the analytic local D-optimal design.  Custom models can be built
by instantiating :class:`Model` with a vectorized score function: ``x``
broadcasts against ``beta`` and the parameter axis is last, so one call
scores every grid point under every parameter value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .design import DesignMeasure, det_info


class BetaDomainError(ValueError):
    """Parameter value outside the model's admissible range."""


@dataclass(frozen=True)
class Model:
    """A regression model on a design interval.

    ``score(x, beta)`` returns the Fisher score vectors with shape
    ``np.broadcast_shapes(np.shape(x), np.shape(beta)) + (m,)``: ``x``
    broadcasts against ``beta`` and the parameter axis is last.  The solvers
    call it through :meth:`score_matrix`, once per array of parameter
    values, to get all score matrices as a ``(J, n, m)`` stack.
    """

    name: str
    m: int
    m_eta: int
    design_interval: tuple
    beta_range: tuple
    score: Callable[[np.ndarray, float], np.ndarray] = field(repr=False)
    analytic_local: Optional[Callable[[float], DesignMeasure]] = field(
        default=None, repr=False
    )
    fixed_support: tuple = ()

    def __post_init__(self):
        if not 0 <= self.m_eta < self.m:
            raise ValueError("need 0 <= m_eta < m")
        if len(self.fixed_support) != self.m_eta:
            raise ValueError("fixed_support must have exactly m_eta entries")
        lo, hi = self.design_interval
        for x in self.fixed_support:
            if not lo <= x <= hi:
                raise ValueError(f"fixed support point {x} outside design interval")

    def check_beta(self, beta: float) -> None:
        lo, hi = self.beta_range
        if not (lo <= beta <= hi) or not math.isfinite(beta):
            raise BetaDomainError(
                f"beta={beta} outside admissible range [{lo}, {hi}] for {self.name}"
            )

    def check_points(self, points) -> None:
        lo, hi = self.design_interval
        for x in points:
            if not lo - 1e-12 <= x <= hi + 1e-12:
                raise ValueError(f"design point {x} outside interval [{lo}, {hi}]")

    def score_matrix(self, x: np.ndarray, beta) -> np.ndarray:
        """Scores at many points: an (n, m) array for a scalar ``beta``; for
        a 1-D array of J values, one broadcast call giving the (J, n, m)
        stack."""
        x = np.asarray(x, dtype=float)
        if np.ndim(beta) == 1:
            return self.score(x[None, :], np.asarray(beta)[:, None])
        F = np.atleast_2d(self.score(x, beta))
        if F.shape[0] == self.m and F.shape[1] != self.m:
            F = F.T
        return F


def _exp1_score(x, beta):
    return (x * np.exp(-beta * x))[..., None]


def _exp1_local(beta):
    lo, hi = 0.0, 1.0
    return DesignMeasure.point_mass(min(max(1.0 / beta, lo), hi))


def _exp2_score(x, beta):
    e = np.exp(-beta * x)
    return np.stack([np.ones_like(e), -x * e], axis=-1)


def _exp2_local(beta):
    return DesignMeasure((0.0, min(1.0 / beta, 1.0)), (0.5, 0.5))


def _exp3_score(x, beta):
    # alpha2 is fixed to 1: every determinant scales by alpha2^2 uniformly
    # over designs, so criteria ratios and maximizers do not depend on it.
    e = np.exp(-beta * x)
    return np.stack([np.ones_like(e), e, -x * e], axis=-1)


def _logistic_score(x, beta):
    # Scalar Fisher information e^{x-beta}/(1+e^{x-beta})^2; the score is
    # its square root, written in |x-beta| so that exp cannot overflow.
    a = -np.abs(x - beta)
    return (np.exp(a / 2.0) / (1.0 + np.exp(a)))[..., None]


def make_logistic(x_max: float = 30.0) -> Model:
    """Binary-response model on [0, x_max]; the local optimum sits at beta."""

    def local(beta):
        return DesignMeasure.point_mass(min(max(beta, 0.0), x_max))

    return Model(
        name="logistic",
        m=1,
        m_eta=0,
        design_interval=(0.0, x_max),
        beta_range=(0.0, math.inf),
        score=_logistic_score,
        analytic_local=local,
    )


EXP1 = Model(
    name="exp1",
    m=1,
    m_eta=0,
    design_interval=(0.0, 1.0),
    beta_range=(1e-12, math.inf),
    score=_exp1_score,
    analytic_local=_exp1_local,
)

EXP2 = Model(
    name="exp2",
    m=2,
    m_eta=1,
    design_interval=(0.0, 1.0),
    beta_range=(1e-12, math.inf),
    score=_exp2_score,
    analytic_local=_exp2_local,
    fixed_support=(0.0,),
)

EXP3 = Model(
    name="exp3",
    m=3,
    m_eta=2,
    design_interval=(0.0, 1.0),
    beta_range=(1e-12, math.inf),
    score=_exp3_score,
    fixed_support=(0.0, 1.0),
)

LOGISTIC = make_logistic()

_BUILTINS = {"exp1": EXP1, "exp2": EXP2, "exp3": EXP3, "logistic": LOGISTIC}


def get_model(name: str) -> Model:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; choose from {sorted(_BUILTINS)}")


class SingularNumeratorWarning(UserWarning):
    pass


def q_efficiency(
    model: Model,
    beta: float,
    beta_tilde: float,
    local_solver: Optional[Callable[[Model, float], DesignMeasure]] = None,
) -> float:
    """Information loss Q = det M(xi[beta_tilde], beta) / det M(xi[beta], beta).

    Local designs come from the model's analytic oracle or from
    ``local_solver``.  A singular numerator yields 0; a singular denominator
    is a hard error (the local design must be nonsingular), and so is a
    non-finite determinant on either side (ArithmeticError from det_info).
    """
    model.check_beta(beta)
    model.check_beta(beta_tilde)

    def local(b):
        if model.analytic_local is not None:
            return model.analytic_local(b)
        if local_solver is None:
            raise ValueError(f"model {model.name} needs a local_solver for Q")
        return local_solver(model, b)

    num = det_info(local(beta_tilde), model, beta)
    den = det_info(local(beta), model, beta)
    if den <= 0.0:
        raise ArithmeticError("singular denominator: local design is not D-optimal")
    if num <= 0.0:
        return 0.0
    return num / den


def q_exp1_closed(beta: float, beta_tilde: float) -> float:
    """Closed-form Q for the one-parameter exponential model."""
    y = beta / beta_tilde
    return (y * math.exp(1.0 - y)) ** 2


def q_logistic_closed(beta: float, beta_tilde: float) -> float:
    """Closed-form Q for the logistic model: 4e^{bt-b}/(1+e^{bt-b})^2."""
    u = math.exp(beta_tilde - beta)
    return 4.0 * u / (1.0 + u) ** 2


def h_function(x1: float, x2: float, x3: float, beta: float) -> float:
    """Signed bracket whose square is the three-point Gram determinant of exp3."""
    e1, e2, e3 = (math.exp(-beta * x) for x in (x1, x2, x3))
    return x1 * e1 * (e3 - e2) + x2 * e2 * (e1 - e3) + x3 * e3 * (e2 - e1)
