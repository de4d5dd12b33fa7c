"""Built-in nonlinear regression models and their efficiency functions.

Each model carries the Fisher score vector f(x, beta) (so that the pointwise
information is the rank-one product f f^T), the design interval, and, where
available, the analytic local D-optimal designs.  Every callable on a model
takes arrays and returns stacks.  Custom models can be built by
instantiating :class:`Model` with a vectorized score function: ``x``
broadcasts against ``beta`` and the parameter axis is last, so one call
scores every grid point under every parameter value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class BetaDomainError(ValueError):
    """Parameter value outside the model's admissible range."""


@dataclass(frozen=True)
class Model:
    """A regression model on a design interval.

    ``score(x, beta)`` returns the Fisher score vectors with shape
    ``np.broadcast_shapes(np.shape(x), np.shape(beta)) + (m,)``: ``x``
    broadcasts against ``beta`` and the parameter axis is last.  The solvers
    call it through :meth:`score_matrix`, once per array of parameter
    values, to get all score matrices as a ``(J, n, m)`` stack; a scalar
    beta is a stack of one.

    ``analytic_local(betas)``, if given, maps a 1-D array of J parameter
    values to the local D-optimal designs as ``(J, n)`` arrays of points and
    weights; zero weights pad a shorter design.  Without it local designs
    come from the numeric solve.  The one design at a scalar beta is
    ``local.local_design(model, beta)``, checked and cached.

    ``score_dx(x, beta)``, if given, is the x-derivative of ``score`` under
    the same broadcast contract.  The polish then has the exact Jacobian
    of the log-efficiencies, for the mean and the minimum alike; without
    it SLSQP differences them.

    ``widen(x_max)``, if given, is the same model on [lo, x_max]: a model
    whose local optima move with beta (the logistic model's sits at beta
    itself) needs an interval that grows with the parameter range.  The CLI
    and the artifact reader rebuild the model through it; ``None`` keeps
    the interval fixed.

    ``theory_defaults`` are the ``theory`` command's defaults: the scale
    ("log" or "identity") on which Q decays, the constants (c1, gamma) of
    its exponential envelope c1 e^(-gamma |z|), and the band radius lambda.
    """

    name: str
    m: int
    m_eta: int
    design_interval: tuple
    beta_range: tuple
    score: Callable[[np.ndarray, float], np.ndarray] = field(repr=False)
    analytic_local: Optional[Callable[[np.ndarray], tuple]] = field(
        default=None, repr=False
    )
    fixed_support: tuple = ()
    score_dx: Optional[Callable[[np.ndarray, float], np.ndarray]] = field(
        default=None, repr=False
    )
    widen: Optional[Callable[[float], "Model"]] = field(default=None, repr=False)
    theory_defaults: tuple = ("log", math.e ** 2, 2.0, math.log(2.0))

    def __post_init__(self):
        if not 0 <= self.m_eta < self.m:
            raise ValueError("need 0 <= m_eta < m")
        if len(self.fixed_support) != self.m_eta:
            raise ValueError("fixed_support must have exactly m_eta entries")
        lo, hi = self.design_interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"design interval [{lo}, {hi}] needs finite "
                             "ends lo < hi")
        for x in self.fixed_support:
            if not lo <= x <= hi:
                raise ValueError(f"fixed support point {x} outside design interval")

    def check_beta(self, beta) -> None:
        """BetaDomainError unless beta (a scalar or an array) is finite and
        in beta_range."""
        lo, hi = self.beta_range
        b = np.asarray(beta, dtype=float)
        bad = ~(np.isfinite(b) & (lo <= b) & (b <= hi))
        if bad.any():
            raise BetaDomainError(f"beta={b[bad][0]} outside admissible range "
                                  f"[{lo}, {hi}] for {self.name}")

    def check_points(self, points) -> None:
        lo, hi = self.design_interval
        x = np.asarray(points, dtype=float)
        bad = ~((lo - 1e-12 <= x) & (x <= hi + 1e-12))
        if bad.any():
            raise ValueError(f"design point {x[bad][0]} outside interval [{lo}, {hi}]")

    def score_matrix(self, x: np.ndarray, betas) -> np.ndarray:
        """Scores for a 1-D array of J parameter values: one broadcast call
        giving the (J, n, m) stack, at the same n points for every value
        or, for x of shape (J, n), at row j of x for value j.  Callers go
        through design.stacked_scores, which checks the shape."""
        return self.score(np.atleast_2d(x), np.asarray(betas)[:, None])


def _exp1_score(x, beta):
    return (x * np.exp(-beta * x))[..., None]


def _exp1_score_dx(x, beta):
    return ((1.0 - beta * x) * np.exp(-beta * x))[..., None]


def _exp1_local(betas):
    return np.clip(1.0 / betas, 0.0, 1.0)[:, None], np.ones((len(betas), 1))


def _exp2_score(x, beta):
    e = np.exp(-beta * x)
    F = np.empty(e.shape + (2,))
    F[..., 0] = 1.0
    F[..., 1] = -x * e
    return F


def _exp2_score_dx(x, beta):
    e = np.exp(-beta * x)
    F = np.empty(e.shape + (2,))
    F[..., 0] = 0.0
    F[..., 1] = (beta * x - 1.0) * e
    return F


def _exp2_local(betas):
    P = np.stack([np.zeros(len(betas)), np.minimum(1.0 / betas, 1.0)], axis=1)
    return P, np.full(P.shape, 0.5)


def _exp3_score(x, beta):
    # alpha2 is fixed to 1: every determinant scales by alpha2^2 uniformly
    # over designs, so criteria ratios and maximizers do not depend on it.
    e = np.exp(-beta * x)
    F = np.empty(e.shape + (3,))
    F[..., 0] = 1.0
    F[..., 1] = e
    F[..., 2] = -x * e
    return F


def _exp3_score_dx(x, beta):
    e = np.exp(-beta * x)
    F = np.empty(e.shape + (3,))
    F[..., 0] = 0.0
    F[..., 1] = -beta * e
    F[..., 2] = (beta * x - 1.0) * e
    return F


def _exp3_local(betas):
    """Local D-optimal designs of the three-parameter exponential model:
    equal weights at {0, x*, 1}, x* the maximizer of h(0, x, 1, beta)^2.

    With s = e^{-beta}, h = e^{-beta x} (x (1 - s) + s) - s has the one
    interior critical point x* = 1/beta - 1/(e^beta - 1).  Below beta = 0.05
    that difference cancels, and x* is its Bernoulli series; both forms are
    within 1e-14 of x* on the whole beta_range.
    """
    s = np.minimum(betas, 0.05)
    series = 0.5 + s * (-1.0 / 12.0 + s * s * (1.0 / 720.0 - s * s / 30240.0))
    direct = 1.0 / betas - np.exp(-betas) / -np.expm1(-betas)
    x = np.where(betas < 0.05, series, direct)
    P = np.stack([np.zeros_like(x), x, np.ones_like(x)], axis=1)
    return P, np.full(P.shape, 1.0 / 3.0)


def _logistic_score(x, beta):
    # Scalar Fisher information e^{x-beta}/(1+e^{x-beta})^2; the score is
    # its square root, written in |x-beta| so that exp cannot overflow.
    a = -np.abs(x - beta)
    return (np.exp(a / 2.0) / (1.0 + np.exp(a)))[..., None]


def _logistic_score_dx(x, beta):
    # the score is f = 1/(2 cosh(u/2)), u = x - beta: f' = -f tanh(u/2)/2
    return -_logistic_score(x, beta) * np.tanh((x - beta) / 2.0)[..., None] / 2.0


def make_logistic(x_max: float = 30.0) -> Model:
    """Binary-response model on [0, x_max]; the local optimum sits at beta."""

    def local(betas):
        return np.clip(betas, 0.0, x_max)[:, None], np.ones((len(betas), 1))

    return Model(
        name="logistic",
        m=1,
        m_eta=0,
        design_interval=(0.0, x_max),
        beta_range=(0.0, math.inf),
        score=_logistic_score,
        score_dx=_logistic_score_dx,
        analytic_local=local,
        widen=make_logistic,
        theory_defaults=("identity", 4.0 * math.e, 1.0, 1.0),
    )


EXP1 = Model(
    name="exp1",
    m=1,
    m_eta=0,
    design_interval=(0.0, 1.0),
    beta_range=(1e-12, math.inf),
    score=_exp1_score,
    score_dx=_exp1_score_dx,
    analytic_local=_exp1_local,
)

EXP2 = Model(
    name="exp2",
    m=2,
    m_eta=1,
    design_interval=(0.0, 1.0),
    beta_range=(1e-12, math.inf),
    score=_exp2_score,
    score_dx=_exp2_score_dx,
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
    score_dx=_exp3_score_dx,
    analytic_local=_exp3_local,
    fixed_support=(0.0, 1.0),
)

LOGISTIC = make_logistic()

_BUILTINS = {"exp1": EXP1, "exp2": EXP2, "exp3": EXP3, "logistic": LOGISTIC}


def get_model(name: str) -> Model:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; choose from {sorted(_BUILTINS)}")


def q_efficiency(model: Model, beta: float, beta_tilde: float) -> float:
    """Information loss Q = det M(xi[beta_tilde], beta) / det M(xi[beta], beta).

    Both determinants come from one :func:`local.local_dets` call: the
    model's analytic oracle, else the numeric solve.  A singular numerator
    yields 0; a singular denominator is a hard error (the local design must
    be nonsingular), and so is a non-finite determinant on either side
    (ArithmeticError from det_stack).
    """
    from .local import local_dets

    num, den = local_dets(model, [beta_tilde, beta], [beta])[0]
    if den <= 0.0:
        raise ArithmeticError("singular denominator: local design is not D-optimal")
    return float(num / den) if num > 0.0 else 0.0


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
