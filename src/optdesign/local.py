"""Local D-optimal designs on a discretized interval, with certification.

The optimizer combines multiplicative weight updates w <- w * d/m with
occasional vertex-exchange steps toward the maximizer of the directional
derivative.  The same engine drives the Bayesian and maximin solvers: it
maximizes any weighted average of log-determinants over probability vectors
on the grid.  A local design is the Bayes design of a point-mass prior, so
:func:`solve_local` runs the Bayes solve.  All three criteria are a
:class:`Criterion` and share one equivalence audit, :func:`certify`, and one
polish-certify-exchange loop, :func:`refine`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .design import (
    DesignMeasure,
    NEG_INF,
    default_merge,
    det_info,
    stacked_scores,
)
from .models import Model

ACTIVE_TOL = 1e-5  # relative efficiency band of the maximin active set
_NODE_BLOCK = 16  # parameter nodes per block of derivative evaluations
_VERTEX_EVERY = 5  # engine phase 1: every 5th step is a vertex exchange
_SUPPORT_EPS = 1e-10  # engine phase 2: support = weights above eps * max
_NEWTON_ITERS = 60  # Newton steps of the weight solve on a fixed support
_EXCHANGE_ROUNDS = 8  # refine: polish-certify-exchange rounds
_EXCHANGE_WEIGHT = 0.03  # refine: weight of an inserted audit point
_EXCHANGE_NEAR = 1e-6  # refine: a worst point this near the support stops it
_GAME_STRIDE = 20  # matrix game: the first restricted game takes every 20th
_GAME_TOL = 1e-12  # matrix game: generation tolerance, relative to max|dmat|
# HiGHS at its tightest feasibility tolerances: at the default 1e-7 the last
# restricted game of the degenerate EXP1 grid at B = 150 ends with in-set
# duals 8e-8 off, and its mu 1.4e-8 above the game value
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


class InfeasibleGridError(RuntimeError):
    """The grid cannot support a nonsingular information matrix."""


class SingularInformationError(ArithmeticError):
    """Directional derivative requested at a singular information matrix."""


@dataclass(frozen=True)
class GridSpec:
    count: int = 2001
    spacing: str = "uniform"  # "uniform" | "log-tilted"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("grid count must be at least 2")
        if self.spacing not in ("uniform", "log-tilted"):
            raise ValueError(f"unknown spacing {self.spacing!r}")


@dataclass(frozen=True)
class EquivalenceCertificate:
    max_directional_derivative: float
    bound: float
    tolerance: float
    worst_point: float
    passed: bool
    least_favorable_weights: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {
            "max_directional_derivative": self.max_directional_derivative,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "worst_point": self.worst_point,
            "passed": self.passed,
        }
        if self.least_favorable_weights is not None:
            d["least_favorable_weights"] = {
                repr(k): v for k, v in self.least_favorable_weights.items()
            }
        return d


def build_grid(interval, spec: GridSpec, extra_points=()) -> np.ndarray:
    """Sorted, de-duplicated grid on the interval, plus any extra points."""
    lo, hi = interval
    if spec.spacing == "uniform":
        x = np.linspace(lo, hi, spec.count)
    else:
        # denser near the lower endpoint; used when support clusters near 0
        t = np.geomspace(1e-7, 1.0, spec.count - 1)
        x = np.concatenate(([lo], lo + (hi - lo) * t))
    if len(extra_points):
        x = np.concatenate((x, np.asarray(extra_points, dtype=float)))
        x = x[(x >= lo) & (x <= hi)]
    return np.unique(x)


def info_stack(Fs: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.matmul(Fs.transpose(0, 2, 1), Fs * w[None, :, None])


def logdet_stack(Ms: np.ndarray) -> np.ndarray:
    sign, ld = np.linalg.slogdet(Ms)
    ld = np.where(sign > 0, ld, NEG_INF)
    return ld


def dirderiv_stack(Fs: np.ndarray, Ms: np.ndarray) -> np.ndarray:
    """d_{j,k} = f(x_k, beta_j)^T M_j^{-1} f(x_k, beta_j), shape (J, n)."""
    Minv = np.linalg.inv(Ms)
    return (np.matmul(Fs, Minv) * Fs).sum(axis=2)


def moment_matrix(Fs: np.ndarray) -> np.ndarray:
    """Outer products f f^T of the score stack, shape (J*m*m, n): column k
    holds f(x_k, beta_j) f(x_k, beta_j)^T for every j, so that the stack of
    information matrices M_j(w) is (A @ w).reshape(J, m, m), one GEMV."""
    J, n, m = Fs.shape
    return np.einsum("jki,jkl->jilk", Fs, Fs).reshape(J * m * m, n)


def moment_info(A: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """info_stack from the moment matrix A: M_j(w) for every j, (J, m, m)."""
    return (A @ w).reshape(-1, m, m)


def moment_derivative(A: np.ndarray, q: np.ndarray, Ms: np.ndarray) -> np.ndarray:
    """q @ dirderiv_stack from the moment matrix A: the weighted derivative
    sum_j q_j f_j^T M_j^{-1} f_j at every grid point, one GEMV."""
    return (q[:, None, None] * np.linalg.inv(Ms)).ravel() @ A


def _weighted_logdet(q: np.ndarray, Ms: np.ndarray) -> float:
    """sum_j q_j log det M_j; NEG_INF if any M_j is singular."""
    ld = logdet_stack(Ms)
    if not np.all(np.isfinite(ld)):
        return NEG_INF
    return float(q @ ld)


def _newton_weights(Fs_S: np.ndarray, q: np.ndarray, wS: np.ndarray, m: int):
    """Exact weight optimization on a fixed (small) support.

    Equality-constrained Newton on sum_j q_j log det M_j(w), Sum w = 1,
    with backtracking to stay strictly inside the simplex.
    """
    s = len(wS)
    w = np.array(wS, dtype=float)
    w = np.clip(w, 1e-14, None)
    w /= w.sum()

    c = _weighted_logdet(q, info_stack(Fs_S, w))
    for _ in range(_NEWTON_ITERS):
        Ms = info_stack(Fs_S, w)
        try:
            Minv = np.linalg.inv(Ms)
        except np.linalg.LinAlgError:
            break
        B = np.matmul(np.matmul(Fs_S, Minv), Fs_S.transpose(0, 2, 1))
        g = (q[:, None] * np.diagonal(B, axis1=1, axis2=2)).sum(axis=0)
        if np.max(np.abs(g - m)) <= 1e-12 * m:
            break
        H = -(q[:, None, None] * B * B).sum(axis=0)
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = H - 1e-12 * max(1.0, float(np.abs(H).max())) * np.eye(s)
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        rhs = np.concatenate((-g, [0.0]))
        try:
            delta = np.linalg.solve(kkt, rhs)[:s]
        except np.linalg.LinAlgError:
            break
        step = 1.0
        neg = delta < 0
        if neg.any():
            step = min(1.0, 0.9 * np.min(-w[neg] / delta[neg]))
        improved = False
        for _ in range(40):
            wc = w + step * delta
            if wc.min() > 0.0:
                cc = _weighted_logdet(q, info_stack(Fs_S, wc))
                if cc >= c:
                    w, c = wc / wc.sum(), cc
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break
    return w, c


def maximize_weighted_logdet(
    Fs: np.ndarray,
    q: np.ndarray,
    w0: np.ndarray,
    m: int,
    tol: float = 1e-9,
    max_iter: int = 2000,
):
    """Maximize sum_j q_j log det M_j(w) over the probability simplex.

    Multiplicative updates and vertex-exchange steps locate the support;
    exact Newton solves on the support finish to the equivalence tolerance.
    The first phase takes at most max_iter steps.  Every M_j(w) and the
    weighted derivative D = sum_j q_j d_j come from one moment matrix (one
    GEMV each), and the M of the accepted iterate is carried to the next
    step.  Returns (w, max_dirderiv, criterion_history): max_dirderiv is
    the largest D at the returned w, and the criterion history is
    nondecreasing.
    """
    n = Fs.shape[1]
    A = moment_matrix(Fs)

    w = np.array(w0, dtype=float)
    w = np.clip(w, 0.0, None)
    w /= w.sum()

    history = []
    Ms = moment_info(A, w, m)
    c = _weighted_logdet(q, Ms)
    if c == NEG_INF:
        raise InfeasibleGridError("initial weights give a singular matrix")
    history.append(c)

    # phase 1: multiplicative + vertex exchange until roughly converged
    rough_tol = max(tol, 1e-4)
    for it in range(max_iter):
        D = moment_derivative(A, q, Ms)  # (n,)
        maxd = float(D.max())
        if maxd <= m * (1.0 + rough_tol):
            break
        if (it + 1) % _VERTEX_EVERY == 0 and maxd > m:
            # Fedorov-style step toward the best point, with backtracking
            k = int(np.argmax(D))  # ties: lowest x wins (grid is sorted)
            alpha = (maxd / m - 1.0) / (maxd - 1.0) if maxd > 1.0 else 0.5
            alpha = min(max(alpha, 1e-8), 0.9)
            accepted = False
            for _ in range(20):
                wc = (1.0 - alpha) * w
                wc[k] += alpha
                Mc = moment_info(A, wc, m)
                cc = _weighted_logdet(q, Mc)
                if cc >= c:
                    w, Ms, c = wc, Mc, cc
                    accepted = True
                    break
                alpha *= 0.5
            if accepted:
                history.append(c)
                continue
        w = w * D / m
        s = w.sum()
        if not np.isfinite(s) or s <= 0:
            raise InfeasibleGridError("weight update collapsed")
        w /= s
        Ms = moment_info(A, w, m)
        c = _weighted_logdet(q, Ms)
        history.append(c)

    # phase 2: cluster collapse + restricted Newton + exchange
    for _ in range(60):
        D = moment_derivative(A, q, Ms)
        maxd = float(D.max())
        if maxd <= m * (1.0 + tol):
            break

        # collapse each run of adjacent support indices onto its best point
        sup = np.flatnonzero(w > _SUPPORT_EPS * w.max())
        reps, repw = [], []
        run = [sup[0]]
        for i in sup[1:]:
            if i == run[-1] + 1:
                run.append(i)
            else:
                r = run[int(np.argmax(D[run]))]
                reps.append(r)
                repw.append(w[run].sum())
                run = [i]
        r = run[int(np.argmax(D[run]))]
        reps.append(r)
        repw.append(w[run].sum())
        if len(reps) > 40:  # defensive cap; true supports here are tiny
            order = np.argsort(repw)[::-1][:40]
            reps = [reps[i] for i in order]
            repw = [repw[i] for i in order]
        k = int(np.argmax(D))
        if k not in reps:
            reps.append(k)
            repw.append(0.0)
        reps = np.asarray(reps)
        repw = np.asarray(repw, dtype=float)
        repw = np.clip(repw, 1e-12, None)
        repw /= repw.sum()

        wS, cS = _newton_weights(Fs[:, reps, :], q, repw, m)
        if cS >= c:
            w = np.zeros(n)
            w[reps] = wS
            Ms, c = moment_info(A, w, m), cS
            history.append(c)
        else:
            # collapse lost ground: fall back to a plain exchange step
            alpha = (maxd / m - 1.0) / (maxd - 1.0) if maxd > 1.0 else 0.5
            alpha = min(max(alpha, 1e-10), 0.9)
            for _ in range(30):
                wc = (1.0 - alpha) * w
                wc[k] += alpha
                Mc = moment_info(A, wc, m)
                cc = _weighted_logdet(q, Mc)
                if cc >= c:
                    w, Ms, c = wc, Mc, cc
                    history.append(c)
                    break
                alpha *= 0.5
            else:
                break  # no improving step left at this resolution

    w[w < 1e-15] = 0.0
    w /= w.sum()
    maxd = float(moment_derivative(A, q, moment_info(A, w, m)).max())
    return w, maxd, history


def transfer_weights(x_old, w_old, x_new) -> np.ndarray:
    """Map weights onto the nearest points of a new grid."""
    w = np.zeros(len(x_new))
    idx = np.clip(np.searchsorted(x_new, x_old), 0, len(x_new) - 1)
    left = np.clip(idx - 1, 0, len(x_new) - 1)
    use_left = np.abs(x_new[left] - x_old) < np.abs(x_new[idx] - x_old)
    idx = np.where(use_left, left, idx)
    np.add.at(w, idx, w_old)
    return w / w.sum()


def audit_grid(interval, design: DesignMeasure, count: int = 8001) -> np.ndarray:
    """Dense grid for certification: uniform cover plus support neighborhoods."""
    lo, hi = interval
    pieces = [np.linspace(lo, hi, count), design.points_array()]
    for p in design.points:
        r = 1e-4 * (hi - lo)
        pieces.append(np.linspace(p - r, p + r, 41))
    x = np.concatenate(pieces)
    return np.unique(x[(x >= lo) & (x <= hi)])


def directional_derivative(
    design: DesignMeasure, model: Model, beta: float, x
) -> float | np.ndarray:
    """trace(M^{-1}(xi, beta) I(x, beta)) at one or many points."""
    vals = Criterion.local(beta).derivative(model, design, x)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _check_nodes(model: Model, design: DesignMeasure, betas) -> None:
    for b in betas:
        model.check_beta(float(b))
    model.check_points(design.points)


def _node_derivatives(model: Model, design: DesignMeasure, betas, x):
    """Yield (j, d), d[i, k] = f(x_k, b)^T M^{-1}(xi, b) f(x_k, b) for the
    nodes b = betas[j + i], in blocks of _NODE_BLOCK nodes so that the score
    stack at x stays at _NODE_BLOCK * len(x) * m entries.

    Raises SingularInformationError if M is singular at any node, by the
    extended-precision det_info: far below a design's own beta a double
    determinant stays positive while M^{-1} is already noise.  The caller
    checks the nodes and the design points.
    """
    if not np.all(det_info(design, model, betas) > 0.0):
        raise SingularInformationError("singular information matrix")
    Ms = info_stack(stacked_scores(model, design.points_array(), betas),
                    design.weights_array())
    for j in range(0, len(betas), _NODE_BLOCK):
        Fx = stacked_scores(model, x, betas[j:j + _NODE_BLOCK])
        yield j, dirderiv_stack(Fx, Ms[j:j + _NODE_BLOCK])


def local_offsets(model: Model, betas) -> np.ndarray:
    """log det of the local optimum at each node: the standardizing offsets."""
    return np.array([local_logdet(model, float(b)) for b in betas])


@dataclass(frozen=True, eq=False)
class Criterion:
    """D-criterion over parameter nodes.

    The log-efficiencies log det M(xi, beta_j) - offsets_j are aggregated as
    their q-weighted mean (local: one node; Bayes: a quadrature rule) or
    their minimum (standardized maximin over a parameter grid).  A "min"
    criterion has no node weights (q is None): :func:`certify` solves for
    the least-favorable ones.
    """

    betas: np.ndarray
    q: Optional[np.ndarray]
    offsets: np.ndarray
    aggregate: str = "mean"  # "mean" | "min"

    @staticmethod
    def local(beta: float) -> "Criterion":
        return Criterion(np.array([float(beta)]), np.ones(1), np.zeros(1))

    @staticmethod
    def maximin(model: Model, betas) -> "Criterion":
        """Worst standardized log-efficiency over the nodes."""
        betas = np.asarray(betas, dtype=float)
        return Criterion(betas, None, local_offsets(model, betas), "min")

    def log_efficiencies(self, model: Model, design: DesignMeasure) -> np.ndarray:
        """log det M(xi, beta_j) - offsets_j; NEG_INF where M is singular.
        The determinants come from det_info, and local_logdet calls this,
        so numerators and offsets share one kernel; a non-finite
        determinant raises ArithmeticError."""
        d = det_info(design, model, self.betas)
        with np.errstate(divide="ignore", invalid="ignore"):
            ld = np.where(d > 0.0, np.log(d), NEG_INF)
        return ld - self.offsets

    def derivative(self, model: Model, design: DesignMeasure, x) -> np.ndarray:
        """Node-weighted directional derivative sum_j q_j d(x, xi, beta_j)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        _check_nodes(model, design, self.betas)
        total = np.zeros(len(x))
        for j, d in _node_derivatives(model, design, self.betas, x):
            total += self.q[j:j + len(d)] @ d
        return total


def _restricted_game(dmat: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Solve the game on dmat[rows][:, cols]: min t s.t. mu^T dmat <= t.
    Returns (mu, p, t): the row mix mu and the column mix p, the duals of
    the column constraints, both on the restricted index sets."""
    sub = dmat[np.ix_(rows, cols)]
    A, n = sub.shape
    c = np.zeros(A + 1)
    c[-1] = 1.0
    A_ub = np.hstack([sub.T, -np.ones((n, 1))])
    A_eq = np.zeros((1, A + 1))
    A_eq[0, :A] = 1.0
    bounds = [(0.0, None)] * A + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=[1.0],
                  bounds=bounds, method="highs", options=_HIGHS_OPTIONS)
    if not res.success:
        raise RuntimeError(f"matrix game LP failed: {res.message}")
    return res.x[:A], -res.ineqlin.marginals, float(res.x[-1])


def _least_favorable_lp(dmat: np.ndarray):
    """Probability vector mu over the rows of dmat minimizing the largest
    entry of mu^T dmat: a matrix game solved as a linear program.

    In the Wong audit the rows are the active betas and the columns the
    audit points; the scalar maximin grid solve also uses it.

    The optimal strategies live on a few rows and columns, so the game is
    solved by row and column generation (Kelley's cutting planes).  The
    restricted game starts on every _GAME_STRIDE-th row and column plus the
    last.  Each round adds every column c with (mu^T dmat)_c > t + tol and
    every row r with (dmat p)_r < t - tol, where t is the restricted value
    and p the restricted column mix.  Sets only grow, and at worst the loop
    ends on the full game, so it needs no round cap.  It stops when neither
    set grows.  The restricted LP bounds the in-set columns and rows,
    and the generation test the others, so then max(mu^T dmat) <= t + tol
    and min(dmat p) >= t - tol: mu and p are a primal-dual pair of the full
    game within a gap of 2 tol, with tol = _GAME_TOL * max|dmat|, plus the
    restricted solves' own error (_HIGHS_OPTIONS).  A non-finite entry
    raises ArithmeticError before any LP: a NaN compares False and would
    never enter a set.
    """
    if not np.all(np.isfinite(dmat)):
        raise ArithmeticError("matrix game has a non-finite payoff")
    A, n = dmat.shape
    tol = _GAME_TOL * float(np.abs(dmat).max())
    in_rows = np.zeros(A, dtype=bool)
    in_cols = np.zeros(n, dtype=bool)
    in_rows[::_GAME_STRIDE] = in_rows[-1] = True
    in_cols[::_GAME_STRIDE] = in_cols[-1] = True
    while True:
        rows, cols = np.flatnonzero(in_rows), np.flatnonzero(in_cols)
        mu_r, p_c, t = _restricted_game(dmat, rows, cols)
        new_cols = ~in_cols & (mu_r @ dmat[rows] > t + tol)
        new_rows = ~in_rows & (dmat[:, cols] @ p_c < t - tol)
        if not (new_cols.any() or new_rows.any()):
            break
        in_cols |= new_cols
        in_rows |= new_rows
    mu = np.zeros(A)
    mu[rows] = np.clip(mu_r, 0.0, None)
    return mu / mu.sum()


def certify(model: Model, design: DesignMeasure,
            criterion: Criterion) -> EquivalenceCertificate:
    """Equivalence audit of the design on the dense audit grid.

    mean (Chaloner & Larntz 1989): the q-weighted directional derivative
    must stay below m.  min (Wong 1992): least-favorable weights mu on the
    active set of near-worst nodes, then the mu-weighted derivative must
    stay below m and sit at m on the support.  Both fail unless the
    xi-average of the derivative, sum_i w_i d(x_i) = m for any nonsingular
    design, holds to the tolerance: a derivative built from an inverse
    that rounding has destroyed reads low everywhere.
    """
    ax = audit_grid(model.design_interval, design)
    sup_idx = np.searchsorted(ax, design.points_array())  # ax holds the points
    mu = None
    if criterion.aggregate == "mean":
        d = criterion.derivative(model, design, ax)
        tol, support_ok = 1e-6, True
    else:
        g = criterion.log_efficiencies(model, design)
        active = np.flatnonzero(np.exp(g) <= math.exp(g.min()) * (1.0 + ACTIVE_TOL))
        betas = criterion.betas[active]
        dmat = np.concatenate(
            [dj for _, dj in _node_derivatives(model, design, betas, ax)])
        weights = _least_favorable_lp(dmat)
        d = weights @ dmat
        tol = ACTIVE_TOL
        support_ok = bool(np.all(np.abs(d[sup_idx] - model.m) <= 1e-4 * model.m))
        mu = {float(b): float(w) for b, w in zip(betas, weights) if w > 1e-12}
    average = float(design.weights_array() @ d[sup_idx])
    support_ok = support_ok and abs(average - model.m) <= tol * model.m
    worst = int(np.argmax(d))
    return EquivalenceCertificate(
        max_directional_derivative=float(d[worst]),
        bound=float(model.m),
        tolerance=tol,
        worst_point=float(ax[worst]),
        passed=bool(d[worst] <= model.m * (1.0 + tol)) and support_ok,
        least_favorable_weights=mu,
    )


def refine(model: Model, criterion: Criterion, x: np.ndarray, w: np.ndarray,
           polish) -> tuple:
    """Polish-certify-exchange from grid weights w on the points x.

    The merged grid support is polished on the continuum by
    polish(model, criterion, points, weights), which returns the merged
    DesignMeasure, and certified.  While the certificate fails, its worst
    audit point joins the support (Wynn 1970) and the polish runs again, for
    at most _EXCHANGE_ROUNDS rounds; a worst point within _EXCHANGE_NEAR of
    the support stops the loop, since inserting it changes no structure.
    Returns (design, certificate).
    """
    design = default_merge(DesignMeasure.from_arrays(x[w > 0], w[w > 0]), model)
    pts, wts = design.points_array(), design.weights_array()
    for _ in range(_EXCHANGE_ROUNDS):
        design = polish(model, criterion, pts, wts)
        cert = certify(model, design, criterion)
        if cert.passed:
            break
        worst_x = cert.worst_point
        if min(abs(worst_x - p) for p in design.points) < _EXCHANGE_NEAR:
            break
        pts = np.append(design.points_array(), worst_x)
        wts = np.append(design.weights_array() * (1.0 - _EXCHANGE_WEIGHT),
                        _EXCHANGE_WEIGHT)
    return design, cert


def solve_local(model: Model, beta: float, grid: GridSpec = GridSpec()):
    """Local D-optimal design for a fixed beta, with an equivalence audit:
    the Bayes design of the point-mass prior at beta."""
    from .bayes import ParameterPrior, solve_bayes

    model.check_beta(beta)
    return solve_bayes(model, ParameterPrior.point_mass(beta), grid)


@functools.lru_cache(maxsize=None)
def local_design(model: Model, beta: float) -> DesignMeasure:
    """Local D-optimal design, via the fastest reliable route for the model:
    the analytic design where the model has one, else the numeric solve,
    which is the point-prior Bayes solve (solve_local -> solve_bayes)."""
    if model.analytic_local is not None:
        return model.analytic_local(beta)
    design, cert = solve_local(model, beta)
    if not cert.passed:
        raise RuntimeError(f"local solve failed certification for beta={beta}")
    return design


@functools.lru_cache(maxsize=None)
def local_logdet(model: Model, beta: float) -> float:
    """log det M(xi[beta], beta), cached; denominator of every efficiency."""
    crit = Criterion.local(beta)
    return float(crit.log_efficiencies(model, local_design(model, beta))[0])
