"""Local D-optimal designs on a discretized interval, with certification.

The optimizer combines multiplicative weight updates w <- w * d/m with
occasional vertex-exchange steps toward the maximizer of the directional
derivative, followed by grid refinement around the surviving support.  The
same engine drives the Bayesian and maximin solvers: it maximizes any
weighted average of log-determinants over probability vectors on the grid.
All three criteria are a :class:`Criterion` and share one equivalence
audit, :func:`certify`.
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
    _det_closed,
    default_merge,
)
from .models import Model

ACTIVE_TOL = 1e-5  # relative efficiency band of the maximin active set
_NODE_BLOCK = 16  # parameter nodes per block of derivative evaluations


class InfeasibleGridError(RuntimeError):
    """The grid cannot support a nonsingular information matrix."""


class SingularInformationError(ArithmeticError):
    """Directional derivative requested at a singular information matrix."""


@dataclass(frozen=True)
class GridSpec:
    count: int = 2001
    spacing: str = "uniform"  # "uniform" | "log-tilted"
    refinement_rounds: int = 3
    refinement_radius: float = 2.0  # in units of the local grid spacing

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("grid count must be at least 2")
        if self.spacing not in ("uniform", "log-tilted"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if self.refinement_rounds > 0 and self.refinement_radius <= 0.0:
            raise ValueError("refinement_radius must be positive when rounds > 0")


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


def stacked_scores(model: Model, x: np.ndarray, betas) -> np.ndarray:
    """Score matrices at all grid points for each beta, shape (J, n, m).

    One broadcast call of ``model.score`` through ``model.score_matrix``;
    see :class:`Model` for the contract (``x`` broadcasts against ``beta``,
    parameter axis last).
    """
    x = np.asarray(x, dtype=float)
    betas = np.asarray(betas, dtype=float)
    want = (len(betas), len(x), model.m)
    contract = (
        f"score of model {model.name!r} must broadcast x against beta and put "
        f"the parameter axis last: x of shape (1, {len(x)}) and beta of shape "
        f"({len(betas)}, 1) should give {want}"
    )
    try:
        Fs = np.asarray(model.score_matrix(x, betas))
    except (ValueError, TypeError, IndexError) as exc:
        raise ValueError(f"{contract}; the call raised {exc!r}") from exc
    if Fs.shape != want:
        raise ValueError(f"{contract}, got {Fs.shape}")
    return Fs


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


def _newton_weights(Fs_S: np.ndarray, q: np.ndarray, wS: np.ndarray, m: int,
                    max_iter: int = 60):
    """Exact weight optimization on a fixed (small) support.

    Equality-constrained Newton on sum_j q_j log det M_j(w), Sum w = 1,
    with backtracking to stay strictly inside the simplex.
    """
    s = len(wS)
    w = np.array(wS, dtype=float)
    w = np.clip(w, 1e-14, None)
    w /= w.sum()

    def crit(wv):
        ld = logdet_stack(info_stack(Fs_S, wv))
        if not np.all(np.isfinite(ld)):
            return NEG_INF
        return float(q @ ld)

    c = crit(w)
    for _ in range(max_iter):
        Ms = info_stack(Fs_S, w)
        Minv = np.linalg.inv(Ms)
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
                cc = crit(wc)
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
    max_iter: int = 100_000,
    vertex_every: int = 5,
    support_eps: float = 1e-10,
):
    """Maximize sum_j q_j log det M_j(w) over the probability simplex.

    Multiplicative updates and vertex-exchange steps locate the support;
    exact Newton solves on the support finish to the equivalence tolerance.
    Returns (w, max_dirderiv, criterion_history); the criterion history is
    nondecreasing.
    """
    n = Fs.shape[1]
    w = np.array(w0, dtype=float)
    w = np.clip(w, 0.0, None)
    w /= w.sum()

    def crit(wv):
        ld = logdet_stack(info_stack(Fs, wv))
        if not np.all(np.isfinite(ld)):
            return NEG_INF
        return float(q @ ld)

    history = []
    c = crit(w)
    if c == NEG_INF:
        raise InfeasibleGridError("initial weights give a singular matrix")
    history.append(c)

    # phase 1: multiplicative + vertex exchange until roughly converged
    maxd = math.inf
    rough_tol = max(tol, 1e-4)
    for it in range(min(max_iter, 2000)):
        Ms = info_stack(Fs, w)
        d = dirderiv_stack(Fs, Ms)
        D = q @ d  # (n,)
        maxd = float(D.max())
        if maxd <= m * (1.0 + rough_tol):
            break
        if vertex_every and (it + 1) % vertex_every == 0 and maxd > m:
            # Fedorov-style step toward the best point, with backtracking
            k = int(np.argmax(D))  # ties: lowest x wins (grid is sorted)
            alpha = (maxd / m - 1.0) / (maxd - 1.0) if maxd > 1.0 else 0.5
            alpha = min(max(alpha, 1e-8), 0.9)
            accepted = False
            for _ in range(20):
                wc = (1.0 - alpha) * w
                wc[k] += alpha
                cc = crit(wc)
                if cc >= c:
                    w, c = wc, cc
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
        c = crit(w)
        history.append(c)

    # phase 2: cluster collapse + restricted Newton + exchange
    for _ in range(60):
        Ms = info_stack(Fs, w)
        D = q @ dirderiv_stack(Fs, Ms)
        maxd = float(D.max())
        if maxd <= m * (1.0 + tol):
            break

        # collapse each run of adjacent support indices onto its best point
        sup = np.flatnonzero(w > support_eps * w.max())
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
            c = cS
            history.append(c)
        else:
            # collapse lost ground: fall back to a plain exchange step
            alpha = (maxd / m - 1.0) / (maxd - 1.0) if maxd > 1.0 else 0.5
            alpha = min(max(alpha, 1e-10), 0.9)
            for _ in range(30):
                wc = (1.0 - alpha) * w
                wc[k] += alpha
                cc = crit(wc)
                if cc >= c:
                    w, c = wc, cc
                    history.append(c)
                    break
                alpha *= 0.5
            else:
                break  # no improving step left at this resolution

    w[w < 1e-15] = 0.0
    w /= w.sum()
    return w, maxd, history


def refine_grid(
    x: np.ndarray,
    w: np.ndarray,
    interval,
    radius_factor: float,
    shrink: int = 10,
    keep_every: int = 16,
    support_tol: float = 1e-7,
) -> np.ndarray:
    """Fine grid around the surviving support, plus a coarse global skeleton."""
    lo, hi = interval
    sup = np.flatnonzero(w > support_tol)
    pieces = [x[::keep_every], x[sup], np.array([lo, hi])]
    gaps = np.diff(x)
    for i in sup:
        left = gaps[i - 1] if i > 0 else gaps[0]
        right = gaps[i] if i < len(gaps) else gaps[-1]
        s = min(left, right)
        r = radius_factor * s
        npts = 2 * int(round(radius_factor * shrink)) + 1
        pieces.append(np.linspace(x[i] - r, x[i] + r, npts))
    newx = np.concatenate(pieces)
    return np.unique(newx[(newx >= lo) & (newx <= hi)])


def transfer_weights(x_old, w_old, x_new) -> np.ndarray:
    """Map weights onto the nearest points of a new grid."""
    w = np.zeros(len(x_new))
    idx = np.clip(np.searchsorted(x_new, x_old), 0, len(x_new) - 1)
    left = np.clip(idx - 1, 0, len(x_new) - 1)
    use_left = np.abs(x_new[left] - x_old) < np.abs(x_new[idx] - x_old)
    idx = np.where(use_left, left, idx)
    np.add.at(w, idx, w_old)
    return w / w.sum()


def _seed_weights(x: np.ndarray, seed: Optional[DesignMeasure]) -> np.ndarray:
    w = np.full(len(x), 1.0 / len(x))
    if seed is None:
        return w
    w *= 0.1
    ws = transfer_weights(seed.points_array(), seed.weights_array(), x)
    return w + 0.9 * ws


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

    Raises SingularInformationError if M is singular at any node.  The
    caller checks the nodes and the design points.
    """
    Ms = info_stack(stacked_scores(model, design.points_array(), betas),
                    design.weights_array())
    dets = np.linalg.det(Ms) if model.m > 1 else Ms[:, 0, 0]
    if design.n < model.m or not np.all((dets > 0.0) & np.isfinite(dets)):
        raise SingularInformationError("singular information matrix")
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
        Closed-form determinants, as in local_logdet, which calls this."""
        _check_nodes(model, design, self.betas)
        if design.n < model.m:  # fewer points than parameters: singular
            return np.full(len(self.betas), NEG_INF)
        Fs = stacked_scores(model, design.points_array(), self.betas)
        Ms = info_stack(Fs, design.weights_array())
        d = _det_closed(0.5 * (Ms + Ms.transpose(0, 2, 1)))
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


def _least_favorable_lp(dmat: np.ndarray):
    """Probability vector mu over the rows of dmat minimizing the largest
    entry of mu^T dmat: a matrix game solved as a linear program.

    In the Wong audit the rows are the active betas and the columns the
    audit points; the scalar maximin grid solve also uses it.
    """
    A, n = dmat.shape
    c = np.zeros(A + 1)
    c[-1] = 1.0
    A_ub = np.hstack([dmat.T, -np.ones((n, 1))])
    b_ub = np.zeros(n)
    A_eq = np.zeros((1, A + 1))
    A_eq[0, :A] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * A + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if not res.success:
        raise RuntimeError(f"matrix game LP failed: {res.message}")
    mu = np.clip(res.x[:A], 0.0, None)
    return mu / mu.sum()


def certify(model: Model, design: DesignMeasure,
            criterion: Criterion) -> EquivalenceCertificate:
    """Equivalence audit of the design on the dense audit grid.

    mean (Chaloner & Larntz 1989): the q-weighted directional derivative
    must stay below m.  min (Wong 1992): least-favorable weights mu on the
    active set of near-worst nodes, then the mu-weighted derivative must
    stay below m and sit at m on the support.
    """
    ax = audit_grid(model.design_interval, design)
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
        sup_idx = [int(np.argmin(np.abs(ax - p))) for p in design.points]
        support_ok = all(abs(d[i] - model.m) <= 1e-4 * model.m for i in sup_idx)
        mu = {float(b): float(w) for b, w in zip(betas, weights) if w > 1e-12}
    worst = int(np.argmax(d))
    return EquivalenceCertificate(
        max_directional_derivative=float(d[worst]),
        bound=float(model.m),
        tolerance=tol,
        worst_point=float(ax[worst]),
        passed=bool(d[worst] <= model.m * (1.0 + tol)) and support_ok,
        least_favorable_weights=mu,
    )


def solve_local(model: Model, beta: float, grid: GridSpec = GridSpec()):
    """Local D-optimal design for a fixed beta, with an equivalence audit."""
    model.check_beta(beta)
    seed = model.analytic_local(beta) if model.analytic_local else None
    extra = list(model.fixed_support) + (list(seed.points) if seed else [])
    x = build_grid(model.design_interval, grid, extra_points=extra)
    w = _seed_weights(x, seed)

    history = []
    for round_ in range(grid.refinement_rounds + 1):
        w, _, hist = maximize_weighted_logdet(
            Fs=stacked_scores(model, x, [beta]),
            q=np.array([1.0]),
            w0=w,
            m=model.m,
        )
        history.extend(hist)
        if round_ < grid.refinement_rounds:
            x_new = refine_grid(x, w, model.design_interval, grid.refinement_radius)
            x_new = np.unique(np.concatenate((x_new, np.asarray(extra))))
            w = transfer_weights(x, w, x_new)
            x = x_new

    raw = DesignMeasure.from_arrays(x[w > 0], w[w > 0])
    design = default_merge(raw, model)
    crit = Criterion.local(beta)
    if crit.log_efficiencies(model, design)[0] == NEG_INF:
        raise InfeasibleGridError("grid too coarse: optimal design is singular")

    cert = certify(model, design, crit)
    return design, cert


def _exp3_local_design(beta: float) -> DesignMeasure:
    """Local D-optimal design of the three-parameter exponential model.

    Local optima have equal weights at {0, x*, 1}; x* maximizes the
    three-point Gram determinant, a one-dimensional problem.
    """
    from scipy.optimize import minimize_scalar

    from .models import h_function

    # bracket scan: h_function(0, x, 1, beta)^2 on the whole grid in one
    # expression (e^{-beta * 0} = 1); only its argmax is used, to bracket
    # the bounded refine of the scalar h_function below
    xs = np.linspace(1e-6, 1.0 - 1e-6, 1001)
    e2 = np.exp(-beta * xs)
    e3 = math.exp(-beta)
    vals = (xs * e2 * (1.0 - e3) + e3 * (e2 - 1.0)) ** 2
    k = int(np.argmax(vals))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    res = minimize_scalar(
        lambda xx: -h_function(0.0, xx, 1.0, beta) ** 2,
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    third = 1.0 / 3.0
    return DesignMeasure((0.0, float(res.x), 1.0), (third, third, third))


@functools.lru_cache(maxsize=None)
def local_design(model: Model, beta: float) -> DesignMeasure:
    """Local D-optimal design, via the fastest reliable route for the model."""
    if model.analytic_local is not None:
        return model.analytic_local(beta)
    if model.name == "exp3":
        return _exp3_local_design(beta)
    design, cert = solve_local(model, beta)
    if not cert.passed:
        raise RuntimeError(f"local solve failed certification for beta={beta}")
    return design


@functools.lru_cache(maxsize=None)
def local_logdet(model: Model, beta: float) -> float:
    """log det M(xi[beta], beta), cached; denominator of every efficiency."""
    crit = Criterion.local(beta)
    return float(crit.log_efficiencies(model, local_design(model, beta))[0])
