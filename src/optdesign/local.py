"""Local D-optimal designs, the one solve path, and its certificate.

Every criterion is a :class:`Criterion`.  A solve seeds :func:`refine`,
the polish-certify-exchange loop audited by :func:`certify` on a fixed
8,001-point grid, with the band mixture of local designs (:func:`band_seed`),
or without local designs with 21 evenly spaced points plus the fixed
support, or for m = 1 maximin with linear-program weights on a fixed
2,001-point x-grid (:func:`build_grid`).  Both linear programs, the Wong
audit's and the m = 1 seed's, are matrix games that
:func:`_least_favorable_lp` solves by row and column generation; it reads
the payoff through a block oracle, block(rows, cols), and evaluates only
the in-set rows and columns, so the seed scores a fraction of its grid.
Weights for the q-weighted mean of log-determinants come from
:func:`maximize_weighted_logdet`, a damped Newton solve on a few
candidates.  A local design is the Bayes design of a point-mass prior:
:func:`solve_local` runs that solve.  The certificate's derivative
f^T M^{-1} f is ||f R^{-1}||^2, R the QR factor of the weighted design
scores, from one kernel, :func:`_squared_planes`, which the weight solve's
closing maximum shares: the m planes of f R^{-1}, each a sum over the upper
triangle of R^{-1}.  The mean weights each plane by the node weights q and
sums, and never forms a per-node derivative; the Wong audit keeps one row
per node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

from .design import (
    DesignMeasure,
    NEG_INF,
    canonical_merge,
    default_merge,
    det_info,
    det_stack,
    stacked_scores,
)
from .models import Model
from .scales import ScaleFunction, logarithm

ACTIVE_TOL = 1e-5  # relative efficiency band of the maximin active set
_SEED_POINTS = 2001  # uniform x-grid of the m = 1 maximin LP (build_grid)
_AUDIT_POINTS = 8001  # uniform cover of the certificate's audit grid
# parameter nodes per block of the certificate's derivative: each plane of
# a block is one (8, n) array; 8 was faster than 16 and 32 on the Bayes
# audits of the benchmark (EXP1 with 200 nodes, EXP2 and EXP3 with 50)
_NODE_BLOCK = 8
_NEWTON_ITERS = 60  # Newton steps of the weight solve
_POLISH_ITERS = 400  # SLSQP iterations of the polish
_EXCHANGE_ROUNDS = 8  # refine: polish-certify-exchange rounds
_EXCHANGE_WEIGHT = 0.03  # refine: weight shared by the inserted audit points
_EXCHANGE_NEAR = 1e-6  # refine: a peak this near the support is not inserted
_GAME_STRIDE = 20  # matrix game: the first restricted game takes every 20th
_GAME_TOL = 1e-12  # matrix game: generation tolerance, relative to max|dmat|
# HiGHS options of every game model, set in this order; a rejected name or
# value raises ValueError when the model is built.  output_flag: no log.
# Feasibility tolerances 1e-10, not the default 1e-7: on 13 maximin solves
# (EXP1, EXP2 and logistic, B up to 5000) the defaults left 36 restricted
# games whose two simplex answers both failed the _GAME_GAP check, three
# failed certificates and one unsolved game.  presolve off: a restricted
# game is small and dense, and on the same solves presolve added 29% to the
# HiGHS time.
_HIGHS_OPTIONS = {"output_flag": False,
                  "primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10,
                  "presolve": "off"}
# largest restricted gap max(mu^T D) - min(D p) accepted, relative to
# max|dmat|: HiGHS's internal scaling lets sound answers reach 3.3e-10
_GAME_GAP = 1e-8


class SingularInformationError(ArithmeticError):
    """Directional derivative requested at a singular information matrix."""


class MatrixGameError(ArithmeticError):
    """A restricted matrix game that no rung of HiGHS's retry ladder (warm
    simplex, simplex on a fresh model, interior point) solves to within
    _GAME_GAP."""


@dataclass(frozen=True)
class EquivalenceCertificate:
    max_directional_derivative: float
    bound: float
    tolerance: float
    worst_point: float
    passed: bool
    least_favorable_weights: Optional[dict] = None
    # audit points at the local maxima of the derivative above the bound:
    # the exchange candidates of refine (not serialized)
    peaks: tuple = ()

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


def build_grid(interval) -> np.ndarray:
    """Uniform grid of _SEED_POINTS points on the interval, the candidates
    of the m = 1 maximin linear program."""
    return np.linspace(*interval, _SEED_POINTS)


def info_stack(Fs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """M_j = sum_k w_k f_jk f_jk^T, weights w of shape (n,) or (J, n)."""
    return np.matmul(Fs.transpose(0, 2, 1), Fs * w[..., None])


def logdet_stack(Ms: np.ndarray) -> np.ndarray:
    sign, ld = np.linalg.slogdet(Ms)
    ld = np.where(sign > 0, ld, NEG_INF)
    return ld


def dirderiv_stack(Fs: np.ndarray, Ms: np.ndarray) -> np.ndarray:
    """d_{j,k} = f(x_k, beta_j)^T M_j^{-1} f(x_k, beta_j), shape (J, n)."""
    Minv = np.linalg.inv(Ms)
    return (np.matmul(Fs, Minv) * Fs).sum(axis=2)


def _inverse_factor(Fs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """R_j^{-1}, R_j the QR factor of sqrt(w_i) f(x_i, beta_j), so that
    f^T M_j^{-1} f = ||f R_j^{-1}||^2: R's condition number is the square
    root of M's, so this holds far below a design's own beta, where an
    inverse of M is noise.  LinAlgError for a non-square or exactly
    singular R."""
    return np.linalg.inv(np.linalg.qr(np.sqrt(w)[:, None] * Fs, mode="r"))


def maximize_weighted_logdet(Fs: np.ndarray, q: np.ndarray, w0: np.ndarray,
                             m: int, tol: float = 1e-12):
    """Design weights maximizing Phi(w) = sum_j q_j log det M_j(w) on the
    probability simplex over the candidate columns of Fs.

    Damped equality-constrained Newton (Boyd & Vandenberghe 2004, sec.
    9.5-9.6) from w0, with d_j = f^T M_j^{-1} f from :func:`_inverse_factor`:
    the step 1 / (1 + lambda), lambda the Newton decrement, cut to 0.9 of
    the way to the simplex boundary.  A weight a step drives below 1e-12
    becomes exactly 0 and leaves the solve, so a candidate whose optimal
    weight is 0 does not linger at 1e-60.  It stops when the KKT residual
    max |d(x_i) - m| on the support, d = sum_j q_j d_j, is at most tol * m,
    at a singular M, or after _NEWTON_ITERS steps; no criterion value is
    compared, so slogdet rounding rejects no step.

    Returns (w, maxd, history): maxd is the largest d over all columns at w,
    pruned ones included (inf at a singular M); history holds the KKT
    residual of each step.
    """
    w = np.asarray(w0, dtype=float) / np.sum(w0)
    history = []
    for _ in range(_NEWTON_ITERS):
        S = np.flatnonzero(w)
        F, wS = Fs[:, S], w[S]
        try:
            G = np.matmul(F, _inverse_factor(F, wS))  # G G^T = F M^-1 F^T
        except np.linalg.LinAlgError:
            break
        B = np.matmul(G, G.transpose(0, 2, 1))
        g = (q[:, None] * np.diagonal(B, axis1=1, axis2=2)).sum(axis=0)
        history.append(float(np.max(np.abs(g - m))))
        if history[-1] <= tol * m:
            break
        H = -(q[:, None, None] * B * B).sum(axis=0)
        s = len(S)
        kkt = np.ones((s + 1, s + 1))
        kkt[:s, :s] = H - 1e-12 * max(1.0, float(np.abs(H).max())) * np.eye(s)
        kkt[s, s] = 0.0
        try:
            delta = np.linalg.solve(kkt, np.r_[-g, 0.0])[:s]
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        step = 1.0 / (1.0 + math.sqrt(max(-float(delta @ H @ delta), 0.0)))
        neg = delta < 0
        if neg.any():
            step = min(step, 0.9 * np.min(-wS[neg] / delta[neg]))
        wS = wS + step * delta
        wS[wS < 1e-12] = 0.0
        w[S] = wS / wS.sum()
    try:
        Rinv = _inverse_factor(Fs, w)
    except np.linalg.LinAlgError:
        return w, math.inf, history
    return w, float(_weighted_derivative(q, Fs, Rinv).max()), history


def band_mixture(model: Model, scale: ScaleFunction, beta_min: float,
                 beta_max: float, lam: float) -> DesignMeasure:
    """Equal-weight mixture of local designs at band-spaced parameters
    (Braess & Dette 2007).

    Places n = max(ceil(B / (2 lam)), 1) parameters at the midpoints of n
    equal cells of the scale l, B = l(beta_max) - l(beta_min), so
    consecutive parameters are at most 2 lam apart and every parameter in
    the range is within lam of one of them; a point range gives its local
    design.  Exact duplicates (a fixed support shared by the local designs)
    merge.
    """
    B = scale.span(beta_min, beta_max)
    n = max(int(math.ceil(B / (2.0 * lam))), 1)
    targets = scale(beta_min) + (2 * np.arange(1, n + 1) - 1) * B / (2 * n)
    P, W, _ = local_stack(model, scale.invert(targets, beta_min, beta_max))
    keep = W > 0.0
    return canonical_merge(DesignMeasure(P[keep], W[keep] / n), 0.0, 0.0)


def band_seed(model: Model, beta_min: float, beta_max: float) -> tuple:
    """Points and weights of the band mixture between the extreme
    parameters, log scale and lam = log 2: the seed of the mean, and of the
    minimum for m > 1."""
    d = band_mixture(model, logarithm(), float(beta_min), float(beta_max),
                     math.log(2.0))
    return d.points_array(), d.weights_array()


def audit_grid(interval, design: DesignMeasure) -> np.ndarray:
    """Dense grid for certification: a uniform cover of _AUDIT_POINTS points
    plus support neighborhoods, clipped to the interval, and the support
    points themselves, unclipped: check_points accepts a point up to 1e-12
    outside the interval, and the audit reads its support check there."""
    lo, hi = interval
    pieces = [np.linspace(lo, hi, _AUDIT_POINTS)]
    for p in design.points:
        r = 1e-4 * (hi - lo)
        pieces.append(np.linspace(p - r, p + r, 41))
    x = np.concatenate(pieces)
    return np.unique(np.r_[x[(x >= lo) & (x <= hi)], design.points_array()])


def directional_derivative(
    design: DesignMeasure, model: Model, beta: float, x
) -> float | np.ndarray:
    """trace(M^{-1}(xi, beta) I(x, beta)) at one or many points."""
    vals = Criterion.local(beta).derivative(model, design, x)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _squared_planes(F: np.ndarray, Rinv: np.ndarray):
    """Yield G_a^2 for the m planes G_a = sum_{b <= a} F[:, :, b] Rinv[:, b, a]
    of the product F R^{-1}, each of shape (J, n), so that
    f^T M^{-1} f = ||f R^{-1}||^2 = sum_a G_a^2: the one kernel of the
    certificate's derivative.  R^{-1} from :func:`_inverse_factor` is upper
    triangular, so plane a reads the a + 1 leading score columns, as
    broadcast multiply-adds on (J, n) arrays; for m = 1 each entry is one
    rounded product, as in a matrix product.  An overflow or a NaN score
    gives a non-finite plane, which the callers check."""
    for a in range(F.shape[2]):
        with np.errstate(over="ignore", invalid="ignore"):
            G = F[:, :, 0] * Rinv[:, 0, a, None]
            for b in range(1, a + 1):
                G += F[:, :, b] * Rinv[:, b, a, None]
            G *= G
        yield G


def _weighted_derivative(q: np.ndarray, F: np.ndarray,
                         Rinv: np.ndarray) -> np.ndarray:
    """sum_j q_j f(x_k, beta_j)^T M_j^{-1} f(x_k, beta_j), shape (n,): the
    node weights go onto each plane of :func:`_squared_planes`, so no
    per-node derivative is formed.  With q finite and >= 0, a non-finite
    plane entry leaves the sum non-finite (0 * inf and 0 * NaN are NaN)."""
    total = np.zeros(F.shape[1])
    for G2 in _squared_planes(F, Rinv):
        with np.errstate(over="ignore", invalid="ignore"):
            total += q @ G2
    return total


def _node_blocks(model: Model, design: DesignMeasure, betas, x):
    """Yield (j, F, Rinv): the scores F at x and the inverse QR factors
    Rinv of the weighted design scores (:func:`_inverse_factor`) for the
    nodes b = betas[j + i], in blocks of _NODE_BLOCK nodes so that the
    score stack at x stays at _NODE_BLOCK * len(x) * m entries.
    SingularInformationError for a design on fewer than m points of
    positive weight or an exactly singular R.
    """
    model.check_beta(betas)
    model.check_points(design.points)
    w = design.weights_array()
    if np.count_nonzero(w) < model.m:
        raise SingularInformationError("singular information matrix")
    try:
        Rinv = _inverse_factor(
            stacked_scores(model, design.points_array(), betas), w)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError("singular information matrix") from exc
    for j in range(0, len(betas), _NODE_BLOCK):
        yield (j, stacked_scores(model, x, betas[j:j + _NODE_BLOCK]),
               Rinv[j:j + _NODE_BLOCK])


def _node_derivatives(model: Model, design: DesignMeasure, betas, x):
    """Yield (j, d), d[i, k] = f(x_k, b)^T M^{-1}(xi, b) f(x_k, b) for the
    nodes b = betas[j + i] of each block of :func:`_node_blocks`: d is the
    sum of the squared planes of :func:`_squared_planes`, the Wong audit's
    payoff rows.  SingularInformationError as in :func:`_node_blocks`, and
    for a non-finite derivative in any block.
    """
    for j, F, Rinv in _node_blocks(model, design, betas, x):
        planes = _squared_planes(F, Rinv)
        d = next(planes)
        for G2 in planes:
            d += G2
        if not np.all(np.isfinite(d)):
            raise SingularInformationError("non-finite directional derivative")
        yield j, d


def local_stack(model: Model, betas):
    """Checked local D-optimal designs at a 1-D array of J parameter values:
    (J, n) points and weights, and the support sizes (positive weights per
    row).  One analytic_local call, else the cached numeric local_design of
    each value, a shorter one padded with zero-weight copies of its first
    point.  BetaDomainError for a value outside the model's beta_range."""
    betas = np.asarray(betas, dtype=float)
    model.check_beta(betas)
    if model.analytic_local is None:
        designs = [local_design(model, float(b)) for b in betas]
        n = max(xi.n for xi in designs)
        P = np.array([xi.points + xi.points[:1] * (n - xi.n) for xi in designs])
        W = np.array([xi.weights + (0.0,) * (n - xi.n) for xi in designs])
    else:
        P, W = model.analytic_local(betas)
    model.check_points(P)
    return P, W, np.count_nonzero(W > 0.0, axis=1)


def local_dets(model: Model, design_betas, betas=None) -> np.ndarray:
    """det M(xi[b_j], b) for the local designs xi[b_j] of :func:`local_stack`
    at design_betas, from one score call and det_info's kernel det_stack
    (a padding weight adds exact zeros to its extended-precision sums): at
    b = b_j, shape (J,), by default, or at every b of betas, (len(betas), J)."""
    P, W, counts = local_stack(model, design_betas)
    if betas is None:
        return det_stack(stacked_scores(model, P, design_betas), W, counts,
                         design_betas)
    model.check_beta(betas)
    k, (J, n) = len(betas), P.shape
    F = stacked_scores(model, P.ravel(), betas).reshape(k * J, n, model.m)
    d = det_stack(F, np.tile(W, (k, 1)), np.tile(counts, k), np.repeat(betas, J))
    return d.reshape(k, J)


def local_offsets(model: Model, betas) -> np.ndarray:
    """log det M(xi[beta], beta) of the local design at each node, the
    standardizing offsets: Criterion.local(beta).log_efficiencies of
    local_design(model, beta) bit for bit, from one :func:`local_dets` call."""
    d = local_dets(model, betas)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d > 0.0, np.log(d), NEG_INF)


@dataclass(frozen=True, eq=False)
class Criterion:
    """D-criterion over parameter nodes.

    The log-efficiencies log det M(xi, beta_j) - offsets_j are aggregated as
    their q-weighted mean (local: one node; Bayes: a quadrature rule) or
    their minimum (standardized maximin over a parameter grid).  q None
    marks the minimum, which has no node weights: :func:`certify` solves
    for the least-favorable ones.
    """

    betas: np.ndarray
    q: Optional[np.ndarray]
    offsets: np.ndarray

    @staticmethod
    def local(beta: float) -> "Criterion":
        return Criterion(np.array([float(beta)]), np.ones(1), np.zeros(1))

    @staticmethod
    def maximin(model: Model, betas) -> "Criterion":
        """Worst standardized log-efficiency over the nodes."""
        betas = np.asarray(betas, dtype=float)
        return Criterion(betas, None, local_offsets(model, betas))

    def log_efficiencies(self, model: Model, design: DesignMeasure) -> np.ndarray:
        """log det M(xi, beta_j) - offsets_j; NEG_INF where M is singular.
        The determinants come from det_info, and :func:`local_offsets` from
        its kernel det_stack, so numerators and offsets share one kernel; a
        non-finite determinant raises ArithmeticError."""
        d = det_info(design, model, self.betas)
        with np.errstate(divide="ignore", invalid="ignore"):
            ld = np.where(d > 0.0, np.log(d), NEG_INF)
        return ld - self.offsets

    def derivative(self, model: Model, design: DesignMeasure, x) -> np.ndarray:
        """Node-weighted directional derivative sum_j q_j d(x, xi, beta_j),
        summed over the blocks of :func:`_node_blocks` by
        :func:`_weighted_derivative`.  SingularInformationError as in
        :func:`_node_blocks`, or for a non-finite total, which a NaN or inf
        term of any node makes, whatever its weight."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        total = np.zeros(len(x))
        for j, F, Rinv in _node_blocks(model, design, self.betas, x):
            total += _weighted_derivative(self.q[j:j + len(F)], F, Rinv)
        if not np.all(np.isfinite(total)):
            raise SingularInformationError("non-finite directional derivative")
        return total


def _game_model(sub: np.ndarray) -> _Highs:
    """A new HiGHS model of the divided game sub, options _HIGHS_OPTIONS.

    LP column 0 is the value t (cost 1, free) and LP row 0 the sum of mu,
    fixed at 1; :func:`_grow_game` then adds the game rows and columns."""
    highs = _Highs()
    for key, value in _HIGHS_OPTIONS.items():
        if highs.setOptionValue(key, value) != HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects the option {key}={value!r}")
    highs.addCols(1, [1.0], [-math.inf], [math.inf], 0, [], [], [])
    highs.addRows(1, [1.0], [1.0], 0, [], [], [])
    _grow_game(highs, sub, 0, 0)
    return highs


def _grow_game(highs: _Highs, sub: np.ndarray, r0: int, c0: int) -> None:
    """Extend a game model of sub[:r0, :c0] to the whole of sub: each new
    game row an LP column mu_r >= 0 (on the sum row and the old column
    rows), then each new game column c an LP row mu^T sub_c - t <= 0.  The
    LP keeps the basis of its last run, so the next run starts from it.
    HiGHS drops entries below its small_matrix_value with a warning; an
    error raises MatrixGameError."""
    statuses = []
    k = sub.shape[0] - r0
    if k:
        statuses.append(highs.addCols(k, np.zeros(k), np.zeros(k),
                                      np.full(k, math.inf),
                                      *_packed(sub[r0:, :c0], 1.0)))
    k = sub.shape[1] - c0
    if k:
        statuses.append(highs.addRows(k, np.full(k, -math.inf), np.zeros(k),
                                      *_packed(sub[:, c0:].T, -1.0)))
    if HighsStatus.kError in statuses:
        raise MatrixGameError("HiGHS rejected a restricted game's entries")


def _packed(block: np.ndarray, lead: float) -> tuple:
    """The rows of block, each led by the entry lead, in HiGHS's packed
    form: (entry count, starts, indices, values)."""
    k, n = block.shape
    vals = np.hstack([np.full((k, 1), lead), block]).ravel()
    return (len(vals), np.arange(0, len(vals), n + 1, dtype=np.int32),
            np.tile(np.arange(n + 1, dtype=np.int32), k), vals)


def _run_game(highs: _Highs, solver: str) -> tuple:
    """Run a game model with HiGHS's "simplex" or "ipm": (model status,
    primal values, row duals), the values None unless it is optimal.  Every
    solve of a restricted game goes through here."""
    if highs.setOptionValue("solver", solver) != HighsStatus.kOk:
        raise ValueError(f"HiGHS rejects the solver {solver!r}")
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        return status, None, None
    sol = highs.getSolution()
    return status, np.array(sol.col_value), np.array(sol.row_dual)


def _play(highs: _Highs, sub: np.ndarray) -> tuple:
    """Solve the game model highs of the divided game sub: min t s.t.
    mu^T sub <= t, mu a probability vector.  Returns (mu, p, t, model): the
    row mix mu, the column mix p (minus the duals of the column rows), the
    value t of sub, and the model that gave them, which the next round
    grows.

    An answer counts only if numpy confirms it: mu and p, clipped to
    probability vectors, bound the value from both sides, and their gap
    max(mu^T sub) - min(sub p) must be at most _GAME_GAP.  The ladder is a
    warm simplex run on highs, then simplex on a fresh model of sub (a warm
    run after added rows can end in a HiGHS solve error that a fresh model
    of the same game does not), then an interior-point run on that fresh
    model, then MatrixGameError."""
    for rung in ("warm", "simplex", "ipm"):
        if rung == "simplex":
            highs = _game_model(sub)
        elif rung == "ipm":
            highs.clearSolver()
        status, x, y = _run_game(highs, "ipm" if rung == "ipm" else "simplex")
        if x is None:
            continue
        mu, p = x[1:], -y[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            mu_c, p_c = np.clip(mu, 0.0, None), np.clip(p, 0.0, None)
            mu_c, p_c = mu_c / mu_c.sum(), p_c / p_c.sum()
            if (mu_c @ sub).max() - (sub @ p_c).min() <= _GAME_GAP:
                return mu, p, float(x[0]), highs
    reason = ("no gap check passed" if x is not None
              else highs.modelStatusToString(status))
    raise MatrixGameError(f"{sub.shape[0]} x {sub.shape[1]} restricted matrix "
                          f"game unsolved: {reason}")


def _dense_blocks(dmat: np.ndarray):
    """The block oracle of a dense payoff (:func:`_least_favorable_lp`),
    after the whole-matrix checks: a non-finite entry raises
    ArithmeticError, and so does an all-zero payoff.  The block of every
    row and column is dmat itself, so while every row of a Wong game is in
    play its column test copies nothing."""
    if not np.all(np.isfinite(dmat)):
        raise ArithmeticError("matrix game has a non-finite payoff")
    if not dmat.any():
        raise ArithmeticError("matrix game has an all-zero payoff")

    def block(rows, cols):
        return dmat[rows][:, cols]

    block.shape = dmat.shape
    return block


def _read_block(block, rows, cols) -> tuple:
    """(payoff block, its max |entry|); ArithmeticError for a non-finite
    entry, which np.max or np.min carries through.  Every block the game
    evaluates is read here before it enters an LP or a generation test (a
    NaN compares False and would never enter a set)."""
    b = block(rows, cols)
    hi, lo = float(b.max()), float(b.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ArithmeticError("matrix game has a non-finite payoff")
    return b, max(hi, -lo)


def _least_favorable_lp(payoff, cols=()):
    """Probability vector mu over the rows of the payoff D minimizing the
    largest entry of mu^T D: a matrix game solved as a linear program.

    payoff is D itself, read through :func:`_dense_blocks` (the Wong audit:
    rows the active betas, columns the audit points), or a block oracle (the
    scalar maximin grid solve): a callable block(rows, cols) with a shape
    attribute (A, n) that returns D[rows][:, cols], rows and cols index
    arrays or slice(None) for all.

    The optimal strategies live on a few rows and columns, so the game is
    solved by row and column generation on one HiGHS model.  The restricted
    game starts on every _GAME_STRIDE-th row and column plus the last, on
    every row when there are at most _GAME_STRIDE of them (the stride would
    take two), and on the caller's extra columns cols: the Wong audit
    passes the design's support, where a passing design's derivative sits
    at m.  Each round adds every column c with (mu^T D)_c > t + tol and
    every row r with (D p)_r < t - tol, where t is the restricted value
    and p the restricted column mix: the new rows become LP columns and the
    new columns LP rows of the same model (:func:`_grow_game`), and simplex
    restarts from the last basis (:func:`_play` holds the retry ladder).
    mu lives on the in-set rows and p on the in-set columns, so the tests
    read only two cross blocks, D[rows, :] and D[:, cols], which grow by
    the new rows and columns alone; no other entry is evaluated, and none
    can move mu or p.  Sets only grow, and at worst the loop ends on the
    full game, so it needs no round cap.  It stops when neither set grows.
    The restricted LP bounds the in-set columns and rows, and the
    generation test the others, so then max(mu^T D) <= t + tol and
    min(D p) >= t - tol: mu and p are a primal-dual pair of the full game
    within a gap of 2 tol + _GAME_GAP * scale, tol = _GAME_TOL * scale.
    The scale is max|D| on the first two cross blocks, all of D for a game
    of at most _GAME_STRIDE rows; HiGHS gets each restricted game divided
    by it, which has the same strategies: unscaled, it ended the Wong audit
    of an EXP2 design on [1, 150] in status 15.  Every evaluated block is
    checked by :func:`_read_block`, and a zero scale raises ArithmeticError,
    before any LP; a one-row game is then mu = [1] without a model.
    MatrixGameError if a restricted game stays unsolved.
    """
    block = _dense_blocks(payoff) if isinstance(payoff, np.ndarray) else payoff
    A, n = block.shape
    in_rows = np.zeros(A, dtype=bool)
    in_cols = np.zeros(n, dtype=bool)
    in_rows[::_GAME_STRIDE if A > _GAME_STRIDE else 1] = True
    in_cols[::_GAME_STRIDE] = True
    in_rows[-1] = in_cols[-1] = True
    in_cols[np.asarray(cols, dtype=int)] = True
    rows, game_cols = np.flatnonzero(in_rows), np.flatnonzero(in_cols)
    every = slice(None)
    Drows, s_rows = _read_block(block, rows if len(rows) < A else every, every)
    Dcols, s_cols = _read_block(block, every, game_cols)
    scale = max(s_rows, s_cols)
    if scale == 0.0:
        raise ArithmeticError("matrix game has an all-zero payoff on its "
                              "starting rows and columns")
    if A == 1:
        return np.ones(1)
    tol = _GAME_TOL * scale
    highs, r0, c0 = _game_model(np.zeros((0, 0))), 0, 0
    mu, p = np.zeros(A), np.zeros(n)
    while True:
        sub = Dcols[rows]
        sub /= scale
        _grow_game(highs, sub, r0, c0)
        r0, c0 = sub.shape
        mu[rows], p[game_cols], t, highs = _play(highs, sub)
        t *= scale
        new_cols = np.flatnonzero(~in_cols & (mu[rows] @ Drows > t + tol))
        new_rows = np.flatnonzero(~in_rows & (Dcols @ p[game_cols] < t - tol))
        if not (len(new_cols) or len(new_rows)):
            break
        if len(new_rows):
            Drows = np.vstack([Drows, _read_block(block, new_rows, every)[0]])
        if len(new_cols):
            Dcols = np.hstack([Dcols, _read_block(block, every, new_cols)[0]])
        in_cols[new_cols] = in_rows[new_rows] = True
        rows, game_cols = np.r_[rows, new_rows], np.r_[game_cols, new_cols]
    mu = np.clip(mu, 0.0, None)
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
    that rounding has destroyed reads low everywhere.  A Wong game that
    stays unsolved (MatrixGameError) fails too, with an infinite max
    derivative, a NaN worst point and no weights.
    """
    ax = audit_grid(model.design_interval, design)
    sup_idx = np.searchsorted(ax, design.points_array())  # ax holds the points
    mu = None
    if criterion.q is not None:
        d = criterion.derivative(model, design, ax)
        tol, support_ok = 1e-6, True
    else:
        g = criterion.log_efficiencies(model, design)
        active = np.flatnonzero(np.exp(g) <= math.exp(g.min()) * (1.0 + ACTIVE_TOL))
        betas = criterion.betas[active]
        dmat = np.concatenate(
            [dj for _, dj in _node_derivatives(model, design, betas, ax)])
        try:
            weights = _least_favorable_lp(dmat, sup_idx)
        except MatrixGameError:  # fails closed: no weights, no pass
            return EquivalenceCertificate(math.inf, float(model.m), ACTIVE_TOL,
                                          math.nan, False)
        d = weights @ dmat
        tol = ACTIVE_TOL
        support_ok = bool(np.all(np.abs(d[sup_idx] - model.m) <= 1e-4 * model.m))
        mu = {float(b): float(w) for b, w in zip(betas, weights) if w > 1e-12}
    average = float(design.weights_array() @ d[sup_idx])
    support_ok = support_ok and abs(average - model.m) <= tol * model.m
    worst = int(np.argmax(d))
    bound = model.m * (1.0 + tol)
    peaks = np.flatnonzero((d > bound) & (d >= np.r_[-np.inf, d[:-1]])
                           & (d >= np.r_[d[1:], -np.inf]))
    return EquivalenceCertificate(
        max_directional_derivative=float(d[worst]),
        bound=float(model.m),
        tolerance=tol,
        worst_point=float(ax[worst]),
        passed=bool(d[worst] <= bound) and support_ok,
        least_favorable_weights=mu,
        peaks=tuple(ax[peaks].tolist()),
    )


def _log_eff_jacobian(model: Model, crit: Criterion, x: np.ndarray,
                      w: np.ndarray) -> np.ndarray:
    """Jacobian of g_j = log det M_j - offset_j over (points x, weights w),
    shape (J, 2k) (Fedorov 1972; Atkinson, Donev & Tobias 2007):
    2 w_i f_ji^T M_j^-1 f'_ji for x_i and f_ji^T M_j^-1 f_ji for w_i, with
    f_ji = f(x_i, beta_j) and f' its x-derivative.  A node whose M_j is
    singular, or whose row is not finite, gets a zero row, as its clamped
    value is flat."""
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
    return jac


def polish(model: Model, crit: Criterion, points, weights) -> DesignMeasure:
    """Free-support refinement of points and weights by SLSQP, then
    :func:`default_merge`.  With g_j = log det M_j - offset_j, the mean
    maximizes q . g, with gradient q @ J, and the minimum maximizes t
    subject to g_j >= t over (points, weights, t), J the constraints'
    Jacobian; J is :func:`_log_eff_jacobian`, or SLSQP's differences for a
    model without score_dx.  A start point on the model's fixed support
    has the bounds (p, p), so the polish, like the merge, never moves it.

    The mean keeps its start if SLSQP ends lower, moves a merged point
    within 1e-12 (hi - lo) of an interval end onto it (SLSQP leaves residue
    like 4e-17), and takes the exact weights of the merged points from
    :func:`maximize_weighted_logdet`, dropping those it weights 0."""
    k = len(points)
    lo, hi = model.design_interval
    exact = model.score_dx is not None

    def g(z):
        Fs = stacked_scores(model, z[:k], crit.betas)  # (J, k, m)
        return logdet_stack(info_stack(Fs, z[k:2 * k])) - crit.offsets

    def jac(z):
        return _log_eff_jacobian(model, crit, z[:k], z[k:2 * k])

    bounds = ([(p, p) if p in model.fixed_support else (lo, hi) for p in points]
              + [(0.0, 1.0)] * k)
    if crit.q is None:
        def cons(z):
            gz = g(z)
            gz[~np.isfinite(gz)] = -1e6
            return gz - z[2 * k]

        z0 = np.r_[points, weights, 0.0]
        z0[-1] = float(np.min(cons(z0)))  # finite: a singular node reads -1e6
        grad = np.r_[np.zeros(2 * k), -1.0]
        fun, fun_jac = (lambda z: -z[2 * k]), (lambda z: grad)
        bounds.append((None, 0.0))
        ineq = [{"type": "ineq", "fun": cons, "jac": (
            (lambda z: np.c_[jac(z), -np.ones(len(crit.betas))]) if exact else None)}]
    else:
        def fun(z):
            gz = g(z)
            return -float(crit.q @ gz) if np.all(np.isfinite(gz)) else 1e6

        z0 = np.r_[points, weights]
        fun_jac = (lambda z: -(crit.q @ jac(z))) if exact else None
        ineq = []
    ones = np.r_[np.zeros(k), np.ones(k), np.zeros(len(z0) - 2 * k)][None, :]
    res = minimize(fun, z0, method="SLSQP", jac=fun_jac, bounds=bounds,
                   constraints=ineq + [{"type": "eq", "jac": lambda z: ones,
                                        "fun": lambda z: z[k:2 * k].sum() - 1.0}],
                   options={"maxiter": _POLISH_ITERS, "ftol": 1e-12})
    z = res.x if crit.q is None or res.fun <= fun(z0) else z0
    wts = np.clip(z[k:2 * k], 0.0, None)
    design = default_merge(DesignMeasure.from_arrays(z[:k], wts / wts.sum()), model)
    if crit.q is None:
        return design
    pts = design.points_array()
    eps = 1e-12 * (hi - lo)
    pts = np.where(pts - lo <= eps, lo, np.where(hi - pts <= eps, hi, pts))
    wts = maximize_weighted_logdet(stacked_scores(model, pts, crit.betas), crit.q,
                                   design.weights_array(), model.m)[0]
    return DesignMeasure.from_arrays(pts[wts > 0.0], wts[wts > 0.0])


def refine(model: Model, criterion: Criterion, x: np.ndarray,
           w: np.ndarray) -> tuple:
    """Polish-certify-exchange from seed weights w on the points x.

    The merged seed support is moved on the continuum by :func:`polish`
    and certified.  While the certificate fails, every peak
    of its derivative at least _EXCHANGE_NEAR from the support joins the
    support (Wynn 1970; Fedorov 1972), the new points sharing the weight
    _EXCHANGE_WEIGHT equally, and the polish runs again, for at most
    _EXCHANGE_ROUNDS rounds.  Maximin derivatives often peak at several
    points to 1e-9, so inserting them all leaves no choice to rounding
    noise.  The loop stops when no such peak is left, as when only the
    support-average check fails.  Returns (design, certificate): the first
    round that passes, else the round with the smallest max derivative.
    """
    design = default_merge(DesignMeasure.from_arrays(x[w > 0], w[w > 0]), model)
    pts, wts = design.points_array(), design.weights_array()
    rounds = []
    for _ in range(_EXCHANGE_ROUNDS):
        design = polish(model, criterion, pts, wts)
        cert = certify(model, design, criterion)
        if cert.passed:
            return design, cert
        rounds.append((design, cert))
        new = [p for p in cert.peaks
               if min(abs(p - s) for s in design.points) >= _EXCHANGE_NEAR]
        if not new:
            break
        pts = np.append(design.points_array(), new)
        wts = np.append(design.weights_array() * (1.0 - _EXCHANGE_WEIGHT),
                        np.full(len(new), _EXCHANGE_WEIGHT / len(new)))
    return min(rounds, key=lambda r: r[1].max_directional_derivative)


def solve_local(model: Model, beta: float):
    """Local D-optimal design for a fixed beta, with an equivalence audit:
    the Bayes design of the point-mass prior at beta."""
    from .bayes import ParameterPrior, solve_bayes

    model.check_beta(beta)
    return solve_bayes(model, ParameterPrior.point_mass(beta))


@functools.lru_cache(maxsize=None)
def local_design(model: Model, beta: float) -> DesignMeasure:
    """Local D-optimal design at one beta, checked first: the J = 1 slice of
    :func:`local_stack` where the model has analytic_local, else the numeric
    point-prior Bayes solve (solve_local -> solve_bayes)."""
    if model.analytic_local is not None:
        P, W, _ = local_stack(model, [beta])
        keep = W[0] > 0.0
        return DesignMeasure(P[0, keep], W[0, keep])
    design, cert = solve_local(model, beta)
    if not cert.passed:
        raise RuntimeError(f"local solve failed certification for beta={beta}")
    return design

