"""Design measures, information matrices and determinant machinery.

A design is a finitely supported probability measure on a compact real
interval.  Everything downstream (criteria, solvers, certificates) is built
from the information matrix of a design and its determinant.  Determinants
are evaluated by closed forms for parameter dimension m in {1, 2, 3}; the
Cauchy-Binet expansion over m-subsets of the support is kept as an
independent route to the same number.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

#: Sentinel returned by :func:`log_det` for singular matrices.  Solvers use
#: it to rank infeasible iterates without raising.
NEG_INF = float("-inf")

_WEIGHT_SUM_TOL = 1e-12


class DegenerateDesignError(ValueError):
    """Raised when a merge/floor operation leaves no support."""


@dataclass(frozen=True)
class DesignMeasure:
    """Finitely supported probability measure: support points and weights."""

    points: tuple
    weights: tuple

    def __init__(self, points, weights):
        points = tuple(float(x) for x in points)
        weights = tuple(float(w) for w in weights)
        if len(points) != len(weights):
            raise ValueError(
                f"points/weights length mismatch: {len(points)} vs {len(weights)}"
            )
        if not points:
            raise ValueError("design must have at least one support point")
        if any(not math.isfinite(x) for x in points):
            raise ValueError("non-finite support point")
        if any(w < 0.0 for w in weights):
            raise ValueError("negative weight")
        total = math.fsum(weights)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.points)

    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @staticmethod
    def point_mass(x: float) -> "DesignMeasure":
        return DesignMeasure((x,), (1.0,))

    @staticmethod
    def from_arrays(points, weights) -> "DesignMeasure":
        w = np.asarray(weights, dtype=float)
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        return DesignMeasure(tuple(points), tuple(w))

    def mix(self, other: "DesignMeasure", alpha: float) -> "DesignMeasure":
        """Convex combination alpha*self + (1-alpha)*other (no merging)."""
        pts = self.points + other.points
        wts = tuple(alpha * w for w in self.weights) + tuple(
            (1.0 - alpha) * w for w in other.weights
        )
        return DesignMeasure.from_arrays(pts, wts)

    def to_dict(self) -> dict:
        return {"points": list(self.points), "weights": list(self.weights)}

    @staticmethod
    def from_dict(d: dict) -> "DesignMeasure":
        return DesignMeasure(d["points"], d["weights"])


@dataclass(frozen=True)
class InfoMatrix:
    """Symmetric positive-semidefinite m x m information matrix."""

    entries: np.ndarray
    m: int

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected square matrix, got shape {a.shape}")
        scale = max(np.abs(a).max(), 1.0)
        if np.abs(a - a.T).max() > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
        a = 0.5 * (a + a.T)
        tr = float(np.trace(a))
        tol = 1e-10 * tr if tr > 0.0 else 1e-12 * scale
        lo = float(np.linalg.eigvalsh(a)[0])
        if lo < -tol:
            raise ValueError(f"matrix is not PSD (min eigenvalue {lo})")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "m", a.shape[0])


def _det_closed(a: np.ndarray):
    """Determinant of an m x m matrix, m <= 3, by cofactor expansion; for a
    (J, m, m) stack, the array of the J determinants.

    Evaluated in extended precision: the 3 x 3 cofactor sum cancels badly
    for near-singular information matrices.
    """
    a = np.asarray(a, dtype=np.longdouble)
    # matrix axes first, so that a[i, j] is one entry of every matrix
    a = a.transpose(-2, -1, *range(a.ndim - 2))
    m = a.shape[0]
    if m == 1:
        d = a[0, 0]
    elif m == 2:
        d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    elif m == 3:
        d = (
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
    else:
        raise ValueError(f"closed-form determinant limited to m <= 3, got m={m}")
    return float(d) if np.ndim(d) == 0 else d.astype(float)


def information_matrix(design: DesignMeasure, model, beta: float) -> InfoMatrix:
    """M(xi, beta) = sum_k w_k f(x_k, beta) f(x_k, beta)^T."""
    model.check_beta(beta)
    model.check_points(design.points)
    F = model.score_matrix(design.points_array(), beta)  # (n, m)
    w = design.weights_array()
    a = F.T @ (F * w[:, None])
    return InfoMatrix(0.5 * (a + a.T))


def det_info(design: DesignMeasure, model, beta: float) -> float:
    """Determinant of the information matrix via the closed form.

    A design on fewer than m points is structurally singular, so that case
    returns 0 exactly instead of cancellation noise.  A non-finite
    determinant (a NaN or infinite score) raises ArithmeticError.
    """
    model.check_beta(beta)
    model.check_points(design.points)
    if design.n < model.m:
        return 0.0
    # accumulate in extended precision: rounding the matrix entries to
    # double already destroys the near-cancelling determinant
    F = np.asarray(
        model.score_matrix(design.points_array(), beta), dtype=np.longdouble
    )
    w = design.weights_array().astype(np.longdouble)
    d = _det_closed(F.T @ (F * w[:, None]))
    if not math.isfinite(d):
        raise ArithmeticError(f"non-finite information determinant at beta={beta}")
    return d


def log_det(matrix: InfoMatrix) -> float:
    """log det of a PSD matrix; NEG_INF for singular matrices."""
    d = _det_closed(matrix.entries)
    if d <= 0.0:
        return NEG_INF
    return math.log(d)


def gram_determinant(points, model, beta: float) -> float:
    """Squared determinant of the m score vectors at the m given points."""
    m = model.m
    if len(points) != m:
        raise ValueError(f"gram_determinant needs exactly {m} points, got {len(points)}")
    model.check_beta(beta)
    F = model.score_matrix(np.asarray(points, dtype=float), beta)  # (m, m)
    d = _det_closed(F.T)
    return d * d


def det_via_cauchy_binet(design: DesignMeasure, model, beta: float) -> float:
    """det M(xi, beta) as a weighted sum of Gram determinants.

    Independent oracle for :func:`det_info`: sums (prod of weights) * I_m
    over all m-subsets of the support.
    """
    m = model.m
    total = 0.0
    for idx in itertools.combinations(range(design.n), m):
        wprod = 1.0
        for i in idx:
            wprod *= design.weights[i]
        if wprod == 0.0:
            continue
        total += wprod * gram_determinant([design.points[i] for i in idx], model, beta)
    return total


def canonical_merge(
    design: DesignMeasure, merge_radius: float, weight_floor: float
) -> DesignMeasure:
    """Merge nearby support points and drop negligible weights.

    Points whose sorted gaps are within ``merge_radius`` are clustered and
    replaced by their weight-averaged location; clusters below
    ``weight_floor`` are dropped and the rest renormalized.
    """
    if merge_radius < 0.0 or weight_floor < 0.0:
        raise ValueError("merge_radius and weight_floor must be nonnegative")
    order = np.argsort(design.points_array())
    pts = design.points_array()[order]
    wts = design.weights_array()[order]

    merged_pts: list[float] = []
    merged_wts: list[float] = []
    for x, w in zip(pts, wts):
        if merged_pts and x - merged_pts[-1] <= merge_radius:
            tw = merged_wts[-1] + w
            if tw > 0.0:
                merged_pts[-1] = (merged_pts[-1] * merged_wts[-1] + x * w) / tw
            merged_wts[-1] = tw
        else:
            merged_pts.append(float(x))
            merged_wts.append(float(w))

    keep = [(x, w) for x, w in zip(merged_pts, merged_wts) if w >= weight_floor]
    if not keep:
        raise DegenerateDesignError("all weights fell below the floor")
    total = math.fsum(w for _, w in keep)
    return DesignMeasure(
        tuple(x for x, _ in keep), tuple(w / total for _, w in keep)
    )


def default_merge(design: DesignMeasure, model) -> DesignMeasure:
    """canonical_merge with the reporting defaults tied to the model interval."""
    lo, hi = model.design_interval
    return canonical_merge(design, 1e-3 * (hi - lo), 1e-3)
