"""Structural checks behind the support-growth phenomenon.

This module verifies, on dense deterministic samples, the decay and band
properties of the efficiency function Q, the Gram-determinant dominance
condition, and the constructive lower-bound mixtures whose criterion values
force the support of optimal designs to grow with parameter uncertainty.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bayes import ParameterPrior, bayes_criterion, solve_bayes
from .design import DesignMeasure, det_info, gram_determinant
from .local import band_mixture, local_dets, local_offsets
from .maximin import BetaGrid, maximin_criterion, solve_maximin, support_count
from .models import Model
from .scales import ScaleFunction


@dataclass(frozen=True)
class DecayEnvelope:
    """Decay bound phi for the efficiency function.

    power: phi(z) = c1 |z|^(-gamma); exponential: phi(z) = c1 e^(-gamma |z|).
    """

    form: str
    c1: float
    gamma: float

    def __post_init__(self):
        if self.form not in ("power", "exponential"):
            raise ValueError(f"unknown envelope form {self.form!r}")
        if not (self.c1 > 0.0 and self.gamma > 0.0):
            raise ValueError("envelope constants must be positive")

    def __call__(self, z) -> np.ndarray:
        a = np.abs(np.asarray(z, dtype=float))
        if self.form == "power":
            with np.errstate(divide="ignore"):
                return self.c1 * a ** -self.gamma
        return self.c1 * np.exp(-self.gamma * a)

    def admissible_for_maximin(self, model: Model) -> bool:
        """Power-form envelopes force support growth only when the decay
        exponent beats the net parameter dimension."""
        if self.form == "exponential":
            return True
        return self.gamma > model.m - model.m_eta


@dataclass(frozen=True)
class TheoryReport:
    """Outcome of one structural check over a sampled domain."""

    name: str
    domain: str
    violations: int
    worst_margin: float
    lambda_estimate: Optional[float] = None
    constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _pairwise_q(model: Model, betas: np.ndarray) -> np.ndarray:
    """Q(beta_i, beta_j) for all sample pairs, as a (k, k) array.

    Column j is det M(xi[beta_j], beta_i) over all beta_i, one
    :func:`local_dets` call; its diagonal holds the denominators.  A
    singular numerator gives Q = 0; a singular denominator raises.
    """
    num = local_dets(model, betas, betas)
    den = np.diagonal(num)
    if not np.all(den > 0.0):
        raise ArithmeticError("singular denominator: local design is not D-optimal")
    return np.where(num > 0.0, num / den[:, None], 0.0)


def check_uniform_decrease(
    model: Model,
    scale: ScaleFunction,
    envelope: DecayEnvelope,
    beta_samples: Sequence[float],
) -> TheoryReport:
    """Envelope and half-efficiency band check for Q on a sample grid.

    Verifies Q(b, bt) <= phi(l(b) - l(bt)) pointwise, and estimates the
    largest band radius lambda such that every sampled pair within lambda on
    the l-scale keeps Q >= 1/2.

    lambda is the largest sampled distance below the first pair that fails,
    so it lies within one sample spacing below the exact radius. For EXP1 on
    the log scale, log 2 is a sufficient radius; the exact one is 0.7314,
    where (y e^{1-y})^2 = 1/2 at y = b/bt = 2.078.
    """
    betas = np.asarray(beta_samples, dtype=float)
    ell = scale(betas)
    q = _pairwise_q(model, betas)
    z = ell[:, None] - ell[None, :]
    phi = envelope(z)
    mask = np.abs(z) > 0.0 if envelope.form == "power" else np.ones_like(q, bool)
    margins = np.where(mask, q - phi, -np.inf)
    # fail closed: a NaN margin is a violation
    violations = int(np.count_nonzero(~(margins <= 1e-12)))
    worst = float(margins.max())

    # largest band: scan pairs by scale distance until Q first drops below 1/2
    zs = np.abs(z).ravel()
    qs = q.ravel()
    order = np.argsort(zs, kind="stable")
    zs, qs = zs[order], qs[order]
    bad = qs < 0.5
    if not bad.any():
        lam = float(zs[-1])
    else:
        # largest distance strictly below the first failing pair (pairs at
        # the same distance can mix passing and failing directions)
        zbad = zs[int(np.argmax(bad))]
        below = zs[zs < zbad - 1e-9 * (1.0 + zbad)]
        lam = float(below[-1]) if below.size else 0.0
    return TheoryReport(
        name="uniform-decrease",
        domain=f"{model.name}, {len(betas)}^2 pairs on "
        f"[{betas.min():g}, {betas.max():g}]",
        violations=violations,
        worst_margin=worst,
        lambda_estimate=lam,
        constants={"c1": envelope.c1, "gamma": envelope.gamma},
    )


def check_condition_2_9(
    model: Model, x_samples, beta_grid
) -> TheoryReport:
    """Gram-determinant dominance by sums of local-design determinants.

    Checks the model-specific pointwise inequality (single-point dominations
    at the fixed support for the partially linear models, the
    scaled-information bound for the scalar model) and reports the smallest
    constant c0 that makes the determinant-sum form hold over the sampled
    domain.  Each determinant is one stacked call over the parameter grid,
    and the local designs of all tuples one :func:`local_dets` call.
    """
    betas = np.asarray(beta_grid, dtype=float)
    b_lo, b_hi = float(betas.min()), float(betas.max())
    tuples = [tuple(float(v) for v in x_tuple) for x_tuple in x_samples]
    X = np.array(tuples).reshape(len(tuples), -1)
    with np.errstate(divide="ignore"):
        guess = np.clip(1.0 / X, b_lo, b_hi)  # the local design at 1/x
    # the determinant-sum form: one guess per positive coordinate; a tuple
    # without one keeps its first (beta_hi), and its Gram determinant is 0
    use = X > 0.0
    use[~use.any(axis=1), 0] = True
    sums = (local_dets(model, guess.ravel(), betas).reshape(len(betas), *X.shape)
            * use).sum(axis=2)
    violations = 0
    worst = -math.inf
    c0 = 0.0
    for i, x_tuple in enumerate(tuples):
        im = gram_determinant(x_tuple, model, betas)
        if model.name == "exp1":
            # scalar model: the clipped local design dominates pointwise
            bound = sums[:, i]
        elif model.fixed_support:
            # partially linear models: each coordinate joined to the fixed
            # support dominates on its own
            bound = sum(
                gram_determinant(sorted(model.fixed_support + (xv,)), model, betas)
                for xv in x_tuple)
        else:
            raise ValueError(f"no dominance recipe for model {model.name!r}")
        margin = im - bound
        violations += int(np.count_nonzero(
            ~(margin <= 1e-12 * np.maximum(im, 1e-300))))
        worst = float(np.max((worst, margin.max())))  # a NaN margin stays NaN

        # measured minimal c0 against the determinant-sum form
        ok = sums[:, i] > 0.0
        if ok.any():
            c0 = max(c0, float((im[ok] / sums[ok, i]).max()))
    return TheoryReport(
        name="gram-dominance",
        domain=f"{model.name}, {len(tuples)} tuples x {len(betas)} parameters",
        violations=violations,
        worst_margin=worst,
        constants={"c0": c0},
    )


def construct_lower_bound_design(
    model: Model,
    scale: ScaleFunction,
    beta_min: float,
    beta_max: float,
    lam: float,
) -> DesignMeasure:
    """The band mixture (:func:`local.band_mixture`) of a range whose scale
    span B is at least 4 lam, the condition of the lower bounds."""
    B = scale.span(beta_min, beta_max)
    if B < 4.0 * lam:
        raise ValueError(f"scale span {B:g} below the required 4*lambda = {4*lam:g}")
    return band_mixture(model, scale, beta_min, beta_max, lam)


def verify_lower_bounds(
    model: Model,
    scale: ScaleFunction,
    beta_range,
    lam: float,
    audit_count: int = 2000,
) -> TheoryReport:
    """Criterion floors of the band-spaced mixture design.

    For scalar models the worst efficiency must be at least lam / (2B) and
    the standardized average criterion at least -log B + log lam; for
    minimally supported multi-parameter models the efficiency must be at
    least 1 / (2 n^(m - m_eta)) at every audited parameter.
    """
    beta_min, beta_max = float(beta_range[0]), float(beta_range[1])
    B = scale.span(beta_min, beta_max)
    n = int(math.ceil(B / (2.0 * lam)))
    xi = construct_lower_bound_design(model, scale, beta_min, beta_max, lam)

    # audit grid equally spaced in the scale
    targets = scale(beta_min) + np.linspace(0.0, B, audit_count)
    betas = scale.invert(targets, beta_min, beta_max)
    num, offsets = det_info(xi, model, betas), local_offsets(model, betas)
    with np.errstate(divide="ignore", invalid="ignore"):
        eff = num / np.exp(offsets)

    # fail closed: a NaN or infinite efficiency is a violation, and a NaN
    # margin stays NaN
    violations = int(np.count_nonzero(~np.isfinite(eff)))
    constants = {"B": B, "n": n, "lambda": lam, "min_efficiency": float(eff.min())}
    if model.m == 1:
        phi_bound = lam / (2.0 * B)
        constants["phi"] = float(eff.min())
        constants["phi_bound"] = phi_bound
        violations += int(not eff.min() >= phi_bound)

        prior = ParameterPrior.uniform(beta_min, beta_max)
        psi_st = bayes_criterion(xi, model, prior, standardized=True)
        psi_bound = -math.log(B) + math.log(lam)
        constants["psi_st"] = psi_st
        constants["psi_bound"] = psi_bound
        violations += int(not psi_st >= psi_bound)
        worst = np.max((phi_bound - eff.min(), psi_bound - psi_st))
    else:
        eff_bound = 1.0 / (2.0 * n ** (model.m - model.m_eta))
        constants["efficiency_bound"] = eff_bound
        violations += int(np.count_nonzero(np.isfinite(eff) & (eff < eff_bound)))
        worst = eff_bound - eff.min()
    return TheoryReport(
        name="lower-bounds",
        domain=f"{model.name} on [{beta_min:g}, {beta_max:g}], "
        f"{audit_count} audited parameters",
        violations=violations,
        worst_margin=float(worst),
        lambda_estimate=lam,
        constants=constants,
    )


@dataclass(frozen=True)
class GrowthRow:
    B: float
    support_count: Optional[int]
    value: Optional[float]
    certified: Optional[bool]
    design: Optional[DesignMeasure] = None
    error: Optional[str] = None


def _growth_row(model: Model, criterion: str, B: float) -> GrowthRow:
    try:
        if criterion == "maximin":
            grid = BetaGrid(1.0, B)
            design, cert = solve_maximin(model, grid)
            value, _ = maximin_criterion(design, model, grid)
        else:
            prior = ParameterPrior.uniform(1.0, B)
            design, cert = solve_bayes(model, prior)
            value = bayes_criterion(design, model, prior, standardized=True)
        return GrowthRow(
            B=B,
            support_count=support_count(design, model),
            value=value,
            certified=bool(cert.passed),
            design=design,
        )
    except Exception as exc:  # keep other rows alive
        return GrowthRow(B=B, support_count=None, value=None, certified=None,
                         error=f"{type(exc).__name__}: {exc}")


def growth_study(
    model: Model,
    criterion: str,
    B_list: Sequence[float],
    csv_path: Optional[str] = None,
):
    """Support counts and criterion values across parameter-range widths.

    criterion: "maximin" or "bayes-uniform" (alias "bayes").
    """
    criterion = {"bayes": "bayes-uniform"}.get(criterion, criterion)
    if criterion not in ("maximin", "bayes-uniform"):
        raise ValueError(f"unknown criterion {criterion!r}")
    Bs = [float(b) for b in B_list]
    if Bs != sorted(Bs):
        raise ValueError("B_list must be sorted ascending")
    rows = [_growth_row(model, criterion, b) for b in Bs]
    if csv_path is not None:
        write_growth_csv(rows, csv_path)
    return rows


def write_growth_csv(rows, path: str) -> None:
    """Table layout: one column per range width B, leading summary rows,
    then alternating support-point / weight rows."""
    kmax = max((r.support_count or 0) for r in rows)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["B"] + [f"{r.B:g}" for r in rows])
        wr.writerow(["count"] + [
            "" if r.support_count is None else str(r.support_count) for r in rows
        ])
        wr.writerow(["value"] + [
            "" if r.value is None else repr(r.value) for r in rows
        ])
        wr.writerow(["certified"] + [
            "" if r.certified is None else str(r.certified).lower() for r in rows
        ])
        for k in range(kmax):
            xrow, wrow = [f"x_{k + 1}"], [f"w_{k + 1}"]
            for r in rows:
                if r.design is not None and k < r.design.n:
                    xrow.append(repr(r.design.points[k]))
                    wrow.append(repr(r.design.weights[k]))
                else:
                    xrow.append("")
                    wrow.append("")
            wr.writerow(xrow)
            wr.writerow(wrow)
