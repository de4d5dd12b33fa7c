"""Seeded op lists for the benchmark workloads.

An op is one solver call, or one audit/theory call, together with its
correctness check; ``Op.call`` runs both and returns an ``Outcome``.  Every
library call goes through an attribute of the ``optdesign`` package at call
time, so the tracer's rebinding sees it.

Range widths B sit at fixed anchors, the centres of equal log-cells of each
workload's range.  In ``bayes`` and ``audit`` the seed moves each anchor by at
most ``JITTER`` (relative); in the two maximin workloads it only shuffles the
op order.  Maximin solve cost is not smooth in B: the SLSQP polish, the
exchange rounds and the saddle loop change their iteration counts between
widths 0.1% apart (EXP1 at B = 50.755 and 50.796 took 4.85 s and 2.65 s), so
any jitter made a run's time depend more on the seed than on the code.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import optdesign as od
import optdesign.io  # noqa: F401  (makes od.io available)

HERE = os.path.dirname(os.path.abspath(__file__))
ARTIFACTS = os.path.join(HERE, "artifacts")
LOG2 = math.log(2.0)
JITTER = 0.002


@dataclass
class Outcome:
    verdict: bool
    value: float
    problems: list = field(default_factory=list)


@dataclass
class Op:
    name: str
    call: Callable[[], Outcome]
    expect: bool = True


def anchors(lo: float, hi: float, k: int) -> list:
    """The centres of k equal log-cells of [lo, hi]."""
    return [float(b) for b in lo * (hi / lo) ** ((np.arange(k) + 0.5) / k)]


def jittered(rng, lo: float, hi: float, k: int) -> list:
    """anchors(lo, hi, k), each moved by a seeded factor within 1 +- JITTER."""
    return [b * (1.0 + JITTER * rng.uniform(-1.0, 1.0))
            for b in anchors(lo, hi, k)]


def shuffled(rng, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


# -- independent floor ------------------------------------------------------


def comparison_design(model, B: float):
    """A feasible design built from public functions only.

    The band-spaced mixture of local designs when its span condition holds
    (log B >= 4 log 2 on [1, B]), else the equal-weight mixture of the local
    designs at the two range ends.
    """
    if math.log(B) >= 4.0 * LOG2:
        return od.construct_lower_bound_design(model, od.logarithm(), 1.0, B, LOG2)
    ends = [od.local_design(model, 1.0), od.local_design(model, B)]
    return od.canonical_merge(ends[0].mix(ends[1], 0.5), 0.0, 0.0)


def _floor_problems(value: float, floor: float) -> list:
    if not value >= floor - 1e-9 * abs(floor):
        return [f"criterion {value!r} below the comparison design's {floor!r}"]
    return []


# -- op builders ------------------------------------------------------------


def maximin_op(model, B: float, count: int = 400) -> Op:
    grid = od.BetaGrid(1.0, B, count)

    def call():
        design, cert = od.solve_maximin(model, grid)
        phi, _ = od.maximin_criterion(design, model, grid)
        floor, _ = od.maximin_criterion(comparison_design(model, B), model, grid)
        return Outcome(cert.passed, phi, _floor_problems(phi, floor))

    return Op(f"maximin {model.name} [1,{B:.6g}] x{count}", call)


def bayes_op(model, B: float, nodes: int) -> Op:
    prior = od.ParameterPrior.uniform(1.0, B, nodes)

    def call():
        design, cert = od.solve_bayes(model, prior)
        psi = od.bayes_criterion(design, model, prior)
        floor = od.bayes_criterion(comparison_design(model, B), model, prior)
        return Outcome(cert.passed, psi, _floor_problems(psi, floor))

    return Op(f"bayes {model.name} uniform[1,{B:.6g}] n{nodes}", call)


def recertify_op(path: str, expect: bool) -> Op:
    def call():
        cert = od.io.verify_artifact(path)
        return Outcome(cert.passed, cert.max_directional_derivative)

    return Op(f"verify {os.path.basename(path)}", call, expect)


def theory_op(name: str, check: Callable) -> Op:
    def call():
        report = check()
        return Outcome(report.passed, report.worst_margin)

    return Op(name, call)


def perturbed_artifact(src: str, dst: str, rng) -> None:
    """Copy of a stored artifact whose weights move by 10-20% of the
    heaviest point's mass onto the lightest point."""
    with open(src) as fh:
        doc = json.load(fh)
    w = np.asarray(doc["design"]["weights"], dtype=float)
    i, j = int(np.argmax(w)), int(np.argmin(w))
    shift = w[i] * rng.uniform(0.10, 0.20)
    w[i] -= shift
    w[j] += shift
    doc["design"]["weights"] = list(w / w.sum())
    doc.pop("certificate", None)
    with open(dst, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)


# -- workloads --------------------------------------------------------------


def maximin_scalar(rng, workdir):
    return shuffled(rng, [maximin_op(od.EXP1, B) for B in anchors(10.0, 180.0, 8)])


def maximin_multi(rng, workdir):
    ops = [maximin_op(od.EXP3, B, 20) for B in anchors(2.5, 4.5, 4)]
    ops += [maximin_op(od.EXP2, B, 20) for B in anchors(3.3, 4.1, 2)]
    return shuffled(rng, ops)


def bayes(rng, workdir):
    return [bayes_op(od.EXP1, jittered(rng, 60.0, 300.0, 1)[0], 200),
            bayes_op(od.EXP2, jittered(rng, 5.0, 20.0, 1)[0], 50)]


def audit(rng, workdir):
    ops = []
    for name in sorted(os.listdir(ARTIFACTS)):
        src = os.path.join(ARTIFACTS, name)
        dst = os.path.join(workdir, "perturbed-" + name)
        perturbed_artifact(src, dst, rng)
        ops += [recertify_op(src, True), recertify_op(dst, False)]

    B_q = jittered(rng, 50.0, 200.0, 1)[0]
    ops.append(theory_op(
        f"q-decay exp1 [1,{B_q:.6g}] x200",
        lambda: od.check_uniform_decrease(
            od.EXP1, od.logarithm(),
            od.DecayEnvelope("exponential", math.e ** 2, 2.0),
            np.geomspace(1.0, B_q, 200))))

    for B in jittered(rng, 10.0, 40.0, 2):
        tuples = [tuple(rng.uniform(0.0, 1.0, 3)) for _ in range(40)]
        ops.append(theory_op(
            f"cond29 exp3 [1,{B:.6g}] 40 tuples",
            lambda B=B, tuples=tuples: od.check_condition_2_9(
                od.EXP3, tuples, np.geomspace(1.0, B, 25))))

    # twelve cheap EXP1 floors put the median op inside one cluster of op
    # times instead of at the gap between two
    for model, (lo, hi), k in ((od.EXP1, (16.0, 200.0), 12),
                               (od.EXP3, (16.0, 100.0), 2)):
        for B in jittered(rng, lo, hi, k):
            ops.append(theory_op(
                f"lower-bound {model.name} [1,{B:.6g}]",
                lambda model=model, B=B: od.verify_lower_bounds(
                    model, od.logarithm(), (1.0, B), LOG2)))
    return ops


WORKLOADS = {
    "maximin-scalar": maximin_scalar,
    "maximin-multi": maximin_multi,
    "bayes": bayes,
    "audit": audit,
}


def build(name: str, seed: int, workdir: str) -> list:
    return WORKLOADS[name](np.random.default_rng(seed), workdir)
