"""Per-layer metrics: which optdesign functions the traced run wraps, the
counters observed at those boundaries, and how spans become metrics.

Kernel ``.gflop`` and ``.mb`` are computed from argument and result array
shapes (see README.md for the formulas), not measured by hardware counters.
"""

from __future__ import annotations

import inspect
import os

from tracing import Tracer

# metric prefix -> traced "<module>.<attr>"; every prefix reports .calls and
# .self_s
TRACED = {
    "models.score_matrix": "models.Model.score_matrix",
    "models.q_efficiency": "models.q_efficiency",
    "design.information_matrix": "design.information_matrix",
    "design.det_info": "design.det_info",
    "design.log_det": "design.log_det",
    "design.gram_determinant": "design.gram_determinant",
    "local.info_stack": "local.info_stack",
    "local.dirderiv_stack": "local.dirderiv_stack",
    "local.logdet_stack": "local.logdet_stack",
    "local.stacked_scores": "local.stacked_scores",
    "local.maximize_weighted_logdet": "local.maximize_weighted_logdet",
    "local._newton_weights": "local._newton_weights",
    "local.directional_derivative": "local.directional_derivative",
    "local.solve_local": "local.solve_local",
    "local.local_design": "local.local_design",
    "bayes.solve_bayes": "bayes.solve_bayes",
    "bayes._polish_bayes": "bayes._polish_bayes",
    "bayes.averaged_directional_derivative": "bayes.averaged_directional_derivative",
    "bayes.bayes_criterion": "bayes.bayes_criterion",
    "bayes.quadrature": "bayes.quadrature",
    "maximin.solve_maximin": "maximin.solve_maximin",
    "maximin._grid_maximin_lp": "maximin._grid_maximin_lp",
    "maximin._polish_minimax": "maximin._polish_minimax",
    "maximin._certify": "maximin._certify",
    "maximin._least_favorable_lp": "maximin._least_favorable_lp",
    "maximin._log_efficiencies": "maximin._log_efficiencies",
    "theory.check_uniform_decrease": "theory.check_uniform_decrease",
    "theory.check_condition_2_9": "theory.check_condition_2_9",
    "theory.verify_lower_bounds": "theory.verify_lower_bounds",
    "io.recertify": "io.recertify",
    "io.verify_artifact": "io.verify_artifact",
}
KERNELS = ("local.info_stack", "local.dirderiv_stack", "local.logdet_stack",
           "local.stacked_scores")
CACHES = ("local_design", "local_logdet")
ENGINE = "local.maximize_weighted_logdet"
# called too often to keep one span per call; summed per op instead
LEAVES = ("models.score_matrix", "models.q_efficiency", "design.det_info",
          "design.log_det", "design.gram_determinant") + KERNELS


def _flop_mb(name, args, result):
    """(floating-point operations, bytes) of one kernel call, from shapes."""
    if name == "local.info_stack":
        J, n, m = args["Fs"].shape
        return 2 * J * n * m * m + J * n * m, (
            args["Fs"].nbytes + args["w"].nbytes + result.nbytes)
    if name == "local.dirderiv_stack":
        J, n, m = args["Fs"].shape
        return 2 * J * m ** 3 + 2 * J * n * m * m + 2 * J * n * m, (
            args["Fs"].nbytes + args["Ms"].nbytes + result.nbytes)
    if name == "local.logdet_stack":
        J, m, _ = args["Ms"].shape
        return 2 * J * m ** 3 // 3, args["Ms"].nbytes + result.nbytes
    # stacked_scores: one operation per score entry produced (a lower bound)
    return result.size, result.nbytes


def _kernel_observer(name):
    def observe(tracer, args, result):
        flop, nbytes = _flop_mb(name, args, result)
        tracer.counters[name + ".gflop"] += flop / 1e9
        tracer.counters[name + ".mb"] += nbytes / 1e6
    return observe


def _engine_observer(tracer, args, result):
    _, maxd, history = result
    tracer.counters[ENGINE + ".steps"] += len(history)
    tracer.counters[ENGINE + ".converged"] += (
        maxd <= args["m"] * (1.0 + args["tol"]))


def _artifact_observer(tracer, args, result):
    tracer.counters["io.verify_artifact.bytes"] += os.path.getsize(args["path"])


OBSERVERS = {TRACED[k]: _kernel_observer(k) for k in KERNELS}
OBSERVERS[TRACED[ENGINE]] = _engine_observer
OBSERVERS[TRACED["io.verify_artifact"]] = _artifact_observer


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix in TRACED:
        units[prefix + ".calls"] = "count"
        units[prefix + ".self_s"] = "s"
        if prefix in KERNELS:
            units[prefix + ".gflop"] = "GFLOP"
            units[prefix + ".mb"] = "MB"
    units[ENGINE + ".steps"] = "count"
    units[ENGINE + ".converged_frac"] = "fraction"
    for cache in CACHES:
        units[f"local.{cache}.misses"] = "count"
    units["maximin.saddle.outer_iters"] = "count"
    units["maximin.saddle.capped_frac"] = "fraction"
    units["io.verify_artifact.bytes"] = "B"
    units["trace.overhead_s"] = "s"
    return units


def make_tracer() -> Tracer:
    tracer = Tracer()
    tracer.install(TRACED.values(), OBSERVERS, {TRACED[k] for k in LEAVES})
    return tracer


def record_cache_misses(tracer: Tracer, optdesign) -> None:
    """Add the misses of the op that just ran (caches are cleared per op)."""
    for cache in CACHES:
        fn = getattr(optdesign.local, cache, None)
        if fn is None or not hasattr(fn, "cache_info"):
            tracer.absent.add(f"local.{cache}.cache_info")
            continue
        tracer.counters[f"local.{cache}.misses"] += fn.cache_info().misses


def saddle_cap(optdesign):
    """The outer_iters default of solve_maximin, or None when it is gone."""
    fn = getattr(optdesign.maximin, "solve_maximin", None)
    if fn is None:
        return None
    param = inspect.signature(fn).parameters.get("outer_iters")
    if param is None or param.default is inspect.Parameter.empty:
        return None
    return param.default


def metrics(tracer: Tracer, cap) -> dict:
    """Per-layer values from the spans and counters of the traced pass."""
    by_target = {target: prefix for prefix, target in TRACED.items()}
    calls = dict.fromkeys(TRACED, 0)
    self_s = dict.fromkeys(TRACED, 0.0)
    selfs = tracer.self_times()
    engine_parents = {}
    for (target, _, _, parent, _, _), st in zip(tracer.spans, selfs):
        prefix = by_target[target]
        calls[prefix] += 1
        self_s[prefix] += st
        if prefix == ENGINE and parent is not None:
            engine_parents[parent] = engine_parents.get(parent, 0) + 1
    for (target, _), n in tracer.leaf_calls.items():
        calls[by_target[target]] += n
    for (target, _), st in tracer.leaf_seconds.items():
        self_s[by_target[target]] += st

    out = {}
    c = tracer.counters
    for prefix in TRACED:
        out[prefix + ".calls"] = calls[prefix]
        out[prefix + ".self_s"] = self_s[prefix]
        if prefix in KERNELS:
            out[prefix + ".gflop"] = c[prefix + ".gflop"]
            out[prefix + ".mb"] = c[prefix + ".mb"]
    out[ENGINE + ".steps"] = int(c[ENGINE + ".steps"])
    out[ENGINE + ".converged_frac"] = (
        c[ENGINE + ".converged"] / calls[ENGINE] if calls[ENGINE] else 0.0)
    for cache in CACHES:
        out[f"local.{cache}.misses"] = int(c[f"local.{cache}.misses"])

    solves = [i for i, span in enumerate(tracer.spans)
              if span[0] == TRACED["maximin.solve_maximin"]]
    outer = [engine_parents.get(i, 0) for i in solves]
    out["maximin.saddle.outer_iters"] = sum(outer)
    capped = sum(1 for n in outer if cap is not None and n >= cap)
    out["maximin.saddle.capped_frac"] = capped / len(solves) if solves else 0.0
    n_art = calls["io.verify_artifact"]
    out["io.verify_artifact.bytes"] = (
        c["io.verify_artifact.bytes"] / n_art if n_art else 0.0)
    return out
