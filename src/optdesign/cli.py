"""Command-line front end.

Subcommands: local, bayes, maximin, verify, theory, growth.  Designs and
certificates are written as JSON, sweep tables as CSV, plot data as plain
two-column text.  Exit status 0 means every certificate or check passed,
1 means a solver or verification failure, 2 a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bayes import ParameterPrior, bayes_criterion, solve_bayes
from .io import verify_artifact, write_artifact, write_plot_data
from .local import GridSpec, solve_local
from .maximin import BetaGrid, maximin_criterion, solve_maximin
from .models import Model, get_model, make_logistic
from .scales import identity, logarithm
from .theory import (
    DecayEnvelope,
    check_condition_2_9,
    check_uniform_decrease,
    growth_study,
    verify_lower_bounds,
)


def _parse_prior(text: str, quad: int) -> ParameterPrior:
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "uniform":
            return ParameterPrior.uniform(float(parts[1]), float(parts[2]), quad)
        if kind == "truncexp":
            return ParameterPrior.trunc_exp(float(parts[1]), quad)
        if kind == "discrete":
            return ParameterPrior.discrete_uniform(int(parts[1]))
        if kind == "point":
            return ParameterPrior.point_mass(float(parts[1]))
    except (IndexError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad prior {text!r}: {exc}")
    raise argparse.ArgumentTypeError(
        f"unknown prior kind {kind!r} (uniform:LO:HI | truncexp:A | "
        "discrete:L | point:B)"
    )


def _parse_range(text: str):
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r} (want LO:HI): {exc}")


def _model_for(name: str, beta_hi: float) -> Model:
    """The logistic design interval must contain every local optimum, so it
    is widened with the parameter range; other models have fixed intervals."""
    model = get_model(name)
    if name == "logistic":
        return make_logistic(beta_hi + 5.0)
    return model


def _report_design(design, cert, out, model, criterion, plot_prefix) -> int:
    print("points :", " ".join(f"{p:.6f}" for p in design.points))
    print("weights:", " ".join(f"{w:.6f}" for w in design.weights))
    print(
        f"certificate: max directional derivative "
        f"{cert.max_directional_derivative:.9f} (bound {cert.bound:g}), "
        f"{'passed' if cert.passed else 'FAILED'}"
    )
    if out:
        write_artifact(out, model, criterion, design, cert)
        print(f"wrote {out}")
    if plot_prefix:
        for p in write_plot_data(plot_prefix, model, design, criterion):
            print(f"wrote {p}")
    return 0 if cert.passed else 1


def _cmd_local(args) -> int:
    model = _model_for(args.model, args.beta)
    design, cert = solve_local(model, args.beta, GridSpec(count=args.grid))
    return _report_design(design, cert, args.out, model, args.beta,
                          args.plot_data)


def _cmd_bayes(args) -> int:
    prior = _parse_prior(args.prior, args.quad)
    if args.model == "logistic":
        # keep every local optimum interior: twice the truncation point for
        # the truncated-exponential prior, a flat margin otherwise
        if prior.kind == "trunc_exp":
            model = make_logistic(2.0 / prior.params[0])
        else:
            model = make_logistic(prior.support_interval[1] + 5.0)
    else:
        model = get_model(args.model)
    design, cert = solve_bayes(model, prior, GridSpec(count=args.grid))
    value = bayes_criterion(design, model, prior, standardized=True)
    print(f"standardized criterion: {value:.9f}")
    return _report_design(design, cert, args.out, model, prior, args.plot_data)


def _cmd_maximin(args) -> int:
    lo, hi = args.beta_range
    model = _model_for(args.model, hi)
    grid = BetaGrid(lo, hi, args.beta_grid)
    design, cert = solve_maximin(model, grid, GridSpec(count=args.grid))
    value, argmin = maximin_criterion(design, model, grid)
    print(f"worst efficiency: {value:.9f} at beta = {argmin:g}")
    return _report_design(design, cert, args.out, model, grid, args.plot_data)


def _cmd_verify(args) -> int:
    cert = verify_artifact(args.file)
    print(
        f"max directional derivative {cert.max_directional_derivative:.9f} "
        f"(bound {cert.bound:g}): {'passed' if cert.passed else 'FAILED'}"
    )
    return 0 if cert.passed else 1


def _theory_defaults(name: str):
    """Scale, envelope, and half-efficiency band per model."""
    if name == "logistic":
        return identity(), DecayEnvelope("exponential", 4.0 * math.e, 1.0), 1.0
    return logarithm(), DecayEnvelope("exponential", math.e ** 2, 2.0), math.log(2.0)


def _print_report(r) -> int:
    print(f"check {r.name} on {r.domain}")
    print(f"violations: {r.violations}, worst margin: {r.worst_margin:.3e}")
    if r.lambda_estimate is not None:
        print(f"lambda: {r.lambda_estimate:.6f}")
    for k, v in sorted(r.constants.items()):
        print(f"  {k} = {v}")
    print("passed" if r.passed else "FAILED")
    return 0 if r.passed else 1


def _cmd_theory(args) -> int:
    lo, hi = args.beta_range
    model = _model_for(args.model, hi)
    scale, envelope, lam_default = _theory_defaults(args.model)
    if args.scale == "identity":
        scale = identity()
    elif args.scale == "log":
        scale = logarithm()
    lam = args.lam if args.lam is not None else lam_default

    if args.check == "q-decay":
        if scale.kind == "logarithm":
            samples = np.geomspace(lo, hi, args.samples)
        else:
            samples = np.linspace(lo, hi, args.samples)
        from .local import local_design

        solver = None if model.analytic_local else (
            lambda m, b: local_design(m, b)
        )
        report = check_uniform_decrease(model, scale, envelope, samples, solver)
    elif args.check == "cond29":
        m = model.m
        axis = np.linspace(0.02, 1.0, args.samples)
        rng = np.random.default_rng(0)  # fixed seed: deterministic tuples
        tuples = rng.uniform(1e-3, 1.0, size=(args.samples, m))
        tuples = np.vstack([tuples, np.column_stack([axis] * m)])
        betas = np.geomspace(lo, hi, 50)
        report = check_condition_2_9(model, tuples, betas)
    elif args.check == "lower-bound":
        report = verify_lower_bounds(model, scale, (lo, hi), lam)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.check)
    return _print_report(report)


def _cmd_growth(args) -> int:
    Bs = [float(b) for b in args.B.split(",")]
    model = _model_for(args.model, max(Bs))
    rows = growth_study(model, args.criterion, Bs, csv_path=args.out)
    status = 0
    for r in rows:
        if r.error is not None:
            print(f"B={r.B:g}: error {r.error}")
            status = 1
            continue
        print(
            f"B={r.B:g}: {r.support_count} support points, "
            f"value {r.value:.6f}, certificate "
            f"{'passed' if r.certified else 'FAILED'}"
        )
        if not r.certified:
            status = 1
    if args.out:
        print(f"wrote {args.out}")
    return status


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="optdesign",
        description="Optimal experimental design solvers for nonlinear "
        "regression (local, Bayesian, and standardized maximin D-optimality).",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    models = ["exp1", "exp2", "exp3", "logistic"]

    p = sub.add_parser("local", help="local D-optimal design at a fixed beta")
    p.add_argument("--model", required=True, choices=models)
    p.add_argument("--beta", required=True, type=float)
    p.add_argument("--grid", type=int, default=2001)
    p.add_argument("--out", help="write design + certificate JSON")
    p.add_argument("--plot-data", help="prefix for two-column curve files")
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("bayes", help="Bayesian D-optimal design for a prior")
    p.add_argument("--model", required=True, choices=models)
    p.add_argument("--prior", required=True,
                   help="uniform:LO:HI | truncexp:A | discrete:L | point:B")
    p.add_argument("--quad", type=int, default=200,
                   help="quadrature nodes for continuous priors")
    p.add_argument("--grid", type=int, default=2001)
    p.add_argument("--out")
    p.add_argument("--plot-data")
    p.set_defaults(func=_cmd_bayes)

    p = sub.add_parser("maximin",
                       help="standardized maximin D-optimal design")
    p.add_argument("--model", required=True, choices=models)
    p.add_argument("--beta-range", required=True, type=_parse_range,
                   metavar="LO:HI")
    p.add_argument("--beta-grid", type=int, default=400)
    p.add_argument("--grid", type=int, default=2001)
    p.add_argument("--out")
    p.add_argument("--plot-data")
    p.set_defaults(func=_cmd_maximin)

    p = sub.add_parser("verify", help="re-run the certificate of a design file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("theory", help="structural checks behind support growth")
    p.add_argument("--check", required=True,
                   choices=["q-decay", "cond29", "lower-bound"])
    p.add_argument("--model", required=True, choices=models)
    p.add_argument("--beta-range", type=_parse_range, default=(1.0, 1000.0),
                   metavar="LO:HI")
    p.add_argument("--scale", choices=["log", "identity"])
    p.add_argument("--lambda", dest="lam", type=float,
                   help="band radius for lower-bound construction")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("growth",
                       help="support-count sweep across range widths")
    p.add_argument("--model", required=True, choices=models)
    p.add_argument("--criterion", required=True,
                   choices=["maximin", "bayes", "bayes-uniform"])
    p.add_argument("--B", required=True,
                   help="comma-separated ascending range widths")
    p.add_argument("--out", help="CSV table path")
    p.set_defaults(func=_cmd_growth)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        # late-parsed option values (priors, ranges) are still usage errors
        parser.exit(2, f"error: {exc}\n")
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
