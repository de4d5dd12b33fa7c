"""Artifact serialization: design files, certificates, re-verification,
and plot-data emission.

The interchange unit is a JSON object {"points": [...], "weights": [...]}
at full double precision.  Solver artifacts wrap it together with the model
name, the criterion description, and the certificate, so a design file can
be re-audited later without re-running the solver.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

import numpy as np

from .bayes import ParameterPrior, prior_criterion
from .design import DesignMeasure
from .local import Criterion, EquivalenceCertificate, MatrixGameError, certify
from .maximin import BetaGrid
from .models import Model, get_model, make_logistic


def design_to_json(design: DesignMeasure) -> str:
    return json.dumps(design.to_dict(), sort_keys=True)


def design_from_json(text: str) -> DesignMeasure:
    return DesignMeasure.from_dict(json.loads(text))


def _criterion_dict(criterion) -> dict:
    if isinstance(criterion, dict):
        return criterion
    if isinstance(criterion, (int, float)):
        return {"kind": "local", "beta": float(criterion)}
    if isinstance(criterion, ParameterPrior):
        return {"kind": "bayes", "prior": asdict(criterion)}
    if isinstance(criterion, BetaGrid):
        return {"kind": "maximin", **asdict(criterion)}
    raise TypeError(f"cannot describe criterion {criterion!r}")


def write_artifact(
    path: str,
    model: Model,
    criterion,
    design: DesignMeasure,
    certificate: Optional[EquivalenceCertificate] = None,
) -> None:
    doc = {
        "model": model.name,
        "design_interval": list(model.design_interval),
        "criterion": _criterion_dict(criterion),
        "design": design.to_dict(),
    }
    if certificate is not None:
        doc["certificate"] = certificate.to_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_artifact(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _model_from_doc(doc: dict) -> Model:
    model = get_model(doc["model"])
    interval = tuple(doc.get("design_interval", model.design_interval))
    if model.name == "logistic" and interval != model.design_interval:
        model = make_logistic(interval[1])
    if tuple(model.design_interval) != interval:
        raise ValueError(f"stored design interval {list(interval)} differs "
                         f"from the {model.name} model's "
                         f"{list(model.design_interval)}")
    return model


def _prior(criterion: dict) -> ParameterPrior:
    p = criterion["prior"]
    return ParameterPrior(p["kind"], tuple(p["params"]),
                          p.get("quadrature_nodes"))


def _criterion(model: Model, criterion: dict) -> Criterion:
    """The Criterion that a stored criterion description stands for."""
    kind = criterion["kind"]
    if kind == "local":
        return Criterion.local(float(criterion["beta"]))
    if kind == "bayes":
        return prior_criterion(model, _prior(criterion))
    if kind == "maximin":
        if criterion.get("spacing", "log") != "log":
            raise ValueError(f"unsupported maximin spacing {criterion['spacing']!r}")
        grid = BetaGrid(criterion["beta_min"], criterion["beta_max"],
                        criterion.get("count", 400))
        return Criterion.maximin(model, grid.values)
    raise ValueError(f"unknown criterion kind {kind!r}")


def recertify(
    model: Model, design: DesignMeasure, criterion: dict
) -> EquivalenceCertificate:
    """Recompute the equivalence audit appropriate to the stored criterion."""
    return certify(model, design, _criterion(model, criterion))


def verify_artifact(path: str) -> EquivalenceCertificate:
    doc = read_artifact(path)
    model = _model_from_doc(doc)
    design = DesignMeasure.from_dict(doc["design"])
    return recertify(model, design, doc["criterion"])


def write_xy(path: str, xs, ys) -> None:
    """Plain two-column text, one sample per line."""
    with open(path, "w") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r} {float(y)!r}\n")


def write_plot_data(
    prefix: str, model: Model, design: DesignMeasure, criterion,
    count: int = 512,
) -> list:
    """Emit the derivative curve x -> d(x, xi) and, for parametrized
    criteria, the efficiency curve beta -> eff(xi, beta).  The maximin
    derivative is averaged over the certificate's least-favorable weights;
    MatrixGameError when the certificate has none.  Returns the written
    paths."""
    criterion = _criterion_dict(criterion)
    crit = _criterion(model, criterion)
    lo, hi = model.design_interval
    xs = np.linspace(lo, hi, count)
    curve = crit
    if crit.q is None:
        mu = certify(model, design, crit).least_favorable_weights
        if mu is None:
            raise MatrixGameError("the Wong audit's matrix game is unsolved")
        curve = Criterion(np.array(list(mu)), np.array(list(mu.values())),
                          np.zeros(len(mu)))
    paths = [f"{prefix}.dirderiv.txt"]
    write_xy(paths[0], xs, curve.derivative(model, design, xs))
    if criterion["kind"] == "local":
        return paths
    if criterion["kind"] == "bayes":
        b_lo, b_hi = _prior(criterion).support_interval
        crit = Criterion.maximin(model, np.linspace(max(b_lo, 1e-6), b_hi, count))
    paths.append(f"{prefix}.efficiency.txt")
    write_xy(paths[1], crit.betas, np.exp(crit.log_efficiencies(model, design)))
    return paths
