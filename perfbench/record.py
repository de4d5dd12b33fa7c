"""Write the stored design artifacts and the default-seed reference values.

    python3 perfbench/record.py artifacts   # perfbench/artifacts/*.json
    python3 perfbench/record.py reference   # perfbench/reference.json

Both were recorded once, at the commit that introduced the benchmark; the
reference gate asks every later commit to reproduce those values.  Record
again only when the op list of a workload changes, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import run

ARTIFACTS = {
    "maximin-exp1-40.json": ("maximin", "exp1", 40.0, 400),
    "maximin-exp1-100.json": ("maximin", "exp1", 100.0, 400),
    "maximin-exp2-4.json": ("maximin", "exp2", 4.0, 20),
    "maximin-exp3-4.json": ("maximin", "exp3", 4.0, 20),
    "bayes-exp1-100.json": ("bayes", "exp1", 100.0, 200),
    "bayes-exp1-300.json": ("bayes", "exp1", 300.0, 200),
    "bayes-exp2-10.json": ("bayes", "exp2", 10.0, 50),
}


def write_artifacts(od) -> None:
    import workloads

    os.makedirs(workloads.ARTIFACTS, exist_ok=True)
    for name, (kind, model_name, B, size) in ARTIFACTS.items():
        model = od.get_model(model_name)
        if kind == "maximin":
            criterion = od.BetaGrid(1.0, B, size)
            design, cert = od.solve_maximin(model, criterion)
        else:
            criterion = od.ParameterPrior.uniform(1.0, B, size)
            design, cert = od.solve_bayes(model, criterion)
        if not cert.passed:
            raise SystemExit(f"{name}: certificate failed")
        od.io.write_artifact(os.path.join(workloads.ARTIFACTS, name),
                             model, criterion, design, cert)
        print("wrote", name, flush=True)


def write_reference(od) -> None:
    import tempfile

    import workloads

    out = {}
    for workload in run.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
            ops = workloads.build(workload, run.DEFAULT_SEED, workdir)
            results = run.run_pass(ops, od, None)
        for r in results:
            if r["problems"]:
                raise SystemExit(f"{r['name']}: {r['problems']}")
            print(f"{r['name']}: {r['value']!r}", flush=True)
        out[workload] = {r["name"]: r["value"] for r in results}
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    run.prepare_process()
    import optdesign as od
    import optdesign.io  # noqa: F401

    what = sys.argv[1:] or ["artifacts", "reference"]
    if "artifacts" in what:
        write_artifacts(od)
    if "reference" in what:
        write_reference(od)
    return 0


if __name__ == "__main__":
    sys.exit(main())
