"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the root of a source checkout, like run.py.
"""

from __future__ import annotations

import json
import os
import tempfile
import unittest

import run

run.prepare_process()

import numpy as np  # noqa: E402

import optdesign as od  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ARTIFACT = os.path.join(workloads.ARTIFACTS, "maximin-exp1-40.json")


def traced_pass(ops):
    tracer = layers.make_tracer()
    try:
        results = run.run_pass(ops, od, None, tracer)
    finally:
        tracer.uninstall()
    return tracer, results


class TracerTest(unittest.TestCase):
    def test_self_times_fit_inside_each_op(self):
        ops = [workloads.maximin_op(od.EXP1, 12.0),
               workloads.bayes_op(od.EXP2, 6.0, 10),
               workloads.recertify_op(ARTIFACT, True)]
        tracer, results = traced_pass(ops)
        self.assertFalse([r["problems"] for r in results if r["problems"]])
        selfs = tracer.self_times()
        for i, r in enumerate(results):
            spans = [k for k, s in enumerate(tracer.spans) if s[4] == i]
            self.assertTrue(spans, r["name"])
            top = [k for k in spans if tracer.spans[k][3] is None]
            top_self = sum(selfs[k] for k in top)
            top_wall = sum(tracer.spans[k][2] - tracer.spans[k][1] for k in top)
            leaf_s = sum(v for (_, op), v in tracer.leaf_seconds.items()
                         if op == i)
            self.assertLessEqual(top_self, r["seconds"], r["name"])
            self.assertLessEqual(top_wall, r["seconds"], r["name"])
            self.assertLessEqual(sum(selfs[k] for k in spans) + leaf_s,
                                 r["seconds"], r["name"])
            self.assertTrue(all(selfs[k] >= -1e-9 for k in spans))

    def test_calls_through_from_imports_are_seen(self):
        tracer, _ = traced_pass([workloads.bayes_op(od.EXP2, 6.0, 10)])
        names = [s[0] for s in tracer.spans]
        solve = names.index("bayes.solve_bayes")
        engine = [s for s in tracer.spans
                  if s[0] == "local.maximize_weighted_logdet"]
        self.assertTrue(engine)
        self.assertEqual(engine[0][3], solve)
        leaves = {name for name, _ in tracer.leaf_calls}
        self.assertIn("local.info_stack", leaves)
        self.assertIn("models.Model.score_matrix", leaves)
        self.assertGreater(tracer.counters["local.info_stack.gflop"], 0.0)

    def test_uninstall_restores_every_binding(self):
        before = (od.bayes.maximize_weighted_logdet, od.local.info_stack,
                  od.Model.score_matrix, od.solve_maximin)
        tracer = layers.make_tracer()
        self.assertIsNot(od.bayes.maximize_weighted_logdet, before[0])
        self.assertIs(od.bayes.maximize_weighted_logdet,
                      od.local.maximize_weighted_logdet)
        self.assertTrue(hasattr(od.local.local_design, "cache_info"))
        tracer.uninstall()
        after = (od.bayes.maximize_weighted_logdet, od.local.info_stack,
                 od.Model.score_matrix, od.solve_maximin)
        self.assertEqual(before, after)

    def test_missing_stage_is_absent_not_an_error(self):
        tracer = Tracer()
        tracer.install(["maximin._no_such_stage", "nosuchmodule.f",
                        "models.Model.no_such_method"])
        self.assertEqual(tracer.absent, {"maximin._no_such_stage",
                                         "nosuchmodule.f",
                                         "models.Model.no_such_method"})
        tracer.uninstall()


class GateTest(unittest.TestCase):
    def test_wrong_expected_verdict_counts_as_failed(self):
        ops = [workloads.recertify_op(ARTIFACT, expect=False),
               workloads.recertify_op(ARTIFACT, expect=True)]
        results = run.run_pass(ops, od, None)
        failed = [bool(r["problems"]) for r in results]
        self.assertEqual(failed, [True, False])

    def test_perturbed_design_that_passes_is_a_failure(self):
        with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
            dst = os.path.join(workdir, "p.json")
            workloads.perturbed_artifact(ARTIFACT, dst, np.random.default_rng(0))
            ops = [workloads.recertify_op(dst, expect=True)]
            results = run.run_pass(ops, od, None)
        self.assertTrue(results[0]["problems"])

    def test_reference_mismatch_is_a_failure(self):
        op = workloads.recertify_op(ARTIFACT, True)
        ok = run.run_pass([op], od, None)[0]
        wrong = {op.name: ok["value"] * (1.0 + 1e-4)}
        self.assertTrue(run.run_pass([op], od, wrong)[0]["problems"])
        self.assertFalse(run.run_pass([op], od, {op.name: ok["value"]})[0]
                         ["problems"])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         layers.metric_units())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_same_seed_same_inputs(self):
        for name in run.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
                a = [op.name for op in workloads.build(name, 7, workdir)]
                b = [op.name for op in workloads.build(name, 7, workdir)]
                c = [op.name for op in workloads.build(name, 8, workdir)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)


if __name__ == "__main__":
    unittest.main()
