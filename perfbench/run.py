"""optdesign benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload maximin-scalar --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` with one BLAS thread.  A run builds the workload's op list from the
seed, then runs it in passes, one op at a time (a closed loop), starting
every op cold (see ``reset_before_op``), until another pass would not fit in
``--seconds``; the first pass always runs.  ``--trace 0`` prints the
end-to-end metrics, timed in process CPU seconds, ``--trace 1`` one untraced
and one traced pass and the per-layer metrics.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
WORKLOADS = ("maximin-scalar", "maximin-multi", "bayes", "audit")
# bounded in BENCHMARK.json
END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# printed only: single-op times and wall time are not steady (README.md)
PRINTED = {"op_cpu_s.p50": "s", "op_cpu_s.max": "s",
           "wall_s": "s", "op_s.p50": "s", "op_s.max": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_process() -> None:
    """Environment of every process that imports optdesign; call before the
    first numpy import."""
    os.environ.pop("OPTDESIGN_THREADS", None)
    # One BLAS thread: with the default two, OpenBLAS wakes a helper for the
    # package's many tiny calls, which made EXP1 maximin 1.8x slower and its
    # CPU time noisy on a 2-core VM (see README.md).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def clean_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup() -> list:
    """CPU seconds (user + system) of fresh interpreters that import
    optdesign, and with it numpy and scipy, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import optdesign"],
                       env=clean_env(), check=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime - before.ru_utime
                     + after.ru_stime - before.ru_stime)
    return times


def reset_before_op(od) -> None:
    """Start every op cold, as a CLI call does: empty solver caches, and no
    garbage or free heap left by earlier ops, so that ``peak_rss_mb`` does not
    depend on the op order (glibc keeps freed arrays in the heap otherwise)."""
    for name in ("local_design", "local_logdet"):
        fn = getattr(od.local, name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def reference_problems(name, value, reference) -> list:
    """The seed commit's value for this op, to 1e-6 (default seed only)."""
    if reference is None:
        return []
    if name not in reference:
        return [f"no reference value for {name!r}"]
    ref = reference[name]
    if not abs(value - ref) <= 1e-6 * max(1.0, abs(ref)):
        return [f"value {value!r} differs from the reference {ref!r}"]
    return []


def run_op(op, index, od, reference, tracer=None) -> dict:
    from workloads import Outcome

    reset_before_op(od)
    if tracer is not None:
        tracer.op_id = index
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        outcome = op.call()
    except Exception as exc:  # a raising op is a failed op; the run goes on
        outcome = Outcome(None, math.nan, [f"{type(exc).__name__}: {exc}"])
    seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    problems = list(outcome.problems)
    if outcome.verdict is not None and outcome.verdict != op.expect:
        problems.append(f"verdict {outcome.verdict}, expected {op.expect}")
    if outcome.verdict is not None:
        problems += reference_problems(op.name, outcome.value, reference)
    if tracer is not None:
        import layers

        layers.record_cache_misses(tracer, od)
    return {"name": op.name, "seconds": seconds, "cpu_s": cpu,
            "value": outcome.value, "problems": problems}


def run_pass(ops, od, reference, tracer=None) -> list:
    return [run_op(op, i, od, reference, tracer) for i, op in enumerate(ops)]


def op_times(passes, key) -> tuple:
    """(median pass total, median op, slowest op) of one clock; an op's time
    is its median over passes."""
    per_op = [statistics.median(p[i][key] for p in passes)
              for i in range(len(passes[0]))]
    return (statistics.median(sum(r[key] for r in p) for p in passes),
            statistics.median(r[key] for p in passes for r in p),
            max(per_op))


def end_to_end(passes, setup_times) -> dict:
    cpu = op_times(passes, "cpu_s")
    wall = op_times(passes, "seconds")
    return {
        "setup_s": statistics.median(setup_times),
        "cpu_s": cpu[0], "op_cpu_s.p50": cpu[1], "op_cpu_s.max": cpu[2],
        "wall_s": wall[0], "op_s.p50": wall[1], "op_s.max": wall[2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def blas_threads():
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def metadata(args, ops_per_run) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = None
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "optdesign", "*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": blas_threads(), "ops_per_run": ops_per_run,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "optdesign")):
        print(f"no optdesign package under {SRC}", file=sys.stderr)
        return 2
    prepare_process()
    import optdesign as od
    import workloads

    setup_times = measure_setup()
    reference = None
    if args.seed == DEFAULT_SEED:
        with open(REFERENCE) as fh:
            reference = json.load(fh).get(args.workload, {})

    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        ops = workloads.build(args.workload, args.seed, workdir)
        passes = []
        t_start = time.perf_counter()
        while True:
            passes.append(run_pass(ops, od, reference))
            elapsed = time.perf_counter() - t_start
            if args.trace or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        if args.trace:
            import layers

            cap = layers.saddle_cap(od)
            tracer = layers.make_tracer()
            try:
                traced = run_pass(ops, od, reference, tracer)
            finally:
                tracer.uninstall()

    results = [r for p in passes for r in p]
    if args.trace:
        results += traced
        values = layers.metrics(tracer, cap)
        values["trace.overhead_s"] = (sum(r["seconds"] for r in traced)
                                      - sum(r["seconds"] for r in passes[0]))
        units = layers.metric_units()
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"),
                  "w") as fh:
            json.dump(tracer.to_records(), fh)
    else:
        values = end_to_end(passes, setup_times)
        units = END_TO_END

    failed = sum(1 for r in results if r["problems"])
    for r in results:
        status = "FAIL " + "; ".join(r["problems"]) if r["problems"] else "ok"
        print(f"op {r['name']:<40} {r['seconds']:8.3f} s wall "
              f"{r['cpu_s']:8.3f} s cpu  {status}")
    print(f"{'failed_frac':<44} {failed / len(results):.6g} fraction "
          f"({failed} of {len(results)} ops)")
    for name, unit in {**units, **({} if args.trace else PRINTED)}.items():
        print(f"{name:<44} {values[name]:.6g} {unit}")
    if args.trace and tracer.absent:
        print("absent: " + ", ".join(sorted(tracer.absent)))
    print("meta " + json.dumps(metadata(args, len(results)), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
