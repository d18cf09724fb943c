"""tentopt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tentopt checkout; the package is imported from
``src/``.  Workloads are listed in ``BENCHMARK.json`` and defined in
``workloads.py``.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, thread pinning, platform and versions and, with
``--trace 1``, every case's verdict.

``--trace 0`` repeats the workload's pass while another pass still fits in
``--seconds`` and reports end-to-end metrics (wall time is the median
pass).  ``--trace 1`` runs one plain pass and one pass with spans installed
around every tentopt layer, and reports per-layer metrics plus the tracing
overhead (traced minus plain wall time).
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and every child.  Pinned before
# numpy loads: two threads double user CPU time for the same wall time and
# change which region cases fail.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import HOOKS, LAYERS, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(work)
    return env


def measure_setup(wl, ctx, run_child) -> list[float]:
    """Set-up time, measured in fresh interpreters.  In-process workloads:
    importing tentopt and generating the inputs from the seed.  CLI
    workloads: one ``python -m tentopt.cli --help``, which every CLI call
    pays before doing work."""
    samples = []
    for i in range(SETUP_REPEATS):
        log = ctx.work / f"setup{i}.log"
        if wl.cli:
            cmd = [sys.executable, "-m", "tentopt.cli", "--help"]
        else:
            cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(ctx.seed)]
        code, wall, _ = run_child(cmd, ctx.env, log)
        if code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {log.read_text()[-500:]}")
        samples.append(wall if wl.cli else float(log.read_text().split()[-1]))
    return samples


def run_passes(wl, inputs, ctx, seconds: float):
    """Repeat the pass while another one still fits in ``seconds``."""
    walls, outcomes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcomes += wl.run_pass(inputs, ctx)
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + max(walls) > seconds:
            return walls, outcomes


def traced_pass(wl, inputs, ctx):
    tracer = Tracer(HOOKS)
    ctx.tracer = tracer
    try:
        with tracer.install(LAYERS), tracer.span("bench.pass"):
            outcomes = wl.run_pass(inputs, ctx)
    finally:
        ctx.tracer = None
    return tracer, outcomes


def fractions(outcomes) -> dict:
    n = len(outcomes)
    failed = sum(o.verdict != "pass" for o in outcomes)
    uncertified = sum(o.verdict == "pass" and not o.certified for o in outcomes)
    return {"failed_frac": failed / n, "uncertified_frac": uncertified / n,
            "passed_frac": 1 - failed / n}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    kernels = importlib.import_module("tentopt._kernels")
    return {
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernels.backend_name(),
        "flops_bytes": "computed from call shapes, not measured",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tentopt" / "__init__.py").is_file():
        print(f"error: no tentopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / "perfbench" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = workloads.Context(seed=args.seed, work=work, env=child_env(work))
        inputs = wl.inputs(args.seed)
        info = {"workload": wl.name, **environment(args.seed)}
        if args.trace:
            plain_s = time.perf_counter()
            outcomes = wl.run_pass(inputs, ctx)
            plain_s = time.perf_counter() - plain_s
            tracer, traced = traced_pass(wl, inputs, ctx)
            outcomes += traced
            metrics = trace_metrics(tracer, plain_s, outcomes)
            info["cases"] = [o.as_list() for o in traced]
            info["spans"] = {name: s.as_dict() for name, s in tracer.stats.items()}
        else:
            setup = measure_setup(wl, ctx, workloads.run_child)
            walls, outcomes = run_passes(wl, inputs, ctx, args.seconds)
            rss_kb = (ctx.child_rss_kb if wl.cli
                      else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            metrics = end_to_end_metrics(walls, setup, rss_kb, outcomes)
            fr = fractions(outcomes)
            info.update(pass_walls=walls, setup_samples=setup,
                        failed_frac=fr["failed_frac"], uncertified_frac=fr["uncertified_frac"],
                        cases=[o.as_list() for o in outcomes[:len(outcomes) // len(walls)]])
        info["processes"] = ctx.processes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = sorted({o.error for o in outcomes if o.error})
    info["error_types"] = errors
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": not any(o.verdict == "fail" for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.verdict != "pass" for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end_metrics(walls, setup, rss_kb: int, outcomes) -> dict:
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "passed_frac": (fractions(outcomes)["passed_frac"], "fraction"),
    }


def trace_metrics(tracer, plain_s: float, outcomes) -> dict:
    """Per-layer metrics of a traced pass.  ``trace.overhead_s`` compares it
    with the plain pass run just before, which also pays first-call costs,
    so on a noisy machine it can come out negative."""
    stats = {name: s.as_dict() for name, s in tracer.stats.items()}
    metrics = layer_metrics(stats, dict(tracer.edge_s))
    fr = fractions(outcomes)
    metrics["failed_frac"] = (fr["failed_frac"], "fraction")
    metrics["uncertified_frac"] = (fr["uncertified_frac"], "fraction")
    metrics["trace.overhead_s"] = (stats["bench.pass"]["total_s"] - plain_s, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
