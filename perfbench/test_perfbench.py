"""Tests of the benchmark itself: its oracles, its spans and its patching.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Context, Outcome, hg, homs  # noqa: E402


def bindings() -> dict:
    return {(mod.__name__, attr): value for mod in spans.tentopt_modules()
            for attr, value in vars(mod).items()}


def test_region_oracle_rejects_value_below_feasible_point():
    kkt = {"optimal": True, "residual": 0.0}
    for r, k in ((12, 2), (12, 4)):  # counterexample point, then linear point
        ref = workloads.feasible_product(r, k)
        assert workloads.region_verdict(r, k, ref, kkt) == (True, True)
        assert workloads.region_verdict(r, k, ref * (1 - 1e-6), kkt)[0] is False
    assert workloads.region_verdict(12, 2, 1.0, {"optimal": True, "residual": 1e-6}) == (True, False)


def test_mantel_oracle_rejects_wrong_number():
    ex, extremal = homs.brute_force_ex(5, hg.tent_family(2, 1))
    assert workloads.mantel_verdict(5, ex, extremal)
    assert not workloads.mantel_verdict(5, ex + 1, extremal)
    assert not workloads.mantel_verdict(5, ex - 1, extremal)


def test_extremal_oracle_rejects_graph_containing_the_tent():
    fam = hg.tent_family(3, 1)
    ex, extremal = homs.brute_force_ex(5, fam)
    assert workloads.extremal_verdict(5, fam, ex, extremal)
    tent = fam.members[0]
    assert tent.n == 5
    assert not workloads.extremal_verdict(5, fam, len(tent.edges), [tent])


def test_failed_and_errored_cases_are_counted():
    outcomes = [workloads.run_case("ok", lambda: (True, True)),
                workloads.run_case("unproven", lambda: (True, False)),
                workloads.run_case("wrong", lambda: (False, True)),
                workloads.run_case("raises", lambda: 1 / 0)]
    assert [o.verdict for o in outcomes] == ["pass", "pass", "fail", "error"]
    assert outcomes[3].error == "ZeroDivisionError"
    fr = run.fractions(outcomes)
    assert fr["failed_frac"] == 0.5
    assert fr["uncertified_frac"] == 0.25
    assert fr["passed_frac"] == 0.5


def check_spans(tracer, wall: float):
    stats = {name: s.as_dict() for name, s in tracer.stats.items()}
    assert all(s["self_s"] >= 0 for s in stats.values()), stats
    root = stats["bench.pass"]["total_s"]
    assert abs(sum(s["self_s"] for s in stats.values()) - root) <= 1e-9 * root
    assert root <= wall and wall - root < 0.05


def test_span_self_times_sum_to_traced_wall(tmp_path):
    ctx = Context(seed=3, work=tmp_path, env={})
    tracer = spans.Tracer(layers.HOOKS)
    hosts = [h for h in workloads.host_inputs(3) if h[0] == "edge"][:1]
    start = time.perf_counter()
    with tracer.install(layers.LAYERS), tracer.span("bench.pass"):
        out = workloads.RegionSweep().run_pass([(9, 2), (10, 3)], ctx)
        out += workloads.HostDensities().run_pass(hosts, ctx)
    wall = time.perf_counter() - start
    assert all(o.verdict == "pass" for o in out), out
    check_spans(tracer, wall)
    # calls made inside the package are seen through the consumer bindings
    assert tracer.stats["region.slsqp"].calls > 0
    assert tracer.edge_s["entropy.entropic_density>lagrangian.lagrangian"] > 0
    metrics = layers.layer_metrics({n: s.as_dict() for n, s in tracer.stats.items()},
                                   dict(tracer.edge_s))
    assert metrics["kernels.replicator_batch.step_flops"][0] > 0
    assert 0 < metrics["region.slsqp.useful_frac"][0] <= 1


def test_cli_child_spans_merge_into_the_parent(tmp_path):
    env = run.child_env(tmp_path)
    ctx = Context(seed=3, work=tmp_path, env=env)
    tracer = spans.Tracer(layers.HOOKS)
    ctx.tracer = tracer
    start = time.perf_counter()
    with tracer.span("bench.pass"):
        code = workloads.TheoremTable()._cli(
            ctx, tmp_path, ["region", "counterexample", "--r", "12", "--k", "2"])
    wall = time.perf_counter() - start
    assert code == 0
    check_spans(tracer, wall)
    assert tracer.stats["cli.process"].calls == 1
    assert tracer.stats["cli.import"].calls == 1
    assert tracer.stats["region.counterexample_point"].calls == 1


def test_install_restores_every_binding():
    before = bindings()
    tracer = spans.Tracer(layers.HOOKS)
    try:
        with tracer.install(layers.LAYERS) as patched:
            assert len(patched) > len(layers.LAYERS)  # consumers were patched too
            changed = {key for key, value in bindings().items() if before.get(key) is not value}
            assert ("tentopt.entropy", "lagrangian") in changed
            assert ("tentopt.region", "minimize") in changed
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "region-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    outcomes = [Outcome("a", "pass", True)]
    e2e = run.end_to_end_metrics([1.0], [0.5], 1024, outcomes)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    tracer = spans.Tracer()
    with tracer.span("bench.pass"):
        pass
    layer = run.trace_metrics(tracer, 0.0, outcomes)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
