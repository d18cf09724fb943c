"""The tentopt layers the traced run wraps, the counters recorded at each
boundary, and the per-layer metrics derived from them.

Iteration and search-node counts live inside the package and are not
visible from here; the kernel's flops and bytes per step are computed from
the call's shapes, not read from hardware counters.
"""

from __future__ import annotations

import math

# (span name, defining module, attribute).  Every tentopt module that holds
# the same function object under that attribute is patched.
LAYERS = [
    ("kernels.replicator_batch", "tentopt._kernels", "replicator_batch"),
    ("kernels.edge_poly_batch", "tentopt._kernels", "edge_poly_batch"),
    ("lagrangian.lagrangian", "tentopt.lagrangian", "lagrangian"),
    ("entropy.entropic_density", "tentopt.entropy", "entropic_density"),
    ("entropy.verify_ratio_constraints", "tentopt.entropy", "verify_ratio_constraints"),
    ("region.maximize_product", "tentopt.region", "maximize_product"),
    ("region.slsqp", "tentopt.region", "minimize"),
    ("region.kkt_certificate", "tentopt.region", "kkt_certificate"),
    ("region.nnls", "tentopt.region", "nnls"),
    ("region.linprog", "tentopt.region", "linprog"),
    ("region.counterexample_point", "tentopt.region", "counterexample_point"),
    ("region.check_feasible", "tentopt.region", "check_feasible"),
    ("homs.find_homomorphism", "tentopt.homs", "find_homomorphism"),
    ("homs.find_partial_homomorphism", "tentopt.homs", "find_partial_homomorphism"),
    ("homs.brute_force_ex", "tentopt.homs", "brute_force_ex"),
    ("homs.milp", "tentopt.homs", "milp"),
    ("isomorphism.is_isomorphic", "tentopt.isomorphism", "is_isomorphic"),
    ("certificates.verify_certificate", "tentopt.certificates", "verify_certificate"),
]

# relative distance from the best value of a call within which a start or
# solve counts as useful
USEFUL_REL = 1e-9


def replicator_step_cost(starts: int, m: int, r: int, n: int) -> tuple[int, int]:
    """Flops and bytes of one batched step of the numpy replicator kernel.

    Per start and edge: leave-one-out products (3r - 2 multiplies), the edge
    product (r - 1) and its sum (1), and r scatter-adds into the gradient.
    Per start and vertex: rescale, normalise and convergence test (7).
    Bytes count 8-byte reads and writes of the gathered factors, the two
    prefix/suffix arrays, their product, the edge indices and the gradient
    (6 m r), plus the point, its update and the gradient row (5 n).
    """
    flops = starts * (m * (5 * r - 2) + 7 * n)
    nbytes = starts * 8 * (6 * m * r + 5 * n)
    return flops, nbytes


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _replicator(tracer, span, args, kwargs, result, error):
    edges = _arg(args, kwargs, 0, "edges")
    n = _arg(args, kwargs, 1, "n")
    starts = _arg(args, kwargs, 2, "starts")
    m, r = len(edges), len(edges[0])
    flops, nbytes = replicator_step_cost(len(starts), m, r, n)
    c = tracer.stats[span.name].counters
    c["starts"] += len(starts)
    c["step_flops"] += flops
    c["step_bytes"] += nbytes
    if result is not None:
        values = result[0]
        best = float(values.max())
        c["useful_starts"] += int((values >= best - USEFUL_REL * abs(best)).sum())


def _edge_poly(tracer, span, args, kwargs, result, error):
    tracer.stats[span.name].counters["points"] += len(_arg(args, kwargs, 1, "points"))


def _lagrangian(tracer, span, args, kwargs, result, error):
    if result is not None and result.status == "budget-limited":
        tracer.stats[span.name].counters["budget_limited"] += 1


def _entropic(tracer, span, args, kwargs, result, error):
    if result is not None and result.status == "best-found":
        tracer.stats[span.name].counters["best_found"] += 1


def _slsqp(tracer, span, args, kwargs, result, error):
    c = tracer.stats[span.name].counters
    if result is None:
        return
    c["nit"] += int(getattr(result, "nit", 0))
    c["success"] += bool(result.success)
    outer = span.ancestor("region.maximize_product")
    if outer is not None:
        # SLSQP minimises -sum(log z); the product of the free coordinates
        # is the region objective, since x_r = 1
        outer.data.setdefault("values", []).append(math.exp(-float(result.fun)))


def _maximize(tracer, span, args, kwargs, result, error):
    values = span.data.get("values", [])
    if values:
        best = max(values)
        useful = sum(v >= best * (1 - USEFUL_REL) for v in values)
        tracer.stats["region.slsqp"].counters["useful"] += useful


HOOKS = {
    "kernels.replicator_batch": _replicator,
    "kernels.edge_poly_batch": _edge_poly,
    "lagrangian.lagrangian": _lagrangian,
    "entropy.entropic_density": _entropic,
    "region.slsqp": _slsqp,
    "region.maximize_product": _maximize,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, edge_s: dict) -> dict:
    """Per-layer metrics, name -> (value, unit), from merged span stats.

    ``stats`` maps span name -> Stat-like dict; ``edge_s`` maps
    "parent>child" -> seconds.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0, "counters": {}}

    def get(name):
        return stats.get(name, empty)

    out = {}
    for name, _, _ in LAYERS:
        s = get(name)
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.self_s"] = (s["self_s"], "s")

    rep = get("kernels.replicator_batch")
    rc = rep["counters"]
    out["kernels.replicator_batch.starts"] = (rc.get("starts", 0), "count")
    # one batched step, averaged over calls
    out["kernels.replicator_batch.step_flops"] = (
        _ratio(rc.get("step_flops", 0), rep["calls"]), "flop_computed")
    out["kernels.replicator_batch.step_bytes"] = (
        _ratio(rc.get("step_bytes", 0), rep["calls"]), "B_computed")
    out["kernels.edge_poly_batch.points"] = (
        get("kernels.edge_poly_batch")["counters"].get("points", 0), "count")

    lag = get("lagrangian.lagrangian")
    out["lagrangian.lagrangian.total_s"] = (lag["total_s"], "s")
    out["lagrangian.lagrangian.call_max_s"] = (lag["max_s"], "s")
    out["lagrangian.lagrangian.budget_limited"] = (
        lag["counters"].get("budget_limited", 0), "count")
    out["lagrangian.useful_start_frac"] = (
        _ratio(rc.get("useful_starts", 0), rc.get("starts", 0)), "fraction")

    ent = get("entropy.entropic_density")
    out["entropy.entropic_density.total_s"] = (ent["total_s"], "s")
    out["entropy.entropic_density.best_found"] = (
        ent["counters"].get("best_found", 0), "count")
    out["entropy.nested_lagrangian_s"] = (
        edge_s.get("entropy.entropic_density>lagrangian.lagrangian", 0.0), "s")

    out["region.maximize_product.total_s"] = (get("region.maximize_product")["total_s"], "s")
    sq = get("region.slsqp")
    out["region.slsqp.nit"] = (sq["counters"].get("nit", 0), "count")
    out["region.slsqp.success_frac"] = (
        _ratio(sq["counters"].get("success", 0), sq["calls"]), "fraction")
    out["region.slsqp.useful_frac"] = (
        _ratio(sq["counters"].get("useful", 0), sq["calls"]), "fraction")

    cli = get("cli.process")
    out["cli.processes"] = (cli["calls"], "count")
    out["cli.process_s"] = (cli["total_s"], "s")
    out["cli.import_s"] = (get("cli.import")["total_s"], "s")
    return out
