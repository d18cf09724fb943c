"""The numpy kernels against plain references: an edge-by-edge Python
evaluation of the edge polynomial, its gradient and one replicator step, and
a replicator ascent that stops only when no coordinate moves."""

import math

import numpy as np
import pytest

from tentopt import _kernels
from tentopt.hypergraphs import Hypergraph, make_tent, make_turan_graph, random_hypergraph
from tentopt.lagrangian import lagrangian


def _edge_array(H):
    return np.array(H.sorted_edges, dtype=np.int64)


CASES = [make_tent(2, 1), make_tent(3, 1), make_tent(4, 2), make_turan_graph(3, 6)]


# ---------------------------------------------------------------------------
# edge-by-edge Python reference


def ref_poly(edges, x):
    return sum(math.prod(x[v] for v in e) for e in edges)


def ref_gradient(edges, x):
    grad = [0.0] * len(x)
    for e in edges:
        for j, v in enumerate(e):
            grad[v] += math.prod(x[u] for t, u in enumerate(e) if t != j)
    return grad


def ref_residual(edges, r, x):
    P = ref_poly(edges, x)
    ratio = [g / (r * P) for g in ref_gradient(edges, x)]
    return max(abs(q - 1) if xv > _kernels.SUPPORT_TOL else max(q - 1, 0.0)
               for xv, q in zip(x, ratio))


def ref_step(edges, r, x):
    P = ref_poly(edges, x)
    new = [xv * g / (r * P) for xv, g in zip(x, ref_gradient(edges, x))]
    total = sum(new)
    return [v / total for v in new]


# ---------------------------------------------------------------------------
# no-early-stop reference: the replicator ascent as it ran before the
# certified stop and the reach rule, gradient by scatter-add


def full_ascent(edges, n, starts, iters, tol):
    m, r = edges.shape
    others = [[t for t in range(r) if t != j] for j in range(r)]
    X = starts.copy()
    active = np.ones(len(X), dtype=bool)
    for _ in range(iters):
        idx = np.flatnonzero(active)
        if not len(idx):
            break
        Xa = X[idx]
        factors = Xa[:, edges]
        P = factors.prod(axis=2).sum(axis=1)
        # scatter-add each slot's product of the other factors to its vertex
        slots = np.stack([factors[..., o].prod(axis=2) for o in others], axis=2)
        bins = (np.arange(len(Xa))[:, None, None] * n + edges[None]).ravel()
        grad = np.bincount(bins, slots.ravel(), len(Xa) * n).reshape(len(Xa), n)
        newX = Xa * grad / (r * P)[:, None]
        newX /= newX.sum(axis=1, keepdims=True)
        delta = np.abs(newX - Xa).max(axis=1)
        X[idx] = newX
        active[idx[delta < tol]] = False
    return X[:, edges].prod(axis=2).sum(axis=1)


@pytest.mark.parametrize("H", CASES, ids=lambda h: f"r{h.r}n{h.n}m{len(h.edges)}")
def test_edge_poly_backends_agree(H):
    """edge_poly_batch and edge_gradient match the Python reference."""
    rng = np.random.default_rng(3)
    pts = rng.dirichlet(np.ones(H.n), size=50)
    pts[0, 0] = 0.0  # a zero weight: leave-one-out products must stay exact
    edges = _edge_array(H)
    ref = [ref_poly(H.sorted_edges, list(p)) for p in pts]
    np.testing.assert_allclose(_kernels.edge_poly_batch(edges, pts), ref, rtol=1e-13)
    P, grad = _kernels.edge_gradient(edges, _kernels.slot_matrix(edges, H.n), pts.T)
    np.testing.assert_allclose(P, ref, rtol=1e-13)
    np.testing.assert_allclose(
        grad.T, [ref_gradient(H.sorted_edges, list(p)) for p in pts], rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("H", CASES, ids=lambda h: f"r{h.r}n{h.n}m{len(h.edges)}")
def test_replicator_backends_agree(H):
    """Each start ends where as many Python reference steps take it, and a
    start that stopped certified has a reference residual below the bound."""
    rng = np.random.default_rng(4)
    starts = rng.dirichlet(np.ones(H.n), size=20)
    edges = _edge_array(H)
    values, X, steps, stops = _kernels.replicator_batch(edges, H.n, starts, iters=300, tol=1e-14)
    assert len(values) == len(X) == len(steps) == len(stops) == len(starts)
    for s in range(len(starts)):
        prev = x = list(starts[s])
        for _ in range(steps[s]):
            prev, x = x, ref_step(H.sorted_edges, H.r, x)
        np.testing.assert_allclose(X[s], x, rtol=1e-9, atol=1e-12)
        assert values[s] == pytest.approx(ref_poly(H.sorted_edges, x), rel=1e-12)
        if stops[s] == _kernels.CERTIFIED:
            # the residual was certified at the point before the last step
            assert ref_residual(H.sorted_edges, H.r, prev) < 2 * _kernels.CERTIFIED_RESIDUAL


def test_replicator_monotone_objective():
    H = make_turan_graph(3, 6)
    edges = _edge_array(H)
    rng = np.random.default_rng(9)
    x = rng.dirichlet(np.ones(H.n))[None, :]
    prev = -np.inf
    for iters in (1, 5, 20, 100, 500):
        val = _kernels.replicator_batch(edges, H.n, x, iters=iters, tol=0.0)[0]
        assert val[0] >= prev - 1e-12
        prev = val[0]


def random_hosts(count, seed):
    rng = np.random.default_rng(seed)
    hosts = []
    while len(hosts) < count:
        r = int(rng.integers(2, 5))
        n = int(rng.integers(r + 1, 8))
        H = random_hypergraph(r, n, float(rng.uniform(0.3, 0.8)), rng)
        if len(H.edges) >= 2:
            hosts.append(H)
    return hosts


# A 3-graph with a plateau: PLATEAU_STARTS[1] sits by the K4^(3) on
# {2, 4, 5, 6} (value 1/16), where vertex 3 has ratio about 1.012, so its
# weight of 1e-9 grows by about 1.2% a step and the start leaves for the
# global maximum (0.0672760) only after some 1 500 iterations of tiny but
# growing gain.  PLATEAU_STARTS[0] certifies at a lower local maximum
# (0.0626175) after about 400 iterations.
PLATEAU_HOST = [(0, 1, 4), (0, 1, 6), (0, 2, 3), (0, 2, 6), (0, 3, 5), (0, 3, 6),
                (0, 4, 6), (0, 5, 6), (1, 3, 6), (1, 4, 6), (1, 5, 6), (2, 3, 4),
                (2, 3, 6), (2, 4, 5), (2, 4, 6), (2, 5, 6), (3, 4, 6), (4, 5, 6)]
PLATEAU_STARTS = [[0.216, 0.213, 0.0, 0.039, 0.213, 0.039, 0.279],
                  [0.005, 0.0, 0.2475, 1e-9, 0.2475, 0.2475, 0.2525]]


def test_early_stop_keeps_best_value():
    """On 50 seeded random hosts and on a host with a plateau the best value
    of the early-stopping kernel is within 1e-9 (relative) of the ascent
    that stops only on delta."""
    rng = np.random.default_rng(11)
    cases = []
    for H in random_hosts(50, 10):
        cases.append((_edge_array(H), H.n, np.vstack([
            np.full((1, H.n), 1.0 / H.n), rng.dirichlet(np.ones(H.n), size=20)])))
    starts = np.array(PLATEAU_STARTS)
    cases.append((np.array(PLATEAU_HOST, dtype=np.int64), 7, starts / starts.sum(axis=1)[:, None]))
    for edges, n, starts in cases:
        values = _kernels.replicator_batch(edges, n, starts, iters=20000, tol=1e-12)[0]
        ref = full_ascent(edges, n, starts, 20000, 1e-12)
        assert values.max() == pytest.approx(ref.max(), rel=1e-9), edges.tolist()


# a random 3-graph on which some starts crawl toward a worse local maximum
CRAWL_HOST = [(0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 2, 3), (0, 2, 5), (0, 2, 6),
              (0, 4, 5), (0, 5, 6), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 5),
              (1, 4, 5), (2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 6),
              (3, 5, 6), (4, 5, 6)]


def test_reach_rule_drops_starts_behind_a_certified_best():
    """The crawling starts stop by the reach rule long before the cap, and
    the best value stays that of the full ascent."""
    edges = np.array(CRAWL_HOST, dtype=np.int64)
    starts = np.random.default_rng(1).dirichlet(np.ones(7), size=30)
    values, _, steps, stops = _kernels.replicator_batch(edges, 7, starts, 20000, 1e-12)
    assert (stops == _kernels.REACH).sum() >= 5
    assert set(stops) <= {_kernels.CERTIFIED, _kernels.REACH}
    assert steps.max() < 1000
    ref = full_ascent(edges, 7, starts, 20000, 1e-12)
    assert values.max() == pytest.approx(ref.max(), rel=1e-9)
    # every dropped start was headed below the certified best
    assert (ref[stops == _kernels.REACH] < values.max() * (1 - 1e-6)).all()


def test_lagrangian_reach_rule_on_crawling_host():
    """Through lagrangian: some starts stop by the reach rule, none runs to
    the cap, and the result stays certified."""
    res = lagrangian(Hypergraph(r=3, n=7, edges=CRAWL_HOST), restarts=60, seed=1)
    assert res.status == "converged"
    assert res.diagnostics["stopped"]["reach"] > 0
    assert res.diagnostics["stopped"]["cap"] == 0
    assert res.diagnostics["iterations_max"] < 2000


def test_default_backend_reported():
    assert _kernels.backend_name() == "numpy"
