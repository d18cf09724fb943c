"""The numpy kernels against plain references: an edge-by-edge Python
evaluation of the edge polynomial, its gradient and Hessian and one
replicator step, and a replicator ascent that stops only when no coordinate
moves."""

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


def ref_hessian(edges, x):
    hess = [[0.0] * len(x) for _ in x]
    for e in edges:
        for j, v in enumerate(e):
            for k, u in enumerate(e):
                if k != j:
                    hess[v][u] += math.prod(x[w] for t, w in enumerate(e) if t not in (j, k))
    return hess


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
    """Values of the end points, and which starts ran all ``iters`` steps."""
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
    return X[:, edges].prod(axis=2).sum(axis=1), active


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
def test_edge_hessian_matches_reference(H):
    """edge_hessian matches the leave-two-out Python reference, with a zero
    weight among the points."""
    rng = np.random.default_rng(5)
    pts = rng.dirichlet(np.ones(H.n), size=20)
    pts[0, 0] = 0.0
    edges = _edge_array(H)
    hess = _kernels.edge_hessian(edges, _kernels.pair_matrix(edges, H.n), pts.T)
    assert hess.shape == (H.n, H.n, len(pts))
    np.testing.assert_allclose(
        hess.transpose(2, 0, 1), [ref_hessian(H.sorted_edges, list(p)) for p in pts],
        rtol=1e-13, atol=1e-300)


def check_against_reference(H, starts, iters):
    """Run the kernel and check each start against the Python reference: a
    start that did not stop polished ends where as many reference steps take
    it, and one that stopped certified has a reference residual below the
    bound.  A polished start ends at a nonnegative simplex point with a
    reference residual below the bound and a value at least that of the
    reference after as many plain steps.  Returns the stop reasons."""
    edges = _edge_array(H)
    values, X, steps, stops = _kernels.replicator_batch(edges, H.n, starts, iters=iters, tol=1e-14)
    assert len(values) == len(X) == len(steps) == len(stops) == len(starts)
    for s in range(len(starts)):
        prev = x = list(starts[s])
        for _ in range(steps[s]):
            prev, x = x, ref_step(H.sorted_edges, H.r, x)
        if stops[s] == _kernels.POLISHED:
            assert (X[s] >= 0).all() and X[s].sum() == pytest.approx(1.0, abs=1e-15)
            assert ref_residual(H.sorted_edges, H.r, list(X[s])) < _kernels.CERTIFIED_RESIDUAL
            assert values[s] == pytest.approx(ref_poly(H.sorted_edges, list(X[s])), rel=1e-14)
            assert values[s] >= ref_poly(H.sorted_edges, x)
            continue
        np.testing.assert_allclose(X[s], x, rtol=1e-9, atol=1e-12)
        assert values[s] == pytest.approx(ref_poly(H.sorted_edges, x), rel=1e-12)
        if stops[s] == _kernels.CERTIFIED:
            # the residual was certified at the point before the last step
            assert ref_residual(H.sorted_edges, H.r, prev) < 2 * _kernels.CERTIFIED_RESIDUAL
    return stops


@pytest.mark.parametrize("H", CASES, ids=lambda h: f"r{h.r}n{h.n}m{len(h.edges)}")
def test_replicator_backends_agree(H):
    """Each start agrees with the Python reference (``check_against_reference``)."""
    rng = np.random.default_rng(4)
    check_against_reference(H, rng.dirichlet(np.ones(H.n), size=20), 300)


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


# K4^(3) on {0, 1, 3, 5} (Lagrangian 1/16) plus edges that leave vertex 2
# with ratio exactly 1 there, so plain ascent drains its weight like 1/t
DEGENERATE_HOST = [(0, 1, 2), (0, 1, 3), (0, 1, 5), (0, 2, 5), (0, 3, 5),
                   (1, 2, 3), (1, 3, 4), (1, 3, 5), (2, 4, 5)]

# A 3-graph with a plateau: PLATEAU_STARTS[1] sits by the K4^(3) on
# {2, 4, 5, 6} (value 1/16), where vertex 3 has ratio about 1.012, so its
# weight of 1e-9 grows by about 1.2% a step and the start leaves for the
# global maximum (0.0672760) only after some 1 400 iterations of tiny but
# growing gain.  PLATEAU_STARTS[0] is polished at a lower local maximum
# (0.0626175) at iteration 100, so the reach rule runs from then on and must
# keep the plateau start, whose vertex 3 joins the face in time.
PLATEAU_HOST = [(0, 1, 4), (0, 1, 6), (0, 2, 3), (0, 2, 6), (0, 3, 5), (0, 3, 6),
                (0, 4, 6), (0, 5, 6), (1, 3, 6), (1, 4, 6), (1, 5, 6), (2, 3, 4),
                (2, 3, 6), (2, 4, 5), (2, 4, 6), (2, 5, 6), (3, 4, 6), (4, 5, 6)]
PLATEAU_STARTS = [[0.216, 0.213, 0.0, 0.039, 0.213, 0.039, 0.279],
                  [0.005, 0.0, 0.2475, 1e-9, 0.2475, 0.2475, 0.2525]]
# the plateau host's maximum, where the polish stops PLATEAU_STARTS[1];
# plain ascent from there is 3.9e-9 below it after 20 000 steps, 1.4e-10
# after 100 000 and 8.6e-12 after 400 000
PLATEAU_MAX = 0.06727599372435


def test_early_stop_keeps_best_value():
    """On 50 seeded random hosts and on a host with a plateau the best value
    of the early-stopping kernel is within 1e-9 (relative) of the ascent
    that stops only on delta.  Where that ascent's best start runs all its
    steps, it stops short of the maximum (two random hosts whose maximum is
    a degenerate K4^(3), as in ``DEGENERATE_HOST``, 2.8e-9 below 1/16, and
    the plateau host, 3.9e-9 below ``PLATEAU_MAX``); there the kernel's best
    start is certified or polished, no lower, and at that maximum."""
    rng = np.random.default_rng(11)
    cases = []
    for H in random_hosts(50, 10):
        cases.append((_edge_array(H), H.n, np.vstack([
            np.full((1, H.n), 1.0 / H.n), rng.dirichlet(np.ones(H.n), size=20)]), 1 / 16))
    starts = np.array(PLATEAU_STARTS)
    cases.append((np.array(PLATEAU_HOST, dtype=np.int64), 7,
                  starts / starts.sum(axis=1)[:, None], PLATEAU_MAX))
    budget_limited = 0
    for edges, n, starts, maximum in cases:
        values, _, _, stops = _kernels.replicator_batch(edges, n, starts, iters=20000, tol=1e-12)
        ref, active = full_ascent(edges, n, starts, 20000, 1e-12)
        if not active[ref.argmax()]:
            assert values.max() == pytest.approx(ref.max(), rel=1e-9), edges.tolist()
            continue
        budget_limited += 1
        assert stops[values.argmax()] in (_kernels.CERTIFIED, _kernels.POLISHED)
        assert values.max() >= ref.max()
        assert values.max() == pytest.approx(maximum, rel=1e-12), edges.tolist()
    assert budget_limited == 3


# a random 3-graph on which some starts crawl toward a worse local maximum
CRAWL_HOST = [(0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 2, 3), (0, 2, 5), (0, 2, 6),
              (0, 4, 5), (0, 5, 6), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 5),
              (1, 4, 5), (2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 6),
              (3, 5, 6), (4, 5, 6)]

# host-densities' random 3-graph (perfbench DRAW_SEED), on which some starts
# crawl toward a lower local maximum where one vertex's weight decays like
# 1/t; Newton's method converges only linearly along that vanishing
# direction, so the polish would certify them only after some 5 000
# iterations, and the reach rule stops them first
REACH_HOST = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 1, 7),
              (0, 1, 8), (0, 2, 4), (0, 2, 6), (0, 2, 7), (0, 3, 5), (0, 3, 7),
              (0, 3, 8), (0, 4, 8), (0, 5, 7), (0, 5, 8), (0, 6, 8), (1, 2, 5),
              (1, 3, 4), (1, 3, 8), (1, 4, 8), (1, 5, 6), (1, 6, 7), (1, 6, 8),
              (1, 7, 8), (2, 3, 5), (2, 3, 8), (2, 4, 6), (2, 4, 8), (2, 5, 7),
              (2, 6, 7), (2, 6, 8), (2, 7, 8), (3, 4, 6), (3, 4, 7), (3, 4, 8),
              (3, 5, 7), (3, 5, 8), (3, 6, 7), (3, 6, 8), (3, 7, 8), (4, 5, 7),
              (4, 5, 8), (4, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8)]


@pytest.mark.parametrize("edges", [DEGENERATE_HOST, CRAWL_HOST, PLATEAU_HOST],
                         ids=["degenerate", "crawl", "plateau"])
def test_polished_starts_match_reference(edges):
    """On hosts where starts stop polished, every start agrees with the
    Python reference (``check_against_reference``)."""
    H = Hypergraph(r=3, n=1 + max(map(max, edges)), edges=edges)
    starts = np.random.default_rng(6).dirichlet(np.ones(H.n), size=20)
    stops = check_against_reference(H, starts, 400)
    assert (stops == _kernels.POLISHED).sum() >= 5


def test_polish_rejects_a_saddle_and_a_lower_value():
    """On two disjoint edges the uniform point is a KKT point whose tangent
    Hessian has a positive eigenvalue: its polish passes the first-order
    checks and is rejected; the point beside the maximum by one edge is
    accepted there, unless its start's value is above the polished one."""
    edges = np.array([(0, 1), (2, 3)], dtype=np.int64)
    Xt = np.array([[0.25] * 4, [0.4999, 0.4999, 1e-4, 1e-4]]).T
    S = _kernels.slot_matrix(edges, 4)
    T = _kernels.pair_matrix(edges, 4)
    P = _kernels.edge_gradient(edges, S, Xt)[0]
    ok, Y, Q = _kernels.face_newton(edges, S, T, Xt, P)
    assert ok.tolist() == [False, True]
    assert ref_residual(edges.tolist(), 2, list(Y[:, 0])) < _kernels.CERTIFIED_RESIDUAL
    assert Q[0] >= P[0]
    np.testing.assert_allclose(Y[:, 1], [0.5, 0.5, 0.0, 0.0], atol=1e-15)
    assert Q[1] == pytest.approx(0.25, rel=1e-15)
    assert not _kernels.face_newton(edges, S, T, Xt, P + [0.0, 0.1])[0].any()


def test_polish_certifies_crawling_starts():
    """The crawling starts stop polished, none after 1 000 iterations, and
    the best value stays that of the full ascent."""
    edges = np.array(CRAWL_HOST, dtype=np.int64)
    starts = np.random.default_rng(1).dirichlet(np.ones(7), size=30)
    values, _, steps, stops = _kernels.replicator_batch(edges, 7, starts, 20000, 1e-12)
    assert (stops == _kernels.POLISHED).sum() >= 5
    assert set(stops) <= {_kernels.CERTIFIED, _kernels.POLISHED}
    assert steps.max() <= 1000
    assert values.max() == pytest.approx(full_ascent(edges, 7, starts, 20000, 1e-12)[0].max(),
                                         rel=1e-9)


def test_reach_rule_drops_starts_behind_a_certified_best():
    """The starts crawling toward a point the polish cannot certify stop by
    the reach rule long before the cap, and the best value stays that of
    the full ascent."""
    edges = np.array(REACH_HOST, dtype=np.int64)
    starts = np.random.default_rng(1).dirichlet(np.ones(9), size=60)
    values, _, steps, stops = _kernels.replicator_batch(edges, 9, starts, 20000, 1e-12)
    assert (stops == _kernels.REACH).sum() >= 5
    assert set(stops) <= {_kernels.CERTIFIED, _kernels.POLISHED, _kernels.REACH}
    assert steps.max() < 1000
    ref = full_ascent(edges, 9, starts, 20000, 1e-12)[0]
    assert values.max() == pytest.approx(ref.max(), rel=1e-9)
    # every dropped start was headed below the certified best
    assert (ref[stops == _kernels.REACH] < values.max() * (1 - 1e-6)).all()


def test_lagrangian_polishes_crawling_starts():
    """Through lagrangian: no start runs past 1 000 iterations or to the
    cap, and the result is certified at the full ascent's best value."""
    H = Hypergraph(r=3, n=7, edges=CRAWL_HOST)
    res = lagrangian(H, restarts=60, seed=1)
    assert res.status == "converged"
    assert res.diagnostics["stopped"]["polished"] > 0
    assert res.diagnostics["stopped"]["cap"] == 0
    assert res.diagnostics["iterations_max"] <= 1000
    starts = np.random.default_rng(1).dirichlet(np.ones(7), size=30)
    ref = full_ascent(np.array(CRAWL_HOST, dtype=np.int64), 7, starts, 20000, 1e-12)[0]
    assert res.value == pytest.approx(ref.max(), rel=1e-9)


def test_default_backend_reported():
    assert _kernels.backend_name() == "numpy"
