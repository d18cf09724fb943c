"""The numpy kernels against plain references: an edge-by-edge Python
evaluation of the edge polynomial, its gradient and Hessian and one
replicator step, and a replicator ascent that stops only when no coordinate
moves."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def ref_tangent_nsd(edges, x):
    """Whether the Hessian on the support, projected onto sum d = 0, is
    negative semidefinite (with ten times the kernel's relative slack)."""
    support = [v for v, xv in enumerate(x) if xv > _kernels.SUPPORT_TOL]
    hess = np.array(ref_hessian(edges, x))[np.ix_(support, support)]
    proj = np.eye(len(support)) - 1.0 / len(support)
    lam = np.linalg.eigvalsh(proj @ hess @ proj)
    return lam[-1] <= 10 * _kernels.NSD_REL * np.abs(lam).max()


def ref_step(edges, r, x):
    P = ref_poly(edges, x)
    new = [xv * g / (r * P) for xv, g in zip(x, ref_gradient(edges, x))]
    total = sum(new)
    return [v / total for v in new]


# ---------------------------------------------------------------------------
# no-early-stop reference: the replicator ascent as it ran before the
# certified and polished stops, gradient by scatter-add


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
    hess = _kernels.edge_hessian(edges, _kernels.pair_index(edges, H.n), pts.T)
    assert hess.shape == (H.n, H.n, len(pts))
    np.testing.assert_allclose(
        hess.transpose(2, 0, 1), [ref_hessian(H.sorted_edges, list(p)) for p in pts],
        rtol=1e-13, atol=1e-300)


def check_against_reference(H, starts, iters):
    """Run the kernel and check each start against the Python reference: a
    start that did not stop polished ends where as many reference steps take
    it, and one that stopped certified has a reference residual below the
    bound and a negative semidefinite reference tangent Hessian on its
    support.  A polished start ends at a nonnegative simplex point with the
    same two properties and a value at least that of the reference after as
    many plain steps.  Returns the stop reasons."""
    edges = _edge_array(H)
    values, X, steps, stops = _kernels.replicator_batch(edges, H.n, starts, iters=iters)
    assert len(values) == len(X) == len(steps) == len(stops) == len(starts)
    for s in range(len(starts)):
        prev = x = list(starts[s])
        for _ in range(steps[s]):
            prev, x = x, ref_step(H.sorted_edges, H.r, x)
        if stops[s] == _kernels.POLISHED:
            assert (X[s] >= 0).all() and X[s].sum() == pytest.approx(1.0, abs=1e-15)
            assert ref_residual(H.sorted_edges, H.r, list(X[s])) < _kernels.CERTIFIED_RESIDUAL
            assert ref_tangent_nsd(H.sorted_edges, list(X[s]))
            assert values[s] == pytest.approx(ref_poly(H.sorted_edges, list(X[s])), rel=1e-14)
            assert values[s] >= ref_poly(H.sorted_edges, x)
            continue
        np.testing.assert_allclose(X[s], x, rtol=1e-9, atol=1e-12)
        assert values[s] == pytest.approx(ref_poly(H.sorted_edges, x), rel=1e-12)
        if stops[s] == _kernels.CERTIFIED:
            # the residual was certified at the point before the last step
            assert ref_residual(H.sorted_edges, H.r, prev) < 2 * _kernels.CERTIFIED_RESIDUAL
            assert ref_tangent_nsd(H.sorted_edges, prev)
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
        val = _kernels.replicator_batch(edges, H.n, x, iters=iters)[0]
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
# (0.0626175) at iteration 100; the plateau start is not polished while
# vertex 3, off its face, still grows.
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
    that stops only when no coordinate moves by 1e-12.  Where that ascent's
    best start runs all its steps, it stops short of the maximum (two random
    hosts whose maximum is a degenerate K4^(3), as in ``DEGENERATE_HOST``,
    2.8e-9 below 1/16, and the plateau host, 3.9e-9 below ``PLATEAU_MAX``);
    there the kernel's best start is certified or polished, no lower, and at
    that maximum."""
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
        values, _, _, stops = _kernels.replicator_batch(edges, n, starts)
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
# direction, so the polish on the face that keeps the vertex would certify
# them only after some 5 000 iterations, and the face without it certifies
# them within a few hundred
VANISHING_HOST = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 1, 7),
                  (0, 1, 8), (0, 2, 4), (0, 2, 6), (0, 2, 7), (0, 3, 5), (0, 3, 7),
                  (0, 3, 8), (0, 4, 8), (0, 5, 7), (0, 5, 8), (0, 6, 8), (1, 2, 5),
                  (1, 3, 4), (1, 3, 8), (1, 4, 8), (1, 5, 6), (1, 6, 7), (1, 6, 8),
                  (1, 7, 8), (2, 3, 5), (2, 3, 8), (2, 4, 6), (2, 4, 8), (2, 5, 7),
                  (2, 6, 7), (2, 6, 8), (2, 7, 8), (3, 4, 6), (3, 4, 7), (3, 4, 8),
                  (3, 5, 7), (3, 5, 8), (3, 6, 7), (3, 6, 8), (3, 7, 8), (4, 5, 7),
                  (4, 5, 8), (4, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8)]
VANISHING_STARTS = np.random.default_rng(1).dirichlet(np.ones(9), size=60)


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
    index = _kernels.pair_index(edges, 4)
    P, grad = _kernels.edge_gradient(edges, S, Xt)
    ratio = grad / (2 * P)
    ok, Y, Q = _kernels.face_newton(edges, S, index, Xt, P, ratio)
    assert ok.tolist() == [False, True]
    assert ref_residual(edges.tolist(), 2, list(Y[:, 0])) < _kernels.CERTIFIED_RESIDUAL
    assert Q[0] >= P[0]
    np.testing.assert_allclose(Y[:, 1], [0.5, 0.5, 0.0, 0.0], atol=1e-15)
    assert Q[1] == pytest.approx(0.25, rel=1e-15)
    assert not _kernels.face_newton(edges, S, index, Xt, P + [0.0, 0.1], ratio)[0].any()


def test_polish_certifies_crawling_starts():
    """The crawling starts stop polished, none after 1 000 iterations, and
    the best value stays that of the full ascent."""
    edges = np.array(CRAWL_HOST, dtype=np.int64)
    starts = np.random.default_rng(1).dirichlet(np.ones(7), size=30)
    values, _, steps, stops = _kernels.replicator_batch(edges, 7, starts)
    assert (stops == _kernels.POLISHED).sum() >= 5
    assert set(stops) <= {_kernels.CERTIFIED, _kernels.POLISHED}
    assert steps.max() <= 1000
    assert values.max() == pytest.approx(full_ascent(edges, 7, starts, 20000, 1e-12)[0].max(),
                                         rel=1e-9)


def test_polish_certifies_starts_vanishing_toward_a_lower_maximum():
    """The starts whose full ascent still crawls toward a lower degenerate
    maximum after 20 000 steps stop polished, every start within 1 000
    iterations, each no lower than the full ascent, and the best value
    stays that of the full ascent."""
    edges = np.array(VANISHING_HOST, dtype=np.int64)
    values, _, steps, stops = _kernels.replicator_batch(edges, 9, VANISHING_STARTS)
    ref, active = full_ascent(edges, 9, VANISHING_STARTS, 20000, 1e-12)
    crawling = active & (ref < values.max() * (1 - 1e-6))
    assert crawling.sum() >= 5
    assert (stops[crawling] == _kernels.POLISHED).all()
    assert set(stops) <= {_kernels.CERTIFIED, _kernels.POLISHED}
    assert steps.max() <= 1000
    assert (values >= ref * (1 - 1e-15)).all()
    assert values.max() == pytest.approx(ref.max(), rel=1e-9)


def test_each_start_runs_as_if_alone():
    """Each start run alone ends with the same value, point, stop reason and
    iterations as in the batch: no stop depends on the other starts."""
    edges = np.array(VANISHING_HOST, dtype=np.int64)
    values, X, steps, stops = _kernels.replicator_batch(edges, 9, VANISHING_STARTS)
    for s, start in enumerate(VANISHING_STARTS):
        value, x, step, stop = _kernels.replicator_batch(edges, 9, start[None])
        assert (step[0], stop[0]) == (steps[s], stops[s])
        assert value[0] == pytest.approx(values[s], rel=1e-13)
        np.testing.assert_allclose(x[0], X[s], atol=1e-13)


def test_saddle_escape_leaves_a_saddle():
    """On two disjoint edges the uniform point is a KKT point whose tangent
    Hessian has the eigenvalue +1: it fails the second-order test and its
    escape point is higher; the maximum on one edge passes."""
    edges = np.array([(0, 1), (2, 3)], dtype=np.int64)
    Xt = np.array([[0.25] * 4, [0.5, 0.5, 0.0, 0.0]]).T
    P = _kernels.edge_poly_batch(edges, Xt.T)
    nsd, Z, up = _kernels.saddle_escape(edges, _kernels.pair_index(edges, 4), Xt, P)
    assert nsd.tolist() == [False, True]
    assert Z.shape == (4, 1) and up.tolist() == [True]
    assert (Z >= 0).all() and Z.sum() == pytest.approx(1.0, abs=1e-15)
    assert _kernels.edge_poly_batch(edges, Z.T)[0] > P[0]


def eigenvalue_rule(M):
    """The second-order rule ``negative_semidefinite`` decides: the largest
    eigenvalue is at most NSD_REL times the largest magnitude."""
    lam = np.linalg.eigvalsh(M)
    return lam[:, -1] <= _kernels.NSD_REL * np.abs(lam).max(axis=1)


def count_calls(monkeypatch, name):
    """Record, per call of np.linalg.<name>, how many matrices it got."""
    calls = []
    original = getattr(np.linalg, name)

    def spy(A, *args, **kwargs):
        calls.append(len(A))
        return original(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


# eigenvalues of the random stacks: negative ones, zeros, and positive ones
# on either side of the rule's threshold (NSD_REL times the largest magnitude)
EIGENVALUES = st.one_of(st.floats(-1.0, -1e-3), st.just(0.0),
                        st.floats(0.0, 3.0).map(lambda c: c * _kernels.NSD_REL))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 7), count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_second_order_test_is_the_eigenvalue_rule(n, count, seed, data):
    """On random symmetric stacks Q diag(lam) Q^T (with -1 among each lam)
    the test never accepts a matrix the eigenvalue rule rejects: a
    successful Cholesky factorisation accepts only stacks the rule accepts,
    and any other stack is decided by the rule itself."""
    rng = np.random.default_rng(seed)
    M = np.empty((count, n, n))
    for i in range(count):
        lam = data.draw(st.lists(EIGENVALUES, min_size=n - 1, max_size=n - 1)) + [-1.0]
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M[i] = (Q * lam) @ Q.T
        M[i] = (M[i] + M[i].T) / 2
    M *= 10.0 ** rng.uniform(-6, 3)
    assert _kernels.negative_semidefinite(M).tolist() == eigenvalue_rule(M).tolist()


def test_second_order_test_on_fixed_stacks(monkeypatch):
    """The empty stack gives an empty answer; an all-zero M (where the
    Cholesky shift is 0) and a stack with one saddle go to the eigenvalue
    rule; the tangent Hessian at ``DEGENERATE_HOST``'s maximum (singular:
    zero, up to rounding, on the sum direction and on the vertices off the
    support) passes by Cholesky alone."""
    edges = np.array(DEGENERATE_HOST, dtype=np.int64)
    x = np.array([[0.25, 0.25, 0.0, 0.25, 0.0, 0.25]]).T
    degenerate = _kernels.tangent_hessian(edges, _kernels.pair_index(edges, 6), x,
                                          (x > _kernels.SUPPORT_TOL).T)
    lam = np.linalg.eigvalsh(degenerate[0])
    assert (np.abs(lam) < 1e-15).sum() == 3 and lam[-1] < 1e-15

    eigvalsh = count_calls(monkeypatch, "eigvalsh")
    assert _kernels.negative_semidefinite(np.zeros((0, 3, 3))).shape == (0,)
    assert _kernels.negative_semidefinite(np.zeros((1, 3, 3))).tolist() == [True]
    assert eigvalsh == [1]
    assert _kernels.negative_semidefinite(degenerate).tolist() == [True]
    assert eigvalsh == [1]

    # the uniform point of two disjoint edges is a saddle (eigenvalue +1)
    pair = np.array([(0, 1), (2, 3)], dtype=np.int64)
    saddle = _kernels.tangent_hessian(pair, _kernels.pair_index(pair, 4),
                                      np.full((4, 1), 0.25), np.ones((1, 4), dtype=bool))
    peak = _kernels.tangent_hessian(pair, _kernels.pair_index(pair, 4),
                                    np.array([[0.5, 0.5, 0.0, 0.0]]).T,
                                    np.array([[True, True, False, False]]))
    stack = np.concatenate([peak, -np.eye(4)[None], saddle, peak])
    assert _kernels.negative_semidefinite(stack).tolist() == [True, True, False, True]
    assert eigvalsh == [1, 4]


def test_saddle_escape_stops_when_every_column_passes(monkeypatch):
    """With no saddle among the columns, no eigenvectors are computed and
    no escape is tried."""
    edges = np.array([(0, 1), (2, 3)], dtype=np.int64)
    Xt = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]).T
    P = _kernels.edge_poly_batch(edges, Xt.T)
    eigh, polys = count_calls(monkeypatch, "eigh"), []
    monkeypatch.setattr(_kernels, "edge_poly_batch", lambda *args: polys.append(args))
    nsd, Z, up = _kernels.saddle_escape(edges, _kernels.pair_index(edges, 4), Xt, P)
    assert nsd.tolist() == [True, True] and Z.shape == (4, 0) and up.shape == (0,)
    assert eigh == [] and polys == []


def bordered(H, on, sign):
    """The polish's bordered face system [[H_FF, sign 1], [1^T, 0]] with
    identity rows off the face."""
    n = len(on)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = np.where(np.outer(on, on), H, 0.0) + np.diag(~on)
    A[n, :n] = on
    A[:n, n] = sign * on
    return A


def test_polish_step_is_the_minimum_norm_step(monkeypatch):
    """``face_step`` on the symmetric system (unknowns d and -dmu) gives the
    pseudo-inverse step of the unsymmetric system (d and dmu) the polish
    solved before, to 1e-12 relative, and only the columns LU cannot take
    reach the pseudo-inverse: an exactly singular r = 2 face (a path, whose
    two ends are twins with equal integer rows) and a nonsingular face whose
    step moves a coordinate by more than 1.  Without them, LU does all."""
    rng = np.random.default_rng(3)
    edges = np.array(DEGENERATE_HOST, dtype=np.int64)
    Xt = rng.dirichlet(np.ones(6), size=3).T
    hess = _kernels.edge_hessian(edges, _kernels.pair_index(edges, 6), Xt).transpose(2, 0, 1)
    faces = np.ones((3, 6), dtype=bool)
    faces[1, 4] = faces[2, [2, 4]] = False
    systems = [(hess[i], faces[i], rng.standard_normal(7) * 1e-3) for i in range(3)]
    path = np.zeros((6, 6))
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = 1.0
    twins = (path, np.arange(6) < 3, np.array([0.1, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0]))
    long = (hess[0], faces[0], systems[0][2] * 1e4)
    assert np.linalg.slogdet(bordered(*twins[:2], 1.0))[0] == 0
    assert np.abs(np.linalg.solve(bordered(*long[:2], 1.0), long[2])[:6]).max() > 1.0
    for stack, fallback in ((systems + [twins, long], [2]), (systems, [])):
        A = np.array([bordered(H, on, 1.0) for H, on, _ in stack])
        b = np.array([rhs for _, _, rhs in stack])
        ref = np.array([np.linalg.pinv(bordered(H, on, -1.0)) @ rhs for H, on, rhs in stack])
        ref[:, 6] *= -1.0
        pinv = count_calls(monkeypatch, "pinv")
        d = _kernels.face_step(A, b)
        monkeypatch.undo()
        np.testing.assert_allclose(d, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert pinv == fallback


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


def test_a_start_beside_a_saddle_is_not_stopped_by_its_small_step():
    """On K4 the triangle point is a saddle of the edge polynomial (value
    1/3) where the fourth vertex has ratio 1.5: a start there with that
    vertex at 1e-14 takes tiny steps at first, and still ends certified or
    polished at the Motzkin-Straus value 3/8."""
    edges = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.int64)
    start = np.array([[1 / 3, 1 / 3, 1 / 3, 1e-14]])
    values, _, _, stops = _kernels.replicator_batch(edges, 4, start / start.sum())
    assert stops[0] in (_kernels.CERTIFIED, _kernels.POLISHED)
    assert values[0] == pytest.approx(3 / 8, rel=1e-12)


def test_readme_lists_every_stop_reason():
    """README's kernel section names each stop reason in one bullet, and
    counts them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    count, section = re.search(r"the first of (\w+) reasons:\n\n(.*?)\n\n", readme,
                               re.S).groups()
    bullets = re.findall(r"^- `(\w+)`:", section, re.M)
    assert sorted(bullets) == sorted(_kernels.STOP_REASONS)
    assert count == ("one", "two", "three", "four", "five")[len(bullets) - 1]


def test_default_backend_reported():
    assert _kernels.backend_name() == "numpy"
