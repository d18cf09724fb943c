import importlib
import math
from fractions import Fraction

import numpy as np
import pytest

from tentopt.hypergraphs import (
    Family,
    Hypergraph,
    make_tent,
    make_turan_graph,
    random_hypergraph,
    tent_family,
)
from tentopt.lagrangian import (
    SimplexPoint,
    blowup_density,
    check_density_monotone,
    density_lower_bound,
    edge_polynomial,
    lagrangian,
    lagrangian_grid,
    max_clique,
    motzkin_straus_value,
    single_edge_density,
)

K3 = make_tent(2, 1)


def test_simplex_point_normalizes():
    p = SimplexPoint((2.0, 2.0))
    assert p.weights == (0.5, 0.5)
    with pytest.raises(ValueError):
        SimplexPoint((1.0, -0.5))
    with pytest.raises(ValueError):
        SimplexPoint((0.0, 0.0))


def test_edge_polynomial_triangle():
    p = SimplexPoint((1 / 3, 1 / 3, 1 / 3))
    assert edge_polynomial(K3, p) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        edge_polynomial(K3, SimplexPoint((0.5, 0.5)))


def test_lagrangian_triangle():
    res = lagrangian(K3)
    assert res.value == pytest.approx(1 / 3, abs=1e-9)
    assert res.blowup_density == pytest.approx(2 / 3, abs=1e-9)
    assert res.status == "converged"
    assert np.allclose(res.witness.weights, 1 / 3, atol=1e-6)


def test_lagrangian_single_edge():
    for r in (3, 4, 5):
        H = Hypergraph(r=r, n=r, edges=[tuple(range(r))])
        res = lagrangian(H, restarts=50)
        assert res.value == pytest.approx((1 / r) ** r, abs=1e-10)
        assert res.blowup_density == pytest.approx(math.factorial(r) / r ** r, abs=1e-9)


def test_lagrangian_empty():
    res = lagrangian(Hypergraph(r=3, n=5, edges=[]))
    assert res.value == 0.0


def test_lagrangian_rejects_negative_restarts():
    for H in (K3, Hypergraph(r=3, n=5, edges=[])):
        with pytest.raises(ValueError, match="restarts"):
            lagrangian(H, restarts=-1)


def test_lagrangian_deterministic():
    H = make_turan_graph(3, 6)
    a = lagrangian(H, restarts=40)
    b = lagrangian(H, restarts=40)
    assert a.value == b.value and a.witness.weights == b.witness.weights


def test_grid_oracle_triangle():
    assert lagrangian_grid(K3) == pytest.approx(1 / 3, abs=1e-6)


def test_max_clique_and_motzkin_straus():
    assert max_clique(K3) == 3
    assert motzkin_straus_value(K3) == pytest.approx(1 / 3)
    K4 = Hypergraph(r=2, n=4, edges=[(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert max_clique(K4) == 4
    path = Hypergraph(r=2, n=3, edges=[(0, 1), (1, 2)])
    assert max_clique(path) == 2
    with pytest.raises(ValueError):
        max_clique(make_tent(3, 1))


def test_lagrangian_matches_motzkin_straus_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        G = random_hypergraph(2, n, 0.5, rng)
        if not G.edges:
            continue
        assert lagrangian(G, restarts=60).value == pytest.approx(
            motzkin_straus_value(G), abs=1e-6)


def test_grid_oracle_matches_ascent_on_small_hypergraphs():
    rng = np.random.default_rng(29)
    for _ in range(10):
        H = random_hypergraph(3, 6, 0.3, rng)
        if not H.edges:
            continue
        assert lagrangian(H, restarts=60).value == pytest.approx(
            lagrangian_grid(H), abs=1e-6)


def test_density_lower_bound_single_edge():
    for r in (4, 5):
        H = Hypergraph(r=r, n=r, edges=[tuple(range(r))])
        val = density_lower_bound(H, tent_family(r, 2))
        assert val == pytest.approx(float(single_edge_density(r)), abs=1e-9)


def test_density_lower_bound_rejects_hosts_with_tents():
    T = make_tent(4, 1)
    assert density_lower_bound(T, Family((T,))) is None


def test_single_edge_density_exact():
    assert single_edge_density(4) == Fraction(24, 256)
    assert single_edge_density(6) == Fraction(720, 6 ** 6)


def test_density_monotone_hypothesis():
    # wider family covers the narrower one: every member of F_{r,1} receives
    # a homomorphism from some member of F_{r,2}
    assert check_density_monotone(tent_family(4, 2), tent_family(4, 1))


def test_blowup_density_scale():
    assert blowup_density(K3) == pytest.approx(2 / 3, abs=1e-8)


def _loop_residual(edges, r, x):
    """Fixed-point residual with a per-slot gradient loop, independent of
    the kernel's slot matrix."""
    factors = x[edges]
    P = factors.prod(axis=1).sum()
    grad = np.zeros(len(x))
    for j in range(edges.shape[1]):
        np.add.at(grad, edges[:, j], np.prod(np.delete(factors, j, axis=1), axis=1))
    ratio = grad / (r * P)
    support = x > 1e-9
    return max(np.abs(ratio[support] - 1.0).max(initial=0.0),
               (ratio[~support] - 1.0).max(initial=0.0))


@pytest.mark.parametrize("H", [K3, make_tent(3, 1), make_tent(4, 2), make_turan_graph(3, 6)],
                         ids=lambda h: f"r{h.r}n{h.n}m{len(h.edges)}")
def test_fixed_point_residual_agrees_with_loop(H):
    lagmod = importlib.import_module("tentopt.lagrangian")
    edges = lagmod._edge_array(H)
    rng = np.random.default_rng(8)
    points = list(rng.dirichlet(np.ones(H.n), size=10))
    points.append(np.asarray(lagrangian(H, restarts=20).witness.weights))
    zero = rng.dirichlet(np.ones(H.n))
    zero[0] = 0.0
    points.append(zero / zero.sum())
    for x in points:
        assert lagmod._fixed_point_residual(edges, H.r, x) == pytest.approx(
            _loop_residual(edges, H.r, x), rel=1e-12, abs=1e-15)


def test_lagrangian_diagnostics():
    H = make_turan_graph(3, 6)
    res = lagrangian(H, restarts=40)
    d = res.diagnostics
    assert sum(d["stopped"].values()) == res.restarts_used == 41
    assert set(d["stopped"]) == {"certified", "delta", "reach", "cap", "polished"}
    assert 1 <= d["iterations_min"] <= d["iterations_median"] <= d["iterations_max"] <= 20000
    assert 1 <= d["reached_best"] <= res.restarts_used
    # the diagnostics do not take part in equality
    assert res == lagrangian(H, restarts=40)


def test_lagrangian_on_a_degenerate_maximum_converges():
    # contains K4^(3) on {0, 1, 3, 5} (Lagrangian 1/16), where vertex 2 has
    # ratio exactly 1: plain ascent drains its weight like 1/t, and the face
    # polish certifies the maximum instead
    H = Hypergraph(r=3, n=6, edges=[(0, 1, 2), (0, 1, 3), (0, 1, 5), (0, 2, 5),
                                    (0, 3, 5), (1, 2, 3), (1, 3, 4), (1, 3, 5),
                                    (2, 4, 5)])
    res = lagrangian(H)
    assert res.status == "converged"
    assert res.value == pytest.approx(1 / 16, rel=1e-12)
    assert res.diagnostics["iterations_max"] <= 1000
