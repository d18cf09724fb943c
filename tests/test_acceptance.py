"""End-to-end acceptance checks, one per headline claim.

Each test prints a single PASS/FAIL line (visible with pytest -v -s or in
captured output) and enforces its own wall-clock budget.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from tentopt.entropy import (
    DiscreteRV,
    EdgeDistribution,
    JointRV,
    conditional_entropy,
    entropic_density,
    entropy,
    mixture_bound_witness,
    ratio_sequence,
    tree_sampler_entropy,
    verify_ratio_constraints,
)
from tentopt.homs import SearchBudget, brute_force_ex, verify_extension_equivalence
from tentopt.hypergraphs import (
    Hypergraph,
    PartialHypergraph,
    make_partial_tent,
    make_tent,
    make_turan_graph,
    random_hypergraph,
    tent_family,
)
from tentopt.isomorphism import is_isomorphic
from tentopt.lagrangian import (
    density_lower_bound,
    lagrangian,
    motzkin_straus_value,
    single_edge_density,
)
from tentopt.region import (
    bisect_perturbation_eps,
    ceil_r_over_e,
    check_feasible,
    counterexample_point,
    floor_r_over_e,
    fprime_zero,
    maximize_product,
    perturb,
    product_bound,
    random_symmetric_point,
)

SEED = 20240817


def single_edge(r):
    return Hypergraph(r=r, n=r, edges=[tuple(range(r))])


def timed(num, name, limit):
    def wrap(fn):
        def run():
            t0 = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            elapsed = time.monotonic() - t0
            verdict = "PASS" if elapsed < limit else "FAIL"
            print(f"ACCEPTANCE {num} ({name}): {verdict}"
                  f" [{elapsed:.2f}s / {limit:.0f}s]")
            assert elapsed < limit, f"runtime {elapsed:.2f}s over budget {limit}s"
        run.__name__ = fn.__name__
        return run
    return wrap


@timed(1, "region optimum", 10)
def test_region_optimum():
    for r in range(4, 13):
        k = ceil_r_over_e(r)
        rep = maximize_product(r, k)
        bound = float(product_bound(r))
        assert abs(rep.value - bound) / bound < 1e-6, (r, k)
        target = np.arange(1, r + 1) / r
        assert np.abs(rep.argmax.as_floats() - target).max() < 1e-4, (r, k)


@timed(2, "counterexample below threshold", 30)
def test_counterexample():
    for r in range(4, 16):
        for k in range(1, floor_r_over_e(r)):
            p = counterexample_point(r, k)
            ok, bad = check_feasible(p.x, r, k, tol=0)
            assert ok, (r, k, bad)
            assert math.prod(p.x) > product_bound(r), (r, k)
            rep = maximize_product(r, k)
            assert rep.value > float(product_bound(r)) + 1e-8, (r, k)


@timed(3, "derivative sign structure", 1)
def test_fprime_signs():
    for r in range(4, 41):
        assert fprime_zero(r, ceil_r_over_e(r)) <= 0, r
        for k in range(1, floor_r_over_e(r)):
            assert fprime_zero(r, k) > 0, (r, k)


@timed(4, "density anchors", 60)
def test_density_anchors():
    for r in range(4, 9):
        k = ceil_r_over_e(r)
        val = density_lower_bound(single_edge(r), tent_family(r, k))
        assert val is not None
        assert abs(val - float(single_edge_density(r))) <= 1e-9, r
    assert abs(lagrangian(make_tent(2, 1)).value - 1 / 3) < 1e-6
    rng = np.random.default_rng(SEED)
    done = 0
    while done < 50:
        n = int(rng.integers(3, 10))
        G = random_hypergraph(2, n, float(rng.uniform(0.2, 0.8)), rng)
        if not G.edges:
            continue
        assert abs(lagrangian(G, restarts=60).value
                   - motzkin_straus_value(G)) < 1e-6, G.to_json()
        done += 1


@timed(5, "entropic density equals blowup density", 120)
def test_entropic_equals_blowup():
    from tentopt.lagrangian import blowup_density
    rng = np.random.default_rng(SEED)
    done = 0
    while done < 30:
        r = int(rng.integers(2, 5))
        n = int(rng.integers(r, 11))
        H = random_hypergraph(r, n, float(rng.uniform(0.05, 0.5)), rng)
        if not (1 <= len(H.edges) <= 6):
            continue
        res = entropic_density(H, restarts=60)
        assert abs(res.value - blowup_density(H)) < 1e-5, H.to_json()
        done += 1


@timed(6, "ratio sequences land in the region", 60)
def test_ratio_constraint_law():
    for r in (4, 5, 6):
        k = ceil_r_over_e(r)
        fam = tent_family(r, k)
        for host in (single_edge(r), make_turan_graph(r, 2 * r)):
            # Turan hosts are hom-free structurally (tent edges cannot all be
            # transversals); exhaustive certification is out of reach at r=6
            rep = verify_ratio_constraints(host, fam, trials=100,
                                           assume_hom_free=True)
            assert rep["all_feasible"], (r, host.n)
            assert rep["worst_slack"] >= -1e-9, (r, host.n, rep["worst_slack"])


@timed(7, "entropy identities", 30)
def test_entropy_identities():
    rng = np.random.default_rng(SEED)

    def random_joint():
        a, b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        ws = rng.random(a * b) + 1e-6
        outcomes = list(itertools.product(range(a), range(b)))
        return JointRV(DiscreteRV(tuple(outcomes), tuple(ws / ws.sum())))

    for _ in range(1000):
        XY = random_joint()
        hxy = entropy(XY.rv)
        hx, hy = entropy(XY.marginal([0])), entropy(XY.marginal([1]))
        hx_y = conditional_entropy(XY, [1])
        assert abs(hxy - (hx_y + hy)) < 1e-9          # chain rule
        assert hxy <= hx + hy + 1e-9                   # subadditivity
        assert hx_y <= hx + 1e-9                       # dropping the condition

    for _ in range(1000):
        m = int(rng.integers(2, 7))
        ws = rng.random(m) + 1e-6
        X = DiscreteRV(tuple(range(m)), tuple(ws / ws.sum()))
        assert entropy(X) <= math.log2(m) + 1e-9       # uniform bound
        assert entropy(DiscreteRV.uniform(range(m))) == math.log2(m) or \
            abs(entropy(DiscreteRV.uniform(range(m))) - math.log2(m)) < 1e-9

    H = make_turan_graph(3, 6)
    m_edges = len(H.edges)
    for _ in range(1000):                              # ratio-product identity
        d = EdgeDistribution(H, tuple(rng.dirichlet(np.ones(m_edges))))
        rs = ratio_sequence(d)
        target = 2.0 ** (rs.joint_entropy - 3 * rs.marginal_entropy)
        assert abs(math.prod(rs.x) - target) < 1e-9

    for _ in range(1000):                              # mixture bound
        a = int(rng.integers(1, 4))
        pool = list(range(3 * a))
        Xs, counts = [], {}
        for _ in range(int(rng.integers(2, 5))):
            sup = list(rng.choice(pool, size=int(rng.integers(1, 4)),
                                  replace=False))
            if any(counts.get(o, 0) + 1 > a for o in sup):
                continue
            for o in sup:
                counts[o] = counts.get(o, 0) + 1
            ws = rng.random(len(sup)) + 0.05
            Xs.append(DiscreteRV(tuple(sup), tuple(ws / ws.sum())))
        if not Xs:
            continue
        _, _, lhs, rhs = mixture_bound_witness(Xs, a)
        assert lhs <= rhs + 1e-9


@timed(8, "partial-tent extension equivalence", 60)
def test_extension_equivalence():
    budget = SearchBudget(timeout=60.0)
    for r in range(2, 7):
        rng = np.random.default_rng(SEED + r)
        hosts = []
        while len(hosts) < 50:
            n = int(rng.integers(r, 9))
            H = random_hypergraph(r, n, float(rng.uniform(0.05, 0.6)), rng)
            if H.edges:
                hosts.append(H)
        for i in range(1, r // 2 + 1):
            F = make_partial_tent(r, i)
            for H in hosts:
                assert verify_extension_equivalence(F, H, budget), (r, i, H.to_json())


@timed(9, "tree-sampler entropy formula", 30)
def test_tree_sampler_formula():
    for r in (3, 4, 5):
        d = EdgeDistribution.uniform(single_edge(r))
        xs = np.arange(1, r + 1) / r
        base = math.log2(float(np.prod(xs)))
        for i in range(1, r // 2 + 1):
            # two maximal edges overlapping in a suffix of length r-i
            F = PartialHypergraph(
                r=r, n=r + 1,
                maximal_edges=[tuple(range(r)), tuple(range(i, r)) + (r,)])
            joint, pred = tree_sampler_entropy(F, list(range(r + 1)), d)
            expect = (r + 1) * math.log2(r) + math.log2(xs[i - 1]) + base
            assert abs(pred - expect) < 1e-9, (r, i)
            assert abs(entropy(joint.rv) - pred) < 1e-9, (r, i)


@timed(10, "exact triangle-free extremal numbers", 120)
def test_mantel_anchor():
    K3_family = tent_family(2, 1)
    for n in range(4, 9):
        value, extremal = brute_force_ex(n, K3_family)
        assert value == n * n // 4, n
        assert len(extremal) == 1, n
        assert is_isomorphic(extremal[0], make_turan_graph(2, n)), n


@timed(11, "symmetric-point perturbation improves", 30)
def test_perturbation_lemma():
    rng = np.random.default_rng(SEED)
    improved = 0
    while improved < 20:
        r = int(rng.integers(6, 13))
        k = int(rng.integers(2, r // 2 + 1))
        p = random_symmetric_point(r, k, rng)
        eps0 = bisect_perturbation_eps(p)
        assert eps0 > 0, (r, k)
        y = perturb(p, eps0 / 2)
        ok, bad = check_feasible(y, p.r, p.k, tol=1e-12)
        assert ok, (r, k, bad)
        assert float(np.prod(y)) > p.product(), (r, k)
        improved += 1
