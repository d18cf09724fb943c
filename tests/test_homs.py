import itertools

import numpy as np
import pytest

from tentopt import homs
from tentopt.homs import (
    BudgetExceededError,
    SearchBudget,
    brute_force_ex,
    check_map,
    find_homomorphism,
    find_partial_homomorphism,
    is_hom_free,
    verify_extension_equivalence,
)
from tentopt.hypergraphs import (
    Family,
    Hypergraph,
    PartialHypergraph,
    TentSpec,
    blowup,
    make_general_tent,
    make_partial_tent,
    make_tent,
    make_turan_graph,
    random_hypergraph,
    tent_family,
)
from tentopt.isomorphism import is_isomorphic

K3 = make_tent(2, 1)


def test_identity_hom():
    f = find_homomorphism(K3, K3)
    assert f is not None and check_map(K3, K3, f)


def test_no_tent_maps_into_single_edge():
    for r, k in [(3, 1), (4, 2), (5, 2), (6, 3)]:
        single = Hypergraph(r=r, n=r, edges=[tuple(range(r))])
        for F in tent_family(r, k).members:
            assert find_homomorphism(F, single) is None


def test_all_ones_tent_maps_into_wider_tents():
    # the all-singletons apex tent maps into every two-part tent with i <= k
    for r, k in [(4, 2), (5, 2), (6, 3)]:
        narrow = make_general_tent(TentSpec((r - k,) + (1,) * k))
        for i in range(1, k + 1):
            f = find_homomorphism(narrow, make_tent(r, i))
            assert f is not None and check_map(narrow, make_tent(r, i), f)


def test_uniformity_mismatch_rejected():
    with pytest.raises(ValueError):
        find_homomorphism(K3, make_tent(3, 1))


def test_hom_free_basics():
    single = Hypergraph(r=4, n=4, edges=[(0, 1, 2, 3)])
    assert is_hom_free(single, tent_family(4, 2))
    T = make_tent(4, 1)
    assert not is_hom_free(T, Family((T,)))


@pytest.mark.parametrize("r,k", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_turan_graph_is_hom_free(r, k):
    assert is_hom_free(make_turan_graph(r, 2 * r), tent_family(r, k))


def test_hom_freeness_monotone_under_edge_removal():
    rng = np.random.default_rng(11)
    fam = tent_family(3, 1)
    for _ in range(20):
        H = random_hypergraph(3, 7, 0.25, rng)
        if not H.edges or not is_hom_free(H, fam):
            continue
        sub = Hypergraph(r=3, n=7, edges=H.sorted_edges[:-1])
        assert is_hom_free(sub, fam)


def test_hom_composition_is_hom():
    F = make_general_tent(TentSpec((2, 1, 1)))
    mid = make_tent(4, 1)
    big = blowup(mid, (2,) * mid.n)
    f = find_homomorphism(F, mid)
    g = find_homomorphism(mid, big)
    assert f is not None and g is not None
    assert check_map(F, big, [g[w] for w in f])


def test_partial_hom_single_edge():
    F = PartialHypergraph(r=3, n=3, maximal_edges=[(0, 1, 2)])
    H = Hypergraph(r=3, n=3, edges=[(0, 1, 2)])
    f = find_partial_homomorphism(F, H)
    assert f is not None and len(set(f)) == 3


@pytest.mark.parametrize("r,i", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_partial_tent_vs_hosts(r, i):
    F = make_partial_tent(r, i)
    single = Hypergraph(r=r, n=r, edges=[tuple(range(r))])
    assert find_partial_homomorphism(F, single) is None
    assert find_partial_homomorphism(F, make_tent(r, i)) is not None


def test_extension_equivalence_on_random_corpus():
    rng = np.random.default_rng(23)
    cases = 0
    for _ in range(40):
        H = random_hypergraph(4, 8, 0.1, rng)
        if not H.edges:
            continue
        for i in (1, 2):
            assert verify_extension_equivalence(make_partial_tent(4, i), H)
            cases += 1
    assert cases >= 20


def _reference_found(f_edges, n_f: int, H: Hypergraph, partial: bool) -> bool:
    """Plain enumeration of every map V(F) -> V(H): each edge's image must be
    injective and be an H-edge (or, when partial, lie inside one)."""
    maps = np.indices((H.n,) * n_f).reshape(n_f, -1).T
    bits = np.left_shift(1, maps)
    hmasks = np.array([sum(1 << w for w in e) for e in H.edges], dtype=np.int64)
    ok = np.ones(len(maps), dtype=bool)
    for e in f_edges:
        img = np.bitwise_or.reduce(bits[:, list(e)], axis=1)
        ok &= bits[:, list(e)].sum(axis=1) == img  # distinct images
        if partial:
            ok &= ((img[:, None] & ~hmasks[None, :]) == 0).any(axis=1)
        else:
            ok &= np.isin(img, hmasks)
    return bool(ok.any())


def _reference_cases():
    rng = np.random.default_rng(5)
    for r in (2, 3, 4):
        sources = [(F, False) for F in tent_family(r, max(1, r // 2)).members]
        sources += [(make_partial_tent(r, i), True) for i in range(1, r // 2 + 1)]
        if r == 3:  # a cap below the host's uniformity
            sources.append((PartialHypergraph(r=2, n=3, maximal_edges=[(0, 1), (1, 2), (0, 2)]),
                            True))
        hosts = [Hypergraph(r=r, n=r + 1, edges=[])]
        while len(hosts) < 12:
            n = int(rng.integers(r, r + 3))
            hosts.append(random_hypergraph(r, n, float(rng.uniform(0.1, 0.8)), rng))
        for F, partial in sources:
            for H in hosts:
                yield F, partial, H


def test_search_matches_plain_enumeration():
    found = absent = 0
    for F, partial, H in _reference_cases():
        if partial:
            f = find_partial_homomorphism(F, H)
        else:
            f = find_homomorphism(F, H)
        expect = _reference_found(F.sorted_edges, F.n, H, partial)
        assert (f is not None) == expect, (F.sorted_edges, H.to_json())
        if f is None:
            absent += 1
            continue
        found += 1
        assert len(f) == F.n
        if partial:
            for e in F.sorted_edges:
                img = {f[v] for v in e}
                assert len(img) == len(e)
                assert any(img <= set(h) for h in H.edges)
        else:
            assert check_map(F, H, f)
    assert found >= 20 and absent >= 20


def test_budget_is_enforced():
    big = make_turan_graph(3, 12)
    F = make_tent(3, 1)
    with pytest.raises(BudgetExceededError):
        find_homomorphism(F, big, SearchBudget(max_nodes=5, timeout=60))


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)


@pytest.mark.parametrize("n,expect", [(4, 4), (5, 6), (6, 9), (7, 12), (8, 16)])
def test_mantel_values(n, expect):
    fam = Family((K3,))
    value, extremal = brute_force_ex(n, fam)
    assert value == expect == n * n // 4
    assert len(extremal) == 1
    assert is_isomorphic(extremal[0], make_turan_graph(2, n))


def test_single_edge_extremal_at_n_equals_r():
    for r, k in [(4, 2), (5, 2)]:
        value, extremal = brute_force_ex(r, tent_family(r, k))
        assert value == 1 and len(extremal) == 1


STAR = Hypergraph(r=2, n=4, edges=[(0, 1), (0, 2), (0, 3)])


def _cycles(*lengths):
    edges, start = [], 0
    for ell in lengths:
        edges += [(start + i, start + (i + 1) % ell) for i in range(ell)]
        start += ell
    return Hypergraph(r=2, n=start, edges=edges)


@pytest.mark.parametrize("n,family,expect,classes", [
    (5, Family((K3,)), 6, [make_turan_graph(2, 5)]),
    (6, Family((STAR,)), 6, [_cycles(6), _cycles(3, 3)]),
    (7, Family((STAR,)), 7, [_cycles(7), _cycles(3, 4)]),
    (4, Family((Hypergraph(r=2, n=2, edges=[(0, 1)]),)), 0, [Hypergraph(r=2, n=4, edges=[])]),
])
def test_extremal_classes_one_solve_each(monkeypatch, n, family, expect, classes):
    solves = []
    real = homs.milp

    def spy(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(homs, "milp", spy)
    value, extremal = brute_force_ex(n, family)
    assert value == expect
    assert len(solves) == len(extremal) + 1
    assert len(extremal) == len(classes)
    assert not any(is_isomorphic(A, B) for A, B in itertools.combinations(extremal, 2))
    for C in classes:
        assert sum(is_isomorphic(G, C) for G in extremal) == 1


def test_brute_force_size_guards():
    with pytest.raises(ValueError):
        brute_force_ex(9, Family((K3,)))
    with pytest.raises(ValueError):
        brute_force_ex(8, tent_family(4, 1))
    with pytest.raises(ValueError):
        brute_force_ex(3, tent_family(4, 1))
