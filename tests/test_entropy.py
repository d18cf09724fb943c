import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tentopt.entropy as ent
from tentopt._kernels import replicator_batch
from tentopt.entropy import (
    DiscreteRV,
    EdgeDistribution,
    JointRV,
    RatioSequence,
    conditional_entropy,
    entropic_density,
    entropy,
    forest_sequence,
    mixture,
    mixture_bound_witness,
    ratio_sequence,
    suffix_entropy_matrix,
    tree_sampler_entropy,
    verify_ratio_constraints,
)
from tentopt.hypergraphs import (
    Hypergraph,
    PartialHypergraph,
    make_tent,
    make_turan_graph,
    random_hypergraph,
    tent_family,
)
from tentopt.lagrangian import blowup_density
from tentopt.region import RegionConstraints, check_feasible

K3 = make_tent(2, 1)


def single_edge(r):
    return Hypergraph(r=r, n=r, edges=[tuple(range(r))])


# -- strategies ------------------------------------------------------------

probs = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))


def rv_from_weights(ws, labels=None):
    total = sum(ws)
    labels = labels if labels is not None else range(len(ws))
    return DiscreteRV(tuple(labels), tuple(w / total for w in ws))


joint_weights = st.tuples(st.integers(2, 3), st.integers(2, 3)).flatmap(
    lambda ab: st.lists(st.floats(0.0, 1.0), min_size=ab[0] * ab[1],
                        max_size=ab[0] * ab[1]).map(lambda ws: (ab, ws)))


def joint_from(ab, ws):
    (a, b) = ab
    ws = [w + 1e-9 for w in ws]
    total = sum(ws)
    outcomes = list(itertools.product(range(a), range(b)))
    return JointRV(DiscreteRV(tuple(outcomes), tuple(w / total for w in ws)))


# -- basics ----------------------------------------------------------------


def test_entropy_anchors():
    assert entropy(DiscreteRV.uniform("ab")) == 1.0
    assert entropy(DiscreteRV.point_mass(7)) == 0.0
    assert entropy(DiscreteRV.uniform(range(8))) == pytest.approx(3.0)


def test_rv_validation():
    with pytest.raises(ValueError):
        DiscreteRV(("a", "b"), (0.7, 0.7))
    with pytest.raises(ValueError):
        DiscreteRV(("a",), (-1.0,))
    # duplicate outcomes merge
    rv = DiscreteRV(("a", "a", "b"), (0.25, 0.25, 0.5))
    assert rv.law() == {"a": 0.5, "b": 0.5}


@given(probs)
@settings(max_examples=300, deadline=None)
def test_uniform_bound(ws):
    rv = rv_from_weights(ws)
    m = len(rv.support)
    h = entropy(rv)
    assert h <= math.log2(m) + 1e-9
    if abs(h - math.log2(m)) < 1e-12:
        assert all(abs(p - 1 / m) < 1e-5 for p in rv.probs)


@given(joint_weights)
@settings(max_examples=300, deadline=None)
def test_chain_rule_and_subadditivity(arg):
    ab, ws = arg
    XY = joint_from(ab, ws)
    hxy = entropy(XY.rv)
    hy = entropy(XY.marginal([1]))
    hx = entropy(XY.marginal([0]))
    hx_given_y = conditional_entropy(XY, [1])
    assert hxy == pytest.approx(hx_given_y + hy, abs=1e-10)
    assert hxy <= hx + hy + 1e-10
    assert hx_given_y <= hx + 1e-10  # conditioning never helps


def test_conditional_entropy_edge_cases():
    ind = JointRV(DiscreteRV.uniform(list(itertools.product(range(2), range(3)))))
    assert conditional_entropy(ind, [1]) == pytest.approx(1.0)
    same = JointRV(DiscreteRV.uniform([(0, 0), (1, 1), (2, 2)]))
    assert conditional_entropy(same, [1]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        conditional_entropy(ind, [5])


def test_last_coordinate_of_single_edge_tuple():
    d = EdgeDistribution.uniform(single_edge(4))
    XY = d.ordered_tuple_rv()
    # coordinate i given the later ones: log2 i choices remain
    for i in (1, 2, 3, 4):
        suffix = JointRV(XY.marginal(range(i - 1, 4)))
        h = conditional_entropy(suffix, range(1, 5 - i))
        assert h == pytest.approx(math.log2(i), abs=1e-10)


def test_mixture_basics():
    coin = mixture([DiscreteRV.point_mass(0), DiscreteRV.point_mass(1)], (0.5, 0.5))
    assert entropy(coin) == pytest.approx(1.0)
    X = rv_from_weights([1, 2, 3])
    assert mixture([X, X], (0.3, 0.7)).law() == pytest.approx(X.law())
    four = mixture([DiscreteRV.uniform("ab"), DiscreteRV.uniform("cd")], (0.5, 0.5))
    assert entropy(four) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        mixture([X], (0.5, 0.5))


def test_mixture_bound_disjoint_equality():
    w, Z, lhs, rhs = mixture_bound_witness(
        [DiscreteRV.uniform("ab"), DiscreteRV.uniform("cd")], 1)
    assert lhs == pytest.approx(4.0) and rhs == pytest.approx(4.0, abs=1e-9)
    assert w == pytest.approx((0.5, 0.5))


def test_mixture_bound_single_rv():
    X = rv_from_weights([1, 3])
    w, Z, lhs, rhs = mixture_bound_witness([X], 1)
    assert w == (1.0,) and lhs == pytest.approx(rhs)


def test_mixture_bound_overlap_guard():
    X = DiscreteRV.uniform("ab")
    with pytest.raises(ValueError):
        mixture_bound_witness([X, X], 1)
    mixture_bound_witness([X, X], 2)  # allowed at a = 2


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_mixture_bound_randomized(a, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    # outcomes drawn from a pool small enough to create overlaps, then
    # rejection keeps multiplicity within a
    pool = list(range(3 * a))
    Xs = []
    counts = {}
    for _ in range(k):
        size = int(rng.integers(1, 4))
        support = list(rng.choice(pool, size=size, replace=False))
        if any(counts.get(o, 0) + 1 > a for o in support):
            continue
        for o in support:
            counts[o] = counts.get(o, 0) + 1
        Xs.append(rv_from_weights(rng.random(size) + 0.05, support))
    if not Xs:
        return
    _, _, lhs, rhs = mixture_bound_witness(Xs, a)
    assert lhs <= rhs + 1e-9


# -- edge distributions and ratio sequences --------------------------------


def test_edge_distribution_validation():
    with pytest.raises(ValueError):
        EdgeDistribution(K3, (1.0,))
    with pytest.raises(ValueError):
        EdgeDistribution(K3, (0.0, 0.0, 0.0))
    d = EdgeDistribution(K3, (2.0, 1.0, 1.0))
    assert sum(d.w) == pytest.approx(1.0)


def test_vertex_marginal_sums_to_one():
    d = EdgeDistribution.uniform(make_turan_graph(3, 6))
    assert d.vertex_marginal().sum() == pytest.approx(1.0)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_ratio_sequence_single_edge(r):
    rs = ratio_sequence(EdgeDistribution.uniform(single_edge(r)))
    np.testing.assert_allclose(rs.x, np.arange(1, r + 1) / r, atol=1e-12)


def test_ratio_sequence_disjoint_edges():
    # two disjoint edges: the later coordinates pin down the edge, so the
    # first coordinate is determined and x_1 = 1/(2r)
    two = Hypergraph(r=3, n=6, edges=[(0, 1, 2), (3, 4, 5)])
    rs = ratio_sequence(EdgeDistribution.uniform(two))
    np.testing.assert_allclose(rs.x, [1 / 6, 1 / 3, 1.0], atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_ratio_product_identity_randomized(seed):
    rng = np.random.default_rng(seed)
    H = random_hypergraph(3, 6, 0.4, rng)
    if not H.edges:
        return
    d = EdgeDistribution(H, tuple(rng.dirichlet(np.ones(len(H.edges)))))
    rs = ratio_sequence(d)  # construction re-checks the product identity
    assert math.prod(rs.x) == pytest.approx(
        2.0 ** (rs.joint_entropy - H.r * rs.marginal_entropy), abs=1e-9)


def test_suffix_entropies_match_materialized_joint():
    rng = np.random.default_rng(77)
    H = random_hypergraph(3, 6, 0.4, rng)
    d = EdgeDistribution(H, tuple(rng.dirichlet(np.ones(len(H.edges)))))
    Hq = d.suffix_entropies()
    XY = d.ordered_tuple_rv()
    for q in range(1, 4):
        assert Hq[q] == pytest.approx(entropy(XY.marginal(range(3 - q, 3))), abs=1e-10)


@st.composite
def weighted_hosts(draw):
    """An r-graph for r = 2..5 on r..2r vertices (so edges may be disjoint)
    and an (m, T) matrix of edge distributions, some weights exactly 0."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(r, 2 * r))
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), r))),
                          min_size=1, max_size=6, unique=True))
    T = draw(st.integers(1, 3))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    W = np.array(draw(st.lists(st.lists(weight, min_size=T, max_size=T),
                               min_size=len(edges), max_size=len(edges))))
    W[0, W.sum(axis=0) == 0] = 1.0
    return Hypergraph(r=r, n=n, edges=edges), W / W.sum(axis=0)


@given(weighted_hosts())
@settings(max_examples=60, deadline=None)
def test_suffix_entropy_matrix_matches_materialized_joint_per_column(host_and_W):
    H, W = host_and_W
    r = H.r
    Hq = suffix_entropy_matrix(H, W)
    assert Hq.shape == (r + 1, W.shape[1])
    for t in range(W.shape[1]):
        XY = EdgeDistribution(H, tuple(W[:, t])).ordered_tuple_rv()
        assert Hq[0, t] == 0.0
        for q in range(1, r + 1):
            expect = entropy(XY.marginal(range(r - q, r)))
            assert Hq[q, t] == pytest.approx(expect, rel=1e-12, abs=0)


def test_suffix_entropy_matrix_needs_one_row_per_edge():
    with pytest.raises(ValueError, match="weight matrix"):
        suffix_entropy_matrix(K3, np.ones((2, 1)) / 2)
    with pytest.raises(ValueError, match="weight matrix"):
        suffix_entropy_matrix(K3, np.ones(3) / 3)


@pytest.mark.parametrize("r", [6, 10, 16])
def test_ratio_sequence_product_identity_is_relative(r):
    rs = ratio_sequence(EdgeDistribution.uniform(single_edge(r)))
    tampered = (rs.x[0] * (1 + 1e-5),) + rs.x[1:]
    with pytest.raises(ValueError, match="product identity"):
        RatioSequence(x=tampered, joint_entropy=rs.joint_entropy,
                      marginal_entropy=rs.marginal_entropy)


# -- entropic density ------------------------------------------------------


def test_entropic_density_triangle():
    res = entropic_density(K3, restarts=30)
    assert res.value == pytest.approx(2 / 3, abs=1e-6)
    assert res.status == "converged"
    value, witness = res  # tuple-style unpacking
    assert isinstance(witness, EdgeDistribution)


@pytest.mark.parametrize("r", [3, 4])
def test_entropic_density_single_edge(r):
    res = entropic_density(single_edge(r), restarts=5)
    assert res.value == pytest.approx(math.factorial(r) / r ** r, abs=1e-8)


def test_entropic_density_turan_host():
    res = entropic_density(make_turan_graph(3, 6), restarts=30)
    assert res.value == pytest.approx(2 / 9, abs=1e-5)


def test_entropic_density_matches_blowup_density_on_corpus():
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 8:
        r = int(rng.integers(2, 5))
        n = int(rng.integers(r, 9))
        H = random_hypergraph(r, n, 0.35, rng)
        if not (1 <= len(H.edges) <= 6):
            continue
        res = entropic_density(H, restarts=40)
        assert abs(res.value - blowup_density(H)) < 1e-5, H.to_json()
        checked += 1


def incidence(H):
    B = np.zeros((H.n, len(H.edges)))
    for e, edge in enumerate(H.sorted_edges):
        B[list(edge), e] = 1.0
    return B


def cccp_update(B, W, r):
    """The closed-form concave-convex step: w_e proportional to the product
    of the marginals m(w) = B w / r over e."""
    M = B @ W / r
    logs = B.T @ np.log(M, out=np.full_like(M, -np.inf), where=M > 0)
    W = np.exp(logs - logs.max(axis=0))
    return W / W.sum(axis=0)


def one_replicator_step(H, M):
    edges = np.array(H.sorted_edges)
    return replicator_batch(edges, H.n, M.T, iters=1, tol=0.0)[1].T


def test_cccp_step_is_one_replicator_step_on_the_marginals():
    rng = np.random.default_rng(7)
    hosts = 0
    gain = 0.0
    while hosts < 12:
        r = int(rng.integers(2, 5))
        H = random_hypergraph(r, int(rng.integers(r + 1, 9)), 0.5, rng)
        if len(H.edges) < 2:
            continue
        hosts += 1
        B = incidence(H)
        edges = np.array(H.sorted_edges)
        # Dirichlet(1) and sparse Dirichlet(0.1) columns
        W = np.column_stack([rng.dirichlet(np.full(len(H.edges), a))
                             for a in (1.0, 1.0, 0.1, 0.1)])
        W = np.clip(W, 1e-300, None) / W.sum(axis=0)
        M = B @ W / r
        np.testing.assert_allclose(B @ cccp_update(B, W, r) / r,
                                   one_replicator_step(H, M), rtol=0, atol=1e-13)
        before = ent._log_density(B, W, r)
        first = before.copy()
        for _ in range(50):
            # the edge distribution w(m) of the kernel's current iterate
            W = M[edges].prod(axis=1)
            W /= W.sum(axis=0)
            after = ent._log_density(B, W, r)
            assert (after >= before - 1e-12).all(), (H.to_json(), before - after)
            before = after
            M = one_replicator_step(H, M)
        gain = max(gain, (after - first).max())
    # stars have a constant objective; the other hosts must move
    assert gain > 1e-3


def test_log_density_matches_ratio_sequence():
    rng = np.random.default_rng(3)
    H = make_turan_graph(3, 6)
    w = rng.dirichlet(np.ones(len(H.edges)))
    rs = ratio_sequence(EdgeDistribution(H, tuple(w)))
    got = ent._log_density(incidence(H), w[:, None], 3)[0]
    assert math.exp(got) == pytest.approx(math.prod(rs.x), rel=1e-12)


def test_entropic_density_is_deterministic_for_a_seed():
    H = random_hypergraph(3, 7, 0.4, np.random.default_rng(11))
    a = entropic_density(H, restarts=20, seed=5)
    b = entropic_density(H, restarts=20, seed=5)
    assert a == b
    assert a.witness.w == b.witness.w
    assert a.diagnostics == b.diagnostics
    assert sum(a.diagnostics["stopped"].values()) == 20 + 2
    assert a.diagnostics["iterations_max"] <= ent.MAX_STEPS
    assert a.diagnostics["reached_best"] >= 1


def test_entropic_density_on_a_degenerate_maximum_converges():
    # contains K4^(3) on {0, 1, 3, 5} (blowup density 3/8); vertex 2's weight
    # decays like 1/t under plain ascent, and the face polish certifies
    H = Hypergraph(r=3, n=6, edges=[(0, 1, 2), (0, 1, 3), (0, 1, 5), (0, 2, 5),
                                    (0, 3, 5), (1, 2, 3), (1, 3, 4), (1, 3, 5),
                                    (2, 4, 5)])
    res = entropic_density(H)
    assert res.status == "converged"
    assert res.value == pytest.approx(3 / 8, rel=1e-12)


# -- partial forests and the sampler ---------------------------------------


def test_forest_sequence_single_edge():
    F = PartialHypergraph(r=4, n=4, maximal_edges=[(0, 1, 2, 3)])
    assert forest_sequence(F, [0, 1, 2, 3]) == (1, 1, 1, 1)


@pytest.mark.parametrize("r,i", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_forest_sequence_suffix_pair(r, i):
    # maximal edges {v_1..v_r} and {v_{i+1}..v_r, w} under v_1 < ... < w
    F = PartialHypergraph(r=r, n=r + 1,
                          maximal_edges=[tuple(range(r)), tuple(range(i, r)) + (r,)])
    f = forest_sequence(F, list(range(r + 1)))
    expect = [1] * r
    expect[r - i] += 1  # f_{r+1-i} = 2
    assert f == tuple(expect)


def test_forest_sequence_prefix_pair():
    # maximal edges {v_1..v_r} and {v_1..v_{r-j}, w}: f_{r+1-j} = 2
    r, j = 4, 2
    F = PartialHypergraph(r=r, n=r + 1,
                          maximal_edges=[tuple(range(r)), tuple(range(r - j)) + (r,)])
    f = forest_sequence(F, list(range(r + 1)))
    assert f == (1, 1, 2, 1)


def test_forest_condition_can_fail():
    # two incomparable back-portions at the last vertex
    F = PartialHypergraph(r=3, n=5, maximal_edges=[(0, 1, 4), (2, 3, 4)])
    assert forest_sequence(F, [0, 1, 2, 3, 4]) is None
    with pytest.raises(ValueError):
        tree_sampler_entropy(F, [0, 1, 2, 3, 4],
                             EdgeDistribution.uniform(single_edge(3)))


def test_forest_sequence_order_validation():
    F = PartialHypergraph(r=3, n=3, maximal_edges=[(0, 1, 2)])
    with pytest.raises(ValueError):
        forest_sequence(F, [0, 1])


def test_sampler_full_edge_uniform_orderings():
    F = PartialHypergraph(r=3, n=3, maximal_edges=[(0, 1, 2)])
    joint, pred = tree_sampler_entropy(F, [0, 1, 2],
                                       EdgeDistribution.uniform(single_edge(3)))
    assert pred == pytest.approx(math.log2(6))
    assert len(joint.rv.outcomes) == 6
    assert all(p == pytest.approx(1 / 6) for p in joint.rv.probs)


def test_sampler_singleton_vertex():
    F = PartialHypergraph(r=3, n=1, maximal_edges=[(0,)])
    d = EdgeDistribution.uniform(single_edge(3))
    joint, pred = tree_sampler_entropy(F, [0], d)
    assert pred == pytest.approx(math.log2(3))


@pytest.mark.parametrize("r", [3, 4, 5])
def test_sampler_formula_on_suffix_pairs(r):
    d = EdgeDistribution.uniform(single_edge(r))
    xs = np.arange(1, r + 1) / r
    for i in range(1, r // 2 + 1):
        F = PartialHypergraph(
            r=r, n=r + 1,
            maximal_edges=[tuple(range(r)), tuple(range(i, r)) + (r,)])
        joint, pred = tree_sampler_entropy(F, list(range(r + 1)), d)
        expect = (r + 1) * math.log2(r) + math.log2(xs[i - 1] * np.prod(xs))
        assert pred == pytest.approx(expect, abs=1e-9)
        assert entropy(joint.rv) == pytest.approx(pred, abs=1e-9)


def test_sampler_on_weighted_host():
    # nontrivial host and weights: the asserted identities inside the
    # sampler are the real test here
    H = make_turan_graph(3, 6)
    rng = np.random.default_rng(13)
    d = EdgeDistribution(H, tuple(rng.dirichlet(np.ones(len(H.edges)))))
    F = PartialHypergraph(r=3, n=4, maximal_edges=[(0, 1, 2), (1, 2, 3)])
    joint, pred = tree_sampler_entropy(F, [0, 1, 2, 3], d)
    assert entropy(joint.rv) == pytest.approx(pred, abs=1e-9)


# -- the cross-module law --------------------------------------------------


def test_verify_ratio_constraints_single_edge():
    rep = verify_ratio_constraints(single_edge(4), tent_family(4, 2), trials=20)
    assert rep["all_feasible"] and rep["worst_slack"] >= -1e-9


def test_verify_ratio_constraints_turan_host():
    rep = verify_ratio_constraints(make_turan_graph(4, 8), tent_family(4, 2),
                                   trials=20)
    assert rep["all_feasible"]


def test_verify_ratio_constraints_rejects_tent_hosts():
    with pytest.raises(ValueError):
        verify_ratio_constraints(make_tent(4, 1), tent_family(4, 1), trials=1)


def test_verify_ratio_constraints_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        verify_ratio_constraints(single_edge(4), tent_family(4, 2), trials=-1)


def test_entropic_density_rejects_negative_restarts():
    with pytest.raises(ValueError, match="restarts"):
        entropic_density(single_edge(3), restarts=-1)


def test_verify_ratio_constraints_makes_one_suffix_entropy_call(monkeypatch):
    shapes = []
    real = ent.suffix_entropy_matrix

    def spy(H, W):
        shapes.append(W.shape)
        return real(H, W)

    monkeypatch.setattr(ent, "suffix_entropy_matrix", spy)
    H = make_turan_graph(4, 8)
    rep = verify_ratio_constraints(H, tent_family(4, 2), trials=7, assume_hom_free=True)
    assert shapes == [(len(H.edges), 9)] and rep["checked"] == 9


@pytest.mark.parametrize("host, k", [(single_edge(5), 2), (make_turan_graph(4, 8), 2),
                                     (make_turan_graph(3, 6), 1)])
def test_worst_slack_is_min_of_model_tent_slacks(monkeypatch, host, k):
    checked = []
    real = ent.check_feasible

    def spy(x, r, k, tol):
        checked.append(list(x))
        return real(x, r, k, tol)

    monkeypatch.setattr(ent, "check_feasible", spy)
    rep = verify_ratio_constraints(host, tent_family(host.r, k), trials=10,
                                   assume_hom_free=True)
    assert rep["checked"] == len(checked) == 12
    model = RegionConstraints(host.r, k)
    tents = model.A[: model.n_tent].astype(float)
    expected = min((-tents @ np.array(x)).min() for x in checked)
    assert rep["worst_slack"] == pytest.approx(expected, rel=0, abs=1e-15)


def test_hom_free_random_hosts_land_in_region():
    rng = np.random.default_rng(99)
    from tentopt.homs import is_hom_free
    fam = tent_family(3, 1)
    done = 0
    while done < 5:
        H = random_hypergraph(3, 7, 0.15, rng)
        if not H.edges or not is_hom_free(H, fam):
            continue
        d = EdgeDistribution(H, tuple(rng.dirichlet(np.ones(len(H.edges)))))
        ok, bad = check_feasible(ratio_sequence(d).x, 3, 1, tol=1e-9)
        assert ok, bad
        done += 1


def test_entropic_density_passes_seed_to_lagrangian(monkeypatch):
    seeds = []
    real = ent.lagrangian

    def spy(H, *args, **kwargs):
        seeds.append(kwargs.get("seed"))
        return real(H, *args, **kwargs)

    monkeypatch.setattr(ent, "lagrangian", spy)
    entropic_density(K3, restarts=3, seed=123)
    assert seeds == [123]
