"""Discrete entropy toolkit: Shannon entropy, mixtures, edge distributions,
ratio sequences, entropic density, and sampling along partial forests.

Everything is in bits (log base 2).  The 0 log 0 = 0 convention is enforced
structurally: sums run over the support only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .homs import DEFAULT_BUDGET, SearchBudget, is_hom_free
from .hypergraphs import Family, Hypergraph, PartialHypergraph
from .lagrangian import _SEED, lagrangian
from .region import RegionConstraints, check_feasible


def _canon_law(outcomes, probs):
    law = {}
    for o, p in zip(outcomes, probs):
        if p < -1e-12:
            raise ValueError(f"negative probability {p} for {o!r}")
        if p > 0:
            law[o] = law.get(o, 0.0) + float(p)
    total = sum(law.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return law


@dataclass(frozen=True)
class DiscreteRV:
    """Finite-support distribution over hashable labeled outcomes."""

    outcomes: tuple
    probs: tuple[float, ...]

    def __post_init__(self):
        law = _canon_law(self.outcomes, self.probs)
        items = sorted(law.items(), key=lambda kv: repr(kv[0]))
        object.__setattr__(self, "outcomes", tuple(o for o, _ in items))
        object.__setattr__(self, "probs", tuple(p for _, p in items))

    @classmethod
    def from_dict(cls, law: dict) -> "DiscreteRV":
        return cls(tuple(law.keys()), tuple(law.values()))

    @classmethod
    def point_mass(cls, outcome) -> "DiscreteRV":
        return cls((outcome,), (1.0,))

    @classmethod
    def uniform(cls, outcomes: Iterable) -> "DiscreteRV":
        outcomes = tuple(outcomes)
        return cls(outcomes, (1.0 / len(outcomes),) * len(outcomes))

    def law(self) -> dict:
        return dict(zip(self.outcomes, self.probs))

    @property
    def support(self) -> tuple:
        return self.outcomes


@dataclass(frozen=True)
class JointRV:
    """A DiscreteRV whose outcomes are tuples of one fixed arity."""

    rv: DiscreteRV
    arity: int = field(init=False)

    def __post_init__(self):
        arities = {len(o) for o in self.rv.outcomes}
        if len(arities) != 1:
            raise ValueError(f"outcome arity is not uniform: {sorted(arities)}")
        object.__setattr__(self, "arity", arities.pop())

    def marginal(self, coords: Sequence[int]) -> DiscreteRV:
        coords = list(coords)
        law: dict = {}
        for o, p in zip(self.rv.outcomes, self.rv.probs):
            key = tuple(o[c] for c in coords)
            law[key] = law.get(key, 0.0) + p
        return DiscreteRV.from_dict(law)


def entropy(X: DiscreteRV) -> float:
    return -sum(p * math.log2(p) for p in X.probs)


def conditional_entropy(XY: JointRV, condition_on: Iterable[int]) -> float:
    """H(rest | coordinates in condition_on), by the defining double sum."""
    cond = sorted(set(condition_on))
    if any(not 0 <= c < XY.arity for c in cond):
        raise ValueError("conditioning coordinates out of range")
    rest = [c for c in range(XY.arity) if c not in cond]
    groups: dict = {}
    for o, p in zip(XY.rv.outcomes, XY.rv.probs):
        key = tuple(o[c] for c in cond)
        groups.setdefault(key, []).append((tuple(o[c] for c in rest), p))
    total = 0.0
    for _, pairs in groups.items():
        py = sum(p for _, p in pairs)
        for _, p in pairs:
            total -= p * math.log2(p / py)
    return total


def mixture(Xs: Sequence[DiscreteRV], w: Sequence[float]) -> DiscreteRV:
    """Sample an index by weight, then sample that variable."""
    if len(Xs) != len(w):
        raise ValueError("one weight per variable, please")
    if abs(sum(w) - 1.0) > 1e-9 or any(wi < -1e-12 for wi in w):
        raise ValueError("weights must be a probability vector")
    law: dict = {}
    for X, wi in zip(Xs, w):
        for o, p in zip(X.outcomes, X.probs):
            law[o] = law.get(o, 0.0) + wi * p
    return DiscreteRV.from_dict(law)


def mixture_bound_witness(Xs: Sequence[DiscreteRV], a: int):
    """Mixture with weights proportional to 2^H(X_i); when no outcome
    appears in more than ``a`` supports, sum 2^H(X_i) <= a 2^H(Z).

    Returns (weights, Z, lhs, rhs).
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    counts: dict = {}
    for X in Xs:
        for o in X.support:
            counts[o] = counts.get(o, 0) + 1
    worst = max(counts.values(), default=0)
    if worst > a:
        raise ValueError(f"an outcome appears in {worst} supports, more than a={a}")
    sizes = [2.0 ** entropy(X) for X in Xs]
    lhs = sum(sizes)
    weights = tuple(s / lhs for s in sizes)
    Z = mixture(Xs, weights)
    rhs = a * 2.0 ** entropy(Z)
    if lhs > rhs + 1e-9:
        raise AssertionError(f"mixture bound violated: {lhs} > {rhs}")
    return weights, Z, lhs, rhs


# ---------------------------------------------------------------------------
# random edge with uniform ordering


@dataclass(frozen=True)
class EdgeDistribution:
    """Probability weight per edge of a host hypergraph; the induced ordered
    tuple puts mass w_e / r! on each of the r! orderings of e."""

    host: Hypergraph
    w: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if len(w) != len(self.host.edges):
            raise ValueError(f"need {len(self.host.edges)} weights, got {len(w)}")
        if (w < -1e-12).any():
            raise ValueError("weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must not all vanish")
        if abs(total - 1.0) > 1e-12:
            w = w / total
        object.__setattr__(self, "w", tuple(float(v) for v in w))

    @classmethod
    def uniform(cls, host: Hypergraph) -> "EdgeDistribution":
        m = len(host.edges)
        return cls(host, (1.0 / m,) * m)

    def vertex_marginal(self) -> np.ndarray:
        """Law of any single tuple coordinate: m_v = sum_{e : v in e} w_e / r."""
        m = np.zeros(self.host.n)
        for e, we in zip(self.host.sorted_edges, self.w):
            for v in e:
                m[v] += we / self.host.r
        return m

    def subset_weights(self) -> list[dict]:
        """W_s = sum of w_e over edges containing s, for |s| = 0..r."""
        r = self.host.r
        levels: list[dict] = [dict() for _ in range(r + 1)]
        levels[0][frozenset()] = 1.0
        for e, we in zip(self.host.sorted_edges, self.w):
            if we == 0.0:
                continue
            for q in range(1, r + 1):
                lvl = levels[q]
                for s in itertools.combinations(e, q):
                    key = frozenset(s)
                    lvl[key] = lvl.get(key, 0.0) + we
        return levels

    def suffix_entropies(self) -> list[float]:
        """H_q = entropy of any q tuple coordinates, q = 0..r.

        A distinct q-tuple with vertex set s has probability (r-q)!/r! W_s,
        and there are q! tuples per set, so no ordering enumeration is needed.
        """
        r = self.host.r
        levels = self.subset_weights()
        H = [0.0]
        for q in range(1, r + 1):
            scale = math.factorial(r - q) / math.factorial(r)
            perms = math.factorial(q)
            h = 0.0
            for W in levels[q].values():
                p = scale * W
                h -= perms * p * math.log2(p)
            H.append(h)
        return H

    def ordered_tuple_rv(self) -> JointRV:
        """The full joint law, materialized (use only for small r)."""
        law: dict = {}
        r = self.host.r
        rf = math.factorial(r)
        for e, we in zip(self.host.sorted_edges, self.w):
            if we == 0.0:
                continue
            for perm in itertools.permutations(e):
                law[perm] = we / rf
        return JointRV(DiscreteRV.from_dict(law))


@dataclass(frozen=True)
class RatioSequence:
    """x_i = 2^{H(X_i | X_{i+1..r}) - H(X_1)}; monotone and ending at 1."""

    x: tuple[float, ...]
    joint_entropy: float
    marginal_entropy: float

    def __post_init__(self):
        x = self.x
        if x[0] <= 0 or abs(x[-1] - 1.0) > 1e-9:
            raise ValueError("ratio sequence must start positive and end at 1")
        if any(b < a - 1e-9 for a, b in zip(x, x[1:])):
            raise ValueError("ratio sequence must be nondecreasing")
        prod = math.prod(x)
        target = 2.0 ** (self.joint_entropy - len(x) * self.marginal_entropy)
        if abs(prod - target) > 1e-9 * max(1.0, target):
            raise ValueError(
                f"product identity fails: prod={prod}, 2^(H_r - r H_1)={target}")


def ratio_sequence(d: EdgeDistribution) -> RatioSequence:
    r = d.host.r
    H = d.suffix_entropies()
    x = tuple(2.0 ** ((H[r - i + 1] - H[r - i]) - H[1]) for i in range(1, r + 1))
    return RatioSequence(x=x, joint_entropy=H[r], marginal_entropy=H[1])


# ---------------------------------------------------------------------------
# entropic density


@dataclass(frozen=True)
class EntropicDensityResult:
    value: float
    witness: EdgeDistribution
    status: str  # "converged" (Lagrangian cross-check agrees) or "best-found"

    def __iter__(self):
        return iter((self.value, self.witness))


def _edge_objective(edges: np.ndarray, n: int, r: int, w: np.ndarray) -> float:
    """ln r! + H(w) - r H(m(w)) in nats; the entropic density is exp of it."""
    m = np.zeros(n)
    np.add.at(m, edges.ravel(), np.repeat(w, r) / r)
    pos_w = w[w > 0]
    pos_m = m[m > 0]
    return (math.lgamma(r + 1) - float(pos_w @ np.log(pos_w))
            - r * (-float(pos_m @ np.log(pos_m))))


def _ascend(edges: np.ndarray, n: int, r: int, w0: np.ndarray,
            iters: int = 2000, tol: float = 1e-14) -> tuple[float, np.ndarray]:
    """Exponentiated-gradient ascent with backtracking on the edge simplex."""
    w = np.clip(w0, 1e-300, None)
    w = w / w.sum()
    val = _edge_objective(edges, n, r, w)
    eta = 0.5
    for _ in range(iters):
        m = np.zeros(n)
        np.add.at(m, edges.ravel(), np.repeat(w, r) / r)
        # weights can underflow to exact zero mid-ascent; clip before the logs
        # so the gradient stays finite
        g = (-np.log(np.clip(w, 1e-300, None))
             + np.log(np.clip(m, 1e-300, None))[edges].sum(axis=1))
        g -= g.max()
        stepped = False
        while eta > 1e-12:
            cand = w * np.exp(eta * g)
            cand /= cand.sum()
            cand_val = _edge_objective(edges, n, r, cand)
            if np.isfinite(cand_val) and cand_val >= val - 1e-15:
                stepped = True
                break
            eta /= 2
        if not stepped:
            break
        delta = np.abs(cand - w).max()
        w, val = cand, cand_val
        eta = min(eta * 1.5, 2.0)
        if delta < tol:
            break
    return val, w


def entropic_density(H: Hypergraph, restarts: int = 100,
                     seed: int = _SEED) -> EntropicDensityResult:
    """Maximum of 2^{H(X_1..X_r) - r H(X_1)} over edge distributions.

    The objective is a difference of concave terms, so ascent is multistart:
    Dirichlet starts plus a start seeded from the Lagrangian witness
    (w_e proportional to the product of witness weights on e, which is
    optimal when the two densities coincide).  ``seed`` drives both the
    Dirichlet starts and the Lagrangian.
    """
    if not H.edges:
        raise ValueError("entropic density needs at least one edge")
    edges = np.array(H.sorted_edges, dtype=np.int64)
    n, r = H.n, H.r
    m_edges = len(edges)

    lag = lagrangian(H, seed=seed)
    xw = np.asarray(lag.witness.weights)
    seed_w = np.prod(np.clip(xw[edges], 1e-300, None), axis=1)
    seed_w /= seed_w.sum()

    rng = np.random.default_rng(seed)
    starts = [seed_w, np.full(m_edges, 1.0 / m_edges)]
    starts.extend(rng.dirichlet(np.ones(m_edges)) for _ in range(restarts))

    best_val, best_w = -np.inf, None
    for w0 in starts:
        val, w = _ascend(edges, n, r, w0)
        if val > best_val:
            best_val, best_w = val, w
    value = math.exp(best_val)
    status = "converged" if abs(value - lag.blowup_density) < 1e-5 else "best-found"
    return EntropicDensityResult(value=value,
                                 witness=EdgeDistribution(H, tuple(best_w)),
                                 status=status)


# ---------------------------------------------------------------------------
# partial forests and the tree sampler


def forest_sequence(F: PartialHypergraph, order: Sequence[int]):
    """Forest sequence (f_1, ..., f_r) of F under the given vertex order,
    or None when some vertex lacks a unique maximal back-edge.

    ``order`` lists V(F) from smallest to largest; for each vertex v the
    candidates are the back-portions e ∩ {u <= v} of maximal edges through v,
    and the partial-forest condition asks for a unique inclusion-maximal one.
    """
    if sorted(order) != list(range(F.n)):
        raise ValueError("order must be a permutation of the vertices")
    rank = {v: t for t, v in enumerate(order)}
    f = [0] * F.r
    for v in range(F.n):
        cands = []
        for e in F.sorted_edges:
            if v in e:
                cands.append(frozenset(u for u in e if rank[u] <= rank[v]))
        maximal = [c for c in set(cands)
                   if not any(c < other for other in cands)]
        if len(maximal) != 1:
            return None
        f[len(maximal[0]) - 1] += 1
    return tuple(f)


def _edge_vertices(F: PartialHypergraph, order: Sequence[int]):
    """e_v for each vertex: the unique maximal back-portion, as a set."""
    rank = {v: t for t, v in enumerate(order)}
    out = {}
    for v in range(F.n):
        cands = [frozenset(u for u in e if rank[u] <= rank[v])
                 for e in F.sorted_edges if v in e]
        maximal = [c for c in set(cands) if not any(c < o for o in cands)]
        out[v] = maximal[0]
    return out


def tree_sampler_entropy(F: PartialHypergraph, order: Sequence[int],
                         d: EdgeDistribution):
    """Exact law of the partial-forest homomorphism sampler, plus the
    predicted entropy |V(F)| H(X_1) + log2 prod x_i^{f_{r+1-i}}.

    Vertices are processed in order; Y_v is drawn from the conditional law
    of one more tuple coordinate given the values already fixed on
    e_v minus v.  Asserts the realized entropy matches the prediction and
    that every maximal edge's marginal is the corresponding suffix law.
    """
    f = forest_sequence(F, order)
    if f is None:
        raise ValueError("F is not a partial forest under this order")
    r = d.host.r
    ev = _edge_vertices(F, order)
    levels = d.subset_weights()

    def W(s: frozenset) -> float:
        return levels[len(s)].get(s, 0.0) if s else 1.0

    law: dict = {(): 1.0}
    for v in order:
        back = ev[v] - {v}
        q = len(back)
        new_law: dict = {}
        for assign, p in law.items():
            vals = dict(zip(order[: len(assign)], assign))
            t = frozenset(vals[u] for u in back)
            if len(t) != q:
                raise ValueError("sampled values collide inside a forest edge")
            Wt = W(t)
            if Wt <= 0:
                raise ValueError("missing conditional support at vertex "
                                 f"{v}: W({sorted(t)}) = 0")
            denom = (r - q) * Wt
            for y in range(d.host.n):
                if y in t:
                    continue
                Wty = W(t | {y})
                if Wty <= 0:
                    continue
                new_law[assign + (y,)] = p * Wty / denom
        law = new_law

    # re-key outcomes by vertex id 0..n-1
    inv = np.argsort(np.asarray(order))
    joint = JointRV(DiscreteRV.from_dict(
        {tuple(o[inv[v]] for v in range(F.n)): p for o, p in law.items()}))

    rs = ratio_sequence(d)
    predicted = F.n * rs.marginal_entropy + sum(
        f[r - i] * math.log2(rs.x[i - 1]) for i in range(1, r + 1))
    realized = entropy(joint.rv)
    if abs(realized - predicted) > 1e-9 * max(1.0, abs(predicted)):
        raise AssertionError(
            f"sampler entropy {realized} != predicted {predicted}")

    for e in F.sorted_edges:
        q = len(e)
        got = joint.marginal(e).law()
        scale = math.factorial(r - q) / math.factorial(r)
        for tup, p in got.items():
            expect = scale * W(frozenset(tup))
            if abs(p - expect) > 1e-9:
                raise AssertionError(
                    f"edge marginal mismatch on {e} at {tup}: {p} vs {expect}")
    return joint, predicted


# ---------------------------------------------------------------------------
# the cross-module law: ratio sequences of hom-free hosts land in the region


def verify_ratio_constraints(H: Hypergraph, family: Family, trials: int = 100,
                             budget: SearchBudget = DEFAULT_BUDGET,
                             seed: int = _SEED,
                             assume_hom_free: bool = False) -> dict:
    """For random edge distributions on a hom-free host, check that every
    ratio sequence lies in the (r, k) region, k = family size.

    Hom-freeness is certified by exhaustive search unless the caller vouches
    for it with assume_hom_free (useful for hosts whose freeness has a
    structural proof but whose search space is out of reach).

    Returns a report with the worst constraint slack seen.
    """
    k = len(family.members)
    if not assume_hom_free and not is_hom_free(H, family, budget):
        raise ValueError("host is not hom-free against the family")
    rng = np.random.default_rng(seed)
    m = len(H.edges)
    worst = math.inf
    failures = 0
    checked = 0
    dists = [EdgeDistribution.uniform(H)]
    dists.extend(EdgeDistribution(H, tuple(rng.dirichlet(np.ones(m))))
                 for _ in range(trials))
    dists.append(entropic_density(H, restarts=20, seed=seed).witness)
    model = RegionConstraints(H.r, k)
    for d in dists:
        rs = ratio_sequence(d)
        ok, violations = check_feasible(rs.x, H.r, k, tol=1e-9)
        tent_slack = model.slack(rs.x)[: model.n_tent].min()
        worst = min(worst, tent_slack, *(s for _, s in violations))
        failures += 0 if ok else 1
        checked += 1
    return {
        "r": H.r,
        "k": k,
        "checked": checked,
        "failures": failures,
        "worst_slack": worst,
        "all_feasible": failures == 0,
    }
