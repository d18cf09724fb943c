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

from ._kernels import CERTIFIED, POLISHED, replicator_batch, start_diagnostics
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


def _incidence(H: Hypergraph) -> np.ndarray:
    """The (n, m) 0/1 vertex-edge incidence matrix, edges in sorted order."""
    edges = np.array(H.sorted_edges, dtype=np.int64)
    B = np.zeros((H.n, len(edges)))
    B[edges.T, np.arange(len(edges))] = 1.0
    return B


def _plogp(P: np.ndarray) -> np.ndarray:
    """Column sums of p ln p, with 0 ln 0 = 0."""
    return (P * np.log(P, out=np.zeros_like(P), where=P > 0)).sum(axis=0)


def _subset_index(H: Hypergraph) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For each level q = 1..r, the distinct q-subsets of the edges of H and
    which edges contain each: (subsets, edge, starts), where the rows of
    ``subsets`` are the sorted subsets and edge[starts[j]:starts[j + 1]] are
    the indices (into ``sorted_edges``, ascending) of the edges containing
    subset j.  ``edge`` has one entry per (edge, q-subset) pair."""
    edges = np.array(H.sorted_edges, dtype=np.int64)
    index = []
    for q in range(1, H.r + 1):
        combos = np.array(list(itertools.combinations(range(H.r), q)))
        pairs = edges[:, combos].reshape(-1, q)  # row e * len(combos) + c
        subsets, inverse, counts = np.unique(pairs, axis=0, return_inverse=True,
                                             return_counts=True)
        order = np.argsort(inverse.reshape(-1), kind="stable")
        index.append((subsets, order // len(combos), np.cumsum(counts) - counts))
    return index


def _subset_weight_columns(index, W: np.ndarray) -> list[np.ndarray]:
    """W_s = sum of w_e over the edges e containing s, for every subset s in
    ``index`` and every column w of the (m, T) matrix W: one (S_q, T) array
    per level q = 1..r."""
    return [np.add.reduceat(W[edge], starts, axis=0) for _, edge, starts in index]


def suffix_entropy_matrix(H: Hypergraph, W: np.ndarray) -> np.ndarray:
    """H_q, the entropy of any q coordinates of the ordered tuple, for
    q = 0..r (rows) and each edge distribution on H given as a column of the
    (m, T) matrix W (edges in ``sorted_edges`` order).

    A distinct q-tuple with vertex set s has probability p = (r-q)!/r! W_s
    and there are q! tuples per set, so H_q = -q! sum_s p log2 p and no
    ordering is enumerated.  The subset index (``_subset_index``) is built
    once per call, and the subset weights of all T columns are gathered and
    summed in one numpy step per level, so memory is linear in the number of
    (edge, subset) pairs times T.  Zero weights contribute 0.
    """
    if W.ndim != 2 or W.shape[0] != len(H.edges):
        raise ValueError(f"need an ({len(H.edges)}, T) weight matrix, got shape {W.shape}")
    r = H.r
    Hq = np.zeros((r + 1, W.shape[1]))
    for q, Ws in enumerate(_subset_weight_columns(_subset_index(H), W), start=1):
        p = math.factorial(r - q) / math.factorial(r) * Ws
        Hq[q] = -math.factorial(q) * _plogp(p) / math.log(2)
    return Hq


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
        return _incidence(self.host) @ np.asarray(self.w) / self.host.r

    def subset_weights(self) -> list[dict]:
        """W_s = sum of w_e over edges containing s, for |s| = 0..r; the
        sets of weight 0 are left out."""
        index = _subset_index(self.host)
        levels = [{frozenset(): 1.0}]
        for (subsets, _, _), Ws in zip(index, _subset_weight_columns(index, self._column())):
            levels.append({frozenset(s): w for s, w in zip(subsets.tolist(), Ws[:, 0].tolist())
                           if w > 0})
        return levels

    def suffix_entropies(self) -> list[float]:
        """H_q = entropy of any q tuple coordinates, q = 0..r: the one-column
        case of ``suffix_entropy_matrix``."""
        return suffix_entropy_matrix(self.host, self._column())[:, 0].tolist()

    def _column(self) -> np.ndarray:
        return np.asarray(self.w)[:, None]

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
        if abs(prod - target) > 1e-9 * target:
            raise ValueError(
                f"product identity fails: prod={prod}, 2^(H_r - r H_1)={target}")


def _ratio_sequences(H: Hypergraph, W: np.ndarray) -> list[RatioSequence]:
    """The ratio sequence of each column of W, from one
    ``suffix_entropy_matrix`` call; x_i = 2^{(H_{r-i+1} - H_{r-i}) - H_1}."""
    Hq = suffix_entropy_matrix(H, W)
    X = 2.0 ** (np.diff(Hq, axis=0)[::-1] - Hq[1])
    return [RatioSequence(x=tuple(x), joint_entropy=hr, marginal_entropy=h1)
            for x, hr, h1 in zip(X.T.tolist(), Hq[H.r].tolist(), Hq[1].tolist())]


def ratio_sequence(d: EdgeDistribution) -> RatioSequence:
    return _ratio_sequences(d.host, d._column())[0]


# ---------------------------------------------------------------------------
# entropic density


# the replicator ascent on the marginals stops a start when no marginal moved
# by STEP_TOL, or after MAX_STEPS
STEP_TOL = 1e-14
MAX_STEPS = 2000


@dataclass(frozen=True)
class EntropicDensityResult:
    value: float
    witness: EdgeDistribution
    # "converged" when the best start stopped ``certified`` or ``polished``:
    # its replicator fixed-point residual fell below
    # ``_kernels.CERTIFIED_RESIDUAL``; otherwise "best-found"
    status: str
    # how the starts ran, in ``_kernels.start_diagnostics``' format
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __iter__(self):
        return iter((self.value, self.witness))


def _log_density(B: np.ndarray, W: np.ndarray, r: int) -> np.ndarray:
    """ln r! + H(w) - r H(m(w)) in nats for each column w of W, where B is
    the (n, m) vertex-edge incidence matrix and m(w) = B w / r; the
    entropic density is exp of it."""
    return math.lgamma(r + 1) - _plogp(W) + r * _plogp(B @ W / r)


def entropic_density(H: Hypergraph, restarts: int = 100,
                     seed: int = _SEED) -> EntropicDensityResult:
    """Maximum of 2^{H(X_1..X_r) - r H(X_1)} over edge distributions.

    The objective is H(w) plus the convex r sum_v m_v ln m_v, m = B w / r.
    Its concave-convex step (Yuille & Rangarajan, Neural Computation 2003)
    w_e ∝ ∏_{v∈e} m_v never lowers it, and its marginal is one replicator
    step on m, so the ascent is ``replicator_batch`` on the marginals.  The
    starts are the Lagrangian witness, then the marginals of the uniform and
    ``restarts`` Dirichlet edge distributions; ``seed`` drives both the
    Dirichlet starts and the Lagrangian.  Each end point m gives the edge
    distribution w_e ∝ ∏_{v∈e} m_v, and the best of these is the witness.
    ValueError when ``restarts`` is negative.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if not H.edges:
        raise ValueError("entropic density needs at least one edge")
    edges = np.array(H.sorted_edges, dtype=np.int64)
    n, r = H.n, H.r
    m_edges = len(edges)
    B = _incidence(H)

    lag = lagrangian(H, seed=seed)
    rng = np.random.default_rng(seed)
    W0 = np.column_stack([np.full(m_edges, 1.0 / m_edges),
                          rng.dirichlet(np.ones(m_edges), size=restarts).T])
    starts = np.vstack([lag.witness.as_array(), (B @ W0 / r).T])
    P, M, steps, stops = replicator_batch(edges, n, starts, iters=MAX_STEPS, tol=STEP_TOL)
    # the columns of products over each edge sum to the edge polynomial P
    W = M[:, edges].prod(axis=2).T / P
    values = _log_density(B, W, r)
    best = int(np.argmax(values))
    return EntropicDensityResult(
        value=math.exp(values[best]),
        witness=EdgeDistribution(H, tuple(W[:, best])),
        status="converged" if stops[best] in (CERTIFIED, POLISHED) else "best-found",
        diagnostics=start_diagnostics(np.exp(values), steps, stops))


# ---------------------------------------------------------------------------
# partial forests and the tree sampler


def _back_portions(F: PartialHypergraph, order: Sequence[int]):
    """e_v for each vertex v, as a set: the unique inclusion-maximal
    back-portion e ∩ {u <= v} of the edges e through v, or None when some
    vertex has no unique one."""
    if sorted(order) != list(range(F.n)):
        raise ValueError("order must be a permutation of the vertices")
    rank = {v: t for t, v in enumerate(order)}
    out = {}
    for v in range(F.n):
        cands = {frozenset(u for u in e if rank[u] <= rank[v])
                 for e in F.sorted_edges if v in e}
        maximal = [c for c in cands if not any(c < o for o in cands)]
        if len(maximal) != 1:
            return None
        out[v] = maximal[0]
    return out


def forest_sequence(F: PartialHypergraph, order: Sequence[int]):
    """Forest sequence (f_1, ..., f_r) of F under the given vertex order,
    or None when some vertex lacks a unique maximal back-edge.

    ``order`` lists V(F) from smallest to largest; f_q counts the vertices
    whose unique maximal back-portion (``_back_portions``) has q vertices.
    """
    ev = _back_portions(F, order)
    if ev is None:
        return None
    f = [0] * F.r
    for e in ev.values():
        f[len(e) - 1] += 1
    return tuple(f)


def tree_sampler_entropy(F: PartialHypergraph, order: Sequence[int],
                         d: EdgeDistribution):
    """Exact law of the partial-forest homomorphism sampler, plus the
    predicted entropy |V(F)| H(X_1) + log2 prod x_i^{f_{r+1-i}}.

    Vertices are processed in order; Y_v is drawn from the conditional law
    of one more tuple coordinate given the values already fixed on
    e_v minus v.  Asserts the realized entropy matches the prediction and
    that every maximal edge's marginal is the corresponding suffix law.
    """
    ev = _back_portions(F, order)
    if ev is None:
        raise ValueError("F is not a partial forest under this order")
    r = d.host.r
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
    # a vertex whose back-portion has q vertices counts in f_q, the exponent
    # of x_{r+1-q}
    predicted = F.n * rs.marginal_entropy + sum(
        math.log2(rs.x[r - len(e)]) for e in ev.values())
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

    The distributions are the columns of one (m, trials + 2) matrix: the
    uniform one, ``trials`` Dirichlet(1, ..., 1) draws from ``seed``, and the
    entropic-density witness.  One ``suffix_entropy_matrix`` call gives the
    suffix entropies of every column, over a subset index built once for H.
    Each column then still builds its own ``RatioSequence`` (which checks
    monotonicity and the product identity), runs ``check_feasible`` and
    takes its smallest tent-row slack.

    Hom-freeness is certified by exhaustive search unless the caller vouches
    for it with assume_hom_free (useful for hosts whose freeness has a
    structural proof but whose search space is out of reach).

    Returns a report with the worst constraint slack seen.  Raises
    ValueError when ``trials`` is negative.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    k = len(family.members)
    if not assume_hom_free and not is_hom_free(H, family, budget):
        raise ValueError("host is not hom-free against the family")
    rng = np.random.default_rng(seed)
    m = len(H.edges)
    # the draws are the rows an EdgeDistribution would store unchanged: each
    # is nonnegative and sums to 1 within rounding, far inside its 1e-12
    W = np.column_stack([np.full(m, 1.0 / m),
                         rng.dirichlet(np.ones(m), size=trials).T,
                         entropic_density(H, restarts=20, seed=seed).witness.w])
    model = RegionConstraints(H.r, k)
    worst = math.inf
    failures = 0
    for rs in _ratio_sequences(H, W):
        ok, violations = check_feasible(rs.x, H.r, k, tol=1e-9)
        tent_slack = model.slack(rs.x)[: model.n_tent].min()
        worst = min(worst, tent_slack, *(s for _, s in violations))
        failures += 0 if ok else 1
    return {
        "r": H.r,
        "k": k,
        "checked": W.shape[1],
        "failures": failures,
        "worst_slack": worst,
        "all_feasible": failures == 0,
    }
