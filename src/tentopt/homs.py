"""Homomorphism search and tiny-scale exact Turan numbers.

Homomorphism existence is decided by backtracking with a
most-constrained-vertex heuristic; edge-image feasibility is pruned with
bitmask intersections.  The exact Turan search is an integer program over
edge slots with forbidden-subgraph cover constraints, followed by optimal
solution enumeration.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .hypergraphs import Family, Hypergraph, PartialHypergraph, extend
from .isomorphism import is_isomorphic


# scipy.optimize is most of the import time of tentopt, so it is imported on
# first call; the benchmark's tracer patches this module-level name
def milp(*args, **kwargs):
    from scipy.optimize import milp
    return milp(*args, **kwargs)


class BudgetExceededError(RuntimeError):
    """Search stopped before the tree was fully explored."""


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10_000_000
    timeout: float = 60.0

    def __post_init__(self):
        if self.max_nodes <= 0 or self.timeout <= 0:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = SearchBudget()


class _Backtracker:
    """Shared machinery for uniform and partial homomorphism search.

    F-edges are mapped so that every edge's image has distinct vertices and,
    at all times, the mapped part of each edge fits inside a common H-edge.
    In the uniform case a fully mapped edge must be exactly an H-edge.
    """

    def __init__(self, f_edges, n_f, H: Hypergraph, uniform: bool,
                 budget: SearchBudget):
        self.f_edges = [tuple(e) for e in f_edges]
        self.n_f = n_f
        self.H = H
        self.uniform = uniform
        self.budget = budget
        self.h_edge_set = H.edges
        h_edges = H.sorted_edges
        # bitmask of H-edges through each H-vertex
        self.vmask = [0] * H.n
        for idx, e in enumerate(h_edges):
            for w in e:
                self.vmask[w] |= 1 << idx
        self.incident = [[] for _ in range(n_f)]
        for i, e in enumerate(self.f_edges):
            for v in e:
                self.incident[v].append(i)
        self.full_mask = (1 << len(h_edges)) - 1
        # twins: identical incident edge sets, hence swappable; they share an
        # edge, so their images are distinct and may be forced increasing
        groups: dict[frozenset, list[int]] = {}
        for v in range(n_f):
            if self.incident[v]:
                groups.setdefault(frozenset(self.incident[v]), []).append(v)
        self.twins = {v: [u for u in grp if u != v]
                      for grp in groups.values() if len(grp) > 1 for v in grp}

    def search(self):
        n_f, H = self.n_f, self.H
        mapping = [-1] * n_f
        nodes = 0
        deadline = time.monotonic() + self.budget.timeout

        # static order: decreasing edge-degree, ties toward connectivity
        order = sorted(range(n_f), key=lambda v: -len(self.incident[v]))
        placed = []
        seen = set()
        for v in order:
            if v in seen:
                continue
            stack = [v]
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                placed.append(u)
                nbrs = {w for i in self.incident[u] for w in self.f_edges[i]}
                stack.extend(sorted(nbrs - seen, key=lambda w: -len(self.incident[w])))

        def feasible(v: int) -> bool:
            for i in self.incident[v]:
                e = self.f_edges[i]
                img = [mapping[u] for u in e]
                if all(w >= 0 for w in img):
                    if len(set(img)) != len(e):
                        return False
                    if self.uniform:
                        if tuple(sorted(img)) not in self.h_edge_set:
                            return False
                        continue
                else:
                    done = [w for w in img if w >= 0]
                    if len(set(done)) != len(done):
                        return False
                    img = done
                mask = self.full_mask
                for w in img:
                    mask &= self.vmask[w]
                    if not mask:
                        return False
            return True

        rank = {v: d for d, v in enumerate(placed)}

        def backtrack(depth: int):
            nonlocal nodes
            if depth == len(placed):
                return list(mapping)
            v = placed[depth]
            lo = 0
            for u in self.twins.get(v, ()):
                if rank[u] < depth and mapping[u] >= lo:
                    lo = mapping[u] + 1
            for w in range(lo, H.n):
                nodes += 1
                if nodes > self.budget.max_nodes:
                    raise BudgetExceededError(
                        f"node budget {self.budget.max_nodes} exhausted")
                if nodes % 256 == 1 and time.monotonic() > deadline:
                    raise BudgetExceededError("search timed out")
                mapping[v] = w
                if feasible(v):
                    found = backtrack(depth + 1)
                    if found is not None:
                        return found
                mapping[v] = -1
            return None

        # vertices in no edge map anywhere; send them to vertex 0
        result = backtrack(0)
        if result is not None:
            result = [w if w >= 0 else 0 for w in result]
        return result


def find_homomorphism(F: Hypergraph, H: Hypergraph,
                      budget: SearchBudget = DEFAULT_BUDGET) -> list[int] | None:
    """Map sending every edge of F onto an edge of H, or None (exhaustive).

    Raises BudgetExceededError if the search tree was not fully explored.
    """
    if F.r != H.r:
        raise ValueError(f"uniformity mismatch: {F.r} != {H.r}")
    if not H.edges:
        return None if F.edges else [0] * F.n if H.n else None
    return _Backtracker(F.sorted_edges, F.n, H, uniform=True, budget=budget).search()


def find_partial_homomorphism(F: PartialHypergraph, H: Hypergraph,
                              budget: SearchBudget = DEFAULT_BUDGET) -> list[int] | None:
    """Map injective on every maximal edge of F, with each image inside some
    edge of H; None if exhaustively absent."""
    if F.r > H.r:
        raise ValueError(f"partial edge-size cap {F.r} exceeds host uniformity {H.r}")
    if not H.edges:
        return None if F.maximal_edges else [0] * F.n if H.n else None
    return _Backtracker(F.sorted_edges, F.n, H, uniform=False, budget=budget).search()


def is_hom_free(H: Hypergraph, family: Family,
                budget: SearchBudget = DEFAULT_BUDGET) -> bool:
    """True iff no family member maps homomorphically into H."""
    if family.r != H.r:
        raise ValueError("uniformity mismatch between family and host")
    return all(find_homomorphism(F, H, budget) is None for F in family.members)


def verify_extension_equivalence(F: PartialHypergraph, H: Hypergraph,
                                 budget: SearchBudget = DEFAULT_BUDGET) -> bool:
    """Check that a partial homomorphism from F exists exactly when a
    homomorphism from the extension of F exists."""
    partial = find_partial_homomorphism(F, H, budget) is not None
    full = find_homomorphism(extend(F), H, budget) is not None
    return partial == full


def check_map(F: Hypergraph, H: Hypergraph, mapping) -> bool:
    """Re-verify a homomorphism witness."""
    if len(mapping) != F.n:
        return False
    return all(tuple(sorted(mapping[v] for v in e)) in H.edges for e in F.edges)


# ---------------------------------------------------------------------------
# exact Turan search


def _embedding_constraints(n: int, family: Family, slot_index) -> list[frozenset]:
    """Edge-slot sets that are images of injective embeddings of a member."""
    images = set()
    for F in family.members:
        if F.n > n:
            continue
        f_edges = F.sorted_edges
        for perm in itertools.permutations(range(n), F.n):
            img = frozenset(
                slot_index[tuple(sorted(perm[v] for v in e))] for e in f_edges
            )
            images.add(img)
    return sorted(images, key=sorted)


def brute_force_ex(n: int, family: Family,
                   budget: SearchBudget = DEFAULT_BUDGET) -> tuple[int, list[Hypergraph]]:
    """Exact Turan number at tiny scale plus all extremal graphs up to
    isomorphism.

    Freeness here is subgraph containment (injective on vertices), the
    notion behind ex(n, .); hom-freeness is a separate predicate.
    """
    from scipy.optimize import LinearConstraint

    r = family.r
    if r == 2:
        if n > 8:
            raise ValueError("r=2 search is capped at n <= 8")
    elif n > r + 3:
        raise ValueError(f"r={r} search is capped at n <= {r + 3}")
    if n < r:
        raise ValueError("need n >= r")

    slots = list(itertools.combinations(range(n), r))
    slot_index = {e: i for i, e in enumerate(slots)}
    forbidden = _embedding_constraints(n, family, slot_index)

    m = len(slots)
    constraints = []
    for img in forbidden:
        row = np.zeros(m)
        row[list(img)] = 1.0
        constraints.append(LinearConstraint(row, -np.inf, len(img) - 1))

    deadline = time.monotonic() + budget.timeout

    def solve(extra):
        res = milp(
            c=-np.ones(m),
            constraints=constraints + extra,
            integrality=np.ones(m),
            bounds=(0, 1),
            options={"time_limit": max(deadline - time.monotonic(), 0.1)},
        )
        return res

    res = solve([])
    if res.status != 0:
        raise BudgetExceededError(f"integer program did not solve: {res.message}")
    opt = round(-res.fun)

    # enumerate every optimal labeled solution via exclusion cuts
    maximizers = []
    cuts = []
    while True:
        res = solve(cuts)
        if res.status != 0 or round(-res.fun) < opt:
            break
        chosen = [slots[i] for i in range(m) if res.x[i] > 0.5]
        maximizers.append(Hypergraph(r=r, n=n, edges=chosen))
        row = np.zeros(m)
        row[[slot_index[e] for e in chosen]] = 1.0
        cuts.append(LinearConstraint(row, -np.inf, opt - 1))
        if time.monotonic() > deadline:
            raise BudgetExceededError("maximizer enumeration timed out")

    reps: list[Hypergraph] = []
    for G in maximizers:
        if not any(is_isomorphic(G, R) for R in reps):
            reps.append(G)
    return opt, reps
