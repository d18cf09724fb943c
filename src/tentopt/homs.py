"""Homomorphism search and tiny-scale exact Turan numbers.

Homomorphism existence is decided by backtracking over the core of F only,
the vertices in two or more edges, in a static most-constrained-first order,
with twins forced to increasing images.  Each F-edge keeps the bitmask of
H-edges containing its mapped part and the bitmask of its image vertices;
both are narrowed as its vertices are mapped, so a candidate image is checked
with one AND per incident edge.  Pendant vertices, in a single edge each, are
never branched on: at a leaf they take the free vertices of any H-edge left
for their edge.  The exact Turan search is an integer program over edge
slots with forbidden-subgraph cover rows; extremal graphs are enumerated one
isomorphism class per solve, by cutting every relabelling of each optimum.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .hypergraphs import Family, Hypergraph, PartialHypergraph, extend


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

    One rule serves both: the mapped part of every F-edge lands injectively
    inside some H-edge.  For a uniform F (F.r == H.r) a fully mapped edge then
    *is* that H-edge.  Each F-edge carries ``emask``, the H-edges containing
    its mapped part, and ``ebits``, the bitmask of its image vertices; both
    are narrowed when one of its vertices is mapped and restored on
    backtracking, so a candidate costs one AND per incident edge.

    Only the core, the vertices in two or more F-edges, is branched on.  A
    pendant vertex lies in a single F-edge ``e``; once the core is placed,
    any H-edge left in ``emask`` of ``e`` has r >= |e| vertices, of which
    those outside ``ebits`` take the pendants of ``e``, so a leaf needs no
    search.  An edge with no core vertex keeps every H-edge.
    """

    def __init__(self, f_edges, n_f, H: Hypergraph, budget: SearchBudget):
        self.f_edges = [tuple(e) for e in f_edges]
        self.n_f = n_f
        self.H = H
        self.budget = budget
        h_edges = H.sorted_edges
        self.hbits = [sum(1 << w for w in e) for e in h_edges]
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
        core = [v for v in range(n_f) if len(self.incident[v]) > 1]
        self.pendants = [[v for v in e if len(self.incident[v]) == 1]
                         for e in self.f_edges]
        # twins: identical incident edge sets, hence swappable; they share an
        # edge, so their images are distinct and may be forced increasing
        groups: dict[frozenset, list[int]] = {}
        for v in core:
            groups.setdefault(frozenset(self.incident[v]), []).append(v)
        self.twins = {v: [u for u in grp if u != v]
                      for grp in groups.values() if len(grp) > 1 for v in grp}
        # static order, most constrained first: most incident edges already
        # touched by placed vertices, then most incident edges
        touched = [False] * len(self.f_edges)
        self.order = []
        left = set(core)
        while left:
            v = max(left, key=lambda u: (sum(touched[i] for i in self.incident[u]),
                                         len(self.incident[u]), -u))
            left.remove(v)
            self.order.append(v)
            for i in self.incident[v]:
                touched[i] = True

    def _fill(self, mapping, emask, ebits):
        """Complete a placed core: each edge's pendants take the free
        vertices of the lowest H-edge left for it; isolated vertices go to 0."""
        result = [w if w >= 0 else 0 for w in mapping]
        for pend, m, b in zip(self.pendants, emask, ebits):
            free = self.hbits[(m & -m).bit_length() - 1] & ~b
            for v in pend:
                low = free & -free
                result[v] = low.bit_length() - 1
                free ^= low
        return result

    def search(self):
        n_h = self.H.n
        incident, vmask, twins, order = self.incident, self.vmask, self.twins, self.order
        max_nodes = self.budget.max_nodes
        mapping = [-1] * self.n_f
        emask = [self.full_mask] * len(self.f_edges)
        ebits = [0] * len(self.f_edges)
        nodes = 0
        deadline = time.monotonic() + self.budget.timeout
        rank = {v: d for d, v in enumerate(order)}

        def backtrack(depth: int):
            nonlocal nodes
            if depth == len(order):
                return self._fill(mapping, emask, ebits)
            v = order[depth]
            inc = incident[v]
            lo = 0
            for u in twins.get(v, ()):
                if rank[u] < depth and mapping[u] >= lo:
                    lo = mapping[u] + 1
            saved = [(emask[i], ebits[i]) for i in inc]
            for w in range(lo, n_h):
                nodes += 1
                if nodes > max_nodes:
                    raise BudgetExceededError(f"node budget {max_nodes} exhausted")
                if nodes % 256 == 1 and time.monotonic() > deadline:
                    raise BudgetExceededError("search timed out")
                bit, vm = 1 << w, vmask[w]
                for m, b in saved:
                    if b & bit or not m & vm:
                        break
                else:
                    for i in inc:
                        emask[i] &= vm
                        ebits[i] |= bit
                    mapping[v] = w
                    found = backtrack(depth + 1)
                    if found is not None:
                        return found
                    mapping[v] = -1
                    for i, (m, b) in zip(inc, saved):
                        emask[i] = m
                        ebits[i] = b
            return None

        return backtrack(0)


def find_homomorphism(F: Hypergraph, H: Hypergraph,
                      budget: SearchBudget = DEFAULT_BUDGET) -> list[int] | None:
    """Map sending every edge of F onto an edge of H, or None (exhaustive).

    Raises BudgetExceededError if the search tree was not fully explored.
    """
    if F.r != H.r:
        raise ValueError(f"uniformity mismatch: {F.r} != {H.r}")
    if not H.edges:
        return None if F.edges else [0] * F.n if H.n else None
    return _Backtracker(F.sorted_edges, F.n, H, budget).search()


def find_partial_homomorphism(F: PartialHypergraph, H: Hypergraph,
                              budget: SearchBudget = DEFAULT_BUDGET) -> list[int] | None:
    """Map injective on every maximal edge of F, with each image inside some
    edge of H; None if exhaustively absent."""
    if F.r > H.r:
        raise ValueError(f"partial edge-size cap {F.r} exceeds host uniformity {H.r}")
    if not H.edges:
        return None if F.maximal_edges else [0] * F.n if H.n else None
    return _Backtracker(F.sorted_edges, F.n, H, budget).search()


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


def _slot_actions(n: int, slots, slot_index) -> list[list[int]]:
    """How each adjacent transposition (i, i+1) of the vertices permutes the
    edge slots; together they generate every relabelling of [n]."""
    actions = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        actions.append([slot_index[tuple(sorted(swap.get(v, v) for v in e))]
                        for e in slots])
    return actions


def _relabellings(slot_set, actions) -> set[tuple[int, ...]]:
    """Distinct images of a set of edge slots under every relabelling of the
    vertices, as sorted slot tuples.

    For an edge list on vertices 0..k-1 these are its images under every
    injection into [n].  The orbit is closed breadth first under the
    generators, so the cost follows the orbit's size, never n!.
    """
    start = tuple(sorted(slot_set))
    orbit = {start}
    frontier = [start]
    while frontier:
        grown = []
        for s in frontier:
            for act in actions:
                t = tuple(sorted([act[i] for i in s]))
                if t not in orbit:
                    orbit.add(t)
                    grown.append(t)
        frontier = grown
    return orbit


def _rows(slot_sets, m: int):
    """0/1 sparse matrix with one row per slot set."""
    from scipy.sparse import csr_array

    indptr = np.cumsum([0] + [len(s) for s in slot_sets])
    indices = np.fromiter(itertools.chain.from_iterable(slot_sets), dtype=np.int64,
                          count=indptr[-1])
    return csr_array((np.ones(len(indices)), indices, indptr), shape=(len(slot_sets), m))


def brute_force_ex(n: int, family: Family,
                   budget: SearchBudget = DEFAULT_BUDGET) -> tuple[int, list[Hypergraph]]:
    """Exact Turan number at tiny scale plus one representative of every
    extremal isomorphism class.

    Freeness here is subgraph containment (injective on vertices), the
    notion behind ex(n, .); hom-freeness is a separate predicate.  Cover rows
    forbid every injective image of every member.  Each optimum found adds
    one cut row per distinct relabelling of it, so the next solve can only
    return a new class: the search makes (classes + 1) MILP solves, and at
    the end the cut rows are exactly the labelled optima.
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
    actions = _slot_actions(n, slots, slot_index)
    forbidden = set()
    for F in family.members:
        if F.n <= n:
            forbidden |= _relabellings([slot_index[e] for e in F.sorted_edges], actions)
    forbidden = sorted(forbidden)

    m = len(slots)
    cover = []
    if forbidden:
        cover.append(LinearConstraint(_rows(forbidden, m), -np.inf,
                                      [len(s) - 1 for s in forbidden]))

    deadline = time.monotonic() + budget.timeout
    opt = None
    cuts: list[tuple[int, ...]] = []
    reps: list[Hypergraph] = []
    while True:
        constraints = cover + ([LinearConstraint(_rows(cuts, m), -np.inf, opt - 1)]
                               if cuts else [])
        res = milp(
            c=-np.ones(m),
            constraints=constraints,
            integrality=np.ones(m),
            bounds=(0, 1),
            options={"time_limit": max(deadline - time.monotonic(), 0.1)},
        )
        if res.status == 2 and reps:
            break  # the cuts exclude every graph: ex is 0
        if res.status != 0:
            raise BudgetExceededError(f"integer program did not solve: {res.message}")
        value = round(-res.fun)
        if opt is None:
            opt = value
        elif value < opt:
            break
        chosen = np.flatnonzero(res.x > 0.5)
        reps.append(Hypergraph(r=r, n=n, edges=[slots[i] for i in chosen]))
        cuts.extend(sorted(_relabellings(chosen.tolist(), actions)))
        if time.monotonic() > deadline:
            raise BudgetExceededError("maximizer enumeration timed out")
    return opt, reps
