"""Small-instance hypergraph isomorphism by backtracking.

Meant for instances with at most a few dozen vertices (tents, tiny random
corpora); pruning is by degree and neighborhood-degree invariants plus
edge-image feasibility.
"""

from __future__ import annotations

from collections import Counter

from .hypergraphs import Hypergraph


def _invariants(H: Hypergraph) -> list[tuple]:
    deg = H.degrees()
    inv = []
    for v in range(H.n):
        codeg = Counter()
        for e in H.edges:
            if v in e:
                codeg.update(deg[u] for u in e if u != v)
        inv.append((deg[v], tuple(sorted(codeg.items()))))
    return inv


def find_isomorphism(G: Hypergraph, H: Hypergraph) -> list[int] | None:
    """Vertex bijection carrying E(G) onto E(H), or None."""
    if G.r != H.r or G.n != H.n or len(G.edges) != len(H.edges):
        return None
    inv_g, inv_h = _invariants(G), _invariants(H)
    if sorted(inv_g) != sorted(inv_h):
        return None

    h_edges = H.edges
    h_sets = [frozenset(f) for f in h_edges]
    g_edges = G.sorted_edges
    incident = [[] for _ in range(G.n)]
    for idx, e in enumerate(g_edges):
        for v in e:
            incident[v].append(idx)

    # map vertices most-constrained first, preferring ones touching mapped edges
    mapping = [-1] * G.n
    used = [False] * H.n

    def order_next() -> int | None:
        best, best_score = None, (-1, -1)
        for v in range(G.n):
            if mapping[v] >= 0:
                continue
            touched = sum(
                1 for idx in incident[v]
                if any(mapping[u] >= 0 for u in g_edges[idx] if u != v)
            )
            score = (touched, len(incident[v]))
            if score > best_score:
                best, best_score = v, score
        return best

    def feasible(v: int) -> bool:
        for idx in incident[v]:
            e = g_edges[idx]
            img = [mapping[u] for u in e]
            if all(w >= 0 for w in img):
                if tuple(sorted(img)) not in h_edges:
                    return False
            else:
                part = {w for w in img if w >= 0}
                if not any(part <= f for f in h_sets):
                    return False
        return True

    def backtrack(depth: int) -> bool:
        if depth == G.n:
            return True
        v = order_next()
        for w in range(H.n):
            if used[w] or inv_g[v] != inv_h[w]:
                continue
            mapping[v] = w
            used[w] = True
            if feasible(v) and backtrack(depth + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    if backtrack(0):
        return list(mapping)
    return None


def is_isomorphic(G: Hypergraph, H: Hypergraph) -> bool:
    return find_isomorphism(G, H) is not None
