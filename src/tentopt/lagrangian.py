"""Hypergraph Lagrangian and blowup density.

The Lagrangian is the maximum of the edge polynomial over the probability
simplex; blowup density rescales it by r!.  Ascent uses multistart
replicator dynamics (Baum-Eagon guarantees monotone objective), each start
finished by Newton's method on its face, with a coarse simplex-grid oracle
for small vertex counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._base import _SEED
from ._kernels import (BEST_REL, CERTIFIED, POLISHED, edge_poly_batch, replicator_batch,
                       start_diagnostics)
from .hypergraphs import Family, Hypergraph
from .homs import DEFAULT_BUDGET, SearchBudget, find_homomorphism, is_hom_free
from .region import product_bound

DEFAULT_RESTARTS = 200
GRID_POINTS = 200_000  # most nodes of the ``lagrangian_grid`` mesh


@dataclass(frozen=True)
class SimplexPoint:
    """Nonnegative vertex weights summing to 1 (renormalized on construction)."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if (w < -1e-12).any():
            raise ValueError("weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must not be all zero")
        if abs(total - 1.0) > 1e-12:
            w = w / total
        object.__setattr__(self, "weights", tuple(w))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights)


@dataclass(frozen=True)
class LagrangianResult:
    value: float
    witness: SimplexPoint
    blowup_density: float
    # "converged" when the witness's start stopped ``certified`` or
    # ``polished``: it passed the kernel's first- and second-order local
    # tests, so it is a local maximum, not necessarily the global one;
    # "budget-limited" when it stopped ``cap``
    status: str
    restarts_used: int
    # how the starts ran, in ``_kernels.start_diagnostics``' format
    diagnostics: dict = field(default_factory=dict, compare=False)


def _edge_array(H: Hypergraph) -> np.ndarray:
    return np.array(H.sorted_edges, dtype=np.int64).reshape(len(H.edges), H.r)


def edge_polynomial(H: Hypergraph, x: SimplexPoint) -> float:
    """Sum over edges of the product of the weights on the edge."""
    if len(x.weights) != H.n:
        raise ValueError(f"point has {len(x.weights)} weights, H has {H.n} vertices")
    if not H.edges:
        return 0.0
    return float(edge_poly_batch(_edge_array(H), x.as_array()[None, :])[0])


def lagrangian(H: Hypergraph, restarts: int = DEFAULT_RESTARTS,
               seed: int = _SEED) -> LagrangianResult:
    """Best local maximum of the edge polynomial over the simplex.

    Multistart replicator ascent from Dirichlet(1) samples plus the uniform
    point; deterministic for a fixed seed (restart results reduced by value,
    within ``_kernels.BEST_REL`` relative as ``reached_best`` counts it,
    then lexicographically smallest witness).  Each start stops on its own,
    for one of three reasons (see ``_kernels``); ``diagnostics`` says how.
    A start stops ``certified`` at a point whose fixed-point residual is
    below ``_kernels.CERTIFIED_RESIDUAL`` and whose tangent Hessian on the
    support is negative semidefinite; a first-order point that fails the
    second test is a saddle, and the start steps off it and goes on.  Every
    100 iterations the kernel polishes each running start by Newton's
    method on its face and on that face without its lowest-ratio vertex,
    and a start stops ``polished`` when that point passes the same two
    tests and is no lower than the start.  A start that does neither within
    ``_kernels.MAX_ITERS`` iterations stops ``cap``.  ``status`` is
    "converged" when the witness's start stopped ``certified`` or
    ``polished``, else "budget-limited".  "converged" says the witness is a
    local maximum to these tolerances, not that it is the global one; for
    r = 2 ``motzkin_straus_value`` is the exact check.  ValueError when
    ``restarts`` is negative.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if not H.edges:
        return LagrangianResult(0.0, SimplexPoint((1.0,) * max(H.n, 1)),
                                0.0, "converged", 0)
    edges = _edge_array(H)
    rng = np.random.default_rng(seed)
    starts = np.vstack([np.full((1, H.n), 1.0 / H.n),
                        rng.dirichlet(np.ones(H.n), size=restarts)])
    values, xs, steps, stops = replicator_batch(edges, H.n, starts)
    order = np.argsort(-values)
    best = top = order[0]
    for idx in order:
        if values[top] - values[idx] > BEST_REL * abs(values[top]):
            break
        if tuple(xs[idx]) < tuple(xs[best]):
            best = idx
    value = float(values[best])
    witness = xs[best]
    return LagrangianResult(
        value=value,
        witness=SimplexPoint(tuple(witness)),
        blowup_density=math.factorial(H.r) * value,
        status="converged" if stops[best] in (CERTIFIED, POLISHED) else "budget-limited",
        restarts_used=len(starts),
        diagnostics=start_diagnostics(values, steps, stops),
    )


def blowup_density(H: Hypergraph, restarts: int = DEFAULT_RESTARTS) -> float:
    return lagrangian(H, restarts=restarts).blowup_density


# ---------------------------------------------------------------------------
# independent oracles


def _compositions(total: int, parts: int):
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for c in cuts:
            comp.append(c - prev - 1)
            prev = c
        comp.append(total + parts - 2 - prev)
        yield comp


def lagrangian_grid(H: Hypergraph) -> float:
    """Grid-refinement oracle: best edge-polynomial value over the coarsest
    simplex mesh that stays under ``GRID_POINTS`` nodes, then polished by
    replicator ascent from the best mesh points."""
    if not H.edges:
        return 0.0
    n = H.n
    step = 40
    while step > 2 and math.comb(step + n - 1, n - 1) > GRID_POINTS:
        step -= 1
    grid = np.array(list(_compositions(step, n)), dtype=float) / step
    edges = _edge_array(H)
    vals = edge_poly_batch(edges, grid)
    top = np.argsort(-vals)[:32]
    values = replicator_batch(edges, n, grid[top] + 1e-9)[0]
    return float(max(vals.max(), values.max()))


def max_clique(H: Hypergraph) -> int:
    """Brute-force clique number of a graph (r = 2), bitset DFS."""
    if H.r != 2:
        raise ValueError("clique number is defined here for graphs only")
    adj = [0] * H.n
    for a, b in H.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    best = 1 if H.n else 0

    def grow(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if size + 1 + cand.bit_count() <= best:
                return
            grow(cand & adj[v], size + 1)

    grow((1 << H.n) - 1, 0)
    return best


def motzkin_straus_value(H: Hypergraph) -> float:
    """Graph Lagrangian via the clique number: (1 - 1/w)/2."""
    if not H.edges:
        return 0.0
    w = max_clique(H)
    return (1.0 - 1.0 / w) / 2.0


# ---------------------------------------------------------------------------
# density bounds


def density_lower_bound(H: Hypergraph, family: Family,
                        budget: SearchBudget = DEFAULT_BUDGET) -> float | None:
    """Blowup density of H as a certified Turan-density lower bound, when H
    avoids homomorphic images of the family; None otherwise."""
    if not is_hom_free(H, family, budget):
        return None
    return blowup_density(H)


# the exact blowup density of one r-edge is the region's bound r!/r^r
single_edge_density = product_bound


def check_density_monotone(F_big: Family, F_small: Family,
                           budget: SearchBudget = DEFAULT_BUDGET) -> bool:
    """Hypothesis of the density comparison: every member of F_small receives
    a homomorphism from some member of F_big."""
    if F_big.r != F_small.r:
        raise ValueError("uniformity mismatch")
    for target in F_small.members:
        if not any(find_homomorphism(F, target, budget) is not None
                   for F in F_big.members):
            return False
    return True
