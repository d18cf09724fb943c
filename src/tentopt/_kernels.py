"""Hot numeric kernels: replicator ascent and batch edge-polynomial evaluation.

Pure numpy.  The edge polynomial's gradient is one matrix product: a 0/1
matrix that maps each edge slot to its vertex (``slot_matrix``) times the
leave-one-out products of every slot.  ``lagrangian._fixed_point_residual``
uses the same gradient and residual, and the benchmark's traced run
(``perfbench/run.py --trace 1``) times the kernels as the ``kernels.*``
layer.

``replicator_batch`` has two callers.  ``lagrangian.lagrangian`` ascends
the edge polynomial itself.  ``entropy.entropic_density`` ascends the vertex
marginals m of its edge distributions: the concave-convex step
w_e ∝ ∏_{v∈e} m_v has the marginal m_v ∂_v P(m) / (r P(m)), one replicator
step.  Both summarise their starts with ``start_diagnostics``.

Replicator ascent stops each start on its own, for the first of four
reasons (``STOP_REASONS``):

* ``certified``: the fixed-point (KKT) residual at the current point is
  below ``CERTIFIED_RESIDUAL``;
* ``delta``: the step moved no coordinate by ``tol`` or more;
* ``reach``: every ``REACH_EVERY`` iterations, once some start has stopped
  certified at value v*, a start whose value plus its mean gain over the
  last ``REACH_EVERY`` iterations times the iterations left stays below
  v* (1 - ``REACH_REL``) is dropped: it cannot catch up at its own pace.
  A start whose gain grew since the check before is kept, because it may
  be leaving a saddle or a plateau and the projection underestimates it;
* ``cap``: it ran all ``iters`` iterations.
"""

from __future__ import annotations

import numpy as np

# a start stops when its fixed-point residual falls below this
CERTIFIED_RESIDUAL = 1e-10
# coordinates above this count as the support in the residual
SUPPORT_TOL = 1e-9
# the reach rule runs every REACH_EVERY iterations and keeps a start whose
# projection comes within REACH_REL (relative) of the best certified value
REACH_EVERY = 100
REACH_REL = 1e-12

STOP_REASONS = ("certified", "delta", "reach", "cap")
CERTIFIED, DELTA, REACH, CAP = range(len(STOP_REASONS))
# a start "reached the best" when its value is within this share of the best
BEST_REL = 1e-9


def start_diagnostics(values: np.ndarray, steps: np.ndarray, stops: np.ndarray) -> dict:
    """How a batch of starts ran: iterations per start (min, median, max),
    how many stopped for each reason in ``STOP_REASONS``, and how many end
    within BEST_REL (relative) of the best value."""
    best = values.max()
    counts = np.bincount(stops, minlength=len(STOP_REASONS))
    return {
        "iterations_min": int(steps.min()),
        "iterations_median": float(np.median(steps)),
        "iterations_max": int(steps.max()),
        "stopped": {name: int(c) for name, c in zip(STOP_REASONS, counts)},
        "reached_best": int((values >= best - BEST_REL * abs(best)).sum()),
    }


def backend_name() -> str:
    return "numpy"


def slot_matrix(edges: np.ndarray, n: int) -> np.ndarray:
    """0/1 matrix of shape (r m, n): row j m + e marks vertex edges[e, j]."""
    m, r = edges.shape
    S = np.zeros((r * m, n))
    S[np.arange(r * m), edges.T.ravel()] = 1.0
    return S


def _leave_one_out(f):
    # f: (r, ...) factors; returns the product over all but each leading index
    r = len(f)
    out = np.empty_like(f)
    out[0] = 1.0
    for j in range(1, r):
        np.multiply(out[j - 1], f[j - 1], out=out[j])
    right = f[r - 1].copy()
    for j in range(r - 2, -1, -1):
        out[j] *= right
        if j:
            right *= f[j]
    return out


def edge_gradient(edges: np.ndarray, S: np.ndarray, Xt: np.ndarray):
    """Edge polynomial and its gradient at each column of Xt, shape (n, R).

    Points are columns so that each slot's factors, shape (m, R), are
    contiguous.  Returns (P, shape (R,); grad, shape (n, R)).
    """
    factors = Xt[edges.T]  # (r, m, R)
    loo = _leave_one_out(factors)
    P = (factors[0] * loo[0]).sum(axis=0)
    grad = S.T @ loo.reshape(-1, Xt.shape[1])
    return P, grad


def fixed_point_residual(Xt: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Per-column KKT violation of ``ratio = grad / (r P)``: it must be 1 on
    the support (x > SUPPORT_TOL) and at most 1 off it."""
    dev = ratio - 1.0
    return np.where(Xt > SUPPORT_TOL, np.abs(dev), np.maximum(dev, 0.0)).max(axis=0)


def replicator_batch(edges: np.ndarray, n: int, starts: np.ndarray,
                     iters: int = 5000, tol: float = 1e-14):
    """Run replicator ascent from each start.

    Returns (values, end points, iterations run per start, stop reason per
    start as an index into ``STOP_REASONS``).
    """
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    X = np.array(starts, dtype=np.float64)
    R = X.shape[0]
    r = edges.shape[1]
    S = slot_matrix(edges, n)
    steps = np.full(R, iters, dtype=np.int64)
    stop = np.full(R, CAP, dtype=np.int8)
    # the running starts: their rows of X, their points as columns and, for
    # the reach rule, their values and gains at the last check (NaN until
    # known, so no start is dropped before its gain was seen twice)
    idx = np.arange(R)
    Xt = X.T.copy()
    checkpoint = np.full(R, np.nan)
    last_gain = np.full(R, np.nan)
    best_certified = -np.inf
    for it in range(iters):
        if not len(idx):
            break
        P, grad = edge_gradient(edges, S, Xt)
        dead = P <= 1e-300
        if dead.any():
            # ascent direction vanished; restart from uniform
            Xt[:, dead] = 1.0 / n
            P, grad = edge_gradient(edges, S, Xt)
        if it % REACH_EVERY == 0:
            gain = (P - checkpoint) / REACH_EVERY
            if best_certified > -np.inf:
                behind = ((gain <= last_gain)
                          & (P + gain * (iters - it) < best_certified * (1 - REACH_REL)))
                if behind.any():
                    X[idx[behind]] = Xt[:, behind].T
                    steps[idx[behind]] = it
                    stop[idx[behind]] = REACH
                    keep = ~behind
                    idx, Xt, P, grad, gain = (idx[keep], Xt[:, keep], P[keep],
                                              grad[:, keep], gain[keep])
            checkpoint, last_gain = P, gain
        ratio = grad / (r * P)
        certified = fixed_point_residual(Xt, ratio) < CERTIFIED_RESIDUAL
        newXt = Xt * ratio
        newXt /= newXt.sum(axis=0)
        done = certified | (np.abs(newXt - Xt).max(axis=0) < tol)
        Xt = newXt
        if done.any():
            X[idx[done]] = Xt[:, done].T
            steps[idx[done]] = it + 1
            stop[idx[done]] = np.where(certified[done], CERTIFIED, DELTA)
            if certified.any():
                best_certified = max(best_certified, float(P[certified].max()))
            keep = ~done
            idx, Xt = idx[keep], Xt[:, keep]
            checkpoint, last_gain = checkpoint[keep], last_gain[keep]
    X[idx] = Xt.T
    values = edge_poly_batch(edges, X)
    return values, X, steps, stop


def edge_poly_batch(edges: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the edge polynomial at each row of ``points``."""
    points = np.asarray(points, dtype=np.float64)
    return points[:, np.asarray(edges, dtype=np.int64)].prod(axis=2).sum(axis=1)
