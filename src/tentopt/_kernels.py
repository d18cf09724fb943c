"""Hot numeric kernels: replicator ascent and batch edge-polynomial evaluation.

Two interchangeable backends:

* a numba ``@njit`` implementation (default when numba imports), and
* a pure-numpy implementation, selected by setting ``TENTOPT_FORCE_NUMPY=1``.

Both expose the same functions; ``tests/test_kernels.py`` checks that they
agree, and the benchmark's traced run (``perfbench/run.py --trace 1``) times
them as the ``kernels.*`` layer.
"""

from __future__ import annotations

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("TENTOPT_FORCE_NUMPY", "") not in ("", "0")

try:
    if _FORCE_NUMPY:
        raise ImportError
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        if args and callable(args[0]):
            return args[0]
        return wrap


def backend_name() -> str:
    return "numba" if _HAVE_NUMBA else "numpy"


@njit(cache=True)
def _replicator_batch_nb(edges, n, starts, iters, tol):
    R = starts.shape[0]
    m, r = edges.shape
    values = np.zeros(R)
    xs = np.empty_like(starts)
    for s in range(R):
        x = starts[s].copy()
        P = 0.0
        for _ in range(iters):
            P = 0.0
            grad = np.zeros(n)
            for e in range(m):
                p = 1.0
                for j in range(r):
                    p *= x[edges[e, j]]
                P += p
                for j in range(r):
                    xv = x[edges[e, j]]
                    if xv > 0.0:
                        grad[edges[e, j]] += p / xv
            if P <= 1e-300:
                # ascent direction vanished; restart from uniform
                x = np.full(n, 1.0 / n)
                continue
            newx = x * grad / (r * P)
            newx /= newx.sum()
            delta = 0.0
            for v in range(n):
                d = abs(newx[v] - x[v])
                if d > delta:
                    delta = d
            x = newx
            if delta < tol:
                break
        # final objective at the fixed point reached
        P = 0.0
        for e in range(m):
            p = 1.0
            for j in range(r):
                p *= x[edges[e, j]]
            P += p
        values[s] = P
        xs[s] = x
    return values, xs


def _leave_one_out(prods):
    # prods: (..., r) factors; returns product over all but each position
    r = prods.shape[-1]
    left = np.ones_like(prods)
    right = np.ones_like(prods)
    for j in range(1, r):
        left[..., j] = left[..., j - 1] * prods[..., j - 1]
        right[..., r - 1 - j] = right[..., r - j] * prods[..., r - j]
    return left * right


def _replicator_batch_np(edges, n, starts, iters, tol):
    R = starts.shape[0]
    m, r = edges.shape
    X = starts.copy()
    active = np.ones(R, dtype=bool)
    for _ in range(iters):
        if not active.any():
            break
        Xa = X[active]
        factors = Xa[:, edges]  # (Ra, m, r)
        loo = _leave_one_out(factors)
        P = factors.prod(axis=2).sum(axis=1)
        dead = P <= 1e-300
        if dead.any():
            Xa[dead] = 1.0 / n
            factors = Xa[:, edges]
            loo = _leave_one_out(factors)
            P = factors.prod(axis=2).sum(axis=1)
        grad = np.zeros((Xa.shape[0], n))
        ra = np.repeat(np.arange(Xa.shape[0]), m)
        for j in range(r):
            np.add.at(grad, (ra, np.tile(edges[:, j], Xa.shape[0])), loo[..., j].ravel())
        newX = Xa * grad / (r * P)[:, None]
        newX /= newX.sum(axis=1, keepdims=True)
        delta = np.abs(newX - Xa).max(axis=1)
        idx = np.flatnonzero(active)
        X[idx] = newX
        active[idx[delta < tol]] = False
    factors = X[:, edges]
    values = factors.prod(axis=2).sum(axis=1)
    return values, X


@njit(cache=True)
def _edge_poly_batch_nb(edges, points):
    R = points.shape[0]
    m, r = edges.shape
    out = np.zeros(R)
    for s in range(R):
        total = 0.0
        for e in range(m):
            p = 1.0
            for j in range(r):
                p *= points[s, edges[e, j]]
            total += p
        out[s] = total
    return out


def _edge_poly_batch_np(edges, points):
    return points[:, edges].prod(axis=2).sum(axis=1)


def replicator_batch(edges: np.ndarray, n: int, starts: np.ndarray,
                     iters: int = 5000, tol: float = 1e-14):
    """Run replicator ascent from each start; returns (values, end points)."""
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    starts = np.ascontiguousarray(starts, dtype=np.float64)
    if _HAVE_NUMBA:
        return _replicator_batch_nb(edges, n, starts, iters, tol)
    return _replicator_batch_np(edges, n, starts, iters, tol)


def edge_poly_batch(edges: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the edge polynomial at each row of ``points``."""
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    points = np.ascontiguousarray(points, dtype=np.float64)
    if _HAVE_NUMBA:
        return _edge_poly_batch_nb(edges, points)
    return _edge_poly_batch_np(edges, points)
