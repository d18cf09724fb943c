"""Hot numeric kernels: replicator ascent and batch edge-polynomial evaluation.

Pure numpy.  The edge polynomial's gradient is one matrix product: a 0/1
matrix that maps each edge slot to its vertex (``slot_matrix``) times the
leave-one-out products of every slot.  Its Hessian is another: a 0/1 matrix
that maps each ordered pair of slots of an edge to its vertex pair
(``pair_matrix``) times the leave-two-out products.
``lagrangian._fixed_point_residual`` uses the same gradient and residual,
and the benchmark's traced run (``perfbench/run.py --trace 1``) times the
kernels as the ``kernels.*`` layer.

``replicator_batch`` has two callers.  ``lagrangian.lagrangian`` ascends
the edge polynomial itself.  ``entropy.entropic_density`` ascends the vertex
marginals m of its edge distributions: the concave-convex step
w_e ∝ ∏_{v∈e} m_v has the marginal m_v ∂_v P(m) / (r P(m)), one replicator
step.  Both summarise their starts with ``start_diagnostics``.

Replicator ascent converges only linearly near a maximum, and like 1/t
where a vanishing coordinate has ratio exactly 1, so every ``REACH_EVERY``
iterations each running start is polished on its face (``face_newton``):
replicator ascent finds the face, Newton's method finishes it.  Each start
stops on its own, for the first of five reasons (``STOP_REASONS``):

* ``certified``: the fixed-point (KKT) residual at the current point is
  below ``CERTIFIED_RESIDUAL``;
* ``delta``: the step moved no coordinate by ``tol`` or more;
* ``polished``: its polished point is nonnegative, has a fixed-point
  residual below ``CERTIFIED_RESIDUAL`` (the same test as ``certified``), a
  value at least that of the start where it was polished, and a tangent
  Hessian on the face that is negative semidefinite within ``NSD_REL``.
  The start ends at that point; a start whose polish fails any check goes
  on ascending unchanged;
* ``reach``: every ``REACH_EVERY`` iterations, once some start has stopped
  certified or polished at value v*, a start whose value plus its mean
  gain over the last ``REACH_EVERY`` iterations times the iterations left
  stays below v* (1 - ``REACH_REL``) is dropped: it cannot catch up at its
  own pace.  A start is kept whose gain grew since the check before, or
  with a coordinate below the face that grows onto it at its current ratio
  before the cap, because it may be leaving a saddle or a plateau and the
  projection underestimates it;
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

# the polish's face: the coordinates above this share of the column's largest
POLISH_FACE = 1e-3
POLISH_STEPS = 4
# a polished point's tangent Hessian may have eigenvalues up to this share
# of its largest eigenvalue magnitude above 0
NSD_REL = 1e-9

STOP_REASONS = ("certified", "delta", "reach", "cap", "polished")
CERTIFIED, DELTA, REACH, CAP, POLISHED = range(len(STOP_REASONS))
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


def pair_matrix(edges: np.ndarray, n: int) -> np.ndarray:
    """0/1 matrix of shape (r (r - 1) m, n n): row (p m + e), for the p-th
    ordered slot pair (j, k) with j != k, marks edges[e, j] n + edges[e, k]."""
    m, r = edges.shape
    j, k = np.nonzero(~np.eye(r, dtype=bool))
    T = np.zeros((len(j) * m, n * n))
    T[np.arange(len(j) * m), (edges[:, j] * n + edges[:, k]).T.ravel()] = 1.0
    return T


def edge_hessian(edges: np.ndarray, T: np.ndarray, Xt: np.ndarray):
    """Hessian of the edge polynomial at each column of Xt, shape (n, n, R);
    ``T`` is ``pair_matrix(edges, n)``.

    The rows of T for the pairs (j, k) with one j are contiguous, and the
    leave-two-out products of those pairs are the leave-one-out products of
    the factors with slot j set to 1, so one slot's pairs are scattered at a
    time.
    """
    n, R = Xt.shape
    m, r = edges.shape
    f = Xt[edges.T]  # (r, m, R)
    g = f.copy()
    hess = np.zeros((n * n, R))
    rows = (r - 1) * m
    for j in range(r):
        g[j] = 1.0
        lto = np.delete(_leave_one_out(g), j, axis=0)
        hess += T[j * rows:(j + 1) * rows].T @ lto.reshape(rows, R)
        g[j] = f[j]
    return hess.reshape(n, n, R)


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


def face_newton(edges: np.ndarray, S: np.ndarray, T: np.ndarray,
                Xt: np.ndarray, P: np.ndarray):
    """Polish each column of Xt (values P) on its face by Newton's method.

    The face F of a column is its coordinates above ``POLISH_FACE`` times its
    largest.  ``POLISH_STEPS`` Newton steps solve the face's KKT system
    grad_F P = mu, sum x_F = 1 from mu = r P, with the other coordinates
    pinned to 0; all columns are one stacked bordered system, solved by
    pseudo-inverse, so a singular face Hessian (a segment of maximisers)
    takes the minimum-norm step.  A column whose step moves a coordinate by
    more than 1 stops moving and is rejected.  Coordinates that end within
    ``SUPPORT_TOL`` of 0 are set to 0, as the residual counts them off the
    support, and the point is renormalised.  A column is accepted when that
    point is nonnegative, has ``fixed_point_residual`` below
    ``CERTIFIED_RESIDUAL``, a value at least P and a tangent Hessian on F
    (projected onto sum d = 0) negative semidefinite within ``NSD_REL``.
    Returns (accepted, points as columns, values).
    """
    n, R = Xt.shape
    r = edges.shape[1]
    face = Xt > POLISH_FACE * Xt.max(axis=0)
    on = face.T  # (R, n)
    Y = np.where(face, Xt, 0.0)
    mu = r * P
    # the bordered system [[H_FF, -1], [1^T, 0]]; off-face rows are identity
    A = np.zeros((R, n + 1, n + 1))
    A[:, n, :n] = on
    A[:, :n, n] = -A[:, n, :n]
    both = on[:, :, None] & on[:, None, :]
    diag = np.arange(n)
    b = np.zeros((R, n + 1))
    sane = np.ones(R, dtype=bool)
    for _ in range(POLISH_STEPS):
        _, grad = edge_gradient(edges, S, Y)
        A[:, :n, :n] = np.where(both, edge_hessian(edges, T, Y).transpose(2, 0, 1), 0.0)
        A[:, diag, diag] += ~on
        b[:, :n] = np.where(on, mu[:, None] - grad.T, 0.0)
        b[:, n] = 1.0 - Y.sum(axis=0)
        d = (np.linalg.pinv(A) @ b[:, :, None])[:, :, 0]
        # a step longer than the simplex left the face's basin: stop there
        sane &= np.abs(d[:, :n]).max(axis=1) <= 1.0
        d[~sane] = 0.0
        Y += d[:, :n].T
        mu += d[:, n]
    Y[np.abs(Y) <= SUPPORT_TOL] = 0.0
    Y /= Y.sum(axis=0)
    Q, grad = edge_gradient(edges, S, Y)
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = fixed_point_residual(Y, grad / (r * Q))
    ok = sane & (Y >= 0.0).all(axis=0) & (residual < CERTIFIED_RESIDUAL) & (Q >= P)
    if ok.any():
        # the projection onto sum d = 0 within the face
        f = on[ok]
        proj = np.where(both[ok], -1.0 / f.sum(axis=1)[:, None, None], 0.0)
        proj[:, diag, diag] += f
        hess = edge_hessian(edges, T, Y[:, ok]).transpose(2, 0, 1)
        lam = np.linalg.eigvalsh(proj @ hess @ proj)
        ok[ok] = lam[:, -1] <= NSD_REL * np.abs(lam).max(axis=1)
    return ok, Y, Q


def _joins_face(Xt: np.ndarray, ratio: np.ndarray, left: int) -> np.ndarray:
    """Per column: whether some coordinate below the polish's face grows at
    its current ratio onto the face within ``left`` steps."""
    face = POLISH_FACE * Xt.max(axis=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        needed = np.log(face / Xt) / np.log(ratio)
    return ((Xt < face) & (ratio > 1.0) & (needed <= left)).any(axis=0)


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
    T = None  # the slot-pair matrix, built at the first polish
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
            if it:
                if T is None:
                    T = pair_matrix(edges, n)
                ok, Y, Q = face_newton(edges, S, T, Xt, P)
                if ok.any():
                    X[idx[ok]] = Y[:, ok].T
                    steps[idx[ok]] = it
                    stop[idx[ok]] = POLISHED
                    best_certified = max(best_certified, float(Q[ok].max()))
                    keep = ~ok
                    idx, Xt, P, grad = idx[keep], Xt[:, keep], P[keep], grad[:, keep]
                    checkpoint, last_gain = checkpoint[keep], last_gain[keep]
                    if not len(idx):
                        break
            gain = (P - checkpoint) / REACH_EVERY
            if best_certified > -np.inf:
                behind = ((gain <= last_gain) & ~_joins_face(Xt, grad / (r * P), iters - it)
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
