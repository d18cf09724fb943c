"""Hot numeric kernels: replicator ascent and batch edge-polynomial evaluation.

Pure numpy.  The edge polynomial's gradient is one matrix product: a 0/1
matrix that maps each edge slot to its vertex (``slot_matrix``) times the
leave-one-out products of every slot.  Its Hessian sums the leave-two-out
products of each pair of slots of an edge onto its vertex pair, one sorted
``np.add.reduceat`` per slot over an index built once (``pair_index``), and
adds the transpose.  The benchmark's traced run (``perfbench/run.py --trace
1``) times the kernels as the ``kernels.*`` layer.

Replicator ascent converges only linearly near a maximum, and like 1/t
where a vanishing coordinate has ratio exactly 1, so every
``POLISH_EVERY`` iterations each running start is polished by Newton's
method (``face_newton``) on two faces: its coordinates above
``POLISH_FACE`` times its largest, and, where that fails, the same face
without its lowest-ratio coordinate, which certifies a start crawling
toward a degenerate maximum on the smaller face.  Replicator ascent finds
the face, Newton's method finishes it.  Factorisations do the linear
algebra, and a decomposition runs only where they cannot decide: each
Newton step is an LU solve of the symmetric bordered face system
(``face_step``), with the pseudo-inverse's minimum-norm step on singular
faces, and the second-order test is one Cholesky factorisation of the
stack, with eigenvalues only when it fails (``negative_semidefinite``).
Each start stops on its own, for the first of three reasons
(``STOP_REASONS``):

* ``certified``: the fixed-point (KKT) residual at the current point is
  below ``CERTIFIED_RESIDUAL`` and the tangent Hessian on its support is
  negative semidefinite within ``NSD_REL``.  A first-order point that fails
  the second test is a saddle: it is stepped along the top eigenvector of
  that Hessian (``saddle_escape``) and goes on ascending;
* ``polished``: its polished point passes the same two tests as
  ``certified`` (on the polish's face) and has a value at least that of the
  start where it was polished.  The start ends at that point; a start whose
  polish fails goes on ascending unchanged;
* ``cap``: it ran all ``iters`` iterations, ``MAX_ITERS`` by default.

So ``certified`` and ``polished`` state one second-order condition: the
start ends at a local maximum to within these tolerances, not necessarily
the global one.  No start stops for a small step, as one leaving a saddle
takes.  Each start runs the same way in any batch.
"""

from __future__ import annotations

import numpy as np

# a start stops when its fixed-point residual falls below this
CERTIFIED_RESIDUAL = 1e-10
# coordinates above this count as the support in the residual
SUPPORT_TOL = 1e-9

# every POLISH_EVERY iterations the running starts are polished on their
# faces: the coordinates above POLISH_FACE times the column's largest
POLISH_EVERY = 100
POLISH_FACE = 1e-3
POLISH_STEPS = 4
# a tangent Hessian may have eigenvalues up to this share of its largest
# eigenvalue magnitude above 0 and still count as negative semidefinite
NSD_REL = 1e-9
# a saddle's escape tries this many halvings of the step to the boundary
ESCAPE_HALVINGS = 8

MAX_ITERS = 20_000  # a start that runs this many iterations stops ``cap``
STOP_REASONS = ("certified", "cap", "polished")
CERTIFIED, CAP, POLISHED = range(len(STOP_REASONS))
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
    """The kernel backend; the benchmark records it with each run."""
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


def pair_index(edges: np.ndarray, n: int) -> list:
    """For each slot j < r - 1, its slot pairs (j, k), k > j, grouped by
    vertex pair for ``np.add.reduceat``: (order, keys, starts), where row
    (k - j - 1) m + e of slot j's leave-two-out products, taken in
    ``order``, adds to the flat Hessian entry edges[e, j] n + edges[e, k]
    = keys[i] from starts[i] to starts[i + 1]."""
    m, r = edges.shape
    index = []
    for j in range(r - 1):
        flat = (edges[:, j] * n + edges[:, j + 1:].T).ravel()
        order = np.argsort(flat, kind="stable")
        keys, starts = np.unique(flat[order], return_index=True)
        index.append((order, keys, starts))
    return index


def edge_hessian(edges: np.ndarray, index: list, Xt: np.ndarray):
    """Hessian of the edge polynomial at each column of Xt, shape (n, n, R);
    ``index`` is ``pair_index(edges, n)``.

    The leave-two-out product of slots j < k is the product of the factors
    before j, those between j and k and those after k.  Each unordered pair
    is summed onto one vertex pair, one slot j at a time, and the transpose
    adds the other.
    """
    n, R = Xt.shape
    m, r = edges.shape
    f = Xt[edges.T]  # (r, m, R)
    after = np.ones_like(f)  # after[k]: the product of the factors after k
    for k in range(r - 2, -1, -1):
        np.multiply(after[k + 1], f[k + 1], out=after[k])
    hess = np.zeros((n * n, R))
    before = np.ones((m, R))
    for j, (order, keys, starts) in enumerate(index):
        lto = np.empty((r - 1 - j, m, R))
        run = before.copy()
        for k in range(j + 1, r):
            np.multiply(run, after[k], out=lto[k - j - 1])
            run *= f[k]
        hess[keys] += np.add.reduceat(lto.reshape(len(order), R)[order], starts, axis=0)
        before *= f[j]
    hess = hess.reshape(n, n, R)
    return hess + hess.transpose(1, 0, 2)


def edge_gradient(edges: np.ndarray, S: np.ndarray, Xt: np.ndarray):
    """Edge polynomial and its gradient at each column of Xt, shape (n, R).

    Points are columns so that each slot's factors, shape (m, R), are
    contiguous.  Returns (P, shape (R,); grad, shape (n, R)).
    """
    factors = Xt[edges.T]  # (r, m, R)
    loo = _leave_one_out(factors)
    P = (factors[0] * loo[0]).sum(axis=0)
    grad = S.T @ loo.reshape(S.shape[0], Xt.shape[1])
    return P, grad


def fixed_point_residual(Xt: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Per-column KKT violation of ``ratio = grad / (r P)``: it must be 1 on
    the support (x > SUPPORT_TOL) and at most 1 off it."""
    dev = ratio - 1.0
    return np.where(Xt > SUPPORT_TOL, np.abs(dev), np.maximum(dev, 0.0)).max(axis=0)


def tangent_hessian(edges: np.ndarray, index: list, Xt: np.ndarray, on: np.ndarray):
    """The Hessian of the edge polynomial at each column of Xt, projected
    onto the directions d with sum d = 0 that vanish off the column's
    coordinates marked in ``on`` (shape (R, n)); shape (R, n, n)."""
    n = Xt.shape[0]
    diag = np.arange(n)
    proj = np.where(on[:, :, None] & on[:, None, :], -1.0 / on.sum(axis=1)[:, None, None], 0.0)
    proj[:, diag, diag] += on
    return proj @ edge_hessian(edges, index, Xt).transpose(2, 0, 1) @ proj


def negative_semidefinite(M: np.ndarray) -> np.ndarray:
    """Per matrix of the stack M (shape (R, n, n), symmetric): whether its
    largest eigenvalue is at most ``NSD_REL`` times its largest eigenvalue
    magnitude.

    One batched Cholesky factorisation of s I - M, with s = ``NSD_REL``
    ||M||_F / sqrt(n), decides the common case: s is at most ``NSD_REL``
    ||M||_2, so a factorisation that succeeds shows every matrix passes.
    Where it fails (a saddle among them, or an all-zero M, where s = 0) the
    eigenvalues of the stack decide.  For a matrix that fails the rule by a
    small positive eigenvalue, ||M||_F^2 is at most (n - 1 + NSD_REL^2)
    ||M||_2^2, so s stays below that eigenvalue by about ``NSD_REL``
    ||M||_2 / (2 n), far more than the factorisation's rounding."""
    n = M.shape[-1]
    shift = NSD_REL * np.linalg.norm(M, axis=(1, 2)) / np.sqrt(n)
    try:
        np.linalg.cholesky(shift[:, None, None] * np.eye(n) - M)
    except np.linalg.LinAlgError:
        lam = np.linalg.eigvalsh(M)
        return lam[:, -1] <= NSD_REL * np.abs(lam).max(axis=1)
    return np.ones(len(M), dtype=bool)


def face_step(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each symmetric bordered system A d = b of the stack (A shape
    (R, n + 1, n + 1), b shape (R, n + 1)) by LU.  A system that is singular,
    or whose step is not finite or moves a coordinate (d[:n]) by more than
    1, takes the minimum-norm step of its pseudo-inverse instead; for a
    nonsingular system the two steps agree."""
    n = A.shape[1] - 1
    try:
        d = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # one exactly singular system fails the whole batch: find them by
        # the same LU, which slogdet reports as sign 0 without raising
        bad = np.linalg.slogdet(A)[0] == 0
        d = np.zeros_like(b)
        d[~bad] = np.linalg.solve(A[~bad], b[~bad, :, None])[:, :, 0]
    else:
        bad = np.zeros(len(A), dtype=bool)
    bad |= ~(np.abs(d[:, :n]).max(axis=1) <= 1.0) | ~np.isfinite(d[:, n])
    if bad.any():
        d[bad] = (np.linalg.pinv(A[bad], hermitian=True) @ b[bad, :, None])[:, :, 0]
    return d


def _newton_on_face(edges: np.ndarray, S: np.ndarray, index: list, Xt: np.ndarray,
                    P: np.ndarray, face: np.ndarray):
    """``face_newton`` on the given face of each column: (accepted, points
    as columns, values)."""
    n, R = Xt.shape
    r = edges.shape[1]
    on = face.T  # (R, n)
    Y = np.where(face, Xt, 0.0)
    mu = r * P
    # the symmetric bordered system [[H_FF, 1], [1^T, 0]] in (d, -dmu);
    # off-face rows are identity
    A = np.zeros((R, n + 1, n + 1))
    A[:, n, :n] = A[:, :n, n] = on
    both = on[:, :, None] & on[:, None, :]
    diag = np.arange(n)
    b = np.zeros((R, n + 1))
    sane = np.ones(R, dtype=bool)
    for _ in range(POLISH_STEPS):
        _, grad = edge_gradient(edges, S, Y)
        A[:, :n, :n] = np.where(both, edge_hessian(edges, index, Y).transpose(2, 0, 1), 0.0)
        A[:, diag, diag] += ~on
        b[:, :n] = np.where(on, mu[:, None] - grad.T, 0.0)
        b[:, n] = 1.0 - Y.sum(axis=0)
        d = face_step(A, b)
        # a step longer than the simplex left the face's basin: stop there
        sane &= np.abs(d[:, :n]).max(axis=1) <= 1.0
        d[~sane] = 0.0
        Y += d[:, :n].T
        mu -= d[:, n]
    Y[np.abs(Y) <= SUPPORT_TOL] = 0.0
    Y /= Y.sum(axis=0)
    Q, grad = edge_gradient(edges, S, Y)
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = fixed_point_residual(Y, grad / (r * Q))
    ok = sane & (Y >= 0.0).all(axis=0) & (residual < CERTIFIED_RESIDUAL) & (Q >= P)
    if ok.any():
        ok[ok] = negative_semidefinite(tangent_hessian(edges, index, Y[:, ok], on[ok]))
    return ok, Y, Q


def face_newton(edges: np.ndarray, S: np.ndarray, index: list, Xt: np.ndarray,
                P: np.ndarray, ratio: np.ndarray):
    """Polish each column of Xt (values P, replicator ratios ``ratio``) on
    its face by Newton's method, trying a second face where the first fails.

    The first face F of a column is its coordinates above ``POLISH_FACE``
    times its largest; the second is F without its lowest-ratio coordinate,
    the one that vanishes when the start crawls toward a degenerate maximum
    on a smaller face.  A column with a coordinate off F above
    ``SUPPORT_TOL`` whose ratio is above 1 is not polished: that coordinate
    is growing, so the start is leaving its face.

    On a face, ``POLISH_STEPS`` Newton steps solve the KKT system
    grad_F P = mu, sum x_F = 1 from mu = r P, with the other coordinates
    pinned to 0; all columns are one stacked symmetric bordered system in
    (d, -dmu), solved by LU (``face_step``), and a singular face Hessian (a
    segment of maximisers) takes the pseudo-inverse's minimum-norm step.  A
    column whose step moves a coordinate by more than 1 stops moving and is
    rejected.  Coordinates that end within ``SUPPORT_TOL`` of 0 are set to
    0, as the residual counts them off the support, and the point is
    renormalised.  A column is accepted when that point is nonnegative, has
    ``fixed_point_residual`` below ``CERTIFIED_RESIDUAL``, a value at least
    P and a tangent Hessian on the face (``tangent_hessian``) that is
    ``negative_semidefinite``.  Returns (accepted, points as columns,
    values); a column rejected on both faces keeps its first face's point.
    """
    face = Xt > POLISH_FACE * Xt.max(axis=0)
    leaving = ((Xt > SUPPORT_TOL) & ~face & (ratio > 1.0)).any(axis=0)
    ok = np.zeros(Xt.shape[1], dtype=bool)
    Y, Q = Xt.copy(), P.copy()
    cols = np.flatnonzero(~leaving)
    ok[cols], Y[:, cols], Q[cols] = _newton_on_face(edges, S, index, Xt[:, cols], P[cols],
                                                    face[:, cols])
    cols = cols[~ok[cols] & (face[:, cols].sum(axis=0) > 1)]
    if len(cols):
        face = face[:, cols]
        face[np.where(face, ratio[:, cols], np.inf).argmin(axis=0), np.arange(len(cols))] = False
        good, Y2, Q2 = _newton_on_face(edges, S, index, Xt[:, cols], P[cols], face)
        cols = cols[good]
        ok[cols], Y[:, cols], Q[cols] = True, Y2[:, good], Q2[good]
    return ok, Y, Q


def saddle_escape(edges: np.ndarray, index: list, Xt: np.ndarray, P: np.ndarray):
    """The second-order test at first-order (KKT) points, columns of Xt with
    values P: whether the tangent Hessian on the support (x > SUPPORT_TOL)
    is ``negative_semidefinite``.  A column that fails sits at a saddle; it
    is stepped along the top eigenvector v of that Hessian, to the best of
    x ± t v over t = t_max 2^-k, k = 1..``ESCAPE_HALVINGS``, where t_max
    takes x ± t v to the boundary of the simplex.  Returns (passed, the
    failed columns' escape points, whether each escape point's value is
    above P); when every column passes, nothing else runs."""
    M = tangent_hessian(edges, index, Xt, (Xt > SUPPORT_TOL).T)
    nsd = negative_semidefinite(M)
    x = Xt[:, ~nsd]
    if nsd.all():
        return nsd, x, np.zeros(0, dtype=bool)
    v = np.linalg.eigh(M[~nsd])[1][:, :, -1].T  # (n, columns)
    halvings = 2.0 ** -np.arange(1, ESCAPE_HALVINGS + 1)
    tries = []
    for d in (v, -v):
        t_max = np.divide(x, -d, out=np.full_like(x, np.inf), where=d < 0).min(axis=0)
        tries += [x + h * t_max * d for h in halvings]
    tries = np.stack(tries)  # (tries, n, columns)
    values = edge_poly_batch(edges, tries.transpose(0, 2, 1).reshape(-1, len(Xt)))
    values = values.reshape(len(tries), -1)
    best = values.argmax(axis=0)
    cols = np.arange(x.shape[1])
    Z = tries[best, :, cols].T
    return nsd, Z / Z.sum(axis=0), values[best, cols] > P[~nsd]


def replicator_batch(edges: np.ndarray, n: int, starts: np.ndarray, iters: int = MAX_ITERS):
    """Run replicator ascent from each start.

    Returns (values, end points, iterations run per start, stop reason per
    start as an index into ``STOP_REASONS``).  A start whose edge polynomial
    underflows (<= 1e-300) restarts from the uniform point; ValueError if
    it underflows to 0.0 there too (a single r-edge, r >= 149).
    """
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    X = np.array(starts, dtype=np.float64)
    R = X.shape[0]
    r = edges.shape[1]
    S = slot_matrix(edges, n)
    index = pair_index(edges, n)
    steps = np.full(R, iters, dtype=np.int64)
    stop = np.full(R, CAP, dtype=np.int8)
    # the running starts: their rows of X and their points as columns
    idx = np.arange(R)
    Xt = X.T.copy()
    for it in range(iters):
        if not len(idx):
            break
        P, grad = edge_gradient(edges, S, Xt)
        dead = P <= 1e-300
        if dead.any():
            # ascent direction vanished; restart from uniform
            Xt[:, dead] = 1.0 / n
            P, grad = edge_gradient(edges, S, Xt)
            if not P[dead].all():
                raise ValueError(f"the edge polynomial underflows to 0.0 at the uniform "
                                 f"point (n = {n}, r = {r}), so no start can ascend")
        ratio = grad / (r * P)
        if it and it % POLISH_EVERY == 0:
            ok, Y, Q = face_newton(edges, S, index, Xt, P, ratio)
            if ok.any():
                X[idx[ok]] = Y[:, ok].T
                steps[idx[ok]] = it
                stop[idx[ok]] = POLISHED
                keep = ~ok
                idx, Xt, P, ratio = idx[keep], Xt[:, keep], P[keep], ratio[:, keep]
                if not len(idx):
                    break
        certified = fixed_point_residual(Xt, ratio) < CERTIFIED_RESIDUAL
        newXt = Xt * ratio
        newXt /= newXt.sum(axis=0)
        if certified.any():
            kkt = np.flatnonzero(certified)
            nsd, Z, up = saddle_escape(edges, index, Xt[:, kkt], P[kkt])
            saddle = kkt[~nsd]
            certified[saddle] = False
            newXt[:, saddle[up]] = Z[:, up]
        Xt = newXt
        if certified.any():
            X[idx[certified]] = Xt[:, certified].T
            steps[idx[certified]] = it + 1
            stop[idx[certified]] = CERTIFIED
            idx, Xt = idx[~certified], Xt[:, ~certified]
    X[idx] = Xt.T
    values = edge_poly_batch(edges, X)
    return values, X, steps, stop


def edge_poly_batch(edges: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the edge polynomial at each row of ``points``."""
    points = np.asarray(points, dtype=np.float64)
    return points[:, np.asarray(edges, dtype=np.int64)].prod(axis=2).sum(axis=1)
