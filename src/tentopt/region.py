"""The constrained region of ratio vectors and its product maximization.

The region for parameters (r, k) consists of vectors 0 < x_1 <= ... <= x_r = 1
with x_i + x_j <= x_{i+j} for every i in [k] and i <= j <= r - i (x_0 = 0
implicitly).  The product of coordinates is maximized by solving the strictly
concave program max sum(log x_i) once: SLSQP, then Newton's method on the
face it ends on.  Segment structure, KKT certificates, the improving
perturbation and the below-threshold counterexample construction also live
here.

Closed-form points (the linear point x_i = i/r and counterexample points
with rational epsilon) are checked in exact rational arithmetic, and
``kkt_certificate`` at such a point fits its multipliers as exact Fractions.
scipy is imported on first use: the verifier and the counterexample
construction never need it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

TOL_FEAS = 1e-9
TOL_SEG = 1e-7
TOL_KKT = 1e-8
# slack at or below which a row is active at a float point: it joins the
# face that _solve_on_face polishes on and the rows kkt_certificate fits
TOL_ACT = 1e-6
TOL_REL = 1e-9  # relative tolerance for comparing products and values


def floor_r_over_e(r: int) -> int:
    q = r / math.e
    if abs(q - round(q)) < 1e-9:  # impossible for integer r; defensive
        raise ValueError(f"r/e is numerically indistinguishable from an integer for r={r}")
    return math.floor(q)


def ceil_r_over_e(r: int) -> int:
    return floor_r_over_e(r) + 1  # r/e is never an integer


def tent_constraints(r: int, k: int) -> np.ndarray:
    """Index triples (i, j, i+j) of the pairwise sum constraints, one row
    each: i in [k] ascending, then j from i to r - i."""
    return np.array([(i, j, i + j) for i in range(1, k + 1)
                     for j in range(i, r - i + 1)]).reshape(-1, 3)


class RegionConstraints:
    """The inequality rows A @ x <= 0 of the (r, k) region, over all r
    coordinates.  ``labels`` lists the tent rows ("tent", i, j, i+j), that
    is x_i + x_j - x_{i+j}, in ``tent_constraints`` order (the first
    ``n_tent`` rows), then the monotone rows ("monotone", i, i+1), that is
    x_i - x_{i+1}; ``A`` holds their integer normals.  x_r = 1 is the one
    equality row, with normal e_r; x_1 > 0 is left to ``check_feasible``.
    ``slack`` and ``combine`` read the two or three coordinates of each
    row, so they work unchanged, and exactly, on Fractions.
    """

    def __init__(self, r: int, k: int):
        if not 1 <= k <= r // 2:
            raise ValueError(f"k must lie in [1, {r // 2}]")
        self.r, self.k = r, k
        # 0-based coordinates of the tent rows, one array per column
        self._i, self._j, self._s = tent_constraints(r, k).T - 1
        self.n_tent = len(self._i)

    @cached_property
    def labels(self) -> list:
        tents = zip(self._i.tolist(), self._j.tolist(), self._s.tolist())
        return ([("tent", i + 1, j + 1, s + 1) for i, j, s in tents]
                + [("monotone", i, i + 1) for i in range(1, self.r)])

    @cached_property
    def A(self) -> np.ndarray:
        E = np.eye(self.r, dtype=np.int64)
        return np.vstack([E[self._i] + E[self._j] - E[self._s], E[:-1] - E[1:]])

    @cached_property
    def _row_of(self) -> dict:
        return {label: t for t, label in enumerate(self.labels)}

    def index(self, label) -> int:
        """Row of a label; ValueError if it is not a row of this region."""
        try:
            return self._row_of[tuple(label)]
        except KeyError:
            raise ValueError(
                f"{label!r} is not a constraint of the ({self.r}, {self.k}) region") from None

    def slack(self, x) -> np.ndarray:
        """-A @ x for every row, nonnegative on the region: a float array for
        float x, an object array of exact values for Fractions."""
        x = np.asarray(x)
        return np.concatenate([x[self._s] - x[self._i] - x[self._j], x[1:] - x[:-1]])

    def combine(self, rows, weights) -> list:
        """sum_t weights[t] * A[rows[t]] as a list of r coordinates."""
        out = [0] * self.r
        for t, w in zip(rows, weights):
            if t < self.n_tent:
                out[self._i[t]] += w
                out[self._j[t]] += w
                out[self._s[t]] -= w
            else:
                out[t - self.n_tent] += w
                out[t - self.n_tent + 1] -= w
        return out


def _describe(label) -> str:
    if label[0] == "tent":
        return "x_{} + x_{} <= x_{}".format(*label[1:])
    return "x_{} <= x_{}".format(*label[1:])


def check_feasible(x: Sequence, r: int, k: int, tol=TOL_FEAS):
    """Membership report for the region: (ok, list of violations).

    Works on floats or Fractions; pass tol=0 for exact checking.  Each
    violation is (description, slack) with negative slack meaning violated.
    """
    if len(x) != r:
        raise ValueError(f"expected {r} coordinates, got {len(x)}")
    model = RegionConstraints(r, k)
    violations = []
    if x[0] <= 0:
        violations.append(("x_1 > 0", x[0]))
    if abs(x[r - 1] - 1) > tol:
        violations.append(("x_r = 1", -abs(x[r - 1] - 1)))
    slack = model.slack(x)
    for t in np.flatnonzero(slack < -tol):
        violations.append((_describe(model.labels[t]), slack[t]))
    return not violations, violations


@dataclass(frozen=True)
class FeasiblePoint:
    """A region member; coordinates may be floats or Fractions.

    Construction checks feasibility and raises ValueError on a violation:
    with no tolerance when every coordinate is rational (``is_exact``),
    within TOL_FEAS otherwise.
    """

    r: int
    k: int
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        ok, bad = check_feasible(self.x, self.r, self.k,
                                 0 if self.is_exact else TOL_FEAS)
        if not ok:
            raise ValueError(f"point is not feasible: {bad}")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.x)

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.x])

    def product(self):
        p = self.x[0]
        for v in self.x[1:]:
            p = p * v
        return p


def linear_point(r: int, k: int, exact: bool = False) -> FeasiblePoint:
    """The conjectured-optimal point x_i = i/r."""
    if exact:
        xs = tuple(Fraction(i, r) for i in range(1, r + 1))
    else:
        xs = tuple(i / r for i in range(1, r + 1))
    return FeasiblePoint(r=r, k=k, x=xs)


def product_bound(r: int) -> Fraction:
    """r!/r^r, the product at the linear point (and the blowup density of
    one r-edge, ``lagrangian.single_edge_density``)."""
    return Fraction(math.factorial(r), r**r)


# ---------------------------------------------------------------------------
# product maximization


# scipy.optimize is most of the import time of tentopt, so it is imported on
# first call; tests and the benchmark's tracer patch these module-level names
def minimize(*args, **kwargs):
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def linprog(*args, **kwargs):
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def nnls(*args, **kwargs):
    from scipy.optimize import nnls
    return nnls(*args, **kwargs)


@dataclass(frozen=True)
class OptimizationReport:
    value: float
    argmax: FeasiblePoint
    bound: float
    kkt: dict
    status: str
    diagnostics: dict = field(default_factory=dict, compare=False)


def maximize_product(r: int, k: int, seed=None) -> OptimizationReport:
    """Global maximum of prod x_i over the region.

    When f'(0) <= 0 the exact linear point x_i = i/r is tried first, and if
    ``kkt_certificate`` certifies it no nonlinear solve runs: the argmax is
    that exact point and the multipliers are exact.  Otherwise
    ``_solve_on_face`` solves the strictly concave program max sum(log x_i)
    once; a KKT point is its unique global optimum.  ``status`` is
    "converged" exactly when the report's KKT certificate is optimal with
    residual below TOL_KKT.  ``diagnostics``: the path taken, solver
    counts, wall seconds per phase.  ``seed`` has no effect; nothing is
    random.
    """
    model = RegionConstraints(r, k)
    bound = product_bound(r)
    seconds, clock = {}, [time.perf_counter()]

    def lap(phase):  # wall seconds since the previous lap
        clock.append(time.perf_counter())
        seconds[phase] = clock[-1] - clock[-2]

    cert = None
    if fprime_zero(r, k) <= 0:
        point = linear_point(r, k, exact=True)
        cert = kkt_certificate(point)
    lap("exact")
    if cert is not None and cert["optimal"]:
        value = float(bound)
        diagnostics = {"path": "exact-linear-point"}
    else:
        z, diagnostics = _solve_on_face(model, lap)
        point = FeasiblePoint(r=r, k=k, x=tuple(np.append(z, 1.0)))
        value, cert = float(np.prod(z)), kkt_certificate(point)
        lap("kkt")
    optimal = cert["optimal"] and cert["residual"] < TOL_KKT
    return OptimizationReport(
        value=value,
        argmax=point,
        bound=float(bound),
        kkt=cert,
        status="converged" if optimal else "best-found",
        diagnostics=diagnostics | {"seconds": seconds},
    )


def _solve_on_face(model: RegionConstraints, lap):
    """max sum(log x_i) over x_1..x_{r-1} (x_r = 1): (those coordinates,
    diagnostics).  One SLSQP solve from the counterexample point below
    floor(r/e), else the linear point; its point is projected onto its face
    (rows with slack <= TOL_ACT, as equalities) and polished there by
    Newton's method with equality constraints (Boyd & Vandenberghe 10.2),
    each step damped by 1/(1 + decrement) to keep x > 0 (Nesterov 4.1)."""
    from scipy.linalg import null_space

    r, k = model.r, model.k
    m = r - 1
    # x_r = 1 moves the last column of A @ x <= 0 to the right-hand side
    A = model.A[:, :m].astype(float)
    b = -model.A[:, m].astype(float)
    start = counterexample_point(r, k) if k < floor_r_over_e(r) else linear_point(r, k)
    res = minimize(lambda z: -np.sum(np.log(z)), start.as_floats()[:m],
                   jac=lambda z: -1.0 / z, method="SLSQP", bounds=[(1e-9, 1.0)] * m,
                   constraints=[{"type": "ineq", "fun": lambda z: b - A @ z,
                                 "jac": lambda z: -A}])
    lap("slsqp")

    face = np.flatnonzero(model.slack(np.append(res.x, 1.0)) <= TOL_ACT)
    C, d = A[face], b[face]
    z = res.x - np.linalg.lstsq(C, C @ res.x - d, rcond=None)[0]
    N = null_space(C)  # the face's directions
    steps = 0
    while N.shape[1] and steps < 50:
        dz = N @ np.linalg.solve((N.T / z**2) @ N, N.T @ (1.0 / z))
        decrement = math.sqrt(np.sum((dz / z) ** 2))
        if decrement < 1e-13:
            break
        z = z + dz / (1 + decrement)
        steps += 1
    lap("polish")
    return z, {
        "path": "slsqp+polish",
        "slsqp": {"nit": int(res.nit), "nfev": int(res.nfev), "message": str(res.message)},
        "newton_steps": steps,
        "face_rows": len(face),
    }


def _solve_rational(columns, rhs):
    """A solution mu of sum_c mu_c * columns[c] = rhs in Fractions, with
    every free unknown set to 0, or None when the system is inconsistent."""
    m, n = len(rhs), len(columns)
    M = [[Fraction(int(col[i])) for col in columns] + [rhs[i]] for i in range(m)]
    pivots = []
    for c in range(n):
        row = len(pivots)
        p = next((i for i in range(row, m) if M[i][c]), None)
        if p is None:
            continue
        M[row], M[p] = M[p], M[row]
        inv = 1 / M[row][c]
        pr = M[row] = [v * inv for v in M[row]]
        nonzero = [j for j in range(c, n + 1) if pr[j]]
        for i in range(m):
            f = M[i][c]
            if i != row and f:
                Mi = M[i]
                for j in nonzero:
                    Mi[j] -= f * pr[j]
        pivots.append(c)
        if len(pivots) == m:
            break
    if any(M[i][n] for i in range(len(pivots), m)):
        return None
    mu = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        mu[c] = M[i][n]
    return mu


def _exact_cone_fit(model: RegionConstraints, rows, g):
    """(support, mu): mu > 0 on a subset of ``rows`` with
    sum_t mu_t A[t]_i = g_i exactly for every i < r, or None.  HiGHS finds
    a vertex of that cone; its support is solved again in Fractions, and
    the multipliers are kept only if they are nonnegative and satisfy
    every coordinate equation exactly."""
    m = model.r - 1
    if not len(rows):
        return None
    res = linprog(np.ones(len(rows)), A_eq=model.A[rows, :m].T,
                  b_eq=[float(v) for v in g[:m]], bounds=(0, None), method="highs-ds")
    if res.status != 0:
        return None
    support = rows[res.x > 0]
    mus = _solve_rational([model.A[t, :m] for t in support], g[:m])
    if mus is None or any(mu < 0 for mu in mus):
        return None
    kept = [(t, mu) for t, mu in zip(support, mus) if mu]
    support, mus = [t for t, _ in kept], [mu for _, mu in kept]
    if model.combine(support, mus)[:m] != g[:m]:
        return None
    return support, mus


def kkt_certificate(point: FeasiblePoint) -> dict:
    """Express the log-product gradient 1/x as sum_t mu_t A[t] + nu e_r
    with mu >= 0 on the rows active at the point and nu on x_r = 1.

    A row is active when its slack is at most TOL_ACT, or exactly 0 at an
    exact point.  mu is fitted on coordinates 1..r-1 and nu closes
    coordinate r.  At a float point nnls fits mu over every active row:
    ``residual`` is the stationarity residual relative to |1/x|, and the
    point is ``optimal`` when it is below TOL_KKT.  At an exact point
    (``exact``) the fit is ``_exact_cone_fit``: ``active`` is its support,
    ``residual`` 0.0, and the multipliers are Fraction strings; when it
    fails the point is not optimal, ``residual`` is None and nothing is
    fitted in floats instead.
    """
    r = point.r
    model = RegionConstraints(r, point.k)
    exact = point.is_exact
    if exact:
        g = [1 / Fraction(v) for v in point.x]
        fit = _exact_cone_fit(model, np.flatnonzero(model.slack(point.x) == 0), g)
        optimal = fit is not None
        rows, mus = fit if optimal else ([], [])
        residual = 0.0 if optimal else None
    else:
        x = point.as_floats()
        g = 1.0 / x
        rows = np.flatnonzero(model.slack(x) <= TOL_ACT)
        if len(rows):
            mus, resid = nnls(model.A[rows, : r - 1].T.astype(float), g[: r - 1])
        else:  # nnls needs a column
            mus, resid = np.zeros(0), np.linalg.norm(g[: r - 1])
        residual = float(resid / max(np.linalg.norm(g), 1.0))
        optimal = residual < TOL_KKT
    nu = g[r - 1] - model.combine(rows, mus)[r - 1]
    fmt = str if exact else float
    return {
        "optimal": optimal,
        "residual": residual,
        "active": [list(model.labels[t]) for t in rows],
        "multipliers": [fmt(mu) for mu in mus],
        "equality_multiplier": fmt(nu),
        "exact": exact,
    }


# ---------------------------------------------------------------------------
# the below-threshold counterexample and its derivative bookkeeping


def fprime_zero(r: int, k: int) -> Fraction:
    """Exact linear coefficient of the product-ratio polynomial:
    -k + sum_{i=k+1}^r (r-i)/i."""
    if not 1 <= k <= r:
        raise ValueError("need 1 <= k <= r")
    return -k + sum((Fraction(r - i, i) for i in range(k + 1, r + 1)), Fraction(0))


def upper_bound_gap(r: int, k: int) -> float:
    """r (log r - log k - 1); nonpositive exactly when r <= k e."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return r * (math.log(r) - math.log(k) - 1.0)


def counterexample_point(r: int, k: int, eps=None) -> FeasiblePoint:
    """Feasible point with product exceeding r!/r^r, for k below the floor
    threshold: bend the linear point down on [1, k] and up above k.

    eps is halved until exact-rational feasibility and strict product
    improvement both hold; the positive linear coefficient guarantees
    termination.  Each candidate is checked for feasibility once, exactly,
    by constructing its FeasiblePoint.
    """
    if not 1 <= k < floor_r_over_e(r):
        raise ValueError(f"construction requires 1 <= k < {floor_r_over_e(r)} for r={r}")
    eps = Fraction(1, 4 * r) if eps is None else Fraction(eps).limit_denominator(10**12)
    if eps <= 0:
        x = tuple(Fraction(i, r) for i in range(1, r + 1))
        return FeasiblePoint(r=r, k=k, x=x)
    bound = product_bound(r)
    while True:
        x = tuple(
            Fraction(i, r) - Fraction(i, r) * eps if i <= k
            else Fraction(i, r) + Fraction(r - i, r) * eps
            for i in range(1, r + 1)
        )
        try:
            point = FeasiblePoint(r=r, k=k, x=x)
        except ValueError:
            pass  # infeasible: try a smaller bend
        else:
            if math.prod(x) > bound:
                return point
        eps = eps / 2


def quartic_inequality(a: float, b: float, eps: float):
    """Compare (a+e)(b-e)(1-a-e)(1-b+e) against ab(1-a)(1-b).

    Returns (holds, fprime0) where fprime0 = (b-a)((1-a)(1-b)+ab) is the
    derivative of the difference at e = 0.
    """
    if not 0 < a <= b < 0.5:
        raise ValueError("need 0 < a <= b < 1/2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    lhs = (a + eps) * (b - eps) * (1 - a - eps) * (1 - b + eps)
    rhs = a * b * (1 - a) * (1 - b)
    fprime0 = (b - a) * ((1 - a) * (1 - b) + a * b)
    return lhs > rhs, fprime0


# ---------------------------------------------------------------------------
# segment structure


@dataclass(frozen=True)
class Segment:
    L: int
    R: int
    central: bool
    left_crossing: bool
    right_crossing: bool
    super_: bool

    @property
    def length(self) -> int:
        return self.R - self.L + 1


@dataclass(frozen=True)
class SegmentDecomposition:
    segments: tuple[Segment, ...]
    initial_length: int


def segments(point: FeasiblePoint, tol: float = TOL_SEG) -> SegmentDecomposition:
    """All maximal intervals on which the coordinates advance in steps of
    x_1 (with x_0 = 0 prepended), classified by position."""
    r, k = point.r, point.k
    x = np.concatenate([[0.0], point.as_floats()])
    step = x[1]

    def uniform(L: int, R: int) -> bool:
        i = np.arange(L, R + 1)
        return bool(np.all(np.abs(x[L:R + 1] - (x[L] + (i - L) * step)) <= tol))

    rmax = np.zeros(r + 1, dtype=int)
    for L in range(r + 1):
        R = L
        while R + 1 <= r and uniform(L, R + 1):
            R += 1
        rmax[L] = R

    segs = []
    I = int(rmax[0])
    for L in range(r + 1):
        if L > 0 and rmax[L - 1] >= rmax[L]:
            continue
        R = int(rmax[L])
        segs.append(Segment(
            L=L, R=R,
            central=(L >= k + 1 and R <= r - k - 1),
            left_crossing=(L <= k and R >= k + 1),
            right_crossing=(L <= r - k - 1 and R >= r - k),
            super_=(R - L + 1 == I + 1),
        ))
    return SegmentDecomposition(segments=tuple(segs), initial_length=I)


def perturb(point: FeasiblePoint, eps: float, sym_tol: float = 1e-6) -> np.ndarray:
    """Apply the endpoint-shift perturbation rules to a symmetric point
    whose initial segment is shorter than k; returns the shifted vector
    (x_1..x_r), feasible and product-improving for small eps.
    """
    r, k = point.r, point.k
    x = np.concatenate([[0.0], point.as_floats()])
    for j in range(1, k + 1):
        if abs(x[j] + x[r - j] - 1.0) > sym_tol:
            raise ValueError(f"symmetry x_{j} + x_{r - j} = 1 fails")
    dec = segments(point)
    I = dec.initial_length
    if I >= k:
        raise ValueError(f"rules require initial segment shorter than k; I={I}, k={k}")

    delta: dict[int, float] = {}

    def shift(idx: int, amount: float):
        if idx in delta and delta[idx] != amount:
            raise RuntimeError(f"conflicting shifts at index {idx}")
        delta[idx] = amount

    shift(I, +eps)
    shift(r - I, -eps)
    for seg in dec.segments:
        if not seg.super_ or (seg.L, seg.R) in ((0, I), (r - I, r)):
            continue
        if seg.central:
            shift(seg.R, +eps)
            continue
        shift(seg.L, -eps)
        shift(seg.R, +eps)
        if seg.left_crossing and not seg.right_crossing:
            shift(r - seg.L, +eps)
        if seg.right_crossing and not seg.left_crossing:
            shift(r - seg.R, -eps)

    out = x.copy()
    for idx, amount in delta.items():
        out[idx] += amount
    return out[1:]


def bisect_perturbation_eps(point: FeasiblePoint, hi: float = 0.1,
                            iters: int = 60) -> float:
    """Largest eps (by bisection) for which the perturbed vector stays
    feasible and strictly beats the original product."""
    base = float(np.prod(point.as_floats()))

    def good(eps: float) -> bool:
        y = perturb(point, eps)
        # 1e-12 absorbs 1-ulp noise on exactly-tight mirror constraints
        ok, _ = check_feasible(y, point.r, point.k, tol=1e-12)
        return ok and float(np.prod(y)) > base

    lo = 0.0
    if not good(hi):
        for _ in range(iters):
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break
            if good(mid):
                lo = mid
            else:
                hi = mid
        return lo
    return hi


def random_symmetric_point(r: int, k: int, rng, I: int | None = None,
                           max_tries: int = 200) -> FeasiblePoint:
    """Random feasible point satisfying the perturbation-lemma hypotheses:
    initial segment of length I <= k-1 and x_j + x_{r-j} = 1 for j in [k].

    Built from mirrored coordinate gaps: gaps nondecreasing up to k with a
    strict jump after position I, free middle mass at least the k-th gap,
    and the top k gaps mirroring the bottom ones.
    """
    if k < 2:
        raise ValueError("need k >= 2 so that I <= k-1 can hold with I >= 1")
    if I is None:
        I = int(rng.integers(1, k))
    if not 1 <= I <= k - 1:
        raise ValueError("need 1 <= I <= k-1")
    for _ in range(max_tries):
        a = (0.3 + 0.5 * rng.random()) / r
        gaps = [a] * I
        g = a
        for pos in range(I + 1, k + 1):
            g = g * (1.1 + 0.3 * rng.random()) if pos == I + 1 else g * (1.0 + 0.2 * rng.random())
            gaps.append(g)
        low = sum(gaps)
        mid_count = r - 2 * k
        if mid_count > 0:
            mass = 1.0 - 2.0 * low
            if mass < mid_count * g:
                continue
            extra = rng.dirichlet(np.ones(mid_count)) * (mass - mid_count * g)
            middle = list(g + extra)
        else:
            # r = 2k: no middle, so rescale the halves to sum to 1/2 each
            gaps = [v * 0.5 / low for v in gaps]
            middle = []
        all_gaps = gaps + middle + gaps[::-1]
        x = np.cumsum(all_gaps)
        x[-1] = 1.0
        for j in range(1, k + 1):
            # force the mirror sums x_j + x_{r-j} = 1 to hold exactly
            x[r - j - 1] = 1.0 - x[j - 1]
        ok, _ = check_feasible(x, r, k, tol=1e-12)
        if not ok:
            continue
        point = FeasiblePoint(r=r, k=k, x=tuple(x))
        if segments(point).initial_length == I:
            return point
    raise RuntimeError(f"could not sample a symmetric point for r={r}, k={k}, I={I}")


def probe_floor_case(r: int) -> OptimizationReport:
    """Exploratory run at k = floor(r/e): reports whether the optimum
    exceeds r!/r^r (no theorem either way at this k)."""
    k = floor_r_over_e(r)
    if k < 1:
        raise ValueError(f"floor(r/e) < 1 for r={r}")
    return maximize_product(r, k)
