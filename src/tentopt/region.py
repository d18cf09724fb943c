"""The constrained region of ratio vectors and its product maximization.

The region for parameters (r, k) consists of vectors 0 < x_1 <= ... <= x_r = 1
with x_i + x_j <= x_{i+j} for every i in [k] and i <= j <= r - i (x_0 = 0
implicitly).  The product of coordinates is maximized by solving the concave
program max sum(log x_i); segment structure, KKT certificates, the
improving perturbation, and the below-threshold counterexample construction
all live here.

Closed-form points (the linear point x_i = i/r and counterexample points
with rational epsilon) are re-checked in exact rational arithmetic; when
the linear point is optimal its KKT multipliers are exact Fractions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linprog, minimize, nnls

TOL_FEAS = 1e-9
TOL_SEG = 1e-7
TOL_KKT = 1e-8
TOL_REL = 1e-9  # relative tolerance for comparing products and values
_SEED = 20240817


def ceil_r_over_e(r: int) -> int:
    q = r / math.e
    if abs(q - round(q)) < 1e-9:  # impossible for integer r; defensive
        raise ValueError(f"r/e is numerically indistinguishable from an integer for r={r}")
    return math.ceil(q)


def floor_r_over_e(r: int) -> int:
    q = r / math.e
    if abs(q - round(q)) < 1e-9:
        raise ValueError(f"r/e is numerically indistinguishable from an integer for r={r}")
    return math.floor(q)


def tent_constraints(r: int, k: int):
    """Index triples (i, j, i+j) of the pairwise sum constraints."""
    for i in range(1, k + 1):
        for j in range(i, r - i + 1):
            yield i, j, i + j


def full_normal(label, r: int) -> np.ndarray:
    """Integer normal in R^r of a labelled constraint a.x <= 0:
    ("tent", i, j, s) is x_i + x_j - x_s, ("monotone", i, j) is x_i - x_j."""
    row = np.zeros(r, dtype=np.int64)
    kind = label[0]
    if kind == "tent":
        _, i, j, s = label
        row[i - 1] += 1
        row[j - 1] += 1
        row[s - 1] -= 1
    elif kind == "monotone":
        _, i, j = label
        row[i - 1] += 1
        row[j - 1] -= 1
    else:
        raise ValueError(f"unknown constraint kind {kind!r}")
    return row


def check_feasible(x: Sequence, r: int, k: int, tol=TOL_FEAS):
    """Membership report for the region: (ok, list of violations).

    Works on floats or Fractions; pass tol=0 for exact checking.  Each
    violation is (description, slack) with negative slack meaning violated.
    """
    if len(x) != r:
        raise ValueError(f"expected {r} coordinates, got {len(x)}")
    if not 1 <= k <= r // 2:
        raise ValueError(f"k must lie in [1, {r // 2}]")
    x = list(x)
    violations = []
    if x[0] <= 0:
        violations.append(("x_1 > 0", x[0]))
    last = x[r - 1]
    if abs(last - 1) > tol:
        violations.append(("x_r = 1", -abs(last - 1)))
    for i in range(r - 1):
        slack = x[i + 1] - x[i]
        if slack < -tol:
            violations.append((f"x_{i + 1} <= x_{i + 2}", slack))
    for i, j, s in tent_constraints(r, k):
        xs = 1 if s == r else x[s - 1]
        slack = xs - x[i - 1] - x[j - 1]
        if slack < -tol:
            violations.append((f"x_{i} + x_{j} <= x_{s}", slack))
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
    return Fraction(math.factorial(r), r**r)


def tight_constraints_at_linear_point(r: int, k: int) -> bool:
    """Exact-rational check that x_i = i/r is feasible with every pairwise
    sum constraint tight."""
    x = [Fraction(i, r) for i in range(1, r + 1)]
    ok, _ = check_feasible(x, r, k, tol=0)
    if not ok:
        return False
    return all(x[i - 1] + x[j - 1] == (1 if s == r else x[s - 1])
               for i, j, s in tent_constraints(r, k))


# ---------------------------------------------------------------------------
# product maximization


def _constraint_matrix(r: int, k: int):
    """Rows A, b with A @ x[:r-1] <= b over free coordinates x_1..x_{r-1}."""
    m = r - 1
    rows, rhs, labels = [], [], []
    for i, j, s in tent_constraints(r, k):
        row = np.zeros(m)
        b = 0.0
        for idx, c in ((i, 1.0), (j, 1.0), (s, -1.0)):
            if idx <= m:
                row[idx - 1] += c
            else:
                b -= c
        rows.append(row)
        rhs.append(b)
        labels.append(("tent", i, j, s))
    for i in range(1, r):
        row = np.zeros(m)
        row[i - 1] = 1.0
        if i < m:
            row[i] = -1.0
            rows.append(row)
            rhs.append(0.0)
        else:
            rows.append(row)
            rhs.append(1.0)
        labels.append(("monotone", i, i + 1))
    return np.array(rows), np.array(rhs), labels


def random_feasible_point(r: int, k: int, rng) -> FeasiblePoint:
    """Random region member from sorted-increment sampling: nondecreasing
    coordinate gaps make every pairwise sum constraint hold."""
    gaps = np.sort(rng.exponential(size=r) + 1e-3)
    x = np.cumsum(gaps)
    x /= x[-1]
    return FeasiblePoint(r=r, k=k, x=tuple(x))


@dataclass(frozen=True)
class OptimizationReport:
    value: float
    argmax: FeasiblePoint
    bound: float
    kkt: dict
    status: str
    exact: dict = field(default_factory=dict)


def maximize_product(r: int, k: int, restarts: int = 8, seed: int = _SEED,
                     exact: bool = False) -> OptimizationReport:
    """Global maximum of prod x_i over the region.

    When f'(0) <= 0 the linear point x_i = i/r is tried first, and if
    ``exact_kkt_at_linear_point`` certifies it no nonlinear solve runs.
    Otherwise (always when f'(0) > 0, where the bend of
    ``counterexample_point`` improves on i/r) SLSQP maximizes the strictly
    concave sum of logs from several starts, so any KKT point is the unique
    global optimum.  ``status`` is "converged" exactly when the report's KKT
    certificate is optimal with residual below TOL_KKT.  With ``exact`` the
    linear point's feasibility/tightness and the product comparison are
    re-checked in rational arithmetic.
    """
    if not 1 <= k <= r // 2:
        raise ValueError(f"k must lie in [1, {r // 2}]")
    bound = product_bound(r)
    cert = exact_kkt_at_linear_point(r, k) if fprime_zero(r, k) <= 0 else None
    if cert is not None:
        point, value = linear_point(r, k), float(bound)
    else:
        z, value = _slsqp_multistart(r, k, restarts, seed)
        point = FeasiblePoint(r=r, k=k, x=tuple(np.append(z, 1.0)))
        cert = kkt_certificate(point)
    optimal = cert["optimal"] and cert["residual"] < TOL_KKT

    report_exact = {}
    if exact:
        report_exact = {
            "linear_point_feasible_and_tight": tight_constraints_at_linear_point(r, k),
            "bound": str(bound),
            "optimum_exceeds_bound": bool(value > float(bound) * (1 + TOL_REL)),
        }
    return OptimizationReport(
        value=value,
        argmax=point,
        bound=float(bound),
        kkt=cert,
        status="converged" if optimal else "best-found",
        exact=report_exact,
    )


def _slsqp_multistart(r: int, k: int, restarts: int, seed: int):
    """Best feasible SLSQP solve of max sum(log x_i) over the free
    coordinates x_1..x_{r-1}: (those coordinates, their product)."""
    A, b, _ = _constraint_matrix(r, k)
    m = r - 1

    def objective(z):
        return -np.sum(np.log(z))

    def grad(z):
        return -1.0 / z

    cons = [{"type": "ineq", "fun": lambda z: b - A @ z, "jac": lambda z: -A}]
    rng = np.random.default_rng(seed)
    starts = [np.arange(1, r) / r]
    if k < floor_r_over_e(r):
        starts.append(counterexample_point(r, k).as_floats()[:-1])
    for _ in range(restarts):
        starts.append(random_feasible_point(r, k, rng).as_floats()[:-1])

    best_z, best_val = None, -np.inf
    for z0 in starts:
        with warnings.catch_warnings():
            # SLSQP probes slightly outside the box and clips; harmless here
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(objective, np.clip(z0, 1e-8, 1.0), jac=grad,
                           method="SLSQP", bounds=[(1e-9, 1.0)] * m,
                           constraints=cons,
                           options={"maxiter": 500, "ftol": 1e-14})
        z = np.clip(res.x, 1e-12, 1.0)
        if (A @ z - b).max() > 1e-7:
            continue
        val = math.exp(-objective(z))
        if val > best_val:
            best_val, best_z = val, z
    if best_z is None:
        raise RuntimeError("no feasible solve; region construction is broken")
    return best_z, best_val


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


def exact_kkt_at_linear_point(r: int, k: int) -> dict | None:
    """Exact KKT certificate of the linear point x_i = i/r, or None.

    At i/r every tent constraint is tight and no monotone one is, so the
    point is optimal exactly when the log-product gradient (r/i)_{i<r} lies
    in the cone of the tent normals (the x_r = 1 row absorbs coordinate r).
    HiGHS finds a vertex of that cone; its support is solved again in
    Fractions, and the multipliers are kept only if they are nonnegative
    and satisfy every coordinate equation exactly.  The returned dict has
    the format of ``kkt_certificate`` (residual 0, ``active`` the support)
    plus the multipliers as exact strings.
    """
    labels = [("tent", i, j, s) for i, j, s in tent_constraints(r, k)]
    normals = [full_normal(lab, r) for lab in labels]
    N = np.array(normals)[:, : r - 1].T
    res = linprog(np.ones(len(labels)), A_eq=N, b_eq=r / np.arange(1, r),
                  bounds=(0, None), method="highs-ds")
    if res.status != 0:
        return None
    support = np.flatnonzero(res.x > 0)
    g = [Fraction(r, i) for i in range(1, r + 1)]
    mus = _solve_rational([normals[t][: r - 1] for t in support], g[: r - 1])
    if mus is None or any(mu < 0 for mu in mus):
        return None
    kept = [(t, mu) for t, mu in zip(support, mus) if mu]
    lhs = [Fraction(0)] * r
    for t, mu in kept:
        for idx in np.flatnonzero(normals[t]):
            lhs[idx] += mu * int(normals[t][idx])
    if lhs[: r - 1] != g[: r - 1]:
        return None
    nu = g[r - 1] - lhs[r - 1]  # the x_r = 1 multiplier closes coordinate r
    return {
        "optimal": True,
        "residual": 0.0,
        "active": [list(labels[t]) for t, _ in kept],
        "multipliers": [float(mu) for _, mu in kept],
        "equality_multiplier": float(nu),
        "multipliers_exact": [str(mu) for _, mu in kept],
        "equality_multiplier_exact": str(nu),
    }


def kkt_certificate(point: FeasiblePoint, act_tol: float = 1e-6) -> dict:
    """Express the log-product gradient in the active normal cone.

    Returns multipliers and the stationarity residual when the point is
    optimal; otherwise a feasible improving direction with positive
    directional derivative.
    """
    r, k = point.r, point.k
    x = point.as_floats()
    A, b, labels = _constraint_matrix(r, k)
    z = x[: r - 1]
    g = 1.0 / x  # gradient of sum(log x_i), all r coordinates

    # full-dimensional normals (coordinate r included, equality x_r = 1 too)
    slack = b - A @ z
    active_labels = [lab for lab, s in zip(labels, slack) if s <= act_tol]
    full_rows = [full_normal(lab, r).astype(float) for lab in active_labels]
    eq = np.zeros(r)
    eq[r - 1] = 1.0

    # nnls over inequality multipliers; equality multiplier is free (split)
    basis = np.column_stack(full_rows + [eq, -eq]) if full_rows else np.column_stack([eq, -eq])
    mu, resid = nnls(basis, g)
    residual = resid / max(np.linalg.norm(g), 1.0)
    if residual < TOL_KKT:
        n_ineq = len(full_rows)
        return {
            "optimal": True,
            "residual": float(residual),
            "active": [list(lab) for lab in active_labels],
            "multipliers": [float(v) for v in mu[:n_ineq]],
            "equality_multiplier": float(mu[n_ineq] - mu[n_ineq + 1]),
        }

    # improving direction: max g.d subject to active normals, |d| <= 1
    A_ub = np.array(full_rows) if full_rows else np.zeros((0, r))
    res = linprog(-g, A_ub=A_ub if len(A_ub) else None,
                  b_ub=np.zeros(len(A_ub)) if len(A_ub) else None,
                  A_eq=eq[None, :], b_eq=[0.0], bounds=[(-1, 1)] * r)
    direction = res.x if res.status == 0 else None
    return {
        "optimal": False,
        "residual": float(residual),
        "active": [list(lab) for lab in active_labels],
        "improving_direction": None if direction is None else [float(v) for v in direction],
        "directional_derivative": float(g @ direction) if direction is not None else None,
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
    k = min(k, r // 2)
    return maximize_product(r, k)
