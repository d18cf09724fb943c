"""The constrained region of ratio vectors and its product maximization.

The region for parameters (r, k) consists of vectors 0 < x_1 <= ... <= x_r = 1
with x_i + x_j <= x_{i+j} for every i in [k] and i <= j <= r - i (x_0 = 0
implicitly).  The product of coordinates is maximized on the bend family
x_i(eps) = (1 - eps) i/r + eps [i > k], which lies in the region for every
0 <= eps < 1 and whose log-product is concave in eps with slope f'(0) at
eps = 0.  eps = 0, the linear point x_i = i/r, when f'(0) <= 0; otherwise
one scalar Newton solve finds eps.  The exact bend point is certified by
the bracket L = prod x <= max <= U, U the geometric-programming dual bound
of its KKT multipliers (Duffin, Peterson & Zener, 1967).  For f'(0) > 0
the counterexample is the bend point at eps = 1/m, m read off the first
Newton step in closed form.  Segment structure and the improving
perturbation also live here.

Rational points are checked exactly, as integer numerators over one common
denominator.  ``kkt_certificate`` builds every point's multipliers by one
recursion, ``_stick_cuts``: mu on the tent row (i, j, s) is an amount of
sticks of length s cut into pieces i and j, and r - 1 sticks of length r
are cut down to 1/x_n pieces of each length n < r, along the rows tight
at the bend.  At eps = 0 it runs in Python ints and certifies exactly, in
every case checked exactly when f'(0) <= 0; at eps > 0 it runs in floats.
The region code loads no scipy, and its exact path no numpy: row indices
are Python lists and a rational point's slacks Python ints.  Only the
float code (float slacks, ``A``, ``as_floats``, ``minimize``, the float
KKT residual, segments and the perturbation) imports numpy, when called.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

TOL_FEAS = 1e-9
TOL_SEG = 1e-7
TOL_SYM = 1e-6  # mirror sums x_j + x_{r-j} = 1 at a point ``perturb`` accepts
TOL_KKT = 1e-8  # relative stationarity residual of an optimal float KKT fit
TOL_REL = 1e-9  # relative tolerance for comparing products and values


# ceil(r/e) only sets the rows of the theorem table (the paper's k >= r/e),
# and perfbench reads both; ``fprime_zero`` decides the threshold itself
def floor_r_over_e(r: int) -> int:
    q = r / math.e
    if abs(q - round(q)) < 1e-9:  # impossible for integer r; defensive
        raise ValueError(f"r/e is numerically indistinguishable from an integer for r={r}")
    return math.floor(q)


def ceil_r_over_e(r: int) -> int:
    return floor_r_over_e(r) + 1  # r/e is never an integer


def is_rational(x) -> bool:
    """Every coordinate a Fraction or an int: x is checked exactly."""
    return all(isinstance(v, (Fraction, int)) for v in x)


def tent_constraints(r: int, k: int) -> list[tuple[int, int, int]]:
    """Index triples (i, j, i+j) of the pairwise sum constraints, one row
    each: i in [k] ascending, then j from i to r - i."""
    return [(i, j, i + j) for i in range(1, k + 1) for j in range(i, r - i + 1)]


class RegionConstraints:
    """The inequality rows A @ x <= 0 of the (r, k) region, over all r
    coordinates.  ``labels`` lists the tent rows ("tent", i, j, i+j), that
    is x_i + x_j - x_{i+j}, in ``tent_constraints`` order (the first
    ``n_tent`` rows), then the monotone rows ("monotone", i, i+1), that is
    x_i - x_{i+1}; ``A`` holds their integer normals.  x_r = 1 is the one
    equality row, with normal e_r; x_1 > 0 is left to ``check_feasible``.
    ``slack``, ``scaled_slack`` and ``combine`` read the two or three
    coordinates of each row; rational points go through ``scaled_slack``,
    in Python ints, and only float points and ``A`` use numpy.
    """

    def __init__(self, r: int, k: int):
        if not 1 <= k <= r // 2:
            raise ValueError(f"k must lie in [1, {r // 2}]")
        self.r, self.k = r, k
        tents = tent_constraints(r, k)
        # 0-based coordinates of the tent rows, one list per column
        self._i, self._j, self._s = ([v - 1 for v in col] for col in zip(*tents))
        self.n_tent = len(tents)

    @cached_property
    def labels(self) -> list:
        return ([("tent", i + 1, j + 1, s + 1) for i, j, s in zip(self._i, self._j, self._s)]
                + [("monotone", i, i + 1) for i in range(1, self.r)])

    @cached_property
    def A(self):
        import numpy as np
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

    def slack(self, x):
        """-A @ x for every row, nonnegative on the region: a list of
        Fractions for rational x, a float ndarray otherwise."""
        if is_rational(x):
            N, D = self.scaled_slack(x)
            return [Fraction(n, D) for n in N]
        import numpy as np
        return np.array(self._rows([float(v) for v in x]))

    def scaled_slack(self, x) -> tuple[list[int], int]:
        """(N, D) with -A @ x = N / D for rational x: D is the least common
        denominator of x and N a list of Python ints, so a sign test on a
        row builds no Fraction."""
        D = math.lcm(*(v.denominator for v in x))
        return self._rows([v.numerator * (D // v.denominator) for v in x]), D

    def _rows(self, x: list) -> list:
        return ([x[s] - x[i] - x[j] for i, j, s in zip(self._i, self._j, self._s)]
                + [b - a for a, b in zip(x, x[1:])])

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
    A rational x is compared in integers (``scaled_slack``) against the
    exact value of tol, and only the violated rows' slacks become Fractions.
    """
    if len(x) != r:
        raise ValueError(f"expected {r} coordinates, got {len(x)}")
    model = RegionConstraints(r, k)
    violations = []
    if x[0] <= 0:
        violations.append(("x_1 > 0", x[0]))
    if abs(x[r - 1] - 1) > tol:
        violations.append(("x_r = 1", -abs(x[r - 1] - 1)))
    if is_rational(x):
        N, D = model.scaled_slack(x)
        t = Fraction(tol)  # N/D < -t, in integers
        q, limit = t.denominator, -t.numerator * D
        bad = [row for row, n in enumerate(N) if n * q < limit]
        slacks = {row: Fraction(N[row], D) for row in bad}
    else:
        slacks = model.slack(x)
        bad = (slacks < -tol).nonzero()[0]
    for row in bad:
        violations.append((_describe(model.labels[row]), slacks[row]))
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
        return is_rational(self.x)

    def as_floats(self):
        import numpy as np
        return np.array([float(v) for v in self.x])

    def product(self):
        """prod x_i: one Fraction of the products of the numerators and of
        the denominators, reduced once, when the point is exact."""
        if not self.is_exact:
            return math.prod(self.x)
        return Fraction(math.prod(v.numerator for v in self.x),
                        math.prod(v.denominator for v in self.x))


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


# Nothing in tentopt calls linprog or nnls: every point's multipliers come
# from ``_stick_cuts``.  perfbench/layers.py wraps both names and its tracer
# raises on a missing attribute, so they stay until the benchmark drops them.
def linprog(*args, **kwargs):
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def nnls(*args, **kwargs):
    from scipy.optimize import nnls
    return nnls(*args, **kwargs)


def bend_coordinates(r: int, k: int, eps) -> tuple:
    """The Fractions x_i = (1 - eps) i/r + eps [i > k] for rational eps:
    the linear point bent down on [1, k] and up above k, not checked."""
    eps = Fraction(eps)
    e, d = eps.numerator, eps.denominator  # x_i = ((d - e) i + r e [i > k]) / (r d)
    return tuple(Fraction((d - e) * i + (r * e if i > k else 0), r * d)
                 for i in range(1, r + 1))


def bend_point(r: int, k: int, eps) -> FeasiblePoint:
    """The exact point ``bend_coordinates(r, k, eps)``.  It lies in the
    region for every 0 <= eps < 1: no monotone row is tight, and a tent
    row has i <= k, so [j > k] <= [i + j > k]."""
    return FeasiblePoint(r=r, k=k, x=bend_coordinates(r, k, eps))


@dataclass(frozen=True)
class BendSolve:
    eps: Fraction  # the bend, exactly as ``bend_point`` takes it
    fun: float  # -sum(log x_i) at the bend point, in floats
    nit: int  # Newton steps
    success: bool  # the steps stopped on their own, not on the cap


def minimize(r: int, k: int) -> BendSolve:
    """Minimize -sum(log x_i) over the bend family of ``bend_point``.

    With u = eps/(1 - eps) the product is (1 + u)^-r prod_{i<=k} i/r
    prod_{i>k} (i + r u)/r, so the minimum solves
    g(u) = sum_{i>k} (r - i)/(i + r u) = k, where g(0) - k = f'(0).  g is
    convex and decreasing, so Newton's method from u = 0 climbs to the root
    monotonically; u = 0 when f'(0) <= 0.  perfbench wraps this name as its
    region-optimizer span (``region.slsqp``, named when SLSQP ran here) and
    reads the result's ``fun``, ``nit`` and ``success``.
    """
    import numpy as np
    i = np.arange(k + 1, r + 1, dtype=float)
    u, nit, done = 0.0, 0, False
    while not done and nit < 100:
        t = (r - i) / (i + r * u)
        h = t.sum() - k
        if h <= 0:
            break
        step = h / (r * np.sum(t / (i + r * u)))
        u, nit = u + step, nit + 1
        done = step <= 1e-15 * u
    eps = u / (1 + u)
    x = (1 - eps) * np.arange(1, r + 1) / r + eps * (np.arange(1, r + 1) > k)
    return BendSolve(eps=Fraction(eps), fun=-float(np.sum(np.log(x))), nit=nit,
                     success=nit < 100)


def dual_bound(model: RegionConstraints, rows, mus) -> Fraction | None:
    """U >= prod x_i over the region, from multipliers mu >= 0 on ``rows``
    (Fractions): with a = A^T mu, nu = -r a_r/(r - 1) and
    c = a + nu e_r > 0, every region point has c^T x <= nu, so AM-GM gives
    prod x_i <= (nu/r)^r / prod c_i = U, the geometric-programming dual
    (Duffin, Peterson & Zener, 1967; nu minimizes U).  None unless mu >= 0
    and c > 0.  U is homogeneous of degree 0 in (mu, nu), so mu (floats or
    Fractions) is scaled to integers and U is one Fraction of Python ints."""
    r = model.r
    if any(mu < 0 for mu in mus):
        return None
    support = [(t, *mu.as_integer_ratio()) for t, mu in zip(rows, mus) if mu]
    scale = (r - 1) * math.lcm(*(q for _, _, q in support))
    a = model.combine([t for t, _, _ in support], [p * (scale // q) for _, p, q in support])
    nu = -r * (a[-1] // (r - 1))
    c = a[:-1] + [a[-1] + nu]
    if nu <= 0 or min(c) <= 0:
        return None
    return Fraction(nu**r, r**r * math.prod(c))


def region_bracket(point: FeasiblePoint, kkt: dict) -> dict:
    """Exact bracket L <= max prod x <= U at an exact point: ``lower`` is
    L = prod x, ``upper`` the ``dual_bound`` of the certificate's
    multipliers, floats or Fraction strings (None when they give no
    bound)."""
    model = RegionConstraints(point.r, point.k)
    rows = [model.index(label) for label in kkt["active"]]
    mus = [Fraction(mu) if isinstance(mu, str) else mu for mu in kkt["multipliers"]]
    return {"lower": point.product(), "upper": dual_bound(model, rows, mus)}


@dataclass(frozen=True)
class OptimizationReport:
    value: float
    argmax: FeasiblePoint
    bound: float
    kkt: dict
    bracket: dict
    status: str
    diagnostics: dict = field(default_factory=dict, compare=False)


def maximize_product(r: int, k: int, seed=None) -> OptimizationReport:
    """Global maximum of prod x_i over the region, certified exactly.

    eps = 0 when f'(0) <= 0; otherwise ``minimize`` finds the bend eps.
    The argmax is the exact ``bend_point`` at eps, and ``kkt_certificate``
    builds its multipliers by the one stick-cut recursion: exact at
    eps = 0, floats at eps > 0.  ``bracket`` holds ``eps`` and
    ``region_bracket``'s exact ``lower`` and ``upper``; ``value`` is
    float(lower).  ``status`` is "converged" exactly when ``upper`` exists
    and (upper - lower)/lower <= TOL_REL; exact KKT multipliers give
    upper = lower.  ``diagnostics``: the path, read off eps
    ("exact-linear-point" at eps = 0, else "bend" with the Newton steps
    ``nit``), the multipliers' ``support`` size (``fit``), wall seconds per
    phase.  ``seed`` has no effect; nothing is random.
    """
    RegionConstraints(r, k)  # validates k
    seconds, clock = {}, [time.perf_counter()]

    def lap(phase):  # wall seconds since the previous lap
        clock.append(time.perf_counter())
        seconds[phase] = clock[-1] - clock[-2]

    res = minimize(r, k) if fprime_zero(r, k) > 0 else None
    eps = res.eps if res else Fraction(0)
    diagnostics = {"path": "bend", "nit": res.nit} if eps else {"path": "exact-linear-point"}
    point = bend_point(r, k, eps)
    lap("bend")
    cert = kkt_certificate(point)
    lap("kkt")
    bracket = region_bracket(point, cert) | {"eps": eps}
    lap("bracket")
    lower, upper = bracket["lower"], bracket["upper"]
    return OptimizationReport(
        value=float(lower),
        argmax=point,
        bound=float(product_bound(r)),
        kkt=cert,
        bracket=bracket,
        status="converged" if upper is not None and upper - lower <= TOL_REL * lower
        else "best-found",
        diagnostics=diagnostics | {"fit": {"support": len(cert["active"])},
                                   "seconds": seconds},
    )


def _stick_cuts(r: int, k: int, eps) -> dict:
    """KKT multipliers on the tent rows at the bend point of ``eps``
    (``bend_point``), as {(i, j, s): mu}: Fractions at eps = 0, the linear
    point x_i = i/r, and floats at eps > 0.

    Read mu_(i,j,s) as an amount of sticks of length s cut into pieces i and
    j.  The gradient 1/x is then matched on coordinates 1..r-1 exactly when
    1/x_n pieces of each length n < r are left over, and r - 1 sticks of
    length r are cut.  Only cuts along tight rows count: every cut's smaller
    piece is at most k, and at eps > 0, where x_i + x_j < x_{i+j} for
    i, j <= k < i + j, a stick longer than k is cut into one piece of length
    at most k and one longer than k.  The lengths are cut from n = r down,
    over D = lcm(1..r-1) in Python ints at eps = 0 and in floats (D = 1)
    otherwise: the excess of length n over the D/x_n pieces that stay is
    cut into (n - m, m), m from n - 1 down to m_min (the least m those rules
    allow), as far as length m still lacks pieces, and what is left at
    m_min.  A deficit is left where it falls; ``kkt_certificate`` checks the
    sums.  Each length's lack is kept, not its count, so a length that is
    filled lacks exactly 0, in floats too, and no rounding crumb is cut.

    At eps = 0, f'(0) <= 0 is necessary: under the cutting rule each of the
    r - 1 cut trees from an r-stick ends in at most one piece longer than k,
    and sum_{p=k+1}^{r-1} r/p <= r - 1 is exactly f'(0) <= 0.  The recursion
    certifies every (r, k) with f'(0) <= 0 that has been checked (every k at
    r <= 250, and the k near r/e at r <= 1000).  At eps > 0 each tree ends
    in exactly one long piece, so sum_{k<n<r} 1/x_n = r - 1.  With
    u = eps/(1 - eps), 1/x_n = r (1 + u)/(n + r u [n > k]), and that count
    is the equation sum_{i>k} (r - i)/(i + r u) = k that ``minimize``
    solves.
    """
    if eps:
        u = float(eps / (1 - eps))
        D = 1.0
        lack = [r * (1 + u) / (n + (r * u if n > k else 0)) for n in range(1, r)]
    else:
        D = math.lcm(*range(1, r))
        lack = [r * D // n for n in range(1, r)]
    # pieces each length lacks: D/x_n stay at n < r, and r - 1 sticks of
    # length r are all cut
    lack = [0] + lack + [-(r - 1) * D]
    counts = {}

    def cut(i, j, n, x):
        counts[i, j, n] = counts.get((i, j, n), 0) + x
        lack[i] -= x
        lack[j] -= x

    for n in range(r, 1, -1):
        excess = -lack[n]
        m_min = max((n + 1) // 2, n - k, k + 1 if eps and n > k else 0)
        for m in range(n - 1, m_min - 1, -1):
            x = min(excess, lack[m])
            if x > 0:
                cut(n - m, m, n, x)
                excess -= x
        if excess > 0 and m_min < n:
            cut(n - m_min, m_min, n, excess)
    return {label: x if eps else Fraction(x, D) for label, x in counts.items()}


def kkt_certificate(point: FeasiblePoint) -> dict:
    """Express the log-product gradient 1/x as sum_t mu_t A[t] + nu e_r
    with mu >= 0 on rows tight at the point and nu on x_r = 1.

    mu is fitted on coordinates 1..r-1; nu, which closes coordinate r, is
    not stored, since ``dual_bound`` derives its own.  Only an exact bend
    point (``bend_point``, eps = 1 - r x_1) has multipliers, those of
    ``_stick_cuts``, with no scipy.  At eps = 0 they are Fractions, kept
    when they match 1/x on coordinates 1..r-1 exactly; then ``residual`` is
    0.0 and the multipliers are Fraction strings.  At eps > 0 they are
    floats, kept when ``residual``, the stationarity residual relative to
    |1/x|, is below TOL_KKT.  ``optimal`` says they were kept; otherwise
    there are no multipliers, and ``residual`` is None unless it is a float
    one.  ``exact`` is false exactly when floats were used: at a float
    point, and at a bend with eps > 0.  ``active`` is the support, the rows
    with mu > 0.
    """
    r, k, x = point.r, point.k, point.x
    model = RegionConstraints(r, k)
    eps = 1 - r * Fraction(x[0])
    bend = point.is_exact and x == bend_coordinates(r, k, eps)
    exact = point.is_exact and not (bend and eps)
    fit = sorted((model.index(("tent", *label)), mu)
                 for label, mu in (_stick_cuts(r, k, eps) if bend else {}).items())
    rows, mus = [t for t, _ in fit], [mu for _, mu in fit]
    residual = None
    if bend:
        combo = model.combine(rows, mus)[: r - 1]
        if exact:
            residual = 0.0 if combo == [1 / v for v in x[: r - 1]] else None
        else:
            import numpy as np
            g = np.array([float(1 / v) for v in x])
            residual = float(np.linalg.norm(np.array(combo) - g[: r - 1])
                             / max(np.linalg.norm(g), 1.0))
    optimal = residual is not None and residual < TOL_KKT
    if not optimal:
        rows, mus = [], []
    return {
        "optimal": optimal,
        "residual": residual,
        "active": [list(model.labels[t]) for t in rows],
        "multipliers": [(str if exact else float)(mu) for mu in mus],
        "exact": exact,
    }


# ---------------------------------------------------------------------------
# the below-threshold counterexample and its derivative bookkeeping


def _fprime_sums(r: int, k: int) -> tuple[int, int, int]:
    """(N, M, L) in Python ints over L = lcm(k+1..r):
    f'(0) = sum_{i>k} (r - i)/i - k = N/L and
    sum_{i>k} (r - i)/i^2 = M/L^2."""
    if not 1 <= k <= r:
        raise ValueError("need 1 <= k <= r")
    L = math.lcm(*range(k + 1, r + 1))
    terms = [(r - i, L // i) for i in range(k + 1, r)]
    return (sum(a * q for a, q in terms) - k * L, sum(a * q * q for a, q in terms), L)


def fprime_zero(r: int, k: int) -> Fraction:
    """Exact linear coefficient of the product-ratio polynomial:
    f'(0) = -k + sum_{i=k+1}^r (r-i)/i, the one test of the threshold.

    f'(0) > 0 exactly when a bend beats the linear point x_i = i/r
    (``counterexample_point``); at f'(0) <= 0 ``maximize_product``
    certifies the linear point as the region maximum, in every case
    checked.  The sum is taken in Python ints (``_fprime_sums``), one
    Fraction at the end.

    Closed form: f'(0) = r (H_r - H_k - 1), H_n the n-th harmonic number.
    Proof: (r - i)/i = r/i - 1, so the sum over the r - k terms i > k is
    r (H_r - H_k) - (r - k), and subtracting k leaves r (H_r - H_k) - r.

    So the threshold is k*(r) = min{k : H_r - H_k <= 1}: H_r - H_k falls
    strictly as k grows, f'(0) <= 0 for every k >= k* and f'(0) > 0 for
    every k < k*.  And k* lies in {floor(r/e), ceil(r/e)} for every r >= 2,
    by two integral bounds (r/e is never an integer, e being irrational):
      * 1/i < integral_{i-1}^{i} dt/t, so H_r - H_k < ln(r/k) for k < r.
        At k = ceil(r/e) > r/e this is below 1: k* <= ceil(r/e).
      * 1/i > integral_{i}^{i+1} dt/t, so H_r - H_k > ln((r + 1)/(k + 1)).
        At k = floor(r/e) - 1, k + 1 < r/e, so this is above 1, and
        k* >= floor(r/e) (trivially so when floor(r/e) <= 1).
    Hence f'(0) <= 0 for every k >= ceil(r/e) and f'(0) > 0 for every
    k < floor(r/e); only the sign at k = floor(r/e) varies with r.
    """
    N, _, L = _fprime_sums(r, k)
    return Fraction(N, L)


def upper_bound_gap(r: int, k: int) -> float:
    """r (log r - log k - 1); nonpositive exactly when r <= k e."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return r * (math.log(r) - math.log(k) - 1.0)


def counterexample_point(r: int, k: int) -> FeasiblePoint:
    """Feasible point with product exceeding r!/r^r, for every
    1 <= k <= r/2 with f'(0) > 0 (``fprime_zero``): the ``bend_point`` at
    eps = 1/m, m = 1 + ceil(r sum_{i>k} (r - i)/i^2 / f'(0)), in Python
    ints (``_fprime_sums``).  Any other (r, k) raises ValueError.

    Why it wins: with u = eps/(1 - eps), d/du log prod x = h(u)/(1 + u),
    where h(u) = sum_{i>k} (r - i)/(i + r u) - k is convex and decreasing
    with h(0) = f'(0) > 0 (``minimize``).  The first Newton step from 0,
    u_1 = f'(0)/(r sum_{i>k} (r - i)/i^2), is at most the root u* of h,
    since h lies above its tangent at 0, so h(u_1) >= 0.  So the log-product
    rises strictly on [0, u*], and eps = u/(1 + u) rises with u, with
    1/m <= u_1/(1 + u_1): the product at eps = 1/m exceeds r!/r^r.
    Feasibility is still checked exactly, by constructing the
    FeasiblePoint, and the product once against r!/r^r in Fractions.
    """
    N, M, L = _fprime_sums(r, k) if 1 <= k <= r // 2 else (0, 0, 1)
    if N <= 0:
        raise ValueError(f"construction requires 1 <= k <= {r // 2} and f'(0; r, k) > 0, "
                         f"not (r, k) = ({r}, {k})")
    m = 1 - (-r * M // (N * L))
    point = bend_point(r, k, Fraction(1, m))
    if not point.product() > product_bound(r):
        raise RuntimeError(f"the bend at eps = 1/{m} does not beat {r}!/{r}^{r}")
    return point


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


def segments(point: FeasiblePoint) -> SegmentDecomposition:
    """All maximal intervals on which the coordinates advance in steps of
    x_1 (with x_0 = 0 prepended), classified by position."""
    import numpy as np
    r, k = point.r, point.k
    x = np.concatenate([[0.0], point.as_floats()])
    step = x[1]

    def uniform(L: int, R: int) -> bool:
        i = np.arange(L, R + 1)
        return bool(np.all(np.abs(x[L:R + 1] - (x[L] + (i - L) * step)) <= TOL_SEG))

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


def perturb(point: FeasiblePoint, eps: float):
    """Apply the endpoint-shift perturbation rules to a symmetric point
    whose initial segment is shorter than k; returns the shifted vector
    (x_1..x_r), feasible and product-improving for small eps.
    """
    import numpy as np
    r, k = point.r, point.k
    x = np.concatenate([[0.0], point.as_floats()])
    for j in range(1, k + 1):
        if abs(x[j] + x[r - j] - 1.0) > TOL_SYM:
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


def bisect_perturbation_eps(point: FeasiblePoint) -> float:
    """Largest eps in [0, 0.1] (by at most 60 bisection steps) for which the
    perturbed vector stays feasible and strictly beats the original
    product."""
    import numpy as np
    base = float(np.prod(point.as_floats()))

    def good(eps: float) -> bool:
        y = perturb(point, eps)
        # 1e-12 absorbs 1-ulp noise on exactly-tight mirror constraints
        ok, _ = check_feasible(y, point.r, point.k, tol=1e-12)
        return ok and float(np.prod(y)) > base

    lo, hi = 0.0, 0.1
    if not good(hi):
        for _ in range(60):
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break
            if good(mid):
                lo = mid
            else:
                hi = mid
        return lo
    return hi


def random_symmetric_point(r: int, k: int, rng) -> FeasiblePoint:
    """Random feasible point satisfying the perturbation-lemma hypotheses:
    initial segment of random length I <= k-1 and x_j + x_{r-j} = 1 for
    j in [k]; RuntimeError after 200 failed draws.

    Built from mirrored coordinate gaps: gaps nondecreasing up to k with a
    strict jump after position I, free middle mass at least the k-th gap,
    and the top k gaps mirroring the bottom ones.
    """
    import numpy as np
    if k < 2:
        raise ValueError("need k >= 2 so that I <= k-1 can hold with I >= 1")
    I = int(rng.integers(1, k))
    for _ in range(200):
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
