import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tentopt.region as region
from tentopt.certificates import Certificate, verify_certificate
from tentopt.cli import _max_evidence
from tentopt.region import (
    TOL_FEAS,
    TOL_KKT,
    TOL_REL,
    FeasiblePoint,
    RegionConstraints,
    bend_point,
    bisect_perturbation_eps,
    ceil_r_over_e,
    check_feasible,
    counterexample_point,
    dual_bound,
    floor_r_over_e,
    fprime_zero,
    kkt_certificate,
    linear_point,
    maximize_product,
    minimize,
    perturb,
    product_bound,
    quartic_inequality,
    random_symmetric_point,
    segments,
    upper_bound_gap,
)


def test_ceil_floor_r_over_e():
    assert [ceil_r_over_e(r) for r in (4, 5, 6, 9, 12)] == [2, 2, 3, 4, 5]
    assert [floor_r_over_e(r) for r in (4, 5, 6, 9, 12)] == [1, 1, 2, 3, 4]


def test_linear_point_feasible_and_tight():
    for r in range(4, 13):
        for k in range(1, r // 2 + 1):
            ok, _ = check_feasible([i / r for i in range(1, r + 1)], r, k)
            assert ok


def test_all_ones_infeasible():
    ok, bad = check_feasible([1.0] * 5, 5, 2)
    assert not ok
    assert any("x_1 + x_1 <= x_2" in name for name, _ in bad)


def test_check_feasible_exact_mode():
    x = [Fraction(i, 6) for i in range(1, 7)]
    ok, _ = check_feasible(x, 6, 3, tol=0)
    assert ok


def test_feasible_point_validation():
    with pytest.raises(ValueError):
        FeasiblePoint(r=4, k=2, x=(0.9, 0.9, 0.9, 1.0))
    p = linear_point(6, 2)
    assert p.product() == pytest.approx(720 / 6 ** 6)


def test_exact_product_is_one_fraction():
    # an exact point's product is one Fraction, equal to the product of its
    # coordinates; a float point's is the float product
    for r in range(4, 41):
        for k in range(1, r // 2 + 1):
            p = (counterexample_point(r, k) if fprime_zero(r, k) > 0
                 else linear_point(r, k, exact=True))
            assert type(p.product()) is Fraction and p.product() == math.prod(p.x), (r, k)
    p = linear_point(6, 2)
    assert type(p.product()) is float and p.product() == math.prod(p.x)
    assert FeasiblePoint(r=4, k=1, x=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
                         ).product() == Fraction(3, 32)


def test_exact_region_path_loads_no_numpy():
    # rational points, their slacks and the stick-cut multipliers are
    # Python ints and Fractions: a theorem row and a counterexample need
    # no numpy
    code = ("import sys\n"
            "from tentopt.region import counterexample_point, maximize_product\n"
            "rep = maximize_product(40, 15)\n"
            "assert rep.kkt['exact'] and rep.bracket['lower'] == rep.bracket['upper']\n"
            "assert counterexample_point(40, 5).is_exact\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("r", range(4, 13))
def test_optimum_at_threshold_k(r):
    k = ceil_r_over_e(r)
    rep = maximize_product(r, k)
    bound = float(product_bound(r))
    assert abs(rep.value - bound) / bound < 1e-6
    assert np.abs(rep.argmax.as_floats() - np.arange(1, r + 1) / r).max() < 1e-4
    assert rep.status == "converged"
    assert rep.kkt["optimal"] and rep.kkt["residual"] < 1e-8


def test_optimum_symmetry():
    for r, k in [(6, 3), (9, 4), (11, 5)]:
        x = maximize_product(r, k).argmax.as_floats()
        for j in range(1, k + 1):
            assert abs(x[j - 1] + x[r - j - 1] - 1) < 1e-6


@pytest.mark.parametrize("r, k, path", [(7, 3, "exact-linear-point"), (12, 2, "bend"),
                                         (31, 11, "bend")])
def test_solves_once_whatever_the_seed(monkeypatch, r, k, path):
    # nothing is random: one scalar solve on the bend path, none on the exact one
    calls = []
    real = region.minimize
    monkeypatch.setattr(region, "minimize", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [maximize_product(r, k, seed=seed) for seed in (None, 1, 999)]
    first = reports[0]
    for rep in reports:
        assert rep == first and rep.value.hex() == first.value.hex()
        assert rep.diagnostics["path"] == path
    assert calls == [(r, k)] * 3 * (path == "bend")


def test_below_threshold_value_exceeds_bound():
    rep = maximize_product(6, 1)
    assert rep.value > float(product_bound(6)) + 1e-6


def test_maximize_validates_k():
    with pytest.raises(ValueError):
        maximize_product(6, 4)


@pytest.mark.parametrize("r", [4, 9, 40])
def test_region_constraints_model(r):
    for k in range(1, r // 2 + 1):
        model = RegionConstraints(r, k)
        n_tent = sum(r - 2 * i + 1 for i in range(1, k + 1))
        assert model.n_tent == n_tent
        assert len(model.labels) == model.A.shape[0] == n_tent + r - 1
        assert model.A.shape[1] == r
        assert model.A[:n_tent].sum(axis=1).tolist() == [1] * n_tent
        assert model.A[n_tent:].sum(axis=1).tolist() == [0] * (r - 1)
        assert all(lab[0] == "tent" for lab in model.labels[:n_tent])
        x = linear_point(r, k, exact=True).x
        slack = model.slack(x)
        assert list(slack[:n_tent]) == [0] * n_tent
        assert list(slack[n_tent:]) == [Fraction(1, r)] * (r - 1)
        # slack is -A @ x, in exact arithmetic
        assert [-sum(int(a) * v for a, v in zip(row, x)) for row in model.A] == list(slack)
        assert all(model.index(lab) == t for t, lab in enumerate(model.labels))


def test_region_constraints_lookup():
    def normal(label, r, k):
        model = RegionConstraints(r, k)
        return model.A[model.index(label)].tolist()

    assert normal(("tent", 2, 2, 4), 5, 2) == [0, 2, 0, -1, 0]
    assert normal(["tent", 1, 3, 4], 4, 1) == [1, 0, 1, -1]
    assert normal(("monotone", 4, 5), 5, 2) == [0, 0, 0, 1, -1]
    model = RegionConstraints(4, 1)
    for label in [("sum", 1, 2), ("tent", 2, 2, 4), ("tent", 1, 1, 99), ("monotone", 1, 3)]:
        with pytest.raises(ValueError):
            model.index(label)
    for k in (0, 4):
        with pytest.raises(ValueError):
            RegionConstraints(6, k)


def exact_kkt(r, k):
    return kkt_certificate(linear_point(r, k, exact=True))


def _exact_residual(r, k, kkt):
    """Exact gradient r/i minus the cone combination at the linear point,
    coordinates 1..r-1; coordinate r is closed by nu = 1 - (A^T mu)_r."""
    model = RegionConstraints(r, k)
    rows = [model.index(label) for label in kkt["active"]]
    combo = model.combine(rows, [Fraction(mu) for mu in kkt["multipliers"]])
    return [Fraction(r, i) - c for i, c in enumerate(combo[:-1], 1)]


def test_exact_kkt_certifies_every_theorem_row():
    for r in range(4, 41):
        k = ceil_r_over_e(r)
        kkt = exact_kkt(r, k)
        assert kkt["optimal"] and kkt["exact"], r
        mus = [Fraction(v) for v in kkt["multipliers"]]
        assert all(mu > 0 for mu in mus), r
        assert len(mus) == len(kkt["active"]) <= r - 1  # a vertex of the cone
        assert all(lab[0] == "tent" and lab[1] <= k for lab in kkt["active"])
        assert not any(_exact_residual(r, k, kkt)), r
        assert kkt["residual"] == 0.0


@pytest.mark.parametrize("r", range(4, 41))
def test_exact_kkt_at_floor_follows_fprime_sign(r):
    k = floor_r_over_e(r)
    assert exact_kkt(r, k)["optimal"] == (fprime_zero(r, k) < 0)


@pytest.mark.parametrize("r", [60, 100, 200])
def test_exact_kkt_certifies_beyond_the_table(r):
    k = ceil_r_over_e(r)
    kkt = exact_kkt(r, k)
    assert kkt["optimal"] and kkt["exact"]
    assert all(Fraction(mu) > 0 for mu in kkt["multipliers"])
    assert not any(_exact_residual(r, k, kkt))
    assert len(kkt["active"]) == maximize_product(r, k).diagnostics["fit"]["support"] <= r - 1
    model = RegionConstraints(r, k)
    rows = [model.index(label) for label in kkt["active"]]
    assert dual_bound(model, rows, [Fraction(mu) for mu in kkt["multipliers"]]) \
        == product_bound(r)


def test_stick_cuts_certify_exactly_when_fprime_nonpositive():
    # every (r, k) with 4 <= r <= 60: the exact linear point is certified
    # exactly when f'(0) <= 0, and then its dual bound is r!/r^r itself
    for r in range(4, 61):
        for k in range(1, r // 2 + 1):
            kkt = exact_kkt(r, k)
            assert kkt["optimal"] == (fprime_zero(r, k) <= 0), (r, k)
            if kkt["optimal"]:
                model = RegionConstraints(r, k)
                rows = [model.index(label) for label in kkt["active"]]
                mus = [Fraction(mu) for mu in kkt["multipliers"]]
                assert dual_bound(model, rows, mus) == product_bound(r), (r, k)


def test_exact_kkt_fails_below_threshold():
    for r, k in [(6, 1), (12, 2), (30, 5)]:
        kkt = exact_kkt(r, k)
        assert kkt["exact"] and not kkt["optimal"] and kkt["residual"] is None


def test_exact_kkt_at_non_optimal_point_has_no_float_fallback(monkeypatch):
    # the counterexample is the bend at eps = 1/5, short of the optimum: the
    # stick cuts leave a residual far above TOL_KKT, and no least-squares
    # fit stands in
    def no_nnls(*args, **kwargs):
        raise AssertionError("kkt_certificate called nnls")

    monkeypatch.setattr(region, "nnls", no_nnls)
    point = counterexample_point(6, 1)
    assert point.x == bend_point(6, 1, Fraction(1, 5)).x
    kkt = kkt_certificate(point)
    assert kkt["residual"] > TOL_KKT
    assert kkt == {"optimal": False, "residual": kkt["residual"], "active": [],
                   "multipliers": [], "exact": False}


def test_maximize_product_certifies_linear_point_exactly(monkeypatch):
    def no_bend(*args, **kwargs):
        raise AssertionError("the bend solve ran although the exact step certified i/r")

    monkeypatch.setattr(region, "minimize", no_bend)
    rep = maximize_product(9, 4)
    assert rep.status == "converged"
    assert rep.value == float(product_bound(9))
    assert rep.argmax.x == linear_point(9, 4, exact=True).x
    kkt = rep.kkt
    assert kkt["residual"] == 0.0 and kkt["exact"] is True
    assert not any(_exact_residual(9, 4, kkt))
    assert rep.bracket == {"lower": product_bound(9), "upper": product_bound(9), "eps": 0}
    assert rep.diagnostics["fit"] == {"support": len(kkt["active"])}
    assert len(kkt["active"]) > 0


def test_maximize_product_skips_exact_step_when_fprime_positive(monkeypatch):
    # f'(0) > 0: the stick cuts run once, at the bend, and never at eps = 0
    calls = []
    real = region._stick_cuts
    monkeypatch.setattr(region, "_stick_cuts",
                        lambda r, k, eps: calls.append(eps) or real(r, k, eps))
    rep = maximize_product(6, 1)
    assert rep.value > float(product_bound(6))
    assert calls == [rep.bracket["eps"]] and rep.bracket["eps"] > 0
    assert rep.diagnostics == {"path": "bend", "nit": rep.diagnostics["nit"],
                               "fit": {"support": len(rep.kkt["active"])},
                               "seconds": rep.diagnostics["seconds"]}
    assert rep.kkt["exact"] is False and rep.kkt["optimal"]


def test_region_grid_loads_no_scipy():
    # a fresh interpreter runs maximize_product over the 280 region-sweep
    # cases: every one converges, each bend in a few Newton steps, and no
    # scipy module is loaded
    code = ("import json, sys\n"
            "from tentopt.region import floor_r_over_e, maximize_product\n"
            "bad = []\n"
            "grid = [(r, k) for r in range(4, 41)\n"
            "        for k in range(1, min(floor_r_over_e(r), r // 2) + 1)]\n"
            "for r, k in grid:\n"
            "    rep = maximize_product(r, k)\n"
            "    nit = rep.diagnostics.get('nit')\n"
            "    if rep.status != 'converged' or not (nit is None or 1 <= nit < 100):\n"
            "        bad.append((r, k))\n"
            "print(json.dumps([len(grid), bad,\n"
            "                  sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [280, [], []]


def _last_bend_k(r):
    return max(k for k in range(1, r // 2 + 1) if fprime_zero(r, k) > 0)


@pytest.mark.parametrize("r, k", [(r, k) for r in (60, 100, 200) for k in (1, _last_bend_k(r))])
def test_bend_certifies_beyond_the_grid(monkeypatch, r, k):
    def no_nnls(*args, **kwargs):
        raise AssertionError("maximize_product called nnls")

    monkeypatch.setattr(region, "nnls", no_nnls)
    rep = maximize_product(r, k)
    lower, upper = rep.bracket["lower"], rep.bracket["upper"]
    assert rep.status == "converged" and rep.diagnostics["path"] == "bend"
    assert lower <= upper <= (1 + Fraction(1, 10**20)) * lower
    assert rep.diagnostics["fit"]["support"] == len(rep.kkt["active"]) <= r - 1
    assert rep.kkt["residual"] < TOL_KKT and rep.kkt["exact"] is False
    probe = Certificate("region-probe", "region-probe", {"r": r, "k": k}, _max_evidence(rep))
    passed, checks = verify_certificate(probe)
    assert passed, [check for check in checks if not check[1]]


def test_bend_bracket_certifies_the_grid():
    # every r <= 40 and k <= floor(r/e): an exact point, a bracket far inside
    # TOL_REL, a product no smaller than the counterexample construction's,
    # and a probe certificate that verifies
    grid = [(r, k) for r in range(4, 41) for k in range(1, min(floor_r_over_e(r), r // 2) + 1)]
    assert len(grid) == 280
    for r, k in grid:
        rep = maximize_product(r, k)
        lower, upper = rep.bracket["lower"], rep.bracket["upper"]
        assert rep.status == "converged", (r, k)
        assert rep.argmax.is_exact and check_feasible(rep.argmax.x, r, k, tol=0)[0], (r, k)
        assert rep.argmax.x == bend_point(r, k, rep.bracket["eps"]).x
        assert lower == math.prod(rep.argmax.x) and rep.value == float(lower)
        assert lower <= upper <= (1 + Fraction(1, 10**20)) * lower, (r, k)
        assert lower >= product_bound(r)
        if k < floor_r_over_e(r):
            assert lower > math.prod(counterexample_point(r, k).x), (r, k)
        probe = Certificate("region-probe", "region-probe", {"r": r, "k": k}, _max_evidence(rep))
        passed, checks = verify_certificate(probe)
        assert passed, (r, k, [check for check in checks if not check[1]])


def test_dual_bound_needs_nonnegative_multipliers_and_positive_c():
    model = RegionConstraints(6, 3)
    assert dual_bound(model, [], []) is None  # nu = 0
    assert dual_bound(model, [model.index(("tent", 1, 1, 2))], [Fraction(-1)]) is None
    # exact KKT multipliers at the linear point make c = 1/x and U = L, and U
    # does not change when mu is scaled
    kkt = exact_kkt(6, 3)
    rows = [model.index(lab) for lab in kkt["active"]]
    mus = [Fraction(mu) for mu in kkt["multipliers"]]
    assert dual_bound(model, rows, mus) == product_bound(6)
    assert dual_bound(model, rows, [mu / 3 for mu in mus]) == product_bound(6)


@pytest.mark.parametrize("r", range(4, 17))
def test_status_agrees_with_kkt(r):
    for k in range(1, r // 2 + 1):
        rep = maximize_product(r, k)
        certified = rep.kkt["optimal"] and rep.kkt["residual"] < TOL_KKT
        assert (rep.status == "converged") == certified, (r, k)
        assert rep.status == "converged", (r, k)


@pytest.mark.parametrize("r, k", [(12, 2), (18, 1), (23, 1), (34, 10), (37, 1), (39, 2)]
                         + [(40, k) for k in range(1, 21)])
def test_single_solve_certifies(r, k):
    # an earlier multistart SLSQP solver left these uncertified or up to
    # 1e-9 outside the region, and at (37, 1) 3e-7 above the optimum; the
    # bend point's stick-cut multipliers must certify them too
    rep = maximize_product(r, k)
    assert rep.status == "converged" and rep.kkt["residual"] < TOL_KKT
    assert RegionConstraints(r, k).slack(rep.argmax.as_floats()).min() >= -1e-12
    known = (counterexample_point(r, k) if k < floor_r_over_e(r) else linear_point(r, k)).product()
    assert rep.value >= (1 - TOL_REL) * float(known)


def test_optimum_exceeds_bound_is_relative():
    # r!/r^r is about 5e-13 at r = 31, so an absolute 1e-12 margin hid this
    # 0.1% excess at k = floor(31/e), where f'(0) > 0
    rep = maximize_product(31, 11)
    assert rep.value > rep.bound * (1 + 1e-6)
    rep = maximize_product(30, 11)
    assert rep.value <= rep.bound * (1 + TOL_REL)


def test_kkt_certificate_at_optimum():
    cert = kkt_certificate(linear_point(5, 2, exact=True))
    assert cert["optimal"] and cert["exact"] and cert["residual"] == 0.0
    assert all(Fraction(m) > 0 for m in cert["multipliers"])
    # only an exact bend point is fitted: its float copy gets no multipliers
    assert kkt_certificate(linear_point(5, 2)) == {
        "optimal": False, "residual": None, "active": [], "multipliers": [], "exact": False}


def test_kkt_interior_point_improves_by_gradient():
    # strictly increasing gaps leave every tent constraint slack, so only
    # the x_r = 1 face is active and the gradient itself improves; the point
    # is off the bend, so nothing is fitted, in floats or exactly
    x = tuple(np.cumsum(np.arange(1, 7)) / 21)
    cert = kkt_certificate(FeasiblePoint(r=6, k=1, x=x))
    assert not cert["optimal"] and cert["active"] == [] and cert["multipliers"] == []
    assert cert["residual"] is None and cert["exact"] is False
    exact = FeasiblePoint(r=6, k=1, x=tuple(Fraction(v, 21) for v in (1, 3, 6, 10, 15, 21)))
    cert = kkt_certificate(exact)
    assert cert["exact"] and not cert["optimal"] and cert["active"] == []


@pytest.mark.parametrize("r,k", [(6, 1), (9, 1), (9, 2), (12, 3), (15, 4)])
def test_counterexample_exact(r, k):
    p = counterexample_point(r, k)
    assert all(isinstance(v, Fraction) for v in p.x)
    ok, _ = check_feasible(p.x, r, k, tol=0)
    assert ok
    assert math.prod(p.x) > product_bound(r)


def test_counterexample_rejects_large_k():
    # the construction needs f'(0) > 0 and a tent, 1 <= k <= r/2
    for r, k in [(6, 2), (6, 0), (6, 4)]:
        with pytest.raises(ValueError):
            counterexample_point(r, k)


def test_counterexample_follows_fprime_sign():
    # (7, 2) has f'(0) = 13/20 > 0 though 2 = floor(7/e), and (4, 1) has
    # f'(0) = 1/3 though floor(4/e) = 1
    assert fprime_zero(7, 2) == Fraction(13, 20)
    for r, k in [(7, 2), (4, 1), (12, 4), (31, 11)]:
        point = counterexample_point(r, k)
        assert point.is_exact and math.prod(point.x) > product_bound(r), (r, k)
        assert point.x == bend_point(r, k, 1 - r * point.x[0]).x
    with pytest.raises(ValueError, match="f'"):
        counterexample_point(6, 2)  # f'(0; 6, 2) = -3/10
    # every tent count k <= r/2 at r <= 40: a point exactly when f'(0) > 0
    for r in range(4, 41):
        for k in range(1, r // 2 + 1):
            if fprime_zero(r, k) > 0:
                assert math.prod(counterexample_point(r, k).x) > product_bound(r), (r, k)
            else:
                with pytest.raises(ValueError):
                    counterexample_point(r, k)


def test_fprime_zero_values():
    assert fprime_zero(6, 1) == Fraction(27, 10)
    assert fprime_zero(4, 2) == Fraction(-5, 3)
    assert fprime_zero(5, 5) == -5


def test_fprime_zero_matches_the_fraction_sum():
    # every 1 <= k <= r <= 200 against -k + sum_{i>k} (r - i)/i, the sum
    # accumulated in Fractions from i = r down
    for r in range(1, 201):
        tail = Fraction(0)
        for k in range(r, 0, -1):
            assert fprime_zero(r, k) == tail - k, (r, k)
            tail += Fraction(r - k, k)
    for r, k in [(5, 0), (5, 6)]:
        with pytest.raises(ValueError):
            fprime_zero(r, k)


def test_fprime_zero_is_r_times_harmonic_tail():
    # f'(0) = r (H_r - H_k - 1), the closed form proved in its docstring
    H = [Fraction(0)]
    for n in range(1, 121):
        H.append(H[-1] + Fraction(1, n))
    for r in range(1, 121):
        for k in range(1, r + 1):
            assert fprime_zero(r, k) == r * (H[r] - H[k] - 1), (r, k)


def test_threshold_is_floor_or_ceil_of_r_over_e():
    # k*(r) = min{k : H_r - H_k <= 1}, found from k = r down with the tail
    # H_r - H_k kept as an integer over L = lcm(1..r)
    for r in range(3, 401):
        L = math.lcm(*range(1, r + 1))
        k, tail = r, 0
        while tail + L // k <= L:
            tail += L // k
            k -= 1
        assert k in (floor_r_over_e(r), ceil_r_over_e(r)), r
        assert fprime_zero(r, k) <= 0, r
        assert k == 1 or fprime_zero(r, k - 1) > 0, r


@pytest.mark.parametrize("r", range(4, 41))
def test_fprime_sign_structure(r):
    assert fprime_zero(r, ceil_r_over_e(r)) <= 0
    for k in range(1, floor_r_over_e(r)):
        assert fprime_zero(r, k) > 0


def test_upper_bound_gap():
    assert upper_bound_gap(4, 4) == pytest.approx(-4.0)
    assert upper_bound_gap(6, 1) > 0
    for r in range(4, 41):
        assert upper_bound_gap(r, ceil_r_over_e(r)) < 0


@given(st.floats(0.01, 0.24), st.floats(0.25, 0.49), st.floats(1e-6, 1e-3))
@settings(max_examples=200, deadline=None)
def test_quartic_inequality_small_eps(a, b, eps):
    holds, fp = quartic_inequality(a, b, eps)
    assert fp == pytest.approx((b - a) * ((1 - a) * (1 - b) + a * b))
    if fp > 10 * eps:  # comfortably inside the first-order regime
        assert holds


def test_quartic_inequality_domain():
    with pytest.raises(ValueError):
        quartic_inequality(0.3, 0.1, 0.01)
    with pytest.raises(ValueError):
        quartic_inequality(0.1, 0.3, 0.0)


def test_segments_linear_point():
    dec = segments(linear_point(6, 2))
    assert dec.initial_length == 6
    assert len(dec.segments) == 1
    s = dec.segments[0]
    assert (s.L, s.R) == (0, 6) and s.super_ and not s.central


def test_segments_counterexample_point():
    p = bend_point(6, 1, Fraction(1, 100))
    q = FeasiblePoint(r=6, k=1, x=tuple(float(v) for v in p.x))
    dec = segments(q)
    assert dec.initial_length == 1
    assert {(s.L, s.R) for s in dec.segments} == {(0, 1), (2, 6)}


def test_segments_flags():
    # x = (0.1, 0.25, 0.5, 0.75, 0.9, 1): segments [0,1],[2],[3],[4],[5,6]
    p = FeasiblePoint(r=6, k=2, x=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0))
    dec = segments(p)
    spans = {(s.L, s.R): s for s in dec.segments}
    assert set(spans) == {(0, 1), (2, 2), (3, 3), (4, 4), (5, 6)}
    assert dec.initial_length == 1
    assert spans[(3, 3)].central
    assert spans[(2, 2)].left_crossing is False and spans[(2, 2)].central is False
    assert spans[(0, 1)].super_ and spans[(5, 6)].super_


def test_segment_length_cap_on_corpus():
    # with initial length I <= k-1, every segment has length <= I+1
    rng = np.random.default_rng(41)
    for _ in range(10):
        r = int(rng.integers(6, 11))
        k = int(rng.integers(2, r // 2 + 1))
        p = random_symmetric_point(r, k, rng)
        dec = segments(p)
        assert all(s.length <= dec.initial_length + 1 for s in dec.segments)


def test_perturb_preconditions():
    with pytest.raises(ValueError):
        perturb(linear_point(6, 2), 1e-3)  # I = r >= k
    asym = FeasiblePoint(r=6, k=2, x=(0.05, 0.2, 0.5, 0.75, 0.9, 1.0))
    with pytest.raises(ValueError):
        perturb(asym, 1e-3)


def test_perturb_eps_zero_is_identity():
    p = FeasiblePoint(r=6, k=2, x=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0))
    np.testing.assert_allclose(perturb(p, 0.0), p.as_floats())


def test_perturb_worked_example():
    p = FeasiblePoint(r=6, k=2, x=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0))
    y = perturb(p, 0.01)
    np.testing.assert_allclose(y, [0.11, 0.25, 0.5, 0.75, 0.89, 1.0])
    ok, _ = check_feasible(y, 6, 2, tol=0.0)
    assert ok and np.prod(y) > p.product()


def test_perturbation_corpus_improves():
    rng = np.random.default_rng(20240817)
    improved = 0
    for _ in range(25):
        r = int(rng.integers(6, 13))
        k = int(rng.integers(2, r // 2 + 1))
        p = random_symmetric_point(r, k, rng)
        eps0 = bisect_perturbation_eps(p)
        assert eps0 > 0
        y = perturb(p, eps0 / 2)
        ok, bad = check_feasible(y, p.r, p.k, tol=1e-12)
        assert ok, bad
        assert float(np.prod(y)) > p.product()
        improved += 1
    assert improved == 25


def test_probe_floor_reports():
    rep = maximize_product(6, floor_r_over_e(6))
    assert rep.argmax.k == 2
    assert rep.value >= float(product_bound(6)) - 1e-9
    rep3 = maximize_product(3, floor_r_over_e(3))
    assert rep3.value == pytest.approx(6 / 27, abs=1e-6)


def test_infeasible_exact_point_raises():
    x = [Fraction(i, 6) for i in range(1, 7)]
    x[0] += Fraction(1, 100)  # x_1 + x_1 > x_2
    with pytest.raises(ValueError):
        FeasiblePoint(r=6, k=1, x=tuple(x))
    assert FeasiblePoint(r=6, k=1, x=tuple(Fraction(i, 6) for i in range(1, 7))).is_exact


def test_counterexample_checks_each_candidate_once(monkeypatch):
    """One candidate, eps = 1/m, checked exactly once, with no tolerance."""
    calls = []
    real = region.check_feasible

    def spy(x, r, k, tol=region.TOL_FEAS):
        calls.append(tol)
        return real(x, r, k, tol)

    monkeypatch.setattr(region, "check_feasible", spy)
    p = counterexample_point(9, 2)
    assert 1 - 9 * p.x[0] == Fraction(1, 5)
    assert calls == [0]


def test_counterexample_eps_is_below_the_bend_optimum():
    # eps = 1/m lies below the first Newton step u_1/(1 + u_1), so in
    # (0, eps*] for the bend optimum eps* that ``minimize`` solves for
    for r in range(4, 41):
        for k in range(1, r // 2 + 1):
            fp = fprime_zero(r, k)
            if fp <= 0:
                break
            s2 = sum(Fraction(r - i, i * i) for i in range(k + 1, r + 1))
            m = 1 + math.ceil(r * s2 / fp)
            point = counterexample_point(r, k)
            eps = 1 - r * point.x[0]
            assert eps == Fraction(1, m), (r, k)
            assert 0 < eps <= minimize(r, k).eps, (r, k)
            assert math.prod(point.x) > product_bound(r), (r, k)
    assert [1 - r * counterexample_point(r, k).x[0]
            for r, k in [(6, 1), (7, 2), (31, 11), (200, 73)]] == [
        Fraction(1, 5), Fraction(1, 9), Fraction(1, 97), Fraction(1, 206)]


def test_counterexample_at_the_largest_k_up_to_r_200():
    # the tent count just below the threshold, where the bend gains least:
    # f'(0) falls as k grows, and the threshold is floor(r/e) or ceil(r/e)
    for r in range(4, 201):
        k = floor_r_over_e(r) - (fprime_zero(r, floor_r_over_e(r)) <= 0)
        assert fprime_zero(r, k) > 0 >= fprime_zero(r, k + 1), r
        point = counterexample_point(r, k)
        assert point.is_exact and math.prod(point.x) > product_bound(r), (r, k)
        with pytest.raises(ValueError, match="f'"):
            counterexample_point(r, k + 1)


# -- every consumer reads the same constraint rows ---------------------------


def _expected_violations(model, x, tol):
    """(description, slack) of every row with -A @ x < -tol, from the dense
    normals and plain Python sums."""
    out = []
    for label, row in zip(model.labels, model.A):
        slack = -sum(int(a) * v for a, v in zip(row, x))
        if slack < -tol:
            if label[0] == "tent":
                out.append((f"x_{label[1]} + x_{label[2]} <= x_{label[3]}", slack))
            else:
                out.append((f"x_{label[1]} <= x_{label[2]}", slack))
    return out


@pytest.mark.parametrize("r, k", [(5, 2), (9, 3), (12, 1), (12, 6)])
def test_check_feasible_reports_model_rows(r, k):
    rng = np.random.default_rng(r * 100 + k)
    model = RegionConstraints(r, k)
    base = np.arange(1, r + 1) / r
    for trial in range(40):
        x = base + rng.normal(scale=[0.0, 1e-9, 1e-3, 1e-1][trial % 4], size=r)
        if trial % 8 < 4:
            x = np.sort(x)  # only tent rows can fail
        x[0] = abs(x[0])
        x[-1] = 1.0
        if trial % 3 == 0:
            x = [Fraction(v).limit_denominator(10**6) for v in x[:-1]] + [Fraction(1)]
            tol = 0
        else:
            tol = TOL_FEAS
        ok, bad = check_feasible(x, r, k, tol)
        want = _expected_violations(model, x, tol)
        assert [name for name, _ in bad] == [name for name, _ in want]
        assert all(abs(got - exp) <= 1e-15 for (_, got), (_, exp) in zip(bad, want))
        assert ok == (not want)


def _fraction_slack(model, x):
    """-A @ x row for row, one Fraction subtraction at a time."""
    return ([x[s - 1] - x[i - 1] - x[j - 1] for _, i, j, s in model.labels[:model.n_tent]]
            + [x[i] - x[i - 1] for i in range(1, model.r)])


@st.composite
def rational_points(draw):
    """(r, k, x): x near the linear point (often feasible) or anywhere in
    [-1, 2] (mostly not), with Fraction and int coordinates."""
    r = draw(st.integers(2, 16))
    k = draw(st.integers(1, r // 2))
    if draw(st.booleans()):
        step = Fraction(1, 4 * r)
        x = [Fraction(i, r) + draw(st.fractions(-step, step, max_denominator=10**6))
             for i in range(1, r)] + [draw(st.sampled_from([1, Fraction(1), Fraction(9, 8)]))]
    else:
        x = draw(st.lists(st.one_of(st.fractions(-1, 2, max_denominator=10**12),
                                    st.integers(-1, 2)), min_size=r, max_size=r))
    return r, k, x


@given(rational_points(), st.sampled_from([0, TOL_FEAS, Fraction(1, 1000)]))
@settings(max_examples=200, deadline=None)
def test_integer_exact_slack_matches_fraction_slack(point, tol):
    r, k, x = point
    model = RegionConstraints(r, k)
    want = _fraction_slack(model, x)
    N, D = model.scaled_slack(x)
    assert type(N) is list and all(type(n) is int for n in N)
    assert D > 0 and [Fraction(n, D) for n in N] == want
    assert model.slack(x) == want
    ok, bad = check_feasible(x, r, k, tol)
    rows = [(name, v) for name, v in bad if name not in ("x_1 > 0", "x_r = 1")]
    expected = _expected_violations(model, x, tol)
    assert rows == expected and all(type(v) is Fraction for _, v in rows)
    assert ok == (not expected and x[0] > 0 and abs(x[-1] - 1) <= tol)
