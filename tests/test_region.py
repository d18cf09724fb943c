import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tentopt.region as region
from tentopt.region import (
    TOL_KKT,
    FeasiblePoint,
    bisect_perturbation_eps,
    ceil_r_over_e,
    check_feasible,
    counterexample_point,
    exact_kkt_at_linear_point,
    floor_r_over_e,
    fprime_zero,
    full_normal,
    kkt_certificate,
    linear_point,
    maximize_product,
    perturb,
    probe_floor_case,
    product_bound,
    quartic_inequality,
    random_feasible_point,
    random_symmetric_point,
    segments,
    tight_constraints_at_linear_point,
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
            assert tight_constraints_at_linear_point(r, k)


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


@given(st.integers(4, 10), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_sorted_increment_sampler_feasible_for_all_k(r, seed):
    rng = np.random.default_rng(seed)
    p = random_feasible_point(r, 1, rng)
    for k in range(1, r // 2 + 1):
        ok, bad = check_feasible(p.x, r, k, tol=1e-9)
        assert ok, bad


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


def test_restart_agreement():
    # strictly concave objective: every restart lands on one optimum
    a = maximize_product(7, 3, restarts=4, seed=1)
    b = maximize_product(7, 3, restarts=12, seed=999)
    assert abs(a.value - b.value) < 1e-8


def test_below_threshold_value_exceeds_bound():
    rep = maximize_product(6, 1)
    assert rep.value > float(product_bound(6)) + 1e-6


def test_maximize_validates_k():
    with pytest.raises(ValueError):
        maximize_product(6, 4)


def test_full_normal():
    assert full_normal(("tent", 2, 2, 4), 5).tolist() == [0, 2, 0, -1, 0]
    assert full_normal(("tent", 1, 3, 4), 4).tolist() == [1, 0, 1, -1]
    assert full_normal(("monotone", 4, 5), 5).tolist() == [0, 0, 0, 1, -1]
    with pytest.raises(ValueError):
        full_normal(("sum", 1, 2), 4)


def _exact_residual(r, kkt):
    """Exact gradient minus the cone combination, coordinates 1..r."""
    out = [Fraction(r, i) for i in range(1, r + 1)]
    for label, mu in zip(kkt["active"], kkt["multipliers_exact"]):
        out = [o - Fraction(mu) * int(a) for o, a in zip(out, full_normal(label, r))]
    out[r - 1] -= Fraction(kkt["equality_multiplier_exact"])
    return out


def test_exact_kkt_certifies_every_theorem_row():
    for r in range(4, 41):
        k = ceil_r_over_e(r)
        kkt = exact_kkt_at_linear_point(r, k)
        assert kkt is not None, r
        mus = [Fraction(v) for v in kkt["multipliers_exact"]]
        assert all(mu > 0 for mu in mus), r
        assert len(mus) == len(kkt["active"]) <= r - 1  # a vertex of the cone
        assert all(lab[0] == "tent" and lab[1] <= k for lab in kkt["active"])
        assert not any(_exact_residual(r, kkt)), r
        assert kkt["multipliers"] == [float(mu) for mu in mus]
        assert kkt["optimal"] and kkt["residual"] == 0.0


@pytest.mark.parametrize("r", range(4, 41))
def test_exact_kkt_at_floor_follows_fprime_sign(r):
    k = floor_r_over_e(r)
    assert (exact_kkt_at_linear_point(r, k) is not None) == (fprime_zero(r, k) < 0)


def test_exact_kkt_fails_below_threshold():
    for r, k in [(6, 1), (12, 2), (30, 5)]:
        assert exact_kkt_at_linear_point(r, k) is None


def test_maximize_product_certifies_linear_point_exactly(monkeypatch):
    def no_slsqp(*args, **kwargs):
        raise AssertionError("SLSQP ran although the exact step certified i/r")

    monkeypatch.setattr(region, "minimize", no_slsqp)
    rep = maximize_product(9, 4, exact=True)
    assert rep.status == "converged"
    assert rep.value == float(product_bound(9))
    assert rep.argmax.x == linear_point(9, 4).x
    kkt = rep.kkt
    assert kkt["residual"] == 0.0
    top = sum(Fraction(mu) for lab, mu in zip(kkt["active"], kkt["multipliers_exact"])
              if lab[3] == 9)
    assert Fraction(kkt["equality_multiplier_exact"]) == 1 + top
    assert kkt["equality_multiplier"] == float(1 + top)
    assert rep.exact["optimum_exceeds_bound"] is False


def test_maximize_product_skips_exact_step_when_fprime_positive(monkeypatch):
    def no_lp(r, k):
        raise AssertionError("the linear-point LP ran although f'(0) > 0")

    monkeypatch.setattr(region, "exact_kkt_at_linear_point", no_lp)
    rep = maximize_product(6, 1)
    assert rep.value > float(product_bound(6))


def test_maximize_product_falls_back_to_slsqp(monkeypatch):
    monkeypatch.setattr(region, "exact_kkt_at_linear_point", lambda r, k: None)
    rep = maximize_product(9, 4)
    assert "multipliers_exact" not in rep.kkt
    assert rep.value == pytest.approx(float(product_bound(9)), rel=1e-9)
    assert rep.status == "converged"


@pytest.mark.parametrize("r", range(4, 17))
def test_status_agrees_with_kkt(r):
    for k in range(1, r // 2 + 1):
        rep = maximize_product(r, k)
        certified = rep.kkt["optimal"] and rep.kkt["residual"] < TOL_KKT
        assert (rep.status == "converged") == certified, (r, k)


def test_optimum_exceeds_bound_is_relative():
    # r!/r^r is about 5e-13 at r = 31, so an absolute 1e-12 margin hid this
    # 0.1% excess at k = floor(31/e), where f'(0) > 0
    rep = maximize_product(31, 11, exact=True)
    assert rep.value > rep.bound * (1 + 1e-6)
    assert rep.exact["optimum_exceeds_bound"] is True
    assert maximize_product(30, 11, exact=True).exact["optimum_exceeds_bound"] is False


def test_kkt_certificate_at_optimum():
    cert = kkt_certificate(linear_point(5, 2))
    assert cert["optimal"]
    assert all(m >= -1e-12 for m in cert["multipliers"])


def test_kkt_improving_direction_below_threshold():
    cert = kkt_certificate(linear_point(6, 1))
    assert not cert["optimal"]
    d = np.asarray(cert["improving_direction"])
    assert cert["directional_derivative"] > 1e-6
    assert abs(d[-1]) < 1e-9  # stays on the x_r = 1 face


def test_kkt_interior_point_improves_by_gradient():
    # strictly increasing gaps leave every tent constraint slack, so only
    # the x_r = 1 face is active and the gradient itself improves
    x = tuple(np.cumsum(np.arange(1, 7)) / 21)
    p = FeasiblePoint(r=6, k=1, x=x)
    cert = kkt_certificate(p)
    assert not cert["optimal"] and cert["directional_derivative"] > 0


@pytest.mark.parametrize("r,k", [(6, 1), (9, 1), (9, 2), (12, 3), (15, 4)])
def test_counterexample_exact(r, k):
    p = counterexample_point(r, k)
    assert all(isinstance(v, Fraction) for v in p.x)
    ok, _ = check_feasible(p.x, r, k, tol=0)
    assert ok
    assert math.prod(p.x) > product_bound(r)


def test_counterexample_eps_zero_degenerates():
    p = counterexample_point(6, 1, 0)
    assert p.x == tuple(Fraction(i, 6) for i in range(1, 7))


def test_counterexample_rejects_large_k():
    with pytest.raises(ValueError):
        counterexample_point(6, 2)  # floor(6/e) = 2, needs k < 2
    with pytest.raises(ValueError):
        counterexample_point(4, 1)  # floor(4/e) = 1, empty range


def test_fprime_zero_values():
    assert fprime_zero(6, 1) == Fraction(27, 10)
    assert fprime_zero(4, 2) == Fraction(-5, 3)
    assert fprime_zero(5, 5) == -5


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
    p = counterexample_point(6, 1, Fraction(1, 100))
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
    rep = probe_floor_case(6)
    assert rep.argmax.k == 2
    assert rep.value >= float(product_bound(6)) - 1e-9
    rep3 = probe_floor_case(3)
    assert rep3.value == pytest.approx(6 / 27, abs=1e-6)


def test_infeasible_exact_point_raises():
    x = [Fraction(i, 6) for i in range(1, 7)]
    x[0] += Fraction(1, 100)  # x_1 + x_1 > x_2
    with pytest.raises(ValueError):
        FeasiblePoint(r=6, k=1, x=tuple(x))
    assert FeasiblePoint(r=6, k=1, x=tuple(Fraction(i, 6) for i in range(1, 7))).is_exact


def test_counterexample_checks_each_candidate_once(monkeypatch):
    """eps = 1 bends x_1 to 0, so halvings are needed; every candidate is
    checked exactly once, with no tolerance."""
    calls = []
    real = region.check_feasible

    def spy(x, r, k, tol=region.TOL_FEAS):
        calls.append(tol)
        return real(x, r, k, tol)

    monkeypatch.setattr(region, "check_feasible", spy)
    p = counterexample_point(9, 2, eps=1)
    eps = 1 - 9 * p.x[0]
    halvings = (Fraction(1) / eps).numerator.bit_length() - 1
    assert Fraction(1, 2 ** halvings) == eps and halvings >= 1
    assert calls == [0] * (halvings + 1)
