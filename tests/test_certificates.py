import json
import math
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentopt.certificates import (
    ANCHOR_INDEX,
    Certificate,
    counterexample_evidence,
    max_evidence,
    verify_certificate,
)
from tentopt.region import (
    RegionConstraints,
    ceil_r_over_e,
    counterexample_point,
    dual_bound,
    floor_r_over_e,
    fprime_zero,
    maximize_product,
)


def max_certificate(r=5, k=2, claim="region-product-maximum"):
    return Certificate(
        claim=claim,
        anchor=claim,
        config={"seed": 42, "r": r, "k": k},
        evidence=max_evidence(maximize_product(r, k)),
    )


def counterexample_certificate(r=6, k=1):
    return Certificate(
        claim="region-counterexample",
        anchor="region-counterexample",
        config={"seed": 42, "r": r, "k": k},
        evidence=counterexample_evidence(counterexample_point(r, k)),
    )


def count_model_builds(monkeypatch):
    """Count RegionConstraints builds and builds of its cached ``labels``
    and ``_row_of``, the costly part of a model."""
    counts = dict.fromkeys(("models", "labels", "_row_of"), 0)
    init = RegionConstraints.__init__

    def counted_init(self, r, k):
        counts["models"] += 1
        init(self, r, k)

    monkeypatch.setattr(RegionConstraints, "__init__", counted_init)
    for name in ("labels", "_row_of"):
        def build(self, name=name, real=getattr(RegionConstraints, name).func):
            counts[name] += 1
            return real(self)

        prop = cached_property(build)
        prop.__set_name__(RegionConstraints, name)
        monkeypatch.setattr(RegionConstraints, name, prop)
    return counts


def test_one_row_index_per_solve_and_per_verification(monkeypatch):
    counts = count_model_builds(monkeypatch)
    cert = max_certificate(40, 15)
    # the solver's own model, and check_feasible's for the bend point,
    # which reads no label at a feasible point
    assert counts == {"models": 2, "labels": 1, "_row_of": 1}
    counts.update(dict.fromkeys(counts, 0))
    assert verify_certificate(cert)[0]
    assert counts == {"models": 2, "labels": 1, "_row_of": 1}


def test_anchor_index_is_plain_prose():
    for anchor, statement in ANCHOR_INDEX.items():
        assert isinstance(statement, str) and statement


def test_max_certificate_verifies():
    cert = max_certificate()
    passed, checks = verify_certificate(cert)
    assert passed, checks
    names = {n for n, _, _ in checks}
    assert {"anchor-resolves", "point-feasible", "value-matches-point",
            "bracket-point-is-bend", "bracket-multipliers-nonnegative",
            "bracket-dual-feasible", "bracket-ordered", "bracket-closed-iff-exact",
            "kkt-exact", "fprime-nonpositive", "value-equals-bound"} <= names
    # (5, 2) is a theorem row, so its point and multipliers are exact; the
    # bracket stores only eps, and the verifier derives lower and upper
    assert cert.evidence["kkt"]["exact"] is True
    assert cert.evidence["bracket"] == {"eps": "0"}
    assert cert.evidence["x"] == ["1/5", "2/5", "3/5", "4/5", "1"]


def test_counterexample_certificate_verifies():
    passed, checks = verify_certificate(counterexample_certificate())
    assert passed, checks
    assert {"point-feasible-exact", "product-exceeds-bound-exact"} <= {
        n for n, _, _ in checks}


def test_json_round_trip_preserves_verdict():
    cert = max_certificate()
    again = Certificate.from_json(cert.to_json())
    assert verify_certificate(again)[0]
    # serialization is canonical: same object, same bytes
    assert again.to_json() == cert.to_json()


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        Certificate.from_json(json.dumps({"claim": "x", "anchor": "y"}))


def test_tampered_multiplier_fails_named_check():
    cert = max_certificate()
    ev = json.loads(cert.to_json())["evidence"]
    mus = ev["kkt"]["multipliers"]
    if not mus:
        pytest.skip("no inequality multipliers to tamper with")
    mus[0] = str(-abs(Fraction(mus[0])) - 1)
    bad = Certificate(cert.claim, cert.anchor, cert.config, ev)
    passed, checks = verify_certificate(bad)
    assert not passed
    verdicts = {n: ok for n, ok, _ in checks}
    assert verdicts["bracket-multipliers-nonnegative"] is False
    # independent checks still pass
    assert verdicts["point-feasible"] is True


def test_tampered_value_fails_named_check():
    cert = max_certificate()
    ev = json.loads(cert.to_json())["evidence"]
    ev["value"] += 1e-3
    passed, checks = verify_certificate(
        Certificate(cert.claim, cert.anchor, cert.config, ev))
    assert not passed
    assert {n: ok for n, ok, _ in checks}["value-matches-point"] is False


def test_tampered_counterexample_point_fails():
    cert = counterexample_certificate()
    ev = evidence_copy(cert)
    ev["x_exact"][0] = ev["x_exact"][2]  # breaks monotonicity
    passed, checks = verify_certificate(
        Certificate(cert.claim, cert.anchor, cert.config, ev))
    assert not passed
    assert {n: ok for n, ok, _ in checks}["point-feasible-exact"] is False


def test_unknown_anchor_fails():
    cert = max_certificate()
    passed, checks = verify_certificate(
        Certificate(cert.claim, "no-such-anchor", cert.config, cert.evidence))
    assert not passed
    assert checks[0] == ("anchor-resolves", False, "no-such-anchor")


def test_unknown_claim_fails():
    cert = max_certificate()
    passed, checks = verify_certificate(
        Certificate("no-such-claim", cert.anchor, cert.config, cert.evidence))
    assert not passed
    assert ("claim-recognized", False, "no-such-claim") in checks


def test_missing_kkt_payload_fails():
    cert = max_certificate()
    ev = json.loads(cert.to_json())["evidence"]
    ev["kkt"] = {}
    passed, checks = verify_certificate(
        Certificate(cert.claim, cert.anchor, cert.config, ev))
    assert not passed
    assert {n: ok for n, ok, _ in checks}["kkt-payload-present"] is False


def verdicts(cert, evidence):
    passed, checks = verify_certificate(
        Certificate(cert.claim, cert.anchor, cert.config, evidence))
    return passed, {n: ok for n, ok, _ in checks}


def evidence_copy(cert):
    return json.loads(cert.to_json())["evidence"]


@lru_cache(maxsize=None)
def theorem_certificate(r):
    return max_certificate(r, ceil_r_over_e(r))


def test_tampered_exact_multiplier_fails_named_check():
    cert = theorem_certificate(9)
    ev = evidence_copy(cert)
    ev["kkt"]["multipliers"][0] = str(Fraction(ev["kkt"]["multipliers"][0]) + 1)
    passed, v = verdicts(cert, ev)
    assert not passed
    # the derived upper bound no longer closes on the product
    assert v["bracket-closed-iff-exact"] is False and v["value-equals-bound"] is False
    assert v["bracket-multipliers-nonnegative"] is True and v["bracket-ordered"] is True


@pytest.mark.parametrize("r", [4, 9, 17, 30, 40])
def test_forged_dual_fails_the_bracket(r):
    # a multiplier raised by 0.1% is still dual feasible, so its U is a
    # sound bound above prod x, and only the bracket's failure to close at
    # r!/r^r shows it
    cert = theorem_certificate(r)
    ev = evidence_copy(cert)
    kkt = ev["kkt"]
    kkt["multipliers"][0] = str(Fraction(1001, 1000) * Fraction(kkt["multipliers"][0]))
    upper = dual_bound(RegionConstraints(r, ev["k"]), kkt["active"], kkt["multipliers"])
    assert upper > math.prod(Fraction(v) for v in ev["x"])
    passed, v = verdicts(cert, ev)
    assert not passed
    assert v["value-equals-bound"] is False
    assert v["bracket-closed-iff-exact"] is False
    assert v["bracket-dual-feasible"] is True and v["bracket-ordered"] is True


@pytest.mark.parametrize("label", [["tent", 1, 1, 99], ["tent", 9, 9, 18], ["sum", 1, 2],
                                   ["monotone", 1, 3]])
def test_label_outside_region_fails_named_check(label):
    cert = theorem_certificate(9)
    ev = evidence_copy(cert)
    ev["kkt"]["active"][0] = label
    passed, v = verdicts(cert, ev)
    assert not passed
    assert v["evidence-well-formed"] is False


def test_value_matches_point_is_relative():
    # r!/r^r is about 1.3e-12 at r = 30: an absolute 1e-9 accepted 0.0
    cert = theorem_certificate(30)
    for value in (0.0, 2 * cert.evidence["value"]):
        ev = evidence_copy(cert)
        ev["value"] = value
        passed, v = verdicts(cert, ev)
        assert not passed
        assert v["value-matches-point"] is False


def test_counterexample_value_is_relative():
    # the product is about 1.2e-16 at r = 40: an absolute 1e-12 accepted 0.0
    cert = counterexample_certificate(40, 1)
    assert verify_certificate(cert)[0]
    for value in (0.0, 2 * cert.evidence["value"]):
        ev = evidence_copy(cert)
        ev["value"] = value
        passed, v = verdicts(cert, ev)
        assert not passed
        assert v["value-matches-point"] is False


def test_counterexample_value_is_exact():
    # the stored value is float(prod x) itself, so one ulp off fails
    cert = counterexample_certificate(9, 2)
    value = cert.evidence["value"]
    for tampered in (math.nextafter(value, math.inf), math.nextafter(value, 0)):
        ev = evidence_copy(cert)
        ev["value"] = tampered
        passed, v = verdicts(cert, ev)
        assert not passed and v["value-matches-point"] is False
        assert v["product-exceeds-bound-exact"] is True


def test_theorem_hypotheses_checked_without_exact():
    # the bound fails at (12, 2): f'(0; 12, 2) > 0
    r, k = 12, 2
    evidence = evidence_copy(probe_certificate(r, k))
    config = {"seed": 42, "r": r, "k": k}
    cert = Certificate("region-product-maximum", "region-product-maximum", config, evidence)
    passed, v = verdicts(cert, evidence)
    assert not passed
    assert v["fprime-nonpositive"] is False
    assert v["value-equals-bound"] is False
    assert v["kkt-exact"] is False
    # the bracket itself is sound: the point is a fine optimum
    assert v["bracket-ordered"] is True and v["bracket-closed-iff-exact"] is True
    probe = Certificate("region-probe", "region-probe", config, evidence)
    assert verify_certificate(probe)[0]
    # without its bracket no certificate proves anything
    del evidence["bracket"]
    for claim in ("region-product-maximum", "region-probe"):
        passed, v = verdicts(Certificate(claim, claim, config, evidence), evidence)
        assert not passed and v["evidence-well-formed"] is False


@pytest.mark.parametrize("r", [5, 7, 12, 31, 40])
def test_theorem_moved_to_positive_fprime_fails(r):
    # the largest k below ceil(r/e) with f'(0) > 0 (floor(r/e), or one
    # less where f'(0; r, floor(r/e)) <= 0): the linear point and its
    # bracket may still check out there, but the claim's hypothesis fails
    k = ceil_r_over_e(r) - 1
    while fprime_zero(r, k) <= 0:
        k -= 1
    cert = theorem_certificate(r)
    ev = evidence_copy(cert)
    ev["k"] = k
    moved = Certificate(cert.claim, cert.anchor, cert.config | {"k": k}, ev)
    passed, checks = verify_certificate(moved)
    v = {n: (ok, detail) for n, ok, detail in checks}
    assert not passed and v["config-matches-evidence"][0] is True
    assert v["fprime-nonpositive"] == (False, f"f'(0; {r}, {k}) = {fprime_zero(r, k)}")


def test_certificate_at_floor_with_nonpositive_fprime_is_a_theorem():
    # (6, 2), (9, 3) and (30, 11) sit at k = floor(r/e) < ceil(r/e) with
    # f'(0) <= 0: their maximum is r!/r^r, stated and verified as the theorem
    for r in (6, 9, 30):
        k = floor_r_over_e(r)
        assert k < ceil_r_over_e(r) and fprime_zero(r, k) <= 0
        passed, checks = verify_certificate(max_certificate(r, k))
        assert passed, (r, [c for c in checks if not c[1]])


def test_config_must_match_evidence():
    cert = theorem_certificate(9)
    for config in ({"seed": 42}, {"seed": 42, "r": 9, "k": 5}):
        passed, checks = verify_certificate(
            Certificate(cert.claim, cert.anchor, config, cert.evidence))
        assert not passed
        assert ("config-matches-evidence", False) in [(n, ok) for n, ok, _ in checks]


@pytest.mark.parametrize("claim, field, value", [
    ("region-counterexample", "r", 9.7), ("region-counterexample", "k", True),
    ("region-product-maximum", "r", 6.5), ("region-product-maximum", "k", 3.0),
    ("region-probe", "r", 12.0), ("region-probe", "k", "2")])
def test_r_and_k_must_be_json_integers(claim, field, value):
    # int() read 9.7 as 9 and 6.5 as 6, and those certificates verified
    cert = {"region-counterexample": lambda: counterexample_certificate(9, 1),
            "region-product-maximum": lambda: theorem_certificate(6),
            "region-probe": lambda: probe_certificate(12, 2)}[claim]()
    assert verify_certificate(cert)[0]
    ev = evidence_copy(cert) | {field: value}
    tampered = Certificate(cert.claim, cert.anchor, cert.config | {field: value}, ev)
    passed, checks = verify_certificate(tampered)
    v = {n: ok for n, ok, _ in checks}
    assert not passed and v["config-matches-evidence"] is True
    assert v["evidence-well-formed"] is False


def test_unreadable_evidence_fails_instead_of_raising():
    cert = theorem_certificate(9)
    ev = evidence_copy(cert)
    ev["x"] = ev["x"][:-1]
    passed, v = verdicts(cert, ev)
    assert not passed and v["evidence-well-formed"] is False
    # a nested field of the wrong JSON type fails the same check
    for field, value in [("kkt", []), ("bracket", [1])]:
        ev = evidence_copy(cert) | {field: value}
        passed, v = verdicts(cert, ev)
        assert not passed and v["evidence-well-formed"] is False, field


def other_float(v):
    """A float different from v: one ulp away, slightly scaled, or arbitrary."""
    near = [np.nextafter(v, np.inf), np.nextafter(v, -np.inf), v * (1 + 1e-12), -v]
    return st.one_of(st.sampled_from([float(u) for u in near]),
                     st.floats(allow_nan=False, allow_infinity=False)).filter(lambda u: u != v)


def other_label(label, r):
    tents = st.tuples(st.integers(1, r), st.integers(1, r)).map(
        lambda t: ["tent", t[0], t[1], t[0] + t[1]])
    monotone = st.integers(1, r - 1).map(lambda i: ["monotone", i, i + 1])
    return st.one_of(tents, monotone).filter(lambda lab: lab != label)


def other_exact(text):
    """A Fraction string or a float with a value other than the string's."""
    q = Fraction(text)
    return st.one_of(
        st.fractions(-100, 100, max_denominator=10**6).filter(lambda u: u != q).map(str),
        other_float(float(q)).filter(lambda u: Fraction(u) != q))


@lru_cache(maxsize=None)
def probe_certificate(r, k):
    return max_certificate(r, k, claim="region-probe")


def test_probe_certificate_stores_an_exact_bracket():
    cert = probe_certificate(12, 2)
    assert verify_certificate(cert)[0]
    ev = cert.evidence
    # the bracket stores its exact eps only; lower and upper are derived
    assert set(ev["bracket"]) == {"eps"}
    assert 0 < Fraction(ev["bracket"]["eps"]) < 1 and ev["kkt"]["exact"] is False
    lower = math.prod(Fraction(v) for v in ev["x"])
    kkt = ev["kkt"]
    upper = dual_bound(RegionConstraints(12, 2), kkt["active"], kkt["multipliers"])
    assert lower < upper <= (1 + Fraction(1, 10**20)) * lower
    assert ev["gap"] == float((upper - lower) / lower)
    names = {n for n, _, _ in verify_certificate(cert)[1]}
    assert {"bracket-point-is-bend", "bracket-multipliers-nonnegative", "bracket-dual-feasible",
            "bracket-ordered", "bracket-closed-iff-exact"} <= names


EVIDENCE_FIELDS = ("x", "value", "r", "k", "multipliers", "active", "exact", "optimal")
BRACKET_FIELDS = ("eps",)
# theorem rows (exact KKT, bracket U = L) and bend-point probes (float KKT fit,
# exact bracket)
CERTIFICATES = [("theorem", r) for r in (4, 9, 17, 30, 40)] + [
    ("probe", rk) for rk in ((9, 2), (12, 2), (31, 11), (40, 1))]


@given(st.sampled_from(CERTIFICATES), st.sampled_from(EVIDENCE_FIELDS + BRACKET_FIELDS),
       st.data())
@settings(max_examples=300, deadline=None)
def test_tampering_any_evidence_field_fails(which, name, data):
    kind, arg = which
    cert = theorem_certificate(arg) if kind == "theorem" else probe_certificate(*arg)
    r = cert.evidence["r"]
    ev = evidence_copy(cert)
    kkt = ev["kkt"]
    n = len(kkt["active"])
    if name == "x":
        i = data.draw(st.integers(0, r - 1))
        ev["x"][i] = data.draw(other_exact(ev["x"][i]))
    elif name == "value":
        ev["value"] = data.draw(other_float(ev["value"]))
    elif name in ("r", "k"):
        ev[name] = data.draw(st.integers(1, 60).filter(lambda v: v != ev[name]))
    elif name in ("exact", "optimal"):
        # the verifier reads these as "is True"
        kkt[name] = data.draw(st.sampled_from([False, None, 1, "true"]) if kkt[name] is True
                              else st.just(True))
    elif name in BRACKET_FIELDS:
        ev["bracket"][name] = data.draw(other_exact(ev["bracket"][name]))
    else:
        i = data.draw(st.integers(0, n - 1))
        old = kkt[name][i]
        if name == "multipliers":
            kkt[name][i] = data.draw(other_exact(old))
        else:
            kkt[name][i] = data.draw(other_label(old, r))
    passed, v = verdicts(cert, ev)
    assert not passed, (name, v)


@pytest.mark.parametrize("rk", [(9, 2), (12, 2), (31, 11), (40, 1)])
def test_probe_gap_pins_its_dual_point(rk):
    # any dual feasible multipliers bound the maximum, so a probe states the
    # width of its bracket; a raised multiplier proves a wider one and fails
    cert = probe_certificate(*rk)
    gap = cert.evidence["gap"]
    assert 0 < gap <= 1e-20
    ev = evidence_copy(cert)
    mus = ev["kkt"]["multipliers"]
    mus[0] = str(Fraction(1001, 1000) * Fraction(mus[0]))
    passed, v = verdicts(cert, ev)
    assert not passed and v["bracket-ordered"] is False
    assert v["bracket-dual-feasible"] is True and v["bracket-closed-iff-exact"] is True
    # the stated gap is the float of the derived one, to the last bit
    for stated in (math.nextafter(gap, 0), math.nextafter(gap, 1), 0.0, None, "wide"):
        ev = evidence_copy(cert)
        ev["gap"] = stated
        passed, v = verdicts(cert, ev)
        assert not passed and False in (v.get("bracket-ordered"), v.get("evidence-well-formed"))
    # a probe with no gap states a closed bracket
    ev = evidence_copy(cert)
    del ev["gap"]
    passed, v = verdicts(cert, ev)
    assert not passed and v["bracket-ordered"] is False
