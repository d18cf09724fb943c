import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentopt.certificates import (
    ANCHOR_INDEX,
    Certificate,
    verify_certificate,
)
from tentopt.cli import _max_evidence
from tentopt.region import ceil_r_over_e, counterexample_point, maximize_product


def max_certificate(r=5, k=2, claim="region-product-maximum"):
    return Certificate(
        claim=claim,
        anchor=claim,
        config={"seed": 42, "r": r, "k": k},
        evidence=_max_evidence(maximize_product(r, k)),
    )


def counterexample_certificate(r=6, k=1):
    p = counterexample_point(r, k)
    return Certificate(
        claim="region-counterexample",
        anchor="region-counterexample",
        config={"seed": 42, "r": r, "k": k},
        evidence={"r": r, "k": k, "x_exact": [str(v) for v in p.x],
                  "value": float(math.prod(p.x))},
    )


def test_anchor_index_is_plain_prose():
    for anchor, statement in ANCHOR_INDEX.items():
        assert isinstance(statement, str) and statement


def test_max_certificate_verifies():
    cert = max_certificate()
    passed, checks = verify_certificate(cert)
    assert passed, checks
    names = {n for n, _, _ in checks}
    assert {"anchor-resolves", "point-feasible", "value-matches-point",
            "multipliers-nonnegative", "active-set-tight", "stationarity",
            "kkt-exact", "k-at-least-threshold", "value-equals-bound"} <= names
    # (5, 2) is a theorem row, so its point and multipliers are exact
    assert cert.evidence["kkt"]["exact"] is True
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
    assert verdicts["multipliers-nonnegative"] is False
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
    ev = dict(cert.evidence)
    x = [Fraction(s) for s in ev["x_exact"]]
    x[0] = x[2]  # breaks monotonicity
    ev["x_exact"] = [str(v) for v in x]
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
    assert v["stationarity"] is False
    assert v["multipliers-nonnegative"] is True


@pytest.mark.parametrize("label", [["tent", 1, 1, 99], ["tent", 9, 9, 18], ["sum", 1, 2],
                                   ["monotone", 1, 3]])
def test_label_outside_region_fails_named_check(label):
    cert = theorem_certificate(9)
    ev = evidence_copy(cert)
    ev["kkt"]["active"][0] = label
    passed, v = verdicts(cert, ev)
    assert not passed
    assert v.get("active-labels-valid") is False or v.get("evidence-well-formed") is False


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


def test_theorem_hypotheses_checked_without_exact():
    # the bound fails at (12, 2): k < ceil(12/e) = 5
    r, k = 12, 2
    rep = maximize_product(r, k, seed=42)
    evidence = {"r": r, "k": k, "x": [float(v) for v in rep.argmax.x],
                "value": rep.value, "kkt": rep.kkt}
    config = {"seed": 42, "r": r, "k": k}
    cert = Certificate("region-product-maximum", "region-product-maximum", config, evidence)
    passed, v = verdicts(cert, evidence)
    assert not passed
    assert v["k-at-least-threshold"] is False
    assert v["value-equals-bound"] is False
    assert v["kkt-exact"] is False
    assert v["stationarity"] is True  # the point itself is a fine optimum
    probe = Certificate("region-probe", "region-probe", config, evidence)
    assert verify_certificate(probe)[0]


def test_config_must_match_evidence():
    cert = theorem_certificate(9)
    for config in ({"seed": 42}, {"seed": 42, "r": 9, "k": 5}):
        passed, checks = verify_certificate(
            Certificate(cert.claim, cert.anchor, config, cert.evidence))
        assert not passed
        assert ("config-matches-evidence", False) in [(n, ok) for n, ok, _ in checks]


def test_unreadable_evidence_fails_instead_of_raising():
    cert = theorem_certificate(9)
    ev = evidence_copy(cert)
    ev["x"] = ev["x"][:-1]
    passed, v = verdicts(cert, ev)
    assert not passed and v["evidence-well-formed"] is False


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
    bracket = {key: Fraction(v) for key, v in ev["bracket"].items()}
    assert 0 < bracket["eps"] < 1 and ev["kkt"]["exact"] is False
    assert bracket["lower"] == math.prod(Fraction(v) for v in ev["x"])
    assert bracket["lower"] < bracket["upper"] <= (1 + Fraction(1, 10**20)) * bracket["lower"]
    names = {n for n, _, _ in verify_certificate(cert)[1]}
    assert {"bracket-point-is-bend", "bracket-multipliers-nonnegative", "bracket-dual-feasible",
            "bracket-lower-is-product", "bracket-upper-matches", "bracket-ordered"} <= names


EVIDENCE_FIELDS = ("x", "value", "r", "k", "multipliers", "equality_multiplier", "active",
                   "exact", "optimal")
BRACKET_FIELDS = ("lower", "upper", "eps")
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
    if name == "equality_multiplier" and not kkt["exact"]:
        # a float fit's nu is read only by the stationarity check, within its
        # tolerance; the bracket computes its own nu
        return
    if name == "x":
        i = data.draw(st.integers(0, r - 1))
        ev["x"][i] = data.draw(other_exact(ev["x"][i]))
    elif name == "value":
        ev["value"] = data.draw(other_float(ev["value"]))
    elif name in ("r", "k"):
        ev[name] = data.draw(st.integers(1, 60).filter(lambda v: v != ev[name]))
    elif name == "equality_multiplier":
        kkt[name] = data.draw(other_exact(kkt[name]))
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
