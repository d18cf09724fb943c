"""Self-contained optimality certificates and their offline verification.

A certificate records a machine-readable claim, an anchor into the claim
index below, the run configuration, and enough evidence (point, value,
active set, multipliers, exact-arithmetic flags) to be re-checked without
re-running any optimizer.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .region import (
    TOL_FEAS,
    TOL_REL,
    ceil_r_over_e,
    check_feasible,
    full_normal,
    product_bound,
    tent_constraints,
    tight_constraints_at_linear_point,
)

# claim index: every certificate anchor must resolve to an entry here
ANCHOR_INDEX = {
    "region-product-maximum": (
        "For k >= ceil(r/e), the maximum of prod x_i over the (r, k) region "
        "is r!/r^r, attained exactly at x_i = i/r."
    ),
    "region-counterexample": (
        "For k < floor(r/e), the region contains a point with "
        "prod x_i strictly greater than r!/r^r."
    ),
    "region-probe": (
        "Exploratory comparison of the (r, k) region optimum against "
        "r!/r^r for k < ceil(r/e); no general statement is asserted."
    ),
}


@dataclass(frozen=True)
class Certificate:
    claim: str
    anchor: str
    config: dict
    evidence: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        d = json.loads(text)
        try:
            return cls(claim=d["claim"], anchor=d["anchor"],
                       config=d["config"], evidence=d["evidence"])
        except KeyError as missing:
            raise ValueError(f"malformed certificate: missing {missing}") from None


def _constraint_value(label, x) -> float:
    """Slack of the labeled constraint at x (x_0 = 0, x indexed from 1)."""
    kind = label[0]
    if kind == "tent":
        _, i, j, s = label
        return x[s - 1] - x[i - 1] - x[j - 1]
    if kind == "monotone":
        _, i, j = label
        hi = 1.0 if j == len(x) + 1 else x[j - 1]
        return hi - x[i - 1]
    raise ValueError(f"unknown constraint kind {kind!r}")


def _constraint_labels(r: int, k: int) -> set:
    """Every constraint label of the (r, k) region, as tuples."""
    return ({("tent", *t) for t in tent_constraints(r, k)}
            | {("monotone", i, i + 1) for i in range(1, r)})


def _check_max_certificate(cert: Certificate) -> list[tuple[str, bool, str]]:
    ev = cert.evidence
    r, k = int(ev["r"]), int(ev["k"])
    x = np.asarray(ev["x"], dtype=float)
    checks = []

    ok, bad = check_feasible(x, r, k, TOL_FEAS)
    checks.append(("point-feasible", ok, str(bad[:3]) if bad else ""))

    prod = float(np.prod(x))
    value = float(ev["value"])
    ok = abs(prod - value) <= TOL_REL * prod
    checks.append(("value-matches-point", ok, f"prod={prod}, claimed={value}"))

    kkt = ev.get("kkt", {})
    if kkt.get("optimal"):
        labels = kkt["active"]
        mus = np.asarray(kkt["multipliers"], dtype=float)
        nu = float(kkt["equality_multiplier"])
        valid = _constraint_labels(r, k)
        ok = all(tuple(lab) in valid for lab in labels)
        checks.append(("active-labels-valid", ok, ""))
        ok = len(mus) == len(labels) and bool((mus >= -1e-12).all())
        checks.append(("multipliers-nonnegative", ok, f"min={mus.min(initial=0.0)}"))
        slacks = [abs(_constraint_value(lab, x)) for lab in labels]
        ok = all(s <= 1e-5 for s in slacks)
        checks.append(("active-set-tight", ok, f"max slack={max(slacks, default=0.0)}"))
        g = 1.0 / x
        recon = np.zeros(r)
        for lab, mu in zip(labels, mus):
            recon += mu * full_normal(lab, r)
        recon[r - 1] += nu
        resid = float(np.linalg.norm(g - recon) / np.linalg.norm(g))
        checks.append(("stationarity", resid < 1e-6, f"residual={resid}"))
        if "multipliers_exact" in kkt:
            checks.extend(_check_exact_kkt(r, x, value, kkt))
    else:
        checks.append(("kkt-payload-present", False, "no optimality payload"))

    exact = ev.get("exact", {})
    if exact:
        ok = tight_constraints_at_linear_point(r, k) == bool(
            exact.get("linear_point_feasible_and_tight"))
        checks.append(("exact-tightness-flag", ok, ""))
    return checks


def _check_exact_kkt(r: int, x, value: float, kkt: dict) -> list[tuple[str, bool, str]]:
    """Re-check exact multipliers at the exact linear point x_i = i/r, in
    Fractions and with no tolerance; the float fields must be their
    roundings."""
    point = [Fraction(i, r) for i in range(1, r + 1)]
    labels = kkt["active"]
    mus = [Fraction(v) for v in kkt["multipliers_exact"]]
    nu = Fraction(kkt["equality_multiplier_exact"])
    checks = [
        ("exact-linear-point", [float(v) for v in point] == list(x), ""),
        ("exact-value", value == float(product_bound(r)), f"value={value}"),
    ]
    ok = len(mus) == len(labels) and all(mu >= 0 for mu in mus)
    checks.append(("exact-multipliers-nonnegative", ok, ""))
    ok = ([float(mu) for mu in mus] == list(kkt["multipliers"])
          and float(nu) == kkt["equality_multiplier"])
    checks.append(("multipliers-match-exact", ok, ""))
    ok = all(_constraint_value(lab, point) == 0 for lab in labels)
    checks.append(("exact-active-set-tight", ok, ""))
    recon = [Fraction(0)] * r
    for lab, mu in zip(labels, mus):
        a = full_normal(lab, r)
        for idx in np.flatnonzero(a):
            recon[idx] += mu * int(a[idx])
    recon[r - 1] += nu
    ok = recon == [1 / v for v in point]
    checks.append(("exact-stationarity", ok, ""))
    return checks


def _check_theorem_certificate(cert: Certificate) -> list[tuple[str, bool, str]]:
    """The optimality checks plus the claim's hypotheses: k >= ceil(r/e)
    and a value equal to r!/r^r."""
    ev = cert.evidence
    r, k = int(ev["r"]), int(ev["k"])
    checks = _check_max_certificate(cert)
    threshold = ceil_r_over_e(r)
    checks.append(("k-at-least-threshold", k >= threshold,
                   f"k={k}, ceil(r/e)={threshold}"))
    value, bound = float(ev["value"]), float(product_bound(r))
    checks.append(("value-equals-bound", abs(value - bound) <= TOL_REL * bound,
                   f"value={value}, bound={bound}"))
    return checks


def _check_counterexample_certificate(cert: Certificate) -> list[tuple[str, bool, str]]:
    ev = cert.evidence
    r, k = int(ev["r"]), int(ev["k"])
    x = [Fraction(s) for s in ev["x_exact"]]
    checks = []
    ok, bad = check_feasible(x, r, k, tol=0)
    checks.append(("point-feasible-exact", ok, str(bad[:3]) if bad else ""))
    prod = math.prod(x)
    bound = product_bound(r)
    checks.append(("product-exceeds-bound-exact", prod > bound,
                   f"prod={prod}, bound={bound}"))
    ok = abs(float(prod) - float(ev["value"])) <= TOL_REL * float(prod)
    checks.append(("value-matches-point", ok, ""))
    return checks


_CHECKERS = {
    "region-product-maximum": _check_theorem_certificate,
    "region-counterexample": _check_counterexample_certificate,
    "region-probe": _check_max_certificate,
}


def verify_certificate(cert: Certificate) -> tuple[bool, list[tuple[str, bool, str]]]:
    """Re-check a certificate without re-optimizing.

    Returns (passed, checks); each check is (name, ok, detail).  Evidence
    that cannot be read (a missing field, a label of the wrong shape, a
    point of the wrong length) fails the check ``evidence-well-formed``.
    """
    checks = []
    anchored = cert.anchor in ANCHOR_INDEX
    checks.append(("anchor-resolves", anchored, cert.anchor))
    checker = _CHECKERS.get(cert.claim)
    if checker is None:
        checks.append(("claim-recognized", False, cert.claim))
        return False, checks
    if anchored:
        ev = cert.evidence
        ok = all(cert.config.get(key) == ev.get(key) for key in ("r", "k"))
        checks.append(("config-matches-evidence", ok,
                       f"config r, k = {cert.config.get('r')}, {cert.config.get('k')}"))
        try:
            # tampered evidence may hold zeros or huge floats; the checks
            # then fail, and numpy's overflow warnings add nothing
            with np.errstate(all="ignore"):
                checks.extend(checker(cert))
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            checks.append(("evidence-well-formed", False, f"{type(exc).__name__}: {exc}"))
    return all(ok for _, ok, _ in checks), checks
