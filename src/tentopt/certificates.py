"""Self-contained optimality certificates and their offline verification.

A certificate records a machine-readable claim, an anchor into the claim
index below, the run configuration, and enough evidence (point, value,
active set, multipliers, whether they are exact, and the exact bracket
around the region maximum) to be re-checked without re-running any
optimizer.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .region import (
    TOL_FEAS,
    TOL_REL,
    RegionConstraints,
    bend_point,
    ceil_r_over_e,
    check_feasible,
    dual_bound,
    product_bound,
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


def _check_max_certificate(cert: Certificate) -> list[tuple[str, bool, str]]:
    """Feasibility of the point, its product against the claimed value, the
    KKT evidence and, when stored, the bracket; all in Fractions.  A point
    stored as Fraction strings is checked with no tolerance, and so is the
    KKT evidence when it is ``exact``."""
    ev = cert.evidence
    r, k = int(ev["r"]), int(ev["k"])
    kkt = ev.get("kkt", {})
    exact = kkt.get("exact") is True
    exact_point = all(isinstance(v, str) for v in ev["x"])
    x = [Fraction(v) for v in ev["x"]]
    checks = []

    ok, bad = check_feasible(x, r, k, 0 if exact_point else TOL_FEAS)
    checks.append(("point-feasible", ok, str(bad[:3]) if bad else ""))

    prod = float(math.prod(x))
    value = float(ev["value"])
    ok = prod == value if exact_point else abs(prod - value) <= TOL_REL * prod
    checks.append(("value-matches-point", ok, f"prod={prod}, claimed={value}"))

    model = RegionConstraints(r, k)
    if kkt.get("optimal") is True:
        checks.extend(_check_kkt(model, x, kkt, exact))
    else:
        checks.append(("kkt-payload-present", False, "no optimality payload"))
    if "bracket" in ev:
        checks.extend(_check_bracket(model, x, kkt, ev["bracket"]))
    return checks


def _check_bracket(model: RegionConstraints, x: list, kkt: dict,
                   bracket: dict) -> list[tuple[str, bool, str]]:
    """The bracket lower <= max prod x <= upper, in Fractions with no
    tolerance: x is the bend point at ``eps``, ``lower`` is prod x, and
    ``upper`` is the dual bound recomputed from the stored multipliers,
    which must be nonnegative and give c > 0."""
    r, k = model.r, model.k
    eps = Fraction(bracket["eps"])
    ok = 0 <= eps < 1 and x == list(bend_point(r, k, eps).x)
    checks = [("bracket-point-is-bend", ok, f"eps={eps}")]
    try:
        rows = [model.index(lab) for lab in kkt.get("active", [])]
    except ValueError as exc:  # a row with no normal bounds nothing
        return checks + [("bracket-dual-feasible", False, str(exc))]
    mus = [Fraction(v) for v in kkt.get("multipliers", [])]
    ok = len(mus) == len(rows) and all(mu >= 0 for mu in mus)
    checks.append(("bracket-multipliers-nonnegative", ok, ""))
    upper = dual_bound(model, rows, mus) if ok else None
    checks.append(("bracket-dual-feasible", upper is not None, "c = A^T mu + nu e_r > 0"))
    lower = math.prod(x)
    checks.append(("bracket-lower-is-product", Fraction(bracket["lower"]) == lower, ""))
    stored = bracket["upper"]
    checks.append(("bracket-upper-matches",
                   upper is not None and stored is not None and Fraction(stored) == upper, ""))
    ok = upper is not None and lower <= upper
    gap = float((upper - lower) / lower) if ok else None
    checks.append(("bracket-ordered", ok, f"(upper - lower)/lower={gap}"))
    return checks


def _check_kkt(model: RegionConstraints, x: list, kkt: dict,
               exact: bool) -> list[tuple[str, bool, str]]:
    """Stationarity of the stored multipliers at x, in Fractions: exactly
    when ``exact``, else within float tolerances.  A label outside the
    region fails ``active-labels-valid`` and ends the checks, since its row
    has no normal."""
    try:
        rows = [model.index(lab) for lab in kkt["active"]]
    except ValueError as exc:
        return [("active-labels-valid", False, str(exc))]
    mus = [Fraction(v) for v in kkt["multipliers"]]
    nu = Fraction(kkt["equality_multiplier"])
    tol_mu, tol_slack = (0, 0) if exact else (Fraction(1e-12), Fraction(1e-5))
    checks = [("active-labels-valid", True, "")]
    ok = len(mus) == len(rows) and all(mu >= -tol_mu for mu in mus)
    checks.append(("multipliers-nonnegative", ok, f"min={float(min(mus, default=0))}"))
    N, D = model.scaled_slack(x)
    slacks = [abs(Fraction(N[t], D)) for t in rows]
    ok = all(s <= tol_slack for s in slacks)
    checks.append(("active-set-tight", ok, f"max slack={float(max(slacks, default=0))}"))
    recon = model.combine(rows, mus)
    recon[-1] += nu
    diff = [1 / v - c for v, c in zip(x, recon)]
    resid = math.hypot(*map(float, diff)) / math.hypot(*(float(1 / v) for v in x))
    ok = not any(diff) if exact else resid < 1e-6
    checks.append(("stationarity", ok, f"residual={resid}"))
    return checks


def _check_theorem_certificate(cert: Certificate) -> list[tuple[str, bool, str]]:
    """The optimality checks plus the claim's hypotheses: k >= ceil(r/e),
    a value equal to r!/r^r, and exact KKT evidence."""
    ev = cert.evidence
    r, k = int(ev["r"]), int(ev["k"])
    checks = _check_max_certificate(cert)
    checks.append(("kkt-exact", ev.get("kkt", {}).get("exact") is True, ""))
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
            checks.extend(checker(cert))
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError,
                OverflowError) as exc:
            checks.append(("evidence-well-formed", False, f"{type(exc).__name__}: {exc}"))
    return all(ok for _, ok, _ in checks), checks
