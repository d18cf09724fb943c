"""Self-contained optimality certificates and their offline verification.

A certificate records a machine-readable claim, an anchor into the claim
index below, the run configuration, and enough evidence to be re-checked
without re-running any optimizer.  For a region maximum that evidence is
the exact point, its value, the KKT multipliers and the exact bracket
L = prod x <= max <= U: the verifier recomputes U, the
geometric-programming dual bound of the multipliers, in Fractions, and
the bracket is the one proof it checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterator

from .region import (
    RegionConstraints,
    bend_coordinates,
    check_feasible,
    dual_bound,
    fprime_zero,
    product_bound,
)

Check = tuple[str, bool, str]  # (name, ok, detail)

# claim index: every certificate anchor must resolve to an entry here
ANCHOR_INDEX = {
    "region-product-maximum": (
        "For f'(0; r, k) = -k + sum_{i>k} (r - i)/i <= 0, the maximum of prod x_i "
        "over the (r, k) region is r!/r^r, attained exactly at x_i = i/r.  "
        "Since f'(0) = r (H_r - H_k - 1), f'(0) <= 0 holds for every k >= ceil(r/e) "
        "and fails for every k < floor(r/e) (proved in region.fprime_zero)."
    ),
    "region-counterexample": (
        "For f'(0; r, k) = -k + sum_{i>k} (r - i)/i > 0, the (r, k) region "
        "contains a point with prod x_i strictly greater than r!/r^r.  "
        "Since f'(0) = r (H_r - H_k - 1), f'(0) > 0 holds for every k < floor(r/e) "
        "and fails for every k >= ceil(r/e) (proved in region.fprime_zero)."
    ),
    "region-probe": (
        "For the stated (r, k), the maximum of prod x_i over the region lies "
        "in the exact bracket [lower, upper]: lower is prod x_i at the stored "
        "feasible point, upper the dual bound of the stored multipliers."
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


def _check_max_certificate(cert: Certificate) -> Iterator[Check]:
    """The point's exact feasibility, its product against the claimed value,
    the ``optimal`` flag and the exact bracket, all in Fractions with no
    tolerance."""
    ev = cert.evidence
    r, k = int(ev["r"]), int(ev["k"])
    kkt, bracket = ev["kkt"], ev["bracket"]
    x = [Fraction(v) for v in ev["x"]]

    ok, bad = check_feasible(x, r, k, tol=0)
    yield "point-feasible", ok, str(bad[:3]) if bad else ""

    prod = float(math.prod(x))
    value = float(ev["value"])
    yield "value-matches-point", prod == value, f"prod={prod}, claimed={value}"

    yield "kkt-payload-present", kkt.get("optimal") is True, "optimal must be true"
    yield from _check_bracket(RegionConstraints(r, k), x, kkt, bracket)


def _check_bracket(model: RegionConstraints, x: list, kkt: dict,
                   bracket: dict) -> Iterator[Check]:
    """The bracket lower <= max prod x <= upper: x has the bend
    coordinates at ``eps`` (their feasibility is ``point-feasible``'s
    check), ``lower`` is prod x, and ``upper`` is the dual bound
    recomputed from the stored multipliers, which must be nonnegative and
    give c > 0.  ``exact`` must hold exactly when upper == lower, so the
    bracket proves the maximum.  A label outside the region raises, since
    its row has no normal, and fails ``evidence-well-formed``."""
    r, k = model.r, model.k
    eps = Fraction(bracket["eps"])
    ok = 0 <= eps < 1 and x == list(bend_coordinates(r, k, eps))
    yield "bracket-point-is-bend", ok, f"eps={eps}"
    rows = [model.index(lab) for lab in kkt.get("active", [])]
    mus = [Fraction(v) for v in kkt.get("multipliers", [])]
    ok = len(mus) == len(rows) and all(mu >= 0 for mu in mus)
    yield "bracket-multipliers-nonnegative", ok, ""
    upper = dual_bound(model, rows, mus) if ok else None
    yield "bracket-dual-feasible", upper is not None, "c = A^T mu + nu e_r > 0"
    lower = math.prod(x)
    yield "bracket-lower-is-product", Fraction(bracket["lower"]) == lower, ""
    stored = bracket["upper"]
    yield ("bracket-upper-matches",
           upper is not None and stored is not None and Fraction(stored) == upper, "")
    ok = upper is not None and lower <= upper
    gap = float((upper - lower) / lower) if ok else None
    yield "bracket-ordered", ok, f"(upper - lower)/lower={gap}"
    closed = upper == lower
    yield ("bracket-closed-iff-exact", (kkt.get("exact") is True) == closed,
           f"exact={kkt.get('exact')!r}, upper == lower: {closed}")


def _check_theorem_certificate(cert: Certificate) -> Iterator[Check]:
    """The claim's hypothesis f'(0; r, k) <= 0 in Fractions, first, so that
    a certificate moved to a k with f'(0) > 0 fails it by name even where
    its evidence no longer reads; then the optimality checks, exact KKT
    evidence, and a bracket closed at r!/r^r."""
    ev = cert.evidence
    r, k = int(ev["r"]), int(ev["k"])
    fprime = fprime_zero(r, k)
    yield "fprime-nonpositive", fprime <= 0, f"f'(0; {r}, {k}) = {fprime}"
    yield from _check_max_certificate(cert)
    yield "kkt-exact", ev["kkt"].get("exact") is True, ""
    bracket, bound = ev["bracket"], product_bound(r)
    upper = None if bracket["upper"] is None else Fraction(bracket["upper"])
    ok = Fraction(bracket["lower"]) == upper == bound
    yield "value-equals-bound", ok, f"value={ev['value']}, bound={float(bound)}"


def _check_counterexample_certificate(cert: Certificate) -> Iterator[Check]:
    ev = cert.evidence
    r, k = int(ev["r"]), int(ev["k"])
    x = [Fraction(s) for s in ev["x_exact"]]
    ok, bad = check_feasible(x, r, k, tol=0)
    yield "point-feasible-exact", ok, str(bad[:3]) if bad else ""
    prod = math.prod(x)
    bound = product_bound(r)
    yield "product-exceeds-bound-exact", prod > bound, f"prod={prod}, bound={bound}"
    value = float(ev["value"])
    yield "value-matches-point", float(prod) == value, f"prod={float(prod)}, claimed={value}"


_CHECKERS = {
    "region-product-maximum": _check_theorem_certificate,
    "region-counterexample": _check_counterexample_certificate,
    "region-probe": _check_max_certificate,
}


def verify_certificate(cert: Certificate) -> tuple[bool, list[Check]]:
    """Re-check a certificate without re-optimizing.

    Returns (passed, checks); each check is (name, ok, detail).  Evidence
    that cannot be read (a missing field, a label of the wrong shape, a
    point of the wrong length) fails the check ``evidence-well-formed``,
    after the checks made before it was reached.
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
            for check in checker(cert):
                checks.append(check)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError,
                OverflowError) as exc:
            checks.append(("evidence-well-formed", False, f"{type(exc).__name__}: {exc}"))
    return all(ok for _, ok, _ in checks), checks
