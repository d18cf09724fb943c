"""Self-contained optimality certificates and their offline verification.

A certificate records a machine-readable claim, an anchor into the claim
index below, the run configuration, and enough evidence to be re-checked
without re-running any optimizer.  For a region maximum that evidence is
the exact point, its value, the KKT multipliers, the bracket's ``eps`` and,
for an open bracket, its float width ``gap``; the verifier derives the
exact bracket L = prod x <= max <= U, U with ``region.dual_bound`` (the
solver's call) from the stored labels and multipliers, and the bracket is
the one proof it checks.  L and U are not stored: past r ~ 250 their
digits pass Python's int-to-string limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Generator, Iterator

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
        "feasible point, upper the dual bound of the stored multipliers, and "
        "(upper - lower)/lower is the stated gap, to float precision."
    ),
}


@dataclass(frozen=True)
class Certificate:
    claim: str
    anchor: str
    config: dict
    evidence: dict

    def __post_init__(self):
        for name, kind in (("claim", str), ("anchor", str), ("config", dict), ("evidence", dict)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"malformed certificate: {name} must be a JSON "
                                 f"{'string' if kind is str else 'object'}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("malformed certificate: not a JSON object")
        try:
            return cls(claim=d["claim"], anchor=d["anchor"],
                       config=d["config"], evidence=d["evidence"])
        except KeyError as missing:
            raise ValueError(f"malformed certificate: missing {missing}") from None


def max_evidence(rep) -> dict:
    """Evidence of a region maximum from its ``OptimizationReport``: the
    exact argmax as Fraction strings, the value, the KKT certificate and the
    bracket's ``eps``, from which the verifier derives the bracket; an open
    bracket (a probe's) also its width ``gap``, which a closed one omits."""
    p, b = rep.argmax, rep.bracket
    ev = {"r": p.r, "k": p.k, "x": [str(v) for v in p.x], "value": rep.value,
          "kkt": rep.kkt, "bracket": {"eps": str(b["eps"])}}
    if b["upper"] is not None and b["upper"] != b["lower"]:
        ev["gap"] = float((b["upper"] - b["lower"]) / b["lower"])
    return ev


def counterexample_evidence(point) -> dict:
    """Evidence of a counterexample from its exact ``FeasiblePoint``: the
    point as Fraction strings and its product."""
    return {"r": point.r, "k": point.k, "x_exact": [str(v) for v in point.x],
            "value": float(point.product())}


def _r_and_k(ev: dict) -> tuple[int, int]:
    """The evidence's r and k, which must be JSON integers: a float or a
    bool raises ValueError and fails ``evidence-well-formed``, where
    ``int()`` would truncate 9.7 to 9."""
    r, k = ev["r"], ev["k"]
    if type(r) is not int or type(k) is not int:
        raise ValueError(f"r and k must be integers, got {r!r} and {k!r}")
    return r, k


def _check_max_certificate(cert: Certificate) -> Generator[Check, None, tuple]:
    """The point's exact feasibility, its product against the claimed value,
    the ``optimal`` flag and the exact bracket, all in Fractions with no
    tolerance.  Returns the derived bracket (lower, upper)."""
    ev = cert.evidence
    r, k = _r_and_k(ev)
    kkt = ev["kkt"]
    x = [Fraction(v) for v in ev["x"]]
    ok, bad = check_feasible(x, r, k)
    yield "point-feasible", ok, str(bad[:3]) if bad else ""
    prod = float(math.prod(x))
    value = float(ev["value"])
    yield "value-matches-point", prod == value, f"prod={prod}, claimed={value}"
    yield "kkt-payload-present", kkt.get("optimal") is True, "optimal must be true"
    gap = float(ev.get("gap", 0)) if cert.claim == "region-probe" else None
    return (yield from _check_bracket(RegionConstraints(r, k), x, kkt, ev["bracket"], gap))


def _check_bracket(model: RegionConstraints, x: list, kkt: dict, bracket: dict,
                   stated_gap: float | None) -> Generator[Check, None, tuple]:
    """The bracket lower <= max prod x <= upper, derived and returned: x
    has the bend coordinates at ``eps`` (``point-feasible`` checks them),
    ``lower`` is prod x, ``upper`` the dual bound of the stored multipliers
    (nonnegative, giving c > 0; else None).  Any dual point bounds the
    maximum, so a probe's ``stated_gap`` (0 if none is stored) pins its own
    as float((upper - lower)/lower).  ``exact`` must hold exactly when
    upper == lower; a label outside the region raises in ``dual_bound``."""
    eps = Fraction(bracket["eps"])
    ok = 0 <= eps < 1 and x == list(bend_coordinates(model.r, model.k, eps))
    yield "bracket-point-is-bend", ok, f"eps={eps}"
    labels, mus = kkt.get("active", []), kkt.get("multipliers", [])
    ok = len(mus) == len(labels) and all(Fraction(mu) >= 0 for mu in mus)
    yield "bracket-multipliers-nonnegative", ok, ""
    upper = dual_bound(model, labels, mus) if ok else None
    yield "bracket-dual-feasible", upper is not None, "c = A^T mu + nu e_r > 0"
    lower = math.prod(x)
    ok = upper is not None and lower <= upper
    gap = float((upper - lower) / lower) if ok else None
    yield ("bracket-ordered", ok and stated_gap in (None, gap),
           f"(upper - lower)/lower={gap}, stated={stated_gap}")
    closed = upper == lower
    yield ("bracket-closed-iff-exact", (kkt.get("exact") is True) == closed,
           f"exact={kkt.get('exact')!r}, upper == lower: {closed}")
    return lower, upper


def _check_theorem_certificate(cert: Certificate) -> Iterator[Check]:
    """The claim's hypothesis f'(0; r, k) <= 0 in Fractions, first, so that
    a certificate moved to a k with f'(0) > 0 fails it by name even where
    its evidence no longer reads; then the optimality checks, exact KKT
    evidence, and a derived bracket closed at r!/r^r."""
    ev = cert.evidence
    r, k = _r_and_k(ev)
    fprime = fprime_zero(r, k)
    yield "fprime-nonpositive", fprime <= 0, f"f'(0; {r}, {k}) = {fprime}"
    lower, upper = yield from _check_max_certificate(cert)
    yield "kkt-exact", ev["kkt"].get("exact") is True, ""
    bound = product_bound(r)
    yield ("value-equals-bound", lower == upper == bound,
           f"value={ev['value']}, bound={float(bound)}")


def _check_counterexample_certificate(cert: Certificate) -> Iterator[Check]:
    ev = cert.evidence
    r, k = _r_and_k(ev)
    x = [Fraction(s) for s in ev["x_exact"]]
    ok, bad = check_feasible(x, r, k)
    yield "point-feasible-exact", ok, str(bad[:3]) if bad else ""
    prod, bound = math.prod(x), product_bound(r)
    yield ("product-exceeds-bound-exact", prod > bound,
           f"prod={float(prod)}, bound={float(bound)}")
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
    that cannot be read (a missing field, a field of the wrong type, a
    label of the wrong shape, a point of the wrong length) fails the check
    ``evidence-well-formed``, after the checks made before it was reached.
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
        except (AttributeError, KeyError, IndexError, TypeError, ValueError,
                ZeroDivisionError, OverflowError) as exc:
            checks.append(("evidence-well-formed", False, f"{type(exc).__name__}: {exc}"))
    return all(ok for _, ok, _ in checks), checks
