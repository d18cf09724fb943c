"""Command-line surface: constructions, searches, optimization reports,
tables, and certificate verification.

Exit codes: 0 success, 1 verification failure, 2 budget exhaustion,
3 bad input.  JSON (sorted keys) is the canonical output format; CSV is a
lossy convenience view for the tables.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction

import click
import numpy as np

from . import entropy as ent
from .certificates import ANCHOR_INDEX, Certificate, verify_certificate
from .homs import BudgetExceededError, SearchBudget, brute_force_ex
from .homs import find_homomorphism, find_partial_homomorphism
from .hypergraphs import (
    Hypergraph,
    PartialHypergraph,
    TentSpec,
    make_general_tent,
    make_tent,
    tent_family,
)
from .lagrangian import _SEED, lagrangian
from .region import (
    FeasiblePoint,
    ceil_r_over_e,
    counterexample_point,
    floor_r_over_e,
    maximize_product,
    product_bound,
    rounded_eps,
    segments,
)


def _emit(data, out=None):
    text = json.dumps(data, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _load_hypergraph(path: str) -> Hypergraph:
    with open(path) as fh:
        return Hypergraph.from_json(fh.read())


def _budget(ctx) -> SearchBudget:
    return SearchBudget(timeout=ctx.obj["timeout"])


@click.group()
@click.option("--seed", default=_SEED, show_default=True,
              help="Seed of the Lagrangian starts, entropic ascent and ratio-constraint sampler.")
@click.option("--timeout", default=60.0, show_default=True, help="Search budget in seconds.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.pass_context
def cli(ctx, seed, timeout, fmt):
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, timeout=timeout, fmt=fmt)


def _config(ctx) -> dict:
    return {k: ctx.obj[k] for k in ("seed", "timeout", "fmt")}


# -- tent ------------------------------------------------------------------


@cli.group()
def tent():
    """Tent constructions."""


@tent.command("make")
@click.option("--r", type=int, required=True)
@click.option("--i", type=int, default=None, help="Base/apex split (r-i, i).")
@click.option("--lam", default=None, help="Comma-separated partition of r, e.g. 3,1.")
@click.option("-o", "--output", default=None)
def tent_make(r, i, lam, output):
    if (i is None) == (lam is None):
        raise click.UsageError("give exactly one of --i or --lam")
    if lam is not None:
        parts = tuple(int(p) for p in lam.split(","))
        if sum(parts) != r:
            raise click.UsageError(f"partition {parts} does not sum to r={r}")
        H = make_general_tent(TentSpec(parts))
    else:
        H = make_tent(r, i)
    _emit(json.loads(H.to_json()), output)


@tent.command("family")
@click.option("--r", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("-o", "--output", default=None)
def tent_family_cmd(r, k, output):
    fam = tent_family(r, k)
    _emit([json.loads(H.to_json()) for H in fam.members], output)


# -- hom -------------------------------------------------------------------


@cli.group()
def hom():
    """Homomorphism checks and tiny exact extremal numbers."""


@hom.command("check")
@click.argument("source", type=click.Path(exists=True))
@click.argument("host", type=click.Path(exists=True))
@click.option("--partial", is_flag=True,
              help="Treat SOURCE as maximal edges of a partial hypergraph.")
@click.pass_context
def hom_check(ctx, source, host, partial):
    H = _load_hypergraph(host)
    if partial:
        with open(source) as fh:
            d = json.load(fh)
        F = PartialHypergraph(r=d["r"], n=d["n"], maximal_edges=d["edges"])
        found = find_partial_homomorphism(F, H, _budget(ctx))
    else:
        F = _load_hypergraph(source)
        found = find_homomorphism(F, H, _budget(ctx))
    _emit({"found": found is not None,
           "map": found if found is not None else None})


@hom.command("exact-turan")
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("-o", "--output", default=None)
@click.pass_context
def hom_exact_turan(ctx, n, r, k, output):
    value, extremal = brute_force_ex(n, tent_family(r, k), _budget(ctx))
    _emit({
        "n": n, "r": r, "k": k,
        "ex": value,
        "extremal_count": len(extremal),
        "extremal": [json.loads(G.to_json()) for G in extremal],
    }, output)


# -- lagrangian ------------------------------------------------------------


@cli.command("lagrangian")
@click.argument("hypergraph", type=click.Path(exists=True))
@click.option("--restarts", default=200, show_default=True)
@click.pass_context
def lagrangian_cmd(ctx, hypergraph, restarts):
    H = _load_hypergraph(hypergraph)
    res = lagrangian(H, restarts=restarts, seed=ctx.obj["seed"])
    _emit({
        "value": res.value,
        "blowup_density": res.blowup_density,
        "witness": list(res.witness.weights),
        "status": res.status,
        "restarts_used": res.restarts_used,
        "diagnostics": res.diagnostics,
    })


# -- region ----------------------------------------------------------------


@cli.group()
def region():
    """The product-maximization region."""


def _report_payload(rep) -> dict:
    lower, upper = rep.bracket["lower"], rep.bracket["upper"]
    return {
        "value": rep.value,
        "bound": rep.bound,
        "argmax": {"r": rep.argmax.r, "k": rep.argmax.k,
                   "x": [float(v) for v in rep.argmax.x]},
        "kkt": rep.kkt,
        # the exact bounds run to thousands of digits; certificates keep them
        "bracket": {"eps": str(rep.bracket["eps"]),
                    "gap": None if upper is None else float((upper - lower) / lower)},
        "status": rep.status,
        # wall seconds would make the output differ from run to run
        "diagnostics": {k: v for k, v in rep.diagnostics.items() if k != "seconds"},
    }


def _max_evidence(rep) -> dict:
    """Certificate evidence of a report: the exact argmax as Fraction
    strings, the value, the KKT certificate and the exact bracket."""
    p = rep.argmax
    bracket = {key: None if v is None else str(v) for key, v in rep.bracket.items()}
    return {"r": p.r, "k": p.k, "x": [str(v) for v in p.x], "value": rep.value,
            "kkt": rep.kkt, "bracket": bracket}


@region.command("max")
@click.option("--r", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--certificate", default=None, help="Write a verifiable certificate here.")
@click.option("-o", "--output", default=None)
@click.pass_context
def region_max(ctx, r, k, certificate, output):
    rep = maximize_product(r, k)
    payload = _report_payload(rep)
    _emit(payload, output)
    if certificate:
        # below ceil(r/e) the theorem makes no claim, so the run is a probe
        claim = "region-product-maximum" if k >= ceil_r_over_e(r) else "region-probe"
        cert = Certificate(
            claim=claim,
            anchor=claim,
            config=_config(ctx) | {"r": r, "k": k},
            evidence=_max_evidence(rep),
        )
        with open(certificate, "w") as fh:
            fh.write(cert.to_json() + "\n")


@region.command("counterexample")
@click.option("--r", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--eps", default=None, help="Starting epsilon > 0 (rational, e.g. 1/100).")
@click.option("--certificate", default=None)
@click.option("-o", "--output", default=None)
@click.pass_context
def region_counterexample(ctx, r, k, eps, certificate, output):
    if eps is not None:
        eps = Fraction(eps)
        try:  # eps = 0 would give the linear point, whose product is r!/r^r
            eps = rounded_eps(eps)
        except ValueError:
            raise click.UsageError(f"--eps must be positive after rounding to a "
                                   f"denominator of at most 10^12, got {eps}") from None
    point = counterexample_point(r, k, eps)
    prod = math.prod(point.x)
    bound = product_bound(r)
    payload = {
        "r": r, "k": k,
        "x": [float(v) for v in point.x],
        "x_exact": [str(v) for v in point.x],
        "product": str(prod),
        "bound": str(bound),
        "margin": float(prod - bound),
        "exceeds_bound": prod > bound,
    }
    _emit(payload, output)
    if certificate:
        cert = Certificate(
            claim="region-counterexample",
            anchor="region-counterexample",
            config=_config(ctx) | {"r": r, "k": k},
            evidence={"r": r, "k": k, "x_exact": payload["x_exact"],
                      "value": float(prod)},
        )
        with open(certificate, "w") as fh:
            fh.write(cert.to_json() + "\n")


@region.command("segments")
@click.argument("point", type=click.Path(exists=True))
@click.pass_context
def region_segments(ctx, point):
    with open(point) as fh:
        d = json.load(fh)
    p = FeasiblePoint(r=d["r"], k=d["k"], x=tuple(d["x"]))
    dec = segments(p)
    _emit({
        "initial_length": dec.initial_length,
        "segments": [
            {"L": s.L, "R": s.R, "length": s.length, "central": s.central,
             "left_crossing": s.left_crossing,
             "right_crossing": s.right_crossing, "super": s.super_}
            for s in dec.segments
        ],
    })


@region.command("probe-floor")
@click.option("--r", type=int, required=True)
@click.option("-o", "--output", default=None)
@click.pass_context
def region_probe_floor(ctx, r, output):
    k = floor_r_over_e(r)
    if k < 1:
        raise ValueError(f"floor(r/e) < 1 for r={r}")
    rep = maximize_product(r, k)
    payload = _report_payload(rep)
    payload["k"] = rep.argmax.k
    # a region point beats r!/r^r: decided exactly, whatever the float margin
    payload["exceeds_bound"] = rep.bracket["lower"] > product_bound(r)
    _emit(payload, output)


# -- entropy ---------------------------------------------------------------


@cli.group("entropy")
def entropy_grp():
    """Entropic density and ratio sequences."""


@entropy_grp.command("density")
@click.argument("hypergraph", type=click.Path(exists=True))
@click.option("--restarts", default=100, show_default=True)
@click.pass_context
def entropy_density(ctx, hypergraph, restarts):
    H = _load_hypergraph(hypergraph)
    res = ent.entropic_density(H, restarts=restarts, seed=ctx.obj["seed"])
    _emit({
        "value": res.value,
        "witness": list(res.witness.w),
        "status": res.status,
        "diagnostics": res.diagnostics,
    })


@entropy_grp.command("ratio")
@click.argument("hypergraph", type=click.Path(exists=True))
@click.argument("weights", type=click.Path(exists=True))
def entropy_ratio(hypergraph, weights):
    H = _load_hypergraph(hypergraph)
    with open(weights) as fh:
        w = json.load(fh)
    rs = ent.ratio_sequence(ent.EdgeDistribution(H, tuple(w)))
    _emit({
        "x": list(rs.x),
        "joint_entropy": rs.joint_entropy,
        "marginal_entropy": rs.marginal_entropy,
    })


@entropy_grp.command("verify-ratio")
@click.argument("hypergraph", type=click.Path(exists=True))
@click.option("--family", "family_spec", required=True, help="r,k of the tent family.")
@click.option("--trials", default=100, show_default=True)
@click.pass_context
def entropy_verify_ratio(ctx, hypergraph, family_spec, trials):
    r, k = (int(v) for v in family_spec.split(","))
    H = _load_hypergraph(hypergraph)
    report = ent.verify_ratio_constraints(H, tent_family(r, k), trials=trials,
                                          budget=_budget(ctx), seed=ctx.obj["seed"])
    _emit(report)
    if not report["all_feasible"]:
        sys.exit(1)


# -- report ----------------------------------------------------------------


@cli.group()
def report():
    """Tables over ranges of r."""


def _write_table(rows: list[dict], fmt: str, output):
    if fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
        if output:
            with open(output, "w") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
    else:
        _emit(rows, output)


@report.command("theorem-table")
@click.option("--r-min", default=4, show_default=True)
@click.option("--r-max", default=12, show_default=True)
@click.option("--cert-dir", default=None, help="Write one certificate per row here.")
@click.option("-o", "--output", default=None)
@click.pass_context
def report_theorem_table(ctx, r_min, r_max, cert_dir, output):
    if not 2 <= r_min <= r_max <= 200:
        raise click.UsageError("supported range is 2 <= r-min <= r-max <= 200")
    rows = []
    for r in range(r_min, r_max + 1):
        k = ceil_r_over_e(r)
        if k > r // 2:
            rows.append({"r": r, "note": f"skipped: ceil(r/e)={k} exceeds floor(r/2)"})
            continue
        rep = maximize_product(r, k)
        bound = product_bound(r)
        dev = float(np.abs(rep.argmax.as_floats()
                           - np.arange(1, r + 1) / r).max())
        rows.append({
            "r": r,
            "k": k,
            "optimum": rep.value,
            "bound": float(bound),
            "relative_gap": abs(rep.value - float(bound)) / float(bound),
            "argmax_max_deviation": dev,
            "kkt_residual": rep.kkt.get("residual"),
            "exact_tight": rep.kkt["exact"],
        })
        if cert_dir:
            cert = Certificate(
                claim="region-product-maximum",
                anchor="region-product-maximum",
                config=_config(ctx) | {"r": r, "k": k},
                evidence=_max_evidence(rep),
            )
            with open(f"{cert_dir}/region-max-r{r}.json", "w") as fh:
                fh.write(cert.to_json() + "\n")
    _write_table(rows, ctx.obj["fmt"], output)


@report.command("counterexample-table")
@click.option("--r-min", default=4, show_default=True)
@click.option("--r-max", default=15, show_default=True)
@click.option("-o", "--output", default=None)
@click.pass_context
def report_counterexample_table(ctx, r_min, r_max, output):
    if not 2 <= r_min <= r_max <= 40:
        raise click.UsageError("supported range is 2 <= r-min <= r-max <= 40")
    rows = []
    for r in range(r_min, r_max + 1):
        for k in range(1, floor_r_over_e(r)):
            point = counterexample_point(r, k)
            prod = math.prod(point.x)
            bound = product_bound(r)
            eps = 1 - r * point.x[0]  # x_1 = (1 - eps)/r
            rows.append({
                "r": r,
                "k": k,
                "eps": str(eps),
                "feasible_exact": point.is_exact,
                "product": float(prod),
                "bound": float(bound),
                "margin": float(prod - bound),
            })
    _write_table(rows, ctx.obj["fmt"], output)


# -- verify ----------------------------------------------------------------


@cli.command("verify")
@click.argument("certificate", type=click.Path(exists=True))
def verify_cmd(certificate):
    with open(certificate) as fh:
        cert = Certificate.from_json(fh.read())
    passed, checks = verify_certificate(cert)
    _emit({
        "passed": passed,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    })
    if not passed:
        sys.exit(1)


def main():
    try:
        cli(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(3)
    except click.ClickException as exc:
        exc.show()
        sys.exit(3)
    except BudgetExceededError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except SystemExit:
        raise


if __name__ == "__main__":
    main()
