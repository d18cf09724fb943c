"""Command-line surface: constructions, searches, optimization reports,
tables, and certificate verification.

Exit codes: 0 success, 1 verification failure, 2 budget exhaustion,
3 bad input.  JSON (sorted keys) is the canonical output format; CSV is a
lossy convenience view for the tables.

Only the exact modules the certificate commands need (``certificates``,
``region``) are imported here; every other command imports its own module
when it runs, so ``--help``, the two report tables and ``verify`` start
without numpy.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from ._base import _SEED, BudgetExceededError
from .certificates import Certificate, verify_certificate
from .region import (
    FeasiblePoint,
    ceil_r_over_e,
    counterexample_point,
    fprime_zero,
    maximize_product,
    product_bound,
    segments,
)


def _emit(data, out=None):
    text = json.dumps(data, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _load_hypergraph(path: str):
    from .hypergraphs import Hypergraph
    with open(path) as fh:
        return Hypergraph.from_json(fh.read())


def _budget(ctx):
    from .homs import SearchBudget
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


def _write_certificate(ctx, path, claim: str, evidence: dict):
    """Write the certificate of ``claim`` (also its anchor) for the
    evidence's (r, k), with the run's configuration."""
    config = {key: ctx.obj[key] for key in ("seed", "timeout", "fmt")}
    config |= {key: evidence[key] for key in ("r", "k")}
    cert = Certificate(claim=claim, anchor=claim, config=config, evidence=evidence)
    with open(path, "w") as fh:
        fh.write(cert.to_json() + "\n")


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
    from .hypergraphs import TentSpec, make_general_tent, make_tent
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
    from .hypergraphs import tent_family
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
    from .homs import find_homomorphism, find_partial_homomorphism
    from .hypergraphs import PartialHypergraph
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
    from .homs import brute_force_ex
    from .hypergraphs import tent_family
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
    from .lagrangian import lagrangian
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
    # a region point beats r!/r^r: decided exactly, whatever the float margin
    payload["exceeds_bound"] = rep.bracket["lower"] > product_bound(r)
    _emit(payload, output)
    if certificate:
        # with f'(0) > 0 the theorem makes no claim, so the run is a probe
        claim = "region-product-maximum" if fprime_zero(r, k) <= 0 else "region-probe"
        _write_certificate(ctx, certificate, claim, _max_evidence(rep))


@region.command("counterexample")
@click.option("--r", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--certificate", default=None)
@click.option("-o", "--output", default=None)
@click.pass_context
def region_counterexample(ctx, r, k, certificate, output):
    point = counterexample_point(r, k)
    prod = point.product()
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
        _write_certificate(ctx, certificate, "region-counterexample",
                           {"r": r, "k": k, "x_exact": payload["x_exact"],
                            "value": float(prod)})


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


# -- entropy ---------------------------------------------------------------


@cli.group("entropy")
def entropy_grp():
    """Entropic density and ratio sequences."""


@entropy_grp.command("density")
@click.argument("hypergraph", type=click.Path(exists=True))
@click.option("--restarts", default=100, show_default=True)
@click.pass_context
def entropy_density(ctx, hypergraph, restarts):
    from . import entropy as ent
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
    from . import entropy as ent
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
    from . import entropy as ent
    from .hypergraphs import tent_family
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
        dev = max(abs(float(v) - i / r) for i, v in enumerate(rep.argmax.x, 1))
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
            _write_certificate(ctx, f"{cert_dir}/region-max-r{r}.json",
                               "region-product-maximum", _max_evidence(rep))
    _write_table(rows, ctx.obj["fmt"], output)


@report.command("counterexample-table")
@click.option("--r-min", default=4, show_default=True)
@click.option("--r-max", default=15, show_default=True)
@click.option("-o", "--output", default=None)
@click.pass_context
def report_counterexample_table(ctx, r_min, r_max, output):
    if not 2 <= r_min <= r_max <= 200:
        raise click.UsageError("supported range is 2 <= r-min <= r-max <= 200")
    rows = []
    for r in range(r_min, r_max + 1):
        bound = product_bound(r)
        for k in range(1, r // 2 + 1):
            if fprime_zero(r, k) <= 0:
                break  # f'(0) falls as k grows, so no larger k has a row
            point = counterexample_point(r, k)
            prod = point.product()
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
