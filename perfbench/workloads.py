"""The four benchmark workloads: their seeded inputs, the calls into tentopt,
and the oracle that checks each case's output.

Every case ends in one ``Outcome``.  A case that raises (including an
exhausted ``SearchBudget``) is an error; a case whose output the oracle
rejects is a failure; both count as failed, and no case is skipped.  A
passing case is certified when its result carries optimality evidence.

tentopt functions are always looked up on their module at call time, so a
traced run sees the wrappers ``spans.Tracer.install`` puts there.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

region = importlib.import_module("tentopt.region")
lagmod = importlib.import_module("tentopt.lagrangian")
entropy = importlib.import_module("tentopt.entropy")
homs = importlib.import_module("tentopt.homs")
hg = importlib.import_module("tentopt.hypergraphs")
iso = importlib.import_module("tentopt.isomorphism")

HERE = Path(__file__).resolve().parent

# region certificates: KKT stationarity below this residual
KKT_RESIDUAL = 1e-8
# region oracle: the optimum may undercut a known feasible point by this share
REGION_REL = 1e-9


@dataclass
class Outcome:
    case: str
    verdict: str  # "pass", "fail" (the oracle rejected the output) or "error"
    certified: bool = False
    error: str | None = None
    seconds: float = 0.0

    def as_list(self) -> list:
        return [self.case, self.verdict, self.certified, self.error, self.seconds]


def run_case(name: str, check) -> Outcome:
    """Run one case; ``check()`` returns (passed oracle, has evidence)."""
    start = time.perf_counter()
    try:
        ok, certified = check()
    except Exception as exc:  # every failure is counted, never skipped
        out = Outcome(name, "error", error=type(exc).__name__)
    else:
        out = Outcome(name, "pass" if ok else "fail", bool(ok and certified))
    out.seconds = time.perf_counter() - start
    return out


@dataclass
class Context:
    """What a pass needs beyond its inputs: the seed, a scratch directory
    inside the checkout, the environment for child processes and, in a
    traced pass, the tracer."""

    seed: int
    work: Path
    env: dict
    tracer: object = None
    child_rss_kb: int = 0
    passes: int = 0
    processes: list = field(default_factory=list)

    def pass_dir(self) -> Path:
        self.passes += 1
        d = self.work / f"pass{self.passes}"
        d.mkdir(parents=True)
        return d


def run_child(cmd: list[str], env: dict, log: Path, timeout: float = 170.0):
    """Run a child to completion; returns (exit code, wall seconds, max RSS
    in KiB).  stdout and stderr go to ``log``.  The child is killed if it
    outlives ``timeout``, and is always reaped before returning."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(timeout, proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


# Random hosts are drawn once from this fixed seed; the workload seed
# relabels their vertices and drives every multistart.  Random hosts differ
# in cost by two orders of magnitude (on a 2-vCPU x86 VM: 0.01 s to 44 s for
# one density host, 6 s to 11 s for 50 extension hosts at r = 6), so hosts
# redrawn per seed would make the run-to-run spread measure the draw, not
# the program.
DRAW_SEED = 0


def relabel(H, perm):
    return hg.Hypergraph(r=H.r, n=H.n, edges=[[int(perm[v]) for v in e] for e in H.edges])


# ---------------------------------------------------------------------------
# region-sweep


def feasible_product(r: int, k: int) -> float:
    """Product of a known feasible point: the exact counterexample point below
    floor(r/e), the linear point i/r at floor(r/e)."""
    if k < region.floor_r_over_e(r):
        return float(math.prod(region.counterexample_point(r, k).x))
    return float(region.product_bound(r))


def kkt_certified(kkt: dict) -> bool:
    # the report's status field misreports, so read the KKT evidence itself
    return bool(kkt.get("optimal")) and kkt.get("residual", math.inf) < KKT_RESIDUAL


def region_verdict(r: int, k: int, value: float, kkt: dict) -> tuple[bool, bool]:
    return value >= (1 - REGION_REL) * feasible_product(r, k), kkt_certified(kkt)


class RegionSweep:
    """maximize_product over a third of the (r, k) grid with 4 <= r <= 40,
    1 <= k < ceil(r/e): the cases with r + k + seed divisible by 3, so each
    run covers every r and three consecutive seeds cover all 280 cases (the
    whole grid takes about 70 s on a 2-vCPU x86 VM, too long for one run)."""

    name = "region-sweep"
    cli = False

    def inputs(self, seed: int):
        return [(r, k) for r in range(4, 41)
                for k in range(1, min(region.floor_r_over_e(r), r // 2) + 1)
                if (r + k + seed) % 3 == 0]

    def run_pass(self, cases, ctx: Context) -> list[Outcome]:
        def check(r, k):
            rep = region.maximize_product(r, k, seed=ctx.seed)
            return region_verdict(r, k, rep.value, rep.kkt)

        return [run_case(f"r={r},k={k}", lambda: check(r, k)) for r, k in cases]


# ---------------------------------------------------------------------------
# host-densities

HOST_STRATA = ((2, 6, 12), (3, 6, 10), (4, 5, 8))  # (r, n_min, n_max)
HOSTS_PER_STRATUM = 1


def host_inputs(seed: int):
    draw = np.random.default_rng(DRAW_SEED)
    hosts = []
    for _ in range(HOSTS_PER_STRATUM):
        for r, lo, hi in HOST_STRATA:
            while True:
                n = int(draw.integers(lo, hi + 1))
                H = hg.random_hypergraph(r, n, float(draw.uniform(0.2, 0.7)), draw)
                if len(H.edges) >= 2:
                    break
            hosts.append(("random", H))
    for r in (4, 5, 6):
        hosts.append(("edge", hg.Hypergraph(r=r, n=r, edges=[range(r)])))
        hosts.append(("turan", hg.make_turan_graph(r, 2 * r)))
    rng = np.random.default_rng(seed)
    return [(kind, relabel(H, rng.permutation(H.n))) for kind, H in hosts]


def host_verdict(H, lag, ent, at_witness: float) -> tuple[bool, bool]:
    ok = (abs(ent.value - lag.blowup_density) < 1e-5
          and abs(at_witness - lag.value) <= 1e-9 * lag.value)
    if H.r == 2:
        ok = ok and abs(lag.value - lagmod.motzkin_straus_value(H)) < 1e-6
    certified = lag.status == "converged" and ent.status == "converged"
    return ok, certified


class HostDensities:
    """lagrangian then entropic_density on stratified random hosts, plus single
    edges and Turan(r, 2r) for r = 4, 5, 6 checked against the ratio
    constraints; the Lagrangian is computed twice, as the acceptance test
    does."""

    name = "host-densities"
    cli = False

    def inputs(self, seed: int):
        return host_inputs(seed)

    def run_pass(self, hosts, ctx: Context) -> list[Outcome]:
        seed = ctx.seed

        def check(kind, H):
            lag = lagmod.lagrangian(H, seed=seed)
            ent = entropy.entropic_density(H, seed=seed)
            ok, certified = host_verdict(H, lag, ent, lagmod.edge_polynomial(H, lag.witness))
            if kind != "random":
                r = H.r
                ok = ok and abs(lag.blowup_density - float(lagmod.single_edge_density(r))) < 1e-9
                rep = entropy.verify_ratio_constraints(
                    H, hg.tent_family(r, region.ceil_r_over_e(r)),
                    assume_hom_free=True, seed=seed)
                ok = ok and rep["all_feasible"]
            return ok, certified

        return [run_case(f"{kind}:r={H.r},n={H.n},m={len(H.edges)}",
                         lambda: check(kind, H)) for kind, H in hosts]


# ---------------------------------------------------------------------------
# exact-search

BRUTE_FORCE = ((2, range(4, 9)), (3, (5, 6)), (4, (6, 7)))  # tent(r, 1), n values


def contains_copy(F, G) -> bool:
    """Whether G contains F as a subgraph (an injective edge-preserving map)."""
    edges = G.edges
    for perm in itertools.permutations(range(G.n), F.n):
        if all(tuple(sorted(perm[v] for v in e)) in edges for e in F.edges):
            return True
    return False


def mantel_verdict(n: int, ex: int, extremal) -> bool:
    """ex(n, K3) = floor(n^2/4), attained only by the balanced bipartite graph."""
    return (ex == n * n // 4 and len(extremal) == 1
            and iso.is_isomorphic(extremal[0], hg.make_turan_graph(2, n)))


def extremal_verdict(n: int, family, ex: int, extremal) -> bool:
    """Each extremal class has n vertices and ex edges, avoids every member,
    and the classes are pairwise non-isomorphic."""
    if not extremal:
        return False
    for G in extremal:
        if G.n != n or len(G.edges) != ex:
            return False
        if any(contains_copy(F, G) for F in family.members):
            return False
    return not any(iso.is_isomorphic(A, B) for A, B in itertools.combinations(extremal, 2))


def exact_inputs(seed: int):
    """(case name, kind, a, b) tuples: ("ex", r, n), ("turan", r, host) and
    ("ext", i, host) for the partial tent (r, i)."""
    cases = [(f"ex:r={r},n={n}", "ex", r, n) for r, ns in BRUTE_FORCE for n in ns]
    rng = np.random.default_rng(seed)
    for r in (4, 5):
        H = hg.make_turan_graph(r, 2 * r)
        cases.append((f"turan:r={r}", "turan", r, relabel(H, rng.permutation(H.n))))
    draw = np.random.default_rng(DRAW_SEED)
    for r in range(2, 7):
        hosts = []
        while len(hosts) < 50:
            n = int(draw.integers(r, 9))
            H = hg.random_hypergraph(r, n, float(draw.uniform(0.05, 0.6)), draw)
            if H.edges:
                hosts.append(relabel(H, rng.permutation(H.n)))
        cases.extend((f"ext:r={r},i={i},host={j}", "ext", i, H)
                     for i in range(1, r // 2 + 1) for j, H in enumerate(hosts))
    return cases


class ExactSearch:
    """brute_force_ex MILP enumeration, exhaustive hom-freeness proofs for
    Turan(r, 2r) against two tents, and partial/full extension equivalence
    on seeded random hosts."""

    name = "exact-search"
    cli = False

    def inputs(self, seed: int):
        return exact_inputs(seed)

    def run_pass(self, cases, ctx: Context) -> list[Outcome]:
        def check(kind, a, b):
            if kind == "ex":
                fam = hg.tent_family(a, 1)
                ex, extremal = homs.brute_force_ex(b, fam)
                ok = (mantel_verdict(b, ex, extremal) if a == 2
                      else extremal_verdict(b, fam, ex, extremal))
            elif kind == "turan":
                ok = homs.is_hom_free(b, hg.tent_family(a, 2))
            else:
                ok = homs.verify_extension_equivalence(hg.make_partial_tent(b.r, a), b)
            return ok, True  # exhaustive search is its own evidence

        return [run_case(name, lambda: check(kind, a, b)) for name, kind, a, b in cases]


# ---------------------------------------------------------------------------
# theorem-table (through the CLI)

R_MIN, R_MAX = 4, 40
VERIFY_PICKS = 3


def theorem_row_verdict(row: dict, kkt: dict) -> tuple[bool, bool]:
    ok = row.get("relative_gap", math.inf) <= 1e-9 and row.get("exact_tight") is True
    return ok, kkt_certified(kkt)


class TheoremTable:
    """The CLI path a reader runs: the theorem table with certificates, the
    counterexample table, and verification of certificates the seed picks.
    Each CLI call is its own process, as a user's would be."""

    name = "theorem-table"
    cli = True

    def inputs(self, seed: int):
        picks = np.random.default_rng(seed).choice(np.arange(R_MIN, R_MAX + 1),
                                                   VERIFY_PICKS, replace=False)
        return sorted(int(r) for r in picks)

    def _cli(self, ctx: Context, d: Path, args: list[str]) -> int:
        log = d / f"cli{len(ctx.processes)}.log"
        full = ["--seed", str(ctx.seed)] + args
        if ctx.tracer is None:
            code, wall, rss = run_child([sys.executable, "-m", "tentopt.cli"] + full, ctx.env, log)
        else:
            out = d / f"trace{len(ctx.processes)}.json"
            span = ctx.tracer.open("cli.process")
            try:
                code, wall, rss = run_child(
                    [sys.executable, str(HERE / "cli_child.py"), str(out)] + full, ctx.env, log)
                if out.is_file():
                    # the child's spans become children of this process span
                    child = json.loads(out.read_text())
                    for name, stat in child["stats"].items():
                        ctx.tracer.stats[name].merge(stat)
                    for key, value in child["edge_s"].items():
                        ctx.tracer.edge_s[key] += value
                    span.child_s += child["covered_s"]
            finally:
                ctx.tracer.close(span)
        ctx.processes.append((args[0], code, wall))
        ctx.child_rss_kb = max(ctx.child_rss_kb, rss)
        return code

    def run_pass(self, picks, ctx: Context) -> list[Outcome]:
        d = ctx.pass_dir()
        certs = d / "certs"
        certs.mkdir()
        span = ["--r-min", str(R_MIN), "--r-max", str(R_MAX)]

        code_t = self._cli(ctx, d, ["report", "theorem-table", *span, "--cert-dir", str(certs),
                                    "-o", str(d / "theorem.json")])
        theorem = _table(code_t, d / "theorem.json")

        def theorem_row(r):
            row = _row(theorem, code_t, (r, region.ceil_r_over_e(r)))
            cert = json.loads((certs / f"region-max-r{r}.json").read_text())
            return theorem_row_verdict(row, cert["evidence"]["kkt"])

        outcomes = [run_case(f"theorem:r={r}", lambda: theorem_row(r))
                    for r in range(R_MIN, R_MAX + 1)]

        code_c = self._cli(ctx, d, ["report", "counterexample-table", *span,
                                    "-o", str(d / "counter.json")])
        counter = _table(code_c, d / "counter.json")

        def counter_row(r, k):
            row = _row(counter, code_c, (r, k))
            return row["feasible_exact"] is True and row["margin"] > 0, True

        outcomes += [run_case(f"counterexample:r={r},k={k}", lambda: counter_row(r, k))
                     for r in range(R_MIN, R_MAX + 1)
                     for k in range(1, region.floor_r_over_e(r))]

        for r in picks:
            # exit code 1 means the certificate failed verification
            code = self._cli(ctx, d, ["verify", str(certs / f"region-max-r{r}.json")])
            if code in (0, 1):
                outcomes.append(Outcome(f"verify:r={r}", "pass" if code == 0 else "fail",
                                        code == 0))
            else:
                outcomes.append(Outcome(f"verify:r={r}", "error", error=f"exit code {code}"))
        return outcomes


def _table(code: int, path: Path) -> dict | None:
    if code != 0:
        return None
    return {(row["r"], row.get("k")): row for row in json.loads(path.read_text())}


def _row(rows: dict | None, code: int, key) -> dict:
    if rows is None:
        raise ChildProcessError(f"the CLI exited with code {code}")
    return rows[key]


WORKLOADS = {w.name: w for w in (TheoremTable(), RegionSweep(), HostDensities(), ExactSearch())}
