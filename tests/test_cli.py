import json
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from tentopt.lagrangian import _SEED
from tentopt.cli import cli
from tentopt.hypergraphs import make_tent, make_turan_graph

runner = CliRunner()


def invoke(*args):
    res = runner.invoke(cli, list(args), obj={}, catch_exceptions=False)
    return res


def write_host(tmp_path, H, name="host.json"):
    p = tmp_path / name
    p.write_text(H.to_json())
    return str(p)


def run_main(*args, timeout=120):
    return subprocess.run([sys.executable, "-m", "tentopt.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


# -- commands through the runner -------------------------------------------


def test_tent_make():
    res = invoke("tent", "make", "--r", "4", "--i", "1")
    assert res.exit_code == 0
    d = json.loads(res.output)
    assert d["r"] == 4 and len(d["edges"]) == 3


def test_tent_make_lam():
    res = invoke("tent", "make", "--r", "4", "--lam", "2,1,1")
    assert res.exit_code == 0
    assert json.loads(res.output)["r"] == 4


def test_tent_family():
    res = invoke("tent", "family", "--r", "5", "--k", "2")
    assert res.exit_code == 0
    assert len(json.loads(res.output)) == 2


def test_hom_check(tmp_path):
    src = write_host(tmp_path, make_tent(3, 1), "src.json")
    host = write_host(tmp_path, make_tent(3, 1), "host.json")
    res = invoke("hom", "check", src, host)
    assert res.exit_code == 0
    assert json.loads(res.output)["found"] is True

    free = write_host(tmp_path, make_turan_graph(3, 6), "free.json")
    res = invoke("hom", "check", src, free)
    assert json.loads(res.output)["found"] is False


def test_hom_check_partial(tmp_path):
    p = tmp_path / "partial.json"
    p.write_text(json.dumps({"r": 3, "n": 2, "edges": [[0, 1]]}))
    host = write_host(tmp_path, make_turan_graph(3, 6))
    res = invoke("hom", "check", "--partial", str(p), host)
    assert res.exit_code == 0
    assert json.loads(res.output)["found"] is True


def test_hom_exact_turan():
    res = invoke("hom", "exact-turan", "--n", "5", "--r", "2", "--k", "1")
    assert res.exit_code == 0
    d = json.loads(res.output)
    assert d["ex"] == 6 and d["extremal_count"] == 1


def test_lagrangian_command(tmp_path):
    host = write_host(tmp_path, make_tent(2, 1))
    res = invoke("lagrangian", host)
    d = json.loads(res.output)
    assert d["value"] == pytest.approx(1 / 3, abs=1e-8)
    assert d["status"] == "converged"
    diag = d["diagnostics"]
    assert sum(diag["stopped"].values()) == d["restarts_used"]
    assert diag["reached_best"] >= 1 and diag["iterations_max"] >= diag["iterations_min"]


def test_region_max_with_certificate(tmp_path):
    cert = tmp_path / "cert.json"
    res = invoke("region", "max", "--r", "5", "--k", "2", "--certificate", str(cert))
    assert res.exit_code == 0
    d = json.loads(res.output)
    assert d["status"] == "converged"
    assert d["value"] == pytest.approx(120 / 5 ** 5, rel=1e-6)
    # the exact support size is printed too; a certificate does not store it
    assert d["diagnostics"] == {"path": "exact-linear-point",
                                "fit": {"support": 4}}
    assert "fit" not in json.loads(cert.read_text())["evidence"]["kkt"]

    vres = invoke("verify", str(cert))
    assert vres.exit_code == 0
    assert json.loads(vres.output)["passed"] is True


def test_region_counterexample_with_certificate(tmp_path):
    cert = tmp_path / "cert.json"
    res = invoke("region", "counterexample", "--r", "6", "--k", "1",
                 "--certificate", str(cert))
    d = json.loads(res.output)
    assert d["exceeds_bound"] is True and d["margin"] > 0
    vres = invoke("verify", str(cert))
    assert json.loads(vres.output)["passed"] is True


def test_region_segments(tmp_path):
    p = tmp_path / "point.json"
    p.write_text(json.dumps(
        {"r": 6, "k": 2, "x": [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]}))
    res = invoke("region", "segments", str(p))
    d = json.loads(res.output)
    assert d["initial_length"] == 1
    assert len(d["segments"]) == 5


def test_region_max_at_floor(tmp_path):
    # k = floor(6/e) = 2 is below ceil(6/e) = 3, but f'(0; 6, 2) = -3/10 <= 0:
    # the maximum is 6!/6^6 itself, and the certificate states the theorem
    cert = tmp_path / "cert.json"
    res = invoke("region", "max", "--r", "6", "--k", "2", "--certificate", str(cert))
    d = json.loads(res.output)
    assert d["argmax"]["k"] == 2 and d["exceeds_bound"] is False
    d = json.loads(cert.read_text())
    assert d["claim"] == d["anchor"] == "region-product-maximum"
    assert d["evidence"]["x"] == [str(Fraction(i, 6)) for i in range(1, 7)]
    vres = invoke("verify", str(cert))
    checks = {c["name"]: c for c in json.loads(vres.output)["checks"]}
    assert vres.exit_code == 0 and checks["fprime-nonpositive"]["ok"] is True
    assert checks["fprime-nonpositive"]["detail"] == "f'(0; 6, 2) = -3/10"


def test_entropy_density(tmp_path):
    host = write_host(tmp_path, make_tent(2, 1))
    res = invoke("entropy", "density", host, "--restarts", "20")
    d = json.loads(res.output)
    assert d["value"] == pytest.approx(2 / 3, abs=1e-6)
    diag = d["diagnostics"]
    assert sum(diag["stopped"].values()) == 20 + 2
    assert diag["iterations_max"] <= 2000
    assert diag["reached_best"] >= 1


def test_entropy_ratio(tmp_path):
    host = write_host(tmp_path, make_turan_graph(3, 6))
    w = tmp_path / "w.json"
    w.write_text(json.dumps([1 / 8] * 8))
    res = invoke("entropy", "ratio", host, str(w))
    d = json.loads(res.output)
    assert len(d["x"]) == 3 and d["x"][-1] == pytest.approx(1.0)


def test_entropy_verify_ratio(tmp_path):
    host = write_host(tmp_path, make_turan_graph(3, 6))
    res = invoke("entropy", "verify-ratio", host, "--family", "3,1",
                 "--trials", "10")
    assert res.exit_code == 0
    assert json.loads(res.output)["all_feasible"] is True


def test_theorem_table_with_certs(tmp_path):
    certs = tmp_path / "certs"
    certs.mkdir()
    res = invoke("report", "theorem-table", "--r-min", "4", "--r-max", "5",
                 "--cert-dir", str(certs))
    rows = json.loads(res.output)
    assert [row["r"] for row in rows] == [4, 5]
    assert all(row["relative_gap"] < 1e-6 for row in rows)
    for r in (4, 5):
        vres = invoke("verify", str(certs / f"region-max-r{r}.json"))
        assert json.loads(vres.output)["passed"] is True


def test_theorem_table_certificates_are_exact(tmp_path):
    from tentopt.certificates import Certificate, verify_certificate

    certs = tmp_path / "certs"
    certs.mkdir()
    res = invoke("report", "theorem-table", "--r-min", "4", "--r-max", "40",
                 "--cert-dir", str(certs))
    rows = json.loads(res.output)
    assert [row["r"] for row in rows] == list(range(4, 41))
    for row in rows:
        r = row["r"]
        assert row["relative_gap"] == 0.0 and row["kkt_residual"] == 0.0, r
        cert = Certificate.from_json((certs / f"region-max-r{r}.json").read_text())
        assert row["exact_tight"] is True and cert.evidence["kkt"]["exact"] is True, r
        assert cert.evidence["x"] == [str(Fraction(i, r)) for i in range(1, r + 1)]
        passed, checks = verify_certificate(cert)
        assert passed, (r, checks)


def test_theorem_table_reaches_r_200(tmp_path):
    certs = tmp_path / "certs"
    certs.mkdir()
    res = invoke("report", "theorem-table", "--r-min", "195", "--r-max", "200",
                 "--cert-dir", str(certs))
    assert res.exit_code == 0
    rows = json.loads(res.output)
    assert [row["r"] for row in rows] == list(range(195, 201))
    assert all(row["relative_gap"] == 0 and row["exact_tight"] for row in rows)
    vres = invoke("verify", str(certs / "region-max-r200.json"))
    assert vres.exit_code == 0 and json.loads(vres.output)["passed"] is True
    res = runner.invoke(cli, ["report", "theorem-table", "--r-max", "201"], obj={})
    assert res.exit_code != 0 and "200" in res.output
    res = runner.invoke(cli, ["report", "counterexample-table", "--r-max", "201"], obj={})
    assert res.exit_code != 0 and "200" in res.output


def test_region_max_below_threshold_writes_probe(tmp_path):
    cert = tmp_path / "cert.json"
    res = invoke("region", "max", "--r", "12", "--k", "2", "--certificate", str(cert))
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["status"] == "converged"
    assert out["diagnostics"] == {"path": "bend", "nit": out["diagnostics"]["nit"],
                                  "fit": {"support": len(out["kkt"]["active"])}}
    assert 0 < len(out["kkt"]["active"]) <= 11 and out["kkt"]["exact"] is False
    assert 0 < out["diagnostics"]["nit"] < 100 and 0 <= out["bracket"]["gap"] <= 1e-20
    d = json.loads(cert.read_text())
    assert d["claim"] == d["anchor"] == "region-probe"
    assert set(d["config"]) == {"seed", "timeout", "fmt", "r", "k"}
    assert d["config"]["seed"] == _SEED  # the library's default seed
    assert "diagnostics" not in d["evidence"]
    bracket = d["evidence"]["bracket"]
    assert set(bracket) == {"lower", "upper", "eps"}
    assert Fraction(bracket["eps"]) == Fraction(out["bracket"]["eps"]) > 0
    assert Fraction(bracket["lower"]) < Fraction(bracket["upper"])
    vres = invoke("verify", str(cert))
    assert json.loads(vres.output)["passed"] is True


def test_region_max_exceeds_bound_is_relative():
    # at r = 31 the optimum beats r!/r^r ~ 5e-13 by 0.1%, far below 1e-8
    d = json.loads(invoke("region", "max", "--r", "31", "--k", "11").output)
    assert d["argmax"]["k"] == 11 and d["exceeds_bound"] is True
    assert d["diagnostics"]["path"] == "bend"


def test_region_max_exceeds_bound_is_exact():
    # at r = 30, k = floor(30/e) = 11 has f'(0) < 0: the maximum is r!/r^r
    # itself, so only an exact comparison can say it does not exceed it
    d = json.loads(invoke("region", "max", "--r", "30", "--k", "11").output)
    assert d["argmax"]["k"] == 11 and d["exceeds_bound"] is False
    assert d["diagnostics"] == {"path": "exact-linear-point",
                                "fit": {"support": 29}}


def test_probe_floor_removed():
    res = runner.invoke(cli, ["region", "probe-floor", "--r", "6"], obj={})
    assert res.exit_code != 0 and "No such command" in res.output


def test_tol_option_removed():
    res = runner.invoke(cli, ["--tol", "1e-9", "tent", "make", "--r", "4", "--i", "1"],
                        obj={})
    assert res.exit_code != 0


def test_counterexample_table_csv():
    res = invoke("--format", "csv", "report", "counterexample-table",
                 "--r-min", "6", "--r-max", "9")
    lines = res.output.strip().splitlines()
    header = lines[0].split(",")
    assert {"r", "k", "eps", "margin"} <= set(header)
    # rows exist exactly for f'(0; r, k) > 0: k = 1 at r = 6, k = 1, 2 at
    # r = 7, 8 (floor(r/e) = 2 has f'(0) > 0 there) and k = 1, 2 at r = 9
    assert len(lines) - 1 == 7
    assert [tuple(line.split(",")[header.index(c)] for c in ("r", "k"))
            for line in lines[1:]] == [("6", "1"), ("7", "1"), ("7", "2"), ("8", "1"),
                                       ("8", "2"), ("9", "1"), ("9", "2")]


def test_counterexample_table_feasibility_checked_once(monkeypatch):
    import tentopt.region as region
    calls = []
    real = region.check_feasible
    monkeypatch.setattr(region, "check_feasible",
                        lambda *a, **kw: calls.append(a[0]) or real(*a, **kw))
    rows = json.loads(invoke("report", "counterexample-table",
                             "--r-min", "6", "--r-max", "9").output)
    assert all(row["feasible_exact"] is True for row in rows)
    # one candidate per row, eps = 1/m
    assert len(calls) == len(rows) == 7


def test_json_output_deterministic():
    a = invoke("region", "max", "--r", "5", "--k", "2")
    b = invoke("region", "max", "--r", "5", "--k", "2")
    assert a.output == b.output


def test_output_files(tmp_path):
    out = tmp_path / "tent.json"
    res = invoke("tent", "make", "--r", "4", "--i", "2", "-o", str(out))
    assert res.exit_code == 0
    assert json.loads(out.read_text())["r"] == 4


# -- exit codes through the real entry point -------------------------------


def test_verify_does_not_import_scipy_optimizers(tmp_path):
    # scipy.optimize is most of the start-up time, and only solvers need it
    cert = tmp_path / "cert.json"
    invoke("region", "max", "--r", "9", "--k", "4", "--certificate", str(cert))
    code = ("import sys\n"
            "import tentopt.cli\n"
            "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules)\n"
            f"sys.argv = ['tentopt', 'verify', {str(cert)!r}]\n"
            "tentopt.cli.main()\n"
            "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "False False"
    assert json.loads("\n".join(lines[1:-1]))["passed"] is True


def test_theorem_table_loads_no_scipy(tmp_path):
    # the exact linear-point multipliers are built in integers: no scipy module
    certs = tmp_path / "certs"
    certs.mkdir()
    code = ("import sys\n"
            "import tentopt.cli\n"
            "sys.argv = ['tentopt', 'report', 'theorem-table', '--r-min', '4',\n"
            f"            '--r-max', '40', '--cert-dir', {str(certs)!r}]\n"
            "try:\n"
            "    tentopt.cli.main()\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert len(list(certs.iterdir())) == 37


def test_certificate_commands_load_no_numpy(tmp_path):
    # the certificate commands are exact integer and Fraction work, so each
    # starts and runs without numpy or scipy; verify reads the certificates
    # that the table and `region counterexample` wrote
    certs = tmp_path / "certs"
    certs.mkdir()
    counter = tmp_path / "counter.json"
    invoke("region", "counterexample", "--r", "12", "--k", "2", "--certificate", str(counter))
    commands = [["--help"],
                ["report", "theorem-table", "--r-max", "40", "--cert-dir", str(certs)],
                ["report", "counterexample-table", "--r-max", "40"],
                ["verify", str(certs / "region-max-r40.json")],
                ["verify", str(counter)]]
    for args in commands:
        code = ("import sys\n"
                "import tentopt.cli\n"
                f"sys.argv = ['tentopt', *{args!r}]\n"
                "try:\n"
                "    tentopt.cli.main()\n"
                "finally:\n"
                "    print(sorted(m for m in sys.modules\n"
                "                 if m.split('.')[0] in ('numpy', 'scipy')))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, (args, proc.stderr)
        assert proc.stdout.splitlines()[-1] == "[]", args
        if args[0] == "verify":
            assert json.loads("\n".join(proc.stdout.splitlines()[:-1]))["passed"] is True
    assert len(list(certs.iterdir())) == 37


def test_hom_check_loads_no_scipy(tmp_path):
    # the backtracker needs no scipy; scipy.sparse is for brute_force_ex only
    src = write_host(tmp_path, make_tent(3, 1), "src.json")
    host = write_host(tmp_path, make_turan_graph(3, 6), "host.json")
    code = ("import sys\n"
            "import tentopt.cli\n"
            "print('scipy.sparse' in sys.modules)\n"
            f"sys.argv = ['tentopt', 'hom', 'check', {src!r}, {host!r}]\n"
            "tentopt.cli.main()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "[]"
    assert json.loads("\n".join(lines[1:-1]))["found"] is False


def test_exit_code_success():
    proc = run_main("tent", "make", "--r", "4", "--i", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["r"] == 4


def test_exit_code_verification_failure(tmp_path):
    cert = tmp_path / "cert.json"
    run_main("region", "counterexample", "--r", "6", "--k", "1",
             "--certificate", str(cert))
    d = json.loads(cert.read_text())
    d["evidence"]["value"] += 0.5
    cert.write_text(json.dumps(d))
    proc = run_main("verify", str(cert))
    assert proc.returncode == 1


def test_exit_code_budget_exhaustion(tmp_path):
    src = tmp_path / "src.json"
    src.write_text(make_tent(3, 1).to_json())
    host = tmp_path / "host.json"
    host.write_text(make_turan_graph(3, 9).to_json())
    proc = run_main("--timeout", "1e-9", "hom", "check", str(src), str(host))
    assert proc.returncode == 2


def test_exit_code_bad_input(tmp_path):
    proc = run_main("tent", "make", "--r", "4")  # neither --i nor --lam
    assert proc.returncode == 3
    proc = run_main("lagrangian", str(tmp_path / "missing.json"))
    assert proc.returncode == 3
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    proc = run_main("lagrangian", str(bad))
    assert proc.returncode == 3


def test_entropy_verify_ratio_rejects_negative_trials(tmp_path):
    host = write_host(tmp_path, make_turan_graph(4, 4))  # one 4-edge
    proc = run_main("entropy", "verify-ratio", host, "--family", "4,2", "--trials", "-1")
    assert proc.returncode == 3 and "trials" in proc.stderr


@pytest.mark.parametrize("command", [["lagrangian"], ["entropy", "density"]])
def test_negative_restarts_are_bad_input(tmp_path, command):
    host = write_host(tmp_path, make_tent(3, 1))
    proc = run_main(*command, host, "--restarts", "-1")
    assert proc.returncode == 3, proc.stderr
    assert "restarts must be >= 0" in proc.stderr


def test_counterexample_eps_option_removed():
    # eps = 1/m is fixed by (r, k): the start-eps option and its rounding are gone
    proc = run_main("region", "counterexample", "--r", "6", "--k", "1", "--eps", "1/100")
    assert proc.returncode == 3 and "--eps" in proc.stderr


def test_region_max_needs_a_tent():
    # floor(2/e) = 0: at r = 2 no k below 1 has a region
    proc = run_main("region", "max", "--r", "2", "--k", "0")
    assert proc.returncode == 3 and "k must lie in [1, 1]" in proc.stderr
