"""Command-line front end: records, exit codes, determinism."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from casimir_cylinders import cli
from casimir_cylinders.errors import NoConvergence

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
_FIELDS = ("kind", "bc", "a", "b", "d", "method", "value_per_length",
           "err_est", "n_matrix", "p_terms_max", "xi_nodes", "wall_seconds")


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "casimir_cylinders", *args],
        capture_output=True, text=True, env=env)


def csv_rows(stdout):
    lines = stdout.splitlines()
    assert lines[0] == "# casimir_cylinders run_record v1"
    assert lines[1] == ",".join(_FIELDS)
    return [dict(zip(_FIELDS, line.split(","))) for line in lines[2:]]


def test_console_script_installed():
    path = shutil.which("casimir-cyl")
    if path is not None:
        cmd = [path, "--help"]
    else:
        # uninstalled tree (tests run from PYTHONPATH=src): call the entry
        # point declared in pyproject.toml the way an installer's generated
        # console-script wrapper does
        tomllib = pytest.importorskip("tomllib")
        with open(_PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "casimir-cyl" in scripts
        module, func = scripts["casimir-cyl"].split(":")
        cmd = [sys.executable, "-c",
               f"import sys; import {module} as target; "
               f"sys.argv = ['casimir-cyl', '--help']; "
               f"sys.exit(target.{func}())"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "compute" in proc.stdout and "sweep" in proc.stdout


def test_compute_closed_form_golden_bytes():
    proc = run_cli("compute", "--kind", "interior", "--bc", "dd",
                   "--a", "1", "--b", "2", "--d", "0.1",
                   "--quantity", "force",
                   "--method", "pfa-leading,asymptotic,pfa-integral",
                   "--no-timing")
    assert proc.returncode == 0
    rows = csv_rows(proc.stdout)
    assert [r["method"] for r in rows] == ["pfa-leading", "asymptotic",
                                           "pfa-integral"]
    assert rows[0]["value_per_length"] == "-127.6698646759269"
    assert rows[1]["value_per_length"] == "-132.8830508168606"
    assert rows[2]["value_per_length"] == "-143.53526457149877"
    for row in rows:
        assert row["err_est"] == "0.0"
        assert row["wall_seconds"] == "0.0"


def test_compute_exact_small_run():
    args = ("compute", "--kind", "interior", "--bc", "dd", "--a", "1",
            "--b", "2", "--d", "0.5", "--method", "exact",
            "--rel-tol", "1e-3", "--no-timing")
    first = run_cli(*args)
    assert first.returncode == 0
    row, = csv_rows(first.stdout)
    value = float(row["value_per_length"])
    err_est = float(row["err_est"])
    # frozen from the first run of the row-tail truncation (N=11)
    assert abs(value - (-0.14356817104330305)) <= 1e-6 * abs(value)
    # the rel_tol-1e-6 value (perfbench/refs.json, N=40, 256 xi nodes)
    assert abs(value - (-0.143596835215232)) <= err_est
    assert err_est <= 1e-3 * abs(value)
    assert int(row["n_matrix"]) > 0
    assert int(row["p_terms_max"]) > 0
    assert int(row["xi_nodes"]) >= 32
    # the exact pipeline itself must be run-to-run deterministic
    assert run_cli(*args).stdout == first.stdout


def test_compute_json_round_trip():
    proc = run_cli("compute", "--kind", "exterior", "--bc", "nd",
                   "--a", "1", "--b", "1.5", "--d", "0.3",
                   "--quantity", "force", "--method", "asymptotic",
                   "--format", "json", "--no-timing")
    assert proc.returncode == 0
    records = json.loads(proc.stdout)
    assert len(records) == 1
    assert set(records[0]) == set(_FIELDS)
    assert records[0]["kind"] == "exterior"
    assert records[0]["value_per_length"] > 0.0
    assert records[0]["wall_seconds"] == 0.0


def test_compute_composite_doubles_scalar():
    base = ("compute", "--kind", "interior", "--a", "1", "--b", "2",
            "--d", "0.1", "--quantity", "force", "--method", "pfa-leading",
            "--no-timing")
    dd = csv_rows(run_cli(*base, "--bc", "dd").stdout)[0]
    pc = csv_rows(run_cli(*base, "--bc", "pcpc").stdout)[0]
    assert float(pc["value_per_length"]) == 2.0 * float(dd["value_per_length"])


@pytest.mark.parametrize("args", [
    ("compute", "--kind", "interior", "--bc", "xy", "--a", "1", "--b", "2",
     "--d", "0.1"),
    ("compute", "--kind", "interior", "--bc", "dd", "--a", "1", "--b", "2",
     "--d", "0.1", "--method", "unknown"),
    ("compute", "--kind", "interior", "--bc", "pcpc", "--a", "1", "--b", "2",
     "--d", "0.1", "--method", "exact"),
    ("compute", "--kind", "interior", "--bc", "dd", "--a", "1", "--b", "2",
     "--d", "0.1", "--quantity", "energy", "--method", "pfa-integral"),
    ("compute", "--kind", "interior", "--bc", "dd", "--a", "1", "--b", "2",
     "--d", "-0.1"),
    ("compute", "--kind", "interior", "--bc", "dd", "--a", "2", "--b", "1",
     "--d", "0.1"),
    ("sweep", "--kind", "interior", "--bc", "dd", "--a", "1", "--b", "2",
     "--d-grid", "0.1:0.2"),
    ("sweep", "--kind", "interior", "--bc", "dd", "--a", "1", "--b", "2",
     "--d-grid", "0.1:0.2:0"),
    ("sweep", "--kind", "interior", "--bc", "dd", "--a", "1", "--b", "2",
     "--d-grid", "0.01:inf:3"),
    ("sweep", "--kind", "interior", "--bc", "dd", "--a", "1", "--b", "2",
     "--d-grid", "nan:0.5:3"),
    ("sweep", "--kind", "interior", "--bc", "dd", "--a", "1", "--b", "2",
     "--d-grid", "0.1:0.2:1000000000000"),
])
def test_invalid_input_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("method", ["pfa-leading", "asymptotic", "pfa-integral"])
def test_gap_below_double_range_exits_2(method):
    # the d^-3.5 amplitude underflows to no double: a one-line usage
    # diagnostic, not a traceback or a quadrature ladder run to its end
    proc = run_cli("compute", "--kind", "interior", "--bc", "dd", "--a", "1",
                   "--b", "2", "--d", "1e-300", "--quantity", "force",
                   "--method", method)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "too small" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("quantity", ["energy", "force"])
def test_exact_at_subnormal_gap_exits_3(quantity, capsys):
    # the initial truncation overflows: a one-line diagnostic, not an
    # OverflowError, and the NaN record is still emitted
    code = cli.main(["compute", "--kind", "interior", "--bc", "dd",
                     "--a", "1", "--b", "2", "--d", "1e-310",
                     "--quantity", quantity, "--no-timing"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ("d=1e-310 exact: initial truncation N=inf "
                            "exceeds cap 4096\n")
    assert csv_rows(captured.out)[0]["value_per_length"] == "nan"


@pytest.mark.parametrize("rel_tol", ["nan", "inf"])
def test_nonfinite_rel_tol_exits_2(rel_tol):
    # rejected up front: a NaN tolerance never stops the xi ladder
    proc = subprocess.run(
        [sys.executable, "-m", "casimir_cylinders", "compute", "--kind",
         "exterior", "--bc", "dd", "--a", "1", "--b", "1", "--d", "2",
         "--method", "exact", "--rel-tol", rel_tol],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert "rel_tol must be finite" in proc.stderr


def test_sweep_ordering_and_grid():
    proc = run_cli("sweep", "--kind", "interior", "--bc", "dd",
                   "--a", "1", "--b", "2", "--d-grid", "0.2:0.05:3",
                   "--quantity", "force",
                   "--method", "pfa-leading,asymptotic", "--no-timing")
    assert proc.returncode == 0
    rows = csv_rows(proc.stdout)
    assert [(float(r["d"]), r["method"]) for r in rows] == [
        (0.05, "asymptotic"), (0.05, "pfa-leading"),
        (0.1, "asymptotic"), (0.1, "pfa-leading"),
        (0.2, "asymptotic"), (0.2, "pfa-leading"),
    ]


def test_sweep_parallel_determinism():
    base = ("sweep", "--kind", "interior", "--bc", "dd", "--a", "1",
            "--b", "2", "--d-grid", "0.05:0.2:4", "--quantity", "force",
            "--method", "pfa-leading,asymptotic,pfa-integral", "--no-timing")
    serial = run_cli(*base, "--parallel", "1")
    twice = run_cli(*base, "--parallel", "1")
    pooled = run_cli(*base, "--parallel", "2")
    assert serial.returncode == pooled.returncode == 0
    assert serial.stdout == twice.stdout
    assert serial.stdout == pooled.stdout


def test_sweep_thread_env_default(monkeypatch):
    import os
    env = dict(os.environ, CASIMIR_CYL_THREADS="2")
    base = ("sweep", "--kind", "exterior", "--bc", "dn", "--a", "1",
            "--b", "1.5", "--d-grid", "0.1:0.3:3", "--quantity", "force",
            "--method", "pfa-leading", "--no-timing")
    with_env = run_cli(*base, env=env)
    plain = run_cli(*base)
    assert with_env.returncode == 0
    assert with_env.stdout == plain.stdout


def _record_pool_sizes(monkeypatch):
    """Replace the sweep pool by one that runs its tasks in process and
    records its width in the returned list, on a 64-core machine."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    return sizes


def test_sweep_pool_no_wider_than_grid(monkeypatch, capsys):
    # the pool forks every worker it is given at once, so a 2-point sweep
    # asks for 2 workers whatever --parallel says; the fake pool runs the
    # tasks in process, so no worker is ever started
    sizes = _record_pool_sizes(monkeypatch)
    base = ["sweep", "--kind", "interior", "--bc", "dd", "--a", "1",
            "--b", "2", "--d-grid", "0.1:0.2:2", "--method", "pfa-leading",
            "--no-timing"]
    assert cli.main(base + ["--parallel", "4000"]) == 0
    pooled = capsys.readouterr().out
    assert sizes == [2]
    assert cli.main(base + ["--parallel", "1"]) == 0
    assert capsys.readouterr().out == pooled
    assert sizes == [2]


def test_thread_env_not_an_int(monkeypatch, capsys):
    # a bad CASIMIR_CYL_THREADS is a usage error of sweep, the one command
    # that reads it, and leaves the others alone
    monkeypatch.setenv("CASIMIR_CYL_THREADS", "abc")
    geometry = ["--kind", "interior", "--bc", "dd", "--a", "1", "--b", "2",
                "--method", "pfa-leading", "--no-timing"]
    assert cli.main(["compute", *geometry, "--d", "0.1"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", *geometry, "--d-grid", "0.1:0.2:2"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_thread_env_read_on_every_sweep(monkeypatch, capsys):
    # the parser is built once, but each sweep reads CASIMIR_CYL_THREADS
    # anew; the fake pool records its width and starts no worker
    sizes = _record_pool_sizes(monkeypatch)
    base = ["sweep", "--kind", "interior", "--bc", "dd", "--a", "1",
            "--b", "2", "--d-grid", "0.1:0.2:3", "--method", "pfa-leading",
            "--no-timing"]
    for threads, want in (("1", []), ("2", [2]), ("3", [2, 3])):
        monkeypatch.setenv("CASIMIR_CYL_THREADS", threads)
        assert cli.main(base) == 0
        assert sizes == want
    assert cli.build_parser.cache_info().misses <= 1


def test_q_closure_points_match_the_scalar_draws():
    # one uniform call over a (200, 6) array of bounds draws the stream of
    # the earlier per-point scalar calls, bit for bit
    rng = np.random.default_rng(20240811)
    old = np.array([
        [rng.uniform(0.3, 3.0), rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.3),
         rng.uniform(0.4, 2.5), *rng.uniform(-2.0, 2.0, size=2)]
        for _ in range(200)])
    assert np.array_equal(cli._q_closure_points(), old)


def test_verify_fast_passes():
    proc = run_cli("verify", "--suite", "all", "--level", "fast")
    assert proc.returncode == 0
    assert "verification: ok" in proc.stdout
    assert "FAIL" not in proc.stdout
    for suite in ("bessel", "oracle", "asymptotics"):
        assert f"== {suite} ==" in proc.stdout
    # one PASS line per fast-level row of the gate table, in its order
    passed = [line.split("  ")[1] for line in proc.stdout.splitlines()
              if line.startswith("PASS")]
    assert passed == [gate.name("fast") for gate in cli.GATES
                      if "fast" in gate.levels]


def test_verify_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "e0_coefficient_check", lambda chi: 1.0)
    code = cli.main(["verify", "--suite", "oracle", "--level", "fast"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  zeta sums" in out
    assert "verification: FAILED" in out


def test_nonconvergence_exits_3(monkeypatch, capsys):
    def blow_up(pair, bc, rel_tol):
        raise NoConvergence("matrix truncation still moving")

    monkeypatch.setattr(cli, "casimir_energy_exact", blow_up)
    code = cli.main(["compute", "--kind", "interior", "--bc", "dd",
                     "--a", "1", "--b", "2", "--d", "0.1",
                     "--format", "json", "--no-timing"])
    captured = capsys.readouterr()
    assert code == 3
    assert "still moving" in captured.err
    # the partial record is still emitted, with nulls for the unknown value
    records = json.loads(captured.out)
    assert records[0]["value_per_length"] is None
    assert records[0]["method"] == "exact"
