"""Acceptance gate: one test per shipped guarantee, one report line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines.  The
closed-form checks and their bounds live in one table, `cli.GATES`, which
`casimir-cyl verify` prints; `test_gate` runs each row at level slow
against its bound and wall budget.  The exact entries reuse the session
fixtures, so they cost little beyond the scattering runs they share with
the module tests.
"""
import re
import subprocess
import sys
import time

import pytest

from casimir_cylinders import BoundaryPair, CylinderPair, Kind, energy_expansion
from casimir_cylinders.cli import GATES

# two acceptance names run checks whose one body lives in the module tests
from test_oracle import (  # noqa: F401
    test_q_integration_reproduces_closed_forms as test_q_integration_closures)
from test_pfa import test_derivation_constant as test_pfa_gap_constant  # noqa: F401


def _gate(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize(
    "gate", GATES, ids=[re.sub(r"\W+", "_", g.name("slow")) for g in GATES])
def test_gate(gate):
    t0 = time.perf_counter()
    worst, detail = gate.check("slow")
    wall = time.perf_counter() - t0
    ok = worst <= gate.bound and (gate.budget is None or wall <= gate.budget)
    _gate(gate.name("slow"), ok, f"{detail}, {wall:.2f} s")


def test_exact_vs_asymptotic_convergence(energy_dd_01, energy_dd_005,
                                         energy_dn_01):
    def residual(res, bc, d, bracket):
        pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, d)
        ratio = res.value_per_length / energy_expansion(pair, bc).amplitude
        return abs(ratio - (1.0 + bracket * d))

    dd_01, wall_01 = energy_dd_01
    dd_005, wall_005 = energy_dd_005
    dn_01, wall_dn = energy_dn_01
    r_01 = residual(dd_01, BoundaryPair.DD, 0.10, 0.680556)
    r_005 = residual(dd_005, BoundaryPair.DD, 0.05, 0.680556)
    dn_bracket = energy_expansion(
        CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.10), BoundaryPair.DN).bracket
    r_dn = residual(dn_01, BoundaryPair.DN, 0.10, dn_bracket)
    ok = (r_01 <= 3 * 0.10 ** 2 and r_005 <= 3 * 0.05 ** 2
          and r_01 / r_005 >= 3.0
          and dn_01.value_per_length > 0.0 and r_dn <= 3 * 0.10 ** 2
          and max(wall_01, wall_005, wall_dn) <= 600.0)
    _gate("exact vs asymptotic convergence", ok,
          f"resid {r_01:.2e} -> {r_005:.2e} (x{r_01 / r_005:.1f}), "
          f"dn resid {r_dn:.2e}, walls {wall_01:.0f}/{wall_005:.0f}/"
          f"{wall_dn:.0f} s")


def test_exterior_symmetry(exterior_swap_quad):
    runs, wall = exterior_swap_quad
    dd_gap = abs(runs["dd_12"].value_per_length
                 - runs["dd_21"].value_per_length) \
        / abs(runs["dd_12"].value_per_length)
    dn_gap = abs(runs["dn_12"].value_per_length
                 - runs["nd_21"].value_per_length) \
        / abs(runs["dn_12"].value_per_length)
    ok = dd_gap <= 1e-4 and dn_gap <= 1e-4 and wall <= 600.0
    _gate("exterior relabel symmetry", ok,
          f"dd gap {dd_gap:.2e}, dn/nd gap {dn_gap:.2e}, {wall:.0f} s")


def test_cli_determinism():
    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "casimir_cylinders", *args],
            capture_output=True, text=True)
        assert proc.returncode == 0
        return proc.stdout

    sweep = ("sweep", "--kind", "interior", "--bc", "dd", "--a", "1",
             "--b", "2", "--d-grid", "0.4:0.5:2", "--quantity", "energy",
             "--method", "exact,asymptotic", "--rel-tol", "1e-3",
             "--no-timing")
    serial = run(*sweep, "--parallel", "1")
    pooled = run(*sweep, "--parallel", "2")
    again = run(*sweep, "--parallel", "2")
    ok = serial == pooled == again and serial.count("\n") == 6
    _gate("CLI byte determinism", ok,
          f"{serial.count(chr(10)) - 2} data rows, parallel 1 == 2 == rerun")
