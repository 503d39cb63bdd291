"""Acceptance gate: one test per shipped guarantee, one report line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines; the
slow entries reuse the session fixtures, so the whole gate costs little
beyond the exact scattering runs it shares with the module tests.
"""
import math
import subprocess
import sys
import time

import numpy as np

from casimir_cylinders import (
    BoundaryPair,
    CylinderPair,
    Kind,
    QuadratureSpec,
    energy_expansion,
    force_expansion,
    integrate_finite,
    limit_consistency_check,
    pfa_force_leading,
)
from casimir_cylinders.cli import _verify_bessel
from casimir_cylinders.geometry import SCALAR_PAIRS
from casimir_cylinders.oracle import (
    PerturbationPoint,
    b_s_closed,
    b_s_numeric,
    e0_coefficient_check,
    e1_from_b,
    g_hat_closed,
    g_hat_numeric,
    h_hat_closed,
    h_hat_numeric,
)


def _gate(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    assert ok, f"{name}: {detail}"


def test_pfa_gap_constant():
    t0 = time.perf_counter()
    value, _ = integrate_finite(
        lambda u: u ** -4.0 * (u - 1.0) ** -0.5, 1.0, 1e6,
        QuadratureSpec(rel_tol=1e-12))
    wall = time.perf_counter() - t0
    err = abs(value - 5.0 * math.pi / 16.0)
    _gate("pfa gap constant 5pi/16", err <= 1e-10 and wall < 1.0,
          f"err {err:.2e}, {wall:.2f} s")


def test_zeta_sums():
    t0 = time.perf_counter()
    plain = e0_coefficient_check(0)
    alternating = e0_coefficient_check(1)
    wall = time.perf_counter() - t0
    err = max(abs(plain / (math.pi ** 4 / 90.0) - 1.0),
              abs(alternating / (7.0 * math.pi ** 4 / 720.0) - 1.0),
              abs(alternating / plain - 7.0 / 8.0))
    _gate("zeta sums", err <= 1e-12 and wall < 1.0,
          f"worst {err:.2e}, {wall:.2f} s")


def test_q_integration_closures():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(200):
        pt = PerturbationPoint(
            s=1, m=float(rng.uniform(0.5, 3.0)),
            tau=float(rng.uniform(0.05, 1.0)),
            eps=float(rng.uniform(0.0, 0.3)),
            alpha=float(rng.uniform(0.3, 2.5)))
        n1, n2 = rng.uniform(-4.0, 4.0, size=2)
        for bc in SCALAR_PAIRS:
            g_ref = g_hat_closed(bc, pt, n1, n2)
            h_ref = h_hat_closed(bc, pt, n1, n2)
            worst = max(
                worst,
                abs(g_hat_numeric(bc, pt, n1, n2) - g_ref) / (1 + abs(g_ref)),
                abs(h_hat_numeric(bc, pt, n1, n2) - h_ref) / (1 + abs(h_ref)))
    wall = time.perf_counter() - t0
    _gate("q-integration closures", worst <= 1e-11 and wall < 5.0,
          f"200 pts x 4 bc, worst {worst:.2e}, {wall:.2f} s")


def test_n_integration_reflection_coefficients():
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0, 1, 2, 3):
        for m in (0.5, 1.0, 2.0):
            for tau in (0.25, 0.6, 1.0):
                for eps in (0.0, 0.1, 0.25):
                    for alpha in (0.5, 1.0, 2.0):
                        pt = PerturbationPoint(s=s, m=m, tau=tau, eps=eps,
                                               alpha=alpha)
                        for bc in SCALAR_PAIRS:
                            worst = max(worst, abs(b_s_numeric(bc, pt)
                                                   - b_s_closed(bc, pt)))
    wall = time.perf_counter() - t0
    _gate("n-integration b_s closures", worst <= 1e-8 and wall < 60.0,
          f"s<=3, 27-grid x 3 alpha x 4 bc, worst {worst:.2e}, {wall:.1f} s")


def test_ntlo_brackets():
    t0 = time.perf_counter()
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.02)
    worst = 0.0
    for bc in SCALAR_PAIRS:
        worst = max(worst, abs(e1_from_b(pair, bc)
                               - energy_expansion(pair, bc).bracket))
    dd = e1_from_b(pair, BoundaryPair.DD)
    nn = e1_from_b(pair, BoundaryPair.NN)
    wall = time.perf_counter() - t0
    ok = (worst <= 1e-6
          and abs(dd - 0.6805556) <= 1e-6
          and abs(nn - 0.0050810) <= 1e-6
          and wall < 30.0)
    _gate("NTLO brackets dual route", ok,
          f"worst {worst:.2e}, dd {dd:.7f}, nn {nn:.7f}, {wall:.1f} s")


def test_leading_amplitude_identity():
    mismatch = 0
    for kind in Kind:
        for bc in BoundaryPair:
            pair = CylinderPair(kind, 1.0, 2.3, 0.07)
            if force_expansion(pair, bc).amplitude != \
                    pfa_force_leading(pair, bc).force_per_length:
                mismatch += 1
    _gate("leading amplitude = PFA closed form", mismatch == 0,
          f"{mismatch} mismatches over 6 bc x 2 geometries")


def test_cylinder_plate_limit():
    worst = max(limit_consistency_check(1.0, 1e6, bc) for bc in SCALAR_PAIRS)
    _gate("cylinder-plate limit", worst <= 2e-6,
          f"worst deviation {worst:.2e} at b = 1e6 a")


def test_bessel_foundation():
    # the Wronskian grid and spot values, with their bounds, live in
    # cli verify; this gate runs that check and its wall time
    t0 = time.perf_counter()
    lines = []
    ok = _verify_bessel("fast", lines)
    wall = time.perf_counter() - t0
    ok = ok and len(lines) == 2 and all(line.startswith("PASS") for line in lines) \
        and wall < 5.0
    _gate("bessel wronskian + spots", ok,
          f"{'; '.join(lines)}; {wall:.2f} s")


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
