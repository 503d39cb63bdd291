"""Command-line front end: point evaluations, sweeps, verification.

Output is machine readable: CSV (versioned header comment, then one row per
record) or JSON (array of flat objects, same keys as the CSV columns).
Numbers are emitted with Python repr semantics, so identical inputs yield
identical bytes; wall_seconds is the one run-dependent field and --no-timing
zeroes it for byte-level comparisons.

Exit codes: 0 ok, 1 verification failure, 2 invalid input, 3 non-convergence.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .asymptotics import (
    PfaBias,
    classify_pfa_bias,
    energy_expansion,
    force_expansion,
    limit_consistency_check,
)
from .bessel import (
    log_i_prime_scaled_table,
    log_i_scaled_table,
    log_k_prime_scaled_table,
    log_k_scaled_table,
)
from .errors import CasimirCylError, NoConvergence
from .geometry import (
    SCALAR_PAIRS,
    BoundaryPair,
    CylinderPair,
    Kind,
    neumann,
)
from .oracle import (
    PerturbationPoint,
    b_s_chain_numeric,
    b_s_closed,
    chain_square_backward,
    chain_square_forward,
    chain_square_sum,
    e0_coefficient_check,
    e1_from_b,
    f_frak,
    g_hat_closed,
    g_hat_numeric,
    h_hat_closed,
    h_hat_numeric,
    i_endpoint_numeric,
    i_term_numeric,
)
from .pfa import pfa_force_integral, pfa_force_leading
from .scattering import casimir_energy_exact, casimir_force_exact

_CSV_VERSION = "# casimir_cylinders run_record v1"
_FIELDS = ("kind", "bc", "a", "b", "d", "method", "value_per_length",
           "err_est", "n_matrix", "p_terms_max", "xi_nodes", "wall_seconds")
_METHODS = ("exact", "pfa-integral", "pfa-leading", "asymptotic")


class UsageError(Exception):
    pass


def _parse_bc(text: str) -> BoundaryPair:
    try:
        return BoundaryPair[text.upper()]
    except KeyError:
        raise UsageError(f"unknown boundary pair {text!r}") from None


def _parse_methods(raw: list[str] | None) -> list[str]:
    if not raw:
        return ["exact"]
    out = []
    for chunk in raw:
        for method in chunk.split(","):
            method = method.strip()
            if method not in _METHODS:
                raise UsageError(f"unknown method {method!r}")
            if method not in out:
                out.append(method)
    return out


def _check_combo(method: str, bc: BoundaryPair, quantity: str) -> None:
    if method == "exact" and bc not in SCALAR_PAIRS:
        raise UsageError(
            f"exact method handles scalar pairs only; {bc.value} composes "
            "from two scalar runs")
    if method == "pfa-integral" and quantity == "energy":
        raise UsageError("pfa-integral provides force only")


def _run_task(task: tuple) -> tuple[dict, int, str]:
    """Evaluate one (geometry, method) point.  Returns (record, exit, diag).

    Top-level so sweep workers can pickle it; never raises, so a failed point
    degrades to a NaN record and exit code instead of killing the pool.
    """
    kind_s, bc_s, a, b, d, method, quantity, rel_tol, timing = task
    t0 = time.perf_counter()
    value = err = math.nan
    n_matrix = p_terms = xi_nodes = 0
    code = 0
    diag = ""
    try:
        pair = CylinderPair(Kind(kind_s), a, b, d)
        bc = _parse_bc(bc_s)
        _check_combo(method, bc, quantity)
        if method == "exact":
            fn = casimir_energy_exact if quantity == "energy" else casimir_force_exact
            res = fn(pair, bc, rel_tol)
            value, err = res.value_per_length, res.err_est
            n_matrix, p_terms, xi_nodes = res.n_matrix, res.p_terms_max, res.xi_nodes
        elif method == "pfa-integral":
            value, err = pfa_force_integral(pair, bc), 0.0
        elif method == "pfa-leading":
            if quantity == "energy":
                value = energy_expansion(pair, bc).amplitude
            else:
                value = pfa_force_leading(pair, bc)
            err = 0.0
        else:
            exp = (energy_expansion if quantity == "energy"
                   else force_expansion)(pair, bc)
            value = exp.amplitude * (1.0 + exp.bracket * d)
            err = 0.0
    except NoConvergence as exc:
        code, diag = 3, str(exc)
    except (UsageError, CasimirCylError) as exc:
        code, diag = 2, str(exc)
    wall = time.perf_counter() - t0 if timing else 0.0
    record = {
        "kind": kind_s, "bc": bc_s, "a": a, "b": b, "d": d, "method": method,
        "value_per_length": value, "err_est": err, "n_matrix": n_matrix,
        "p_terms_max": p_terms, "xi_nodes": xi_nodes, "wall_seconds": wall,
    }
    return record, code, diag


def _emit(records: list[dict], fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        clean = [
            {k: (None if isinstance(v, float) and not math.isfinite(v) else v)
             for k, v in rec.items()}
            for rec in records
        ]
        out.write(json.dumps(clean, indent=2) + "\n")
        return
    out.write(_CSV_VERSION + "\n")
    out.write(",".join(_FIELDS) + "\n")
    for rec in records:
        out.write(",".join(repr(rec[f]) if isinstance(rec[f], float)
                           else str(rec[f]) for f in _FIELDS) + "\n")


def _run_points(args, points: list[tuple[float, str]],
                workers: int = 1) -> int:
    """Run the (d, method) points of the geometry in args and emit them.

    Every combination is checked before any point runs.  Each diagnostic is
    printed as ``d=<d> <method>: <diag>``; returns 2 at the first invalid
    point, else the worst exit code of the points.
    """
    bc = _parse_bc(args.bc)
    for _, method in points:
        _check_combo(method, bc, args.quantity)
    tasks = [(args.kind, args.bc, args.a, args.b, d, method, args.quantity,
              args.rel_tol, not args.no_timing) for d, method in points]
    # the pool forks all of its workers at once, so start no more than
    # there are points or cores
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]
    worst = 0
    records = []
    for rec, code, diag in results:
        if diag:
            print(f"d={rec['d']} {rec['method']}: {diag}", file=sys.stderr)
        if code == 2:
            return 2
        records.append(rec)
        worst = max(worst, code)
    _emit(records, args.format)
    return worst


def cmd_compute(args) -> int:
    return _run_points(args, [(args.d, method)
                              for method in _parse_methods(args.method)])


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("--d-grid wants start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --d-grid: {exc}") from None
    if not (1 <= count <= 100_000 and 0.0 < start < math.inf
            and 0.0 < stop < math.inf):
        raise UsageError("--d-grid needs finite positive endpoints and a "
                         "count in 1..100000")
    if count == 1:
        return [start]
    return [float(x) for x in np.geomspace(start, stop, count)]


def cmd_sweep(args) -> int:
    workers = args.parallel
    if workers is None:
        # read on each call, so a bad CASIMIR_CYL_THREADS is a usage error
        # of sweep alone, worded as argparse words a bad --parallel
        text = os.environ.get("CASIMIR_CYL_THREADS", "1")
        try:
            workers = int(text)
        except ValueError:
            args.error(f"argument --parallel: invalid int value: {text!r}")
    methods = _parse_methods(args.method)
    grid = _parse_grid(args.d_grid)
    return _run_points(args, [(d, method) for d in sorted(grid)
                              for method in sorted(methods)], workers)


def _worst(worst: float) -> tuple[float, str]:
    return worst, f"worst {worst:.2e}"


def _bessel_wronskian(level: str) -> tuple[float, str]:
    """I_n K'_n + I'_n K_n = 1/z on the tables the exact route reads."""
    orders = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 500]
    zs = np.geomspace(1e-3, 1e3, 27)
    li = log_i_scaled_table(zs, 500)[:, orders]
    lk = log_k_scaled_table(zs, 500)[:, orders]
    lip = log_i_prime_scaled_table(zs, 500)[:, orders]
    lkp = log_k_prime_scaled_table(zs, 500)[:, orders]
    lz = np.log(zs)[:, None]
    s = np.exp(li + lkp + lz) + np.exp(lip + lk + lz)
    return _worst(float(np.max(np.abs(s - 1.0))))


def _bessel_spots(level: str) -> tuple[float, str]:
    li = log_i_scaled_table(np.array([1.0]), 1)[0]
    lk = log_k_scaled_table(np.array([1.0]), 1)[0]
    spots = (  # unscaled references at z = 1 from a 50-digit series evaluation
        (math.exp(li[0]) * math.e, 1.2660658777520083356),
        (math.exp(lk[0]) / math.e, 0.42102443824070833334),
        (math.exp(li[1]) * math.e, 0.56515910399248502721),
        (math.exp(lk[1]) / math.e, 0.60190723019723457474),
    )
    return _worst(max(abs(got - ref) / ref for got, ref in spots))


def _zeta_sums(level: str) -> tuple[float, str]:
    plain = e0_coefficient_check(0)
    alternating = e0_coefficient_check(1)
    return _worst(max(abs(plain / (math.pi ** 4 / 90.0) - 1.0),
                      abs(alternating / (7.0 * math.pi ** 4 / 720.0) - 1.0),
                      abs(alternating / plain - 7.0 / 8.0)))


def _q_closure_points() -> np.ndarray:
    """The 200 q-closure points as rows (m, tau, eps, alpha, n1, n2),
    drawn in that order point by point, in one call."""
    rng = np.random.default_rng(20240811)
    return rng.uniform((0.3, 0.05, 0.0, 0.4, -2.0, -2.0),
                       (3.0, 1.0, 0.3, 2.5, 2.0, 2.0), size=(200, 6))


def _q_closures(level: str) -> tuple[float, str]:
    # 200 random points, checked as one batch
    m, tau, eps, alpha, n1, n2 = _q_closure_points().T
    pt = PerturbationPoint(s=1, m=m, tau=tau, eps=eps, alpha=alpha)
    return _worst(max(
        float(np.max(np.abs(numeric(bc, pt, n1, n2) - closed(bc, pt, n1, n2))))
        for bc in SCALAR_PAIRS
        for numeric, closed in ((g_hat_numeric, g_hat_closed),
                                (h_hat_numeric, h_hat_closed))))


# top reflection order of the b_s grid per level
_S_TOP = {"fast": 2, "slow": 3}


def _b_s_grid(level: str) -> tuple[float, str]:
    # one batch of 27 (m, tau, alpha) points per order s; the pairs of one
    # n-swap share the chain mean and differ by their s+1 offsets f_frak
    m, tau, alpha = np.array(list(itertools.product(
        (0.5, 1.0, 2.0), (0.25, 0.75, 1.0), (0.5, 1.0, 2.0)))).T
    worst = 0.0
    for s in range(_S_TOP[level] + 1):
        pt = PerturbationPoint(s=s, m=m, tau=tau, eps=0.1, alpha=alpha)
        chain = {}
        for bc in SCALAR_PAIRS:
            swap = neumann(bc)[0]
            if swap not in chain:
                chain[swap] = b_s_chain_numeric(bc, pt)
            numeric = (s + 1) * f_frak(bc, pt) + chain[swap]
            worst = max(worst,
                        float(np.max(np.abs(numeric - b_s_closed(bc, pt)))))
    return _worst(worst)


def _partitions(level: str) -> tuple[float, str]:
    worst = 0.0
    for s in range(1, 7):
        inner = [float(v) for v in np.linspace(-1.3, 1.1, s)]
        total = chain_square_sum(inner)
        worst = max(worst, abs(chain_square_forward(inner) - total),
                    abs(chain_square_backward(inner) - total))
    return _worst(worst)


def _endpoints(level: str) -> tuple[float, str]:
    pt = PerturbationPoint(s=3, m=0.8, tau=0.6, eps=0.12, alpha=1.5)
    return _worst(max(
        abs(i_endpoint_numeric(bc, pt, i) - i_term_numeric(bc, pt, i))
        for bc in SCALAR_PAIRS for i in (0, 3)))


def _ntlo_brackets(level: str) -> tuple[float, str]:
    """theta_1 rebuilt from B^s against the bracket table, and the paper's
    DD (7/12 + 7/72) and NN values at b = 2a."""
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.02)
    theta = {bc: e1_from_b(pair, bc) for bc in SCALAR_PAIRS}
    dd, nn = theta[BoundaryPair.DD], theta[BoundaryPair.NN]
    worst = max(abs(dd - 0.6805556), abs(nn - 0.0050810),
                *(abs(theta[bc] - energy_expansion(pair, bc).bracket)
                  for bc in SCALAR_PAIRS))
    return worst, f"worst {worst:.2e}, dd {dd:.7f}, nn {nn:.7f}"


def _amplitude_identity(level: str) -> tuple[float, str]:
    mismatch = 0
    for kind in Kind:
        for bc in BoundaryPair:
            pair = CylinderPair(kind, 1.0, 2.3, 0.07)
            if force_expansion(pair, bc).amplitude != pfa_force_leading(pair, bc):
                mismatch += 1
    return mismatch, f"{mismatch} mismatches"


def _plate_limit(level: str) -> tuple[float, str]:
    return _worst(max(limit_consistency_check(1.0, 1e6, bc)
                      for bc in SCALAR_PAIRS))


def _bias_signs(level: str) -> tuple[float, str]:
    # sign pattern anchored by the dual-route bracket values at the
    # reference interior geometry a=1, b=2 (force brackets are 3/5 of the
    # energy brackets, so the signs +,+,+,- carry over)
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.05)
    expected = {
        BoundaryPair.DD: PfaBias.UNDERESTIMATES,
        BoundaryPair.NN: PfaBias.UNDERESTIMATES,
        BoundaryPair.DN: PfaBias.UNDERESTIMATES,
        BoundaryPair.ND: PfaBias.OVERESTIMATES,
    }
    bad = sum(1 for bc, want in expected.items()
              if classify_pfa_bias(pair, bc) is not want)
    return bad, f"{bad} wrong"


def _amplitude_ratio(level: str) -> tuple[float, str]:
    worst = 0.0
    for kind in Kind:
        for bc in SCALAR_PAIRS:
            pair = CylinderPair(kind, 1.0, 2.0, 0.04)
            e = energy_expansion(pair, bc)
            f = force_expansion(pair, bc)
            worst = max(worst, abs(e.amplitude - f.amplitude * 2.0 * pair.d / 5.0)
                        / abs(e.amplitude))
    return _worst(worst)


class Gate(NamedTuple):
    """One closed-form acceptance check.

    ``check(level)`` returns (worst, detail) and passes at worst <= bound.
    ``budget`` is the wall-time limit in seconds of the acceptance test,
    which runs the check at level slow (None: no limit).  ``label`` may name
    ``{s_top}``, the level's top reflection order.
    """

    suite: str
    label: str
    check: Callable[[str], tuple[float, str]]
    bound: float
    budget: float | None
    levels: tuple[str, ...] = ("fast", "slow")

    def name(self, level: str) -> str:
        return self.label.format(s_top=_S_TOP[level])


# `verify` prints one line per row, in this order; tests/test_acceptance.py
# runs every row at level slow
GATES = (
    Gate("bessel", "bessel wronskian grid", _bessel_wronskian, 1e-12, 5.0),
    Gate("bessel", "bessel spot values", _bessel_spots, 1e-12, None),
    Gate("oracle", "zeta sums", _zeta_sums, 1e-12, 1.0),
    Gate("oracle", "q-integration closures", _q_closures, 1e-11, 1.0),
    Gate("oracle", "reflection coefficients s<= {s_top}", _b_s_grid, 1e-8,
         1.0),
    Gate("oracle", "partition identities", _partitions, 1e-12, None),
    Gate("oracle", "endpoint substitution", _endpoints, 1e-8, None),
    Gate("oracle", "NTLO brackets dual route", _ntlo_brackets, 1e-6, 30.0,
         levels=("slow",)),
    Gate("asymptotics", "PFA amplitude identity", _amplitude_identity, 0,
         None),
    Gate("asymptotics", "cylinder-plate limit", _plate_limit, 2e-6, None),
    Gate("asymptotics", "PFA bias sign pattern", _bias_signs, 0, None),
    Gate("asymptotics", "energy-force amplitude ratio", _amplitude_ratio,
         1e-14, None),
)
_SUITES = tuple(dict.fromkeys(gate.suite for gate in GATES))


def cmd_verify(args) -> int:
    suites = _SUITES if args.suite == "all" else (args.suite,)
    lines: list[str] = []
    ok = True
    for suite in suites:
        lines.append(f"== {suite} ==")
        for gate in GATES:
            if gate.suite != suite or args.level not in gate.levels:
                continue
            worst, detail = gate.check(args.level)
            passed = worst <= gate.bound
            name = gate.name(args.level)
            lines.append(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
            if not passed:
                lines.append(f"      check failed: {name}")
            ok &= passed
    print("\n".join(lines))
    print("verification:", "ok" if ok else "FAILED")
    return 0 if ok else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every `main` call, built on the first."""
    parser = argparse.ArgumentParser(
        prog="casimir-cyl",
        description="Casimir interaction of two parallel cylinders "
                    "(units hbar = c = 1; results per unit length)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kind", choices=("interior", "exterior"),
                       required=True)
        p.add_argument("--bc", required=True,
                       help="dd|nn|dn|nd|pcpc|pcip")
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)
        p.add_argument("--quantity", choices=("energy", "force"),
                       default="energy")
        p.add_argument("--method", action="append",
                       help="comma-separated subset of "
                            "exact,pfa-integral,pfa-leading,asymptotic")
        p.add_argument("--rel-tol", type=float, default=1e-6)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--no-timing", action="store_true",
                       help="report wall_seconds as 0 for reproducible bytes")

    pc = sub.add_parser("compute", help="one geometry, one or more methods")
    common(pc)
    pc.add_argument("--d", type=float, required=True)
    pc.set_defaults(func=cmd_compute)

    ps = sub.add_parser("sweep", help="log-spaced separation sweep")
    common(ps)
    ps.add_argument("--d-grid", required=True, help="start:stop:count")
    # None: cmd_sweep reads CASIMIR_CYL_THREADS, else 1
    ps.add_argument("--parallel", type=int, default=None)
    ps.set_defaults(func=cmd_sweep, error=ps.error)

    pv = sub.add_parser("verify", help="run built-in validation suites")
    pv.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    pv.add_argument("--level", choices=("fast", "slow"), default="fast")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CasimirCylError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
