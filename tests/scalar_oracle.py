"""Scalar reference oracle for the round-trip operator.

One scaled element S_mn at a time, its p-sum walked outward from the peak
term by term.  The package's matrix route cuts the p-window once from the
log-envelope of the whole matrix instead, so the matrix tests can check the
parity blocks element by element against an independent summation.  What
it shares with that route is its inputs, not its sum: the log-Bessel tables
(`_XiTables`), the default p cap (`_default_p_cap`), the p-peak guess it
starts the walk from (`_p_center`) and the scalar-pair check
(`geometry.neumann`).
"""
from __future__ import annotations

import math

import numpy as np

from casimir_cylinders.errors import DomainError, PSumNoConvergence
from casimir_cylinders.geometry import BoundaryPair, CylinderPair, Kind, neumann
from casimir_cylinders.scattering import _XiTables, _default_p_cap, _p_center

_SMALL_RUN = 10            # consecutive negligible p-terms that end the sum


def matrix_element(pair: CylinderPair, bc: BoundaryPair, m: int, n: int,
                   xi: float, tol: float = 1e-12,
                   p_cap: int | None = None) -> float:
    """One scaled element, p-sum walked outward from its peak.

    The sum stops once ``_SMALL_RUN`` consecutive terms each contribute less
    than tol of the running total; all terms share one sign, so the total
    grows monotonically and the stopping test is safe.
    """
    neumann(bc)     # DomainError for a composite pair
    if not xi > 0:
        raise DomainError("xi must be positive")
    if not tol > 0:
        raise DomainError("tol must be positive")
    m, n = int(m), int(n)
    tables = _XiTables(pair, bc, np.array([xi]))
    zd = float(tables.zd[0])
    cap = int(_default_p_cap(zd, m, n) if p_cap is None else p_cap)
    flip = -1 if pair.kind is Kind.INTERIOR else 1   # translation index p -+ m

    # summand support: translation factors die superexponentially once the
    # index outruns zd, so the peak lives inside this box whatever the
    # saddle estimate says; never stop before the walk has covered it
    span = int(math.ceil(zd)) + 20
    box_lo = min(-flip * m, -flip * n, 0) - span
    box_hi = max(-flip * m, -flip * n, 0) + span
    center = _p_center(pair, m, box_lo, box_hi)
    k_min = (box_hi - box_lo) // 2 + 1

    num, den = tables.prefactor_logs(max(abs(m), abs(n)))
    base = num[0, abs(n)] - den[0, abs(m)]

    ratio = tables.ratio_log(max(abs(box_lo), abs(box_hi), 8))[0]
    trans = tables.trans_log(max(abs(box_lo), abs(box_hi), 8)
                             + max(abs(m), abs(n)))[0]

    def term_log(p: int) -> float:
        need = max(abs(p), abs(p + flip * m), abs(p + flip * n))
        nonlocal ratio, trans
        if need >= len(ratio) or need >= len(trans):
            ratio = tables.ratio_log(2 * need)[0]
            trans = tables.trans_log(2 * need)[0]
        return (ratio[abs(p)] + trans[abs(p + flip * m)]
                + trans[abs(p + flip * n)])

    l_ref = term_log(center)
    acc = 1.0 if l_ref > -math.inf else 0.0
    small_run = 0
    for k in range(1, cap + 2):
        for p in (center + k, center - k):
            lt = term_log(p)
            if lt == -math.inf:
                small_run += 1
                continue
            if l_ref == -math.inf:
                l_ref, acc, small_run = lt, 1.0, 0
                continue
            c_log = lt - l_ref
            if c_log > 60.0:
                acc = acc * math.exp(-c_log) + 1.0
                l_ref = lt
                small_run = 0
                continue
            c = math.exp(c_log)
            acc += c
            small_run = small_run + 1 if c < tol * acc else 0
        if small_run >= _SMALL_RUN and k >= k_min:
            break
    else:
        raise PSumNoConvergence(
            f"p-sum window exceeded cap {cap} at m={m}, n={n}, xi={xi}")
    if l_ref == -math.inf:
        return 0.0
    return tables.sign * math.exp(base + l_ref + math.log(acc))
