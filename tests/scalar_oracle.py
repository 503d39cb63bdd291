"""Scalar reference oracle for the round-trip operator.

One scaled element S_mn at a time, its p-sum walked outward from the peak
term by term.  The package's matrix route cuts the p-window once from the
log-envelope of the whole matrix instead, so the matrix tests can check the
parity blocks element by element against an independent summation.  It
states its own p cap and the p-peak guess it starts the walk from, and
builds its own tables; what it shares with that route is the log-Bessel
tables of `bessel` and the scalar-pair check (`geometry.neumann`).
"""
from __future__ import annotations

import math

import numpy as np

from casimir_cylinders.bessel import (
    log_i_prime_scaled_table,
    log_i_scaled_table,
    log_k_prime_scaled_table,
    log_k_scaled_table,
)
from casimir_cylinders.errors import DomainError, PSumNoConvergence
from casimir_cylinders.geometry import BoundaryPair, CylinderPair, Kind, neumann

_SMALL_RUN = 10            # consecutive negligible p-terms that end the sum


def _letter_tables(z: float, prime: bool):
    """One-argument tables n_max -> (ln I, ln K) at z over n = 0..n_max,
    scaled; the primed pair for an N letter."""
    log_i, log_k = ((log_i_prime_scaled_table, log_k_prime_scaled_table)
                    if prime else (log_i_scaled_table, log_k_scaled_table))
    return lambda n_max: (log_i(np.array([z]), n_max)[0],
                          log_k(np.array([z]), n_max)[0])


def matrix_element(pair: CylinderPair, bc: BoundaryPair, m: int, n: int,
                   xi: float, tol: float = 1e-12,
                   p_cap: int | None = None) -> float:
    """One scaled element, p-sum walked outward from its peak.

    The sum stops once ``_SMALL_RUN`` consecutive terms each contribute less
    than tol of the running total; all terms share one sign, so the total
    grows monotonically and the stopping test is safe.
    """
    inner, outer = neumann(bc)     # DomainError for a composite pair
    if not xi > 0:
        raise DomainError("xi must be positive")
    if not tol > 0:
        raise DomainError("tol must be positive")
    m, n = int(m), int(n)
    interior = pair.kind is Kind.INTERIOR
    zd = pair.delta * xi
    cap = (math.floor(10.0 * (zd + abs(m) + abs(n) + 50.0)) if p_cap is None
           else int(p_cap))
    flip = -1 if interior else 1   # translation index p -+ m
    far = _letter_tables(pair.b * xi, outer)

    def ratio_table(p_max: int) -> np.ndarray:
        li, lk = far(p_max)
        return (lk - li) if interior else (li - lk)

    def trans_table(j_max: int) -> np.ndarray:
        z = np.array([zd])
        return (log_i_scaled_table(z, j_max) if interior
                else log_k_scaled_table(z, j_max))[0]

    # summand support: translation factors die superexponentially once the
    # index outruns zd, so the peak lives inside this box whatever the
    # saddle estimate says; never stop before the walk has covered it.  The
    # factors peak where the far-cylinder order tracks (b/a) m; side-by-side
    # cylinders couple dominantly through p near 0
    span = int(math.ceil(zd)) + 20
    box_lo = min(-flip * m, -flip * n, 0) - span
    box_hi = max(-flip * m, -flip * n, 0) + span
    center = (min(max(round(pair.b / pair.a * m), box_lo), box_hi)
              if interior else 0)
    k_min = (box_hi - box_lo) // 2 + 1

    num, den = _letter_tables(pair.a * xi, inner)(max(abs(m), abs(n)))
    base = num[abs(n)] - den[abs(m)]

    ratio = ratio_table(max(abs(box_lo), abs(box_hi), 8))
    trans = trans_table(max(abs(box_lo), abs(box_hi), 8) + max(abs(m), abs(n)))

    def term_log(p: int) -> float:
        need = max(abs(p), abs(p + flip * m), abs(p + flip * n))
        nonlocal ratio, trans
        if need >= len(ratio) or need >= len(trans):
            ratio = ratio_table(2 * need)
            trans = trans_table(2 * need)
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
    sign = -1.0 if inner != outer else 1.0
    return sign * math.exp(base + l_ref + math.log(acc))
