"""Exact interaction energy and force from the round-trip operator.

The interaction energy and force per unit length of two parallel
cylinders are

    E/L = (1/4 pi) int_0^inf  xi ln det(1 - M(xi)) d xi,
    F/L = -d(E/L)/dd = (1/4 pi) int_0^inf  xi tr[(1 - M)^{-1} d_d M] d xi,

where M(xi) couples the angular channels of one cylinder to the other
through modified-Bessel reflection ratios and translation factors.  Every
element carries the common factor e^{-2 d xi}; we store elements with that
factor removed (working entirely in the scaled Bessel pair, the removal is
exact) and reattach it inside the determinant.

Assembly notes.  At fixed xi the scaled matrix is a positively weighted
sum over the intermediate angular index p,

    S_mn = e^{num(n) - den(m)} * sum_p r(p) T(p, m) T(p, n),

with num/den the logs of the prefactor Bessel functions of cylinder a, r
the reflection ratio of cylinder b and T the translation factors.
Conjugating by diag(e^{(num + den)/2}) makes it the Gram matrix G = Z^T Z
with

    Z[p, m] = exp(ratio(p)/2 + trans(p, m) + (num(m) - den(m))/2),

so S has the spectrum of a symmetric positive semidefinite matrix.  Each
Z entry is the square root of a partial-wave term times a slowly varying
factor, so the BLAS products never see the huge intermediate magnitudes a
naive ratio-times-translation evaluation would hit; entries that underflow
are negligible in the determinant.  Z[-p, -m] = Z[p, m] and the p-window
is symmetric, so G commutes with m -> -m: folding the columns into even
and odd combinations splits it into blocks of size N+1 and N, and the rows
p < 0 repeat the rows p > 0, which are built once with weight 2.  One
N-type boundary letter flips the sign of every element through the
primed-Bessel ratios; the sign is factored out and applied once, and
ln det(1 - M) is read off a Cholesky factor L of each block.

The p-window is cut once, before any exp: log Z is a sum of three table
lookups, and the window ends at the last row whose largest exponent is
within (1/2) ln(tol * 1e-14) of the largest exponent of Z.  The rows are
formed again twice as far only while that cut reaches the last one formed.

The lookups depend on xi only, so the nodes an assembly pass builds share
one set of tables: each table is one batched call across the pass's nodes
(at most ``_LANES`` at a time), sized from the widest first window of the
set, and a node whose window doubles past it grows the whole set once.

Only the translation factors depend on the gap d.  The force builds
W = Z o D next to Z, with D the log-derivative of the unscaled translation
factor of each entry, cuts its rows against its own largest exponent like
those of Z, folds it the same way and sums H = Z^T W next to G; then
d_d M = sign e^{-2 d xi} (H + H^T), and each block contributes
2 sign e^{-2 d xi} tr[L^{-1} H L^{-T}].

Truncation.  Both blocks are ordered by |m|, and the Cholesky factor of a
leading principal block is the leading block of the full factor.  So the
per-xi terms are sums of per-|m| rows: 2 log L_kk for the energy and
2 sign e^{-2 d xi} (L^{-1} H L^{-T})_kk for the force (row k of the
even block and row k - 1 of the odd one carry |m| = k), and the sum of the
first N' + 1 rows is the term of the N' truncation.  Energy and force share
one adaptive xi / truncation driver, which reads the truncation error of a
build off the decay of its xi-integrated rows.

Frequency rule.  xi runs over a tanh-sinh trapezoid rule on the map
u = e^{-2 d xi} = t^2: the map takes the round-trip decay e^{-2 d xi}
into the endpoint t -> 0, where it leaves a t ln t factor, and K_0 adds
its logarithm at xi -> 0; the double-exponential rule integrates both
endpoints to rounding with a few dozen nodes, where Gauss-Legendre on the
same map gains only ~16x per doubling.  The rule is nested: halving the
step keeps every node, so a refinement halves the sum it has and assembles
only the new nodes.  A change of N changes every node's term, so it
reassembles the whole level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import (
    log_i_prime_scaled_table,
    log_i_scaled_table,
    log_k_prime_scaled_table,
    log_k_scaled_table,
    prime_logs,
)
from .errors import (
    DomainError,
    NoConvergence,
    NonPositiveDeterminant,
    PSumNoConvergence,
)
from .geometry import BoundaryPair, CylinderPair, Kind, derive_params

_SCALAR = (BoundaryPair.DD, BoundaryPair.NN, BoundaryPair.DN, BoundaryPair.ND)
_BASE_NODES = 24        # steps of the level-0 xi rule: h = 1/4, 25 nodes
_XI_SPAN = 3.0          # tanh-sinh nodes s = k h run over |s| <= _XI_SPAN
_MAX_QUAD_LEVEL = 5     # h = 1/128, 769 nodes
_LANES = 64             # xi nodes per table set: a few MB at p-windows ~4000
_HALF_LN2 = 0.5 * math.log(2.0)


@dataclass(frozen=True)
class RoundTripMatrix:
    """Round-trip operator for |m|, |n| <= half_width, in parity blocks.

    The scaled operator S (elements with e^{-2 d xi} removed) is similar to
    the symmetric positive semidefinite Gram matrix G = Z^T Z, and G commutes
    with m -> -m.  ``even`` is G on the even combinations, (N+1)x(N+1) with
    row k for |m| = k; ``odd`` is G on the odd ones, NxN with row k for
    |m| = k + 1 (N = half_width).  The round-trip operator is
    M = sign * e^{prefactor_log} * G, with sign = -1 when exactly one
    boundary letter is N and prefactor_log = -2 d xi.
    """

    half_width: int
    even: np.ndarray
    odd: np.ndarray
    sign: float
    prefactor_log: float


@dataclass(frozen=True)
class EnergyResult:
    value_per_length: float
    err_est: float
    n_matrix: int
    p_terms_max: int
    xi_nodes: int
    converged: bool


def _check_scalar_bc(bc: BoundaryPair) -> None:
    if bc not in _SCALAR:
        raise DomainError(
            f"{bc} is a composite pairing; compose it from scalar results")


class _XiTables:
    """Log-scale Bessel tables for a set of imaginary frequencies.

    ``xi`` is one frequency, or a 1-D array of them (the lanes of an
    assembly pass); each table is 1-D for a scalar xi and has one row per
    lane otherwise, and every table is built by one call across all lanes.
    A request past a table's end regrows it for every lane at once, to at
    least twice its order, so a pass regrows each table only a few times.
    All orders enter through their absolute value, so tables run over
    nonnegative orders only.
    """

    def __init__(self, pair: CylinderPair, bc: BoundaryPair, xi):
        params = derive_params(pair)
        xi = np.asarray(xi, dtype=float) if np.ndim(xi) else float(xi)
        self.interior = pair.kind is Kind.INTERIOR
        self.za = pair.a * xi
        self.zb = pair.b * xi
        self.zd = params.delta * xi
        self.log_xi = np.log(xi)
        inner, outer = bc.name[0], bc.name[1]
        self._inner_prime = inner == "N"
        self._outer_prime = outer == "N"
        self.sign = (-1.0 if self._inner_prime else 1.0) * \
                    (-1.0 if self._outer_prime else 1.0)
        self._num = None
        self._den = None
        self._ratio = None
        self._trans = None

    @staticmethod
    def _order(table: np.ndarray | None, n_max: int) -> int | None:
        """Order to build a table to, or None when it already reaches n_max."""
        if table is None:
            return n_max
        have = table.shape[-1] - 1
        return None if n_max <= have else max(n_max, 2 * have)

    def prefactor_logs(self, n_max: int):
        n_max = self._order(self._num, n_max)
        if n_max is not None:
            if self._inner_prime:
                self._num = log_i_prime_scaled_table(self.za, n_max)
                self._den = log_k_prime_scaled_table(self.za, n_max)
            else:
                self._num = log_i_scaled_table(self.za, n_max)
                self._den = log_k_scaled_table(self.za, n_max)
        return self._num, self._den

    def ratio_log(self, p_max: int) -> np.ndarray:
        """log of the reflection ratio magnitude at the far cylinder."""
        p_max = self._order(self._ratio, p_max)
        if p_max is not None:
            if self._outer_prime:
                lk = log_k_prime_scaled_table(self.zb, p_max)
                li = log_i_prime_scaled_table(self.zb, p_max)
            else:
                lk = log_k_scaled_table(self.zb, p_max)
                li = log_i_scaled_table(self.zb, p_max)
            self._ratio = (lk - li) if self.interior else (li - lk)
        return self._ratio

    def trans_log(self, j_max: int) -> np.ndarray:
        j_max = self._order(self._trans, j_max)
        if j_max is not None:
            self._trans = (log_i_scaled_table(self.zd, j_max) if self.interior
                           else log_k_scaled_table(self.zd, j_max))
        return self._trans


class _XiRow:
    """The tables of one lane of an ``_XiTables`` set, read like a scalar
    xi's; a request past a table's end grows the whole set."""

    def __init__(self, tables: _XiTables, lane: int):
        self._tables = tables
        self._lane = lane
        self.zd = float(tables.zd[lane])
        self.log_xi = float(tables.log_xi[lane])
        self.sign = tables.sign

    def prefactor_logs(self, n_max: int):
        num, den = self._tables.prefactor_logs(n_max)
        return num[self._lane], den[self._lane]

    def ratio_log(self, p_max: int) -> np.ndarray:
        return self._tables.ratio_log(p_max)[self._lane]

    def trans_log(self, j_max: int) -> np.ndarray:
        return self._tables.trans_log(j_max)[self._lane]


def _pass_tables(pair: CylinderPair, bc: BoundaryPair, xi: np.ndarray,
                 half_width: int) -> _XiTables:
    """One table set for the nodes xi, built to the widest first window.

    The translation table runs one order past that window, for the force's
    derivative; a node whose window doubles grows the set once for all.
    """
    tables = _XiTables(pair, bc, xi)
    p_hi = max(_first_rows(pair, zd, half_width) for zd in tables.zd.tolist())
    tables.prefactor_logs(half_width)
    tables.ratio_log(p_hi)
    tables.trans_log(p_hi + half_width + 1)
    return tables


def _p_center(pair: CylinderPair, m: int, lo: int, hi: int) -> int:
    # translation factors peak where the far-cylinder order tracks (b/a)*m;
    # side-by-side cylinders couple dominantly through p near 0.  The saddle
    # estimate holds in the small-gap regime; outside it the summand support
    # is set by the translation factors, so clamp to that box.
    if pair.kind is Kind.INTERIOR:
        return min(max(int(round(pair.b / pair.a * m)), lo), hi)
    return 0


def _default_p_cap(zd: float, m: int, n: int) -> int:
    return int(10.0 * (zd + abs(m) + abs(n) + 50.0))


def _first_rows(pair: CylinderPair, zd: float, half_width: int) -> int:
    """Last row p_hi of the first window of a matrix at half_width N.

    The p-centre is odd and nondecreasing in m, so the window is symmetric
    (p_lo = -p_hi) and only its p >= 0 half is built.
    """
    span = int(math.ceil(zd)) + 20
    center = _p_center(pair, half_width, -half_width - span, half_width + span)
    return center + half_width + int(math.ceil(zd)) + 40


def _order_window(table: np.ndarray, p_to: int, n: int,
                  flip: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a per-order table at |p + flip k| and |p - flip k|.

    Rows run over p = 0..p_to and columns over k = 0..n.  Both views share
    one 1-D gather; sliding_window_view would leave a reference cycle that
    keeps each buffer alive until the garbage collector runs.
    """
    orders = table[np.abs(np.arange(-n, p_to + n + 1))]
    window = np.ndarray((p_to + 1, 2 * n + 1), buffer=orders,
                        strides=2 * orders.strides)
    ahead, behind = window[:, n:], window[:, n::-1]   # |p + k|, |p - k|
    return (ahead, behind) if flip > 0 else (behind, ahead)


def _row_logs(tables: _XiTables, p_to: int, half: np.ndarray, flip: int,
              derivative: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exponents of the rows p = 0..p_to (p >= 0) of the window, unfolded.

    Returns [(Z at +k, Z at -k for k >= 1)], followed with ``derivative`` by
    the same pair for W: Z with its translation factor replaced by that
    factor's d-derivative (W = Z o D for the log-derivative D).  Rows p > 0
    carry a factor sqrt 2 standing in for the mirror row -p, whose outer
    products are the same, and columns k > 0 the 1/sqrt 2 of the parity
    fold; both ride in the exponent.
    """
    n = half.size - 1
    ps = np.arange(p_to + 1)
    row = 0.5 * tables.ratio_log(p_to)[ps] + np.where(ps > 0, _HALF_LN2, 0.0)
    col = half - np.where(np.arange(n + 1) > 0, _HALF_LN2, 0.0)
    trans = [tables.trans_log(p_to + n + 1)]
    if derivative:
        # ln|d/dd B_j(delta xi)|: B = I (d delta/dd = -1) for interior pairs
        # and B = K (d delta/dd = +1, K' < 0) for exterior ones, so the
        # derivative is -xi |B'_j| for both, read off the table one order on
        trans.append(tables.log_xi + prime_logs(trans[0], p_to + n))
    base = row[:, None] + col[None, :]
    logs = []
    for table in trans:
        plus, minus = _order_window(table, p_to, n, flip)
        logs.append((base + plus, base[:, 1:] + minus[:, 1:]))
    return logs


def _fold(plus: np.ndarray, minus: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd parts of the exponentiated rows, in place on ``plus``.

    Column k of the even part is (Z[p, k] + Z[p, -k])/sqrt 2 (Z[p, 0] for
    k = 0), of the odd part (Z[p, k+1] - Z[p, -k-1])/sqrt 2.
    """
    np.exp(plus, out=plus)
    np.exp(minus, out=minus)
    odd = plus[:, 1:] - minus
    plus[:, 1:] += minus
    return plus, odd


def _gram_blocks(logs: list[tuple[np.ndarray, np.ndarray]]
                 ) -> list[np.ndarray]:
    """[G_even, G_odd] from the row exponents of Z, then [H_even, H_odd]
    with H = Z^T W when ``logs`` carries W."""
    z = _fold(*logs[0])
    blocks = [f.T @ f for f in z]
    if len(logs) > 1:
        w = _fold(*logs[1])
        blocks += [-(f.T @ g) for f, g in zip(z, w)]   # the derivative is negative
    return blocks


def _slab_blocks(tables: _XiTables, p_to: int, half: np.ndarray,
                 flip: int, derivative: bool) -> list[np.ndarray]:
    """Parity blocks summed over every row p = 0..p_to of the window."""
    return _gram_blocks(_row_logs(tables, p_to, half, flip, derivative))


def _window_blocks(pair: CylinderPair, bc: BoundaryPair, xi: float,
                   half_width: int, tol: float, derivative: bool,
                   tables: _XiRow | None = None
                   ) -> tuple[float, list[np.ndarray], int]:
    """(sign, parity blocks over the envelope window, window width).

    ``tables`` is xi's row of its assembly pass's table set; without it
    the node builds tables of its own.  Each row's envelope is its largest
    exponent, less the largest exponent of its array (Z or W).  The window ends at the last row whose envelope
    is within (1/2) ln(tol * 1e-14) of the top, so every dropped product is
    below tol * 1e-14 of the largest one; the rows are doubled only while
    that cut reaches the last row formed.
    """
    _check_scalar_bc(bc)
    if half_width < 0:
        raise DomainError("half_width must be >= 0")
    if not xi > 0:
        raise DomainError("xi must be positive")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    if tables is None:
        tables = _XiTables(pair, bc, xi)
    flip = -1 if pair.kind is Kind.INTERIOR else 1
    num, den = tables.prefactor_logs(half_width)
    half = 0.5 * (num[:half_width + 1] - den[:half_width + 1])
    p_hi = _first_rows(pair, tables.zd, half_width)
    cap = _default_p_cap(tables.zd, half_width, half_width) + 2 * p_hi
    floor = 0.5 * math.log(tol * 1e-14)
    while True:
        logs = _row_logs(tables, p_hi, half, flip, derivative)
        rows = [np.maximum(plus.max(axis=1),
                           minus.max(axis=1, initial=-np.inf))
                for plus, minus in logs]
        envelope = np.max([r - r.max() for r in rows], axis=0)
        cut = int(np.flatnonzero(envelope >= floor)[-1])
        if cut < p_hi:
            break
        if p_hi > cap:
            raise PSumNoConvergence(
                f"matrix p-window exceeded cap {cap} at xi={xi}, N={half_width}")
        p_hi *= 2
    blocks = _gram_blocks([(plus[:cut + 1], minus[:cut + 1])
                           for plus, minus in logs])
    return tables.sign, blocks, 2 * cut + 1


def _build_matrix_stats(pair: CylinderPair, bc: BoundaryPair, xi: float,
                        half_width: int, tol: float,
                        tables: _XiRow | None = None
                        ) -> tuple[RoundTripMatrix, int]:
    sign, (even, odd), p_used = _window_blocks(pair, bc, xi, half_width, tol,
                                               False, tables)
    mat = RoundTripMatrix(half_width=half_width, even=even, odd=odd,
                          sign=sign, prefactor_log=-2.0 * pair.d * xi)
    return mat, p_used


def build_matrix(pair: CylinderPair, bc: BoundaryPair, xi: float,
                 half_width: int, tol: float = 1e-12) -> RoundTripMatrix:
    """Parity blocks of the round-trip operator with |m|, |n| <= half_width.

    The p-sum keeps the rows of Z up to the last one whose largest entry is
    within a factor sqrt(tol * 1e-14) of the largest entry of Z, so every
    dropped term of G is below tol * 1e-14 of the largest term.
    """
    mat, _ = _build_matrix_stats(pair, bc, xi, half_width, tol)
    return mat


_SERIES_CUT = 1e-8


def log_det_one_minus(mat: RoundTripMatrix) -> float:
    """ln det(1 - sign * e^{prefactor_log} * G), summed over both blocks.

    The sum of the rows of ``_log_det_rows``.
    """
    return float(np.sum(_log_det_rows(mat)))


def _log_det_rows(mat: RoundTripMatrix) -> np.ndarray:
    """Per-|m| rows r[0..N] of ln det(1 - M); r[:N'+1] sums to the N' term.

    Each block of 1 - M is factored by Cholesky, and row k holds 2 log L_kk;
    a failed factorization means some eigenvalue of M reaches 1, which is
    outside the physical regime.  With c = e^{prefactor_log}, c * tr G
    bounds every eigenvalue of M because G is positive semidefinite.  Once
    that bound drops below _SERIES_CUT, 1 - M rounds to the identity in
    doubles and a factorization returns exactly zero, so the far tail
    switches to the trace expansion -tr M - tr(M^2)/2, whose truncation
    error is cubic in the bound.  Its row k is
    -sign c G_kk - c^2 (G_kk^2 / 2 + sum_{j<k} G_kj^2), so that every leading
    block keeps its own tr(M^2).
    """
    n = mat.half_width
    for name, block, size in (("even", mat.even, n + 1), ("odd", mat.odd, n)):
        if block.shape != (size, size):
            raise DomainError(
                f"{name} block must be {size}x{size} at half_width {n}, "
                f"got shape {block.shape}")
    scale = math.exp(mat.prefactor_log)
    blocks = ((mat.even, 0), (mat.odd, 1))   # odd is 0x0 at half_width 0
    series = scale * sum(float(np.trace(b)) for b, _ in blocks) < _SERIES_CUT
    rows = np.zeros(n + 1)
    for block, lo in blocks:
        if series:
            diag = np.diagonal(block)
            lower = np.tril(block, -1)
            square = 0.5 * diag * diag + np.sum(lower * lower, axis=1)
            rows[lo:] -= mat.sign * scale * diag + scale * scale * square
        else:
            chol = _cholesky(np.eye(block.shape[0])
                             - (mat.sign * scale) * block)
            rows[lo:] += 2.0 * np.log(np.diagonal(chol))
    return rows


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of one block of 1 - M; every eigenvalue is checked."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NonPositiveDeterminant(
            "1 - M not positive definite; truncation too small or "
            "geometry outside the convergent regime") from None


def _xi_node_count(level: int) -> int:
    return (_BASE_NODES << level) + 1


def _xi_grid(d: float, level: int, new_only: bool = False
             ) -> tuple[np.ndarray, np.ndarray]:
    """Frozen xi nodes and weights at one refinement level.

    The map u = e^{-2 d xi} takes (0, inf) onto (0, 1), where the integrand
    decays like the round-trip prefactor, and u = t^2 softens the endpoint.
    t = (1 + tanh(pi/2 sinh s))/2 is the tanh-sinh map, so

        xi = ln(1 + e^{-pi sinh s}) / d,
        d xi/ds = -pi cosh s / (d (1 + e^{pi sinh s})),

    and the trapezoid rule in s (Takahasi & Mori) runs over s = k h,
    |s| <= _XI_SPAN, with h = 2 _XI_SPAN / (_BASE_NODES << level) a power
    of 2.  Each level halves h, so its even k are the nodes of the level
    below, bit for bit, with exactly half their weight; ``new_only``
    returns the odd k only.  The grid depends only on (d, level), so every
    truncation order is integrated on identical nodes.
    """
    half = (_BASE_NODES << level) // 2
    h = _XI_SPAN / half
    first, step = (1 - half, 2) if new_only else (-half, 1)
    s = np.arange(first, half + 1, step) * h
    x = math.pi * np.sinh(s)
    xi = np.log1p(np.exp(-x)) / d
    weight = h * math.pi * np.cosh(s) / (d * (1.0 + np.exp(x)))
    return xi, weight


def _force_blocks(pair: CylinderPair, bc: BoundaryPair, xi: float,
                  half_width: int, tol: float, tables: _XiRow | None = None
                  ) -> tuple[tuple[float, list[np.ndarray]], int]:
    """((sign e^{-2 d xi}, [G_even, G_odd, H_even, H_odd]), window width)."""
    sign, blocks, p_used = _window_blocks(pair, bc, xi, half_width, tol, True,
                                          tables)
    return (sign * math.exp(-2.0 * pair.d * xi), blocks), p_used


def _force_trace(built: tuple[float, list[np.ndarray]]) -> float:
    """tr[(1 - M)^{-1} d_d M] at one xi: the sum of ``_force_rows``."""
    return float(np.sum(_force_rows(built)))


def _force_rows(built: tuple[float, list[np.ndarray]]) -> np.ndarray:
    """Per-|m| rows r[0..N] of tr[(1 - M)^{-1} d_d M], like ``_log_det_rows``.

    With the unscaled translation derivative the e^{-2 d xi} of M cancels
    against the scaling of the translation factors, so
    d_d M = sign c (H + H^T) with c = e^{-2 d xi}, and the trace is
    2 sign c tr[(1 - sign c G)^{-1} H] per block.  With 1 - M = L L^T that
    is 2 sign c tr[L^{-1} H L^{-T}], and row k holds its k-th diagonal
    entry, d(2 log L_kk) = (L^{-1} d(1 - M) L^{-T})_kk.  No series branch
    is needed: the trace has no cancellation in the far tail.
    """
    scale, (g_even, g_odd, h_even, h_odd) = built
    rows = np.zeros(g_even.shape[0])
    for g, h, lo in ((g_even, h_even, 0), (g_odd, h_odd, 1)):
        inv = np.linalg.inv(_cholesky(np.eye(g.shape[0]) - scale * g))
        rows[lo:] += np.einsum("ij,ij->i", inv @ h, inv)
    return 2.0 * scale * rows


def _integral_at(pair: CylinderPair, bc: BoundaryPair, half_width: int,
                 level: int, tol_elem: float, stats: dict, term,
                 coarse: np.ndarray | None = None) -> np.ndarray:
    """Rows of (1/4 pi) int xi term(xi) d xi on the frozen grid of one level.

    ``term`` is (assemble, evaluate): assemble(pair, bc, xi, half_width,
    tol, tables) returns (blocks, window width) and evaluate(blocks) the
    per-|m| rows of the integrand, r[0..half_width].  ``coarse`` holds the
    rows of the level below at the same half_width; with it only the nodes
    new to this level are assembled, since the trapezoid sum at h/2 is half
    the sum at h plus the new odd-k nodes at their weights.  The Bessel
    tables of the pass are built once across its nodes, in blocks of at
    most ``_LANES`` nodes.
    """
    assemble, evaluate = term
    xi, wt = _xi_grid(pair.d, level, new_only=coarse is not None)
    rows = np.zeros(half_width + 1)
    for lanes in np.array_split(np.arange(xi.size), -(-xi.size // _LANES)):
        tables = _pass_tables(pair, bc, xi[lanes], half_width)
        for lane, i in enumerate(lanes.tolist()):
            # built stays referenced until the next node's assembly returns:
            # freeing it first lets glibc's malloc trim and re-fault the heap
            # at every node (~70k against ~5k minor faults per d=0.1 energy)
            built, p_used = assemble(pair, bc, float(xi[i]), half_width,
                                     tol_elem, _XiRow(tables, lane))
            stats["p_max"] = max(stats["p_max"], p_used)
            rows += (wt[i] * xi[i]) * evaluate(built)
    rows /= 4.0 * math.pi
    return rows if coarse is None else 0.5 * coarse + rows


def _tail_bound(rows: np.ndarray) -> tuple[float, float]:
    """(bound on the rows past the last one, slowest decay ratio q).

    The tail beyond N is taken as geometric at the slowest ratio q of the
    last max(4, N/8) rows, with a margin of 2: 2 |r_N| q / (1 - q).  Rows
    that do not decay (q >= 1) give an infinite bound.
    """
    last = abs(float(rows[-1]))
    if last == 0.0:
        return 0.0, 0.0
    n = rows.size - 1
    if n == 0:
        return math.inf, math.inf
    window = np.abs(rows[n - min(n, max(4, n // 8)):])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = float(np.max(window[1:] / window[:-1]))
    if not q < 1.0:
        return math.inf, q
    return 2.0 * last * q / (1.0 - q), q


def _grown_half_width(n_half: int, bound: float, q: float,
                      target: float) -> int:
    """Truncation at which the geometric tail bound meets target, <= 2N + 1."""
    if not (q < 1.0 and target > 0.0):
        return 2 * n_half + 1
    extra = math.ceil(math.log(target / bound) / math.log(q))
    return n_half + min(max(extra, 1), n_half + 1)


def _initial_half_width(pair: CylinderPair) -> int:
    # dominant angular momentum scales like (cylinder radius)/(gap)
    radius = pair.a if pair.kind is Kind.INTERIOR else max(pair.a, pair.b)
    return int(math.ceil(4.0 + 3.0 * radius / pair.d))


def _adaptive_integral(pair: CylinderPair, bc: BoundaryPair, rel_tol: float,
                       n_cap: int, term) -> EnergyResult:
    """(1/4 pi) int xi term(xi) d xi for the energy or the force term.

    The xi quadrature is refined at the initial truncation N0 until two
    levels agree to a quarter of rel_tol; each refinement assembles only the
    nodes new to its level.  The xi-integrated rows of that level then bound
    the truncation error (``_tail_bound``); while the bound exceeds half of
    rel_tol, N grows to where the geometric bound meets it (at most doubling
    per step) and every node of the level is rebuilt.  The level one deeper,
    refined from it at the final N, gives the reported value; err_est is the
    difference from the previous level plus the tail bound of the deep rows,
    and xi_nodes counts the deep grid's nodes.  rel_tol must be finite and
    at least 1e-10.
    """
    _check_scalar_bc(bc)
    if not (math.isfinite(rel_tol) and rel_tol >= 1e-10):
        raise DomainError(f"rel_tol must be finite and >= 1e-10, got {rel_tol}")
    tol_elem = max(1e-13, 1e-3 * rel_tol)
    quad_tol = 0.25 * rel_tol
    trunc_tol = 0.5 * rel_tol
    stats = {"p_max": 0}

    n_half = _initial_half_width(pair)
    if n_half > n_cap:
        raise NoConvergence(
            f"initial truncation N={n_half} exceeds cap {n_cap}")
    rows = _integral_at(pair, bc, n_half, 0, tol_elem, stats, term)
    value = float(np.sum(rows))
    for level in range(1, _MAX_QUAD_LEVEL + 1):
        rows = _integral_at(pair, bc, n_half, level, tol_elem, stats, term,
                            rows)
        new = float(np.sum(rows))
        err_quad = abs(new - value)
        value = new
        if err_quad <= quad_tol * abs(value):
            break
    else:
        raise NoConvergence(
            f"xi-quadrature not converged at {_xi_node_count(_MAX_QUAD_LEVEL)} "
            f"nodes (N={n_half})")

    while True:
        bound, q = _tail_bound(rows)
        target = trunc_tol * abs(value)
        if bound <= target:
            break
        if n_half >= n_cap:
            raise NoConvergence(
                f"matrix truncation tail {bound:.3e} above {target:.3e} at "
                f"N={n_half} ({_xi_node_count(level)} xi nodes); cap {n_cap}")
        n_half = min(_grown_half_width(n_half, bound, q, target), n_cap)
        rows = _integral_at(pair, bc, n_half, level, tol_elem, stats, term)
        value = float(np.sum(rows))

    rows = _integral_at(pair, bc, n_half, level + 1, tol_elem, stats, term,
                        rows)
    deep = float(np.sum(rows))
    err_est = abs(deep - value) + _tail_bound(rows)[0]
    return EnergyResult(
        value_per_length=deep,
        err_est=err_est,
        n_matrix=n_half,
        p_terms_max=stats["p_max"],
        xi_nodes=_xi_node_count(level + 1),
        converged=bool(err_est <= rel_tol * abs(deep)),
    )


def casimir_energy_exact(pair: CylinderPair, bc: BoundaryPair,
                         rel_tol: float = 1e-6,
                         n_cap: int = 4096) -> EnergyResult:
    """Interaction energy per unit length; negative for DD and NN.

    The nested tanh-sinh xi rule is refined first at the initial
    truncation.  The per-|m| rows of ln det on that grid then bound the
    truncation error, and the truncation grows straight to where that bound
    meets its share of rel_tol.  One deeper level at the final truncation,
    which assembles only its new nodes, supplies the reported value; err_est
    is its difference from the previous level plus the truncation bound.
    """
    return _adaptive_integral(pair, bc, rel_tol, n_cap,
                              (_build_matrix_stats, _log_det_rows))


def casimir_force_exact(pair: CylinderPair, bc: BoundaryPair,
                        rel_tol: float = 1e-4,
                        n_cap: int = 4096) -> EnergyResult:
    """Force per unit length, F = -dE/dd, from the trace formula.

    F/L = (1/4 pi) int_0^inf xi tr[(1 - M)^{-1} d_d M] d xi, with d_d M
    assembled next to M from the derivative of the translation factors.
    The run is the energy's adaptive driver with this per-xi term, at the
    same rel_tol, on the same nested xi levels, so err_est comes from the
    same xi-level and truncation estimates as an energy's.  Negative
    (attractive) for DD and NN.
    """
    return _adaptive_integral(pair, bc, rel_tol, n_cap,
                              (_force_blocks, _force_rows))
