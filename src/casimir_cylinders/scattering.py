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
ln det(1 - M) is read off a Cholesky factor L of each block, row k as
ln L_kk^2 = log1p(-delta_k) with delta_k the pivot's deficit from 1.

The p-window is cut once, before any exp: log Z is a sum of three table
lookups, and the window ends at the last row whose largest exponent is
within (1/2) ln(tol * 1e-14) of the largest exponent of Z.  The rows are
formed again twice as far only while that cut reaches the last one formed.

The lookups depend on xi only, so the nodes of one ``xi_rows`` call share
one set of tables: each table is one batched call across those nodes (the
drivers pass at most ``_LANES`` at a time), sized from the widest first
window of the set, and a node whose window doubles past it grows the whole
set once.

The unit of assembly is a group of consecutive lanes of a table set,
stacked along a leading lane axis, so one numpy call serves every node of
the group: row exponents, envelope cut, exp and fold, Gram products,
Cholesky factors and per-|m| rows.  A group takes lanes while
lanes x (widest first window + 1) x (2N + 1) stays within
``_GROUP_ELEMENTS`` (256 KB per stacked array); wider nodes run as groups
of one.  The exponents are laid out (lane, k, p), so the envelope's
reductions over k run across contiguous rows, and they live in one
allocation per group, so the heap takes and returns one block per group
whatever references the caller keeps.  Each lane keeps its own cut: its
rows past it are set to -inf before the exp and add exact zeros to the
Gram products.  The odd block is padded by a zero row and column to the
size of the even one, so both parities share one stacked axis through the
Gram products, the factors and the rows; the pad puts a 1 on the diagonal
of 1 - M and adds nothing.

Only the translation factors depend on the gap d.  The force builds
W = Z o D next to Z, with D the log-derivative of the unscaled translation
factor of each entry, cuts its rows against its own largest exponent like
those of Z, folds it the same way and sums H = Z^T W next to G; then
d_d M = sign e^{-2 d xi} (H + H^T), and each block contributes
2 sign e^{-2 d xi} tr[L^{-1} H L^{-T}].

Truncation.  Both blocks are ordered by |m|, and the Cholesky factor of a
leading principal block is the leading block of the full factor.  So the
per-xi terms are sums of per-|m| rows: ln L_kk^2 for the energy and
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
reassembles the whole level once; the level below is read off its even
nodes, so the two are compared again at the new N without assembling a
deeper level, and the run reports the finest level it checked there.
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
from .geometry import (SCALAR_PAIRS, BoundaryPair, CylinderPair, Kind,
                       derive_params)

_BASE_NODES = 24        # steps of the level-0 xi rule: h = 1/4, 25 nodes
_XI_SPAN = 3.0          # tanh-sinh nodes s = k h run over |s| <= _XI_SPAN
_MAX_QUAD_LEVEL = 5     # h = 1/128, 769 nodes
_LANES = 64             # xi nodes per table set: a few MB at p-windows ~4000
_GROUP_ELEMENTS = 1 << 15   # stacked exponent entries per lane group: 256 KB
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
    """One exact run's result, an energy or a force per unit length.

    value_per_length: E/L, or F/L from ``casimir_force_exact``.
    err_est: xi-level difference at the final N plus the truncation bound.
    n_matrix: the final truncation N (|m| <= N).
    p_terms_max: the widest p-window of any node the run assembled.
    xi_nodes: the nodes of the reported xi level.
    converged: True on every return; a failure raises ``NoConvergence``.
    """

    value_per_length: float
    err_est: float
    n_matrix: int
    p_terms_max: int
    xi_nodes: int
    converged: bool


def _check_scalar_bc(bc: BoundaryPair) -> None:
    if bc not in SCALAR_PAIRS:
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
        self.xi = xi
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


def _pass_tables(pair: CylinderPair, bc: BoundaryPair, xi: np.ndarray,
                 half_width: int) -> tuple[_XiTables, list[slice]]:
    """One table set for the nodes xi, and the lane groups that assemble it.

    The set is built to the widest first window, with the translation table
    one order past it for the force's derivative; a group whose window
    doubles grows the set once for all.  Groups take consecutive lanes while
    lanes x (widest first window + 1) x (2N + 1), the size of one stacked
    exponent array, stays within ``_GROUP_ELEMENTS``; a lane wider than
    that is a group of its own.
    """
    tables = _XiTables(pair, bc, xi)
    first = [_first_rows(pair, zd, half_width) for zd in tables.zd.tolist()]
    tables.prefactor_logs(half_width)
    tables.ratio_log(max(first))
    tables.trans_log(max(first) + half_width + 1)
    groups, start, widest = [], 0, 0
    for lane, rows in enumerate(first):
        widest = max(widest, rows)
        if lane > start and (lane - start + 1) * (widest + 1) \
                * (2 * half_width + 1) > _GROUP_ELEMENTS:
            groups.append(slice(start, lane))
            start, widest = lane, rows
    groups.append(slice(start, len(first)))
    return tables, groups


def _checked_nodes(bc: BoundaryPair, xi, half_width: int,
                   tol: float) -> np.ndarray:
    """The nodes xi as a 1-D float array, once the arguments are checked."""
    _check_scalar_bc(bc)
    xi = np.asarray(xi, dtype=float)
    if half_width < 0:
        raise DomainError("half_width must be >= 0")
    if xi.ndim != 1 or not xi.size or not np.all(xi > 0):
        raise DomainError("xi must be a nonempty 1-D array of positive nodes")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    return xi


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

    ``table`` has one row per lane; the views have axes (lane, k, p), with
    k = 0..n and p = 0..p_to.  Both share one gather per lane;
    sliding_window_view would leave a reference cycle that keeps each
    buffer alive until the garbage collector runs.
    """
    orders = np.take(table, np.abs(np.arange(-n, p_to + n + 1)), axis=1)
    lane, step = orders.strides
    window = np.ndarray((orders.shape[0], 2 * n + 1, p_to + 1),
                        buffer=orders, strides=(lane, step, step))
    ahead, behind = window[:, n:], window[:, n::-1]   # |p + k|, |p - k|
    return (ahead, behind) if flip > 0 else (behind, ahead)


def _row_logs(tables: _XiTables, lanes: slice, p_to: int, half: np.ndarray,
              flip: int, derivative: bool
              ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exponents of the rows p = 0..p_to (p >= 0) of the window, unfolded.

    One array per sign of k across the table lanes ``lanes``, with axes
    (lane, k, p): Z transposed, so that reductions over k run across
    contiguous rows.  ``half`` holds the lanes' (num - den)/2 over k = 0..N.
    Returns [(parity, Z at -k for k >= 1)], where parity[0] holds Z at +k
    and parity[1] is room for the odd part of the fold, followed with
    ``derivative`` by the same for W: Z with its translation factor
    replaced by that factor's d-derivative (W = Z o D for the
    log-derivative D).  Rows p > 0 carry a factor sqrt 2 standing in for
    the mirror row -p, whose outer products are the same, and columns k > 0
    the 1/sqrt 2 of the parity fold; both ride in the exponent.

    All of them are views of one allocation (the base exponents live in
    the first odd slot until the fold), so a group takes one heap block and
    returns it whole: malloc is left no freed top of the heap to trim and
    fault in again at the next group, whatever references the caller keeps.
    """
    n = half.shape[-1] - 1
    ps = np.arange(p_to + 1)
    row = 0.5 * tables.ratio_log(p_to)[lanes, :p_to + 1] \
        + np.where(ps > 0, _HALF_LN2, 0.0)
    col = half - np.where(np.arange(n + 1) > 0, _HALF_LN2, 0.0)
    trans = [tables.trans_log(p_to + n + 1)[lanes]]
    if derivative:
        # ln|d/dd B_j(delta xi)|: B = I (d delta/dd = -1) for interior pairs
        # and B = K (d delta/dd = +1, K' < 0) for exterior ones, so the
        # derivative is -xi |B'_j| for both, read off the table one order on
        trans.append(tables.log_xi[lanes, None]
                     + prime_logs(trans[0], p_to + n))
    slots = np.empty((len(trans), 3, half.shape[0], n + 1, p_to + 1))
    base = np.add(col[:, :, None], row[:, None, :], out=slots[0, 1])
    logs = []
    for table, arrays in zip(trans, slots):
        ahead, behind = _order_window(table, p_to, n, flip)
        np.add(base, ahead, out=arrays[0])
        np.add(base[:, 1:], behind[:, 1:], out=arrays[2, :, 1:])
        logs.append((arrays[:2], arrays[2, :, 1:]))
    return logs


def _fold(parity: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Even and odd parts of the exponentiated rows, in place on ``parity``.

    On axes (parity, ..., k, p): column k of the even part is
    (Z[p, k] + Z[p, -k]) / sqrt 2 (Z[p, 0] for k = 0), of the odd part
    (Z[p, k] - Z[p, -k]) / sqrt 2 for k >= 1 and 0 for k = 0.  The zero
    column pads the odd block to the shape of the even one, so one stacked
    call serves both and row k of either carries |m| = k.
    """
    plus, odd = parity
    np.exp(plus, out=plus)
    np.exp(minus, out=minus)
    np.subtract(plus[..., 1:, :], minus, out=odd[..., 1:, :])
    odd[..., 0, :] = 0.0
    plus[..., 1:, :] += minus
    return parity


def _gram_blocks(logs: list[tuple[np.ndarray, np.ndarray]]
                 ) -> list[np.ndarray]:
    """[G] from the row exponents of Z, then H = Z^T W when ``logs``
    carries W; each is stacked on axes (parity, lane), with the odd block
    padded by a zero row and column at k = 0."""
    z = _fold(*logs[0])
    blocks = [z @ np.swapaxes(z, -1, -2)]
    if len(logs) > 1:
        w = _fold(*logs[1])     # the derivative is negative
        blocks.append(-(z @ np.swapaxes(w, -1, -2)))
    return blocks


def _window_blocks(pair: CylinderPair, tables: _XiTables, lanes: slice,
                   half_width: int, tol: float, derivative: bool
                   ) -> tuple[float, list[np.ndarray], np.ndarray]:
    """(sign, [G] or [G, H] over each lane's envelope window, window widths).

    Assembles the table lanes ``lanes`` as one stacked group: G and H are
    stacked on axes (parity, lane), as ``_gram_blocks`` returns them.  Each
    row's envelope is its largest exponent, less the largest exponent of
    its lane's array (Z or W).  A lane's window
    ends at the last row whose envelope is within (1/2) ln(tol * 1e-14) of
    the top, so every dropped product is below tol * 1e-14 of the largest
    one.  The group forms its rows to the widest first window of its lanes
    and doubles them while any lane's cut reaches the last row formed; rows
    past a lane's own cut become exact zeros before the Gram products.

    A lane alone would double its window f, 2f, 4f, ... from its own first
    window f while its cut reaches the window, and fail once a window it
    still needs passes its cap.  The group checks each lane against the
    widest window of that sequence at or below its cut, so whether a lane
    fails does not depend on the lanes it is grouped with.
    """
    flip = -1 if pair.kind is Kind.INTERIOR else 1
    num, den = tables.prefactor_logs(half_width)
    half = 0.5 * (num[lanes, :half_width + 1] - den[lanes, :half_width + 1])
    zd = tables.zd[lanes].tolist()
    first = np.array([_first_rows(pair, z, half_width) for z in zd])
    caps = np.array([_default_p_cap(z, half_width, half_width) + 2 * p
                     for z, p in zip(zd, first.tolist())])
    floor = 0.5 * math.log(tol * 1e-14)
    p_hi = int(first.max())
    while True:
        logs = _row_logs(tables, lanes, p_hi, half, flip, derivative)
        rows = [np.maximum(parity[0].max(axis=1),
                           minus.max(axis=1, initial=-np.inf))
                for parity, minus in logs]
        envelope = np.max([r - r.max(axis=1, keepdims=True) for r in rows],
                          axis=0)
        cut = p_hi - np.argmax(envelope[:, ::-1] >= floor, axis=1)
        # 2**(e-1) <= cut // first < 2**e: first << (e-1) is the lane's own
        # widest window at or below its cut (none when e = 0)
        e = np.frexp(cut // first)[1]
        over = np.flatnonzero((e > 0)
                              & (first << np.maximum(e - 1, 0) > caps))
        if over.size:
            lane = int(over[0])
            raise PSumNoConvergence(
                f"matrix p-window exceeded cap {caps[lane]} at "
                f"xi={tables.xi[lanes][lane]}, N={half_width}")
        if cut.max() < p_hi:
            break
        del logs, rows, envelope
        p_hi *= 2
    top = int(cut.max())
    kept = [(parity[..., :top + 1], minus[..., :top + 1])
            for parity, minus in logs]
    if cut.min() < top:
        past = (np.arange(top + 1) > cut[:, None])[:, None, :]
        for parity, minus in kept:
            np.copyto(parity[0], -np.inf, where=past)
            np.copyto(minus, -np.inf, where=past)
    return tables.sign, _gram_blocks(kept), 2 * cut + 1


def build_matrix(pair: CylinderPair, bc: BoundaryPair, xi: float,
                 half_width: int, tol: float = 1e-12) -> RoundTripMatrix:
    """Parity blocks of the round-trip operator with |m|, |n| <= half_width.

    The p-sum keeps the rows of Z up to the last one whose largest entry is
    within a factor sqrt(tol * 1e-14) of the largest entry of Z, so every
    dropped term of G is below tol * 1e-14 of the largest term.  The
    one-node case of the assembly ``xi_rows`` runs.
    """
    tables = _XiTables(pair, bc, _checked_nodes(bc, [xi], half_width, tol))
    sign, (g,), _ = _window_blocks(pair, tables, slice(None), half_width,
                                   tol, False)
    return RoundTripMatrix(half_width=half_width, even=g[0, 0],
                           odd=g[1, 0, 1:, 1:], sign=sign,
                           prefactor_log=-2.0 * pair.d * xi)


def log_det_one_minus(mat: RoundTripMatrix) -> float:
    """ln det(1 - sign * e^{prefactor_log} * G), summed over both blocks.

    The one-lane case of ``_log_det_lanes``, with the odd block padded by a
    zero row and column at k = 0.
    """
    n = mat.half_width
    for name, block, size in (("even", mat.even, n + 1), ("odd", mat.odd, n)):
        if block.shape != (size, size):
            raise DomainError(
                f"{name} block must be {size}x{size} at half_width {n}, "
                f"got shape {block.shape}")
    stack = np.zeros((2, 1, n + 1, n + 1))
    stack[0, 0] = mat.even
    stack[1, 0, 1:, 1:] = mat.odd
    scale = np.array([mat.sign * math.exp(mat.prefactor_log)])
    return float(np.sum(_log_det_lanes(scale, [stack])))


def _log_det_lanes(scale: np.ndarray, blocks: list[np.ndarray]
                   ) -> np.ndarray:
    """Per-|m| rows of ln det(1 - M) for a stack of lanes, one row per lane.

    M = scale * G in each lane, with the sign folded into ``scale`` and
    ``blocks`` = [G] stacked on axes (parity, lane); the zero row and
    column that pad the odd block leave a 1 on the diagonal of 1 - M,
    which adds nothing.  Each block of 1 - M is factored by Cholesky,
    1 - M = L L^T, and row k holds ln L_kk^2 summed over both parities; a
    failed factorization means some eigenvalue of M reaches 1, which is
    outside the physical regime.  The pivot identity
    L_kk^2 = 1 - delta_k with delta_k = scale G_kk + sum_{j<k} L_kj^2
    makes the row log1p(-delta_k), and delta_k, formed from G's diagonal
    and L's strict lower triangle, keeps its relative accuracy however
    small it is, where 2 log L_kk would carry the rounding of 1 - M.
    Rows with delta_k >= 1/2 keep 2 log L_kk, as 1 - delta_k cancels there.
    """
    g, = blocks
    chol = _cholesky(np.eye(g.shape[-1]) - scale[:, None, None] * g)
    pivots = np.einsum("slkk->slk", chol)   # a view of L's diagonal
    rows = 2.0 * np.log(pivots)
    pivots[...] = 0.0
    delta = (scale[:, None] * np.diagonal(g, axis1=2, axis2=3)
             + np.einsum("slkj,slkj->slk", chol, chol))
    np.log1p(-delta, out=rows, where=delta < 0.5)
    return rows.sum(axis=0)


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of blocks of 1 - M; every eigenvalue of
    every lane is checked."""
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


def _force_lanes(scale: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """Per-|m| rows of tr[(1 - M)^{-1} d_d M] for a stack of lanes.

    ``scale`` is sign e^{-2 d xi} per lane and ``blocks`` = [G, H] stacked
    on axes (parity, lane), the odd blocks padded like G's in
    ``_log_det_lanes``; a padded row of H is zero and adds nothing.  With
    the unscaled
    translation derivative the e^{-2 d xi} of M cancels against the scaling
    of the translation factors, so d_d M = scale (H + H^T), and the trace
    is 2 scale tr[(1 - scale G)^{-1} H] per block.  With 1 - M = L L^T that
    is 2 scale tr[L^{-1} H L^{-T}], and row k holds its k-th diagonal
    entry, d(ln L_kk^2) = (L^{-1} d(1 - M) L^{-T})_kk.  The trace has no
    cancellation in the far tail, so it needs no pivot deficits.
    """
    g, h = blocks
    inv = np.linalg.inv(_cholesky(np.eye(g.shape[-1])
                                  - scale[:, None, None] * g))
    rows = np.einsum("slij,slij->li", inv @ h, inv)   # summed over parity
    return 2.0 * scale[:, None] * rows


def xi_rows(pair: CylinderPair, bc: BoundaryPair, xi: np.ndarray,
            half_width: int, tol: float = 1e-12, quantity: str = "energy"
            ) -> tuple[np.ndarray, np.ndarray]:
    """(rows, widths): the per-|m| rows of the per-xi term at each node.

    ``xi`` is a 1-D array of positive nodes.  Row i holds r[0..N] at xi[i]
    (N = half_width), of ln det(1 - M) for ``quantity="energy"`` and of
    tr[(1 - M)^{-1} d_d M] for ``"force"``; r[:N'+1] sums to the term of
    the N' truncation.  widths[i] is the node's p-window width; tol cuts
    the window as in ``build_matrix``.  The nodes share one table set and
    are assembled in lane groups.
    """
    if quantity not in ("energy", "force"):
        raise DomainError(
            f"quantity must be 'energy' or 'force', got {quantity!r}")
    xi = _checked_nodes(bc, xi, half_width, tol)
    derivative = quantity == "force"
    evaluate = _force_lanes if derivative else _log_det_lanes
    tables, groups = _pass_tables(pair, bc, xi, half_width)
    rows = np.empty((xi.size, half_width + 1))
    widths = np.empty(xi.size, dtype=int)
    for lanes in groups:
        sign, blocks, widths[lanes] = _window_blocks(
            pair, tables, lanes, half_width, tol, derivative)
        rows[lanes] = evaluate(sign * np.exp(-2.0 * pair.d * xi[lanes]),
                               blocks)
    return rows, widths


def _integral_at(pair: CylinderPair, bc: BoundaryPair, half_width: int,
                 level: int, tol_elem: float, stats: dict, quantity: str,
                 coarse: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows of (1/4 pi) int xi term(xi) d xi at one level and the level below.

    Both are on the frozen grids of one half_width.  The term is the
    energy's or the force's, as ``quantity`` names it; its per-|m| rows come
    from ``xi_rows`` in sets of at most ``_LANES`` nodes, so each set builds
    its Bessel tables once.  ``coarse`` holds the rows of the level below;
    with it only the nodes new to this level are assembled, since the
    trapezoid sum at h/2 is half the sum at h plus the new odd-k nodes at
    their weights, and it is returned as the level below.  Without it every
    node of the level is assembled, and the level below is read off the
    same nodes: its nodes are the even k, at twice their weight here (None
    at level 0).
    """
    xi, wt = _xi_grid(pair.d, level, new_only=coarse is not None)
    weight = wt * xi
    # row 0 weighs the level; row 1 the level below, whose nodes are the
    # even k, the even indices of a grid of an even number of steps
    weights = np.stack([weight, np.where(np.arange(xi.size) % 2, 0.0,
                                         2.0 * weight)])
    sums = np.zeros((2, half_width + 1))
    for nodes in np.array_split(np.arange(xi.size), -(-xi.size // _LANES)):
        terms, widths = xi_rows(pair, bc, xi[nodes], half_width, tol_elem,
                                quantity)
        stats["p_max"] = max(stats["p_max"], int(widths.max()))
        sums += weights[:, nodes] @ terms
    rows, below = sums / (4.0 * math.pi)
    if coarse is not None:
        return 0.5 * coarse + rows, coarse
    return rows, below if level else None


def _converged_level(pair: CylinderPair, bc: BoundaryPair, half_width: int,
                     level: int, tol_elem: float, stats: dict, quantity: str,
                     quad_tol: float) -> tuple[np.ndarray, int, float]:
    """(rows, level, |sum of rows - sum of the level below|) at half_width.

    Assembles ``level`` once and refines it, assembling only the new nodes
    of each deeper level, until its sum is within quad_tol of the level
    below at this half_width.
    """
    rows, below = _integral_at(pair, bc, half_width, level, tol_elem, stats,
                               quantity)
    while True:
        value = float(np.sum(rows))
        if below is not None:
            err_quad = abs(value - float(np.sum(below)))
            if err_quad <= quad_tol * abs(value):
                return rows, level, err_quad
        if level == _MAX_QUAD_LEVEL:
            raise NoConvergence(
                f"xi-quadrature not converged at "
                f"{_xi_node_count(_MAX_QUAD_LEVEL)} nodes (N={half_width})")
        level += 1
        rows, below = _integral_at(pair, bc, half_width, level, tol_elem,
                                   stats, quantity, rows)


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
                       n_cap: int, quantity: str) -> EnergyResult:
    """(1/4 pi) int xi term(xi) d xi for the energy or the force term.

    The xi quadrature is refined at the initial truncation N0 until two
    levels agree to a quarter of rel_tol; each refinement assembles only the
    nodes new to its level.  The xi-integrated rows of that level then bound
    the truncation error (``_tail_bound``); while the bound exceeds half of
    rel_tol, N grows to where the geometric bound meets it (at most doubling
    per step).  Each growth assembles the converged level once at the new
    N, reads the level below off its even nodes and checks the two again,
    refining only where they no longer agree.  So no level past the one
    reported is assembled: the value is the sum of the finest level checked
    at the final N, err_est is its difference from the level below there
    plus the tail bound of its rows, and xi_nodes counts its nodes.  rel_tol
    must be finite and at least 1e-10.
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
    level = 0
    while True:
        rows, level, err_quad = _converged_level(
            pair, bc, n_half, level, tol_elem, stats, quantity, quad_tol)
        value = float(np.sum(rows))
        bound, q = _tail_bound(rows)
        target = trunc_tol * abs(value)
        if bound <= target:
            break
        if n_half >= n_cap:
            raise NoConvergence(
                f"matrix truncation tail {bound:.3e} above {target:.3e} at "
                f"N={n_half} ({_xi_node_count(level)} xi nodes); cap {n_cap}")
        n_half = min(_grown_half_width(n_half, bound, q, target), n_cap)

    err_est = err_quad + bound
    return EnergyResult(
        value_per_length=value,
        err_est=err_est,
        n_matrix=n_half,
        p_terms_max=stats["p_max"],
        xi_nodes=_xi_node_count(level),
        converged=bool(err_est <= rel_tol * abs(value)),
    )


def casimir_energy_exact(pair: CylinderPair, bc: BoundaryPair,
                         rel_tol: float = 1e-6,
                         n_cap: int = 4096) -> EnergyResult:
    """Interaction energy per unit length; negative for DD and NN.

    The nested tanh-sinh xi rule is refined first at the initial
    truncation.  The per-|m| rows of ln det on that grid then bound the
    truncation error, and the truncation grows straight to where that bound
    meets its share of rel_tol.  At each new truncation the converged level
    is assembled once and checked again against the level below, read off
    its even nodes, and refined only if the two no longer agree.  The
    reported value is that level's sum at the final truncation; err_est is
    its difference from the level below there plus the truncation bound.
    """
    return _adaptive_integral(pair, bc, rel_tol, n_cap, "energy")


def casimir_force_exact(pair: CylinderPair, bc: BoundaryPair,
                        rel_tol: float = 1e-4,
                        n_cap: int = 4096) -> EnergyResult:
    """Force per unit length, F = -dE/dd, from the trace formula.

    F/L = (1/4 pi) int_0^inf xi tr[(1 - M)^{-1} d_d M] d xi, with d_d M
    assembled next to M from the derivative of the translation factors.
    The run is the energy's adaptive driver with this per-xi term, at the
    same rel_tol, on the same nested xi levels, so err_est comes from the
    same estimates as an energy's: the reported level's difference from the
    level below at the final truncation, plus the truncation bound.
    Negative (attractive) for DD and NN.
    """
    return _adaptive_integral(pair, bc, rel_tol, n_cap, "force")
