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
formed again twice as far only while that cut reaches the last one formed,
up to the fixed p cap ``_P_CAP``: the envelope decays like (delta/b)^p
interior and (b/delta)^p exterior, so only memory needs a bound.

The lookups depend on xi only, so the nodes of one ``xi_rows`` call are
one assembly pass, one ``_XiTables``: it holds the tables, each one batched
call across those nodes (the drivers pass at most ``_LANES`` at a time)
sized from the widest first window of the set, the lanes' first windows
and the lane groups; a node whose window doubles past the tables grows
them once for all, through ``_XiTables.grow``.

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
one adaptive xi / truncation driver, ``_adaptive_integral``: it bounds the
truncation error by a geometric tail fitted to the decay of the
xi-integrated rows, and grows N in one step to where that bound meets its
share of rel_tol.

Frequency rule.  xi runs over a tanh-sinh trapezoid rule on the map
u = e^{-2 d xi} = t^2: the map takes the round-trip decay e^{-2 d xi}
into the endpoint t -> 0, where it leaves a t ln t factor, and K_0 adds
its logarithm at xi -> 0; the double-exponential rule integrates both
endpoints to rounding with a few dozen nodes, where Gauss-Legendre on the
same map gains only ~16x per doubling.  The rule is nested: halving the
step keeps every node, so a refinement assembles only the new nodes, and
the level below a whole level is read off its even nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

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
from .geometry import BoundaryPair, CylinderPair, Kind, finite_real, neumann

_BASE_NODES = 24        # steps of the level-0 xi rule: h = 1/4, 25 nodes
_XI_SPAN = 3.0          # tanh-sinh nodes s = k h run over |s| <= _XI_SPAN
_MAX_QUAD_LEVEL = 5     # h = 1/128, 769 nodes
_LANES = 64             # xi nodes per table set: a few MB at p-windows ~4000
_GROUP_ELEMENTS = 1 << 15   # stacked exponent entries per lane group: 256 KB
_N_CAP = 4096           # largest matrix truncation N a run may grow to
_P_CAP = 1 << 16        # last p-window row a lane may form
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


def _letter_logs(z, n_max: int, prime: bool
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (ln I, ln K) tables at z to order n_max, primed for N."""
    if prime:
        return (log_i_prime_scaled_table(z, n_max),
                log_k_prime_scaled_table(z, n_max))
    return log_i_scaled_table(z, n_max), log_k_scaled_table(z, n_max)


class _XiTables:
    """One assembly pass over the nodes xi, the lanes: tables, windows, groups.

    Each table has one row per lane and is built by one call across all
    lanes; orders enter through their absolute value, so tables run over
    nonnegative orders only.  ``half`` is (num - den)/2 over k = 0..N;
    the reflection ratio reaches the widest first window p_hi and the
    translation table p_hi + N + 1, one order on for the force's
    derivative, and ``grow`` is the one place those two regrow.
    ``first`` holds each lane's first window, at most the p cap; ``groups``
    are the lane groups of the module notes, slices of consecutive lanes.
    """

    def __init__(self, pair: CylinderPair, bc: BoundaryPair, xi,
                 half_width: int):
        self.xi = xi = np.asarray(xi, dtype=float)
        self.interior = pair.kind is Kind.INTERIOR
        self.flip = -1 if self.interior else 1   # translation index p -+ m
        self.half_width = half_width
        self.log_xi = np.log(xi)
        self.zb, self.zd = pair.b * xi, pair.delta * xi
        inner, self._outer = neumann(bc)
        self.sign = -1.0 if inner != self._outer else 1.0
        num, den = _letter_logs(pair.a * xi, half_width, inner)
        self.half = 0.5 * (num - den)
        self.first = np.minimum(_first_rows(pair, self.zd, half_width),
                                _P_CAP).astype(np.int64)     # integral
        self.p_hi = 0
        self.grow(int(self.first.max()))
        self.groups, start, widest = [], 0, 0
        for lane, rows in enumerate(self.first.tolist()):
            widest = max(widest, rows)
            if lane > start and (lane - start + 1) * (widest + 1) \
                    * (2 * half_width + 1) > _GROUP_ELEMENTS:
                self.groups.append(slice(start, lane))
                start, widest = lane, rows
        self.groups.append(slice(start, xi.size))

    def grow(self, p_hi: int) -> None:
        """Past the tables' end, rebuild the ratio table to p_hi and the
        translation table to p_hi + N + 1 for every lane, at least doubling
        up to the p cap."""
        if p_hi <= self.p_hi:
            return
        self.p_hi = p_hi = max(p_hi, min(2 * self.p_hi, _P_CAP))
        j_max = p_hi + self.half_width + 1
        self.trans = (log_i_scaled_table(self.zd, j_max) if self.interior
                      else log_k_scaled_table(self.zd, j_max))
        # log of the reflection ratio magnitude at the far cylinder, built
        # last so that its I and K tables are not held while trans is built
        li, lk = _letter_logs(self.zb, p_hi, self._outer)
        self.ratio = (lk - li) if self.interior else (li - lk)


def _checked_nodes(bc: BoundaryPair, xi, half_width: int,
                   tol: float) -> np.ndarray:
    """The nodes xi as a 1-D float array, once the arguments are checked."""
    neumann(bc)     # DomainError for a composite pair
    xi = np.asarray(xi, dtype=float)
    if (isinstance(half_width, bool) or not isinstance(half_width, Integral)
            or not 0 <= half_width <= _N_CAP):
        raise DomainError(f"half_width must be an int in [0, {_N_CAP}] "
                          f"(the truncation cap), got {half_width!r}")
    if xi.ndim != 1 or not xi.size or not np.all(np.isfinite(xi) & (xi > 0)):
        raise DomainError(
            "xi must be a nonempty 1-D array of positive finite nodes")
    if not (finite_real(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    return xi


def _first_rows(pair: CylinderPair, zd, half_width: int) -> np.ndarray:
    """Last row p_hi of each lane's first window at N, an integral float.

    Translation factors peak where the far-cylinder order tracks (b/a) m;
    side-by-side cylinders couple dominantly through p near 0.  The saddle
    estimate holds in the small-gap regime; outside it the summand support
    is set by the translation factors, so the p-centre is clamped to that
    box.  It is odd and nondecreasing in m, so the window is symmetric
    (p_lo = -p_hi) and only its p >= 0 half is built.
    """
    box = np.ceil(zd) + 20.0
    center = 0
    if pair.kind is Kind.INTERIOR:
        center = np.clip(round(pair.b / pair.a * half_width),
                         -half_width - box, half_width + box)
    return center + half_width + box + 20.0


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


def _row_logs(tables: _XiTables, lanes: slice, p_to: int, derivative: bool
              ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exponents of the rows p = 0..p_to (p >= 0) of the window, unfolded.

    One array per sign of k across the table lanes ``lanes``, with axes
    (lane, k, p): Z transposed, so that reductions over k run across
    contiguous rows; the set is grown to p_to first.  Returns
    [(parity, Z at -k for k >= 1)], where parity[0] holds Z at +k
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
    tables.grow(p_to)
    n, half = tables.half_width, tables.half[lanes]
    ps = np.arange(p_to + 1)
    row = 0.5 * tables.ratio[lanes, :p_to + 1] \
        + np.where(ps > 0, _HALF_LN2, 0.0)
    col = half - np.where(np.arange(n + 1) > 0, _HALF_LN2, 0.0)
    trans = [tables.trans[lanes]]
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
        ahead, behind = _order_window(table, p_to, n, tables.flip)
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


def _window_blocks(tables: _XiTables, lanes: slice, tol: float,
                   derivative: bool) -> tuple[list[np.ndarray], np.ndarray]:
    """([G] or [G, H] over each lane's envelope window, window widths).

    Assembles the table lanes ``lanes`` as one stacked group: G and H are
    stacked on axes (parity, lane), as ``_gram_blocks`` returns them.  Each
    row's envelope is its largest exponent, less the largest exponent of
    its lane's array (Z or W).  A lane's window
    ends at the last row whose envelope is within (1/2) ln(tol * 1e-14) of
    the top, so every dropped product is below tol * 1e-14 of the largest
    one.  The group forms its rows to the widest first window of its lanes
    and doubles them, to at most the p cap ``_P_CAP``, while any lane's cut
    reaches the last row formed; rows past a lane's own cut become exact
    zeros before the Gram products.  It raises ``PSumNoConvergence`` when a
    cut reaches the cap.  Every window sequence ends on the cap itself, so a
    lane fails exactly when its cut reaches the cap, whatever lanes it is
    grouped with.
    """
    floor = 0.5 * math.log(tol * 1e-14)
    p_hi = int(tables.first[lanes].max())
    while True:
        logs = _row_logs(tables, lanes, p_hi, derivative)
        rows = [np.maximum(parity[0].max(axis=1),
                           minus.max(axis=1, initial=-np.inf))
                for parity, minus in logs]
        envelope = np.max([r - r.max(axis=1, keepdims=True) for r in rows],
                          axis=0)
        cut = p_hi - np.argmax(envelope[:, ::-1] >= floor, axis=1)
        if cut.max() < p_hi:
            break
        if p_hi >= _P_CAP:
            raise PSumNoConvergence(
                f"matrix p-window reached cap {_P_CAP} at "
                f"xi={tables.xi[lanes][np.argmax(cut)]}, "
                f"N={tables.half_width}")
        del logs, rows, envelope
        p_hi = min(2 * p_hi, _P_CAP)
    top = int(cut.max())
    kept = [(parity[..., :top + 1], minus[..., :top + 1])
            for parity, minus in logs]
    if cut.min() < top:
        past = (np.arange(top + 1) > cut[:, None])[:, None, :]
        for parity, minus in kept:
            np.copyto(parity[0], -np.inf, where=past)
            np.copyto(minus, -np.inf, where=past)
    return _gram_blocks(kept), 2 * cut + 1


def build_matrix(pair: CylinderPair, bc: BoundaryPair, xi: float,
                 half_width: int, tol: float = 1e-12) -> RoundTripMatrix:
    """Parity blocks of the round-trip operator with |m|, |n| <= half_width.

    The p-sum keeps the rows of Z up to the last one whose largest entry is
    within a factor sqrt(tol * 1e-14) of the largest entry of Z, so every
    dropped term of G is below tol * 1e-14 of the largest term.  The
    one-node case of the assembly ``xi_rows`` runs.
    """
    tables = _XiTables(pair, bc, _checked_nodes(bc, [xi], half_width, tol),
                       half_width)
    (g,), _ = _window_blocks(tables, slice(None), tol, False)
    return RoundTripMatrix(half_width=half_width, even=g[0, 0],
                           odd=g[1, 0, 1:, 1:], sign=tables.sign,
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

    ``xi`` is a 1-D array of positive finite nodes.  Row i holds r[0..N]
    at xi[i] (N = half_width), of ln det(1 - M) for ``quantity="energy"``
    and of tr[(1 - M)^{-1} d_d M] for ``"force"``; r[:N'+1] sums to the
    term of the N' truncation.  widths[i] is the node's p-window width; tol cuts
    the window as in ``build_matrix``, and a node whose cut reaches the p
    cap ``_P_CAP`` raises ``PSumNoConvergence``.  The nodes share one table
    set and are assembled in lane groups.  Where the round-trip prefactor
    e^{-2 d xi} is an exact 0, M is exactly 0: such a node gets zero rows
    and width 0, and builds no table.
    """
    if quantity not in ("energy", "force"):
        raise DomainError(
            f"quantity must be 'energy' or 'force', got {quantity!r}")
    xi = _checked_nodes(bc, xi, half_width, tol)
    derivative = quantity == "force"
    evaluate = _force_lanes if derivative else _log_det_lanes
    prefactor = np.exp(-2.0 * pair.d * xi)
    live = np.flatnonzero(prefactor)
    rows = np.zeros((xi.size, half_width + 1))
    widths = np.zeros(xi.size, dtype=int)
    if not live.size:
        return rows, widths
    tables = _XiTables(pair, bc, xi[live], half_width)
    for lanes in tables.groups:
        nodes = live[lanes]
        blocks, widths[nodes] = _window_blocks(tables, lanes, tol, derivative)
        rows[nodes] = evaluate(tables.sign * prefactor[nodes], blocks)
    return rows, widths


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
    """Truncation at which the geometric tail bound meets target, in one
    step; 2N + 1 where the rows give no decay to extrapolate."""
    if not (q < 1.0 and target > 0.0):
        return 2 * n_half + 1
    return n_half + max(math.ceil(math.log(target / bound) / math.log(q)), 1)


def _initial_half_width(pair: CylinderPair) -> int:
    # dominant angular momentum scales like (cylinder radius)/(gap)
    radius = pair.a if pair.kind is Kind.INTERIOR else max(pair.a, pair.b)
    width = 4.0 + 3.0 * radius / pair.d     # inf at a subnormal gap
    if width > _N_CAP:
        raise NoConvergence(
            f"initial truncation N={width:.3g} exceeds cap {_N_CAP}")
    return math.ceil(width)


def _adaptive_integral(pair: CylinderPair, bc: BoundaryPair, rel_tol: float,
                       quantity: str) -> EnergyResult:
    """(1/4 pi) int xi term(xi) d xi for the energy or the force term.

    One loop over (N, xi level) from N0 and level 0.  After a change of N a
    pass assembles the whole level and reads the level below off its even
    nodes; at the same N it assembles only the level's new nodes.  The loop
    refines until two levels agree to a quarter of rel_tol; then, while the
    tail bound of the level's per-|m| rows (``_tail_bound``) exceeds half of
    rel_tol, N grows in one step to where the bound meets it
    (``_grown_half_width``).  The value is the level's sum at the final N,
    err_est its difference from the level below plus the tail bound, and
    xi_nodes counts its nodes; no finer level is assembled.  rel_tol is a
    finite real number of at least 1e-10.
    """
    neumann(bc)     # DomainError for a composite pair
    if not (finite_real(rel_tol) and rel_tol >= 1e-10):
        raise DomainError(
            f"rel_tol must be finite and >= 1e-10, got {rel_tol!r}")
    rel_tol = float(rel_tol)
    tol_elem = max(1e-13, 1e-3 * rel_tol)
    quad_tol = 0.25 * rel_tol
    trunc_tol = 0.5 * rel_tol
    p_max = 0

    n_half = _initial_half_width(pair)
    level, rows = 0, None       # rows: the level's sums at n_half, if any
    while True:
        xi, wt = _xi_grid(pair.d, level, new_only=rows is not None)
        # row 0 weighs the level; row 1 the level below, whose nodes are the
        # even k, the even indices of a grid of an even number of steps
        weight = wt * xi
        weights = np.stack([weight, np.where(np.arange(xi.size) % 2, 0.0,
                                             2.0 * weight)])
        sums = np.zeros((2, n_half + 1))
        for nodes in np.array_split(np.arange(xi.size), -(-xi.size // _LANES)):
            terms, widths = xi_rows(pair, bc, xi[nodes], n_half, tol_elem,
                                    quantity)
            p_max = max(p_max, int(widths.max()))
            sums += weights[:, nodes] @ terms
        sums /= 4.0 * math.pi
        if rows is None:
            rows, below = sums[0], sums[1] if level else None
        else:
            rows, below = 0.5 * rows + sums[0], rows
        value = float(np.sum(rows))
        err_quad = None if below is None \
            else abs(value - float(np.sum(below)))
        if err_quad is None or not err_quad <= quad_tol * abs(value):
            if level == _MAX_QUAD_LEVEL:
                raise NoConvergence(
                    f"xi-quadrature not converged at "
                    f"{_xi_node_count(_MAX_QUAD_LEVEL)} nodes (N={n_half})")
            level += 1
            continue
        bound, q = _tail_bound(rows)
        target = trunc_tol * abs(value)
        if bound <= target:
            break
        if n_half >= _N_CAP:
            raise NoConvergence(
                f"matrix truncation tail {bound:.3e} above {target:.3e} at "
                f"N={n_half} ({_xi_node_count(level)} xi nodes); cap {_N_CAP}")
        n_half = min(_grown_half_width(n_half, bound, q, target),
                     _N_CAP)
        rows = None

    err_est = err_quad + bound
    return EnergyResult(
        value_per_length=value,
        err_est=err_est,
        n_matrix=n_half,
        p_terms_max=p_max,
        xi_nodes=_xi_node_count(level),
        converged=bool(err_est <= rel_tol * abs(value)),
    )


def casimir_energy_exact(pair: CylinderPair, bc: BoundaryPair,
                         rel_tol: float = 1e-6) -> EnergyResult:
    """Interaction energy per unit length; negative for DD and NN.

    (1/4 pi) int xi ln det(1 - M) d xi, from the adaptive xi / truncation
    driver ``_adaptive_integral``, which says how rel_tol is shared and
    what err_est adds up.
    """
    return _adaptive_integral(pair, bc, rel_tol, "energy")


def casimir_force_exact(pair: CylinderPair, bc: BoundaryPair,
                        rel_tol: float = 1e-4) -> EnergyResult:
    """Force per unit length, F = -dE/dd, from the trace formula.

    F/L = (1/4 pi) int_0^inf xi tr[(1 - M)^{-1} d_d M] d xi, with d_d M
    assembled next to M from the derivative of the translation factors,
    on the energy's driver ``_adaptive_integral`` with this per-xi term, so
    err_est comes from the same estimates.  Negative (attractive) for DD
    and NN.
    """
    return _adaptive_integral(pair, bc, rel_tol, "force")
