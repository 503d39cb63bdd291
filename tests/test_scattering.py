"""Round-trip matrix layer and the exact energy/force pipelines."""
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from casimir_cylinders import (
    BoundaryPair,
    CylinderPair,
    Kind,
    casimir_energy_exact,
    casimir_force_exact,
    energy_expansion,
    force_expansion,
    scattering,
)
from casimir_cylinders.errors import (
    DomainError,
    NoConvergence,
    NonPositiveDeterminant,
    PSumNoConvergence,
)
from casimir_cylinders.scattering import (
    _MAX_QUAD_LEVEL,
    _N_CAP,
    _P_CAP,
    RoundTripMatrix,
    _XiTables,
    _force_lanes,
    _gram_blocks,
    _grown_half_width,
    _initial_half_width,
    _log_det_lanes,
    _row_logs,
    _tail_bound,
    _window_blocks,
    _xi_grid,
    _xi_node_count,
    build_matrix,
    log_det_one_minus,
    xi_rows,
)
from scalar_oracle import matrix_element

INT_05 = CylinderPair(kind=Kind.INTERIOR, a=1.0, b=2.0, d=0.5)
EXT_08 = CylinderPair(kind=Kind.EXTERIOR, a=1.0, b=1.5, d=0.8)

# frozen from a 60-digit brute-force evaluation of the same p-sums
_ELEMENT_REFS = [
    (Kind.INTERIOR, BoundaryPair.DD, 2.0, 0.5, 0, 0, 1.0,
     0.56400868965887367),
    (Kind.INTERIOR, BoundaryPair.DD, 2.0, 0.5, 2, -1, 1.0,
     0.0024357998733659463),
    (Kind.INTERIOR, BoundaryPair.DD, 2.0, 0.1, 3, 3, 2.0,
     0.16352643097135681),
    (Kind.INTERIOR, BoundaryPair.NN, 2.0, 0.5, 0, 0, 1.0,
     0.29826849104762825),
    (Kind.INTERIOR, BoundaryPair.DN, 2.0, 0.5, 1, 0, 1.0,
     -0.36041257157659456),
    (Kind.INTERIOR, BoundaryPair.ND, 2.0, 0.5, -1, 2, 1.0,
     -0.0020104113197886241),
    (Kind.EXTERIOR, BoundaryPair.DD, 1.5, 0.8, 0, 0, 0.7,
     0.24064405889938447),
    (Kind.EXTERIOR, BoundaryPair.DD, 1.5, 0.8, 1, -2, 0.7,
     0.021449230246475567),
    (Kind.EXTERIOR, BoundaryPair.NN, 1.5, 0.8, 0, 1, 0.7,
     0.060843996811544837),
    (Kind.EXTERIOR, BoundaryPair.DN, 1.5, 0.8, -1, 1, 0.7,
     -0.040743536416687538),
    (Kind.EXTERIOR, BoundaryPair.ND, 1.5, 0.8, 2, 0, 0.7,
     -0.011675443654108618),
]


@pytest.mark.parametrize("kind,bc,b,d,m,n,xi,ref", _ELEMENT_REFS)
def test_element_reference_values(kind, bc, b, d, m, n, xi, ref):
    pair = CylinderPair(kind=kind, a=1.0, b=b, d=d)
    got = matrix_element(pair, bc, m, n, xi)
    assert abs(got - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("pair,bc,m,n,xi", [
    (INT_05, BoundaryPair.DD, 2, -1, 1.0),
    (INT_05, BoundaryPair.NN, 3, 1, 2.0),
    (INT_05, BoundaryPair.DN, 1, 0, 1.0),
    (INT_05, BoundaryPair.ND, -1, 2, 1.0),
    (EXT_08, BoundaryPair.DD, 1, -2, 0.7),
    (EXT_08, BoundaryPair.NN, 0, 1, 0.7),
    (EXT_08, BoundaryPair.DN, -1, 1, 0.7),
    (EXT_08, BoundaryPair.ND, 2, 0, 0.7),
])
def test_element_flip_symmetry(pair, bc, m, n, xi):
    # simultaneous sign flip of both azimuthal indices leaves S unchanged
    u = matrix_element(pair, bc, m, n, xi)
    v = matrix_element(pair, bc, -m, -n, xi)
    assert abs(u - v) <= 1e-13 * abs(u)


def test_element_decays_in_frequency():
    # the rescaled diagonal element stays below 1 and falls off with xi
    vals = [matrix_element(INT_05, BoundaryPair.DD, 0, 0, xi)
            for xi in (1.0, 5.0, 20.0, 80.0)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(hi > lo for hi, lo in zip(vals, vals[1:]))


def test_element_far_order_underflows_to_zero():
    pair = CylinderPair(kind=Kind.INTERIOR, a=1e-6, b=1.5, d=1.0)
    assert matrix_element(pair, BoundaryPair.DD, 40, 40, 20.0) == 0.0


def test_element_argument_validation():
    with pytest.raises(DomainError):
        matrix_element(INT_05, BoundaryPair.PCPC, 0, 0, 1.0)
    with pytest.raises(DomainError):
        matrix_element(INT_05, BoundaryPair.DD, 0, 0, 0.0)
    with pytest.raises(DomainError):
        matrix_element(INT_05, BoundaryPair.DD, 0, 0, -2.0)


def test_element_p_sum_window_cap():
    with pytest.raises(PSumNoConvergence):
        matrix_element(INT_05, BoundaryPair.DD, 0, 0, 1.0, p_cap=3)


def _parity_bases(half_width):
    """Columns of the even and odd m -> -m combinations, rows m = -N..N."""
    size = 2 * half_width + 1
    even = np.zeros((size, half_width + 1))
    odd = np.zeros((size, half_width))
    even[half_width, 0] = 1.0
    for k in range(1, half_width + 1):
        even[half_width + k, k] = even[half_width - k, k] = math.sqrt(0.5)
        odd[half_width + k, k - 1] = math.sqrt(0.5)
        odd[half_width - k, k - 1] = -math.sqrt(0.5)
    return even, odd


def test_matrix_matches_scalar_elements():
    mat = build_matrix(INT_05, BoundaryPair.DN, 1.0, 3)
    assert mat.half_width == 3
    assert mat.prefactor_log == -2.0 * 0.5 * 1.0
    s = np.array([[matrix_element(INT_05, BoundaryPair.DN, m, n, 1.0)
                   for n in range(-3, 4)] for m in range(-3, 4)])
    assert np.all(np.sign(s) == mat.sign)
    # S = D G D^{-1} with G symmetric, so |G_mn| = sqrt(S_mn S_nm)
    g_ref = np.sqrt(s * s.T)
    even, odd = _parity_bases(3)
    for block, basis in ((mat.even, even), (mat.odd, odd)):
        ref = basis.T @ g_ref @ basis
        assert block.shape == ref.shape
        assert np.all(np.abs(block - ref) <= 1e-11 * np.abs(ref))


def test_matrix_zero_half_width():
    mat = build_matrix(INT_05, BoundaryPair.DD, 1.0, 0)
    assert mat.even.shape == (1, 1)
    assert mat.odd.shape == (0, 0)
    ref = matrix_element(INT_05, BoundaryPair.DD, 0, 0, 1.0)
    assert abs(mat.sign * mat.even[0, 0] - ref) <= 1e-11 * abs(ref)


def test_matrix_leading_block_stable_under_widening():
    # entries with |m|,|n| <= 2 do not depend on the truncation width
    small = build_matrix(INT_05, BoundaryPair.DD, 1.0, 2)
    wide = build_matrix(INT_05, BoundaryPair.DD, 1.0, 5)
    for got, want in ((wide.even[:3, :3], small.even),
                      (wide.odd[:2, :2], small.odd)):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_matrix_argument_validation(monkeypatch):
    # every bad argument is rejected before any Bessel table is built, a
    # half_width past the truncation cap too
    def no_table(*args):
        raise AssertionError("a Bessel table was built")

    for name in ("log_i_scaled_table", "log_k_scaled_table",
                 "log_i_prime_scaled_table", "log_k_prime_scaled_table"):
        monkeypatch.setattr(scattering, name, no_table)
    one, dd = np.array([1.0]), BoundaryPair.DD
    cap = rf"half_width .*\b{_N_CAP}\b"
    bad = [(lambda: build_matrix(INT_05, dd, 1.0, -1), "half_width"),
           (lambda: build_matrix(INT_05, dd, 1.0, _N_CAP + 1), cap),
           (lambda: xi_rows(INT_05, dd, one, _N_CAP + 1), cap),
           (lambda: build_matrix(INT_05, dd, -1.0, 2), "xi must be"),
           (lambda: xi_rows(INT_05, BoundaryPair.PCPC, one, 2), "composite"),
           (lambda: xi_rows(INT_05, dd, one, -1), "half_width"),
           (lambda: build_matrix(INT_05, dd, math.inf, 2), "xi must be"),
           (lambda: xi_rows(INT_05, dd, np.array([1.0, -1.0]), 2),
            "xi must be"),
           (lambda: xi_rows(INT_05, dd, np.array([np.inf]), 3), "xi must be"),
           (lambda: xi_rows(INT_05, dd, np.ones((1, 1)), 2), "xi must be"),
           (lambda: xi_rows(INT_05, dd, np.array([]), 2), "xi must be"),
           (lambda: xi_rows(INT_05, dd, one, 2, quantity="torque"),
            "quantity must be")]
    for width in (3.5, 3.0, True):
        bad += [(lambda w=width: build_matrix(INT_05, dd, 1.0, w),
                 "half_width"),
                (lambda w=width: xi_rows(INT_05, dd, one, w), "half_width")]
    for tol in (0.0, -1.0, math.nan, math.inf, "x", None, True):
        bad += [(lambda t=tol: build_matrix(INT_05, dd, 1.0, 2, t),
                 "tol must be finite"),
                (lambda t=tol: xi_rows(INT_05, dd, one, 2, t),
                 "tol must be finite")]
    for call, match in bad:
        with pytest.raises(DomainError, match=match):
            call()


@pytest.mark.parametrize("quantity", ["energy", "force"])
def test_zero_prefactor_nodes_give_zero_rows(quantity):
    # e^{-2 d xi} is an exact 0 at xi = 1e300, so M is 0 there: zero rows
    # and width 0, with no table sized to the node's window
    dd = BoundaryPair.DD
    rows, widths = xi_rows(INT_05, dd, np.array([1e300]), 3,
                           quantity=quantity)
    assert rows.tolist() == [[0.0] * 4] and widths.tolist() == [0]
    mixed, mixed_widths = xi_rows(INT_05, dd, np.array([1.0, 1e300]), 3,
                                  quantity=quantity)
    alone, alone_widths = xi_rows(INT_05, dd, np.array([1.0]), 3,
                                  quantity=quantity)
    assert mixed[0].tobytes() == alone[0].tobytes()
    assert mixed_widths.tolist() == [alone_widths[0], 0]
    assert not mixed[1].any()


def _one_node(pair, bc, xi, half_width, tol, quantity="energy"):
    """(rows, p-window width) of one node from ``xi_rows``."""
    rows, widths = xi_rows(pair, bc, np.array([xi]), half_width, tol,
                           quantity)
    return rows[0], int(widths[0])


def _lane_blocks(pair, bc, xi, half_width, tol, derivative=False):
    """[G_even, G_odd] (then H_even, H_odd) of one node over its envelope
    window, and the window width."""
    tables = _XiTables(pair, bc, np.array([xi]), half_width)
    blocks, widths = _window_blocks(tables, slice(None), tol, derivative)
    parts = [part for b in blocks for part in (b[0, 0], b[1, 0, 1:, 1:])]
    return parts, int(widths[0])


def _uncut_blocks(pair, bc, xi, half_width, p_to, derivative=False):
    """Parity blocks summed over every row p = 0..p_to, with no cut."""
    tables = _XiTables(pair, bc, np.array([xi]), half_width)
    blocks = _gram_blocks(_row_logs(tables, slice(None), p_to, derivative))
    return [part for b in blocks for part in (b[0, 0], b[1, 0, 1:, 1:])]


@pytest.mark.parametrize("kind", [Kind.INTERIOR, Kind.EXTERIOR])
def test_envelope_window_matches_twice_as_wide(kind):
    # every row past the envelope cut is negligible: summing twice as many
    # rows moves no block entry by more than rounding
    pair = CylinderPair(kind, 1.0, 2.0, 0.1)
    xi = 0.01 / pair.d
    for derivative in (False, True):
        got, width = _lane_blocks(pair, BoundaryPair.DD, xi, 64, 1e-12,
                                  derivative)
        if kind is Kind.EXTERIOR and not derivative:
            # the cut lies past the first rows formed (0..N + ceil(zd) + 40
            # = 105), so the window had to grow
            assert (width - 1) // 2 > 105
        want = _uncut_blocks(pair, BoundaryPair.DD, xi, 64, width, derivative)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_envelope_window_reaches_far_rows():
    # a far cylinder ten times the near one: the envelope decays slowly in
    # p, and the window grows to ~2000 rows instead of stopping at a cap.
    # The uncut sum reads the Bessel tables to twice the order, whose
    # leading entries do not depend on how far a table runs.
    pair = CylinderPair(Kind.EXTERIOR, 1.0, 10.0, 0.1)
    (g_even, g_odd), width = _lane_blocks(pair, BoundaryPair.DD, 1.4, 304,
                                          1e-6)
    even, odd = _uncut_blocks(pair, BoundaryPair.DD, 1.4, 304, width)
    for got, want in ((g_even, even), (g_odd, odd)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    got = np.sum(_one_node(pair, BoundaryPair.DD, 1.4, 304, 1e-6)[0])
    want = log_det_one_minus(RoundTripMatrix(304, even, odd, 1.0,
                                             -2.0 * pair.d * 1.4))
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("bc", [BoundaryPair.DD, BoundaryPair.NN])
def test_truncation_deepens_binding(bc):
    # ln det(1-M) only moves down as more azimuthal channels couple in
    vals = [log_det_one_minus(build_matrix(INT_05, bc, 1.0, n))
            for n in (0, 1, 2, 4, 6)]
    assert all(hi > lo for hi, lo in zip(vals, vals[1:]))
    assert all(v < 0.0 for v in vals)


def test_exterior_relabel_spectrum_invariance():
    # which cylinder carries the mode index is a labeling choice; the
    # converged determinant cannot depend on it
    fwd = CylinderPair(kind=Kind.EXTERIOR, a=1.0, b=1.5, d=0.8)
    rev = CylinderPair(kind=Kind.EXTERIOR, a=1.5, b=1.0, d=0.8)
    ld_f = log_det_one_minus(build_matrix(fwd, BoundaryPair.DD, 0.7, 24))
    ld_r = log_det_one_minus(build_matrix(rev, BoundaryPair.DD, 0.7, 24))
    assert abs(ld_f - ld_r) <= 1e-8 * abs(ld_f)


def _blocks(half_width, even, odd=None, sign=1.0, prefactor_log=0.0):
    if odd is None:
        odd = np.zeros((half_width, half_width))
    return RoundTripMatrix(half_width=half_width, even=np.asarray(even),
                           odd=np.asarray(odd), sign=sign,
                           prefactor_log=prefactor_log)


def test_logdet_zero_matrix():
    mat = _blocks(1, np.zeros((2, 2)), prefactor_log=-1.0)
    assert log_det_one_minus(mat) == 0.0


def test_logdet_single_entry():
    mat = _blocks(0, [[0.25]], prefactor_log=-0.5)
    want = math.log1p(-0.25 * math.exp(-0.5))
    assert abs(log_det_one_minus(mat) - want) <= 1e-14 * abs(want)


def test_logdet_series_branch():
    # a tiny rescaled entry: ln det(1 - M) = -1e-9 to full relative accuracy
    mat = _blocks(0, [[1e-6]], prefactor_log=math.log(1e-3))
    want = math.log1p(-1e-9)
    assert abs(log_det_one_minus(mat) - want) <= 1e-12 * abs(want)


def test_logdet_random_contraction_matches_eigenvalues():
    rng = np.random.default_rng(20240811)
    blocks = []
    for size in (4, 3):
        z = rng.standard_normal((size + 2, size))
        g = z.T @ z
        blocks.append(g * 0.5 / np.max(np.linalg.eigvalsh(g)))
    # and a spectrum from 1e-12 up to 0.999 across the two blocks
    spans = []
    for size, top in ((4, 0.999), (3, 1e-4)):
        q = np.linalg.qr(rng.standard_normal((size, size)))[0]
        spans.append((q * np.geomspace(1e-12, top, size)) @ q.T)
    for parts in (blocks, spans):
        for sign in (1.0, -1.0):
            mat = _blocks(3, *parts, sign=sign)
            want = sum(np.sum(np.log1p(-sign * np.linalg.eigvalsh(g)))
                       for g in parts)
            assert abs(log_det_one_minus(mat) - want) <= 1e-12


def test_logdet_rejects_nonpositive_determinant():
    mat = _blocks(0, [[2.0]])
    with pytest.raises(NonPositiveDeterminant):
        log_det_one_minus(mat)


def test_logdet_rejects_pair_of_unstable_modes():
    # two eigenvalues above 1 give det(1 - M) > 0; every one must be checked
    mat = _blocks(1, np.diag([2.0, 3.0]))
    with pytest.raises(NonPositiveDeterminant):
        log_det_one_minus(mat)


def test_logdet_shape_validation():
    good_even, good_odd = np.zeros((2, 2)), np.zeros((1, 1))
    for even, odd in ((np.zeros((2, 3)), good_odd), (np.zeros(4), good_odd),
                      (good_even, np.zeros((1, 2))),
                      (np.zeros((3, 3)), good_odd),
                      (good_even, np.zeros((2, 2)))):
        with pytest.raises(DomainError):
            log_det_one_minus(_blocks(1, even, odd))


def _mp_log_det(mp, pair, bc, xi, half_width, p_max=40):
    """ln det(1 - M) from the closed element formula, summed directly.

    M_mn = (I_n(a xi)/K_m(a xi)) sum_p (K_p(b xi)/I_p(b xi)) I_{p-m} I_{p-n}
    at delta xi for interior pairs; exterior pairs swap I and K in the ratio
    and translate with K_{p+m} K_{p+n}.  An N letter takes the primed
    functions of its cylinder.  Every Bessel value is computed once.
    """
    def bessel_i(n, z, prime):
        if prime:
            return (mp.besseli(n - 1, z) + mp.besseli(n + 1, z)) / 2
        return mp.besseli(n, z)

    def bessel_k(n, z, prime):
        if prime:
            return -(mp.besselk(n - 1, z) + mp.besselk(n + 1, z)) / 2
        return mp.besselk(n, z)

    interior = pair.kind is Kind.INTERIOR
    inner, outer = (letter == "N" for letter in bc.name)
    a, b, d = (mp.mpf(v) for v in (pair.a, pair.b, pair.d))
    xi = mp.mpf(xi)
    delta = b - a - d if interior else a + b + d
    num = [bessel_i(n, a * xi, inner) for n in range(half_width + 1)]
    den = [bessel_k(n, a * xi, inner) for n in range(half_width + 1)]
    ratio = [bessel_k(p, b * xi, outer) / bessel_i(p, b * xi, outer)
             for p in range(p_max + 1)]
    if not interior:
        ratio = [1 / r for r in ratio]
    trans_fn = mp.besseli if interior else mp.besselk
    trans = [trans_fn(j, delta * xi) for j in range(p_max + half_width + 1)]
    flip = -1 if interior else 1
    ms = range(-half_width, half_width + 1)
    one_minus = mp.matrix(len(ms), len(ms))
    for i, m in enumerate(ms):
        for j, n in enumerate(ms):
            acc = mp.fsum(ratio[abs(p)] * trans[abs(p + flip * m)]
                          * trans[abs(p + flip * n)]
                          for p in range(-p_max, p_max + 1))
            one_minus[i, j] = (i == j) - num[abs(n)] / den[abs(m)] * acc
    return mp.log(mp.det(one_minus))


@pytest.mark.parametrize("bc", [BoundaryPair.DD, BoundaryPair.NN,
                                BoundaryPair.DN, BoundaryPair.ND])
@pytest.mark.parametrize("pair,xi", [(INT_05, 1.0), (EXT_08, 0.7)],
                         ids=["interior", "exterior"])
def test_logdet_matches_mpmath_oracle(pair, xi, bc):
    # independent of the log-scaled tables and of the parity-split assembly
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = float(_mp_log_det(mp, pair, bc, xi, 4))
    got = log_det_one_minus(build_matrix(pair, bc, xi, 4, tol=1e-13))
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("bc", [BoundaryPair.DD, BoundaryPair.DN])
def test_logdet_tail_lanes_match_mpmath(bc):
    # the 16 largest-xi lanes of the level-1 grid, where |ln det(1 - M)|
    # falls to ~1e-8, against a 60-digit ln det of the same stacked G:
    # every lane keeps full relative accuracy, at c > 0 (DD) and c < 0 (DN)
    mp = pytest.importorskip("mpmath")
    pair, n = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1), 20
    xi = np.sort(_xi_grid(pair.d, 1)[0])[-16:]
    tables = _XiTables(pair, bc, xi, n)
    (g,), _ = _window_blocks(tables, slice(None), 1e-12, False)
    scale = tables.sign * np.exp(-2.0 * pair.d * xi)
    got = _log_det_lanes(scale, [g]).sum(axis=1)
    with mp.workdps(60):
        for lane, c in enumerate(scale.tolist()):
            want = float(sum(
                mp.log(mp.det(mp.eye(n + 1)
                              - c * mp.matrix(g[parity, lane].tolist())))
                for parity in (0, 1)))
            assert abs(got[lane] - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("bc", [BoundaryPair.DD, BoundaryPair.NN,
                                BoundaryPair.DN, BoundaryPair.ND])
@pytest.mark.parametrize("kind,b", [(Kind.INTERIOR, 2.0),
                                    (Kind.EXTERIOR, 1.5)],
                         ids=["interior", "exterior"])
def test_force_term_matches_logdet_difference(kind, b, bc):
    # tr[(1 - M)^{-1} d_d M] against -d/dd ln det(1 - M) by central difference
    d = 0.4
    xi, h = 0.3 / d, 1e-4 * d
    got = np.sum(_one_node(CylinderPair(kind, 1.0, b, d), bc, xi, 6, 1e-14,
                           "force")[0])
    hi, lo = (np.sum(_one_node(CylinderPair(kind, 1.0, b, g), bc, xi, 6,
                               1e-14)[0])
              for g in (d + h, d - h))
    want = -(hi - lo) / (2.0 * h)
    assert abs(got - want) <= 1e-6 * abs(want)


@pytest.mark.parametrize("xi_d", [0.05, 0.3, 2.0, 12.0])
@pytest.mark.parametrize("bc", [BoundaryPair.DD, BoundaryPair.NN,
                                BoundaryPair.DN, BoundaryPair.ND])
@pytest.mark.parametrize("pair", [INT_05, EXT_08],
                         ids=["interior", "exterior"])
def test_rows_sum_to_every_leading_truncation(pair, bc, xi_d):
    # the rows of one N=12 build hold the energy and force terms of every
    # smaller truncation: the truncation driver reads its tail off them
    xi = xi_d / pair.d
    for quantity in ("energy", "force"):
        rows = _one_node(pair, bc, xi, 12, 1e-14, quantity)[0]
        assert rows.shape == (13,)
        for n in (0, 1, 3, 7, 12):
            want = np.sum(_one_node(pair, bc, xi, n, 1e-14, quantity)[0])
            assert abs(np.sum(rows[:n + 1]) - want) <= 1e-10 * abs(want)


def test_single_mode_dominance_limit():
    # a hairline inner cylinder far from the wall: the m=n=0 entry carries
    # the whole determinant, so ln det(1-M) collapses to -M_00
    pair = CylinderPair(kind=Kind.INTERIOR, a=1e-6, b=1.5, d=1.0)
    mat = build_matrix(pair, BoundaryPair.DD, 20.0, 3)
    ld = log_det_one_minus(mat)
    m00 = mat.sign * mat.even[0, 0] * math.exp(mat.prefactor_log)
    assert abs(ld) < 1e-18
    assert abs(ld + m00) <= 1e-7 * abs(ld)


def test_energy_argument_validation():
    with pytest.raises(DomainError):
        casimir_energy_exact(INT_05, BoundaryPair.PCIP)
    with pytest.raises(DomainError):
        casimir_energy_exact(INT_05, BoundaryPair.DD, rel_tol=1e-11)


def test_real_rel_tol_runs_as_its_float():
    # any real number but a bool, numpy scalars and fractions included, runs
    # as the float it stands for
    for rel_tol in (np.float32(0.01), np.float64(0.01), Fraction(1, 100)):
        assert casimir_energy_exact(INT_05, BoundaryPair.DD, rel_tol) \
            == casimir_energy_exact(INT_05, BoundaryPair.DD, float(rel_tol))


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, "1e-3", None, True,
                                     1e-3j])
@pytest.mark.parametrize("run", [casimir_energy_exact, casimir_force_exact])
def test_nonfinite_rel_tol_rejected(run, rel_tol):
    with pytest.raises(DomainError, match="rel_tol must be finite"):
        run(EXT_08, BoundaryPair.DD, rel_tol)


def test_energy_truncation_cap_raises(monkeypatch):
    monkeypatch.setattr(scattering, "_N_CAP", 8)
    with pytest.raises(NoConvergence, match="exceeds cap 8"):
        casimir_energy_exact(INT_05, BoundaryPair.DD, 1e-6)


@pytest.mark.parametrize("d,width",
                         [(1e-310, "inf"), (1e-300, r"[36]e\+300")])
@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("run", [casimir_energy_exact, casimir_force_exact])
def test_tiny_gap_raises_no_convergence(run, kind, d, width):
    # 3 r / d is inf at a subnormal gap: the cap check comes before any
    # int(), and a huge width prints in three digits
    pair = CylinderPair(kind, 1.0, 2.0, d)
    with pytest.raises(NoConvergence, match=rf"N={width} exceeds cap 4096$"):
        run(pair, BoundaryPair.DD, 1e-3)


def test_energy_tail_cap_raises(monkeypatch):
    # N0 = 10 fits under the cap, but the row tail still asks for more
    monkeypatch.setattr(scattering, "_N_CAP", 12)
    with pytest.raises(NoConvergence, match="cap 12"):
        casimir_energy_exact(INT_05, BoundaryPair.DD, 1e-6)


@pytest.mark.parametrize("d", [0.02, 0.5, 3.0])
def test_xi_levels_nest(d):
    # halving the step keeps every node of the level below bit for bit,
    # with exactly half its weight; the new nodes are the odd ones
    for level in range(5):
        xi, wt = _xi_grid(d, level)
        fine_xi, fine_wt = _xi_grid(d, level + 1)
        new_xi, new_wt = _xi_grid(d, level + 1, new_only=True)
        assert xi.size == 24 * 2 ** level + 1
        assert np.array_equal(fine_xi[::2], xi)
        assert np.array_equal(2.0 * fine_wt[::2], wt)
        assert np.array_equal(fine_xi[1::2], new_xi)
        assert np.array_equal(fine_wt[1::2], new_wt)


@pytest.mark.parametrize("d", [0.02, 0.5, 3.0])
def test_xi_rule_closed_forms(d):
    # 49 nodes integrate the prefactor decay, the logarithm K_0 brings at
    # xi -> 0 and a 1/ln endpoint to rounding; Gauss-Legendre on the same
    # map still misses the last one by 1.7e-12 at 2048 nodes
    mp = pytest.importorskip("mpmath")
    xi, wt = _xi_grid(d, 1)
    assert xi.size == 49
    c = 2.0 * d
    decay = xi * np.exp(-c * xi)
    with mp.workdps(30):
        slow = float(mp.quad(
            lambda x: x * mp.exp(-c * x) / mp.log(1 + 1 / x),
            [0, 1 / c, mp.inf]))
    for f, ref in ((decay, 1.0 / c ** 2),
                   (decay * np.log(xi), (1.0 - np.euler_gamma - math.log(c))
                    / c ** 2),
                   (decay / np.log1p(1.0 / xi), slow)):
        assert abs(np.sum(wt * f) - ref) <= 1e-14 * abs(ref)


_SPAN_PAIRS = [CylinderPair(kind, 1.0, b, d)
               for kind in (Kind.INTERIOR, Kind.EXTERIOR)
               for b in (1.2, 2.0, 20.0) for d in (0.05, 0.5, 3.0)
               if kind is Kind.EXTERIOR or 1.0 + d < b]


@pytest.mark.parametrize("pair", [
    pytest.param(p, id=f"{p.kind.value}-b{p.b}-d{p.d}") for p in _SPAN_PAIRS
    # N0 = 1204 makes this one ~8 min; its end nodes carry <= 4.7e-25
    if not (p.kind is Kind.EXTERIOR and p.b == 20.0 and p.d == 0.05)])
def test_xi_span_end_nodes_negligible(pair):
    # the nodes at |s| = 3 carry almost nothing: the span cuts no integrand
    xi, wt = _xi_grid(pair.d, 0)
    n = _initial_half_width(pair)
    for bc in (BoundaryPair.DD, BoundaryPair.NN, BoundaryPair.DN,
               BoundaryPair.ND):
        terms = wt * xi * np.sum(xi_rows(pair, bc, xi, n, 1e-12)[0], axis=1)
        assert max(abs(terms[0]), abs(terms[-1])) \
            <= 1e-20 * abs(np.sum(terms))


def _level_rows(pair, bc, half_width, level, tol, quantity="energy"):
    """Rows of (1/4 pi) int xi term(xi) d xi on every node of one xi level,
    and the rows of the level below read off its even nodes, summed here
    from one ``xi_rows`` set over the frozen grid."""
    xi, wt = _xi_grid(pair.d, level)
    rows, _ = xi_rows(pair, bc, xi, half_width, tol, quantity)
    terms = (wt * xi)[:, None] * rows / (4.0 * math.pi)
    return terms.sum(axis=0), 2.0 * terms[::2].sum(axis=0)


def _recorded_passes(monkeypatch) -> list:
    """(half_width, nodes) of every ``xi_rows`` set the driver assembles."""
    passes = []
    inner = scattering.xi_rows

    def recorded(pair, bc, xi, half_width, *args):
        passes.append((half_width, np.array(xi)))
        return inner(pair, bc, xi, half_width, *args)

    monkeypatch.setattr(scattering, "xi_rows", recorded)
    return passes


@pytest.mark.parametrize("quantity,rel_tol", [("energy", 1e-8),
                                              ("force", 1e-9)],
                         ids=["energy", "force"])
def test_refinement_matches_full_level(monkeypatch, quantity, rel_tol):
    # from N0 = 8 the run assembles level 0, then only the new nodes of
    # levels 1 and 2; at the grown N it assembles level 2 whole, in two
    # sets, and stops on it.  At both N the rows it hands the tail bound
    # equal the full level-2 sum; at the grown N the level below, which the
    # run reads off level 2's even nodes, is the full level-1 sum, so err_est
    # less the tail bound is the difference of the two sums
    monkeypatch.setattr(scattering, "_initial_half_width", lambda pair: 8)
    passes = _recorded_passes(monkeypatch)
    seen, bounds = [], []
    inner = scattering._tail_bound

    def tail(rows):
        seen.append(rows.copy())
        bounds.append(inner(rows))
        return bounds[-1]

    monkeypatch.setattr(scattering, "_tail_bound", tail)
    run = casimir_energy_exact if quantity == "energy" else casimir_force_exact
    res = run(EXT_08, BoundaryPair.DN, rel_tol)
    n, tol = res.n_matrix, max(1e-13, 1e-3 * rel_tol)
    assert n > 8 and res.xi_nodes == _xi_node_count(2)
    assert [(w, x.size) for w, x in passes] \
        == [(8, 25), (8, 24), (8, 48), (n, 49), (n, 48)]
    assert len(seen) == 2 and res.value_per_length == float(np.sum(seen[1]))
    for rows, half_width in zip(seen, (8, n)):
        full, full_below = _level_rows(EXT_08, BoundaryPair.DN, half_width,
                                       2, tol, quantity)
        mid, _ = _level_rows(EXT_08, BoundaryPair.DN, half_width, 1, tol,
                             quantity)
        scale = np.max(np.abs(full))
        assert np.max(np.abs(rows - full)) <= 1e-14 * scale
        assert np.max(np.abs(full_below - mid)) <= 1e-14 * scale
    value = res.value_per_length
    assert abs(res.err_est - bounds[1][0]
               - abs(float(np.sum(full)) - float(np.sum(mid)))) \
        <= 1e-13 * abs(value)


def _counted_lanes(monkeypatch) -> dict:
    """Lanes the stacked assembler builds at each half_width, as they run."""
    from casimir_cylinders import scattering
    builds = {}
    inner = scattering._window_blocks

    def counted(tables, lanes, *args):
        blocks, widths = inner(tables, lanes, *args)
        builds[tables.half_width] = (builds.get(tables.half_width, 0)
                                     + widths.size)
        return blocks, widths

    monkeypatch.setattr(scattering, "_window_blocks", counted)
    return builds


@pytest.mark.parametrize("pair", [INT_05, EXT_08], ids=["interior", "exterior"])
def test_final_grid_built_once(monkeypatch, pair):
    # nested levels: at every N the run assembles the nodes of the finest
    # level it reaches there once, and nothing past it; at the final N that
    # level is the reported grid
    builds = _counted_lanes(monkeypatch)
    passes = _recorded_passes(monkeypatch)
    res = casimir_energy_exact(pair, BoundaryPair.DD, 1e-4)
    # the nodes assembled at each N are those of one level, each once
    finest = {}
    for n in {n for n, _ in passes}:
        nodes = np.sort(np.concatenate([x for w, x in passes if w == n]))
        finest[n] = next(level for level in range(_MAX_QUAD_LEVEL + 1)
                         if _xi_node_count(level) == nodes.size)
        assert np.array_equal(nodes, np.sort(_xi_grid(pair.d, finest[n])[0]))
    assert builds[res.n_matrix] == res.xi_nodes
    n0 = _initial_half_width(pair)
    assert builds[n0] == _xi_node_count(finest[n0])
    assert builds == {n: _xi_node_count(level) for n, level in finest.items()}


@pytest.mark.parametrize("fixture,quantity,rel_tol", [
    ("energy_dd_01", "energy", 1e-4), ("force_dd_01", "force", 1e-3)])
def test_final_level_checked_at_final_n(request, fixture, quantity, rel_tol):
    # the reported value is the level-L sum at the final N, that level agrees
    # with the level below at the same N, and err_est adds up from them
    res, _ = request.getfixturevalue(fixture)
    pair = CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1)
    level = next(level for level in range(_MAX_QUAD_LEVEL + 1)
                 if _xi_node_count(level) == res.xi_nodes)
    assert level >= 1
    tol_elem = max(1e-13, 1e-3 * rel_tol)     # the driver's element tolerance
    rows = [_level_rows(pair, BoundaryPair.DD, res.n_matrix, at, tol_elem,
                        quantity)[0] for at in (level, level - 1)]
    sums = [float(np.sum(r)) for r in rows]
    value = res.value_per_length
    assert abs(value - sums[0]) <= 1e-13 * abs(value)
    diff = abs(sums[0] - sums[1])
    assert diff <= 0.25 * rel_tol * abs(value)
    assert res.err_est >= diff
    # err_est is that difference plus the tail bound of the level's rows
    assert abs(res.err_est - _tail_bound(rows[0])[0] - diff) \
        <= 1e-13 * abs(value)


def test_xi_rule_unconverged_at_final_n_raises(monkeypatch):
    # from N0 = 0 the exterior DN d=0.2 run passes the level-1 check at
    # N = 0, then needs level 2 once N grows; without it the run raises at
    # the grown N instead of returning an unconverged result
    from casimir_cylinders import scattering
    pair = CylinderPair(Kind.EXTERIOR, 1.0, 2.0, 0.2)
    monkeypatch.setattr(scattering, "_initial_half_width", lambda pair: 0)
    res = casimir_energy_exact(pair, BoundaryPair.DN, 1e-6)
    assert res.err_est <= 1e-6 * abs(res.value_per_length)
    assert res.xi_nodes == _xi_node_count(2)
    monkeypatch.setattr(scattering, "_MAX_QUAD_LEVEL", 1)
    with pytest.raises(NoConvergence, match=r"xi-quadrature .*\(N=1\)"):
        casimir_energy_exact(pair, BoundaryPair.DN, 1e-6)


@pytest.mark.parametrize("run,budget", [
    (lambda: casimir_energy_exact(CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1),
                                  BoundaryPair.DD, 1e-4), 98),
    (lambda: casimir_force_exact(INT_05, BoundaryPair.DD, 1e-3), 98),
    (lambda: casimir_energy_exact(CylinderPair(Kind.EXTERIOR, 1.0, 2.0, 0.2),
                                  BoundaryPair.DD, 1e-4), 49),
], ids=["energy-interior-d0.1", "force-interior-d0.5", "energy-exterior-d0.2"])
def test_xi_node_budget(monkeypatch, run, budget):
    # the ladder at N0 and one converged level at the final N: no level
    # past the reported one is assembled (146, 146 and 97 lanes when one was)
    builds = _counted_lanes(monkeypatch)
    run()
    assert sum(builds.values()) <= budget


@pytest.mark.parametrize("pair", [
    CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1),
    CylinderPair(Kind.INTERIOR, 1.0, 100.0, 0.99),
    CylinderPair(Kind.EXTERIOR, 1.0, 1.5, 0.8)],
    ids=["interior", "near-plate", "exterior"])
def test_lane_windows_match_the_scalar_rule(monkeypatch, pair):
    # the first windows of a table set, formed over all lanes at once,
    # equal the one-node rule in Python integers: the p-centre round(b/a N)
    # clamped to N + ceil(zd) + 20, the window ceil(zd) + 40 past it, and
    # no window past the p cap
    from casimir_cylinders import scattering
    xi = np.append(_xi_grid(pair.d, 0)[0], 1e-9)
    for n in (0, 12, 61):
        want = []
        for zd in (pair.delta * xi).tolist():
            box = math.ceil(zd) + 20
            center = (min(max(round(pair.b / pair.a * n), -n - box), n + box)
                      if pair.kind is Kind.INTERIOR else 0)
            want.append(center + n + math.ceil(zd) + 40)
        assert _XiTables(pair, BoundaryPair.DD, xi, n).first.tolist() == want
        cap = sorted(want)[len(want) // 2]
        with monkeypatch.context() as patch:
            patch.setattr(scattering, "_P_CAP", cap)
            tables = _XiTables(pair, BoundaryPair.DD, xi, n)
        assert tables.first.tolist() == [min(w, cap) for w in want]
        assert tables.p_hi == cap


# xi d from the far low-frequency end, where interior d=0.1 and exterior
# d=0.8 windows double past their first rows, to the far tail, where
# ln det(1 - M) is tiny
_MIXED_XI_D = np.array([0.002, 0.01, 0.05, 0.3, 2.0, 8.0, 12.0, 20.0])


@pytest.mark.parametrize("quantity", ["energy", "force"])
@pytest.mark.parametrize("bc", [BoundaryPair.DD, BoundaryPair.NN,
                                BoundaryPair.DN, BoundaryPair.ND])
@pytest.mark.parametrize("pair", [CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1),
                                  EXT_08], ids=["interior", "exterior"])
def test_stacked_group_matches_single_lanes(pair, bc, quantity):
    # one stacked group mixes lanes whose window doubles with lanes whose
    # first window holds, and for the DD energy rows read as log1p(-delta)
    # with rows read as 2 log L_kk (delta = 1 - L_kk^2 >= 1/2; the other
    # pairings keep every delta below 1/2 here): each lane's rows equal its
    # own one-lane build
    n, tol = 12, 1e-12
    xi = _MIXED_XI_D / pair.d
    tables = _XiTables(pair, bc, xi, n)
    force = quantity == "force"
    blocks, widths = _window_blocks(tables, slice(None), tol, force)
    scale = tables.sign * np.exp(-2.0 * pair.d * xi)
    rows = (_force_lanes if force else _log_det_lanes)(scale, blocks)
    doubled = (widths - 1) // 2 >= tables.first
    assert doubled.any() and not doubled.all()
    if quantity == "energy":
        chol = np.linalg.cholesky(np.eye(n + 1)
                                  - scale[:, None, None] * blocks[0])
        far = 1.0 - np.diagonal(chol, axis1=2, axis2=3) ** 2 >= 0.5
        assert far.any() == (bc is BoundaryPair.DD) and not far.all()
    for lane, x in enumerate(xi.tolist()):
        want, width = _one_node(pair, bc, x, n, tol, quantity)
        assert widths[lane] == width
        assert np.max(np.abs(rows[lane] - want)) \
            <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("pair", [CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1),
                                  EXT_08], ids=["interior", "exterior"])
def test_stacked_cap_matches_single_lanes(monkeypatch, pair):
    # at a p cap on either side of each lane's cut, a lane alone fails
    # exactly when its cut reaches the cap, and the stacked group fails
    # exactly when one of its lanes fails alone: every window sequence ends
    # on the cap itself, so no lane's outcome depends on its group
    from casimir_cylinders import scattering
    n, tol, bc = 12, 1e-12, BoundaryPair.DD
    xi = _MIXED_XI_D / pair.d
    _, widths = _window_blocks(_XiTables(pair, bc, xi, n), slice(None), tol,
                               False)
    cuts = ((widths - 1) // 2).tolist()

    def fails(build):
        try:
            build()
        except PSumNoConvergence as exc:
            assert f"cap {scattering._P_CAP} " in str(exc)
            return True
        return False

    for cap in sorted({10, *cuts, *(cut + 1 for cut in cuts)}):
        monkeypatch.setattr(scattering, "_P_CAP", cap)
        alone = [fails(lambda x=x: _one_node(pair, bc, x, n, tol))
                 for x in xi.tolist()]
        assert alone == [cut >= cap for cut in cuts]
        assert fails(lambda: _window_blocks(_XiTables(pair, bc, xi, n),
                                            slice(None), tol, False)) \
            == any(alone)


@pytest.mark.parametrize("quantity", ["energy", "force"])
@pytest.mark.parametrize("pair", [CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1),
                                  EXT_08], ids=["interior", "exterior"])
def test_regrown_tables_match_wide_ones(pair, quantity):
    # a one-node set that regrows its tables as its rows double builds the
    # same blocks and width, bit for bit, as one grown first to 4x its first
    # window: a table's head does not depend on its length.  The set's
    # first window is its one lane's, so the low-xi nodes regrow it
    n, tol, force = 12, 1e-12, quantity == "force"
    regrown = 0
    for x in (_MIXED_XI_D / pair.d).tolist():
        fresh, wide = (_XiTables(pair, BoundaryPair.DD, np.array([x]), n)
                       for _ in range(2))
        first = fresh.p_hi
        wide.grow(4 * first)
        got, width = _window_blocks(fresh, slice(None), tol, force)
        want, wide_width = _window_blocks(wide, slice(None), tol, force)
        assert fresh.p_hi < wide.p_hi
        regrown += fresh.p_hi > first
        assert np.array_equal(width, wide_width)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert 0 < regrown < _MIXED_XI_D.size


def test_stacked_nonpositive_lane_raises():
    # one lane whose 1 - M is not positive definite fails its whole stack
    # with the typed error, for the energy and for the force
    # (parity, lane) stacks at half_width 1, the odd block padded at k = 0
    g = np.zeros((2, 3, 2, 2))
    g[0] = 0.5 * np.eye(2)
    g[0, 1] = np.diag([0.5, 2.0])
    g[1, :, 1, 1] = 0.25
    scale = np.ones(3)
    with pytest.raises(NonPositiveDeterminant):
        _log_det_lanes(scale, [g])
    with pytest.raises(NonPositiveDeterminant):
        _force_lanes(scale, [g, g])
    assert np.all(np.isfinite(_log_det_lanes(scale[::2], [g[:, ::2]])))


def test_near_plate_limit_converges():
    # interior a=1, b=100, d=0.99, toward the cylinder-plate limit: the
    # envelope of Z decays only like (delta/b)^p ~ 0.98^p, so the widest
    # window runs to ~6700 rows, well inside the p cap
    pair = CylinderPair(Kind.INTERIOR, 1.0, 100.0, 0.99)
    rel_tol = 1e-3
    # DD and NN attract, DN and ND repel
    runs = [(casimir_energy_exact(pair, bc, rel_tol), attract)
            for bc, attract in ((BoundaryPair.DD, True),
                                (BoundaryPair.NN, True),
                                (BoundaryPair.DN, False),
                                (BoundaryPair.ND, False))]
    runs.append((casimir_force_exact(pair, BoundaryPair.DD, rel_tol), True))
    for res, attract in runs:
        assert res.err_est <= rel_tol * abs(res.value_per_length)
        assert (res.value_per_length < 0) == attract


def test_far_plate_limit_raises_at_the_p_cap():
    # at b=1e4 the envelope decays like (delta/b)^p ~ 0.9998^p, and a
    # lane's cut still reaches the p cap: a typed error that names the cap
    with pytest.raises(PSumNoConvergence, match=rf"cap {_P_CAP} at xi="):
        casimir_energy_exact(CylinderPair(Kind.INTERIOR, 1.0, 1e4, 0.99),
                             BoundaryPair.DD, 1e-3)


def test_force_memory_bounded():
    # lane groups trade memory for fewer numpy calls; their element budget
    # keeps one small force's traced peak near 1.3 MB (0.3 MB one node at a
    # time), and this pins it so a larger budget cannot slip in unnoticed.
    # The exterior energy doubles its p-window; near 1.5 MB it shows that
    # the superseded exponents are dropped before the wider ones are formed
    # (1.9 MB when both are held)
    ext_02 = CylinderPair(kind=Kind.EXTERIOR, a=1.0, b=2.0, d=0.2)
    for run, bound in (
            (lambda: casimir_force_exact(INT_05, BoundaryPair.DD, 1e-3),
             2_000_000),
            (lambda: casimir_energy_exact(ext_02, BoundaryPair.DD, 1e-4),
             1_600_000)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_tables_built_once_per_pass(monkeypatch):
    # each assembly pass builds its Bessel tables once across its xi nodes
    # (prefactor I and K, reflection K and I, translation): the force-stencil
    # geometry's windows all fit the set sized from the widest first window
    from casimir_cylinders import scattering
    calls = [0]
    per_pass = []
    for name in [n for n in dir(scattering) if re.fullmatch(r"log_\w+_table", n)]:
        inner = getattr(scattering, name)

        def counted(*args, _inner=inner):
            calls[0] += 1
            return _inner(*args)
        monkeypatch.setattr(scattering, name, counted)
    inner_pass = scattering.xi_rows

    def counted_pass(*args):
        before = calls[0]
        rows = inner_pass(*args)
        per_pass.append(calls[0] - before)
        return rows
    monkeypatch.setattr(scattering, "xi_rows", counted_pass)
    res = casimir_force_exact(INT_05, BoundaryPair.DD, 1e-3)
    assert res.err_est <= 1e-3 * abs(res.value_per_length)
    assert per_pass and max(per_pass) <= 6


def test_tail_bound_geometric_rows():
    rows = -0.5 ** np.arange(41.0)
    bound, q = _tail_bound(rows)
    assert q == 0.5
    assert bound == 2.0 * 0.5 ** 40     # twice the true tail
    grown = _grown_half_width(40, bound, q, bound / 100.0)
    assert grown == 47                  # 0.5^7 <= 1/100 < 0.5^6
    # q is the slowest ratio of the last max(4, N/8) = 5 rows: rows whose
    # decay slows from 0.5 to 0.9 there are extrapolated at 0.9, in one step
    rows = -np.concatenate([0.5 ** np.arange(36.0),
                            0.5 ** 35 * 0.9 ** np.arange(1.0, 6.0)])
    bound, q = _tail_bound(rows)
    assert q == pytest.approx(0.9)
    assert _grown_half_width(40, bound, q, bound * 0.9 ** 134.5) == 175


def test_tail_bound_edge_rows():
    assert _tail_bound(np.array([-1.0, -0.5, 0.0])) == (0.0, 0.0)
    bound, q = _tail_bound(np.array([-1.0, -0.5, -0.5, -0.25, -0.2]))
    assert q == 1.0 and bound == math.inf      # a row that does not decay
    assert _grown_half_width(4, bound, q, 1e-3) == 9   # nothing to extrapolate
    # however far the geometric bound reaches, one step gets there
    assert _grown_half_width(4, 1.0, 0.99, 1e-12) \
        == 4 + math.ceil(math.log(1e-12) / math.log(0.99)) == 2754
    # and a step grows N by at least one row
    assert _grown_half_width(4, 1.0, 0.5, 0.9) == 5


def test_growth_takes_one_step(monkeypatch):
    # interior DD d=0.05: N goes from N0 = 64 to where the tail bound of its
    # rows meets rel_tol in one step, where a doubling step would assemble a
    # third N (64, 129, 167)
    passes = _recorded_passes(monkeypatch)
    res = casimir_energy_exact(CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.05),
                               BoundaryPair.DD, 1e-6)
    assert res.err_est <= 1e-6 * abs(res.value_per_length)
    assert list(dict.fromkeys(n for n, _ in passes)) == [64, res.n_matrix]


def test_force_near_concentric_limit():
    # the force is odd in delta = b - a - d, so F/delta levels off as the
    # cylinders approach the concentric position
    ratios = []
    for d in (0.999, 0.9995):
        res = casimir_force_exact(
            CylinderPair(Kind.INTERIOR, 1.0, 2.0, d), BoundaryPair.DD, 1e-3)
        assert res.err_est <= 1e-3 * abs(res.value_per_length)
        assert res.value_per_length < 0.0
        ratios.append(res.value_per_length / (2.0 - 1.0 - d))
    assert abs(ratios[0] - ratios[1]) <= 1e-4 * abs(ratios[0])


def test_energy_interior_reference(energy_dd_01):
    res, _ = energy_dd_01
    assert res.err_est <= 1e-4 * abs(res.value_per_length)
    assert res.n_matrix >= 34 and res.xi_nodes >= 32 and res.p_terms_max > 0
    # frozen from the first converged run of this pipeline
    assert abs(res.value_per_length - (-5.48283)) <= 0.01 * 5.48283
    exp = energy_expansion(CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1),
                           BoundaryPair.DD)
    two_term = exp.amplitude * (1.0 + exp.bracket * 0.1)
    assert abs(res.value_per_length - two_term) <= 0.03 * abs(two_term)


def test_energy_depth_ordering(energy_dd_005, energy_dd_01, energy_dd_02):
    e005 = energy_dd_005[0].value_per_length
    e01 = energy_dd_01[0].value_per_length
    e02 = energy_dd_02[0].value_per_length
    assert abs(e005) > abs(e01) > abs(e02)
    assert e005 < 0.0 and e01 < 0.0 and e02 < 0.0


def test_energy_mixed_pair_repulsive(energy_dn_01, energy_dd_01):
    dn, _ = energy_dn_01
    assert dn.err_est <= 1e-4 * abs(dn.value_per_length)
    assert dn.value_per_length > 0.0
    assert abs(dn.value_per_length) < abs(energy_dd_01[0].value_per_length)


def test_exterior_energy_relabel(exterior_swap_quad):
    runs, _ = exterior_swap_quad
    dd_12 = runs["dd_12"].value_per_length
    dd_21 = runs["dd_21"].value_per_length
    dn_12 = runs["dn_12"].value_per_length
    nd_21 = runs["nd_21"].value_per_length
    assert abs(dd_12 - dd_21) <= 2e-4 * abs(dd_12)
    assert abs(dn_12 - nd_21) <= 2e-4 * abs(dn_12)


def test_force_interior_reference(force_dd_01):
    res, _ = force_dd_01
    assert res.err_est <= 1e-3 * abs(res.value_per_length)
    exp = force_expansion(CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.1),
                          BoundaryPair.DD)
    two_term = exp.amplitude * (1.0 + exp.bracket * 0.1)
    assert abs(res.value_per_length - two_term) <= 0.05 * abs(two_term)


def test_force_mixed_pair_repulsive(force_dn_01):
    res, _ = force_dn_01
    assert res.err_est <= 1e-3 * abs(res.value_per_length)
    assert res.value_per_length > 0.0


def test_force_matches_central_difference():
    # independent route: difference two plain energy runs across the gap
    hi = casimir_energy_exact(
        CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.51), BoundaryPair.DD, 1e-5)
    lo = casimir_energy_exact(
        CylinderPair(Kind.INTERIOR, 1.0, 2.0, 0.49), BoundaryPair.DD, 1e-5)
    fd = -(hi.value_per_length - lo.value_per_length) / 0.02
    res = casimir_force_exact(INT_05, BoundaryPair.DD, 1e-3)
    assert abs(fd - res.value_per_length) \
        <= res.err_est + 3e-3 * abs(res.value_per_length)


def test_force_exterior_matches_central_difference():
    hi = casimir_energy_exact(
        CylinderPair(Kind.EXTERIOR, 1.0, 2.0, 0.51), BoundaryPair.DN, 1e-5)
    lo = casimir_energy_exact(
        CylinderPair(Kind.EXTERIOR, 1.0, 2.0, 0.49), BoundaryPair.DN, 1e-5)
    fd = -(hi.value_per_length - lo.value_per_length) / 0.02
    res = casimir_force_exact(
        CylinderPair(Kind.EXTERIOR, 1.0, 2.0, 0.5), BoundaryPair.DN, 1e-3)
    assert abs(fd - res.value_per_length) \
        <= res.err_est + 3e-3 * abs(res.value_per_length)


def test_force_err_est_bounds_reference():
    # reference: the five-point Richardson stencil over energies (the
    # route this package used before the trace formula) at rel_tol 1e-5,
    # whose own err_est was 1.7e-7
    ref = -0.5419063432015647
    res = casimir_force_exact(INT_05, BoundaryPair.DD, 1e-3)
    assert res.err_est <= 1e-3 * abs(res.value_per_length)
    assert abs(res.value_per_length - ref) <= res.err_est
