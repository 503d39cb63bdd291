import math

import numpy as np
import pytest

from casimir_cylinders.bessel import (
    log_i_prime_scaled_table,
    log_i_scaled_table,
    log_k_prime_scaled_table,
    log_k_scaled_table,
)
from casimir_cylinders.errors import DomainError

# (n, z, ln itilde_n, ln ktilde_n, ln itilde'_n, ln|ktilde'_n|) frozen from a
# 50-digit arbitrary-precision evaluation, rounded to the nearest double.
_SPOT_LOGS = [
    (0, 1.0, -0.76408564149282135, 0.1349356010932119,
     -1.5706479874908313, 0.49234805178924767),
    (1, 1.0, -1.5706479874908313, 0.49234805178924767,
     -1.355380391148862, 1.0226726894677579),
    (5, 0.5, -12.208554618785102, 9.9007937321946314,
     -9.9018176742982353, 12.209577513503645),
    (10, 25.0, -4.5364135026379731, 0.55022634280520238,
     -4.4783857274444869, 0.6402706232138881),
    (40, 10.0, -55.337711772720696, 50.925356794289646,
     -53.92180296518008, 52.342692887217297),
    (60, 60.0, -31.168760137296519, 26.034681784098609,
     -30.825123987277425, 26.38421017529727),
    (137, 89.0, -95.74055723638635, 89.951384437520861,
     -95.134076692694676, 90.559681565981053),
    (300, 10.0, -941.99143115341707, 935.59394624490824,
     -938.58968036725406, 938.99570072865149),
    (500, 1000.0, -127.0004513048602, 119.2879770696609,
     -126.88923736403739, 119.39990655215256),
    (200, 0.001, -2383.4134790995782, 2377.4220145524577,
     -2371.2074064540355, 2389.6280871980004),
    (3, 0.001, -24.595466785354302, 22.803707253626255,
     -16.58909917603739, 30.810074904609821),
    (0, 750.0, -4.2288083585374302, -3.0844118063300071,
     -4.2294754701927413, -3.0837455835655602),
]

_GRID_ORDERS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 500)
_GRID_ARGS = np.geomspace(1e-3, 1e3, 27)
_TABLES = (log_i_scaled_table, log_k_scaled_table, log_i_prime_scaled_table,
           log_k_prime_scaled_table)


@pytest.mark.parametrize("n,z,li,lk,lip,lkp", _SPOT_LOGS)
def test_spot_logs(n, z, li, lk, lip, lkp):
    tol = lambda ref: 1e-12 * (1.0 + abs(ref))
    assert abs(log_i_scaled_table([z], n)[0, n] - li) <= tol(li)
    assert abs(log_k_scaled_table([z], n)[0, n] - lk) <= tol(lk)
    assert abs(log_i_prime_scaled_table([z], n)[0, n] - lip) <= tol(lip)
    assert abs(log_k_prime_scaled_table([z], n)[0, n] - lkp) <= tol(lkp)


def test_wronskian_identity_full_grid():
    # z*(I_n K'_n rearranged): e^{li+lkp}z + e^{lip+lk}z = 1, exercised in a
    # form that never underflows because the huge exponents cancel pairwise.
    n = np.array(_GRID_ORDERS)
    top = int(n[-1])
    li = log_i_scaled_table(_GRID_ARGS, top)[:, n]
    lk = log_k_scaled_table(_GRID_ARGS, top)[:, n]
    lip = log_i_prime_scaled_table(_GRID_ARGS, top)[:, n]
    lkp = log_k_prime_scaled_table(_GRID_ARGS, top)[:, n]
    lz = np.log(_GRID_ARGS)[:, None]
    total = np.exp(li + lkp + lz) + np.exp(lip + lk + lz)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_unscaled_spot_values():
    # classic handbook values at z = 1
    e = math.e
    li = log_i_scaled_table([1.0], 1)[0]
    lk = log_k_scaled_table([1.0], 1)[0]
    assert abs(math.exp(li[0]) * e - 1.2660658777520083356) < 1e-15
    assert abs(math.exp(lk[0]) / e - 0.42102443824070833334) < 1e-15
    assert abs(math.exp(li[1]) * e - 0.56515910399248502721) < 1e-15
    assert abs(math.exp(lk[1]) / e - 0.60190723019723457474) < 1e-15


@pytest.mark.parametrize("z", [1e-3, 0.4, 2.7, 19.0, 333.0])
def test_tables_match_scalars(z):
    # every table entry against a scalar 30-digit evaluation; the primed
    # references come from I'_n = (I_{n-1} + I_{n+1})/2 and
    # K'_n = -(K_{n-1} + K_{n+1})/2
    mp = pytest.importorskip("mpmath")
    n_max = 60
    ti, tk, tip, tkp = (table([z], n_max)[0] for table in _TABLES)
    with mp.workdps(30):
        zm = mp.mpf(z)
        i = [mp.besseli(n, zm) * mp.exp(-zm) for n in range(n_max + 2)]
        k = [mp.besselk(n, zm) * mp.exp(zm) for n in range(n_max + 2)]
        for n in range(n_max + 1):
            below = abs(n - 1)
            for got, ref in (
                (ti[n], i[n]),
                (tk[n], k[n]),
                (tip[n], (i[below] + i[n + 1]) / 2),
                (tkp[n], (k[below] + k[n + 1]) / 2),
            ):
                ref = float(mp.log(ref))
                assert abs(got - ref) <= 1e-11 * (1.0 + abs(ref)), (n, z)


def test_seeds_match_mpmath():
    # orders 0 and 1 come from the trapezoid seeds (and, for I_1, one
    # Miller ratio); the grid crosses the step switch at z = 1.44 and the
    # I_0 cut switch at z = 20
    mp = pytest.importorskip("mpmath")
    z = np.concatenate((np.geomspace(1e-8, 1e6, 43), [1.44, 20.0]))
    ti = log_i_scaled_table(z, 1)
    tk = log_k_scaled_table(z, 1)
    with mp.workdps(40):
        for lane, x in enumerate(z.tolist()):
            zm = mp.mpf(x)
            for n in (0, 1):
                li = float(mp.log(mp.besseli(n, zm)) - zm)
                lk = float(mp.log(mp.besselk(n, zm)) + zm)
                assert abs(ti[lane, n] - li) <= 1e-15 * (1.0 + abs(li)), (n, x)
                assert abs(tk[lane, n] - lk) <= 1e-15 * (1.0 + abs(lk)), (n, x)


def test_zero_argument_regular_solution():
    assert log_i_scaled_table([0.0], 0)[0, 0] == 0.0
    assert log_i_scaled_table([0.0], 3)[0, 3] == -math.inf
    table = log_i_scaled_table([0.0], 4)[0]
    assert table[0] == 0.0
    assert np.all(np.isneginf(table[1:]))


def test_zero_argument_irregular_rejected():
    with pytest.raises(DomainError):
        log_k_prime_scaled_table([0.0], 0)
    with pytest.raises(DomainError):
        log_k_scaled_table([0.0], 3)


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan, "2", None])
def test_bad_arguments_rejected(bad):
    with pytest.raises(DomainError):
        log_i_scaled_table([bad], 0)


@pytest.mark.parametrize("bad", [1.5, "3", None, True])
def test_bad_orders_rejected(bad):
    with pytest.raises(DomainError):
        log_k_scaled_table([1.0], bad)
    with pytest.raises(DomainError):
        log_i_scaled_table([1.0], bad)


def test_order_monotonicity_at_fixed_argument():
    z = 7.3
    li = log_i_scaled_table([z], 30)[0]
    lk = log_k_scaled_table([z], 30)[0]
    assert np.all(np.diff(li) < 0.0)
    assert np.all(np.diff(lk) > 0.0)


def test_table_rejects_negative_length():
    with pytest.raises(DomainError):
        log_i_scaled_table([1.0], -1)


_LANE_ARGS = np.array([1e-8, 1e-3, 0.3, 1.99, 2.01, 10.0, 49.0, 51.0, 300.0,
                       1000.0])


def test_tables_match_mpmath():
    # orders up to 5000 and arguments from 1e-8 to 1e3.  mpmath's besselk does not converge at default settings for z >= 3000,
    # and order ~1000 at z = 1000 takes it seconds, so that corner is skipped
    mp = pytest.importorskip("mpmath")
    orders = (0, 1, 2, 7, 30, 49, 50, 51, 120, 400, 1500, 5000)
    ti = log_i_scaled_table(_LANE_ARGS, 5000)
    tk = log_k_scaled_table(_LANE_ARGS, 5000)
    with mp.workdps(30):
        for lane, z in enumerate(_LANE_ARGS.tolist()):
            zm = mp.mpf(z)
            for n in orders:
                if z == 1000.0 and n in (400, 1500):
                    continue
                li = float(mp.log(mp.besseli(n, zm)) - zm)
                lk = float(mp.log(mp.besselk(n, zm)) + zm)
                assert abs(ti[lane, n] - li) <= 1e-13 * (1.0 + abs(li)), (n, z)
                assert abs(tk[lane, n] - lk) <= 1e-13 * (1.0 + abs(lk)), (n, z)


@pytest.mark.parametrize("table", _TABLES, ids=lambda f: f.__name__)
def test_table_head_independent_of_length(table):
    # the first P + 1 entries do not move when the table runs further
    for p in (0, 1, 5, 60, 400):
        head = table(_LANE_ARGS, p)
        for longer in (2 * p + 3, 5000):
            tail = table(_LANE_ARGS, longer)[:, :p + 1]
            assert np.all(np.abs(tail - head) <= 1e-15 * (1.0 + np.abs(head)))


@pytest.mark.parametrize("table", _TABLES, ids=lambda f: f.__name__)
def test_batched_rows_match_single_arguments(table):
    batch = table(_LANE_ARGS, 300)
    assert batch.shape == (_LANE_ARGS.size, 301)
    for row, z in zip(batch, _LANE_ARGS.tolist()):
        alone = table([z], 300)
        assert alone.shape == (1, 301)
        assert np.all(np.abs(row - alone) <= 1e-14 * (1.0 + np.abs(alone)))


def test_batched_zero_argument_lane():
    table = log_i_scaled_table(np.array([0.0, 1.0]), 4)
    assert table[0, 0] == 0.0
    assert np.all(np.isneginf(table[0, 1:]))
    assert np.all(np.isfinite(table[1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("table", _TABLES, ids=lambda f: f.__name__)
def test_batch_with_one_bad_argument_rejected(table, bad):
    args = np.array([0.5, bad, 3.0])
    if bad == 0.0 and table in (log_i_scaled_table, log_i_prime_scaled_table):
        assert np.all(np.isfinite(table(args, 4)[[0, 2]]))
        return
    with pytest.raises(DomainError):
        table(args, 4)


# a single argument is a one-lane array, never a scalar or a 0-d array
@pytest.mark.parametrize("bad", [[[1.0, 2.0]], ["1.0"], [True, False], 1.0,
                                 np.array(1.0)])
def test_table_rejects_non_real_batches(bad):
    with pytest.raises(DomainError):
        log_k_scaled_table(bad, 3)
