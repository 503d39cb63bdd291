r"""Exponentially scaled modified Bessel functions of integer order.

The scattering matrix needs I_n and K_n over a huge span of orders and
arguments.  Everything here works with the scaled pair

    itilde_n(z) = e^{-z} I_n(z),        ktilde_n(z) = e^{+z} K_n(z),

whose product carries no exponential growth, plus the corresponding natural
logarithms for the regimes where even the scaled values leave the double
range (large order at small argument).

Single values are selected by s = sqrt(n^2 + z^2):

* ascending power series for I, and for the K_0/K_1 seeds either the
  integer-order log series (z <= 2) or Steed's continued fraction
  (2 < z < ``_S_CUT``),
* uniform large-order (Debye) asymptotics, reorganized as a series in 1/s
  with polynomial coefficients in q = n^2/s^2, valid for every n/z ratio
  once s >= ``_S_CUT``.

Tables over orders 0..n_max run ratio recurrences seeded by those values,
one numpy step per order across a whole 1-D array of arguments (the Debye
seeds of all arguments with s >= ``_S_CUT`` are one matrix product too):

* K forward on rho_k = K_{k+1}/K_k from the K_0/K_1 seeds,
* I downward on Miller's ratio I_k/I_{k-1} (its continued-fraction form,
  Gautschi, SIAM Rev. 9, 24 (1967)), normalized by the directly computed
  order 0.

The ratios stay in the double range, so nothing is rescaled; the logs of
a table are one np.log and one np.cumsum along the orders, and its first
entries do not depend on n_max.  Scalar K values of small order are read
off a table as well.

The Debye coefficient polynomials are generated exactly (rational
arithmetic) at import time from the standard recurrence
u_{k+1}(t) = t^2(1-t^2)u_k'(t)/2 + (1/8)\int_0^t (1-5s^2)u_k(s) ds.
"""
from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

import numpy as np

from .errors import DomainError

_LOG2 = math.log(2.0)
_NEG_INF = float("-inf")

# Regime switch on s = hypot(n, z); tuned against a high-precision oracle so
# that both the truncated Debye series and the series/recurrence region stay
# below ~1e-13 relative error (see tests).
_S_CUT = 50.0
_N_DEBYE_TERMS = 16
_EULER_GAMMA = 0.5772156649015328606


def _build_debye_tables(n_terms: int) -> tuple[tuple[float, ...], ...]:
    """Coefficients of P_k(q) = u_k(p)/p^k with q = p^2, exact build.

    Each P_k is a tuple of Python floats from the highest power of q down,
    the order Horner's rule reads them in.
    """
    u: dict[int, Fraction] = {0: Fraction(1)}      # u_k as {t-power: coeff}
    tables = []
    for k in range(n_terms + 1):
        coeffs = [Fraction(0)] * (k + 1)
        for power, c in u.items():
            coeffs[(power - k) // 2] = c
        tables.append(tuple(float(c) for c in reversed(coeffs)))
        nxt: dict[int, Fraction] = {}
        for power, c in u.items():
            if power:
                d = c * power
                nxt[power + 1] = nxt.get(power + 1, Fraction(0)) + d / 2
                nxt[power + 3] = nxt.get(power + 3, Fraction(0)) - d / 2
            nxt[power + 1] = nxt.get(power + 1, Fraction(0)) + c / Fraction(8 * (power + 1))
            nxt[power + 3] = nxt.get(power + 3, Fraction(0)) - 5 * c / Fraction(8 * (power + 3))
        u = {p: c for p, c in nxt.items() if c}
    return tuple(tables)


_DEBYE_P = _build_debye_tables(_N_DEBYE_TERMS)
# the same coefficients as a matrix: row k holds P_k's powers q^0..q^K
_DEBYE_C = np.array([tab[::-1] + (0.0,) * (_N_DEBYE_TERMS + 1 - len(tab))
                     for tab in _DEBYE_P])


def _debye_pieces(n: float, z: float) -> tuple[float, float, float, float]:
    """s, ln(series for I), ln(series for K), and n*eta(n,z) - z.

    The last piece is the scaled exponent, computed cancellation-free via
    s - z = n^2/(s + z).
    """
    s = math.hypot(n, z)
    q = (n / s) ** 2
    inv_s = 1.0 / s
    sig_i = 0.0
    sig_k = 0.0
    power = 1.0
    sign = 1.0
    for tab in _DEBYE_P:
        pk = 0.0
        for c in tab:
            pk = pk * q + c
        sig_i += pk * power
        sig_k += sign * pk * power
        power *= inv_s
        sign = -sign
    eta_minus_z = n * n / (s + z) + (n * math.log(z / (n + s)) if n else 0.0)
    return s, math.log(sig_i), math.log(sig_k), eta_minus_z


def _debye_logs(n: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln itilde_n(z) and ln ktilde_n(z) by the Debye series, for an array z.

    ``_debye_pieces`` for every argument at once: the series are
    (q powers) @ coefficients, weighted by powers of 1/s.  Valid where
    s = hypot(n, z) >= _S_CUT.
    """
    s = np.hypot(n, z)
    powers = np.arange(_N_DEBYE_TERMS + 1)
    terms = ((n / s)[:, None] ** (2 * powers) @ _DEBYE_C.T) \
        * (1.0 / s)[:, None] ** powers
    sig_i = terms.sum(axis=1)
    sig_k = terms @ (-1.0) ** powers
    eta_minus_z = n * n / (s + z) + (n * np.log(z / (n + s)) if n else 0.0)
    return (eta_minus_z - 0.5 * np.log(2.0 * math.pi * s) + np.log(sig_i),
            -eta_minus_z + 0.5 * np.log(math.pi / (2.0 * s)) + np.log(sig_k))


def _log_i_uniform(n: float, z: float) -> float:
    s, log_si, _, em = _debye_pieces(n, z)
    return em - 0.5 * math.log(2.0 * math.pi * s) + log_si


def _log_k_uniform(n: float, z: float) -> float:
    s, _, log_sk, em = _debye_pieces(n, z)
    return -em + 0.5 * math.log(math.pi / (2.0 * s)) + log_sk


def _log_i_series(n: int, z: float) -> float:
    """log itilde_n by the ascending series; all terms positive."""
    if z == 0.0:
        return 0.0 if n == 0 else _NEG_INF
    x = 0.25 * z * z
    term = 1.0
    total = 1.0
    for j in range(1, 400):
        term *= x / (j * (n + j))
        total += term
        if term < 1e-18 * total:
            break
    return n * math.log(0.5 * z) - math.lgamma(n + 1.0) + math.log(total) - z


def _k01_series(z: float) -> tuple[float, float]:
    """ktilde_0, ktilde_1 by the integer-order log series; use for z <= 2."""
    x = 0.25 * z * z
    lhalf = math.log(0.5 * z)
    t0 = 1.0          # x^k/(k!)^2
    i0 = 1.0
    s0 = 0.0          # sum_k>=1 t0_k H_k
    t1 = 1.0          # x^k/(k!(k+1)!)
    sum1 = 1.0        # sum_k t1_k  ( = I_1/(z/2) )
    s1 = 1.0          # sum_k t1_k (H_k + H_{k+1}); k=0 term is 1
    hk = 0.0
    hk1 = 1.0
    for k in range(1, 80):
        t0 *= x / (k * k)
        hk += 1.0 / k
        i0 += t0
        s0 += t0 * hk
        t1 *= x / (k * (k + 1))
        hk1 += 1.0 / (k + 1)
        sum1 += t1
        s1 += t1 * (hk + hk1)
        if t0 < 1e-18 * i0 and t1 < 1e-18 * sum1:
            break
    i1 = 0.5 * z * sum1
    k0 = -(lhalf + _EULER_GAMMA) * i0 + s0
    k1 = 1.0 / z + (lhalf + _EULER_GAMMA) * i1 - 0.25 * z * s1
    ez = math.exp(z)
    return ez * k0, ez * k1


def _k01_continued_fraction(z: float) -> tuple[float, float]:
    """ktilde_0, ktilde_1 by Steed's CF2 at order 0; reliable for z >= 2."""
    eps = 1e-16
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 40000):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) <= eps:
            break
    h = a1 * h
    k0 = math.sqrt(math.pi / (2.0 * z)) / s
    k1 = k0 * (z + 0.5 - h) / z
    return k0, k1


def _log_k_seeds(lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln ktilde_0 and ln ktilde_1 of every lane.

    The Debye series serves all lanes with z >= _S_CUT at once; the log
    series (z <= 2) and Steed's fraction run lane by lane.
    """
    far = lanes >= _S_CUT
    lk0, lk1 = np.empty(lanes.size), np.empty(lanes.size)
    if far.any():
        lk0[far] = _debye_logs(0.0, lanes[far])[1]
        lk1[far] = _debye_logs(1.0, lanes[far])[1]
    for lane in np.flatnonzero(~far).tolist():
        z = float(lanes[lane])
        k0, k1 = _k01_series(z) if z <= 2.0 else _k01_continued_fraction(z)
        lk0[lane], lk1[lane] = math.log(k0), math.log(k1)
    return lk0, lk1


def _check_argument(z, positive: bool) -> float:
    if isinstance(z, bool) or not isinstance(z, (int, float, np.floating, np.integer)) \
            or not math.isfinite(z):
        raise DomainError(f"argument must be a finite real, got {z!r}")
    z = float(z)
    if z < 0.0 or (positive and z == 0.0):
        raise DomainError(f"argument must be {'> 0' if positive else '>= 0'}, got {z}")
    return z


def _check_order(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (Integral, np.integer)):
        raise DomainError(f"order must be an integer, got {n!r}")
    return abs(int(n))


def log_bessel_i_scaled(n: int, z: float) -> float:
    """ln(e^{-z} I_|n|(z)); -inf when the value is exactly 0 (z=0, n != 0)."""
    n = _check_order(n)
    z = _check_argument(z, positive=False)
    if z == 0.0:
        return 0.0 if n == 0 else _NEG_INF
    if math.hypot(n, z) >= _S_CUT:
        return _log_i_uniform(float(n), z)
    return _log_i_series(n, z)


def log_bessel_k_scaled(n: int, z: float) -> float:
    """ln(e^{+z} K_|n|(z))."""
    n = _check_order(n)
    z = _check_argument(z, positive=True)
    if math.hypot(n, z) >= _S_CUT:
        return _log_k_uniform(float(n), z)
    return float(log_k_scaled_table(z, n)[n])


def log_bessel_i_prime_scaled(n: int, z: float) -> float:
    """ln(e^{-z} I'_|n|(z)) via I'_n = (I_{n-1} + I_{n+1})/2."""
    n = _check_order(n)
    z = _check_argument(z, positive=False)
    a = log_bessel_i_scaled(abs(n - 1), z)
    b = log_bessel_i_scaled(n + 1, z)
    return float(np.logaddexp(a, b)) - _LOG2


def log_bessel_k_prime_scaled(n: int, z: float) -> float:
    """ln|e^{+z} K'_|n|(z)|; the value itself is always negative."""
    n = _check_order(n)
    z = _check_argument(z, positive=True)
    a = log_bessel_k_scaled(abs(n - 1), z)
    b = log_bessel_k_scaled(n + 1, z)
    return float(np.logaddexp(a, b)) - _LOG2


def _check_arguments(z, positive: bool) -> tuple[np.ndarray, bool]:
    """z as a 1-D float array of checked lanes, and whether z was a scalar."""
    if np.ndim(z) == 0:
        if isinstance(z, np.ndarray):
            z = z[()]
        return np.array([_check_argument(z, positive)]), True
    lanes = np.asarray(z)
    if lanes.ndim != 1 or lanes.dtype.kind not in "fiu":
        raise DomainError(f"arguments must be a 1-D array of reals, got {z!r}")
    lanes = lanes.astype(float)
    bad = ~np.isfinite(lanes) | (lanes < 0.0)
    if positive:
        bad |= lanes == 0.0
    if bad.any():
        raise DomainError(f"every argument must be finite and "
                          f"{'> 0' if positive else '>= 0'}, got {lanes[bad][0]}")
    return lanes, False


def _check_length(n_max) -> None:
    if isinstance(n_max, bool) or not isinstance(n_max, (Integral, np.integer)):
        raise DomainError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 0:
        raise DomainError("n_max must be >= 0")


def _cumulate(seed: np.ndarray, ratios: np.ndarray, scalar: bool) -> np.ndarray:
    """Rows ln f_0, ln f_0 + ln(f_1/f_0), ... from order-major ratio rows."""
    logs = np.empty((len(seed), ratios.shape[0] + 1))
    logs[:, 0] = seed
    with np.errstate(divide="ignore"):
        np.log(ratios.T, out=logs[:, 1:])
    np.cumsum(logs, axis=1, out=logs)
    return logs[0] if scalar else logs


def log_i_scaled_table(z, n_max: int) -> np.ndarray:
    """ln itilde_n(z) for n = 0..n_max; one row per argument of a 1-D z.

    Miller's recurrence in its ratio form: r_k = I_k/I_{k-1} =
    1/(2k/z + r_{k+1}) runs down from r = 0 past the top order, one numpy
    step per order across every argument, and the logs of the ratios are
    summed onto the directly evaluated order 0.  No ratio overflows, so no
    rescaling is needed.  Cost O(n_max + sqrt(max z)) steps.
    """
    lanes, scalar = _check_arguments(z, positive=False)
    _check_length(n_max)
    top = lanes.max(initial=0.0)
    start = int(math.ceil(math.sqrt((n_max + 12.0) ** 2 + 42.0 * top))) + 16
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.multiply.outer(2.0 * np.arange(start + 2), 1.0 / lanes)
    ratios[start + 1] = 0.0
    rows = list(ratios)
    for k in range(start, 0, -1):
        np.add(rows[k], rows[k + 1], out=rows[k])
        np.reciprocal(rows[k], out=rows[k])
    far = lanes >= _S_CUT      # the Debye series for all of them at once
    seed = np.empty(lanes.size)
    if far.any():
        seed[far] = _debye_logs(0.0, lanes[far])[0]
    for lane in np.flatnonzero(~far).tolist():
        seed[lane] = log_bessel_i_scaled(0, float(lanes[lane]))
    return _cumulate(seed, ratios[1:n_max + 1], scalar)


def log_k_scaled_table(z, n_max: int) -> np.ndarray:
    """ln ktilde_n(z) for n = 0..n_max; one row per argument of a 1-D z.

    Forward recurrence on rho_k = K_{k+1}/K_k = 1/rho_{k-1} + 2k/z from the
    K_0/K_1 seeds, one numpy step per order across every argument; the logs
    of the ratios are summed onto ln ktilde_0.
    """
    lanes, scalar = _check_arguments(z, positive=True)
    _check_length(n_max)
    lk0, lk1 = _log_k_seeds(lanes)
    ratios = np.multiply.outer(2.0 * np.arange(n_max), 1.0 / lanes)
    if n_max:
        ratios[0] = np.exp(lk1 - lk0)
    rows = list(ratios)
    inverse = np.empty(lanes.size)
    for k in range(1, n_max):
        np.reciprocal(rows[k - 1], out=inverse)
        np.add(rows[k], inverse, out=rows[k])
    return _cumulate(lk0, ratios, scalar)


def prime_logs(base: np.ndarray, n_max: int) -> np.ndarray:
    """ln((f_{|n-1|} + f_{n+1})/2) for n = 0..n_max from ln f_0..ln f_{n_max+1}.

    The derivative rule of I and K, ln|f'_n|, along the last axis of base.
    """
    lower = np.concatenate((base[..., 1:2], base[..., :n_max]), axis=-1)
    return np.logaddexp(lower, base[..., 1:n_max + 2]) - _LOG2


def log_i_prime_scaled_table(z, n_max: int) -> np.ndarray:
    """ln(e^{-z} I'_n(z)) for n = 0..n_max; one row per argument."""
    return prime_logs(log_i_scaled_table(z, n_max + 1), n_max)


def log_k_prime_scaled_table(z, n_max: int) -> np.ndarray:
    """ln|e^{+z} K'_n(z)| for n = 0..n_max (the values are negative)."""
    return prime_logs(log_k_scaled_table(z, n_max + 1), n_max)
