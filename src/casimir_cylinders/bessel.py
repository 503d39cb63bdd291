r"""Exponentially scaled modified Bessel functions of integer order, as tables.

The scattering matrix needs I_n and K_n over a huge span of orders and
arguments.  Everything here works with the scaled pair

    itilde_n(z) = e^{-z} I_n(z),        ktilde_n(z) = e^{+z} K_n(z),

whose product carries no exponential growth, and with their natural
logarithms, since even the scaled values leave the double range at large
order and small argument.  Each function returns ln f_n for n = 0..n_max,
one row per argument of a 1-D array (one lane for a single argument); every
argument of a call is a lane, and each step below is one numpy call across
all lanes.

Seeds.  K_0, K_1 and I_0 come from two integrals whose integrands are
analytic and decay double-exponentially,

    e^{z} K_nu(z) = \int_0^\infty e^{-2 z sinh^2(t/2)} cosh(nu t) dt,
    e^{-z} I_0(z) = (1/pi) \int_0^pi e^{-2 z sin^2(theta/2)} dtheta,

each summed by the trapezoid rule, which converges exponentially on such
integrands (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)); the I_0 rule
is the periodic one, with theta = pi on a node.  The step is at most
min(0.25, 0.3/sqrt z) and the rule stops where the exponent reaches 40,
so a seed is ~30 nodes for z >= 1 and at most ~95 (the K seeds at
z = 1e-8).  The exponents are written with sinh^2 and sin^2, since
cosh t - 1 and 1 - cos theta cancel where t ~ 1/sqrt z.

Orders.  Ratio recurrences run from the seeds:

* K forward on rho_k = K_{k+1}/K_k from K_1/K_0,
* I downward on Miller's ratio I_k/I_{k-1} (its continued-fraction form,
  Gautschi, SIAM Rev. 9, 24 (1967)), normalized by the seed at order 0.

The ratios stay in the double range, so nothing is rescaled, and the logs
of a table are the running sums of their logs.  Each log is split into a
multiple of 2^-20, whose running sums are exact, and a remainder below
2^-21, so the rounding of a table does not grow with its order; its first
entries do not depend on n_max.
"""
from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .errors import DomainError

_LOG2 = math.log(2.0)
# x + _ROUND - _ROUND rounds x to a multiple of 2^-20 for |x| < 2^31
_ROUND = 1.5 * 2.0 ** 32


def _trapezoid(z: np.ndarray, top: np.ndarray,
               half) -> tuple[np.ndarray, np.ndarray]:
    """Exponents e = 2 z half(x/2)^2 at m + 1 nodes x = top * k/m per lane,
    and the samples e^{-e}, those at the two ends halved.

    top/m times the sum of a lane's samples is the trapezoid rule on
    [0, top].  One m serves every lane, so each lane's step is at most
    min(0.25, 0.3/sqrt z).  e is squared from sqrt(2z) half(x/2), which
    stays finite where half(x/2)^2 alone overflows (K at z < 1e-307).
    """
    with np.errstate(divide="ignore"):
        step = np.minimum(0.25, 0.3 / np.sqrt(z))
    m = math.ceil((top / step).max(initial=1.0))
    root = np.sqrt(2.0 * z)[:, None] \
        * half(np.multiply.outer(0.5 * top / m, np.arange(m + 1.0)))
    exponents = root * root
    samples = np.exp(-exponents)
    samples[:, [0, -1]] *= 0.5
    return exponents, samples


def _k_seeds(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln ktilde_0 and K_1/K_0 of every lane (all z > 0)."""
    top = 2.0 * np.arcsinh(np.sqrt(20.0) / np.sqrt(z))
    exponents, samples = _trapezoid(z, top, np.sinh)
    k0 = samples.sum(axis=1)
    # 1 + e/z = 1 + 2 sinh^2(t/2) = cosh t
    k1 = (samples * (1.0 + exponents / z[:, None])).sum(axis=1)
    return np.log(top * k0 / (samples.shape[1] - 1)), k1 / k0


def _log_i0(z: np.ndarray) -> np.ndarray:
    """ln itilde_0 of every lane; exactly 0 at z = 0."""
    with np.errstate(divide="ignore"):
        top = 2.0 * np.arcsin(np.sqrt(np.minimum(1.0, 20.0 / z)))
    _, samples = _trapezoid(z, top, np.sin)
    mean = samples.sum(axis=1) / (samples.shape[1] - 1)
    return np.log(top / math.pi * mean)


def _check_arguments(z, positive: bool) -> np.ndarray:
    """z as a 1-D float array of checked lanes."""
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
    return lanes


def _check_length(n_max) -> None:
    if isinstance(n_max, bool) or not isinstance(n_max, (Integral, np.integer)):
        raise DomainError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 0:
        raise DomainError("n_max must be >= 0")


def _cumulate(seed: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """Rows ln f_0, ln f_0 + ln(f_1/f_0), ... from order-major ratio rows.

    Each log x (the seed's too) is split into hi, x rounded to a multiple of
    2^-20, and lo = x - hi: the running sums of hi are exact, and those of lo
    stay below 2^-21 per term.  A zero ratio (a z = 0 lane) has hi = -inf,
    which carries the -inf on; its lo is set to 0.
    """
    lo = np.empty((len(ratios) + 1, seed.size))
    lo[0] = seed
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(ratios, out=lo[1:])
        hi = lo + _ROUND
        hi -= _ROUND
        lo -= hi
    lo[np.isnan(lo)] = 0.0
    table = np.cumsum(hi, axis=0, out=hi)
    table += np.cumsum(lo, axis=0, out=lo)
    return table.T


def log_i_scaled_table(z, n_max: int) -> np.ndarray:
    """ln itilde_n(z) for n = 0..n_max; one row per argument of a 1-D z.

    Miller's recurrence in its ratio form: r_k = I_k/I_{k-1} =
    1/(2k/z + r_{k+1}) runs down from r = 0 past the top order, one numpy
    step per order across every argument, and the logs of the ratios are
    summed onto the trapezoid seed at order 0.  No ratio overflows, so no
    rescaling is needed.  Cost O(n_max + sqrt(max z)) steps.
    """
    lanes = _check_arguments(z, positive=False)
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
    return _cumulate(_log_i0(lanes), ratios[1:n_max + 1])


def log_k_scaled_table(z, n_max: int) -> np.ndarray:
    """ln ktilde_n(z) for n = 0..n_max; one row per argument of a 1-D z.

    Forward recurrence on rho_k = K_{k+1}/K_k = 1/rho_{k-1} + 2k/z from the
    trapezoid seeds, one numpy step per order across every argument; the
    logs of the ratios are summed onto ln ktilde_0.
    """
    lanes = _check_arguments(z, positive=True)
    _check_length(n_max)
    lk0, rho0 = _k_seeds(lanes)
    ratios = np.multiply.outer(2.0 * np.arange(n_max), 1.0 / lanes)
    if n_max:
        ratios[0] = rho0
    rows = list(ratios)
    inverse = np.empty(lanes.size)
    for k in range(1, n_max):
        np.reciprocal(rows[k - 1], out=inverse)
        np.add(rows[k], inverse, out=rows[k])
    return _cumulate(lk0, ratios)


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
