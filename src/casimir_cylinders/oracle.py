"""Gaussian-integral machinery behind the small-gap expansion.

Near contact the interaction energy reduces, order by order in the
reflection count s, to iterated Gaussian integrals over angular-momentum
offsets n_i and saddle displacements q_i.  This module carries both sides
of that reduction: the raw integrand polynomials, the closed forms the
analytic integration produces, and numeric Gauss-Hermite evaluations that
check one against the other.  It validates the derivation; the scattering
module remains the production path for energies.

Points may be batched: m, tau, eps and alpha of a `PerturbationPoint` may
be arrays of one shape, and every function here then returns one value per
entry, from one numpy pass over the batch.  A point of floats gives floats.

Conventions.  A perturbation point fixes (s, m, tau, eps, alpha) with
beta = alpha + 1.  The chain variables satisfy n_0 = n_{s+1} = 0.  A
scalar pair acts only through its two boundary letters
(`geometry.neumann`):

- where cylinder a is Neumann (NN, ND) the reflection polynomials are
  evaluated with n_i and n_{i+1} interchanged;
- the offset tau*(tau^2-1)/m enters f_frak, B^s and the NTLO bracket with
  weight kappa = [a is N] - [b is N]*alpha/beta: DD 0, NN 1/beta,
  DN -alpha/beta, ND 1;
- a mixed pair (letters differ) reflects with alternating signs.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import DomainError, NoConvergence
from .geometry import BoundaryPair, CylinderPair, Kind, integer, neumann
from .quadrature import _hermgauss

_GH_NODES = 12  # polynomial-exact through degree 23
_S_MAX = 3      # top order of the 12^s chain tensor rule
_NODE_BUDGET = 2 ** 13  # node-points per slice of a chain mean


@dataclass(frozen=True)
class PerturbationPoint:
    """One evaluation point of the reflection-order machinery, or a batch.

    m, tau, eps and alpha are each a float or an array; the arrays share
    one shape, one entry per point, and a float is shared by every point.
    s is one int for the whole batch.  Anything else, a bool included,
    raises DomainError.
    """

    s: int
    m: float | np.ndarray
    tau: float | np.ndarray
    eps: float | np.ndarray
    alpha: float | np.ndarray

    def __post_init__(self):
        if not (integer(self.s) and self.s >= 0):
            raise DomainError(
                f"s must be a nonnegative integer, got {self.s!r}")
        object.__setattr__(self, "s", int(self.s))
        shapes = set()
        for name in ("m", "tau", "eps", "alpha"):
            value = getattr(self, name)
            if np.ndim(value):
                value = np.array(value)
                if value.dtype.kind not in "fiu":
                    raise DomainError(
                        f"{name} must be a real array, got {value.dtype}")
                value = value.astype(float)
                value.setflags(write=False)
                object.__setattr__(self, name, value)
                shapes.add(value.shape)
            elif isinstance(value, bool) or not isinstance(value, Real):
                raise DomainError(
                    f"{name} must be a real number, got {value!r}")
        if len(shapes) > 1:
            raise DomainError("m, tau, eps and alpha arrays must share one "
                              f"shape, got {sorted(shapes)}")
        m, tau, eps, alpha = self.m, self.tau, self.eps, self.alpha
        if not np.all(np.isfinite(m) & (m > 0)):
            raise DomainError("m must be positive and finite")
        if not np.all((tau > 0) & (tau <= 1)):
            raise DomainError("tau must lie in (0, 1]")
        if not np.all(np.isfinite(eps) & (eps >= 0)):
            raise DomainError("eps must be nonnegative and finite")
        if not np.all(np.isfinite(alpha) & (alpha > 0)):
            raise DomainError("alpha must be positive and finite")

    @property
    def beta(self):
        return self.alpha + 1.0


# ---------------------------------------------------------------------------
# integrand polynomials at fixed (n_i, n_{i+1}, q_i)


def _a_poly(pt, n, n2, q):
    al, be, m, tau, eps = pt.alpha, pt.beta, pt.m, pt.tau, pt.eps
    return (tau ** 3 / m ** 2 * (al ** 3 * (al + 2) * q ** 3 / (3.0 * be ** 2)
                                 + al ** 2 * q ** 2 * (n + n2) / (2.0 * be)
                                 + al ** 2 * q * (n - n2) ** 2 / 4.0
                                 + be * (n + n2) * (n - n2) ** 2 / 8.0)
            - eps * tau * (2.0 * q + (n + n2) / al))


def _b_poly(pt, n, n2, q):
    al, be, m, tau, eps = pt.alpha, pt.beta, pt.m, pt.tau, pt.eps
    return (-tau ** 3 * (3.0 * tau ** 2 - 1.0) / m ** 3 * (
                al ** 4 * (al ** 2 + 3 * al + 3) * q ** 4 / (12.0 * be ** 3)
                + al ** 3 * (al + 2) * (n + n2) * q ** 3 / (6.0 * be ** 2)
                + al ** 2 * q ** 2 * ((al ** 2 + al) * (n - n2) ** 2
                                      + (n + n2) ** 2) / (8.0 * be)
                + al ** 2 * q * (n + n2) * (n - n2) ** 2 / 8.0
                + be / 192.0 * (n - n2) ** 2 * ((al ** 2 - al) * (n - n2) ** 2
                                                + 7 * n ** 2 + 10 * n * n2
                                                + 7 * n2 ** 2))
            - eps * tau * (1.0 - tau ** 2) / m * (
                al * q ** 2 + q * (n + n2)
                + (al ** 2 * (n - n2) ** 2 + (n + n2) ** 2) / (4.0 * al))
            - eps ** 2 * m * tau / al)


def _c_poly_dd(pt, n, n2, q):
    return -pt.tau ** 2 / pt.m * (pt.alpha * q + n2)


def _d_poly_dd(pt, n, n2, q):
    al, m, tau, eps = pt.alpha, pt.m, pt.tau, pt.eps
    return (eps * (1.0 - tau ** 2)
            + al ** 2 * q ** 2 * tau ** 2 * (3.0 * tau ** 2 - 1.0) / (2.0 * m ** 2)
            - al * q * tau ** 2 / (2.0 * m ** 2) * ((n + n2)
                                                    - 2.0 * tau ** 2 * (n + 2 * n2))
            - tau ** 2 / (8.0 * m ** 2) * (
                al ** 2 * (1.0 - 2.0 * tau ** 2) * (n - n2) ** 2
                + 2.0 * tau ** 2 * (n ** 2 - 2 * n * n2 - 5 * n2 ** 2)
                - n ** 2 + 2 * n * n2 + 3 * n2 ** 2))


def _kappa(bc: BoundaryPair, al, be):
    """Weight of the letters' offset tau*(tau^2-1)/m, [a is N] - [b is N]
    * alpha/beta; one quotient over beta keeps DD, DN and ND exact."""
    a_n, b_n = neumann(bc)
    return (a_n * be - b_n * al) / be


def f_frak(bc: BoundaryPair, pt: PerturbationPoint):
    """The n-independent order-eps piece.  Beyond the n-swap, the letters
    act only here, through the offset weight kappa."""
    al, be, m, tau = pt.alpha, pt.beta, pt.m, pt.tau
    return (-(1.0 + al + al ** 2) * tau * (5.0 * tau ** 2 - 3.0) / (12.0 * m * be)
            + _kappa(bc, al, be) * tau * (tau ** 2 - 1.0) / m)


def _swap_args(bc, n_i, n_ip1):
    """(n_i, n_{i+1}), interchanged where cylinder a is Neumann."""
    return (n_ip1, n_i) if neumann(bc)[0] else (n_i, n_ip1)


def g_frak(bc: BoundaryPair, pt: PerturbationPoint, n_i, n_ip1, q_i):
    """Order sqrt(eps) integrand polynomial."""
    ca, cb = _swap_args(bc, n_i, n_ip1)
    # the exponent pieces are symmetric in (n_i, n_{i+1}); only the
    # reflection-coefficient pieces feel the swap
    return _a_poly(pt, n_i, n_ip1, q_i) + _c_poly_dd(pt, ca, cb, q_i)


def h_frak(bc: BoundaryPair, pt: PerturbationPoint, n_i, n_ip1, q_i):
    """Order eps integrand polynomial."""
    ca, cb = _swap_args(bc, n_i, n_ip1)
    a = _a_poly(pt, n_i, n_ip1, q_i)
    c = _c_poly_dd(pt, ca, cb, q_i)
    return (a * a / 2.0 + a * c
            + _b_poly(pt, n_i, n_ip1, q_i)
            + _d_poly_dd(pt, ca, cb, q_i)
            + f_frak(bc, pt))


# ---------------------------------------------------------------------------
# closed forms after the q-integration


def g_hat_closed(bc: BoundaryPair, pt: PerturbationPoint, n_i, n_ip1):
    """The closed order-sqrt(eps) q-average, in D = n - n' and S = n + n'
    (after the n-swap): D tau^2/(2m) + S (c_S + c_SDD D^2)."""
    n, n2 = _swap_args(bc, n_i, n_ip1)
    al, be, m, tau, eps = pt.alpha, pt.beta, pt.m, pt.tau, pt.eps
    t2 = tau * tau
    c_s = -t2 / (4.0 * m) - eps * tau / al
    c_sdd = be * t2 * tau / (8.0 * m * m)
    d = n - n2
    return t2 / (2.0 * m) * d + (n + n2) * (c_s + c_sdd * (d * d))


def k_frak_closed(bc: BoundaryPair, pt: PerturbationPoint, n_i, n_ip1):
    """The n-dependent part of the closed order-eps q-average.

    Its 15 monomials in eps, D = n - n' and S = n + n' (after the n-swap)
    fold, once per call on the point fields, into eight per-point
    coefficients of 1, S^2, D S, D^2, D^3 S, D^2 S^2, D^4 and D^4 S^2, the
    eps and eps^2 terms included.  The node arrays then see only Horner
    in D^2, about 19 operations on arrays of their size.
    """
    n, n2 = _swap_args(bc, n_i, n_ip1)
    al, be, m, tau, eps = pt.alpha, pt.beta, pt.m, pt.tau, pt.eps
    t2 = tau * tau
    t3 = t2 * tau
    m2 = m * m
    m3 = m2 * m
    e_al = eps / al
    c_1 = (tau * ((20.0 * t2 - 9.0) * al ** 2 + (29.0 * t2 - 15.0) * al
                  + 5.0 * t2 - 3.0) / (48.0 * m * be)
           + e_al * (al + t2 - 1.0) / 2.0 + e_al * e_al * m * tau)
    c_ss = (t2 * (5.0 * t2 - 2.0) / (32.0 * m2)
            + e_al * tau * (2.0 * t2 - 1.0) / (4.0 * m)
            + e_al * e_al * t2 / 2.0)
    c_ds = -t2 * (5.0 * t2 - 2.0) / (8.0 * m2) - e_al * t3 / (2.0 * m)
    c_dd = (-t2 * (al ** 2 - al + (3.0 * al - 2.0) * t2) / (16.0 * m2)
            - eps * tau * (al + t2) / (4.0 * m))
    c_ddds = be * t3 * t2 / (16.0 * m3)
    c_ddss = (-be * t3 * (4.0 * t2 - 1.0) / (32.0 * m3)
              - e_al * be * t2 * t2 / (8.0 * m2))
    c_dddd = (be * t3 * (al ** 2 - al + 1.0 + 3.0 * (al - 1.0) * t2)
              / (192.0 * m3))
    c_ddddss = be * be * t3 * t3 / (128.0 * m3 * m)
    d = n - n2
    s = n + n2
    d2, s2 = d * d, s * s
    return (c_1 + c_ss * s2 + d * s * (c_ds + c_ddds * d2)
            + d2 * (c_dd + c_ddss * s2 + d2 * (c_dddd + c_ddddss * s2)))


def h_hat_closed(bc: BoundaryPair, pt: PerturbationPoint, n_i, n_ip1):
    return k_frak_closed(bc, pt, n_i, n_ip1) + f_frak(bc, pt)


def q_integral_rate(pt: PerturbationPoint):
    """Gaussian decay rate of the q-integration weight."""
    return pt.alpha ** 2 * pt.tau / (pt.m * pt.beta)


def _point_value(value):
    """A Python float for one point, the array of values for a batch."""
    return float(value) if np.ndim(value) == 0 else value


def _gauss_mean(f, lam):
    """Mean of f over the normalized Gaussian weight exp(-lam x^2), for
    each entry of lam, by the 12-node Gauss-Hermite rule.

    f is called once, on the 12 nodes along a new leading axis, so the
    fields of a batched point broadcast against them unchanged.
    """
    x, w = _hermgauss(_GH_NODES)
    lam = np.asarray(lam)
    batch = (1,) * lam.ndim
    r = 1.0 / np.sqrt(lam)
    values = w.reshape(w.shape + batch) * f(x.reshape(x.shape + batch) * r)
    return _point_value(np.sqrt(lam / math.pi) * (r * np.sum(values, axis=0)))


def g_hat_numeric(bc: BoundaryPair, pt: PerturbationPoint, n_i, n_ip1):
    """Normalized Gauss-Hermite q-average of g_frak."""
    return _gauss_mean(lambda q: g_frak(bc, pt, n_i, n_ip1, q),
                       q_integral_rate(pt))


def h_hat_numeric(bc: BoundaryPair, pt: PerturbationPoint, n_i, n_ip1):
    """Normalized Gauss-Hermite q-average of h_frak."""
    return _gauss_mean(lambda q: h_frak(bc, pt, n_i, n_ip1, q),
                       q_integral_rate(pt))


# ---------------------------------------------------------------------------
# chain quadratic form and its telescoped rewritings


def chain_square_sum(n):
    """sum_i (n_i - n_{i+1})^2 over the chain with n_0 = n_{s+1} = 0."""
    full = [0, *n, 0]
    return sum((full[i] - full[i + 1]) ** 2 for i in range(len(full) - 1))


def chain_square_forward(n):
    """Telescoped form suited to integrating n_1 -> n_2 -> ... -> n_s."""
    s = len(n)
    full = [0, *n, 0]
    total = 0.0
    for k in range(1, s + 1):
        total += (k + 1) / k * (full[k] - k / (k + 1) * full[k + 1]) ** 2
    return total


def chain_square_backward(n):
    """Telescoped form suited to integrating n_s -> n_{s-1} -> ... -> n_1."""
    s = len(n)
    full = [0, *n, 0]
    total = 0
    for k in range(1, s + 1):
        lam = (k + 1) / k
        total += lam * (full[s + 1 - k] - k / (k + 1) * full[s - k]) ** 2
    return total


# ---------------------------------------------------------------------------
# the order-eps coefficient B^s: closed form and nested-Gaussian oracle


def b_s_closed(bc: BoundaryPair, pt: PerturbationPoint):
    al, be, m, tau, eps = pt.alpha, pt.beta, pt.m, pt.tau, pt.eps
    k = pt.s + 1.0
    value = (eps ** 2 * m * tau * k * (k ** 2 + 3.0 * al + 2.0) / (3.0 * al ** 2 * be)
             + eps / (6.0 * al * be) * ((k ** 2 + 3.0 * al + 2.0) * tau ** 2
                                        + (-2.0 * k ** 2 + 3.0 * al ** 2 - 1.0))
             + tau * ((-7.0 * k ** 2 + 3.0 * al + 2.0) * tau ** 2
                      + 4.0 * k ** 2 + al ** 2 - al - 1.0) / (16.0 * be * m * k))
    return value + _kappa(bc, al, be) * k * tau * (tau ** 2 - 1.0) / m


@lru_cache(maxsize=_S_MAX + 1)
def _chain_rule(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The 12^s-node Gauss-Hermite tensor rule of the n-chain at c = 1.

    Whitens the tridiagonal quadratic form n^T A n (A = tridiag(-1,2,-1))
    by n = L^{-T} y, turning the weight into exp(-|y|^2).  Returns
    (n_full, weights), read-only: n_full of shape (s+2, 12^s) with the
    clamped n_0 = n_{s+1} = 0 rows, weights normalized to sum to 1.
    """
    x, w = _hermgauss(_GH_NODES)
    index = np.indices((_GH_NODES,) * s).reshape(s, _GH_NODES ** s)
    a_mat = 2.0 * np.eye(s) - np.eye(s, k=1) - np.eye(s, k=-1)
    n_inner = np.linalg.solve(np.linalg.cholesky(a_mat).T, x[index])
    zeros = np.zeros((1, n_inner.shape[1]))
    n_full = np.vstack([zeros, n_inner, zeros])
    weights = np.prod(w[index], axis=0) * math.pi ** (-s / 2.0)
    n_full.setflags(write=False)
    weights.setflags(write=False)
    return n_full, weights


def _chain_mean(pt: PerturbationPoint, links):
    """Mean of links(n) over the normalized chain weight
    exp(-c sum_i (n_i - n_{i+1})^2), c = beta tau/(4m), for each point.

    links maps chain rows n, of shape (s+2, nodes, *batch) with the clamped
    n_0 = n_{s+1} = 0 rows included, to one value per node and point; the
    rule is exact for polynomial links of degree up to 23 in each whitened
    variable.  The nodes go to links in slices of at most _NODE_BUDGET
    = 2^13 node-points (nodes times points), so each float array of a
    slice holds 64 KB; a scalar point's rule at the top order is one slice,
    and 27 points at s = 3 take 6.
    """
    if pt.s > _S_MAX:
        raise DomainError(
            f"nested n-integration supported for s in 0..{_S_MAX}")
    n_full, weights = _chain_rule(pt.s)
    root_c = np.sqrt(pt.beta * pt.tau / (4.0 * pt.m))
    step = max(1, _NODE_BUDGET // max(1, np.size(root_c)))
    total = 0.0
    for k in range(0, weights.size, step):
        n = n_full[:, k:k + step]
        n = n.reshape(n.shape + (1,) * np.ndim(root_c)) / root_c
        total = total + np.tensordot(weights[k:k + step], links(n), axes=1)
    return _point_value(total)


def b_s_chain_numeric(bc: BoundaryPair, pt: PerturbationPoint):
    """B^s less its s+1 offset terms f_frak, by nested Gauss-Hermite.

    This is the chain mean of the k_frak links and the g_hat products; bc
    enters it only through the n-swap, so pairs of one swap (DD and DN, NN
    and ND) share it.
    """
    def links(n):
        ends = [(n[i], n[i + 1]) for i in range(pt.s + 1)]
        k = [k_frak_closed(bc, pt, *end) for end in ends]
        g = [g_hat_closed(bc, pt, *end) for end in ends]
        return sum((gi * gj for gi, gj in itertools.combinations(g, 2)),
                   sum(k))
    return _chain_mean(pt, links)


def b_s_numeric(bc: BoundaryPair, pt: PerturbationPoint):
    """Nested Gauss-Hermite evaluation of B^s straight from the closed
    q-averages, bypassing the analytic n-integration it validates.

    The offset f_frak does not depend on n and the chain weights sum to 1,
    so its s+1 copies are added outside the chain mean.
    """
    return (pt.s + 1) * f_frak(bc, pt) + b_s_chain_numeric(bc, pt)


def i_term_numeric(bc: BoundaryPair, pt: PerturbationPoint, i: int):
    """Single chain-average <Hhat_i>, uniform in i (endpoints included)."""
    if not (integer(i) and 0 <= i <= pt.s):
        raise DomainError("term index must satisfy 0 <= i <= s")
    return _chain_mean(pt, lambda n: h_hat_closed(bc, pt, n[i], n[i + 1]))


def i_endpoint_numeric(bc: BoundaryPair, pt: PerturbationPoint, i: int):
    """<Hhat_i> for i = 0 or i = s via the telescoped one-variable route.

    The telescoped rewritings reduce the chain weight to a single Gaussian
    in the one surviving variable with rate c*(s+1)/s; every other chain
    integration contributes an n-independent constant that cancels against
    the normalization.
    """
    s = pt.s
    if not (integer(i) and i in (0, s)):
        raise DomainError("reduced route applies to the chain endpoints only")
    if s == 0:
        return _point_value(h_hat_closed(bc, pt, 0.0, 0.0))
    c = pt.beta * pt.tau / (4.0 * pt.m)
    lam = c * (s + 1.0) / s
    if i == 0:
        f = lambda x: h_hat_closed(bc, pt, 0.0, x)
    else:
        f = lambda x: h_hat_closed(bc, pt, x, 0.0)
    return _gauss_mean(f, lam)


# ---------------------------------------------------------------------------
# zeta-type reflection sums


def _power_tail(p: float, k_start: int, alternating: bool) -> float:
    """sum_{k >= k_start} k^{-p}, plain (Euler-Maclaurin) or with (-1)^k
    (sign of the k_start term positive; 32 terms summed directly, the rest
    by Euler-Boole)."""
    if not alternating:
        k = float(k_start)
        return (k ** (1.0 - p) / (p - 1.0) + 0.5 * k ** -p
                + p / 12.0 * k ** (-p - 1.0)
                - p * (p + 1.0) * (p + 2.0) / 720.0 * k ** (-p - 3.0))
    ks = k_start + 2.0 * np.arange(16)
    direct = float(np.sum((ks ** -p - (ks + 1.0) ** -p)[::-1]))
    # sum_{j >= 0} (-1)^j f(x + j) = (1 + e^D)^{-1} f
    #   = f/2 - f'/4 + f'''/48 - f^(5)/480 + 17 f^(7)/80640 - ...,
    # and the n-th derivative of x^-p is (-1)^n p (p+1)...(p+n-1) x^(-p-n)
    x = float(k_start + 32)
    p3 = p * (p + 1.0) * (p + 2.0)
    p5 = p3 * (p + 3.0) * (p + 4.0)
    p7 = p5 * (p + 5.0) * (p + 6.0)
    return direct + x ** -p * (0.5 + p / (4.0 * x) - p3 / (48.0 * x ** 3)
                               + p5 / (480.0 * x ** 5)
                               - 17.0 * p7 / (80640.0 * x ** 7))


def e0_coefficient_check(chi: int) -> float:
    """Rebuild the leading-order reflection sum numerically.

    Per order s the radial integral int m^{3/2} e^{-(s+1)m} dm is evaluated
    by quadrature (substituting m = t^2 makes the integrand a polynomial
    against a Gaussian weight, so Gauss-Hermite is exact) and normalized by
    Gamma(5/2), leaving (s+1)^{-5/2}; with the (s+1)^{-3/2} prefactor the
    sum must converge to pi^4/90 (chi = 0, like-sign reflections) or
    7 pi^4/720 (chi = 1, alternating).
    """
    if not (integer(chi) and chi in (0, 1)):
        raise DomainError("chi must be 0 or 1")
    gamma_52 = math.gamma(2.5)
    s_cut = 50
    rate = np.arange(1.0, s_cut + 1.0)
    radial = np.sqrt(math.pi / rate) * _gauss_mean(lambda t: t ** 4, rate)
    total = 0.0
    for s, term in enumerate((radial / gamma_52 * rate ** -1.5).tolist()):
        total += term if chi == 0 else (-1.0) ** s * term
    total += _power_tail(4.0, s_cut + 1, alternating=bool(chi))
    return total


def _bracket_tail_pair(f_hi, f_lo, k_hi: int):
    """Exact 2-term tail model A k^-4 + B k^-2 fitted at k_hi-1, k_hi."""
    k1, k2 = float(k_hi - 1), float(k_hi)
    b_coef = (f_hi * k2 ** 4 - f_lo * k1 ** 4) / (k2 ** 2 - k1 ** 2)
    a_coef = f_lo * k1 ** 4 - b_coef * k1 ** 2
    return a_coef, b_coef


def _shell_terms(k: np.ndarray, al: float, be: float, epsv: float,
                 kappa: float) -> np.ndarray:
    """k^{-3/2} times the radial and tau integrals of the order-eps term of
    reflection shell k = s + 1.

    The radial integral against exp(-c m), c = 2 k eps/(alpha tau), gives
    Gamma functions over powers of c; with r = alpha/(2 k eps) each power
    c^{-j-1/2} tau^{-5/2} leaves a quadratic in tau, so the tau-integral
    over [0, 1] is closed: tau^2 -> 1/3, 1 -> 1.
    """
    r = al / (2.0 * k * epsv)
    u = k * (k ** 2 + 3.0 * al + 2.0) / (3.0 * al ** 2 * be)
    v = ((k ** 2 + 3.0 * al + 2.0) / 3.0
         + (-2.0 * k ** 2 + 3.0 * al ** 2 - 1.0)) / (6.0 * al * be)
    w = (((-7.0 * k ** 2 + 3.0 * al + 2.0) / 3.0
          + 4.0 * k ** 2 + al ** 2 - al - 1.0) / (16.0 * be * k)
         - 2.0 * kappa * k / 3.0)
    return k ** -1.5 * (epsv ** 2 * math.gamma(3.5) * r ** 3.5 * u / 3.0
                        + epsv * math.gamma(2.5) * r ** 2.5 * v
                        + math.gamma(1.5) * r ** 1.5 * w)


def e1_from_b(pair: CylinderPair, bc: BoundaryPair) -> float:
    """NTLO energy bracket theta_1 rebuilt from the B^s closed forms.

    Performs the radial and tau integrals in closed form (`_shell_terms`)
    and the reflection sum to s_max = 200 with an exact-structure tail fit,
    then divides by the leading term and the gap.
    """
    if pair.kind is not Kind.INTERIOR:
        raise DomainError("the reflection expansion here is interior-only")
    a_n, b_n = neumann(bc)
    alternating = a_n != b_n
    gap = pair.b - pair.a
    al, be, epsv = pair.a / gap, pair.b / gap, pair.d / gap

    s_max = 200
    shells = _shell_terms(np.arange(1.0, s_max + 2.0), al, be, epsv,
                          _kappa(bc, al, be)).tolist()
    signs = np.array([(-1.0) ** (s + 1) for s in range(s_max + 1)]) \
        if alternating else np.ones(s_max + 1)
    partial = float(signs @ shells)

    a_fit, b_fit = _bracket_tail_pair(shells[s_max], shells[s_max - 1],
                                      s_max + 1)
    a_alt, b_alt = _bracket_tail_pair(shells[s_max - 2], shells[s_max - 3],
                                      s_max - 1)
    k_next = s_max + 2
    sign_lead = (-1.0) ** k_next if alternating else 1.0
    tail = sign_lead * (a_fit * _power_tail(4.0, k_next, alternating)
                        + b_fit * _power_tail(2.0, k_next, alternating))
    tail_alt = sign_lead * (a_alt * _power_tail(4.0, k_next, alternating)
                            + b_alt * _power_tail(2.0, k_next, alternating))
    e1_sum = partial + tail
    if abs(tail - tail_alt) > 1e-8 * abs(e1_sum):
        raise NoConvergence("reflection-sum tail estimate above 1e-8 of sum")

    e1 = -math.sqrt(be) / (4.0 * math.pi ** 1.5 * pair.a ** 2) * e1_sum

    zeta_partial = float(np.sum(signs * np.array(
        [(s + 1.0) ** -4 for s in range(s_max + 1)])))
    zeta_chi = zeta_partial + sign_lead * _power_tail(4.0, k_next, alternating)
    e0 = (-3.0 * al ** 2.5 * math.sqrt(be)
          / (64.0 * math.sqrt(2.0) * math.pi * pair.a ** 2 * epsv ** 2.5)
          * zeta_chi)
    return e1 / (e0 * pair.d)
