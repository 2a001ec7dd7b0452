"""Reference computations made apart from cantorscale.

Nothing here imports the package under test.  The inverse branches are
the closed-form roots of each preset; the scaling chain is repeated in
``mpmath`` at 50 significant digits; the metric change uses the
incomplete-beta form of its integral.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np
from scipy import special

MP_DPS = 50


# -- inverse branches --------------------------------------------------------
#
# A family is described by a plain tuple ``(kind, param)``:
#   ("quadratic", None), ("gamma_power", gamma), ("tent", None),
#   ("figure6", c)  (normalized to [-1, 1], eps = 0 only),
#   ("asym_quadratic", beta).
#
# Figure6 and AsymQuadratic are quadratics A u^2 + B u - C = 0 in u = x^2,
# solved by the cancellation-free root u = 2C / (B + sqrt(B^2 + 4AC)).


def _quartic_coeffs(kind, param, eps, side):
    if kind == "figure6":
        c = param
        return 8.0 * c, 2.0 - 8.0 * c, 1.0
    k = (2.0 + eps) * (1.0 + param if side == 0 else 1.0 - param)
    return 2.0 + eps - k, k, 1.0 + eps


def inverse(spec, eps, side, y):
    """Float64 preimage of ``y`` on side 0 ([-1, 0]) or side 1 ([0, 1])."""
    kind, param = spec
    y = np.asarray(y, dtype=float)
    top = np.maximum(1.0 + eps - y, 0.0)
    if kind == "quadratic":
        t = np.sqrt(top / (2.0 + eps))
    elif kind == "gamma_power":
        t = (top / (2.0 + eps)) ** (1.0 / param)
    elif kind == "tent":
        t = top / (2.0 + eps)
    else:
        a, b, shift = _quartic_coeffs(kind, param, eps, side)
        cc = np.maximum(shift - y, 0.0)
        t = np.sqrt(2.0 * cc / (b + np.sqrt(b * b + 4.0 * a * cc)))
    return -t if side == 0 else t


def mp_inverse(spec, eps, side, y):
    """The same preimage in mpmath at ``MP_DPS`` digits."""
    kind, param = spec
    eps = mpmath.mpf(eps)
    top = max(1 + eps - y, mpmath.mpf(0))
    if kind == "quadratic":
        t = mpmath.sqrt(top / (2 + eps))
    elif kind == "gamma_power":
        t = (top / (2 + eps)) ** (1 / mpmath.mpf(param))
    elif kind == "tent":
        t = top / (2 + eps)
    else:
        a, b, shift = (mpmath.mpf(v) for v in
                       _quartic_coeffs(kind, mpmath.mpf(param), eps, side))
        cc = max(shift - y, mpmath.mpf(0))
        t = mpmath.sqrt(2 * cc / (b + mpmath.sqrt(b * b + 4 * a * cc)))
    return -t if side == 0 else t


def partition_levels(spec, eps, depth):
    """Endpoint arrays of every level 0..depth, in the order of
    ``cantorscale.partition_levels``: level n+1 is g_0(level n) followed by
    g_1(level n), so a word's index reads its bits most significant first."""
    los, his = np.asarray([-1.0]), np.asarray([1.0])
    levels = []
    for _ in range(depth + 1):
        los, his = (np.concatenate([inverse(spec, eps, 0, los),
                                    inverse(spec, eps, 1, his)]),
                    np.concatenate([inverse(spec, eps, 0, his),
                                    inverse(spec, eps, 1, los)]))
        levels.append((los, his))
    return levels


# -- the metric change -------------------------------------------------------
#
# With t = (1+eps) sqrt(z) the metric integral becomes an incomplete beta
# integral, so h(x) = sign(x) I_z(1/2, 1/gamma) / I_z1(1/2, 1/gamma) with
# z = (x / (1+eps))^2 and z1 = (1+eps)^-2.


def b_const(gamma, eps):
    """2 / integral_{-1}^{1} ((1+eps)^2 - t^2)^(-(gamma-1)/gamma) dt."""
    r = 1.0 + eps
    a, b = 0.5, 1.0 / gamma
    return 2.0 / (r ** (1.0 - 2.0 * (gamma - 1.0) / gamma)
                  * special.beta(a, b) * special.betainc(a, b, 1.0 / r ** 2))


def h(gamma, eps, x):
    x = np.asarray(x, dtype=float)
    r = 1.0 + eps
    a, b = 0.5, 1.0 / gamma
    return (np.sign(x) * special.betainc(a, b, (x / r) ** 2)
            / special.betainc(a, b, 1.0 / r ** 2))


def h_prime(gamma, eps, x):
    return b_const(gamma, eps) * ((1.0 + eps) ** 2 - x * x) ** (-(gamma - 1.0)
                                                                / gamma)


def h_inv(gamma, eps, y):
    y = np.asarray(y, dtype=float)
    r = 1.0 + eps
    a, b = 0.5, 1.0 / gamma
    z = special.betaincinv(a, b, np.abs(y) * special.betainc(a, b, 1.0 / r ** 2))
    return np.sign(y) * r * np.sqrt(z)


def mp_h(gamma, eps, x):
    r = 1 + mpmath.mpf(eps)
    if gamma == 2.0:
        return mpmath.asin(x / r) / mpmath.asin(1 / r)
    a, b = mpmath.mpf(1) / 2, 1 / mpmath.mpf(gamma)
    top = mpmath.betainc(a, b, 0, (x / r) ** 2, regularized=True)
    return mpmath.sign(x) * top / mpmath.betainc(a, b, 0, 1 / r ** 2,
                                                 regularized=True)


# -- scaling ratios ----------------------------------------------------------


class Interval(NamedTuple):
    length: float    # in the metric when one is given
    lo: float        # endpoints in phase space
    hi: float


class Step(NamedTuple):
    ratio: float     # |J| / |K|
    j: Interval
    k: Interval


def mp_scaling_sequence(spec, eps, bits, gamma=None) -> list[Step]:
    """Child/parent length ratios along a dual point, at ``MP_DPS`` digits.

    ``bits`` are the coordinates i0, i1, ... of the dual point.  Entry k
    describes J = I_{i_k..i_0} inside K = I_{i_k..i_1}: its ratio is what
    the approximant chain reports after k steps.  With ``gamma`` the
    lengths are measured after the metric change h of that exponent.
    """
    with mpmath.workdps(MP_DPS):
        def image(side, lo, hi):
            a = mp_inverse(spec, eps, side, lo)
            b = mp_inverse(spec, eps, side, hi)
            return (a, b) if side == 0 else (b, a)

        def length(lo, hi):
            if gamma is None:
                return hi - lo
            return mp_h(gamma, eps, hi) - mp_h(gamma, eps, lo)

        def step():
            j_len, k_len = length(j_lo, j_hi), length(k_lo, k_hi)
            return Step(float(j_len / k_len),
                        Interval(float(j_len), float(j_lo), float(j_hi)),
                        Interval(float(k_len), float(k_lo), float(k_hi)))

        one = mpmath.mpf(1)
        k_lo, k_hi = -one, one
        j_lo, j_hi = image(bits[0], k_lo, k_hi)
        seq = [step()]
        for bit in bits[1:]:
            j_lo, j_hi = image(bit, j_lo, j_hi)
            k_lo, k_hi = image(bit, k_lo, k_hi)
            seq.append(step())
        return seq


# -- closed forms ------------------------------------------------------------


def moran_dimension(eps):
    """Tent map: two cylinders of ratio 1/(2+eps) give log 2 / log(2+eps)."""
    return math.log(2.0) / math.log(2.0 + eps)


def asymmetry(beta):
    """|I_{010_n}| / |I_{110_n}| -> sqrt(B/A) = sqrt((1-beta)/(1+beta))."""
    return math.sqrt((1.0 - beta) / (1.0 + beta))


def quadratic_a_value(text: str) -> Fraction:
    """Exact s_0 at the A point ``0^inf|<i_m..i_0>.`` of the eps = 0 quadratic.

    h = (2/pi) asin conjugates the quadratic to the tent map, whose
    cylinders are dyadic, and near -1 the distance x + 1 grows like
    (h(x) + 1)^2.  So |I_{0_n w i}| / |I_{0_n w}| tends to the ratio of
    the differences of squared (y + 1) over the tent cylinders I_{wi}, I_w.
    """
    suffix = [int(ch) for ch in reversed(text.split("|", 1)[1].rstrip("."))]
    while suffix and suffix[-1] == 0:
        suffix.pop()
    wi = tuple(reversed(suffix)) if suffix else (0,)

    def tent_cylinder(bits):
        lo, hi = Fraction(-1), Fraction(1)
        for bit in reversed(bits):
            a, b = ((lo - 1) / 2, (hi - 1) / 2) if bit == 0 else \
                ((1 - hi) / 2, (1 - lo) / 2)
            lo, hi = a, b
        return lo, hi

    (c_lo, c_hi), (p_lo, p_hi) = tent_cylinder(wi), tent_cylinder(wi[:-1])
    return (((c_hi + 1) ** 2 - (c_lo + 1) ** 2)
            / ((p_hi + 1) ** 2 - (p_lo + 1) ** 2))
