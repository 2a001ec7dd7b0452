"""The singular/smooth change of metric and the conjugate map.

For a family with critical exponent gamma the coordinate change is

    h(x) = b * integral_0^x dt / ((1+eps)^2 - t^2)^((gamma-1)/gamma)

with b normalizing h(1) = 1.  With r = 1 + eps, c = 1/gamma, p = 1 - c and
the incomplete beta integral F(s) = integral_0^s (1 - u^2)^(-p) du,

    h(x) = sign(x) F(|x|/r) / F(1/r),   b = 1 / (r^(2c - 1) F(1/r)).

F comes from two hypergeometric series (DLMF 8.17), split at z = s^2 = 1/2
so that the term ratio of each stays below 1/2 on its half (56 terms):

    inner, z <= 1/2:      F(s) = s sum_n (p)_n / (n! (2n + 1)) z^n,
    outer, w = 1 - z:     F(s) = F(1) - w^c sum_n (1/2)_n / (2 n! (c + n)) w^n.

The outer half takes w as (r - |x|)(r + |x|)/r^2, exact next to the reach
+-r, which keeps short h-images there accurate; F(1/r) takes its
w = (r - 1)(r + 1)/r^2 the same way, so no 1 - r^-2 cancels as eps -> 0.
The leading outer term gamma/2 w^c is summed as gamma/2 (1 + expm1(c log w)),
which keeps F(1) - gamma/2 free of cancellation at large gamma.  h^{-1}
solves F(s) = |y| F(1/r) for s on the inner half and for e = w^c - 1 on the
outer one, where the slope (gamma/2)(1 - w)^(-1/2) of F(1) - F in e is
nearly constant: a first guess interpolated from a per-gamma table, then one
Halley step with F' and F'' in closed form.  For gamma = 2 everything
reduces to arcsin and that closed form is used directly.  The computation
imports no scipy module.

Under h the map becomes ``f~ = h o f o h^{-1}``; for the quadratic family
at eps = 0 this is exactly the slope-2 tent map.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .families import MapFamily
from .scaling import scale_at
from .symbolic import DualPoint


def __getattr__(name: str):
    # perfbench/tracing.py still wraps `metric.quad` by name; ROADMAP item 1
    # drops that entry, and this hook goes with it.  It is the only scipy
    # reference left in the package, and it imports scipy only on request.
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_TERMS = 56      # each series' term ratio is at most 1/2 on its half
_NODES = 513     # first-guess nodes of h^{-1} inside (about twice outside)
_BLOCK = 4096    # points a block of terms: bounds the (points, terms) buffer


class _Beta:
    """F(s) = int_0^s (1 - u^2)^(-p) du and its inverse for one gamma.

    Built once per gamma by ``_beta``; see the module docstring.
    """

    def __init__(self, gamma: float):
        c = 1.0 / gamma
        self.gamma, self.c, self.p, self.g0 = gamma, c, 1.0 - c, 0.5 * gamma
        n = np.arange(1.0, _TERMS)
        # term ratios, leading coefficient first.  The outer row starts at
        # g_1: the leading term g_0 w^c is summed apart, as g_0 (1 + expm1)
        self.ratios = np.empty((2, _TERMS))
        self.ratios[:, 0] = 1.0, 0.25 / (c + 1.0)
        self.ratios[0, 1:] = ((self.p + n - 1.0) / n
                              * (2.0 * n - 1.0) / (2.0 * n + 1.0))
        self.ratios[1, 1:] = (n + 0.5) / (n + 1.0) * (c + n) / (c + n + 1.0)
        # both series where they meet, z = w = 1/2, where the powers are exact
        terms = np.cumprod(self.ratios, axis=1) * 0.5 ** np.arange(_TERMS)
        self.f_half = math.sqrt(0.5) * math.fsum(terms[0])
        # F(1) - g_0, free of the cancellation of F(1) against g_0 w^c
        self.f_top = math.fsum([self.f_half,
                                self.g0 * math.expm1(c * math.log(0.5)),
                                0.5 ** c * 0.5 * math.fsum(terms[1])])
        # first guesses of h^{-1}: F(s_k) on the inner half and
        # F(1) - g_0 - F = g_0 e + (1 + e) w S(w) at e = w^c - 1 on the outer
        # one.  At large gamma e bends within 1/gamma of its top, so the outer
        # nodes are even in w down to w_1 and even in e below e_1
        s = np.linspace(0.0, math.sqrt(0.5), _NODES)
        e = np.expm1(c * np.log(np.linspace(0.0, 0.5, _NODES)[1:]))
        e = np.concatenate(
            [np.linspace(-1.0, e[0], _NODES, endpoint=False), e])
        w = self.power(e)
        self.inner = s * self.series(s * s, np.zeros(s.size, dtype=bool)), s
        self.outer = (self.g0 * e + (1.0 + e) * w
                      * self.series(w, np.ones(e.size, dtype=bool)), e)
        # shared by every MetricChange of this gamma through the cache
        for a in (self.ratios, *self.inner, *self.outer):
            a.flags.writeable = False

    def power(self, e):
        """w = (1 + e)^gamma, to a few ulps even where gamma e is not small."""
        with np.errstate(divide="ignore"):   # e = -1 at the reach: w = 0
            return np.exp(self.gamma * np.log1p(e))

    def series(self, t: np.ndarray, outer: np.ndarray) -> np.ndarray:
        """The inner or outer series at each t of a flat array.

        The terms are one cumulative product of ratio times t, summed along
        their contiguous axis, so a point's value does not depend on the
        points evaluated with it.
        """
        if t.size > _BLOCK:
            return np.concatenate([
                self.series(t[k:k + _BLOCK], outer[k:k + _BLOCK])
                for k in range(0, t.size, _BLOCK)])
        terms = self.ratios[outer.view(np.int8)]
        terms[:, 1:] *= t[:, None]
        np.cumprod(terms, axis=1, out=terms)
        return terms.sum(axis=1)

    def mass(self, ax, reach: float):
        """F(|x| / r) for 0 <= |x| <= r, by the series of the half it is on."""
        shape, ax = np.shape(ax), np.ravel(ax)
        s = ax / reach
        z = s * s
        outer = z > 0.5
        # w = 1 - z from reach - |x|, which is exact next to the reach
        t = np.where(outer, (reach - ax) * (reach + ax) / reach ** 2, z)
        with np.errstate(divide="ignore"):   # w = 0 at the reach: w^c - 1 = -1
            e = np.expm1(self.c * np.log(t))
        sums = self.series(t, outer)
        mass = np.where(outer, self.f_top - self.g0 * e - (1.0 + e) * t * sums,
                        s * sums)
        return mass.reshape(shape)

    def root(self, d):
        """The s in [0, 1] with F(s) = d, for a flat array d in [0, F(1)].

        The unknown u is s on the inner half and e = w^c - 1 on the outer
        one, where F(1) - F has the slope (gamma/2) (1 - w)^(-1/2) in e and
        e keeps its relative precision as w^c -> 1 at large gamma.  One
        Halley step from the interpolated first guess reaches binary64.
        """
        g, p = self.gamma, self.p
        outer = d > self.f_half
        target = np.where(outer, self.f_top - d, d)
        u = np.where(outer, np.interp(target, *self.outer),
                     np.interp(target, *self.inner))
        e = np.minimum(u, 0.0)   # the outer unknown; 0 at inner points
        t = np.where(outer, self.power(e), u * u)
        sums = self.series(t, outer)
        value = np.where(outer, self.g0 * u + (1.0 + u) * t * sums, u * sums)
        # the Newton step over 1 - step f'' / (2 f'); f'' / (2 f') is
        # gamma/4 (1 + e)^(gamma-1) / (1 - w) outside, p s / (1 - s^2) inside
        step = (value - target) * np.where(outer, np.sqrt(1.0 - t) / self.g0,
                                           (1.0 - t) ** p)
        step /= 1.0 - step * np.where(outer, 0.25 * g * (1.0 + e) ** (g - 1.0),
                                      p * u) / (1.0 - t)
        # e = -1 is the reach itself, s = 0 the centre
        u = np.maximum(u - step, np.where(outer, -1.0, 0.0))
        w = self.power(np.minimum(u, 0.0))
        return np.where(outer, np.sqrt(1.0 - w), u)


@functools.lru_cache(maxsize=32)
def _beta(gamma: float) -> _Beta:
    return _Beta(gamma)


class MetricChange:
    """The coordinate change h for one (gamma, eps), with h', h^{-1}.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, gamma: float, eps: float = 0.0):
        if not 1.0 < gamma < math.inf:
            raise DomainError("metric change requires a finite gamma > 1")
        if not 0.0 <= eps < math.inf:
            raise DomainError(f"eps must be finite and >= 0, got {eps}")
        self.gamma = float(gamma)
        self.eps = float(eps)
        self._p = (gamma - 1.0) / gamma
        self._is_arcsin = abs(gamma - 2.0) < 1e-14
        if self._is_arcsin:
            self._asin_scale = math.asin(1.0 / (1.0 + eps))
            self.b = 1.0 / self._asin_scale
        else:
            self._beta = _beta(self.gamma)
            # F(1/r) along the path of x = 1, so that h(1) = 1 exactly
            self._f_reach = float(self._beta.mass(1.0, 1.0 + self.eps))
            self.b = 1.0 / ((1.0 + self.eps) ** (2.0 / self.gamma - 1.0)
                            * self._f_reach)

    def _within_reach(self, x) -> np.ndarray:
        """x as a new float array clipped into [-(1 + eps), 1 + eps], refused
        beyond 1e-12 outside it."""
        x_arr = np.asarray(x, dtype=float)
        reach = 1.0 + self.eps
        # fmin/fmax skip NaN, which passes through; the initial values let
        # an empty array pass
        bound = reach + 1e-12
        if (np.fmin.reduce(x_arr, axis=None, initial=np.inf) < -bound
                or np.fmax.reduce(x_arr, axis=None, initial=-np.inf) > bound):
            raise DomainError(f"metric change defined on [-{reach}, {reach}]")
        # into a new array: a 0-d clip returns a numpy scalar, which has no
        # buffer to work in
        return np.clip(x_arr, -reach, reach, out=np.empty_like(x_arr))

    def h(self, x):
        """h(x); vectorized; h(-1) = -1, h(0) = 0, h(1) = 1.

        For eps > 0 the metric is smooth up to +-(1 + eps) and h extends
        there; for eps = 0 the domain is exactly [-1, 1].
        """
        y = self._within_reach(x)
        reach = 1.0 + self.eps
        if self._is_arcsin:  # in place
            np.divide(y, reach, out=y)
            np.arcsin(y, out=y)
            np.divide(y, self._asin_scale, out=y)
        else:
            y = np.sign(y) * self._beta.mass(np.abs(y), reach) / self._f_reach
        return float(y) if y.ndim == 0 else y

    def h_prime(self, x):
        """h'(x) = b ((1 + eps)^2 - x^2)^(-p); vectorized, on h's domain,
        clipped as h clips it; +inf, the one-sided limit, at +-(1 + eps)."""
        x_arr, reach = self._within_reach(x), 1.0 + self.eps
        base = np.where(np.abs(x_arr) == reach, 0.0, reach ** 2 - x_arr * x_arr)
        with np.errstate(divide="ignore"):
            d = self.b * base ** (-self._p)
        return float(d) if d.ndim == 0 else d

    def h_inv(self, y):
        """h^{-1}(y): the s with F(s) = |y| F(1/r), times sign(y) (1 + eps)."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(np.abs(y_arr) > 1.0 + 1e-12):
            raise DomainError("h_inv defined on [-1, 1]")
        y_arr = np.clip(y_arr, -1.0, 1.0)
        reach = 1.0 + self.eps
        if self._is_arcsin:
            x = reach * np.sin(y_arr * self._asin_scale)
        else:
            s = self._beta.root(np.abs(y_arr).ravel() * self._f_reach)
            # h^{-1} maps [-1, 1] onto [-1, 1]; the bound undoes rounding past 1
            x = np.sign(y_arr) * np.minimum(reach * s.reshape(y_arr.shape), 1.0)
        return float(x) if np.asarray(x).ndim == 0 else x


def _metric_for(family: MapFamily, eps: float) -> MetricChange:
    """The metric h of ``family`` at ``eps``: the one place that builds it."""
    eps = family.check_param(eps)
    if family.gamma <= 1.0:
        raise DomainError(f"{family.kind}: metric change needs gamma > 1 "
                          "(piecewise linear oracle excluded)")
    return MetricChange(family.gamma, eps)


def tilde_eval(family: MapFamily, eps: float, y):
    """f~(y) = h(f(h^{-1}(y))), with h the family's metric at eps."""
    m = _metric_for(family, eps)
    x = m.h_inv(y)
    # for eps > 0 the image reaches 1 + eps, where h still extends
    fx = np.clip(family.eval(eps, x), -1.0, 1.0 + eps)
    return m.h(fx)


def _tilde_deriv_at(family: MapFamily, eps: float, x):
    """f~'(h(x)) by the chain rule away from the critical point; vectorized.

    ``f'(x) ((1+eps)^2 - x^2)^p / ((1+eps)^2 - f(x)^2)^p`` with
    ``p = (gamma - 1) / gamma``: the normalization b of h cancels.  The
    denominator is written ``(1+eps - f)(1+eps + f)`` with the first factor
    from the family's closed form, so it keeps its relative precision next
    to the critical point, where f(x) nears 1 + eps.
    """
    p = (family.gamma - 1.0) / family.gamma
    x = np.asarray(x, dtype=float)
    fx = family.eval(eps, x)
    num = ((1.0 + eps) ** 2 - x * x) ** p
    den = (family._drop(eps, x) * (1.0 + eps + fx)) ** p
    return family.deriv(eps, x) * num / den


def tilde_scaling(family: MapFamily, eps: float, a: DualPoint, depth: int):
    """Scaling estimate of the conjugate map: ratios of h-image lengths."""
    return scale_at(family, eps, a, depth, metric=_metric_for(family, eps))
