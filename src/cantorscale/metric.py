"""The singular/smooth change of metric and the conjugate map.

For a family with critical exponent gamma the coordinate change is

    h(x) = -1 + b * integral_{-1}^{x} dt / ((1+eps)^2 - t^2)^((gamma-1)/gamma)

with b normalizing h(1) = 1.  For eps = 0 the integrand has endpoint
singularities of exponent (gamma-1)/gamma < 1; the substitution
u = (1 -+ t)^(1/gamma) makes it smooth, so the quadrature is done in the
u variable.  For gamma = 2 everything reduces to arcsin and that closed
form is used directly.

Under h the map becomes ``f~ = h o f o h^{-1}``; for the quadratic family
at eps = 0 this is exactly the slope-2 tent map.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .errors import ConvergenceError, DomainError
from .families import MapFamily
from .symbolic import DualPoint

_QUAD_TOL = 1e-12


class MetricChange:
    """The coordinate change h for one (gamma, eps), with h', h^{-1}.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, gamma: float, eps: float = 0.0):
        if not gamma > 1.0:
            raise DomainError("metric change requires gamma > 1")
        if eps < 0.0:
            raise DomainError("eps must be >= 0")
        self.gamma = float(gamma)
        self.eps = float(eps)
        self._p = (gamma - 1.0) / gamma
        self._is_arcsin = abs(gamma - 2.0) < 1e-14
        if self._is_arcsin:
            self._asin_scale = math.asin(1.0 / (1.0 + eps))
            self.b = 1.0 / self._asin_scale
        else:
            half = self._integral(-1.0, 0.0) + self._integral(0.0, 1.0)
            self.b = 2.0 / half

    # -- quadrature -------------------------------------------------------

    def _integrand(self, t: float) -> float:
        return ((1.0 + self.eps) ** 2 - t * t) ** (-self._p)

    def _integral(self, a: float, c: float) -> float:
        """integral_a^c of the metric density, singularity-substituted."""
        g, p, eps = self.gamma, self._p, self.eps
        if eps > 0.0:
            val, err = quad(self._integrand, a, c, epsabs=_QUAD_TOL,
                            epsrel=_QUAD_TOL, limit=200)
        else:
            # split at 0; near t = +-1 substitute u = (1 -+ t)^(1/gamma):
            # dt/(1 - t^2)^p = gamma du / (2 - u^gamma)^p, which is smooth.
            def near(sign: float, lo_t: float, hi_t: float) -> float:
                # integrate over the half adjacent to the endpoint `sign`
                # u = (1 - sign*t)^(1/g): decreasing in t for sign=+1,
                # increasing for sign=-1 -- order the u-limits accordingly
                ua = (1.0 - sign * lo_t) ** (1.0 / g)
                ub = (1.0 - sign * hi_t) ** (1.0 / g)
                u_lo, u_hi = (ub, ua) if sign > 0 else (ua, ub)
                f = lambda u: g / (2.0 - u ** g) ** p
                v, e = quad(f, u_lo, u_hi, epsabs=_QUAD_TOL,
                            epsrel=_QUAD_TOL, limit=200)
                return v

            total = 0.0
            if a < min(c, 0.0):  # part in [-1, 0]
                total += near(-1.0, a, min(c, 0.0))
            if c > max(a, 0.0):  # part in [0, 1]
                total += near(1.0, max(a, 0.0), c)
            val = total
        return val

    # -- h, h', h^{-1} ----------------------------------------------------

    def h(self, x):
        """h(x); vectorized; h(-1) = -1, h(0) = 0, h(1) = 1.

        For eps > 0 the metric is smooth up to +-(1 + eps) and h extends
        there; for eps = 0 the domain is exactly [-1, 1].
        """
        x_arr = np.asarray(x, dtype=float)
        reach = 1.0 + (self.eps if self.eps > 0.0 else 0.0)
        if np.any(np.abs(x_arr) > reach + 1e-12):
            raise DomainError(f"metric change defined on [-{reach}, {reach}]")
        x_arr = np.clip(x_arr, -reach, reach)
        if self._is_arcsin:
            y = np.arcsin(x_arr / (1.0 + self.eps)) / self._asin_scale
        else:
            y = np.asarray([self.b * math.copysign(self._integral(0.0, abs(t)), t)
                            for t in x_arr.ravel()]).reshape(x_arr.shape)
        return float(y) if y.ndim == 0 else y

    def h_prime(self, x):
        x_arr = np.asarray(x, dtype=float)
        d = self.b * ((1.0 + self.eps) ** 2 - x_arr * x_arr) ** (-self._p)
        return float(d) if d.ndim == 0 else d

    def h_inv(self, y):
        """Monotone bisection-Newton inverse; |h_inv(h(x)) - x| <= 1e-10."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(np.abs(y_arr) > 1.0 + 1e-12):
            raise DomainError("h_inv defined on [-1, 1]")
        y_arr = np.clip(y_arr, -1.0, 1.0)
        if self._is_arcsin:
            x = (1.0 + self.eps) * np.sin(y_arr * self._asin_scale)
            return float(x) if np.asarray(x).ndim == 0 else x
        out = np.asarray([self._h_inv_scalar(t)
                          for t in y_arr.ravel()]).reshape(y_arr.shape)
        return float(out) if out.ndim == 0 else out

    def _h_inv_scalar(self, y: float) -> float:
        if y <= -1.0:
            return -1.0
        if y >= 1.0:
            return 1.0
        lo, hi = -1.0, 1.0
        x = 0.0
        for _ in range(200):
            fy = self.h(x) - y
            if fy < 0:
                lo = x
            else:
                hi = x
            if hi - lo < 1e-12:
                break
            xn = x - fy / self.h_prime(x)
            x = xn if lo < xn < hi else 0.5 * (lo + hi)
        else:
            raise ConvergenceError("h_inv did not converge")
        return 0.5 * (lo + hi)


def b_const(gamma: float, eps: float = 0.0) -> float:
    """The normalization 2 / integral_{-1}^{1} of the metric density."""
    return MetricChange(gamma, eps).b


def _metric_for(family: MapFamily, eps: float) -> MetricChange:
    if family.domain != (-1.0, 1.0):
        raise DomainError("metric operations need the normalized domain [-1, 1]")
    if family.gamma <= 1.0:
        raise DomainError(f"{family.kind}: metric change needs gamma > 1 "
                          "(piecewise linear oracle excluded)")
    return MetricChange(family.gamma, eps)


def tilde_eval(family: MapFamily, eps: float, y,
               metric: MetricChange | None = None):
    """f~(y) = h(f(h^{-1}(y)))."""
    m = metric if metric is not None else _metric_for(family, eps)
    x = m.h_inv(y)
    # for eps > 0 the image reaches 1 + eps, where h still extends
    fx = np.clip(family.eval(eps, x), -1.0, 1.0 + eps)
    return m.h(fx)


def tilde_deriv(family: MapFamily, eps: float, y,
                side: int | None = None,
                metric: MetricChange | None = None) -> float:
    """f~'(y) by the chain rule, with one-sided limits at y in {-1, 0, 1}."""
    m = metric if metric is not None else _metric_for(family, eps)
    g = family.gamma
    p = (g - 1.0) / g
    y = float(y)
    if y == 0.0:
        if side is None:
            raise DomainError("side flag required at y = 0")
        a_res, b_res = family.residual_limits(eps)
        scale = (g * (1.0 + eps) / 2.0) ** p
        if side == 0:
            return a_res ** (1.0 / g) * scale
        return -abs(b_res) ** (1.0 / g) * scale
    if eps == 0.0 and abs(y) == 1.0:
        # endpoint one-sided limits on the boundary of hyperbolicity
        d = float(family.deriv(eps, y))
        if y == -1.0:
            return d ** (1.0 / g)
        return -abs(d) ** (1.0 / g)
    return float(_tilde_deriv_at(family, eps, m.h_inv(y)))


def _tilde_deriv_at(family: MapFamily, eps: float, x):
    """f~'(h(x)) by the chain rule away from the critical point; vectorized.

    ``f'(x) ((1+eps)^2 - x^2)^p / ((1+eps)^2 - f(x)^2)^p`` with
    ``p = (gamma - 1) / gamma``: the normalization b of h cancels.
    """
    p = (family.gamma - 1.0) / family.gamma
    x = np.asarray(x, dtype=float)
    fx = family.eval(eps, x)
    num = ((1.0 + eps) ** 2 - x * x) ** p
    den = ((1.0 + eps) ** 2 - fx * fx) ** p
    return family.deriv(eps, x) * num / den


def nonlinearity_tilde_q(eps: float, y) -> float:
    """Nonlinearity of the conjugate quadratic map (gamma = 2).

    ``n(q~)(y) = eps (1+eps) / ((2(1+eps) - (2+eps) x^2) sqrt((1+eps)^2 - x^2))``
    with ``x = h_inv(y)``.  Identically zero at eps = 0.
    """
    m = MetricChange(2.0, eps)
    x = np.asarray(m.h_inv(y), dtype=float)
    val = (eps * (1.0 + eps)
           / ((2.0 * (1.0 + eps) - (2.0 + eps) * x * x)
              * np.sqrt((1.0 + eps) ** 2 - x * x)))
    return float(val) if val.ndim == 0 else val


def tilde_scaling(family: MapFamily, eps: float, a: DualPoint, depth: int,
                  metric: MetricChange | None = None):
    """Scaling estimate of the conjugate map: ratios of h-image lengths."""
    from .scaling import scale_at

    m = metric if metric is not None else _metric_for(family, eps)
    return scale_at(family, eps, a, depth, metric=m)
