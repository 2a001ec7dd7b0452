"""The singular/smooth change of metric and the conjugate map.

For a family with critical exponent gamma the coordinate change is

    h(x) = b * integral_0^x dt / ((1+eps)^2 - t^2)^((gamma-1)/gamma)

with b normalizing h(1) = 1.  With r = 1 + eps and t = r sqrt(s) the
integral is an incomplete beta integral (DLMF 8.17):

    h(x) = sign(x) I_z(1/2, 1/gamma) / I_{r^-2}(1/2, 1/gamma),  z = (x/r)^2,
    b = 2 / (r^(2/gamma - 1) B(1/2, 1/gamma) I_{r^-2}(1/2, 1/gamma)),

and h^{-1} is the inverse incomplete beta function.  Next to the reach
+-r, h uses the complement 1 - I_{1-z}(1/gamma, 1/2) with 1 - z formed as
(r - |x|)(r + |x|)/r^2, which keeps short h-images there accurate.  For
gamma = 2 everything reduces to arcsin and that closed form is used
directly.  scipy is imported only when a gamma != 2 metric change is
built.

Under h the map becomes ``f~ = h o f o h^{-1}``; for the quadratic family
at eps = 0 this is exactly the slope-2 tent map.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .families import MapFamily
from .symbolic import DualPoint


def __getattr__(name: str):
    # perfbench/tracing.py still wraps `metric.quad` by name; ROADMAP item 1
    # drops that entry, and this hook goes with it.  The package imports
    # no scipy module unless it is needed; this one only on request.
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class MetricChange:
    """The coordinate change h for one (gamma, eps), with h', h^{-1}.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, gamma: float, eps: float = 0.0):
        if not gamma > 1.0:
            raise DomainError("metric change requires gamma > 1")
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
            # the only scipy use in the package, so the import waits for it
            from scipy.special import beta, betainc, betaincinv
            self._betainc, self._betaincinv = betainc, betaincinv
            r, c = 1.0 + self.eps, 1.0 / self.gamma
            self._c = c
            self._i1 = float(betainc(0.5, c, r ** -2))
            self.b = 2.0 / (r ** (2.0 * c - 1.0) * beta(0.5, c) * self._i1)

    def h(self, x):
        """h(x); vectorized; h(-1) = -1, h(0) = 0, h(1) = 1.

        For eps > 0 the metric is smooth up to +-(1 + eps) and h extends
        there; for eps = 0 the domain is exactly [-1, 1].
        """
        x_arr = np.asarray(x, dtype=float)
        reach = 1.0 + self.eps
        if np.any(np.abs(x_arr) > reach + 1e-12):
            raise DomainError(f"metric change defined on [-{reach}, {reach}]")
        x_arr = np.clip(x_arr, -reach, reach)
        if self._is_arcsin:
            y = np.arcsin(x_arr / reach) / self._asin_scale
        else:
            ax = np.abs(x_arr)
            z = (ax / reach) ** 2
            # near the reach, I_z(1/2, c) = 1 - I_{1-z}(c, 1/2) with 1 - z
            # formed from reach - |x|, which is exact there
            co_z = (reach - ax) * (reach + ax) / reach ** 2
            mass = np.where(z > 0.5, 1.0 - self._betainc(self._c, 0.5, co_z),
                            self._betainc(0.5, self._c, z))
            y = np.sign(x_arr) * mass / self._i1
        return float(y) if y.ndim == 0 else y

    def h_prime(self, x):
        x_arr = np.asarray(x, dtype=float)
        d = self.b * ((1.0 + self.eps) ** 2 - x_arr * x_arr) ** (-self._p)
        return float(d) if d.ndim == 0 else d

    def h_inv(self, y):
        """h^{-1}(y) = sign(y) (1+eps) sqrt(I^{-1}(1/2, 1/gamma; |y| I_{r^-2}))."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(np.abs(y_arr) > 1.0 + 1e-12):
            raise DomainError("h_inv defined on [-1, 1]")
        y_arr = np.clip(y_arr, -1.0, 1.0)
        reach = 1.0 + self.eps
        if self._is_arcsin:
            x = reach * np.sin(y_arr * self._asin_scale)
        else:
            z = self._betaincinv(0.5, self._c, np.abs(y_arr) * self._i1)
            # h^{-1} maps [-1, 1] onto [-1, 1]; the bound undoes rounding past 1
            x = np.sign(y_arr) * np.minimum(reach * np.sqrt(z), 1.0)
        return float(x) if np.asarray(x).ndim == 0 else x


def b_const(gamma: float, eps: float = 0.0) -> float:
    """The normalization 2 / integral_{-1}^{1} of the metric density."""
    return MetricChange(gamma, eps).b


def _metric_for(family: MapFamily, eps: float) -> MetricChange:
    eps = family.check_param(eps)
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
