"""Unimodal map families with a power-law critical point.

Every family is a one-parameter collection ``f_eps`` of unimodal maps of
the interval ``[-1, 1]`` with critical point at 0: ``f_eps`` is strictly
increasing on ``[-1, 0]``, strictly decreasing on ``[0, 1]``, maps both
endpoints to -1 and the critical point to the top of the range, ``1 +
eps``.  Every preset shares this one domain, so the absolute tolerances of
the package (the 1e-12 slack of ``check_domain``, ``scaling.LENGTH_FLOOR``,
``geometry.MIN_BOUNDARY_DISTANCE``) are lengths on ``[-1, 1]``.

Built-in presets:

* ``quadratic``            -- ``1 + eps - (2 + eps) x^2``
* ``gamma_power(gamma)``   -- ``1 + eps - (2 + eps) |x|^gamma``
* ``figure6(c)``           -- the quartic ``-x^2 + 2 + c x^2 (4 - x^2)``
  on ``[-2, 2]``, affinely rescaled to ``[-1, 1]``; the critical value
  always equals the right endpoint value, so ``eps = 0`` and ``c`` is the
  sweep parameter.
* ``tent``                 -- ``1 + eps - (2 + eps) |x|``, the piecewise
  linear degenerate (``gamma = 1``) oracle.
* ``asym_quadratic(beta)`` -- a quartic perturbation of the quadratic with
  different one-sided limits of ``f'(x)/|x|`` at the critical point, so
  the map is genuinely asymmetric at the critical point.

All evaluation methods accept scalars or numpy arrays.

The presets come in two shapes, each written once as a private base.  The
power-law presets (quadratic, gamma_power, tent) are ``1 + eps - (2 + eps)
|x|^gamma`` and invert by the ``gamma``-th root of ``(1 + eps - y) / (2 +
eps)``.  Figure6 and asym_quadratic are the even quartic ``crit - k x^2 -
m x^4`` with a table of ``(crit, k, m)`` per side; a preimage solves ``m
u^2 + k u = crit - y`` in ``u = x^2`` by the cancellation-free root, then
``x = -sqrt(u)`` on the left branch and ``+sqrt(u)`` on the right.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError, ParameterRangeError


def _check_side(side) -> None:
    """Refuse a side, or an array of sides, other than 0 and 1; None, for no
    side, passes."""
    if side is not None and not np.all(np.equal(side, 0) | np.equal(side, 1)):
        raise ValueError(f"side must be 0 or 1, got {side}")


class MapFamily:
    """Base class for the presets.  Subclasses fill in closed forms."""

    kind: str = "base"
    domain: tuple[float, float] = (-1.0, 1.0)
    #: the eps accepted by ``check_param``
    param_range: tuple[float, float] = (0.0, 1.0)
    #: ``_inverse`` keeps g_1(y) = -g_0(y) bit for bit; a subclass that
    #: overrides ``_inverse`` must keep that or set this False
    _mirrored: bool = False

    def __init__(self, gamma: float, extra: dict | None = None):
        self.gamma = float(gamma)
        self.extra = dict(extra or {})

    # -- validation -------------------------------------------------------

    def check_param(self, eps: float) -> float:
        lo, hi = self.param_range
        if not (lo <= eps <= hi):
            raise ParameterRangeError(
                f"{self.kind}: eps={eps} outside [{lo}, {hi}]")
        return float(eps)

    def check_domain(self, x) -> None:
        lo, hi = self.domain
        # fmin/fmax skip NaN; the initial values let an empty array pass
        x = np.asarray(x, dtype=float)
        if (np.fmin.reduce(x, axis=None, initial=np.inf) < lo - 1e-12
                or np.fmax.reduce(x, axis=None, initial=-np.inf) > hi + 1e-12):
            raise DomainError(f"{self.kind}: point outside [{lo}, {hi}]")

    # -- core evaluations (subclasses override the raw forms) -------------

    def _eval_raw(self, eps: float, x):
        raise NotImplementedError

    def _deriv_raw(self, eps: float, x):
        raise NotImplementedError

    def eval(self, eps: float, x):
        """f_eps(x); vectorized over x."""
        eps = self.check_param(eps)
        self.check_domain(x)
        return self._eval_raw(eps, x)

    def deriv(self, eps: float, x, side: int | None = None):
        """f_eps'(x); at x = 0 the one-sided derivative when ``side`` is given.

        For gamma > 1 the two-sided derivative at the critical point is 0
        and ``side`` is optional; the tent preset overrides this.
        """
        eps = self.check_param(eps)
        self.check_domain(x)
        _check_side(side)
        return self._deriv_raw(eps, x)

    def critical_value(self, eps: float) -> float:
        return float(self.eval(eps, 0.0))

    # -- inverse branches -------------------------------------------------

    def inverse_branch(self, eps: float, side: int, y):
        """The unique preimage of y on [lo, 0] (side 0) or [0, hi] (side 1).

        Checks eps, y and side; a chain takes only its first step here and
        then runs the closed-form ``_inverse``: a root of ``(crit - y) / (2 +
        eps)`` for the power laws, a quadratic in ``u = x^2`` for the quartics.
        """
        eps = self.check_param(eps)
        self.check_domain(y)
        if np.ndim(side) != 0 or side not in (0, 1):  # one side, not an array
            raise ValueError(f"side must be 0 or 1, got {side}")
        x = self._inverse(eps, side, y, np.empty(np.shape(y)))
        return float(x) if x.ndim == 0 else x

    def _inverse(self, eps: float, side: int, y, out):
        """The unchecked preimage of y on side ``side``, for a checked eps,
        written to and returned as ``out``: an array that ``y`` broadcasts to
        and does not overlap, such as a chain's row or a slice of a level."""
        raise NotImplementedError

    @property
    def piecewise_linear(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(gamma={self.gamma}, extra={self.extra})"


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


class _PowerLaw(MapFamily):
    """f_eps(x) = 1 + eps - (2 + eps) |x|^gamma on [-1, 1].

    The inverse branches are ``-+((1 + eps - y) / (2 + eps))^(1/gamma)``.
    """

    _mirrored = True

    def _eval_raw(self, eps, x):
        x = np.asarray(x, dtype=float)
        return 1.0 + eps - (2.0 + eps) * np.abs(x) ** self.gamma

    def _deriv_raw(self, eps, x):
        x = np.asarray(x, dtype=float)
        g = self.gamma
        return -g * (2.0 + eps) * np.abs(x) ** (g - 1.0) * np.sign(x)

    def _drop(self, eps, x):
        """1 + eps - f_eps(x), the fall from the critical value, formed as
        ``(2 + eps) |x|^gamma`` without subtracting."""
        return (2.0 + eps) * np.abs(np.asarray(x, dtype=float)) ** self.gamma

    def _inverse(self, eps, side, y, out):
        t = np.subtract(1.0 + eps, y, out=out)
        np.divide(t, 2.0 + eps, out=t)
        np.maximum(t, 0.0, out=t)
        # the in-place operator keeps the np.sqrt fast path of ``**``;
        # np.power(t, 0.5) calls pow, which may round differently
        t **= 1.0 / self.gamma
        return np.negative(t, out=t) if side == 0 else t


class Quadratic(_PowerLaw):
    """q_eps(x) = 1 + eps - (2 + eps) x^2 on [-1, 1]; gamma = 2."""

    kind = "quadratic"

    def __init__(self):
        super().__init__(2.0)


class GammaPower(_PowerLaw):
    """f_eps(x) = 1 + eps - (2 + eps) |x|^gamma on [-1, 1]."""

    kind = "gamma_power"

    def __init__(self, gamma: float):
        if not (gamma > 1.0 and math.isfinite(gamma)):
            raise ParameterRangeError(
                f"gamma_power requires a finite gamma > 1, got {gamma!r}")
        super().__init__(gamma, extra={"gamma": gamma})


class Tent(_PowerLaw):
    """f_eps(x) = 1 + eps - (2 + eps) |x|: piecewise linear closed-form oracle."""

    kind = "tent"

    def __init__(self):
        super().__init__(1.0)

    def deriv(self, eps, x, side=None):
        """f_eps'(x); at x = 0 the slope of ``side``, which may also be an
        array of sides that broadcasts against x."""
        eps = self.check_param(eps)
        self.check_domain(x)
        _check_side(side)
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr == 0.0):
            if side is None:
                raise DomainError("tent: side flag required at the critical point")
            slope = np.where(np.equal(side, 0), 2.0 + eps, -(2.0 + eps))
            d = np.where(x_arr == 0.0, slope, self._deriv_raw(eps, x_arr))
            return float(d) if d.ndim == 0 else d
        return self._deriv_raw(eps, x_arr)

    @property
    def piecewise_linear(self) -> bool:
        return True


class _EvenQuartic(MapFamily):
    """f_eps(x) = crit - k x^2 - m x^4 with ``(crit, k, m)`` of the side of x.

    ``x <= 0`` reads the side-0 coefficients, ``x > 0`` the side-1 ones;
    subclasses give them as ``_coeffs(eps, side) -> (crit, k, m)``.  A
    preimage solves ``m u^2 + k u = crit - y`` in ``u = x^2`` with k > 0.
    """

    _mirrored = True

    def _coeffs(self, eps: float, side: int) -> tuple[float, float, float]:
        raise NotImplementedError

    def _side_coeffs(self, eps, x):
        crit, k0, m0 = self._coeffs(eps, 0)
        if self._mirrored:
            return crit, k0, m0
        _, k1, m1 = self._coeffs(eps, 1)
        # the 0/1 view of the bool array indexes the two sides' values,
        # at half the cost of np.where on scalars
        side = (x > 0.0).view(np.uint8)
        return crit, np.array((k0, k1))[side], np.array((m0, m1))[side]

    def _eval_raw(self, eps, x):
        x = np.asarray(x, dtype=float)
        crit, k, m = self._side_coeffs(eps, x)
        x2 = x * x
        return crit - k * x2 - m * x2 * x2

    def _deriv_raw(self, eps, x):
        x = np.asarray(x, dtype=float)
        _, k, m = self._side_coeffs(eps, x)
        return -2.0 * k * x - 4.0 * m * (x * x * x)

    def _drop(self, eps, x):
        """crit - f_eps(x), the fall from the critical value, formed as ``k
        x^2 + m x^4`` without subtracting."""
        x = np.asarray(x, dtype=float)
        _, k, m = self._side_coeffs(eps, x)
        x2 = x * x
        return k * x2 + m * x2 * x2

    def _inverse(self, eps, side, y, out):
        """The root ``u = 2c / (k + sqrt(k^2 + 4mc))`` of ``m u^2 + k u = c``.

        Here ``c = crit - y``; the root has no cancellation for either
        sign of ``m`` (Higham, Accuracy and Stability of Numerical
        Algorithms, sec. 1.8).  ``c`` is clamped at 0, where the preimage
        is the critical point exactly: -0.0 on side 0 and +0.0 on side 1,
        as for the power laws.  ``y = lo`` returns the domain endpoint
        exactly, so nested cylinders telescope bit-for-bit.
        """
        crit, k, m = self._coeffs(eps, side)
        c = np.maximum(np.subtract(crit, y, out=out), 0.0, out=out)
        # each step rounds as in 2 c / (k + sqrt(k k + 4 m c)), whose
        # denominator is the one temporary
        d = np.multiply(4.0 * m, c, out=np.empty_like(c))
        d += k * k
        np.add(np.sqrt(d, out=d), k, out=d)
        np.sqrt(np.divide(np.multiply(c, 2.0, out=c), d, out=c), out=c)
        dlo, dhi = self.domain  # symmetric: side 0 negates dhi into dlo
        np.copyto(c, dhi, where=np.equal(y, dlo))
        return np.negative(c, out=c) if side == 0 else c


class Figure6(_EvenQuartic):
    """The quartic family f_c(x) = -x^2 + 2 + c x^2 (4 - x^2) on [-2, 2].

    The critical value equals the right endpoint value for every ``c``
    (eps = 0 identically); ``c`` is the shape parameter.  The family is
    affinely rescaled to [-1, 1] as ``(1/2) f_c(2x) = 1 - (2 - 8c) x^2 -
    8c x^4``, which leaves every ratio quantity invariant.
    """

    kind = "figure6"
    C_RANGE = (-0.06, 0.06)
    param_range = (0.0, 0.0)

    def __init__(self, c: float):
        lo, hi = self.C_RANGE
        if not (lo <= c <= hi):
            raise ParameterRangeError(f"figure6: c={c} outside [{lo}, {hi}]")
        c = float(c)
        super().__init__(gamma=2.0, extra={"c": c})
        self.c = c
        self._quartic = (1.0, 2.0 - 8.0 * c, 8.0 * c)

    def _coeffs(self, eps, side):
        return self._quartic


class AsymQuadratic(_EvenQuartic):
    """A quartic-corrected quadratic with asymmetric power law at 0.

    On each side the map is ``1 + eps - k x^2 - (2 + eps - k) x^4`` with
    ``k = (2 + eps)(1 + beta)`` on the left and ``k = (2 + eps)(1 - beta)``
    on the right, ``|beta| < 1``.  Both endpoints map to -1 and the
    critical value is ``1 + eps``; the one-sided residual limits are
    ``A = 2 (2 + eps)(1 + beta)`` and ``B = 2 (2 + eps)(1 - beta)``, so the
    asymmetry A/B equals ``(1 + beta) / (1 - beta)``.  ``beta = 0``
    recovers the quadratic preset.
    """

    kind = "asym_quadratic"
    param_range = (0.0, 0.5)

    def __init__(self, beta: float):
        if not abs(beta) < 1.0:
            raise ParameterRangeError("asym_quadratic requires |beta| < 1")
        super().__init__(gamma=2.0, extra={"beta": float(beta)})
        self.beta = float(beta)
        self._mirrored = self.beta == 0.0

    def _coeffs(self, eps, side):
        k = (2.0 + eps) * (1.0 + self.beta if side == 0 else 1.0 - self.beta)
        return 1.0 + eps, k, 2.0 + eps - k


# ---------------------------------------------------------------------------
# Construction from a specification record
# ---------------------------------------------------------------------------

#: kind -> (class, {param: default}): the params each preset takes
_PRESETS = {
    "quadratic": (Quadratic, {}),
    "gamma_power": (GammaPower, {"gamma": 2.0}),
    "figure6": (Figure6, {"c": 0.0}),
    "tent": (Tent, {}),
    "asym_quadratic": (AsymQuadratic, {"beta": 0.0}),
}


def make_family(kind: str, /, **params) -> MapFamily:
    """Build a preset by name from the params its kind takes.

    gamma_power takes ``gamma``, figure6 ``c``, asym_quadratic ``beta``;
    quadratic and tent take none.  Each must be a finite real number, not
    a bool.  Any other param or value is refused.
    """
    if not isinstance(kind, str) or kind not in _PRESETS:
        raise ParameterRangeError(f"unknown family kind {kind!r}; "
                                  f"expected one of {tuple(_PRESETS)}")
    cls, defaults = _PRESETS[kind]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ParameterRangeError(f"{kind}: unknown parameter(s) {unknown}; "
                                  f"expected some of {sorted(defaults)}")
    for name, value in params.items():
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ParameterRangeError(
                f"{kind}: parameter {name!r} expects a finite number, "
                f"got {value!r}")
    return cls(**{**defaults, **params})


def family_from_spec(spec: dict) -> MapFamily:
    """Build a family from a CLI config record.

    Keys: ``kind`` (required) and ``params`` (a map of the ``make_family``
    params); each param may also be given at the top level, where
    ``params`` takes precedence.  ``make_family`` judges the params.
    """
    if not isinstance(spec, dict):
        raise ParameterRangeError(f"family spec must be a map, got {spec!r}")
    if "kind" not in spec:
        raise ParameterRangeError("family spec missing key 'kind'")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ParameterRangeError("family spec key 'params' must be a map")
    top = {k: v for k, v in spec.items() if k not in ("kind", "params")}
    return make_family(spec["kind"], **{**top, **params})
