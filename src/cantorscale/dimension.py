"""Hausdorff-dimension estimation via the depth-n pressure equation.

The estimator is the root of the Moran/pressure sum of relative lengths

    sum over words of length n+1 of (|I_w| / 2)^delta = 1,

which returns exactly delta = 1 when the cylinders tile the whole domain
[-1, 1].  The logarithm of the sum is convex and strictly decreasing in
delta, so Newton's method on it from delta = 1, with no bracket, climbs
to the root from below in a few steps; the cross-depth pair (delta at
depth-1, delta at depth) brackets the systematic error.  A root reports the residual of
its own numpy sum of ``r^delta``; ``pressure_sum`` is the compensated
reference sum.  A ``Partition.mirrored`` level (every power law, Figure6
and AsymQuadratic at beta = 0) repeats its left half's cell lengths on the
right exactly ((-a) - (-b) = b - a), so the root sums over the left half
only and weights it by 2.  The sums then add in another order, which moves
the root by at most about two ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branches import Partition, partition_levels
from .errors import ConvergenceError, DomainError
from .families import MapFamily

#: Newton stops once a step is this small in delta (ulp(1) is 2.2e-16)
_STEP_TOL = 1e-15
_MAX_STEPS = 60


@dataclass
class DimensionEstimate:
    epsilon: float
    depth: int
    delta: float
    bracket: tuple[float, float]
    residual: float
    iterations: int        # Newton steps of the depth-``depth`` root


def pressure_sum(part: Partition, delta: float) -> float:
    """Compensated sum of relative cylinder lengths to the power delta."""
    if not 0.0 <= delta <= 2.0:
        raise DomainError("delta must lie in [0, 2]")
    rel = part.lengths / 2.0
    return math.fsum((rel ** delta).tolist())


def _solve_delta(part: Partition, tol: float = 1e-10) -> tuple[float, float, int]:
    """Newton root of F(delta) = log sum r^delta, from delta = 1.

    Returns ``(delta, residual, iterations)``.  F is convex and decreasing,
    so after the first step every Newton iterate lies at or left of the
    root and climbs to it without overshooting; a step below 0, where F(0)
    = log(cell count) > 0, is clamped to 0.  The start delta = 1 is the
    root of a tiling, which then returns exactly 1.0.  Cells of zero length
    add nothing for delta > 0 and are left out of ``log r``; a level whose
    every cell has length 0 has no root.  The returned residual ``|sum
    r^delta - 1|`` is the pairwise numpy sum over the same ``log r``,
    within about log2(cells) ulps of the compensated ``pressure_sum`` one,
    and must be < ``tol``.
    """
    weight = 2.0 if part.mirrored else 1.0
    cells = len(part) // 2 if part.mirrored else len(part)
    rel = part.his[:cells] - part.los[:cells]
    np.divide(rel, 2.0, out=rel)
    log_r = rel = rel[rel > 0.0]  # frees ``rel`` before ``powers`` exists
    if not log_r.size:
        raise ConvergenceError(
            f"pressure root: every level-{part.depth} cell has length 0")
    np.log(log_r, out=log_r)
    powers = np.empty_like(log_r)
    delta = 1.0
    for iterations in range(1, _MAX_STEPS + 1):
        np.exp(np.multiply(log_r, delta, out=powers), out=powers)
        s = weight * powers.sum()
        # F / F' = log S / (S' / S), with S' = sum r^delta log r
        step = math.log(s) * s / (weight * (powers @ log_r))
        delta = max(delta - step, 0.0)
        if abs(step) <= _STEP_TOL:
            break
    np.exp(np.multiply(log_r, delta, out=powers), out=powers)
    residual = abs(weight * float(powers.sum()) - 1.0)
    if not residual < tol:
        raise ConvergenceError(
            f"pressure root {delta!r}: residual {residual:.3g} not below {tol:.3g}")
    return float(delta), residual, iterations


def hd_estimate(family: MapFamily, eps: float, depth: int) -> DimensionEstimate:
    """Dimension estimate at one eps with the cross-depth bracket."""
    if depth < 6:
        raise DomainError("hd_estimate needs depth >= 6")
    levels = partition_levels(family, eps, depth)
    d_prev, _, _ = _solve_delta(levels[depth - 1])
    d_last, residual, iterations = _solve_delta(levels[depth])
    lo, hi = sorted((d_prev, d_last))
    return DimensionEstimate(epsilon=eps, depth=depth, delta=d_last,
                             bracket=(lo, hi), residual=residual,
                             iterations=iterations)


def hd_curve(family: MapFamily, eps_grid, depth: int):
    """Per-eps dimension estimates and the fitted defect exponent.

    Returns ``(estimates, slope)`` with ``slope`` the least-squares slope
    of ``log(1 - delta)`` against ``log eps``.
    """
    eps_list = sorted(float(e) for e in eps_grid)
    if any(e <= 0 for e in eps_list):
        raise DomainError("hd_curve requires positive eps")
    if len(set(eps_list)) < 2:
        raise DomainError("hd_curve needs at least two distinct eps")
    ests = [hd_estimate(family, e, depth) for e in eps_list]
    defect = np.asarray([max(1.0 - est.delta, 1e-300) for est in ests])
    slope = float(np.polyfit(np.log(eps_list), np.log(defect), 1)[0])
    return ests, slope


def delta0(eps: float, C6: float) -> float:
    """log 2 / (log 2 - log(1 - C6 sqrt(eps))); the self-similar lower-model root.

    Satisfies 2 ((1 - C6 sqrt(eps)) / 2)^delta0 = 1 exactly.
    """
    if eps < 0.0:
        raise DomainError("delta0 requires eps >= 0")
    t = C6 * math.sqrt(eps)
    if not t < 1.0:
        raise DomainError("delta0 requires C6 * sqrt(eps) < 1")
    if t == 0.0:
        return 1.0
    return math.log(2.0) / (math.log(2.0) - math.log(1.0 - t))


def zero_run_count(n: int) -> int:
    """Binary strings of length n with no run of three zeros.

    The tribonacci recurrence a(n) = a(n-1) + a(n-2) + a(n-3), run as a
    linear recurrence over the number of trailing zeros.
    """
    if not 1 <= n <= 62:
        raise DomainError("n must lie in [1, 62] (overflow guard)")
    # z_r: valid strings ending in exactly r zeros; start: the empty string
    z0, z1, z2 = 1, 0, 0
    for _ in range(n):
        # append a one (the run resets) or a zero (the run grows)
        z0, z1, z2 = z0 + z1 + z2, z0, z1
    return z0 + z1 + z2


def zero_run_count_bruteforce(n: int) -> int:
    """Direct enumeration cross-check (n <= 20)."""
    if n > 20:
        raise DomainError("brute force capped at n = 20")
    strings = np.arange(1 << n)
    run = np.zeros(strings.size, dtype=np.int8)      # trailing zero run
    longest = np.zeros_like(run)
    for k in range(n):
        run = np.where((strings >> k) & 1, 0, run + 1)
        np.maximum(longest, run, out=longest)
    return int(np.count_nonzero(longest < 3))
