"""Gap geometry, the eps^(1/gamma) asymptotics and distortion bounds.

A cylinder ``I_w`` splits into its two children and a (possibly empty)
gap ``G_w``; the collection of ratios ``|G_w| / |I_w|`` is the gap
geometry of the invariant set.  For a family escaping at rate eps the
leading-gap ratio scales like ``eps^(1/gamma)`` with a uniform
determining constant, which ``asymptotic_gap_fit`` verifies by log-log
regression.  ``estimate_constants`` and ``distortion_check`` implement
the Denjoy-Koebe distortion inequality with empirically estimated
constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .branches import (Word, apply_branches, cylinder, decay_rate,
                       partition_levels)
from .errors import ConvergenceError, DomainError
from .families import MapFamily
from .metric import _metric_for, _tilde_deriv_at

#: pairs closer to the boundary than this are excluded from distortion
#: sampling: the uniform bound degenerates as d_xy -> 0.  A length on the
#: domain [-1, 1] that every family shares
MIN_BOUNDARY_DISTANCE = 1e-3

#: grid points per cell on which ``estimate_constants`` samples f', h'
#: and the conjugate map's derivative
CONSTANT_SAMPLES = 80


@dataclass(frozen=True)
class GapRecord:
    word: str
    gap_interval: tuple[float, float]
    gap_ratio: float
    child_ratios: tuple[float, float]


@dataclass
class GapGeometrySummary:
    depth: int
    min_gap_ratio: float
    max_gap_ratio: float
    min_child_ratio: float
    records: list[GapRecord] | None = None


@dataclass
class GapFit:
    eps: list[float]
    leading_ratios: list[float]
    slope: float
    band: tuple[float, float]
    slope_max: float | None = None
    slope_min: float | None = None


@dataclass
class GoodFamilyConstants:
    c1: float
    K1: float
    c2: float
    K2: float
    c3: float
    K3: float
    C1: float
    alpha: float
    A: float
    B: float
    C: float
    C2_sum: float
    C3_sum: float
    D: float
    E: float
    degenerate: bool = False


@dataclass
class DistortionCheck:
    lhs: float
    rhs_orbit: float
    rhs_uniform: float
    passed: bool


def gap(family: MapFamily, eps: float, word: Word | None) -> GapRecord:
    """The gap between the two children of ``I_w`` (empty word: leading gap)."""
    sides, label = ((), "") if word is None else (word.bits[::-1], str(word))
    c0, c1 = (cylinder(family, eps, Word((b,))) for b in (0, 1))
    ends = apply_branches(family, eps, sides,
                          [*family.domain, c0.lo, c0.hi, c1.lo, c1.hi])[-1]
    (p_lo, c0_lo, c1_lo), (p_hi, c0_hi, c1_hi) = np.sort(
        ends.reshape(3, 2), axis=1).T.tolist()
    parent_len = p_hi - p_lo
    gap_lo, gap_hi = (c0_hi, c1_lo) if c0_lo <= c1_lo else (c1_hi, c0_lo)
    return GapRecord(
        word=label,
        gap_interval=(gap_lo, gap_hi),
        gap_ratio=max(gap_hi - gap_lo, 0.0) / parent_len,
        child_ratios=((c0_hi - c0_lo) / parent_len,
                      (c1_hi - c1_lo) / parent_len))


def gap_geometry(family: MapFamily, eps: float, depth: int,
                 include_table: bool = False) -> GapGeometrySummary:
    """Aggregate gap and child ratios over all words of length <= depth."""
    dlo, dhi = family.domain
    parent_len = np.asarray([dhi - dlo])   # the domain is the parent of level 0
    min_gap, max_gap, min_child = math.inf, -math.inf, math.inf
    records: list[GapRecord] | None = [] if include_table else None
    # the children of parent j at level k - 1 sit at 2j and 2j + 1 of level k
    for k, level in enumerate(partition_levels(family, eps, depth)):
        lo0, lo1 = level.los[0::2], level.los[1::2]
        hi0, hi1 = level.his[0::2], level.his[1::2]
        r0 = (hi0 - lo0) / parent_len
        r1 = (hi1 - lo1) / parent_len
        g = np.maximum(1.0 - r0 - r1, 0.0)
        min_gap = min(min_gap, float(g.min()))
        max_gap = max(max_gap, float(g.max()))
        min_child = min(min_child, float(r0.min()), float(r1.min()))
        if records is not None:
            words = [format(j, f"0{k}b") for j in range(g.size)] if k else [""]
            records += map(GapRecord, words,
                           zip(np.minimum(hi0, hi1).tolist(),
                               np.maximum(lo0, lo1).tolist()),
                           g.tolist(), zip(r0.tolist(), r1.tolist()))
        parent_len = level.lengths

    return GapGeometrySummary(depth=depth, min_gap_ratio=min_gap,
                              max_gap_ratio=max_gap,
                              min_child_ratio=min_child, records=records)


def asymptotic_gap_fit(family: MapFamily, eps_grid, depth: int = 0) -> GapFit:
    """Log-log slope of the gap ratios against eps and the constant band.

    The headline slope is fitted on the leading-gap ratio; with
    ``depth >= 1`` the max and min gap ratios over all words of length
    <= depth are fitted as well.  The band is the spread of
    ``leading_ratio / eps^(1/gamma)`` over the grid.  An eps whose leading
    gap ratio rounds to 0 raises ``ConvergenceError``.
    """
    eps_list = sorted(float(e) for e in eps_grid)
    if any(e <= 0 for e in eps_list):
        raise DomainError("asymptotic_gap_fit requires positive eps")
    if len(set(eps_list)) < 2:
        raise DomainError("asymptotic_gap_fit needs at least two distinct eps")
    leading, gmax, gmin = [], [], []
    for e in eps_list:
        leading.append(gap(family, e, None).gap_ratio)
        if not leading[-1] > 0:   # its log would be -inf
            raise ConvergenceError(f"leading gap ratio rounds to 0 at eps={e}")
        if depth >= 1:
            summ = gap_geometry(family, e, depth)
            gmax.append(summ.max_gap_ratio)
            gmin.append(summ.min_gap_ratio)
    log_e = np.log(eps_list)
    slope = float(np.polyfit(log_e, np.log(leading), 1)[0])
    scaled = np.asarray(leading) / np.asarray(eps_list) ** (1.0 / family.gamma)
    fit = GapFit(eps=eps_list, leading_ratios=leading, slope=slope,
                 band=(float(np.min(scaled)), float(np.max(scaled))))
    if depth >= 1:
        fit.slope_max = float(np.polyfit(log_e, np.log(gmax), 1)[0])
        if min(gmin) > 0:
            fit.slope_min = float(np.polyfit(log_e, np.log(gmin), 1)[0])
    return fit


@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of n grid points, read-only and shared."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _holder_constant(xs: np.ndarray, vals: np.ndarray, alpha: float) -> float:
    """Max difference quotient |v(x)-v(y)| / |x-y|^alpha over grid pairs."""
    i, j = _pairs(len(xs))   # |v(x)-v(y)| is |v(y)-v(x)| bit for bit
    d, h = np.abs(vals[i] - vals[j]), np.abs(xs[i] - xs[j]) ** alpha
    mask = h > 0
    return float(np.max(d[mask] / h[mask])) if np.any(mask) else 0.0


def default_alpha(family: MapFamily) -> float:
    """min(alpha', alpha''): 1 for the presets except gamma_power(gamma < 2)."""
    return 1.0 if family.piecewise_linear else min(family.gamma - 1.0, 1.0)


def estimate_constants(family: MapFamily, eps: float) -> GoodFamilyConstants:
    """Empirical distortion constants of the family at one eps.

    ``c1, K1`` bound ``f'`` on the depth-1 cylinders I_0 and I_1 (every
    backward image lives there), ``c2, K2`` bound the conjugate map's derivative on the
    h-images of the middle intervals, ``c3, K3`` bound ``h'`` there, and
    ``C1`` is the smaller of ``|I_00|`` and ``|I_10|``.  ``C2_sum`` and
    ``C3_sum`` bound the backward-image sums, derived from the partition
    decay fit with a factor-2 safety margin.  The aggregate constants are

        A = K1/c1 + K3^alpha K2/c2 + K3/c3 + (gamma-1)/gamma
        B = (gamma-1)/(gamma C1),  C = (gamma-1)/gamma
        D = (A + B C2) C3,         E = C C3.
    """
    eps = family.check_param(eps)
    return _estimate_constants(family, eps, partition_levels(family, eps, 2))


def _estimate_constants(family: MapFamily, eps: float, levels):
    # the body of estimate_constants, given the partitions of depth 0..2
    eta0, eta1, eta2 = levels
    alpha = default_alpha(family)
    g = family.gamma

    a_pt = float(eta2.los[2])   # left endpoint of I_010 (index 0*4+1*2+0)
    d_pt = float(eta2.his[6])   # right endpoint of I_110 (index 1*4+1*2+0)
    if not (a_pt < 0.0 < d_pt):
        raise DomainError("level-2 partition collapsed; bad family")

    # row k samples I_k; each row is the 1-D linspace of its cell.  At
    # eps = 0 the cells close on the critical point, where row k takes the
    # one-sided derivative of side k (only the tent's depends on the side)
    xs = np.linspace(eta0.los, eta0.his, CONSTANT_SAMPLES, axis=1)
    fprime = np.abs(family.deriv(eps, xs, side=[[0], [1]]))
    c1 = float(np.min(fprime))
    if c1 <= 0.0:
        raise DomainError(
            "derivative bound degenerates on the depth-1 cylinders "
            "(critical point on their closure; requires eps > 0)")
    K1 = max(map(_holder_constant, xs, fprime, (alpha, alpha)))

    degenerate = family.piecewise_linear
    if degenerate:
        # no metric change for gamma = 1; the map is affine on each side
        c2 = c3 = 1.0
        K2 = K3 = 0.0
    else:
        m = _metric_for(family, eps)
        # rows: the open middle intervals (a, 0) and (0, d)
        xs = np.linspace((a_pt, 0.0), (0.0, d_pt), CONSTANT_SAMPLES + 2,
                         axis=1)[:, 1:-1]
        hp = m.h_prime(xs)
        c3 = float(np.min(hp))
        K3 = max(map(_holder_constant, xs, hp, (1.0, 1.0)))
        # f~'(h(x)) straight from x: no round trip through h^{-1}.  It
        # divides by (1+eps)^2 - f(x)^2, which is 0 where f(x) rounds to
        # the critical value, as |x|^40 does next to 0
        with np.errstate(divide="ignore", invalid="ignore"):
            td = np.abs(_tilde_deriv_at(family, eps, xs))
        if not np.all(np.isfinite(td) & (td > 0.0)):
            raise ConvergenceError(
                "conjugate derivative bound degenerates in binary64: f "
                "rounds to its critical value on the middle intervals")
        c2 = float(np.min(td))
        K2 = max(map(_holder_constant, m.h(xs), td, (alpha, alpha)))

    C1 = float(min(eta1.lengths[0], eta1.lengths[2]))   # |I_00|, |I_10|

    A = K1 / c1 + (K3 ** alpha) * K2 / c2 + K3 / c3 + (g - 1.0) / g
    B = (g - 1.0) / (g * C1)
    C = (g - 1.0) / g

    C0_fit, lam_fit, _, _ = decay_rate(family, eps, n_max=10)
    lam = min(lam_fit, 0.95)
    C0 = 2.0 * max(C0_fit, 1.0)          # factor-2 safety margin
    C2_sum = 2.0 * C0 / (1.0 - lam)
    C3_sum = (2.0 ** alpha) * C0 / (1.0 - lam ** alpha)

    return GoodFamilyConstants(
        c1=c1, K1=K1, c2=c2, K2=K2, c3=c3, K3=K3, C1=C1, alpha=alpha,
        A=A, B=B, C=C, C2_sum=C2_sum, C3_sum=C3_sum,
        D=(A + B * C2_sum) * C3_sum, E=C * C3_sum, degenerate=degenerate)


def _distortion(family: MapFamily, eps: float, sides, steps, x, y,
                constants: GoodFamilyConstants):
    """``distortion_check`` of many samples, as the arrays ``(lhs, rhs_orbit,
    rhs_uniform, passed)``: sample ``i`` takes the first ``steps[i]``
    branches of column ``i`` of ``sides`` (or of a 1-D ``sides``) from the
    pair ``(x[i], y[i])``."""
    dlo, dhi = family.domain
    d_xy = np.minimum(np.minimum(x, y) - dlo, dhi - np.maximum(x, y))
    j0 = np.abs(np.subtract(y, x))

    # g_w'(t) = 1 / f'(g_w(t)) by the chain rule over the backward orbit;
    # the steps past a sample's word add 0 to its sums
    orbit = apply_branches(family, eps, sides, np.stack([x, y], axis=-1))[1:]
    taken = np.arange(len(orbit))[:, None] < np.asarray(steps)
    d = np.abs(family.deriv(eps, orbit))
    log_ratio = np.where(taken, np.log(d[..., 1] / d[..., 0]), 0.0)
    lens = np.where(taken, np.abs(orbit[..., 1] - orbit[..., 0]), 0.0)
    k, a = constants, constants.alpha
    t = np.array([(k.A + k.B * np.sum(lens, axis=0) + k.C * j0 / d_xy)
                  * np.sum(lens ** a, axis=0), (k.D + k.E / d_xy) * j0 ** a])
    # the bounds grow like exp(D/d_xy); report inf instead of overflowing
    rhs_orbit, rhs_unif = np.exp(np.where(t < 700.0, t, np.inf))
    lhs = np.exp(np.sum(log_ratio, axis=0))
    slack = 1.0 + 1e-9
    return (lhs, rhs_orbit, rhs_unif,
            (lhs <= rhs_orbit * slack) & (lhs <= rhs_unif * slack))


def distortion_check(family: MapFamily, eps: float, word: Word,
                     x: float, y: float,
                     constants: GoodFamilyConstants) -> DistortionCheck:
    """Distortion of the composed inverse branch against both bounds.

    ``lhs = |g_w'(x)| / |g_w'(y)|`` by the chain rule over the backward
    orbit; ``rhs_orbit`` accumulates the backward-image sums explicitly,
    ``rhs_uniform`` absorbs them into the D, E constants.
    """
    return DistortionCheck(*(v.item() for v in _distortion(
        family, eps, word.bits[::-1], [len(word)], [x], [y], constants)))


def distortion_suite(family: MapFamily, eps: float, n_samples: int,
                     max_word_len: int = 15, seed: int = 0):
    """Seeded random (word, x, y) distortion checks inside eta_1 cells.

    The samples are drawn as arrays, one RNG call per quantity, and checked
    in one chain.  A sample whose cell the boundary distance leaves empty,
    or whose two points coincide, is dropped and not redrawn.
    Returns ``(n_passed, n_total, worst_margin, checks)`` where
    ``worst_margin`` is the smallest rhs/lhs ratio seen.
    """
    if n_samples < 1 or max_word_len < 1:
        raise ValueError("n_samples and max_word_len must be >= 1")
    rng = np.random.default_rng(seed)
    levels = partition_levels(family, eps, 2)
    constants = _estimate_constants(family, eps, levels)
    lo_ok = np.maximum(levels[1].los, family.domain[0] + MIN_BOUNDARY_DISTANCE)
    hi_ok = np.minimum(levels[1].his, family.domain[1] - MIN_BOUNDARY_DISTANCE)
    cell = rng.integers(0, len(lo_ok), n_samples)
    lo, hi = lo_ok[cell], hi_ok[cell]
    # rng.uniform's map of random(), which, unlike uniform, takes the
    # empty cells that keep drops below
    x, y = lo + (hi - lo) * rng.random((2, n_samples))
    steps = rng.integers(1, max_word_len + 1, n_samples)
    # column i of sides is the word of sample i, innermost branch first
    sides = rng.integers(0, 2, size=(max_word_len, n_samples))
    keep = (hi > lo) & (x != y)
    steps = steps[keep]
    lhs, rhs_orbit, rhs_unif, passed = _distortion(
        family, eps, sides[:steps.max(initial=0), keep], steps, x[keep],
        y[keep], constants)
    worst = np.min(np.minimum(rhs_orbit, rhs_unif) / lhs, initial=math.inf)
    return (int(np.sum(passed)), len(steps), float(worst),
            list(map(DistortionCheck, lhs.tolist(), rhs_orbit.tolist(),
                     rhs_unif.tolist(), passed.tolist())))
