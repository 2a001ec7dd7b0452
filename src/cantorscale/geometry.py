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

import math
from dataclasses import dataclass

import numpy as np

from .branches import (Word, apply_branches, cylinder, decay_rate,
                       partition_levels)
from .errors import DomainError
from .families import GammaPower, MapFamily

#: pairs closer to the boundary than this are excluded from distortion
#: sampling: the uniform bound degenerates as d_xy -> 0
MIN_BOUNDARY_DISTANCE = 1e-3


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
    ``leading_ratio / eps^(1/gamma)`` over the grid.
    """
    eps_list = sorted(float(e) for e in eps_grid)
    if any(e <= 0 for e in eps_list):
        raise DomainError("asymptotic_gap_fit requires positive eps")
    leading, gmax, gmin = [], [], []
    for e in eps_list:
        leading.append(gap(family, e, None).gap_ratio)
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


def _holder_constant(xs: np.ndarray, vals: np.ndarray, alpha: float) -> float:
    """Max difference quotient |v(x)-v(y)| / |x-y|^alpha over grid pairs."""
    d = np.abs(np.subtract.outer(vals, vals))
    h = np.abs(np.subtract.outer(xs, xs)) ** alpha
    mask = h > 0
    return float(np.max(d[mask] / h[mask])) if np.any(mask) else 0.0


def default_alpha(family: MapFamily) -> float:
    """min(alpha', alpha''): 1 for the presets except gamma_power(gamma < 2)."""
    if isinstance(family, GammaPower) and family.gamma < 2.0:
        return family.gamma - 1.0
    return 1.0


def estimate_constants(family: MapFamily, eps: float,
                       samples: int = 80) -> GoodFamilyConstants:
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
    levels = partition_levels(family, eps, 2)
    eta1, eta2 = levels[1], levels[2]
    alpha = default_alpha(family)
    g = family.gamma

    a_pt = float(eta2.los[2])   # left endpoint of I_010 (index 0*4+1*2+0)
    d_pt = float(eta2.his[6])   # right endpoint of I_110 (index 1*4+1*2+0)
    if not (a_pt < 0.0 < d_pt):
        raise DomainError("level-2 partition collapsed; bad family")

    def fprime(xs):
        return np.abs(np.asarray(family.deriv(eps, xs)))

    eta0 = levels[0]
    xs_left = np.linspace(float(eta0.los[0]), float(eta0.his[0]), samples)
    xs_right = np.linspace(float(eta0.los[1]), float(eta0.his[1]), samples)
    c1 = float(min(np.min(fprime(xs_left)), np.min(fprime(xs_right))))
    if c1 <= 0.0:
        raise DomainError(
            "derivative bound degenerates on the depth-1 cylinders "
            "(critical point on their closure; requires eps > 0)")
    K1 = max(_holder_constant(xs_left, fprime(xs_left), alpha),
             _holder_constant(xs_right, fprime(xs_right), alpha))

    degenerate = family.piecewise_linear
    if degenerate:
        # no metric change for gamma = 1; the map is affine on each side
        c2 = c3 = 1.0
        K2 = K3 = 0.0
    else:
        from .metric import MetricChange, tilde_deriv
        m = MetricChange(g, eps)
        c2, K2, c3, K3 = math.inf, 0.0, math.inf, 0.0
        for lo_x, hi_x in ((a_pt, 0.0), (0.0, d_pt)):
            xs = np.linspace(lo_x, hi_x, samples + 2)[1:-1]
            hp = np.asarray(m.h_prime(xs))
            c3 = min(c3, float(np.min(hp)))
            K3 = max(K3, _holder_constant(xs, hp, 1.0))
            ys = np.asarray(m.h(xs))
            td = np.abs(np.asarray([tilde_deriv(family, eps, float(y), metric=m)
                                    for y in ys]))
            c2 = min(c2, float(np.min(td)))
            K2 = max(K2, _holder_constant(ys, td, alpha))

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


def distortion_check(family: MapFamily, eps: float, word: Word,
                     x: float, y: float,
                     constants: GoodFamilyConstants) -> DistortionCheck:
    """Distortion of the composed inverse branch against both bounds.

    ``lhs = |g_w'(x)| / |g_w'(y)|`` by the chain rule over the backward
    orbit; ``rhs_orbit`` accumulates the backward-image sums explicitly,
    ``rhs_uniform`` absorbs them into the D, E constants.
    """
    x_lo, x_hi = (x, y) if x <= y else (y, x)
    dlo, dhi = family.domain
    d_xy = min(x_lo - dlo, dhi - x_hi)
    j0 = x_hi - x_lo

    # g_w'(t) = 1 / f'(g_w(t)) by the chain rule over the backward orbit
    orbit = apply_branches(family, eps, word.bits[::-1], [x, y])[1:]
    d = np.abs(family.deriv(eps, orbit))
    lens = np.abs(orbit[:, 1] - orbit[:, 0])
    log_lhs = float(np.sum(np.log(d[:, 1] / d[:, 0])))
    sum_len = float(np.sum(lens))
    sum_len_alpha = float(np.sum(lens ** constants.alpha))

    lhs = math.exp(log_lhs)
    a = constants.alpha

    def safe_exp(t: float) -> float:
        # the bounds grow like exp(D/d_xy); report inf instead of overflowing
        return math.exp(t) if t < 700.0 else math.inf

    rhs_orbit = safe_exp((constants.A + constants.B * sum_len
                          + constants.C * j0 / d_xy) * sum_len_alpha)
    rhs_unif = safe_exp((constants.D + constants.E / d_xy) * j0 ** a)
    slack = 1.0 + 1e-9
    return DistortionCheck(
        lhs=lhs, rhs_orbit=rhs_orbit, rhs_uniform=rhs_unif,
        passed=(lhs <= rhs_orbit * slack and lhs <= rhs_unif * slack))


def distortion_suite(family: MapFamily, eps: float, n_samples: int,
                     max_word_len: int = 15, seed: int = 0,
                     constants: GoodFamilyConstants | None = None):
    """Seeded random (word, x, y) distortion checks inside eta_1 cells.

    Returns ``(n_passed, n_total, worst_margin, checks)`` where
    ``worst_margin`` is the smallest rhs/lhs ratio seen.
    """
    rng = np.random.default_rng(seed)
    if constants is None:
        constants = estimate_constants(family, eps)
    eta1 = partition_levels(family, eps, 1)[1]
    n_pass = 0
    worst = math.inf
    checks = []
    for _ in range(n_samples):
        cell = int(rng.integers(0, len(eta1)))
        lo, hi = float(eta1.los[cell]), float(eta1.his[cell])
        dlo, dhi = family.domain
        lo_ok = max(lo, dlo + MIN_BOUNDARY_DISTANCE)
        hi_ok = min(hi, dhi - MIN_BOUNDARY_DISTANCE)
        if hi_ok <= lo_ok:
            continue
        x, y = rng.uniform(lo_ok, hi_ok, size=2)
        if x == y:
            continue
        length = int(rng.integers(1, max_word_len + 1))
        word = Word(tuple(int(b) for b in rng.integers(0, 2, size=length)))
        chk = distortion_check(family, eps, word, float(x), float(y), constants)
        checks.append(chk)
        n_pass += chk.passed
        worst = min(worst, min(chk.rhs_orbit, chk.rhs_uniform) / chk.lhs)
    return n_pass, len(checks), worst, checks
