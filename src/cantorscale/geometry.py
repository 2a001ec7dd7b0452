"""Gap geometry, the eps^(1/gamma) asymptotics and distortion bounds.

A cylinder ``I_w`` splits into its two children and a (possibly empty)
gap ``G_w``; the collection of ratios ``|G_w| / |I_w|`` is the gap
geometry of the invariant set.  For a family escaping at rate eps the
leading-gap ratio scales like ``eps^(1/gamma)`` with a uniform
determining constant, which ``asymptotic_gap_fit`` verifies by log-log
regression.  ``estimate_constants`` and ``distortion_suite`` implement
the Denjoy-Koebe distortion inequality.  Its bounds on ``f'`` and ``h'``
(``c1, K1, c3, K3``) are closed forms; those on the conjugate map's
derivative (``c2, K2``) are sampled on a grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .branches import (Partition, Word, _decay_fit, _refinement,
                       apply_branches, cylinder, partition_levels)
from .errors import ConvergenceError, DomainError
from .families import MapFamily, _EvenQuartic
from .metric import _metric_for, _tilde_deriv_at

#: pairs closer to the boundary than this are excluded from distortion
#: sampling: the uniform bound degenerates as d_xy -> 0.  A length on the
#: domain [-1, 1] that every family shares
MIN_BOUNDARY_DISTANCE = 1e-3

#: grid points per middle interval on which ``estimate_constants`` samples
#: the conjugate map's derivative for c2 and K2
CONSTANT_SAMPLES = 80

#: depth of the partition levels that the constants read: levels 0-2 for
#: the cells and the rest for the decay fit
_DECAY_DEPTH = 10


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


def gap_geometry(family: MapFamily, eps: float,
                 depth: int) -> GapGeometrySummary:
    """Aggregate gap and child ratios over all words of length <= depth."""
    min_gap, max_gap, min_child = math.inf, -math.inf, math.inf
    # the children of parent j at level k - 1 sit at 2j and 2j + 1 of level k.
    # Level k - 1 goes once its lengths are read, the gap ratio is formed in
    # r0's buffer, and the ratios go before the stream refines level k + 1
    for parent, level in pairwise(_refinement(family, eps, depth)):
        parent_len = parent.lengths
        del parent
        r0 = np.subtract(level.his[0::2], level.los[0::2])
        r0 /= parent_len
        r1 = np.subtract(level.his[1::2], level.los[1::2])
        r1 /= parent_len
        min_child = min(min_child, float(r0.min()), float(r1.min()))
        g = np.subtract(1.0, r0, out=r0)   # 1 - r0 - r1, clipped at 0
        g -= r1
        np.maximum(g, 0.0, out=g)
        min_gap = min(min_gap, float(g.min()))
        max_gap = max(max_gap, float(g.max()))
        del parent_len, r0, r1, g

    return GapGeometrySummary(depth=depth, min_gap_ratio=min_gap,
                              max_gap_ratio=max_gap,
                              min_child_ratio=min_child)


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


def _f_prime_holder(family: MapFamily, eps: float, ends: np.ndarray,
                    alpha: float) -> float:
    """The alpha-Hölder constant of |f'| on the depth-1 cells, whose ends
    are the rows of ``ends`` (row k is I_k, on side k).

    Tent: 0.  Power laws: |f'| = gamma (2+eps) u^(gamma-1) in u = |x|, on
    [t, 1] with t the cell's inner end; for gamma >= 2 its Lipschitz
    constant is |f''| at u = 1, and for gamma < 2 the quotient of u^alpha
    is largest between the two ends.  Quartics: |f'| = 2k u + 4m u^3, whose
    slope 2k + 12m u^2 is monotone in u, so largest in modulus at an end.
    """
    if family.piecewise_linear:
        return 0.0
    if isinstance(family, _EvenQuartic):
        km = np.array([family._coeffs(eps, side)[1:] for side in (0, 1)])
        return float(np.max(np.abs(2.0 * km[:, :1]
                                   + 12.0 * km[:, 1:] * ends * ends)))
    g = family.gamma
    if g >= 2.0:
        return g * (g - 1.0) * (2.0 + eps)
    t = np.min(np.abs(ends), axis=1)
    return float(g * (2.0 + eps) * np.max((1.0 - t ** alpha)
                                          / (1.0 - t) ** alpha))


def estimate_constants(family: MapFamily, eps: float) -> GoodFamilyConstants:
    """The constants of the bounds that ``distortion_suite`` checks.

    ``c1, K1`` bound ``f'`` on the depth-1 cylinders I_0 and I_1 (every
    backward image lives there), ``c2, K2`` bound the conjugate map's
    derivative on the h-images of the middle intervals, ``c3, K3`` bound
    ``h'`` there, and ``C1`` is the smaller of ``|I_00|`` and ``|I_10|``.
    ``c1, K1, c3, K3`` are closed forms; ``c2, K2`` are the minimum and the
    largest pairwise Hölder quotient on a ``CONSTANT_SAMPLES`` grid.
    ``C2_sum`` and ``C3_sum`` bound the backward-image sums, derived from
    the partition decay fit with a factor-2 safety margin.  The aggregate
    constants are

        A = K1/c1 + K3^alpha K2/c2 + K3/c3 + (gamma-1)/gamma
        B = (gamma-1)/(gamma C1),  C = (gamma-1)/gamma
        D = (A + B C2) C3,         E = C C3.
    """
    return _constants(family, eps)[0]


def _constants(family: MapFamily,
               eps: float) -> tuple[GoodFamilyConstants, Partition]:
    """``estimate_constants`` and the level-1 partition it reads."""
    eps = family.check_param(eps)
    levels = partition_levels(family, eps, _DECAY_DEPTH)
    eta0, eta1, eta2, *_ = levels
    alpha = default_alpha(family)
    g = family.gamma

    a_pt = float(eta2.los[2])   # left endpoint of I_010 (index 0*4+1*2+0)
    d_pt = float(eta2.his[6])   # right endpoint of I_110 (index 1*4+1*2+0)
    if not (a_pt < 0.0 < d_pt):
        raise DomainError("level-2 partition collapsed; bad family")

    # row k holds the ends of I_k, on side k.  |f'| is monotone or concave
    # in |x| on each cell (for the quartics, |x| times a factor 2k + 4m x^2
    # that stays positive), so it is least at an end.  At eps = 0 the cells
    # close on the critical point, where row k takes the one-sided
    # derivative of side k (only the tent's depends on the side)
    ends = np.stack([eta0.los, eta0.his], axis=1)
    c1 = float(np.min(np.abs(family.deriv(eps, ends, side=[[0], [1]]))))
    if c1 <= 0.0:
        raise DomainError(
            "derivative bound degenerates on the depth-1 cylinders "
            "(critical point on their closure; requires eps > 0)")
    K1 = _f_prime_holder(family, eps, ends, alpha)

    degenerate = family.piecewise_linear
    if degenerate:
        # no metric change for gamma = 1; the map is affine on each side
        c2 = c3 = 1.0
        K2 = K3 = 0.0
    else:
        m = _metric_for(family, eps)
        # h' = b ((1+eps)^2 - x^2)^(-p) is least at 0 and its slope h'' =
        # 2 p b x ((1+eps)^2 - x^2)^(-p-1) largest at the far end X
        p, far = (g - 1.0) / g, max(-a_pt, d_pt)
        c3 = m.b * (1.0 + eps) ** (-2.0 * p)
        K3 = 2.0 * p * m.b * far * ((1.0 + eps) ** 2 - far * far) ** (-p - 1.0)
        # rows: the open middle intervals (a, 0) and (0, d)
        xs = np.linspace((a_pt, 0.0), (0.0, d_pt), CONSTANT_SAMPLES + 2,
                         axis=1)[:, 1:-1]
        # f~'(h(x)) straight from x: no round trip through h^{-1}.  It
        # divides by (1+eps - f(x))(1+eps + f(x)), whose first factor
        # (2+eps) |x|^gamma underflows to 0 next to 0 for a large gamma, as
        # |x|^200 does
        with np.errstate(divide="ignore", invalid="ignore"):
            td = np.abs(_tilde_deriv_at(family, eps, xs))
        if not np.all(np.isfinite(td) & (td > 0.0)):
            raise ConvergenceError(
                "conjugate derivative bound degenerates in binary64: 1 + eps"
                " - f underflows to 0 on the middle intervals")
        c2 = float(np.min(td))
        K2 = max(map(_holder_constant, m.h(xs), td, (alpha, alpha)))

    C1 = float(min(eta1.lengths[0], eta1.lengths[2]))   # |I_00|, |I_10|

    A = K1 / c1 + (K3 ** alpha) * K2 / c2 + K3 / c3 + (g - 1.0) / g
    B = (g - 1.0) / (g * C1)
    C = (g - 1.0) / g

    C0_fit, lam_fit, _, _ = _decay_fit(levels)
    lam = min(lam_fit, 0.95)
    C0 = 2.0 * max(C0_fit, 1.0)          # factor-2 safety margin
    C2_sum = 2.0 * C0 / (1.0 - lam)
    C3_sum = (2.0 ** alpha) * C0 / (1.0 - lam ** alpha)

    return GoodFamilyConstants(
        c1=c1, K1=K1, c2=c2, K2=K2, c3=c3, K3=K3, C1=C1, alpha=alpha,
        A=A, B=B, C=C, C2_sum=C2_sum, C3_sum=C3_sum,
        D=(A + B * C2_sum) * C3_sum, E=C * C3_sum,
        degenerate=degenerate), eta1


def _distortion(family: MapFamily, eps: float, sides, steps, x, y,
                constants: GoodFamilyConstants):
    """The arrays ``(lhs, rhs_orbit, rhs_uniform, passed)``: sample ``i``
    takes the first ``steps[i]`` branches of column ``i`` of ``sides`` from
    ``(x[i], y[i])``; ``lhs = |g_w'(x)| / |g_w'(y)|`` by the chain rule,
    ``rhs_orbit`` sums the backward images and ``rhs_uniform`` absorbs the
    sums into the D, E constants.  A sample passes when ``lhs`` is within
    both bounds and at least one of them is finite."""
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
            (lhs <= rhs_orbit * slack) & (lhs <= rhs_unif * slack)
            & (np.isfinite(rhs_orbit) | np.isfinite(rhs_unif)))


def distortion_suite(family: MapFamily, eps: float, n_samples: int,
                     max_word_len: int = 15, seed: int = 0):
    """Seeded random (word, x, y) distortion checks inside eta_1 cells.

    The samples are drawn as arrays, one RNG call per quantity, and checked
    in one chain.  A sample whose cell the boundary distance leaves empty,
    or whose two points coincide, is dropped and not redrawn.
    Returns ``(n_passed, n_total, worst_margin, arrays)`` where
    ``worst_margin`` is the smallest rhs/lhs ratio seen and ``arrays`` is
    ``_distortion``'s ``(lhs, rhs_orbit, rhs_uniform, passed)`` of the
    kept samples, in draw order.
    """
    if n_samples < 1 or max_word_len < 1:
        raise ValueError("n_samples and max_word_len must be >= 1")
    rng = np.random.default_rng(seed)
    constants, eta1 = _constants(family, eps)
    lo_ok = np.maximum(eta1.los, family.domain[0] + MIN_BOUNDARY_DISTANCE)
    hi_ok = np.minimum(eta1.his, family.domain[1] - MIN_BOUNDARY_DISTANCE)
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
    arrays = lhs, rhs_orbit, rhs_unif, passed = _distortion(
        family, eps, sides[:steps.max(initial=0), keep], steps, x[keep],
        y[keep], constants)
    worst = np.min(np.minimum(rhs_orbit, rhs_unif) / lhs, initial=math.inf)
    return int(np.sum(passed)), len(steps), float(worst), arrays
