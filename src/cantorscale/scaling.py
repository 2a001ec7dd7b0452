"""Scaling-function estimation on the dual Cantor set.

The scaling function at a dual point ``a* = (... i2 i1 i0.)`` is the limit
of the child/parent cylinder length ratios ``s(w_n i) = |I_{w_n i}| / |I_{w_n}|``
where ``w_n i`` collects the first n+1 coordinates of ``a*``.  The chain
used here starts with ``J = I_{i0}`` inside ``K = [-1, 1]`` and repeatedly
maps both intervals through ``g_{i1}, g_{i2}, ...``; after k steps
``J = I_{i_k ... i_0}`` and ``K = I_{i_k ... i_1}``, so each refinement
costs one branch application per endpoint.

On the boundary of hyperbolicity the limiting scaling function is
continuous on the B points and jumps on the A points; the jump data
(the tau ratios and both one-sided limit candidates) is computed by
``jump_at``.  ``gamma_recover`` and ``asymmetry`` extract the critical
exponent and the critical-point asymmetry from the same cylinder data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .branches import Word, apply_branches, cylinder, partition_levels
from .errors import ConvergenceError, DomainError
from .families import MapFamily
from .symbolic import DualPoint, ZEROS

#: cylinders shorter than this are dominated by binary64 rounding; the
#: approximant chain stops refining there and keeps the last reliable ratio.
#: A length on the domain [-1, 1] that every family shares
LENGTH_FLOOR = 1e-11

#: branches per ``apply_branches`` call of a chain that stops at the floor
_CHAIN_BLOCK = 16


@dataclass
class ScalingEstimate:
    dual_point: DualPoint
    depth: int
    effective_depth: int
    approximant_sequence: list[float]
    value: float
    error_bound: float
    converged: bool


@dataclass
class HolderFit:
    C: float
    lam: float
    residual: float
    degenerate: bool = False


@dataclass
class JumpAnalysis:
    a_n: list[float]
    b_n: list[float]
    c_n: list[float]
    tau1: float
    tau2: float
    value: float                       # s_0(a*) = tau2 / tau1
    one_sided_limits: tuple[float, float]
    converged: bool


def _chain_to_floor(family: MapFamily, eps: float, sides,
                    points) -> np.ndarray:
    """The rows of ``apply_branches`` before the first one below the floor.

    ``sides`` is any iterable of branches; it is read ``_CHAIN_BLOCK`` at a
    time, each block resuming from the last row, and reading stops at the
    first row (past row 0) whose first two points lie less than
    ``LENGTH_FLOOR`` apart.  That row and all after it are left out, so
    the first interval of every row returned is at least the floor long,
    and the cost follows the depth reached rather than the length of
    ``sides``.
    """
    rows = apply_branches(family, eps, (), points)
    sides = iter(sides)
    while block_sides := tuple(islice(sides, _CHAIN_BLOCK)):
        block = apply_branches(family, eps, block_sides, rows[-1])[1:]
        short = np.flatnonzero(np.abs(block[:, 1] - block[:, 0]) < LENGTH_FLOOR)
        rows = np.concatenate([rows, block[:short[0] if short.size else None]])
        if short.size:
            break
    return rows


def scale_at(family: MapFamily, eps: float, a: DualPoint, depth: int,
             metric=None) -> ScalingEstimate:
    """Approximant sequence and extrapolated scaling value at one dual point.

    ``metric`` switches to the conjugate map's cylinders (ratios of h-image
    lengths).  The value is the deepest approximant whose child cylinder
    is at least ``LENGTH_FLOOR`` long; the error bound is the largest of
    the last three successive deltas.  The estimate counts as not
    converged when three deltas one tail period apart (one apart for a
    zeros or truncated tail) are positive and non-decreasing.
    """
    coords_available = a.available
    n_max = depth if coords_available is None else min(depth, coords_available - 1)
    if n_max < 1:
        raise DomainError("dual point provides fewer than 2 coordinates")

    # row k holds J = I_{i_k ... i_0} and K = I_{i_k ... i_1}
    j0 = cylinder(family, eps, Word((a.coord(0),)))
    rows = _chain_to_floor(family, eps, (a.coord(k) for k in range(1, n_max + 1)),
                           [j0.lo, j0.hi, *family.domain])
    if metric is not None:
        rows = metric.h(rows)
    lengths = np.abs(rows[:, 1::2] - rows[:, 0::2])
    seq = (lengths[:, 0] / lengths[:, 1]).tolist()

    deltas = [abs(seq[i + 1] - seq[i]) for i in range(len(seq) - 1)]
    error_bound = max(deltas[-3:], default=0.0)
    # deltas of a periodic tail oscillate within a period, so compare
    # deltas at the same phase of it
    p = len(a.period) or 1
    spaced = deltas[-1 - 2 * p::p]
    converged = not (len(spaced) == 3
                     and 0 < spaced[0] <= spaced[1] <= spaced[2])
    return ScalingEstimate(
        dual_point=a, depth=depth, effective_depth=len(seq) - 1,
        approximant_sequence=seq, value=seq[-1],
        error_bound=error_bound, converged=converged)


def scaling_graph(family: MapFamily, eps: float, depth: int,
                  metric=None) -> np.ndarray:
    """The ratios ``s`` over all words of length depth+1, in x order.

    The abscissa embeds the dual point into [0, 1) with the innermost
    coordinate i0 as most significant bit, so graph continuity mirrors
    continuity on the dual Cantor set.  Entry ``k`` has ``x = k / 2^(depth+1)``
    and the word ``format(k, f"0{depth+1}b")[::-1]``.  ``metric`` switches
    to ratios of h-image lengths.
    """
    dlo, dhi = family.domain
    # endpoints by level; the domain is the parent of level 0
    ends = [([dlo], [dhi])] + [(level.los, level.his)
                               for level in partition_levels(family, eps, depth)]
    h = np.asarray if metric is None else metric.h
    parent_len, child_len = (h(hi) - h(lo) for lo, hi in ends[-2:])
    if not np.all(parent_len > 0.0):
        raise ConvergenceError(f"scaling_graph: depth {depth} divides by a "
                               f"level-{depth - 1} cell of length 0")
    s = child_len / np.repeat(parent_len, 2)
    # cell i sits at x = (bit reversal of i) / 2^(depth+1); reversing the
    # axes of the one-bit-per-axis view reverses the bits of the index
    return s.reshape((2,) * (depth + 1)).T.ravel()


def scaling_convergence(family: MapFamily, eps_grid, sample_points, depth: int):
    """Sup-distance of the sampled scaling function to the grid's first eps.

    Returns ``[(eps, sup |s_eps - s_eps1|)]`` for every eps in the grid,
    with ``eps1 = eps_grid[0]``.
    """
    eps_grid, sample_points = list(eps_grid), list(sample_points)
    if not sample_points:
        raise DomainError("scaling_convergence needs at least one sample point")
    vals = [np.asarray([scale_at(family, eps, a, depth).value
                        for a in sample_points]) for eps in eps_grid]
    return [(eps, float(np.max(np.abs(v - vals[0]))))
            for eps, v in zip(eps_grid, vals)]


def holder_fit(family: MapFamily, eps: float, n_pairs: int, depth: int,
               seed: int = 0) -> HolderFit:
    """Fit |s(a*) - s(b*)| <= C lambda^n on sampled pairs sharing n coordinates.

    For each n the upper envelope max |delta s| over the sampled pairs is
    fitted by least squares in log scale.  Returns the degenerate flag when
    all deltas vanish (constant scaling function).  The fit takes n = 2 ..
    depth - 3, so it needs ``depth >= 6`` for two n, and ``n_pairs >= 1``.
    """
    if depth < 6 or n_pairs < 1:
        raise DomainError(f"holder_fit needs depth >= 6 and n_pairs >= 1, "
                          f"got depth={depth}, n_pairs={n_pairs}")
    rng = np.random.default_rng(seed)
    ns = list(range(2, depth - 2))
    env = []
    for n in ns:
        worst = 0.0
        for _ in range(n_pairs):
            shared = rng.integers(0, 2, size=n)
            ca = np.concatenate([shared, [0], rng.integers(0, 2, size=depth - n)])
            cb = np.concatenate([shared, [1], rng.integers(0, 2, size=depth - n)])
            sa = scale_at(family, eps, DualPoint(ca, "truncated"), depth).value
            sb = scale_at(family, eps, DualPoint(cb, "truncated"), depth).value
            worst = max(worst, abs(sa - sb))
        env.append(worst)
    env_arr = np.asarray(env)
    if np.all(env_arr < 1e-11):
        return HolderFit(C=0.0, lam=0.0, residual=0.0, degenerate=True)
    mask = env_arr > 0
    slope, intercept = np.polyfit(np.asarray(ns)[mask], np.log(env_arr[mask]), 1)
    fit = intercept + slope * np.asarray(ns)[mask]
    residual = float(np.max(np.abs(np.log(env_arr[mask]) - fit)))
    return HolderFit(C=float(np.exp(intercept)), lam=float(np.exp(slope)),
                     residual=residual)


def _require_bh(family: MapFamily) -> float:
    """Boundary-of-hyperbolicity check: critical value at the top of the range."""
    eps = 0.0
    top = family.domain[1]
    if abs(family.critical_value(eps) - top) > 1e-9:
        raise DomainError(f"{family.kind}: not on the boundary of hyperbolicity")
    return eps


def jump_at(family: MapFamily, a: DualPoint, depth: int) -> JumpAnalysis:
    """Jump data of the limiting scaling function at an A point.

    For ``a* = (0_inf w i.)`` tracks ``b_n = |I_{0_n w}|``,
    ``a_n = |I_{0_n w i}|`` and ``c_n`` the distance from ``I_{0_n w}`` to
    the left endpoint.  The direct value is ``s_0(a*) = lim a_n / b_n
    (= tau2 / tau1)``; the two candidate one-sided limits are

        ((a'_n + c_n)^(1/g) - c_n^(1/g)) / ((b_n + c_n)^(1/g) - c_n^(1/g))

    and its complement to 1, where ``a'_n`` is the length of whichever
    child of ``I_{0_n w}`` is adjacent to the endpoint nearer the left
    endpoint (the power-law substitution that produces the formula assumes
    the child at distance exactly ``c_n``), evaluated at the deepest n
    with ``b_n >= LENGTH_FLOOR``.  When the tracked word is the all-zeros
    prefix, ``c_n = 0`` exactly and the formulas degenerate gracefully to
    ``(a_n / b_n)^(1/g)``.
    """
    eps = _require_bh(family)
    if a.klass != "A":
        raise DomainError("jump_at requires an A point (all-zeros tail)")
    g = family.gamma
    dlo, dhi = family.domain

    # outermost explicit zero coordinates merge into the zeros tail
    suffix = list(a.coords)
    while suffix and suffix[-1] == 0:
        suffix.pop()
    # suffix = [i0, i1, ..., im] with i_m = 1; empty for the pure (0_inf.)
    # point, whose jump data tracks a_n = |I_{0_{n+1}}|, b_n = |I_{0_n}|
    wi_bits = tuple(reversed(suffix)) if suffix else (0,)
    w_bits, i = wi_bits[:-1], wi_bits[-1]

    # chains of I_{0_n w}, I_{0_n w i} and its sibling I_{0_n w (1-i)},
    # which identifies the child at distance exactly c_n from the left end
    ci, co = (cylinder(family, eps, Word((b,))) for b in (i, 1 - i))
    head = apply_branches(family, eps, w_bits[::-1],
                          [dlo, dhi, ci.lo, ci.hi, co.lo, co.hi])[-1]
    ends = _chain_to_floor(family, eps, repeat(0, depth), head).reshape(-1, 3, 2)
    lo, length = ends.min(axis=2), np.ptp(ends, axis=2)
    b_seq = length[:, 0].tolist()
    a_seq = length[:, 1].tolist()
    c_seq = np.maximum(lo[:, 0] - dlo, 0.0).tolist()
    near = np.where(lo[:, 1] <= lo[:, 2], length[:, 1], length[:, 2]).tolist()
    s1_seq = [((n_len + c) ** (1 / g) - c ** (1 / g))
              / ((b_len + c) ** (1 / g) - c ** (1 / g))
              for n_len, b_len, c in zip(near, b_seq, c_seq)]
    direct_seq = [a_len / b_len for a_len, b_len in zip(a_seq, b_seq)]

    tau1 = b_seq[-1] / c_seq[-1] if c_seq[-1] > 0 else float("inf")
    tau2 = a_seq[-1] / c_seq[-1] if c_seq[-1] > 0 else float("inf")

    def cauchy(seq, tol=1e-5):
        tail = seq[-5:]
        return len(tail) >= 2 and max(tail) - min(tail) < tol * (1.0 + abs(tail[-1]))

    converged = cauchy(direct_seq) and cauchy(s1_seq)
    return JumpAnalysis(
        a_n=a_seq, b_n=b_seq, c_n=c_seq, tau1=tau1, tau2=tau2,
        value=direct_seq[-1],
        one_sided_limits=(s1_seq[-1], 1.0 - s1_seq[-1]),
        converged=converged)


def gamma_recover(family: MapFamily, depth: int) -> tuple[float, bool]:
    """Critical exponent from the scaling function alone.

    ``gamma = log s((0_inf.)) / log(lim over B points b* -> (0_inf.) of s(b*))``.
    The B-side limit is estimated along points ``(0_inf 1 0_k.)`` with
    ``k = depth // 2``.  Returns ``(gamma, degenerate)``; a piecewise
    linear family has a constant scaling function and is flagged.
    """
    _require_bh(family)
    probe = scale_at(family, 0.0, DualPoint((), ZEROS), depth)
    fixed = probe.value
    # split the usable depth between the inner zero block and the outer
    # approach so both convergence scales are exercised equally
    k = max(2, probe.effective_depth // 2)
    b_point = DualPoint((0,) * k + (1,), ZEROS)
    bside = scale_at(family, 0.0, b_point, depth).value
    if abs(fixed - bside) < 1e-9 or bside <= 0 or bside >= 1:
        return 1.0, True
    return float(np.log(fixed) / np.log(bside)), False


def asymmetry(family: MapFamily, depth: int) -> tuple[float, bool]:
    """|sv_f| = lim |I_{010_n}| / |I_{110_n}|, with a Cauchy check.

    Returns ``(value, converged)``.
    """
    _require_bh(family)
    eps = 0.0
    zeros = _chain_to_floor(family, eps, repeat(0, depth), family.domain)  # I_{0_n}
    mid = apply_branches(family, eps, (1,), zeros)[-1]                # I_{1 0_n}
    n0 = apply_branches(family, eps, (0,), mid)[-1]                   # I_{01 0_n}
    n1 = apply_branches(family, eps, (1,), mid)[-1]                   # I_{11 0_n}
    ratios = (np.abs(n0[:, 1] - n0[:, 0]) / np.abs(n1[:, 1] - n1[:, 0])).tolist()
    tail = ratios[-5:]
    converged = max(tail) - min(tail) < 1e-6 + 1e-4 * abs(tail[-1])
    return ratios[-1], converged
