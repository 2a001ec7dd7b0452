"""Inverse branches, cylinder intervals and the nested partitions.

A finite binary word ``w = (j0, j1, ..., jm)`` is stored leftmost-first:
``j0`` labels the outermost branch, so the composed inverse branch is
``g_w = g_{j0} o g_{j1} o ... o g_{jm}`` and the cylinder ``I_w`` is the
image of the whole domain interval under ``g_w``.  The depth-n partition
holds all cylinders with words of length n + 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

from .errors import BudgetExceededError, ConvergenceError
from .families import MapFamily

#: hard cap on partition depth (2^(depth+1) cylinders)
DEFAULT_DEPTH_BUDGET = 22


@dataclass(frozen=True)
class Word:
    """A finite branch label; bits leftmost-first (outermost branch first)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValueError("word length must be >= 1")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("word bits must be 0 or 1")

    @property
    def parity(self) -> int:
        """+1 for an even number of 1-bits, -1 for odd (sign of g_w')."""
        return -1 if sum(self.bits) % 2 else 1

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class Cylinder:
    word: Word
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo


def apply_branches(family: MapFamily, eps: float, sides,
                   points) -> np.ndarray:
    """Trajectory of ``points`` under the inverse branches ``sides``.

    ``sides`` lists the branches in the order they are applied, innermost
    first, so the cylinder of a word uses ``word.bits[::-1]``.  Row ``k``
    of the result, of shape ``(len(sides) + 1, *np.shape(points))``, holds
    the points after the first ``k`` branches.  An interval is carried as
    its two endpoints; a side-1 branch reverses their order.

    A step is one side for all points, or a row of one side per point
    (``sides`` of shape ``(steps, n)`` for points of shape ``(n, ...)``,
    broadcast over the trailing axes).  Only the first step is the checked
    ``inverse_branch``: a branch maps the domain into itself, so later steps
    run the unchecked ``_inverse`` straight into their rows.  A per-point
    step of a mirrored family runs one branch and multiplies its row by the
    step's signs, since ``g_0 = -g_1`` bit for bit and ``x * -1.0`` is
    ``-x`` exactly.
    """
    if per_point := np.ndim(sides) == 2:
        sides = np.asarray(sides)
        if not np.all((sides == 0) | (sides == 1)):
            raise ValueError(f"sides must be 0 or 1, got {np.ravel(sides)}")
        sides = np.reshape(sides == 1, sides.shape + (1,) * (np.ndim(points) - 1))
    elif bad := [side for side in sides if side not in (0, 1)]:
        raise ValueError(f"side must be 0 or 1, got {bad[0]}")
    rows = np.empty((len(sides) + 1,) + np.shape(points))
    rows[0] = points
    if per_point and family._mirrored:
        signs = np.where(sides, 1.0, -1.0)
    elif per_point:
        scratch = np.empty(np.shape(points))
    for k, side in enumerate(sides):
        y, row = rows[k], rows[k + 1, ...]  # a 0-d view for scalar points
        if k == 0:
            inverse = family.inverse_branch
            row[...] = (np.where(side, inverse(eps, 1, y), inverse(eps, 0, y))
                        if per_point else inverse(eps, side, y))
            eps = float(eps)  # as check_param returns it
        elif not per_point:
            family._inverse(eps, side, y, row)
        elif family._mirrored:
            np.multiply(family._inverse(eps, 1, y, row), signs[k], out=row)
        else:  # side 1 goes through scratch where the side is 1
            family._inverse(eps, 0, y, row)
            np.copyto(row, family._inverse(eps, 1, y, scratch), where=side)
    return rows


def cylinder(family: MapFamily, eps: float, word: Word) -> Cylinder:
    """I_w = g_w(domain): the domain endpoints through the branches."""
    a, b = apply_branches(family, eps, word.bits[::-1], family.domain)[-1]
    return Cylinder(word=word, lo=float(min(a, b)), hi=float(max(a, b)))


class Partition:
    """All cylinders at one depth, as endpoint arrays indexed by word.

    The cylinder with word ``(b0, ..., bn)`` sits at index
    ``b0 * 2^n + ... + bn`` (leftmost bit most significant).  When
    ``mirrored``, cell ``2^n + i`` is cell ``i`` negated bit for bit.
    """

    def __init__(self, depth: int, los: np.ndarray, his: np.ndarray,
                 mirrored: bool = False):
        self.depth = depth
        self.los = los
        self.his = his
        self.mirrored = mirrored

    @property
    def lengths(self) -> np.ndarray:
        return self.his - self.los

    @property
    def lambda_n(self) -> float:
        return float(np.max(self.lengths))

    @property
    def word_length(self) -> int:
        return self.depth + 1

    def __len__(self) -> int:
        return self.los.size

    def word(self, index: int) -> Word:
        """The word of cell ``index``; a negative index counts from the end,
        as for the endpoint arrays."""
        if not -len(self) <= index < len(self):
            raise IndexError(f"cell {index} out of range for {len(self)} cells")
        bits = tuple((index >> (self.word_length - 1 - j)) & 1
                     for j in range(self.word_length))
        return Word(bits)


def _refinement(family: MapFamily, eps: float, n: int):
    """The domain as a one-cell level -1, then the partitions of depth 0..n,
    each refined from the one before only when read; checked at the call."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n > DEFAULT_DEPTH_BUDGET:
        raise BudgetExceededError(
            f"depth {n} exceeds budget {DEFAULT_DEPTH_BUDGET}")
    eps = family.check_param(eps)
    inverse = family._inverse

    def refine(up: Partition, depth: int) -> Partition:
        # prepend one outermost branch: level-(n+1) cylinders are g_b(I_w),
        # each branch written straight into its half of the new level by
        # the unchecked inverse (eps is checked, and the branches map the
        # domain's ends into itself)
        m = len(up)
        los, his = np.empty(2 * m), np.empty(2 * m)
        inverse(eps, 0, up.los, out=los[:m])
        inverse(eps, 0, up.his, out=his[:m])
        if family._mirrored:  # g_1 = -g_0; a side-1 branch swaps lo and hi
            np.negative(his[:m], out=los[m:])
            np.negative(los[:m], out=his[m:])
        else:
            inverse(eps, 1, up.his, out=los[m:])
            inverse(eps, 1, up.los, out=his[m:])
        return Partition(depth, los, his, family._mirrored)

    domain = Partition(-1, *(np.asarray([end]) for end in family.domain))
    return accumulate(range(n + 1), refine, initial=domain)


def partition_levels(family: MapFamily, eps: float, n: int) -> list[Partition]:
    """Partitions for every depth 0..n, built one branch application per level."""
    return list(_refinement(family, eps, n))[1:]


def partition(family: MapFamily, eps: float, n: int) -> Partition:
    """The depth-n partition: all 2^(n+1) cylinders with words of length n+1."""
    return deque(_refinement(family, eps, n), maxlen=1).pop()


def invariant_suite(family: MapFamily, eps: float) -> dict:
    """Endpoint, nesting/additivity and shift-conjugacy checks on every cell
    of the partitions 0..8, as ``{suite: {"checks": n, "passed": bool}}``:
    each parent (the domain above level 0) is its two children and the gap
    >= 0 between them, and ``f`` maps the midpoint of cell ``i`` into cell
    ``i & (2^n - 1)`` of the level above, ``I_{sigma w}``."""
    tol = 1e-10
    dlo, dhi = family.domain
    ends = np.asarray(family.eval(eps, np.asarray(family.domain))) - dlo
    top = family.critical_value(eps) - (dhi + eps * (dhi - dlo) / 2.0)
    nest_ok = conj_ok = True
    cells = 0
    for up, level in pairwise(_refinement(family, eps, 8)):
        los, his = level.los.reshape(-1, 2), level.his.reshape(-1, 2)
        gaps = los.max(axis=1) - his.min(axis=1)
        nest_ok &= bool(np.all(gaps >= -tol)
                        and np.all(np.abs(los.min(axis=1) - up.los) <= tol)
                        and np.all(np.abs(his.max(axis=1) - up.his) <= tol))
        # row b, column j: cell b * 2^n + j, whose image is cell j above
        image = family.eval(eps, (level.los + level.his) / 2.0).reshape(2, -1)
        conj_ok &= bool(np.all(image >= up.los - tol)
                        and np.all(image <= up.his + tol))
        cells += len(level)
    return {"endpoints": {"checks": 3, "passed": bool(
                np.max(np.abs(ends)) < tol and abs(top) < 1e-9)},
            "nesting_additivity": {"checks": cells // 2, "passed": nest_ok},
            "shift_conjugacy": {"checks": cells, "passed": conj_ok}}


def _decay_fit(levels: list[Partition]):
    """Fit ``log lambda_n ~ log C + n log lam`` over n = 2..n_max of the
    levels 0..n_max; returns ``(C_fit, lambda_fit, residual, exponential)``,
    ``exponential`` being False when the fit residual exceeds 0.1.  A
    level whose every cell rounds to length 0 has no logarithm and raises
    ``ConvergenceError``."""
    ns = np.arange(2, len(levels))
    lam = np.asarray([levels[n].lambda_n for n in ns])
    if not np.all(lam > 0.0):
        n = ns[np.argmin(lam > 0.0)]
        raise ConvergenceError(f"decay fit: every level-{n} cell has length 0")
    slope, intercept = np.polyfit(ns, np.log(lam), 1)
    fit = intercept + slope * ns
    residual = float(np.max(np.abs(np.log(lam) - fit)))
    return float(np.exp(intercept)), float(np.exp(slope)), residual, residual <= 0.1
