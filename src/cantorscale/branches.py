"""Inverse branches, cylinder intervals and the nested partitions.

A finite binary word ``w = (j0, j1, ..., jm)`` is stored leftmost-first:
``j0`` labels the outermost branch, so the composed inverse branch is
``g_w = g_{j0} o g_{j1} o ... o g_{jm}`` and the cylinder ``I_w`` is the
image of the whole domain interval under ``g_w``.  The depth-n partition
holds all cylinders with words of length n + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
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

    def append(self, bit: int) -> "Word":
        """New innermost bit (rightmost)."""
        return Word(self.bits + (bit,))

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

    @property
    def orientation(self) -> int:
        return self.word.parity


def apply_branches(family: MapFamily, eps: float, sides,
                   points) -> np.ndarray:
    """Trajectory of ``points`` under the inverse branches ``sides``.

    ``sides`` lists the branches in the order they are applied, innermost
    first, so the cylinder of a word uses ``word.bits[::-1]``.  Row ``k``
    of the result, of shape ``(len(sides) + 1, *np.shape(points))``, holds
    the points after the first ``k`` branches.  An interval is carried as
    its two endpoints; a side-1 branch reverses their order.
    """
    rows = np.empty((len(sides) + 1,) + np.shape(points))
    rows[0] = points
    for k, side in enumerate(sides):
        rows[k + 1] = family.inverse_branch(eps, side, rows[k])
    return rows


def cylinder(family: MapFamily, eps: float, word: Word) -> Cylinder:
    """I_w = g_w(domain): the domain endpoints through the branches."""
    a, b = apply_branches(family, eps, word.bits[::-1], family.domain)[-1]
    return Cylinder(word=word, lo=float(min(a, b)), hi=float(max(a, b)))


class Partition:
    """All cylinders at one depth, as endpoint arrays indexed by word.

    The cylinder with word ``(b0, ..., bn)`` sits at index
    ``b0 * 2^n + ... + bn`` (leftmost bit most significant).
    """

    def __init__(self, depth: int, los: np.ndarray, his: np.ndarray):
        self.depth = depth
        self.los = los
        self.his = his

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
        bits = tuple((index >> (self.word_length - 1 - j)) & 1
                     for j in range(self.word_length))
        return Word(bits)


def _refine(family: MapFamily, eps: float,
            los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # prepend one outermost branch: level-(n+1) cylinders are g_b(I_w)
    lo0 = family.inverse_branch(eps, 0, los)
    hi0 = family.inverse_branch(eps, 0, his)
    lo1 = family.inverse_branch(eps, 1, his)
    hi1 = family.inverse_branch(eps, 1, los)
    return np.concatenate([lo0, lo1]), np.concatenate([hi0, hi1])


def partition_levels(family: MapFamily, eps: float, n: int) -> list[Partition]:
    """Partitions for every depth 0..n, built one branch application per level."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n > DEFAULT_DEPTH_BUDGET:
        raise BudgetExceededError(
            f"depth {n} exceeds budget {DEFAULT_DEPTH_BUDGET}")
    eps = family.check_param(eps)
    dlo, dhi = family.domain
    los = np.asarray([dlo])
    his = np.asarray([dhi])
    levels = []
    for depth in range(n + 1):
        los, his = _refine(family, eps, los, his)
        levels.append(Partition(depth, los, his))
    return levels


def partition(family: MapFamily, eps: float, n: int) -> Partition:
    """The depth-n partition: all 2^(n+1) cylinders with words of length n+1."""
    return partition_levels(family, eps, n)[-1]


def decay_rate(family: MapFamily, eps: float, n_max: int):
    """Least-squares exponential fit of the maximal cylinder lengths.

    Fits ``log lambda_n ~ log C + n log lam`` over n = 2..n_max and returns
    ``(C_fit, lambda_fit, residual, exponential)`` where ``exponential`` is
    False when the fit residual exceeds 0.1.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    levels = partition_levels(family, eps, n_max)
    ns = np.arange(2, n_max + 1)
    lam = np.asarray([levels[n].lambda_n for n in ns])
    slope, intercept = np.polyfit(ns, np.log(lam), 1)
    fit = intercept + slope * ns
    residual = float(np.max(np.abs(np.log(lam) - fit)))
    return float(np.exp(intercept)), float(np.exp(slope)), residual, residual <= 0.1
