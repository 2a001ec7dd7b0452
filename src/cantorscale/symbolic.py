"""Codes of the topological Cantor set and points of its dual.

A ``Code`` is a right-extending sequence ``(.i0 i1 i2 ...)`` of phase-space
symbols; a ``DualPoint`` is a left-extending sequence ``(... i2 i1 i0.)``
of history symbols.  Both are represented finitely by an explicit block of
coordinates plus the ``period`` of the tail after it:

* ``(0,)``  -- the remaining coordinates are all 0 (tail ``"zeros"``),
* ``q``     -- the remaining coordinates repeat the block ``q``,
* ``()``    -- nothing is known past the explicit block (``"truncated"``).

Dual points are classified A (period ``(0,)``) or B (everything else); the
limiting scaling function of a map on the boundary of hyperbolicity jumps
exactly on the A points.

Coordinate order: index 0 is always ``i0``, the coordinate adjacent to the
point.  For a periodic tail the block ``q`` is given in the same order:
``q[0]`` is the first coordinate after the explicit block.
"""

from __future__ import annotations

from .branches import Word, cylinder
from .families import MapFamily

ZEROS = "zeros"
TRUNCATED = "truncated"


def _parse_tail(tail) -> tuple[int, ...]:
    """The period of a tail descriptor; all-zero periods collapse to ``(0,)``."""
    if tail in (ZEROS, TRUNCATED):
        return (0,) if tail == ZEROS else ()
    if isinstance(tail, (tuple, list)):
        q = tuple(int(b) for b in tail)
        if not q or any(b not in (0, 1) for b in q):
            raise ValueError(f"bad periodic tail {tail!r}")
        return q if any(q) else (0,)
    raise ValueError(f"bad tail descriptor {tail!r}")


class _SymbolSequence:
    """Shared finite representation: explicit coordinates + tail period."""

    def __init__(self, coords, tail=ZEROS):
        self.coords = tuple(int(b) for b in coords)
        if any(b not in (0, 1) for b in self.coords):
            raise ValueError("coordinates must be 0 or 1")
        self.period = _parse_tail(tail)

    def coord(self, k: int) -> int:
        """The k-th coordinate, expanding the tail as needed."""
        if k < len(self.coords):
            return self.coords[k]
        if not self.period:
            raise IndexError(
                f"coordinate {k} beyond truncation depth {len(self.coords)}")
        return self.period[(k - len(self.coords)) % len(self.period)]

    def shift(self):
        """Drop i0: the one-sided shift of a code, sigma* of a dual point."""
        if self.coords:
            return type(self)(self.coords[1:], self.period or TRUNCATED)
        if not self.period:
            raise IndexError("cannot shift an exhausted truncated sequence")
        return type(self)((), self.period[1:] + self.period[:1])

    @property
    def available(self) -> int | None:
        """Number of defined coordinates; None when unbounded."""
        return None if self.period else len(self.coords)

    def _key(self):
        return (type(self), self.coords, self.period)

    def __eq__(self, other):
        return isinstance(other, _SymbolSequence) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @staticmethod
    def _tail_text(q) -> str:
        """A tail period given in reading order: ``0^inf``, ``?`` or ``(q)^inf``."""
        if q == (0,):
            return "0^inf"
        return "(" + "".join(map(str, q)) + ")^inf" if q else "?"


class Code(_SymbolSequence):
    """A point of the topological Cantor set: ``(.i0 i1 i2 ...)``."""

    def word(self, depth: int) -> Word:
        """The cylinder label from the first depth+1 coordinates (i0 outermost)."""
        return Word(tuple(self.coord(k) for k in range(depth + 1)))

    def __str__(self) -> str:
        return ("." + "".join(map(str, self.coords)) + "|"
                + self._tail_text(self.period))


class DualPoint(_SymbolSequence):
    """A point of the dual Cantor set: ``(... i2 i1 i0.)``."""

    @property
    def klass(self) -> str:
        """'A' when the coordinates are eventually all zeros, else 'B'."""
        return "A" if self.period == (0,) else "B"

    def approximants(self, n: int) -> Word:
        """The word ``w_n i`` made of the first n+1 coordinates, i0 rightmost."""
        return Word(tuple(self.coord(n - j) for j in range(n + 1)))

    def __str__(self) -> str:
        return (self._tail_text(self.period[::-1]) + "|"
                + "".join(map(str, self.coords[::-1])) + ".")


def parse_dual_point(text: str) -> DualPoint:
    """Parse the textual rendering, e.g. ``0^inf|10110.`` or ``(10)^inf|1.``."""
    if "|" not in text:
        raise ValueError(f"bad dual point {text!r}: missing '|'")
    tail_txt, suffix_txt = text.split("|", 1)
    if suffix_txt[-1:] != "." or "." in suffix_txt[:-1]:
        raise ValueError(f"bad dual point {text!r}: expected one closing '.'")
    coords = tuple(int(ch) for ch in reversed(suffix_txt[:-1]))
    if tail_txt == "0^inf":
        tail = ZEROS
    elif tail_txt == "?":
        tail = TRUNCATED
    elif tail_txt.startswith("(") and tail_txt.endswith(")^inf"):
        tail = tuple(int(ch) for ch in reversed(tail_txt[1:-5]))
    else:
        raise ValueError(f"bad tail {tail_txt!r}")
    return DualPoint(coords, tail)


def point_from_code(family: MapFamily, eps: float, code: Code,
                    depth: int) -> tuple[float, float]:
    """The phase-space point with the given code.

    Returns ``(x, bound)``: the midpoint of the depth-``depth`` cylinder
    containing the point and half that cylinder's length as error bound.
    """
    cyl = cylinder(family, eps, code.word(depth))
    return 0.5 * (cyl.lo + cyl.hi), 0.5 * cyl.length
