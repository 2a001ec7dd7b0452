"""``repr``'s bytes for float64 arrays, and CSV rows joined from such cells.

``repr`` writes a binary64 value as the shortest decimal that reads back to
it.  ``digits`` finds those digits for a whole array with Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020), ported from the
JDK's ``DoubleToDecimal.toDecimal`` to ``uint64`` arrays: a few 64x64-bit
products per value and no big integers.  The JDK's guard ``s >= 100`` and
its tiny-subnormal branch, which serve Java's rule that a decimal has at
least two digits, are left out, so 5e-324 keeps its one digit.  One call
takes several equally long columns laid end to end, so a CSV chunk makes
one digit search for all its float columns.

A value is written as a sign byte, ``-`` or NUL, and the cell of its
magnitude, so the cell of ``-x`` is the cell of ``x`` after a sign byte
toggled.  ``cells`` lays the magnitudes out as CPython does, in one
gather: positionally when the decimal point falls 3 places left of the
first digit up to 16 right of it, otherwise as ``d[.ddd]e±XX[X]``; a zero
is ``0.0``.  The cells are NUL-padded to the widest of them, and ``rows``
joins columns of cells, each behind its sign bytes, into comma-separated,
CRLF-ended lines without the padding.

The tables are built on the first call, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConvergenceError

#: bytes per magnitude cell: 17 digits, the point, 'e', the exponent's sign
#: and three exponent digits
_WIDTH = 23
#: decimal exponents k that the power table covers (Schubfach's K_MIN, K_MAX)
_K_MIN, _K_MAX = -324, 292
#: a source row is 8 four-byte words: three zeros and the 17 digits, the
#: exponent's digits in 4, ``.-e+`` and 4 NULs; these are the places a cell
#: reads in it
_ZERO, _DIGIT, _EXP, _DOT, _MINUS, _E, _PLUS, _NUL = 0, 3, 21, 24, 25, 26, 27, 28
_SOURCE_WIDTH = 32
#: layouts of a cell: positional with the point at -3 ... 16 (the count of
#: places from the first digit), then the exponent forms +XX, +XXX, -XX, -XXX
_POINTS = range(-3, 17)
_LAYOUTS = len(_POINTS) + 4

#: uint64 scalars: an int64 array among uint64 ones makes float64
_C_MIN, _T_MASK = np.uint64(1 << 52), np.uint64(2**52 - 1)
_M32, _M63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)


def _flog2pow10(e):
    """floor(e log2 10) for |e| <= 1 233."""
    return e * 913_124_641_741 >> 38


def _layout_indices(n_digits: int, layout: int) -> list[int]:
    """The source-row places a magnitude cell reads, before its padding."""
    digits = [_DIGIT + j for j in range(n_digits)]
    out = []
    if layout < len(_POINTS):
        point = _POINTS[layout]
        if point <= 0:
            out += [_ZERO, _DOT] + [_ZERO] * -point + digits
        elif point < n_digits:
            out += digits[:point] + [_DOT] + digits[point:]
        else:  # the row's digits past n_digits are zeros
            out += [_DIGIT + j for j in range(point)] + [_DOT, _ZERO]
    else:
        exp_negative, three = divmod(layout - len(_POINTS), 2)
        out += digits[:1] + ([_DOT] + digits[1:] if n_digits > 1 else [])
        out += [_E, _MINUS if exp_negative else _PLUS]
        out += [_EXP, _EXP + 1, _EXP + 2][1 - three:]
    return out


@functools.cache
def _tables():
    """Read-only tables, built on the first call: Schubfach's
    ``g = floor(10^-k 2^(125 - floor(-k log2 10))) + 1`` for k in
    [K_MIN, K_MAX] as the rows ``g mod 2^63`` and ``g >> 63``; the four
    digits of 0 ... 9999 as ``uint32`` words; the places each layout key
    reads, NUL-padded to ``_WIDTH``; and the width of each key's cell."""
    powers = np.empty((2, _K_MAX - _K_MIN + 1), dtype=np.uint64)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        shift = 125 - _flog2pow10(-k)
        g = ((10 ** max(-k, 0) << max(shift, 0))
             // (10 ** max(k, 0) << max(-shift, 0)) + 1)
        powers[:, i] = g & (2**63 - 1), g >> 63
    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)),
                          dtype=np.uint32)
    layouts = [_layout_indices(n, layout)
               for n in range(1, 18) for layout in range(_LAYOUTS)]
    gather = np.array([places + [_NUL] * (_WIDTH - len(places))
                       for places in layouts], dtype=np.intp)
    widths = np.array([len(places) for places in layouts], dtype=np.intp)
    for table in (powers, gather, widths):
        table.flags.writeable = False
    return powers, quads, gather, widths


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products of uint64 arrays below 2^63,
    from their 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & _M32) >> 32)


def digits(values, names):
    """The source rows, layout keys and sign bytes of float64 ``values``.

    ``values`` holds the equally long columns ``names`` end to end.  Row i
    holds the shortest round-trip digits of ``|values[i]|`` left-aligned in
    17 places and zero-filled, the digits of its decimal exponent, ``.-e+``
    and NULs; key i picks the layout of that magnitude for ``cells``; sign
    byte i is ``-`` when value i has its sign bit set, else NUL.  A
    non-finite value raises ``ConvergenceError`` naming the first column
    that holds one.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    finite = np.isfinite(v)
    if not finite.all():
        column = names[np.argmin(finite) * len(names) // v.size]
        raise ConvergenceError(f"column {column!r} is not finite")
    powers, quads, _, _ = _tables()
    bits = v.view(np.uint64)
    t, bq = bits & _T_MASK, (bits >> 52 & 0x7FF).astype(np.int64)
    zero = (bits & _M63) == 0
    # |v| = c 2^q; a zero is searched as 5e-324 and set to 0 after
    c = t | np.where(bq > 0, _C_MIN, zero)
    q = np.maximum(bq, 1) - 1075
    # the rounding interval is [cbl, cbr] 2^(q - 2), narrower below c_min;
    # k = floor(log10 2^q), or floor(log10(3/4 2^q)) when narrower
    regular = (c != _C_MIN) | (bq <= 1)
    k = q * 661_971_961_083 - np.where(regular, 0, 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    cb = c << 2
    cps = np.stack([cb, cb - 1 - regular, cb + 2]) << h
    # rop: cp g 2^-127 rounded to odd, for cp = cb, cbl, cbr 2^h at once
    g0, g1 = np.take(powers, k - _K_MIN, axis=1)
    z = (g1 * cps >> 1) + _mulhi(g0, cps)
    vb, vbl, vbr = _mulhi(g1, cps) + (z >> 63) | ((z & _M63) + _M63) >> 63
    out = c & 1
    # the one multiple of 10^(k+1) in the interval, else the multiple of 10^k
    # in it (the nearer one, ties to even, when both s and s + 1 are)
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = (sp10 + 10 << 2) + out <= vbr
    uin = vbl + out <= s << 2
    win = (s + 1 << 2) + out <= vbr
    low = vb & 3
    nearer_s = (low < 2) | ((low == 2) & (s & 1 == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10),
                 np.where(np.where(uin != win, uin, nearer_s), s, s + 1))
    f[zero] = 0
    # f < 10^17 has n digits: |v| = 0.ddd 10^point, ddd = f 10^(17 - n)
    n = np.searchsorted(_POW10, f, side="right")
    point = np.where(zero, 1, k + n)
    # the digits in groups of 1, 4, 4, 4 and 4, then |point - 1|, each group
    # read from the table as four ASCII digits
    quad = np.empty((v.size, 6), dtype=np.intp)
    upper, lower = np.divmod((f * _POW10[17 - n]).view(np.int64), 10**8)
    quad[:, 0], middle = np.divmod(upper, 10**8)
    quad[:, 1], quad[:, 2] = np.divmod(middle, 10**4)
    quad[:, 3], quad[:, 4] = np.divmod(lower, 10**4)
    quad[:, 5] = np.abs(point - 1)
    words = np.zeros((v.size, _SOURCE_WIDTH // 4), dtype=np.uint32)
    words[:, :6] = quads[quad]
    words[:, 6] = np.frombuffer(b".-e+", dtype=np.uint32)
    source = words.view(np.uint8)
    significant = source[:, _DIGIT + 16:_DIGIT - 1:-1] != ord("0")
    n_digits = np.where(zero, 1, 17 - np.argmax(significant, axis=1))
    layout = np.where((point >= -3) & (point <= 16), point + 3,
                      len(_POINTS) + 2 * (point < 1) + (quad[:, 5] >= 100))
    keys = (n_digits - 1) * _LAYOUTS + layout
    signs = (bits >> 63).astype(np.uint8)
    signs *= ord("-")
    return source, keys, signs


def cells(source, keys):
    """The cells of ``digits``'s source rows and keys: ``repr`` of each
    magnitude, NUL-padded to the widest of them."""
    _, _, gather, widths = _tables()
    places = gather[:, :widths[keys].max(initial=0)][keys]
    places += np.arange(0, source.size, _SOURCE_WIDTH)[:, None]
    return source.ravel()[places]


def rows(columns) -> np.ndarray:
    """Equally long columns as comma-joined lines ended by CRLF, as
    ``csv.writer`` writes them, without NULs: the bytes, as a ``uint8``
    array.  A column is a ``uint8`` matrix of NUL-padded cells, one row per
    line, or a ``uint8`` vector of one byte per line (a sign, or NUL) that
    is written in front of the next column's cell with no comma.  No cell
    written here needs quoting."""
    # a matrix takes its cells and a comma, a vector its one byte
    widths = [column.shape[1] + 1 if column.ndim == 2 else 1
              for column in columns]
    table = np.empty((len(columns[0]), sum(widths) + 1), dtype=np.uint8)
    start = 0
    for column, width in zip(columns, widths):
        if column.ndim == 1:
            table[:, start] = column
        else:
            table[:, start:start + width - 1] = column
            table[:, start + width - 1] = ord(",")
        start += width
    table[:, start - 1:] = _CRLF
    table = table.ravel()
    return table[table != 0]
