"""The CSV cell kernel: ``repr``'s bytes for float64 arrays."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorscale
from cantorscale import _decimal

#: where the layout changes (positional for a decimal point at -3 ... 16),
#: the largest and smallest normal and the smallest subnormal
LAYOUT_EDGES = [1e-4, 9.999999999999999e-05, 1e-5, 1e15, 1e16,
                9999999999999998.0, 1.7976931348623157e308,
                2.2250738585072014e-308, 5e-324]


def assert_cells_are_repr(values):
    # one CRLF-ended line per value, for the values and for their negations:
    # a negation is the value's magnitude cell behind the toggled sign byte,
    # and its repr is the value's with its leading '-' toggled
    values = np.asarray(values, dtype=np.float64)
    source, keys, signs = _decimal.digits(values, ["x"])
    cells = _decimal.cells(source, keys)
    reprs = [*map(repr, values.tolist())]
    negated = [r[1:] if r[0] == "-" else "-" + r for r in reprs]
    # the cells are as wide as the widest magnitude, no wider
    assert cells.shape[1] == max(len(r.lstrip("-")) for r in reprs)
    for sign, want_cells in ((signs, reprs), (signs ^ ord("-"), negated)):
        got = bytes(_decimal.rows([sign, cells]))
        want = "".join(cell + "\r\n" for cell in want_cells).encode()
        if got != want:
            lines = zip(got.split(b"\r\n"), want.split(b"\r\n"), strict=True)
            bad = next((g, w) for g, w in lines if g != w)
            pytest.fail(f"cell {bad[0]!r}, repr {bad[1]!r}")


def test_cells_at_the_layout_edges_and_zeros():
    edges = np.asarray(LAYOUT_EDGES)
    below_max = edges[edges < 1.7976931348623157e308]
    assert_cells_are_repr([0.0, -0.0, *edges, *np.nextafter(edges, 0.0),
                           *np.nextafter(below_max, np.inf)])


def test_cells_of_every_power_of_two_and_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_cells_are_repr(np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


def test_cells_of_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, size=200_000,
                                              dtype=np.uint64)
    values = bits.view(np.float64)
    assert_cells_are_repr(values[np.isfinite(values)])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          allow_subnormal=True), min_size=1, max_size=40))
def test_cells_of_hypothesis_floats(values):
    assert_cells_are_repr(values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_value_is_refused_by_column(bad):
    with pytest.raises(cantorscale.ConvergenceError,
                       match="column 'hi' is not finite"):
        _decimal.digits([0.5, bad, 0.25], ["hi"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at,column", [(0, "lo"), (3, "lo"), (4, "hi"),
                                       (8, "length"), (11, "length")])
def test_one_search_over_three_columns_names_the_first_bad_one(bad, at,
                                                               column):
    # three columns of four values end to end: the first column holding a
    # non-finite value is named, however many later ones hold one too
    values = np.linspace(0.125, 1.5, 12)
    values[at] = bad
    values[at + 1:] = math.nan
    with pytest.raises(cantorscale.ConvergenceError,
                       match=f"column '{column}' is not finite"):
        _decimal.digits(values, ("lo", "hi", "length"))


def test_import_leaves_the_power_table_unbuilt():
    # the table costs milliseconds, which a run that writes no CSV should
    # not pay at import; the first CSV write builds it
    src = Path(cantorscale.__file__).parents[1]
    code = "\n".join([
        "import tempfile",
        "from pathlib import Path",
        "import numpy as np",
        "import cantorscale, cantorscale.cli as cli",
        "from cantorscale import _decimal",
        "assert _decimal._tables.cache_info().currsize == 0",
        "with tempfile.TemporaryDirectory() as out:",
        "    path = Path(out) / 'one.csv'",
        "    cli._write_csv(path, ['x'], [cli._float_cells([np.ones(1)], ['x'])])",
        "    assert path.read_bytes() == b'x\\r\\n1.0\\r\\n'",
        "assert _decimal._tables.cache_info().currsize == 1",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
