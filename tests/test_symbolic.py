"""Codes, dual points, shifts and the eventually-zero classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorscale as cs


def test_shift_dual_examples():
    ones = cs.DualPoint((), (1,))
    assert cs.shift_dual(ones) == ones
    p = cs.DualPoint((0, 1), "zeros")       # (0_inf 1 0.)
    assert cs.shift_dual(p) == cs.DualPoint((1,), "zeros")


def test_class_examples():
    assert cs.DualPoint((1, 0, 1, 1), "zeros").klass == "A"
    assert cs.DualPoint((), (1, 0)).klass == "B"
    assert cs.DualPoint((0, 1, 1), "truncated").klass == "B"
    # an all-zero period is the zeros tail in disguise
    assert cs.DualPoint((), (0, 0)).klass == "A"


def test_approximants_examples():
    a = cs.DualPoint((1,), "zeros")          # (0_inf 1.)
    assert str(cs.approximants(a, 3)) == "0001"
    b = cs.DualPoint((), (1, 0))             # periodic, i0 = 1
    assert str(cs.approximants(b, 3)) == "0101"
    c = cs.parse_dual_point("?|110.")
    assert str(cs.approximants(c, 2)) == "110"
    with pytest.raises(Exception):
        cs.approximants(c, 5)


def test_parse_and_render_round_trip():
    for text in ("0^inf|10110.", "(10)^inf|1.", "?|0110.", "0^inf|."):
        assert str(cs.parse_dual_point(text)) == text
    with pytest.raises(ValueError):
        cs.parse_dual_point("10110")


def test_point_from_code_examples():
    q = cs.Quadratic()
    x, bound = cs.point_from_code(q, 0.0, cs.Code((), "zeros"), 15)
    assert abs(x - (-1.0)) <= bound + 1e-12
    t = cs.Tent()
    x, bound = cs.point_from_code(t, 0.0, cs.Code((), (1,)), 20)
    assert x == pytest.approx(1.0 / 3.0, abs=1e-5)
    x, bound = cs.point_from_code(q, 0.0, cs.Code((), (1,)), 20)
    assert x == pytest.approx(0.5, abs=1e-5)


def test_shift_approximant_consistency():
    points = [
        cs.DualPoint((0, 1, 1), "zeros"),
        cs.DualPoint((1, 0), (1, 1, 0)),
        cs.DualPoint(tuple(np.random.default_rng(3).integers(0, 2, 25)),
                     "truncated"),
    ]
    for a in points:
        b = cs.shift_dual(a)
        for n in range(1, 21):
            w = cs.approximants(a, n)
            assert cs.approximants(b, n - 1).bits == w.bits[:-1]
        assert b.klass == a.klass


def test_error_bound_shrinks_at_decay_rate():
    t = cs.Tent()
    _, lam, _, _ = cs.decay_rate(t, 1.0, 10)
    code = cs.Code(tuple(np.random.default_rng(5).integers(0, 2, 21)),
                   "truncated")
    bounds = [cs.point_from_code(t, 1.0, code, d)[1] for d in range(9, 21)]
    ratios = np.asarray(bounds[1:]) / np.asarray(bounds[:-1])
    assert np.all(ratios >= lam - 0.1)
    assert np.all(ratios <= lam + 0.1)


def test_code_shift_periodic():
    c = cs.Code((), (1, 0))
    assert c.shift() == cs.Code((), (0, 1))
    assert str(cs.Code((0, 1), "zeros")) == ".01|0^inf"


@pytest.mark.parametrize("cls", [cs.Code, cs.DualPoint])
def test_shift_keeps_the_type_and_rotates_the_period(cls):
    cases = [
        (cls((1, 0, 1), "zeros"), cls((0, 1), "zeros")),
        (cls((), "zeros"), cls((), "zeros")),
        (cls((0,), (1, 1, 0)), cls((), (1, 1, 0))),
        (cls((), (1, 1, 0)), cls((), (1, 0, 1))),
        (cls((1, 0), "truncated"), cls((0,), "truncated")),
    ]
    for seq, shifted in cases:
        out = seq.shift()
        assert type(out) is cls and out == shifted
        n = 6 if seq.available is None else seq.available - 1
        assert [out.coord(k) for k in range(n)] == [seq.coord(k + 1) for k in range(n)]
    # three shifts bring a period-3 tail back to itself
    p = cls((), (1, 1, 0))
    assert p.shift().shift().shift() == p
    with pytest.raises(IndexError):
        cls((), "truncated").shift()


BITS = st.lists(st.integers(0, 1), max_size=8)
DUAL_POINTS = st.builds(cs.DualPoint, BITS, st.one_of(
    st.just("zeros"), st.just("truncated"),
    st.lists(st.integers(0, 1), min_size=1, max_size=5)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(a=DUAL_POINTS)
def test_dual_point_render_parse_and_shift(a):
    assert cs.parse_dual_point(str(a)) == a
    if a.available == 0:
        with pytest.raises(IndexError):
            cs.shift_dual(a)
        return
    b = cs.shift_dual(a)
    n = 12 if a.available is None else a.available - 1
    assert [b.coord(k) for k in range(n)] == [a.coord(k + 1) for k in range(n)]
    assert b.klass == a.klass
