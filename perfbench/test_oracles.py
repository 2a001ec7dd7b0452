"""The benchmark's reference computations against exact values.

Run with ``python3 -m pytest perfbench/test_oracles.py``.  Nothing here
imports cantorscale: these tests hold the oracles to closed forms only.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles


def test_quadratic_chain_gives_one_half_at_b_points():
    for period in ((1, 0), (1,), (1, 1, 0), (1, 0, 0, 1)):
        bits = tuple(period[k % len(period)] for k in range(30))
        seq = oracles.mp_scaling_sequence(("quadratic", None), 0.0, bits)
        assert abs(seq[-1].ratio - 0.5) <= 1e-7


def test_quadratic_chain_gives_one_quarter_at_the_fixed_point():
    seq = oracles.mp_scaling_sequence(("quadratic", None), 0.0, (0,) * 40)
    assert abs(seq[-1].ratio - 0.25) <= 1e-10


def test_quadratic_chain_in_the_arcsin_metric_is_the_tent_map():
    bits = (1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1)
    seq = oracles.mp_scaling_sequence(("quadratic", None), 0.0, bits, gamma=2.0)
    assert all(abs(step.ratio - 0.5) <= 1e-30 for step in seq)


@pytest.mark.parametrize("text, exact", [
    ("0^inf|.", Fraction(1, 4)), ("0^inf|1.", Fraction(3, 4)),
    ("0^inf|10.", Fraction(7, 12)), ("0^inf|110.", Fraction(9, 20))])
def test_a_point_values(text, exact):
    assert oracles.quadratic_a_value(text) == exact
    suffix = [int(ch) for ch in reversed(text.split("|")[1].rstrip("."))]
    seq = oracles.mp_scaling_sequence(("quadratic", None), 0.0,
                                      tuple(suffix) + (0,) * 40)
    assert abs(seq[-1].ratio - float(exact)) <= 1e-9


@pytest.mark.parametrize("spec, eps", [
    (("figure6", -0.05), 0.0), (("figure6", 0.0), 0.0), (("figure6", 0.04), 0.0),
    (("asym_quadratic", 0.4), 0.0), (("asym_quadratic", -0.3), 0.2)])
def test_closed_form_roots_invert_the_map(spec, eps):
    kind, p = spec
    ys = np.linspace(-1.0, 1.0, 101)
    for side in (0, 1):
        x = oracles.inverse(spec, eps, side, ys)
        assert np.all(np.sign(x[:-1]) == (-1 if side == 0 else 1))
        x2 = x * x
        if kind == "figure6":
            fx = 1.0 - 2.0 * x2 + 8.0 * p * x2 * (1.0 - x2)
        else:
            k = (2.0 + eps) * (1.0 + p if side == 0 else 1.0 - p)
            fx = 1.0 + eps - k * x2 - (2.0 + eps - k) * x2 * x2
        assert np.max(np.abs(fx - ys)) <= 1e-14


def test_figure6_at_c_zero_is_the_quadratic():
    ys = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(oracles.inverse(("figure6", 0.0), 0.0, 1, ys),
                       oracles.inverse(("quadratic", None), 0.0, 1, ys),
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
def test_beta_form_of_b_at_gamma_two_is_arcsin(eps):
    assert abs(oracles.b_const(2.0, eps) - 1.0 / math.asin(1.0 / (1.0 + eps))) \
        <= 1e-14


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_metric_change_forms(gamma, eps):
    xs = np.linspace(-1.0, 1.0, 41)
    hx = oracles.h(gamma, eps, xs)
    assert hx[0] == -1.0 and hx[20] == 0.0 and hx[-1] == 1.0
    assert np.all(np.diff(hx) > 0)
    assert np.max(np.abs(oracles.h_inv(gamma, eps, hx) - xs)) <= 1e-12
    if gamma == 2.0:
        r = 1.0 + eps
        assert np.max(np.abs(hx - np.arcsin(xs / r) / math.asin(1.0 / r))) <= 1e-14
    mp = [float(oracles.mp_h(gamma, eps, x)) for x in (-0.7, 0.2, 0.9)]
    assert np.max(np.abs(oracles.h(gamma, eps, [-0.7, 0.2, 0.9]) - mp)) <= 1e-14


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
def test_tent_partition_and_moran_root(eps):
    lo, hi = oracles.partition_levels(("tent", None), eps, 10)[-1]
    assert np.allclose(hi - lo, 2.0 / (2.0 + eps) ** 11, rtol=1e-10, atol=0)
    delta = oracles.moran_dimension(eps)
    assert abs(math.fsum((((hi - lo) / 2.0) ** delta).tolist()) - 1.0) <= 1e-10


def test_asymmetry_is_one_without_beta():
    assert oracles.asymmetry(0.0) == 1.0
    assert abs(oracles.asymmetry(0.6) * oracles.asymmetry(-0.6) - 1.0) <= 1e-15
