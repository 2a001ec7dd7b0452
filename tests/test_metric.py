"""The singular/smooth metric change, the conjugate map and its derivative."""

import math

import numpy as np
import pytest

import cantorscale as cs


def test_b_const_examples():
    assert cs.b_const(2.0, 0.0) == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert cs.b_const(2.0, 0.5) == pytest.approx(1.0 / math.asin(1.0 / 1.5),
                                                 abs=1e-12)


def test_h_examples():
    m = cs.MetricChange(2.0, 0.0)
    assert m.h(0.0) == pytest.approx(0.0, abs=1e-12)
    assert m.h(1.0 / math.sqrt(2)) == pytest.approx(0.5, abs=1e-12)
    assert m.h(-1.0) == pytest.approx(-1.0, abs=1e-10)
    assert m.h(1.0) == pytest.approx(1.0, abs=1e-10)
    m = cs.MetricChange(2.0, 0.5)
    assert m.h(1.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
def test_round_trip(gamma, eps):
    m = cs.MetricChange(gamma, eps)
    xs = np.linspace(-1.0, 1.0, 1000)
    ys = np.asarray(m.h(xs))
    assert np.all(np.diff(ys) > 0)
    back = np.asarray(m.h_inv(ys))
    assert np.max(np.abs(back - xs)) < 1e-10


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_h_and_h_inv_keep_array_shape(gamma):
    m = cs.MetricChange(gamma, 0.0)
    xs = np.asarray([[-1.0, -0.4, 0.0], [0.2, 0.7, 1.0]])
    ys = m.h(xs)
    assert ys.shape == (2, 3)
    assert ys.tolist() == [[m.h(x) for x in row] for row in xs.tolist()]
    back = m.h_inv(ys)
    assert back.shape == (2, 3)
    assert back.tolist() == [[m.h_inv(y) for y in row] for row in ys.tolist()]


def test_metric_requires_gamma_above_one():
    with pytest.raises(cs.DomainError):
        cs.MetricChange(1.0, 0.0)
    with pytest.raises(cs.DomainError):
        cs.tilde_eval(cs.Tent(), 0.0, 0.3)


def test_conjugate_quadratic_is_tent():
    q = cs.Quadratic()
    ys = np.linspace(-1.0, 1.0, 1000)
    vals = np.asarray(cs.tilde_eval(q, 0.0, ys))
    assert np.max(np.abs(vals - (1.0 - 2.0 * np.abs(ys)))) <= 1e-8


def test_tilde_eval_examples():
    q = cs.Quadratic()
    assert cs.tilde_eval(q, 0.0, 0.3) == pytest.approx(0.4, abs=1e-10)
    assert cs.tilde_eval(q, 0.0, -0.5) == pytest.approx(0.0, abs=1e-10)


def test_tilde_deriv_examples():
    q = cs.Quadratic()
    assert cs.tilde_deriv(q, 0.0, 0.3) == pytest.approx(-2.0, abs=1e-9)
    assert cs.tilde_deriv(q, 0.0, -1.0) == pytest.approx(2.0, abs=1e-9)
    assert cs.tilde_deriv(q, 0.0, 1.0) == pytest.approx(-2.0, abs=1e-9)
    assert cs.tilde_deriv(q, 0.0, 0.0, side=0) == pytest.approx(2.0, rel=1e-6)
    assert cs.tilde_deriv(q, 0.0, 0.0, side=1) == pytest.approx(-2.0, rel=1e-6)
    with pytest.raises(cs.DomainError):
        cs.tilde_deriv(q, 0.0, 0.0)


@pytest.mark.parametrize("family,eps", [
    (cs.Quadratic(), 0.3),
    (cs.GammaPower(3.0), 0.0),
    (cs.GammaPower(3.0), 0.2),
])
def test_tilde_deriv_matches_finite_differences(family, eps):
    m = cs.MetricChange(family.gamma, eps)
    h = 1e-6
    for y in [-0.9, -0.6, -0.3, -0.12, 0.17, 0.45, 0.8]:
        fd = (cs.tilde_eval(family, eps, y + h, metric=m)
              - cs.tilde_eval(family, eps, y - h, metric=m)) / (2 * h)
        d = cs.tilde_deriv(family, eps, y, metric=m)
        assert d == pytest.approx(fd, rel=1e-5)


def test_nonlinearity_examples():
    assert cs.nonlinearity_tilde_q(0.0, 0.37) == pytest.approx(0.0, abs=1e-14)
    assert cs.nonlinearity_tilde_q(0.1, 0.0) == pytest.approx(
        0.1 * 1.1 / (2 * 1.1 * 1.1), abs=1e-12)


def test_nonlinearity_linear_in_eps():
    # |n(q~)| <= C1 * eps on the middle region with a uniform constant
    for eps in (0.01, 0.05, 0.1, 0.2, 0.3):
        m = cs.MetricChange(2.0, eps)
        ys = np.asarray(m.h(np.linspace(-0.6, 0.6, 101)))
        c1 = float(np.max(np.abs(cs.nonlinearity_tilde_q(eps, ys)))) / eps
        assert 0.3 < c1 < 1.2


def test_tilde_scaling_quadratic_is_half_everywhere():
    q = cs.Quadratic()
    for a in (cs.DualPoint((), (1, 0)), cs.DualPoint((), "zeros"),
              cs.DualPoint((1, 0, 1), "zeros")):
        est = cs.tilde_scaling(q, 0.0, a, 20)
        assert est.value == pytest.approx(0.5, abs=1e-4)
    est = cs.tilde_scaling(cs.Figure6(0.0), 0.0, cs.DualPoint((), (1, 0)), 20)
    assert est.value == pytest.approx(0.5, abs=1e-4)


def test_tilde_scaling_equals_scaling_on_b_points():
    q = cs.Quadratic()
    for a in (cs.DualPoint((), (1, 0)), cs.DualPoint((), (1, 1, 0))):
        sf = cs.scale_at(q, 0.0, a, 25).value
        st = cs.tilde_scaling(q, 0.0, a, 25).value
        assert abs(sf - st) <= 1e-3


def test_decay_rate_equivalence():
    # partition decay of f and of the h-images agree
    family, eps = cs.Quadratic(), 0.3
    _, lam_f, _, _ = cs.decay_rate(family, eps, 10)
    m = cs.MetricChange(family.gamma, eps)
    levels = cs.partition_levels(family, eps, 10)
    lam_h = [float(np.max(np.asarray(m.h(p.his)) - np.asarray(m.h(p.los))))
             for p in levels]
    ns = np.arange(2, 11)
    slope = np.polyfit(ns, np.log(np.asarray(lam_h)[2:]), 1)[0]
    assert math.exp(slope) == pytest.approx(lam_f, abs=0.05)
