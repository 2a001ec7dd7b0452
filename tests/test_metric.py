"""The singular/smooth metric change, the conjugate map and its derivative."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest

import cantorscale as cs
from cantorscale.branches import _decay_fit
from cantorscale.metric import _tilde_deriv_at


def test_b_const_examples():
    assert cs.MetricChange(2.0, 0.0).b == pytest.approx(2.0 / math.pi,
                                                        abs=1e-12)
    assert cs.MetricChange(2.0, 0.5).b == pytest.approx(
        1.0 / math.asin(1.0 / 1.5), abs=1e-12)


def test_h_examples():
    m = cs.MetricChange(2.0, 0.0)
    assert m.h(0.0) == pytest.approx(0.0, abs=1e-12)
    assert m.h(1.0 / math.sqrt(2)) == pytest.approx(0.5, abs=1e-12)
    assert m.h(-1.0) == pytest.approx(-1.0, abs=1e-10)
    assert m.h(1.0) == pytest.approx(1.0, abs=1e-10)
    m = cs.MetricChange(2.0, 0.5)
    assert m.h(1.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0, 40.0])
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


@pytest.mark.parametrize("gamma", [1.5, 3.0, 40.0])
def test_a_point_does_not_depend_on_the_points_evaluated_with_it(gamma):
    # 10^4 points span three blocks of series terms; every split of them,
    # and every single point, gives the same bits
    m, rng = cs.MetricChange(gamma, 0.1), np.random.default_rng(7)
    xs, ys = rng.uniform(-1.1, 1.1, 10**4), rng.uniform(-1.0, 1.0, 10**4)
    hx, hy = m.h(xs), m.h_inv(ys)
    for k in (1, 4095, 4096, 7000):
        assert np.array_equal(np.concatenate([m.h(xs[:k]), m.h(xs[k:])]), hx)
        back = np.concatenate([m.h_inv(ys[:k]), m.h_inv(ys[k:])])
        assert np.array_equal(back, hy)
    assert [m.h(x) for x in xs[::97]] == hx[::97].tolist()
    assert [m.h_inv(y) for y in ys[::97]] == hy[::97].tolist()


@pytest.mark.parametrize("gamma", [1.0 + 1e-9, 1e5])
@pytest.mark.parametrize("eps", [0.0, 1e-12, 0.3])
def test_round_trip_at_extreme_gamma(gamma, eps):
    # near gamma = 1 the metric is almost linear; at large gamma h climbs
    # within 1/gamma of the reach, where the inverse solves for w^(1/gamma) - 1
    m = cs.MetricChange(gamma, eps)
    xs = np.linspace(-1.0, 1.0, 1001)
    assert np.max(np.abs(m.h_inv(m.h(xs)) - xs)) <= 4 * np.spacing(1.0)
    assert (m.h(1.0), m.h(-1.0), m.h_inv(1.0), m.h_inv(-1.0)) == (1.0, -1.0,
                                                                  1.0, -1.0)


def _arcsin_h(m, x):
    """Reference: h for gamma = 2 as one out-of-place numpy expression."""
    x_arr = np.asarray(x, dtype=float)
    reach = 1.0 + m.eps
    if np.any(np.abs(x_arr) > reach + 1e-12):
        raise cs.DomainError(f"metric change defined on [-{reach}, {reach}]")
    x_arr = np.clip(x_arr, -reach, reach)
    y = np.arcsin(x_arr / reach) / m._asin_scale
    return float(y) if y.ndim == 0 else y


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_arcsin_h_is_the_reference_bit_for_bit(eps):
    m, reach = cs.MetricChange(2.0, eps), 1.0 + eps
    xs = np.random.default_rng(5).uniform(-reach - 1e-12, reach + 1e-12, 10**5)
    xs[:4] = -reach, reach, 0.0, -0.0
    want = _arcsin_h(m, xs)
    assert np.array_equal(m.h(xs).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("gamma", [2.0, 3.0])
@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_h_edges(gamma, eps):
    m, reach = cs.MetricChange(gamma, eps), 1.0 + eps
    message = re.escape(f"metric change defined on [-{reach}, {reach}]")
    for bad in (reach + 0.5, reach + 2e-12, -reach - 2e-12,
                [math.nan, reach + 2e-12],
                [[0.0, -reach - 2e-12], [math.nan, 0.5]]):
        for method in (m.h, m.h_prime):   # h' shares h's domain
            with pytest.raises(cs.DomainError, match=message):
                method(bad)
    with pytest.raises(cs.DomainError, match=r"h_inv defined on \[-1, 1\]"):
        m.h_inv(1.5)
    assert m.h(reach + 5e-13) == m.h(reach) and m.h(-reach - 5e-13) == m.h(-reach)
    assert math.isnan(m.h(math.nan)) and math.isnan(m.h_prime(math.nan))
    assert np.isnan(m.h(np.asarray([0.5, math.nan])))[1]
    empty = m.h(np.asarray([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    for x in (0.5, np.float64(0.5), np.asarray(0.5), 1):
        assert type(m.h(x)) is float
    if gamma == 2.0:
        for x in (0.5, -reach, -0.0, math.nan, reach + 5e-13):
            assert np.asarray(m.h(x)).view(np.uint64) == np.asarray(
                _arcsin_h(m, x)).view(np.uint64)


@pytest.mark.parametrize("gamma,eps", [(2.0, 0.0), (3.0, 0.2)])
def test_h_prime_clips_into_the_reach_as_h_does(gamma, eps):
    # h' = b ((1+eps)^2 - x^2)^(-p) tends to +inf at the reach; the slack
    # past it that h accepts and clips gives that limit, with no warning
    m, reach = cs.MetricChange(gamma, eps), 1.0 + eps
    for x in (reach, -reach, reach + 5e-13, -reach - 5e-13):
        assert m.h_prime(x) == math.inf
    assert np.array_equal(m.h_prime(np.asarray([-reach - 5e-13, 0.0, reach])),
                          [math.inf, m.h_prime(0.0), math.inf])
    inside = np.nextafter(reach, 0.0)
    assert m.h_prime(-inside) == m.h_prime(inside) < math.inf
    assert np.isnan(m.h_prime(np.asarray([math.nan, reach])))[0]


def test_metric_requires_gamma_above_one():
    for gamma in (1.0, math.inf, math.nan):
        with pytest.raises(cs.DomainError):
            cs.MetricChange(gamma, 0.0)
    with pytest.raises(cs.DomainError):
        cs.tilde_eval(cs.Tent(), 0.0, 0.3)


@pytest.mark.parametrize("gamma", [2.0, 3.0])
@pytest.mark.parametrize("eps", [-0.1, math.nan, math.inf])
def test_metric_rejects_eps_that_is_negative_or_not_finite(gamma, eps):
    with pytest.raises(cs.DomainError):
        cs.MetricChange(gamma, eps)


def test_conjugate_quadratic_is_tent():
    q = cs.Quadratic()
    ys = np.linspace(-1.0, 1.0, 1000)
    vals = np.asarray(cs.tilde_eval(q, 0.0, ys))
    assert np.max(np.abs(vals - (1.0 - 2.0 * np.abs(ys)))) <= 1e-8


def test_tilde_eval_examples():
    q = cs.Quadratic()
    assert cs.tilde_eval(q, 0.0, 0.3) == pytest.approx(0.4, abs=1e-10)
    assert cs.tilde_eval(q, 0.0, -0.5) == pytest.approx(0.0, abs=1e-10)


def _tilde_deriv(family, eps, y):
    """f~'(y), the chain rule at x = h^{-1}(y)."""
    x = cs.MetricChange(family.gamma, eps).h_inv(y)
    return float(_tilde_deriv_at(family, eps, x))


def test_tilde_deriv_examples():
    assert _tilde_deriv(cs.Quadratic(), 0.0, 0.3) == pytest.approx(-2.0,
                                                                   abs=1e-9)


@pytest.mark.parametrize("family,eps", [
    (cs.Quadratic(), 0.3),
    (cs.GammaPower(3.0), 0.0),
    (cs.GammaPower(3.0), 0.2),
])
def test_tilde_deriv_matches_finite_differences(family, eps):
    h = 1e-6
    for y in [-0.9, -0.6, -0.3, -0.12, 0.17, 0.45, 0.8]:
        fd = (cs.tilde_eval(family, eps, y + h)
              - cs.tilde_eval(family, eps, y - h)) / (2 * h)
        d = _tilde_deriv(family, eps, y)
        assert d == pytest.approx(fd, rel=1e-5)


def _mp_tilde_deriv(family, eps, x):
    """f~'(h(x)) of ``_tilde_deriv_at``'s formula in mpmath, on the library's
    binary64 reach fl(1 + eps), coefficients and exponent p."""
    reach, x = mpmath.mpf(1.0 + eps), mpmath.mpf(x)
    if family.kind == "gamma_power":
        g, slope = mpmath.mpf(family.gamma), mpmath.mpf(2.0 + eps)
        f = reach - slope * abs(x) ** g
        df = -g * slope * abs(x) ** (g - 1) * mpmath.sign(x)
    else:
        _, k, m = map(mpmath.mpf, family._coeffs(eps, int(x > 0)))
        f = reach - k * x ** 2 - m * x ** 4
        df = -2 * k * x - 4 * m * x ** 3
    p = mpmath.mpf((family.gamma - 1.0) / family.gamma)
    return df * (reach ** 2 - x ** 2) ** p / (reach ** 2 - f ** 2) ** p


@pytest.mark.parametrize("family,eps", [
    (cs.GammaPower(3.0), 0.05), (cs.AsymQuadratic(0.3), 0.05),
    (cs.AsymQuadratic(0.3), 0.2)], ids=["gamma3", "asym-0.05", "asym-0.2"])
@pytest.mark.parametrize("x", [1e-3, 1e-4, 3e-5, 1e-5, -1e-3, -1e-5])
def test_tilde_deriv_keeps_its_precision_next_to_the_critical_point(
        family, eps, x):
    # (1+eps)^2 - f^2 formed by subtraction lost 1e-16 / |x|^gamma of
    # relative precision: 1.3e-8 to 1.4e-2 for gamma = 3 at these x, 9e-13
    # to 1.3e-7 for AsymQuadratic(0.3); the product reads at most 2.3e-16
    with mpmath.workdps(40):
        want = _mp_tilde_deriv(family, eps, x)
        have = float(_tilde_deriv_at(family, eps, x))
        assert abs((have - want) / want) <= 1e-15


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
    levels = cs.partition_levels(family, eps, 10)
    _, lam_f, _, _ = _decay_fit(levels)
    m = cs.MetricChange(family.gamma, eps)
    lam_h = [float(np.max(np.asarray(m.h(p.his)) - np.asarray(m.h(p.los))))
             for p in levels]
    ns = np.arange(2, 11)
    slope = np.polyfit(ns, np.log(np.asarray(lam_h)[2:]), 1)[0]
    assert math.exp(slope) == pytest.approx(lam_f, abs=0.05)


# -- the incomplete-beta form against the 40-digit mpmath metric -------------

ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
BETA_GAMMAS = [1.5, 2.0001, 3.0, 4.0]
BETA_EPS = [0.0, 1e-9, 1e-6, 0.1, 0.5]


def _oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mp_h(gamma, eps):
    """mpmath h with the library's float reach fl(1 + eps) as its singularity."""
    mp_h = _oracles().mp_h
    eps_mp = mpmath.mpf(1.0 + eps) - 1
    return lambda x: mp_h(gamma, eps_mp, mpmath.mpf(float(x)))


@pytest.fixture
def mp40():
    with mpmath.workdps(40):
        yield


def _ulps(value, reference):
    return abs(float(mpmath.mpf(float(value)) - reference)) / np.spacing(
        abs(float(reference)))


@pytest.mark.parametrize("gamma", BETA_GAMMAS)
@pytest.mark.parametrize("eps", BETA_EPS)
@pytest.mark.usefixtures("mp40")
def test_h_and_b_match_mpmath(gamma, eps):
    m, mp_h, reach = cs.MetricChange(gamma, eps), _mp_h(gamma, eps), 1.0 + eps
    a, c, r = mpmath.mpf(1) / 2, 1 / mpmath.mpf(gamma), mpmath.mpf(reach)
    b = 2 / (r ** (2 * c - 1) * mpmath.beta(a, c)
             * mpmath.betainc(a, c, 0, 1 / r ** 2, regularized=True))
    assert m.b == pytest.approx(float(b), rel=2e-15, abs=0.0)
    # points within 1e-8 of the reach take the complement branch
    near = reach - np.asarray([1e-8, 1e-9, 1e-10, 1e-12])
    xs = np.concatenate([np.linspace(-reach, reach, 41), near, -near])
    for x, y in zip(xs, m.h(xs)):
        assert _ulps(y, mp_h(x)) <= 16, x


@pytest.mark.parametrize("gamma", [8.0, 20.0, 40.0, 100.0])
@pytest.mark.parametrize("eps", [0.0, 1e-9])
@pytest.mark.usefixtures("mp40")
def test_h_matches_mpmath_next_to_the_series_split(gamma, eps):
    # each series reaches its largest term ratio, 1/2, at the split z = 1/2,
    # where its truncation error peaks; at large gamma its coefficients fall
    # slowest.  56 terms keep h within 4 ulps there (44 would not)
    m, mp_h, reach = cs.MetricChange(gamma, eps), _mp_h(gamma, eps), 1.0 + eps
    offsets = np.asarray([1e-2, 1e-3, 1e-4, 1e-6, 1e-9, 1e-12])
    xs = reach * math.sqrt(0.5) * np.concatenate([1 - offsets, 1 + offsets])
    for x, y in zip(xs, m.h(xs)):
        assert _ulps(y, mp_h(x)) <= 4, x


@pytest.mark.parametrize("gamma", BETA_GAMMAS)
@pytest.mark.parametrize("eps", BETA_EPS)
@pytest.mark.usefixtures("mp40")
def test_h_inv_matches_mpmath(gamma, eps):
    # one Newton step of the mpmath h from x = h_inv(y) gives x's error
    m, mp_h = cs.MetricChange(gamma, eps), _mp_h(gamma, eps)
    r2, p = mpmath.mpf(1.0 + eps) ** 2, 1 - 1 / mpmath.mpf(gamma)
    near = 1.0 - np.asarray([1e-8, 1e-10, 1e-12])
    ys = np.concatenate([np.linspace(-1.0, 1.0, 41), near, -near])
    for y, x in zip(ys, m.h_inv(ys)):
        if eps == 0.0 and abs(x) == 1.0:
            # h' is infinite at the reach: the preimage is in the last ulp
            assert np.sign(x) == np.sign(y)
            assert abs(mp_h(np.nextafter(abs(x), 0.0))) <= abs(y)
            continue
        h_prime = m.b * (r2 - mpmath.mpf(float(x)) ** 2) ** -p
        err = float((mpmath.mpf(float(y)) - mp_h(x)) / h_prime)
        assert abs(err) <= 16 * np.spacing(max(abs(x), 1e-300)), y


@pytest.mark.parametrize("gamma", BETA_GAMMAS)
@pytest.mark.parametrize("eps", BETA_EPS)
@pytest.mark.parametrize("length", [1e-4, 1e-7])
@pytest.mark.usefixtures("mp40")
def test_short_h_images_match_mpmath(gamma, eps, length):
    # h(x + L) - h(x) carries the error of its two ends: the bound is twice
    # the pointwise one, in ulps of h, so it scales as 1 / (h-image length)
    m, mp_h, reach = cs.MetricChange(gamma, eps), _mp_h(gamma, eps), 1.0 + eps
    xs = np.concatenate([np.linspace(-reach, reach - length, 21),
                         [reach - length - 1e-8, reach - 2.0 * length]])
    ends = xs + length
    lo, hi = m.h(xs), m.h(ends)
    for x, x_end, y_lo, y_hi in zip(xs, ends, lo, hi):
        exact = mp_h(x_end) - mp_h(x)
        ulp = np.spacing(max(abs(y_lo), abs(y_hi)))
        assert abs(float((y_hi - y_lo) - exact)) <= 32 * ulp, x


def test_the_package_imports_no_scipy(tmp_path):
    # one fresh interpreter: the package, its CLI and a gamma != 2 metric
    # change with h and h^{-1}, in the library and through metric-check,
    # load no scipy module at all
    code = textwrap.dedent("""
        import json, sys
        import cantorscale, cantorscale.cli

        quad = cantorscale.Quadratic()
        cantorscale.hd_estimate(quad, 0.1, 8)
        cantorscale.gap_geometry(quad, 0.1, 4)
        m = cantorscale.MetricChange(2.0, 0.1)
        m.h(0.5), m.h_inv(0.5)
        cantorscale.estimate_constants(cantorscale.GammaPower(3.0), 0.2)
        for i, config in enumerate([
                {"command": "partition", "family": {"kind": "quadratic"},
                 "epsilon": 0.1, "depth": 4},
                {"command": "metric-check", "epsilon": 0.1, "family": {
                    "kind": "gamma_power", "params": {"gamma": 3.0}}}]):
            cfg = f"{sys.argv[1]}/cfg{i}.json"
            with open(cfg, "w") as fh:
                json.dump(config, fh)
            assert cantorscale.cli.main(["--config", cfg,
                                         "--out", sys.argv[1]]) == 0
        m = cantorscale.MetricChange(3.0, 0.1)
        values = [m.b, m.h(0.5), m.h_inv(0.5)]
        scipy = [name for name in sys.modules if name.split(".")[0] == "scipy"]
        assert not scipy, scipy
        print(json.dumps(values))
    """)
    src = str(Path(cs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         check=True, timeout=60, capture_output=True, text=True)
    m = cs.MetricChange(3.0, 0.1)
    # json writes floats as their shortest round-trip repr: equal means bitwise
    assert json.loads(out.stdout.splitlines()[-1]) == [m.b, m.h(0.5),
                                                       m.h_inv(0.5)]
