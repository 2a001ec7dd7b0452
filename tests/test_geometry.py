"""Gap geometry, asymptotic gap laws and distortion bounds."""

import math

import numpy as np
import pytest

import cantorscale as cs
from cantorscale.geometry import GapGeometrySummary


def test_leading_gap_examples():
    g = cs.gap(cs.Quadratic(), 0.0, None)
    assert g.gap_ratio == 0.0
    g = cs.gap(cs.Quadratic(), 0.5, None)
    assert g.gap_ratio == pytest.approx(math.sqrt(0.5 / 2.5), abs=1e-12)
    assert g.gap_interval[1] - g.gap_interval[0] == pytest.approx(
        2 * math.sqrt(0.5 / 2.5), abs=1e-12)
    g = cs.gap(cs.Tent(), 1.0, None)
    assert g.gap_ratio == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_leading_gap_closed_form(gamma):
    fam = cs.GammaPower(gamma)
    for eps in (0.01, 0.1, 0.5):
        g = cs.gap(fam, eps, None)
        assert g.gap_ratio == pytest.approx((eps / (2 + eps)) ** (1 / gamma),
                                            abs=1e-12)


def test_gap_in_deeper_cylinder():
    g = cs.gap(cs.Quadratic(), 0.5, cs.Word((0, 1)))
    assert 0 < g.gap_ratio < 1
    assert g.child_ratios[0] + g.child_ratios[1] + g.gap_ratio == pytest.approx(
        1.0, abs=1e-12)
    cyl = cs.cylinder(cs.Quadratic(), 0.5, cs.Word((0, 1)))
    lo, hi = g.gap_interval
    assert cyl.lo < lo < hi < cyl.hi


def test_gap_geometry_summary():
    gg = cs.gap_geometry(cs.Quadratic(), 0.5, 6)
    assert gg.depth == 6
    assert 0 < gg.min_gap_ratio <= gg.max_gap_ratio < 1
    assert 0 < gg.min_child_ratio < 0.5
    gg0 = cs.gap_geometry(cs.Quadratic(), 0.0, 6)
    assert gg0.max_gap_ratio == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("family,expected,tol", [
    (cs.Quadratic(), 0.5, 0.02),
    (cs.GammaPower(3.0), 1.0 / 3.0, 0.02),
    (cs.Tent(), 1.0, 0.02),
])
def test_asymptotic_gap_fit_slope(family, expected, tol):
    eps_grid = np.logspace(-4, -1, 8)
    fit = cs.asymptotic_gap_fit(family, eps_grid)
    assert fit.slope == pytest.approx(expected, abs=tol)
    assert fit.band[0] <= fit.band[1]


def test_gap_fit_band_tightness():
    fit = cs.asymptotic_gap_fit(cs.Quadratic(), np.logspace(-4, -1, 8))
    assert fit.band[1] / fit.band[0] < 3.0


def test_gap_fit_depth_slopes():
    fit = cs.asymptotic_gap_fit(cs.Quadratic(), np.logspace(-4, -1, 8),
                                depth=3)
    assert fit.slope_max is not None and fit.slope_min is not None
    assert fit.slope_max == pytest.approx(0.5, abs=0.1)


def test_estimate_constants_quadratic_fixture():
    k = cs.estimate_constants(cs.Quadratic(), 0.5)
    assert not k.degenerate
    assert k.c1 == pytest.approx(math.sqrt(5.0), rel=1e-9)
    assert k.C1 == pytest.approx(0.11745513530473528, rel=1e-9)
    assert k.A == pytest.approx(3.0601604707770855, rel=1e-9)
    assert k.c1 > 0 and k.c2 > 0 and k.c3 > 0
    assert k.K1 > 0 and k.K2 > 0 and k.K3 > 0
    assert k.D > 0 and k.E > 0
    assert k.alpha > 0


def test_estimate_constants_tent_degenerate():
    k = cs.estimate_constants(cs.Tent(), 0.5)
    assert k.degenerate


def test_constants_continuity_in_eps():
    a = cs.estimate_constants(cs.Quadratic(), 0.2)
    b = cs.estimate_constants(cs.Quadratic(), 0.21)
    assert a.A == pytest.approx(b.A, rel=0.1)
    assert a.c1 == pytest.approx(b.c1, rel=0.1)


def test_distortion_check_equal_points():
    k = cs.estimate_constants(cs.Quadratic(), 0.2)
    chk = cs.distortion_check(cs.Quadratic(), 0.2, cs.Word((0, 1, 1)), 0.4, 0.4, k)
    assert chk.lhs == pytest.approx(1.0, abs=1e-12)
    assert chk.passed


def test_distortion_check_tent_unit():
    k = cs.estimate_constants(cs.Tent(), 0.5)
    chk = cs.distortion_check(cs.Tent(), 0.5, cs.Word((0, 1)), -0.5, 0.2, k)
    assert chk.lhs == pytest.approx(1.0, abs=1e-10)


def test_orbit_bound_tighter_than_uniform():
    k = cs.estimate_constants(cs.Quadratic(), 0.2)
    chk = cs.distortion_check(cs.Quadratic(), 0.2, cs.Word((0, 1, 0, 1)), -0.3, 0.5, k)
    assert chk.rhs_orbit <= chk.rhs_uniform
    assert chk.passed


def _orbit_sums(family, eps, word, x, y, alpha):
    """The backward-orbit sums of ``distortion_check``, one point at a time."""
    log_lhs = sum_len = sum_len_alpha = 0.0
    for bit in reversed(word.bits):
        x = family.inverse_branch(eps, bit, x)
        y = family.inverse_branch(eps, bit, y)
        log_lhs += math.log(abs(float(family.deriv(eps, y)))
                            / abs(float(family.deriv(eps, x))))
        sum_len += abs(y - x)
        sum_len_alpha += abs(y - x) ** alpha
    return math.exp(log_lhs), sum_len, sum_len_alpha


@pytest.mark.parametrize("family,eps", [
    (cs.Quadratic(), 0.2), (cs.GammaPower(1.5), 0.3), (cs.AsymQuadratic(-0.4), 0.1),
])
def test_distortion_check_matches_scalar_orbit(family, eps):
    k = cs.estimate_constants(family, eps)
    rng = np.random.default_rng(4)
    for _ in range(30):
        word = cs.Word(tuple(int(b) for b in rng.integers(0, 2, size=12)))
        x, y = rng.uniform(-0.9, 0.9, size=2)
        chk = cs.distortion_check(family, eps, word, float(x), float(y), k)
        lhs, sum_len, sum_len_alpha = _orbit_sums(family, eps, word, x, y,
                                                  k.alpha)
        assert chk.lhs == pytest.approx(lhs, rel=1e-14)
        d_xy = min(min(x, y) + 1.0, 1.0 - max(x, y))
        rhs = math.exp((k.A + k.B * sum_len + k.C * abs(y - x) / d_xy)
                       * sum_len_alpha)
        # scalar and array pow may round an orbit point differently; the
        # short lengths in the sums magnify that ulp, exp the sums' error
        assert chk.rhs_orbit == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
def test_distortion_suite_all_pass(eps):
    passed, total, worst, checks = cs.distortion_suite(
        cs.Quadratic(), eps, 500, seed=11)
    assert total == 500
    assert passed == total
    assert len(checks) == total
    assert worst >= 0


def test_min_child_ratio_stability():
    ratios = [cs.gap_geometry(cs.Quadratic(), 0.2, d).min_child_ratio
              for d in range(4, 9)]
    assert max(ratios) / min(ratios) < 1.2


def _gap_geometry_loop(family, eps, depth, include_table=False):
    """Reference: ``gap_geometry`` as one Python visit per parent cylinder."""
    levels = cs.partition_levels(family, eps, depth)
    dlo, dhi = family.domain
    min_gap, max_gap, min_child = math.inf, -math.inf, math.inf
    records = [] if include_table else None

    def visit(word_str, p_len, lo0, hi0, lo1, hi1):
        nonlocal min_gap, max_gap, min_child
        r0 = (hi0 - lo0) / p_len
        r1 = (hi1 - lo1) / p_len
        g = max(1.0 - r0 - r1, 0.0)
        min_gap, max_gap = min(min_gap, g), max(max_gap, g)
        min_child = min(min_child, r0, r1)
        if records is not None:
            records.append(cs.GapRecord(word_str, (min(hi0, hi1), max(lo0, lo1)),
                                        g, (r0, r1)))

    l0 = levels[0]
    visit("", dhi - dlo, float(l0.los[0]), float(l0.his[0]),
          float(l0.los[1]), float(l0.his[1]))
    for k in range(1, depth + 1):
        parent, child = levels[k - 1], levels[k]
        p_len = parent.lengths
        for j in range(len(parent)):
            visit(str(parent.word(j)), float(p_len[j]),
                  float(child.los[2 * j]), float(child.his[2 * j]),
                  float(child.los[2 * j + 1]), float(child.his[2 * j + 1]))
    return GapGeometrySummary(depth=depth, min_gap_ratio=min_gap,
                              max_gap_ratio=max_gap,
                              min_child_ratio=min_child, records=records)


@pytest.mark.parametrize("family,eps", [
    (cs.Quadratic(), 0.0), (cs.Quadratic(), 0.3), (cs.Tent(), 1.0),
    (cs.GammaPower(3.0), 0.2), (cs.AsymQuadratic(-0.45), 0.1),
    (cs.Figure6(-0.03), 0.0), (cs.Figure6(0.02, normalize=False), 0.0),
], ids=["quadratic-0", "quadratic-0.3", "tent", "gamma3", "asym", "figure6",
        "figure6-raw"])
@pytest.mark.parametrize("depth", [0, 1, 5, 9])
def test_gap_geometry_matches_the_per_parent_loop(family, eps, depth):
    for include_table in (False, True):
        assert (cs.gap_geometry(family, eps, depth, include_table)
                == _gap_geometry_loop(family, eps, depth, include_table))
