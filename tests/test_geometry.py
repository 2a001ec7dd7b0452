"""Gap geometry, asymptotic gap laws and distortion bounds."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import cantorscale as cs
from cantorscale import geometry
from cantorscale.branches import _decay_fit
from cantorscale.geometry import (CONSTANT_SAMPLES, GapGeometrySummary,
                                  GoodFamilyConstants, _holder_constant)
from cantorscale.metric import _tilde_deriv_at


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
    assert k.K1 == 5.0   # gamma (gamma - 1) (2 + eps)
    assert k.C1 == pytest.approx(0.11745513530473528, rel=1e-9)
    assert k.A == pytest.approx(3.0685184317291423, rel=1e-9)
    assert k.c1 > 0 and k.c2 > 0 and k.c3 > 0
    assert k.K1 > 0 and k.K2 > 0 and k.K3 > 0
    assert k.D > 0 and k.E > 0
    assert k.alpha > 0


def test_estimate_constants_tent_degenerate():
    k = cs.estimate_constants(cs.Tent(), 0.5)
    assert k.degenerate


def test_estimate_constants_tent_at_eps_zero_takes_one_sided_slopes():
    # the depth-1 cells close on the critical point, where |f'| is 2 + eps
    # from either side
    assert cs.estimate_constants(cs.Tent(), 0.0).c1 == 2.0


@pytest.mark.parametrize("eps", [0.5, 1.0])
def test_estimate_constants_refuses_a_derivative_bound_lost_to_rounding(eps):
    # |x|^200 underflows to 0 next to 0, so f~' divides by 0 there; the
    # refusal comes before the division's RuntimeWarning
    with pytest.raises(cs.ConvergenceError, match="degenerates in binary64"):
        cs.estimate_constants(cs.GammaPower(200.0), eps)


def test_estimate_constants_at_gamma_40_bounds_or_refuses_the_decay():
    # f rounds to its critical value next to 0, but 1 + eps - f does not
    # underflow, so f~' keeps its bound: constants at eps = 0.5.  At
    # eps = 1 every level-10 cell rounds to length 0, which has no decay
    # rate to fit, and the refusal comes before log(0)'s RuntimeWarning
    k = cs.estimate_constants(cs.GammaPower(40.0), 0.5)
    assert np.isfinite(k.D) and k.c2 > 0.0 and k.K2 > 0.0
    with pytest.raises(cs.ConvergenceError,
                       match="decay fit: every level-10 cell has length 0"):
        cs.estimate_constants(cs.GammaPower(40.0), 1.0)


def test_constants_continuity_in_eps():
    a = cs.estimate_constants(cs.Quadratic(), 0.2)
    b = cs.estimate_constants(cs.Quadratic(), 0.21)
    assert a.A == pytest.approx(b.A, rel=0.1)
    assert a.c1 == pytest.approx(b.c1, rel=0.1)


def _check_one(family, eps, word, x, y, constants):
    """``geometry._distortion`` of the one sample (word, x, y), as the floats
    ``(lhs, rhs_orbit, rhs_uniform, passed)``."""
    sides = [[b] for b in word.bits[::-1]]   # one column, innermost first
    return [v.item() for v in geometry._distortion(
        family, eps, sides, [len(word)], [x], [y], constants)]


def test_distortion_check_equal_points():
    k = cs.estimate_constants(cs.Quadratic(), 0.2)
    lhs, _, _, passed = _check_one(cs.Quadratic(), 0.2, cs.Word((0, 1, 1)),
                                   0.4, 0.4, k)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert passed


def test_distortion_check_tent_unit():
    k = cs.estimate_constants(cs.Tent(), 0.5)
    lhs = _check_one(cs.Tent(), 0.5, cs.Word((0, 1)), -0.5, 0.2, k)[0]
    assert lhs == pytest.approx(1.0, abs=1e-10)


def test_orbit_bound_tighter_than_uniform():
    k = cs.estimate_constants(cs.Quadratic(), 0.2)
    _, rhs_orbit, rhs_uniform, passed = _check_one(
        cs.Quadratic(), 0.2, cs.Word((0, 1, 0, 1)), -0.3, 0.5, k)
    assert rhs_orbit <= rhs_uniform
    assert passed


def _orbit_sums(family, eps, word, x, y, alpha):
    """The backward-orbit sums of ``_distortion``, one point at a time."""
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
        got_lhs, got_rhs_orbit, _, _ = _check_one(family, eps, word, float(x),
                                                  float(y), k)
        lhs, sum_len, sum_len_alpha = _orbit_sums(family, eps, word, x, y,
                                                  k.alpha)
        assert got_lhs == pytest.approx(lhs, rel=1e-14)
        d_xy = min(min(x, y) + 1.0, 1.0 - max(x, y))
        rhs = math.exp((k.A + k.B * sum_len + k.C * abs(y - x) / d_xy)
                       * sum_len_alpha)
        # scalar and array pow may round an orbit point differently; the
        # short lengths in the sums magnify that ulp, exp the sums' error
        assert got_rhs_orbit == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
def test_distortion_suite_all_pass(eps):
    passed, total, worst, arrays = cs.distortion_suite(
        cs.Quadratic(), eps, 500, seed=11)
    assert total == 500
    assert passed == total
    assert [(a.dtype, a.shape) for a in arrays] == (
        [(np.float64, (total,))] * 3 + [(np.bool_, (total,))])
    assert np.all(arrays[3])
    assert worst >= 0


def _distortion_check_loop(family, eps, word, x, y, constants):
    """Reference: ``_distortion`` of one sample as one chain of scalar sums,
    as ``(lhs, rhs_orbit, rhs_uniform, passed)``."""
    x_lo, x_hi = (x, y) if x <= y else (y, x)
    dlo, dhi = family.domain
    d_xy = min(x_lo - dlo, dhi - x_hi)
    j0 = x_hi - x_lo
    orbit = cs.apply_branches(family, eps, word.bits[::-1], [x, y])[1:]
    d = np.abs(family.deriv(eps, orbit))
    lens = np.abs(orbit[:, 1] - orbit[:, 0])
    lhs = math.exp(float(np.sum(np.log(d[:, 1] / d[:, 0]))))
    sum_len = float(np.sum(lens))
    sum_len_alpha = float(np.sum(lens ** constants.alpha))
    a = constants.alpha

    def safe_exp(t):
        return math.exp(t) if t < 700.0 else math.inf

    rhs_orbit = safe_exp((constants.A + constants.B * sum_len
                          + constants.C * j0 / d_xy) * sum_len_alpha)
    rhs_unif = safe_exp((constants.D + constants.E / d_xy) * j0 ** a)
    slack = 1.0 + 1e-9
    return (lhs, rhs_orbit, rhs_unif,
            lhs <= rhs_orbit * slack and lhs <= rhs_unif * slack
            and min(rhs_orbit, rhs_unif) < math.inf)


def _distortion_suite_loop(family, eps, n_samples, max_word_len=15, seed=0):
    """Reference: ``distortion_suite`` as one Python chain per sample, on the
    samples drawn by the suite's four RNG calls."""
    rng = np.random.default_rng(seed)
    constants = cs.estimate_constants(family, eps)
    eta1 = cs.partition_levels(family, eps, 1)[1]
    dlo, dhi = family.domain
    bound = geometry.MIN_BOUNDARY_DISTANCE
    cell = rng.integers(0, len(eta1), n_samples)
    lo_ok = np.maximum(eta1.los[cell], dlo + bound)
    hi_ok = np.minimum(eta1.his[cell], dhi - bound)
    xs, ys = lo_ok + (hi_ok - lo_ok) * rng.random((2, n_samples))
    steps = rng.integers(1, max_word_len + 1, n_samples)
    sides = rng.integers(0, 2, size=(max_word_len, n_samples))
    worst, checks = math.inf, []
    for i in range(n_samples):
        if hi_ok[i] <= lo_ok[i] or xs[i] == ys[i]:
            continue
        word = cs.Word(tuple(int(b) for b in sides[:steps[i], i][::-1]))
        lhs, rhs_orbit, rhs_unif, _ = chk = _distortion_check_loop(
            family, eps, word, float(xs[i]), float(ys[i]), constants)
        checks.append(chk)
        worst = min(worst, min(rhs_orbit, rhs_unif) / lhs)
    arrays = tuple(map(np.array, zip(*checks)))
    return int(np.sum(arrays[3])), len(checks), worst, arrays


def _assert_same_suite(got, ref):
    passed, total, worst, arrays = got
    ref_passed, ref_total, ref_worst, ref_arrays = ref
    assert (passed, total) == (ref_passed, ref_total)
    assert np.array_equal(arrays[3], ref_arrays[3])
    assert worst == pytest.approx(ref_worst, rel=1e-13)
    # lhs, rhs_orbit and rhs_uniform
    for have, want in zip(arrays[:3], ref_arrays[:3]):
        assert np.array_equal(np.isinf(have), np.isinf(want))
        finite = np.isfinite(want)
        assert np.allclose(have[finite], want[finite], rtol=1e-13, atol=0.0)


# the distortion suites of the benchmark and the acceptance seed
SUITE_CASES = [
    (cs.Quadratic(), 0.05, 200, 15, 1), (cs.Quadratic(), 0.2, 200, 15, 2),
    (cs.Quadratic(), 0.5, 200, 15, 3), (cs.GammaPower(3.0), 0.2, 100, 15, 4),
    (cs.GammaPower(1.5), 0.2, 100, 15, 5), (cs.AsymQuadratic(0.3), 0.2, 15, 15, 20260),
    (cs.Tent(), 0.5, 100, 6, 7),
] + [(cs.Quadratic(), eps, 3334, 15, 42) for eps in (0.05, 0.2, 0.5)]


@pytest.mark.parametrize("family,eps,n,max_len,seed", SUITE_CASES, ids=[
    f"{c[0].kind}{c[0].extra.get('gamma', '')}-{c[1]}-seed{c[4]}"
    for c in SUITE_CASES])
def test_distortion_suite_matches_the_per_sample_loop(family, eps, n, max_len,
                                                      seed):
    _assert_same_suite(cs.distortion_suite(family, eps, n, max_len, seed),
                       _distortion_suite_loop(family, eps, n, max_len, seed))


# (n_passed, n_total, worst, sha256 of the bytes of the lhs, rhs_orbit and
# rhs_uniform arrays, one after the other) of each SUITE_CASES suite,
# recorded with numpy 2.4.6 on x86-64 with AVX-512 (another build's SIMD
# log, exp or power may round differently) from the closed-form c1, K1, c3
# and K3, the quartic cube x * x * x and the f~' denominator
# (1+eps - f)(1+eps + f), whose first factor is the family's closed form.
SUITE_PINS = [
    (200, 200, "1.0008312521985427",
     "86edffda91aee2b95d09e6d637eea2dafdf8f9a8004508ebf321cf8cc68624c7"),
    (200, 200, "1.0002613502085678",
     "92afbfbb58e36412443a45e1f2e5f448370bbd13515d1f73214749b49893b0e1"),
    (200, 200, "1.0001477035722335",
     "32411128bc261fe9e433baae95fd372a143233c36eaf272db15f70c7565ad9c2"),
    (100, 100, "1.0063108005850951",
     "a0f50bc09bbd72a1236647aeac692e7a6bd2f1492d09211ccd3aec4ba8e70a27"),
    (100, 100, "1.1744093287049902",
     "e8b4fe17c8226e94c0b3799235f656a83fed00a2d536bdea6f52477c83c5bf17"),
    (15, 15, "1.0404199630528597",
     "4b01f6b3bc8280b501c8ec4351c0e394a11b650fd7076136221a035481625e9f"),
    (100, 100, "1.0",
     "5b638086c129ee3235cf80c1b00a0c70a46283867104a3518aba9b5d019d7ec7"),
    (3334, 3334, "1.0002212746135932",
     "8fde47623d2a8642adb838b023360b7e4ae5a44335dafdfd1fed11642a44658e"),
    (3334, 3334, "1.0000679365704996",
     "cd6386245df2d2e54c50107cefd93d5175ad7dd6222914156314d550fca62fec"),
    (3334, 3334, "1.0000208052621422",
     "0fdd6835ae8781b2c8ace096189c9a1814fc63884f4c9e00e044f77601b0a41f"),
]


@pytest.mark.parametrize("case,pin", zip(SUITE_CASES, SUITE_PINS), ids=[
    f"{c[0].kind}{c[0].extra.get('gamma', '')}-{c[1]}-seed{c[4]}"
    for c in SUITE_CASES])
def test_distortion_suite_is_pinned_bit_for_bit(case, pin):
    n_pass, n_total, worst, arrays = cs.distortion_suite(*case)
    digest = hashlib.sha256(np.concatenate(arrays[:3]).tobytes()).hexdigest()
    assert (n_pass, n_total, repr(worst), digest) == pin


def test_distortion_suite_drops_the_samples_of_an_empty_cell(monkeypatch):
    # this bound empties the two outer level-1 cells of Quadratic at 0.2;
    # their samples are dropped, not redrawn
    monkeypatch.setattr(geometry, "MIN_BOUNDARY_DISTANCE", 0.3)
    family, eps, n = cs.Quadratic(), 0.2, 100
    eta1 = cs.partition_levels(family, eps, 1)[1]
    assert np.sum(np.minimum(eta1.his, 0.7) <= np.maximum(eta1.los, -0.7)) == 2
    got = cs.distortion_suite(family, eps, n, seed=3)
    assert 0 < got[1] < n
    _assert_same_suite(got, _distortion_suite_loop(family, eps, n, seed=3))


class _CountedGenerator:
    """A ``Generator`` that records the name of each method called."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)
        return counted


def test_distortion_suite_draws_in_four_rng_calls(monkeypatch):
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: _CountedGenerator(default_rng(*a), calls))
    assert cs.distortion_suite(cs.Quadratic(), 0.2, 300, seed=3)[1] == 300
    assert 0 < len(calls) <= 4


@pytest.mark.parametrize("max_len", [1, 4, 15])
def test_distortion_suite_runs_one_chain(monkeypatch, max_len):
    family, eps = cs.Quadratic(), 0.2
    calls = []
    inverse = cs.MapFamily.inverse_branch

    def counted(self, *args):
        calls.append(1)
        return inverse(self, *args)

    monkeypatch.setattr(cs.MapFamily, "inverse_branch", counted)
    cs.estimate_constants(family, eps)
    setup = len(calls)
    calls.clear()
    assert cs.distortion_suite(family, eps, 300, max_len, seed=3)[1] == 300
    assert len(calls) <= setup + 2 * max_len


@pytest.mark.parametrize("n,max_len", [(0, 15), (-2, 15), (10, 0), (10, -1)])
def test_distortion_suite_needs_a_sample_and_a_branch(n, max_len):
    with pytest.raises(ValueError, match="must be >= 1"):
        cs.distortion_suite(cs.Quadratic(), 0.2, n, max_len)


def test_min_child_ratio_stability():
    ratios = [cs.gap_geometry(cs.Quadratic(), 0.2, d).min_child_ratio
              for d in range(4, 9)]
    assert max(ratios) / min(ratios) < 1.2


def _gap_geometry_loop(family, eps, depth):
    """Reference: ``gap_geometry`` as one Python visit per parent cylinder."""
    levels = cs.partition_levels(family, eps, depth)
    dlo, dhi = family.domain
    min_gap, max_gap, min_child = math.inf, -math.inf, math.inf

    def visit(p_len, lo0, hi0, lo1, hi1):
        nonlocal min_gap, max_gap, min_child
        r0 = (hi0 - lo0) / p_len
        r1 = (hi1 - lo1) / p_len
        g = max(1.0 - r0 - r1, 0.0)
        min_gap, max_gap = min(min_gap, g), max(max_gap, g)
        min_child = min(min_child, r0, r1)

    l0 = levels[0]
    visit(dhi - dlo, float(l0.los[0]), float(l0.his[0]),
          float(l0.los[1]), float(l0.his[1]))
    for k in range(1, depth + 1):
        parent, child = levels[k - 1], levels[k]
        p_len = parent.lengths
        for j in range(len(parent)):
            visit(float(p_len[j]),
                  float(child.los[2 * j]), float(child.his[2 * j]),
                  float(child.los[2 * j + 1]), float(child.his[2 * j + 1]))
    return GapGeometrySummary(depth=depth, min_gap_ratio=min_gap,
                              max_gap_ratio=max_gap,
                              min_child_ratio=min_child)


@pytest.mark.parametrize("family,eps", [
    (cs.Quadratic(), 0.0), (cs.Quadratic(), 0.3), (cs.Tent(), 1.0),
    (cs.GammaPower(3.0), 0.2), (cs.AsymQuadratic(-0.45), 0.1),
    (cs.Figure6(-0.03), 0.0),
], ids=["quadratic-0", "quadratic-0.3", "tent", "gamma3", "asym", "figure6"])
@pytest.mark.parametrize("depth", [0, 1, 5, 9])
def test_gap_geometry_matches_the_per_parent_loop(family, eps, depth):
    assert (cs.gap_geometry(family, eps, depth)
            == _gap_geometry_loop(family, eps, depth))


def _conjugate_derivative_bounds(family, eps, alpha):
    """Reference: c2 and K2 through the chain rule at h^{-1}(h(x)), inverting
    h per point."""
    eta2 = cs.partition_levels(family, eps, 2)[2]
    m = cs.MetricChange(family.gamma, eps)
    c2, K2 = math.inf, 0.0
    for lo_x, hi_x in ((float(eta2.los[2]), 0.0), (0.0, float(eta2.his[6]))):
        xs = np.linspace(lo_x, hi_x, CONSTANT_SAMPLES + 2)[1:-1]
        ys = np.asarray(m.h(xs))
        td = np.abs([float(_tilde_deriv_at(family, eps, m.h_inv(float(y))))
                     for y in ys])
        c2 = min(c2, float(np.min(td)))
        K2 = max(K2, _holder_constant(ys, td, alpha))
    return c2, K2


@pytest.mark.parametrize("family,eps", [
    (cs.Quadratic(), 0.5), (cs.GammaPower(3.0), 0.2), (cs.GammaPower(1.5), 0.1)],
    ids=["quadratic", "gamma3", "gamma1.5"])
def test_estimate_constants_skips_the_metric_round_trip(family, eps, monkeypatch):
    calls = []
    h_inv = cs.MetricChange.h_inv

    def counted(self, y):
        calls.append(np.size(y))
        return h_inv(self, y)

    monkeypatch.setattr(cs.MetricChange, "h_inv", counted)
    k = cs.estimate_constants(family, eps)
    assert calls == []
    monkeypatch.undo()
    c2, K2 = _conjugate_derivative_bounds(family, eps, k.alpha)
    assert k.c2 == pytest.approx(c2, rel=1e-10)
    assert k.K2 == pytest.approx(K2, rel=1e-10)


def _estimate_constants_per_side(family, eps):
    """Reference: ``estimate_constants`` one side at a time, with ``c1, K1,
    c3, K3`` in closed form per preset and ``c2, K2`` sampled."""
    eta0, eta1, eta2 = cs.partition_levels(family, eps, 2)
    alpha = (family.gamma - 1.0 if isinstance(family, cs.GammaPower)
             and family.gamma < 2.0 else 1.0)
    g = family.gamma
    a_pt, d_pt = float(eta2.los[2]), float(eta2.his[6])

    c1, K1 = math.inf, 0.0
    for side, cell in ((0, (eta0.los[0], eta0.his[0])),
                       (1, (eta0.los[1], eta0.his[1]))):
        ends = np.asarray(cell, dtype=float)
        c1 = min(c1, float(np.min(np.abs(family.deriv(eps, ends)))))
        t = float(np.min(np.abs(ends)))   # the inner end; the outer one is 1
        if family.piecewise_linear:
            side_K1 = 0.0
        elif isinstance(family, cs.AsymQuadratic):
            beta = family.beta if side == 0 else -family.beta
            k = (2.0 + eps) * (1.0 + beta)
            m = 2.0 + eps - k
            side_K1 = max(abs(2.0 * k + 12.0 * m * x * x) for x in ends)
        elif g >= 2.0:
            side_K1 = g * (g - 1.0) * (2.0 + eps)
        else:
            side_K1 = g * (2.0 + eps) * (1.0 - t ** alpha) / (1.0 - t) ** alpha
        K1 = max(K1, side_K1)
    degenerate = family.piecewise_linear
    if degenerate:
        c2 = c3 = 1.0
        K2 = K3 = 0.0
    else:
        m = cs.MetricChange(g, eps)
        p, far = (g - 1.0) / g, max(-a_pt, d_pt)
        c3 = m.b * (1.0 + eps) ** (-2.0 * p)
        K3 = 2.0 * p * m.b * far * ((1.0 + eps) ** 2 - far * far) ** (-p - 1.0)
        c2, K2 = math.inf, 0.0
        for lo_x, hi_x in ((a_pt, 0.0), (0.0, d_pt)):
            xs = np.linspace(lo_x, hi_x, CONSTANT_SAMPLES + 2)[1:-1]
            ys = np.asarray(m.h(xs))
            td = np.abs(_tilde_deriv_at(family, eps, xs))
            c2 = min(c2, float(np.min(td)))
            K2 = max(K2, _holder_constant(ys, td, alpha))
    C1 = float(min(eta1.lengths[0], eta1.lengths[2]))
    A = K1 / c1 + (K3 ** alpha) * K2 / c2 + K3 / c3 + (g - 1.0) / g
    B = (g - 1.0) / (g * C1)
    C = (g - 1.0) / g
    C0_fit, lam_fit, _, _ = _decay_fit(cs.partition_levels(family, eps, 10))
    lam = min(lam_fit, 0.95)
    C0 = 2.0 * max(C0_fit, 1.0)
    C2_sum = 2.0 * C0 / (1.0 - lam)
    C3_sum = (2.0 ** alpha) * C0 / (1.0 - lam ** alpha)
    return GoodFamilyConstants(
        c1=c1, K1=K1, c2=c2, K2=K2, c3=c3, K3=K3, C1=C1, alpha=alpha,
        A=A, B=B, C=C, C2_sum=C2_sum, C3_sum=C3_sum,
        D=(A + B * C2_sum) * C3_sum, E=C * C3_sum, degenerate=degenerate)


#: the constants whose closed forms may round apart from the reference's;
#: the sampled ones, the cells and the decay fit must agree exactly
_CLOSED_FORM_FIELDS = ("K1", "c3", "K3", "A", "D")


@pytest.mark.parametrize("family", [
    cs.Quadratic(), cs.GammaPower(1.5), cs.GammaPower(3.0), cs.Tent(),
    cs.AsymQuadratic(0.3), cs.AsymQuadratic(-0.45)],
    ids=["quadratic", "gamma1.5", "gamma3", "tent", "asym0.3", "asym-0.45"])
@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
def test_estimate_constants_matches_the_per_side_reference(family, eps):
    got = dataclasses.asdict(cs.estimate_constants(family, eps))
    want = dataclasses.asdict(_estimate_constants_per_side(family, eps))
    for name in _CLOSED_FORM_FIELDS:
        assert got.pop(name) == pytest.approx(want.pop(name), rel=1e-14), name
    assert got == want


#: grid points per cell of the bound test: every 25th is one of its 401
#: coarse points, the two ends among them
BOUND_GRID = 10_001


def _holder_bound_top(xs, vals, alpha, bound):
    """Assert that ``bound`` is at least the quotient |v(x) - v(y)| / |x -
    y|^alpha of every adjacent pair of ``xs`` and, for alpha < 1, where the
    widest pair may carry the largest quotient, of every pair of the coarse
    points; return the largest quotient."""
    pairs = [(np.arange(len(xs) - 1), np.arange(1, len(xs)))]
    if alpha < 1.0:
        coarse = np.arange(0, len(xs), 25)
        i, j = np.triu_indices(len(coarse), 1)
        pairs.append((coarse[i], coarse[j]))
    # the computed values carry a few ulps that the closed form does not
    slack = 8.0 * np.spacing(np.max(vals))
    top = 0.0
    for i, j in pairs:
        diff, dist = np.abs(vals[j] - vals[i]), np.abs(xs[j] - xs[i]) ** alpha
        assert np.all(diff <= bound * dist + slack)
        top = max(top, float(np.max(diff / dist)))
    return top


# Figure6 takes eps = 0 only, where its cells close on the critical point
# and estimate_constants refuses it
@pytest.mark.parametrize("family", [
    cs.Quadratic(), cs.GammaPower(1.5), cs.GammaPower(3.0), cs.Tent(),
    cs.AsymQuadratic(0.3), cs.AsymQuadratic(-0.45)],
    ids=["quadratic", "gamma1.5", "gamma3", "tent", "asym0.3", "asym-0.45"])
@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
def test_closed_form_constants_bound_a_fine_grid(family, eps):
    k = cs.estimate_constants(family, eps)
    eta0, _, eta2 = cs.partition_levels(family, eps, 2)
    # each bound holds on every cell and comes within 0.1 % of the grid's
    # largest quotient or least value on one of them
    tops, lows = [], []
    for side in (0, 1):
        xs = np.linspace(eta0.los[side], eta0.his[side], BOUND_GRID)
        fprime = np.abs(family.deriv(eps, xs))
        lows.append(np.min(fprime))
        tops.append(_holder_bound_top(xs, fprime, k.alpha, k.K1))
    assert k.c1 <= min(lows) <= 1.001 * k.c1
    assert 0.999 * k.K1 <= max(tops)
    if family.piecewise_linear:
        return
    m = cs.MetricChange(family.gamma, eps)
    # the open middle intervals (a, 0) and (0, d), whose h' is least at 0
    tops, lows = [], []
    for xs in (np.linspace(eta2.los[2], 0.0, BOUND_GRID)[:-1],
               np.linspace(0.0, eta2.his[6], BOUND_GRID)[1:]):
        hprime = m.h_prime(xs)
        lows.append(np.min(hprime))
        tops.append(_holder_bound_top(xs, hprime, 1.0, k.K3))
    assert k.c3 <= min(lows) <= 1.001 * k.c3
    assert 0.999 * k.K3 <= max(tops)


def test_a_sample_with_no_finite_bound_does_not_pass():
    # c1 falls like sqrt(eps), and at eps = 1e-15 both bounds overflow
    n_pass, n_total, _, arrays = cs.distortion_suite(cs.Quadratic(), 1e-15, 50,
                                                     seed=0)
    _, rhs_orbit, rhs_uniform, passed = arrays
    assert (n_pass, n_total) == (0, 50)
    assert np.all(np.isinf(rhs_orbit) & np.isinf(rhs_uniform))
    assert not np.any(passed)


@pytest.mark.parametrize("family", [
    cs.Quadratic(), cs.GammaPower(3.0), cs.AsymQuadratic(0.3)],
    ids=["quadratic", "gamma3", "asym"])
def test_estimate_constants_calls_deriv_twice(family, monkeypatch):
    # once on the ends of the depth-1 cylinders, once inside f~' on the
    # middle intervals
    calls = []
    deriv = cs.MapFamily.deriv

    def counted(self, eps, x, side=None):
        calls.append(np.shape(x))
        return deriv(self, eps, x, side)

    monkeypatch.setattr(cs.MapFamily, "deriv", counted)
    cs.estimate_constants(family, 0.2)
    assert calls == [(2, 2), (2, CONSTANT_SAMPLES)]


@pytest.mark.parametrize("grid", [[0.1], [0.1, 0.1]])
def test_gap_fit_needs_two_distinct_eps(grid):
    with pytest.raises(cs.DomainError, match="two distinct eps"):
        cs.asymptotic_gap_fit(cs.Quadratic(), grid, depth=2)
