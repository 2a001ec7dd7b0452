"""Gap geometry, asymptotic gap laws and distortion bounds."""

import hashlib
import math

import numpy as np
import pytest

import cantorscale as cs
from cantorscale import geometry
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
    assert k.C1 == pytest.approx(0.11745513530473528, rel=1e-9)
    assert k.A == pytest.approx(3.0601604707770855, rel=1e-9)
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
    # |x|^40 rounds f(x) to its critical value next to 0, so f~' divides
    # by 0 there; the refusal comes before the division's RuntimeWarning
    with pytest.raises(cs.ConvergenceError, match="degenerates in binary64"):
        cs.estimate_constants(cs.GammaPower(40.0), eps)


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


def _distortion_check_loop(family, eps, word, x, y, constants):
    """Reference: ``distortion_check`` as one chain of scalar sums."""
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
    return cs.DistortionCheck(
        lhs=lhs, rhs_orbit=rhs_orbit, rhs_uniform=rhs_unif,
        passed=(lhs <= rhs_orbit * slack and lhs <= rhs_unif * slack))


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
    n_pass, worst, checks = 0, math.inf, []
    for i in range(n_samples):
        if hi_ok[i] <= lo_ok[i] or xs[i] == ys[i]:
            continue
        word = cs.Word(tuple(int(b) for b in sides[:steps[i], i][::-1]))
        chk = _distortion_check_loop(family, eps, word, float(xs[i]),
                                     float(ys[i]), constants)
        checks.append(chk)
        n_pass += chk.passed
        worst = min(worst, min(chk.rhs_orbit, chk.rhs_uniform) / chk.lhs)
    return n_pass, len(checks), worst, checks


def _assert_same_suite(got, ref):
    passed, total, worst, checks = got
    ref_passed, ref_total, ref_worst, ref_checks = ref
    assert (passed, total) == (ref_passed, ref_total)
    assert [c.passed for c in checks] == [c.passed for c in ref_checks]
    assert worst == pytest.approx(ref_worst, rel=1e-13)
    for name in ("lhs", "rhs_orbit", "rhs_uniform"):
        have = np.asarray([getattr(c, name) for c in checks])
        want = np.asarray([getattr(c, name) for c in ref_checks])
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
# rhs_uniform arrays, one after the other) of each SUITE_CASES suite, as
# the chains gave them while they checked every step, recorded with numpy
# 2.4.6 on x86-64 with AVX-512 (another build's SIMD log, exp or power may
# round differently).  Running the later steps unchecked moves no bit.
SUITE_PINS = [
    (200, 200, "1.000830097995106",
     "ca4b511a7a5dbcfb27b37710a60ef78f8dbe62463c837f4b058df7e6e25286c2"),
    (200, 200, "1.0002604334925533",
     "18c19365c8cef830d1661357765c760e43e3306aff51af0a407433981d60384d"),
    (200, 200, "1.0001470841169404",
     "4931dda497efe85a859fea32abdb29286ef0a83f58343373baca912b01019d42"),
    (100, 100, "1.0062679401895966",
     "50b777b7efbf97ad8a5e41fa64a3731a78724fc266c31a6b47b5b30e72da6360"),
    (100, 100, "1.1739650635678256",
     "28b61ae4007f335d7c6215de062c7d30bcd3f06c27fba36f884eb461a56f1801"),
    (15, 15, "1.040142639616556",
     "8a235f0475a9abd10e4477076bc8cae6686167a0ddf08c0c1abaffb054157d85"),
    (100, 100, "1.0",
     "5b638086c129ee3235cf80c1b00a0c70a46283867104a3518aba9b5d019d7ec7"),
    (3334, 3334, "1.0002210102995743",
     "db68d3e74ac158da1ef56a7ca48b3c391bafb393c56f552b1530cb462ce83e9f"),
    (3334, 3334, "1.0000678184660088",
     "19e76c94f62248eced1718a0d079805b750238061728cd42d97405843eeef15b"),
    (3334, 3334, "1.0000207640901353",
     "295d15b4137198033a3aedd43e47495f97da15dca2522271ffe8a216e17361bb"),
]


@pytest.mark.parametrize("case,pin", zip(SUITE_CASES, SUITE_PINS), ids=[
    f"{c[0].kind}{c[0].extra.get('gamma', '')}-{c[1]}-seed{c[4]}"
    for c in SUITE_CASES])
def test_distortion_suite_is_pinned_bit_for_bit(case, pin):
    n_pass, n_total, worst, checks = cs.distortion_suite(*case)
    arrays = np.array([[c.lhs, c.rhs_orbit, c.rhs_uniform] for c in checks]).T
    assert (n_pass, n_total, repr(worst)) == pin[:3]
    assert hashlib.sha256(arrays.tobytes()).hexdigest() == pin[3]


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
    (cs.Figure6(-0.03), 0.0),
], ids=["quadratic-0", "quadratic-0.3", "tent", "gamma3", "asym", "figure6"])
@pytest.mark.parametrize("depth", [0, 1, 5, 9])
def test_gap_geometry_matches_the_per_parent_loop(family, eps, depth):
    for include_table in (False, True):
        assert (cs.gap_geometry(family, eps, depth, include_table)
                == _gap_geometry_loop(family, eps, depth, include_table))


def _conjugate_derivative_bounds(family, eps, alpha):
    """Reference: c2 and K2 through ``tilde_deriv`` at h(x), inverting h per point."""
    eta2 = cs.partition_levels(family, eps, 2)[2]
    m = cs.MetricChange(family.gamma, eps)
    c2, K2 = math.inf, 0.0
    for lo_x, hi_x in ((float(eta2.los[2]), 0.0), (0.0, float(eta2.his[6]))):
        xs = np.linspace(lo_x, hi_x, CONSTANT_SAMPLES + 2)[1:-1]
        ys = np.asarray(m.h(xs))
        td = np.abs([cs.tilde_deriv(family, eps, float(y)) for y in ys])
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
    """Reference: ``estimate_constants`` one side at a time, ``f'`` twice."""
    eta0, eta1, eta2 = cs.partition_levels(family, eps, 2)
    alpha = (family.gamma - 1.0 if isinstance(family, cs.GammaPower)
             and family.gamma < 2.0 else 1.0)
    g = family.gamma
    a_pt, d_pt = float(eta2.los[2]), float(eta2.his[6])

    def fprime(xs):
        return np.abs(np.asarray(family.deriv(eps, xs)))

    xs_left = np.linspace(float(eta0.los[0]), float(eta0.his[0]), CONSTANT_SAMPLES)
    xs_right = np.linspace(float(eta0.los[1]), float(eta0.his[1]), CONSTANT_SAMPLES)
    c1 = float(min(np.min(fprime(xs_left)), np.min(fprime(xs_right))))
    K1 = max(_holder_constant(xs_left, fprime(xs_left), alpha),
             _holder_constant(xs_right, fprime(xs_right), alpha))
    degenerate = family.piecewise_linear
    if degenerate:
        c2 = c3 = 1.0
        K2 = K3 = 0.0
    else:
        m = cs.MetricChange(g, eps)
        c2, K2, c3, K3 = math.inf, 0.0, math.inf, 0.0
        for lo_x, hi_x in ((a_pt, 0.0), (0.0, d_pt)):
            xs = np.linspace(lo_x, hi_x, CONSTANT_SAMPLES + 2)[1:-1]
            hp = np.asarray(m.h_prime(xs))
            c3 = min(c3, float(np.min(hp)))
            K3 = max(K3, _holder_constant(xs, hp, 1.0))
            ys = np.asarray(m.h(xs))
            td = np.abs(_tilde_deriv_at(family, eps, xs))
            c2 = min(c2, float(np.min(td)))
            K2 = max(K2, _holder_constant(ys, td, alpha))
    C1 = float(min(eta1.lengths[0], eta1.lengths[2]))
    A = K1 / c1 + (K3 ** alpha) * K2 / c2 + K3 / c3 + (g - 1.0) / g
    B = (g - 1.0) / (g * C1)
    C = (g - 1.0) / g
    C0_fit, lam_fit, _, _ = cs.decay_rate(family, eps, n_max=10)
    lam = min(lam_fit, 0.95)
    C0 = 2.0 * max(C0_fit, 1.0)
    C2_sum = 2.0 * C0 / (1.0 - lam)
    C3_sum = (2.0 ** alpha) * C0 / (1.0 - lam ** alpha)
    return GoodFamilyConstants(
        c1=c1, K1=K1, c2=c2, K2=K2, c3=c3, K3=K3, C1=C1, alpha=alpha,
        A=A, B=B, C=C, C2_sum=C2_sum, C3_sum=C3_sum,
        D=(A + B * C2_sum) * C3_sum, E=C * C3_sum, degenerate=degenerate)


@pytest.mark.parametrize("family", [
    cs.Quadratic(), cs.GammaPower(1.5), cs.GammaPower(3.0), cs.Tent(),
    cs.AsymQuadratic(0.3), cs.AsymQuadratic(-0.45)],
    ids=["quadratic", "gamma1.5", "gamma3", "tent", "asym0.3", "asym-0.45"])
@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
def test_estimate_constants_matches_the_per_side_reference(family, eps):
    assert cs.estimate_constants(family, eps) == _estimate_constants_per_side(
        family, eps)


@pytest.mark.parametrize("family", [
    cs.Quadratic(), cs.GammaPower(3.0), cs.AsymQuadratic(0.3)],
    ids=["quadratic", "gamma3", "asym"])
def test_estimate_constants_calls_deriv_twice(family, monkeypatch):
    # once on the depth-1 cylinders, once inside f~' on the middle intervals
    calls = []
    deriv = cs.MapFamily.deriv

    def counted(self, eps, x, side=None):
        calls.append(np.shape(x))
        return deriv(self, eps, x, side)

    monkeypatch.setattr(cs.MapFamily, "deriv", counted)
    cs.estimate_constants(family, 0.2)
    assert calls == [(2, CONSTANT_SAMPLES), (2, CONSTANT_SAMPLES)]


@pytest.mark.parametrize("grid", [[0.1], [0.1, 0.1]])
def test_gap_fit_needs_two_distinct_eps(grid):
    with pytest.raises(cs.DomainError, match="two distinct eps"):
        cs.asymptotic_gap_fit(cs.Quadratic(), grid, depth=2)
