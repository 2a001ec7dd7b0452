"""Pressure sums, Hausdorff-dimension estimates and counting identities."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

import cantorscale as cs
from cantorscale.dimension import _solve_delta
from cantorscale.errors import ConvergenceError


def _eta(family, eps, n):
    return cs.partition_levels(family, eps, n)[n]


def test_pressure_sum_examples():
    # delta = 1 on the full interval: lengths sum to the whole domain
    part = _eta(cs.Tent(), 0.0, 5)
    assert cs.pressure_sum(part, 1.0) == pytest.approx(1.0, abs=1e-12)
    # delta = 0 counts the cylinders
    assert cs.pressure_sum(part, 0.0) == pytest.approx(2.0 ** 6, abs=1e-12)
    # tent eps=1: 2^{n+1} cylinders of length 2/3^{n+1}
    part = _eta(cs.Tent(), 1.0, 5)
    d = math.log(2.0) / math.log(3.0)
    assert cs.pressure_sum(part, d) == pytest.approx(1.0, abs=1e-10)


def test_pressure_sum_monotone_in_delta():
    part = _eta(cs.Quadratic(), 0.3, 8)
    deltas = np.linspace(0.1, 1.0, 10)
    sums = [cs.pressure_sum(part, float(d)) for d in deltas]
    assert all(a > b for a, b in zip(sums, sums[1:]))


def test_hd_estimate_tent_oracles():
    est = cs.hd_estimate(cs.Tent(), 1.0, 14)
    assert est.delta == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-6)
    est = cs.hd_estimate(cs.Tent(), 0.0, 14)
    assert est.delta == pytest.approx(1.0, abs=1e-9)
    est = cs.hd_estimate(cs.Tent(), 0.5, 14)
    assert est.delta == pytest.approx(math.log(2.0) / math.log(2.5), abs=1e-6)


def test_hd_estimate_quadratic_fixture():
    # the 40-digit mpmath roots of the same binary64 partitions
    est = cs.hd_estimate(cs.Quadratic(), 0.5, 14)
    assert est.delta == pytest.approx(0.55069274888361629545, abs=1e-12)
    assert est.bracket[1] - est.bracket[0] < 5e-3
    est16 = cs.hd_estimate(cs.Quadratic(), 0.5, 16)
    assert est16.delta == pytest.approx(0.55080146518495333736, abs=1e-12)
    assert abs(est16.delta - est.delta) < 5e-3


def test_hd_estimate_bracket_and_residual():
    est = cs.hd_estimate(cs.Quadratic(), 0.3, 10)
    assert est.bracket[0] <= est.delta <= est.bracket[1]
    assert abs(est.residual) < 1e-8
    assert 0.0 < est.delta < 1.0


#: (family, eps) whose depth-10 roots are checked against mpmath
MPMATH_CASES = [(cs.Quadratic(), 0.3), (cs.GammaPower(3.0), 0.3),
                (cs.Figure6(0.03), 0.0), (cs.AsymQuadratic(-0.45), 0.3)]
TENT_EPS = (0.1, 0.5, 1.0)
#: presets whose eps = 0 cylinders tile the domain
TILINGS = (cs.Quadratic(), cs.Figure6(0.03))


def _domain_length(family):
    return family.domain[1] - family.domain[0]


def _mpmath_root(part, domain_length):
    """The pressure root of the binary64 cell lengths at 30 digits."""
    with mpmath.workdps(30):
        log_r = [mpmath.log(mpmath.mpf(x) / domain_length)
                 for x in part.lengths.tolist()]
        return mpmath.findroot(
            lambda d: mpmath.fsum(mpmath.exp(d * lr) for lr in log_r) - 1, 0.5)


def _zero_cell_partitions():
    """Four cells, one of zero length, and the same cells without it."""
    los = np.asarray([-1.0, -0.25, 0.25, 0.5])
    his = np.asarray([-0.5, 0.0, 0.25, 1.0])
    keep = his > los
    return cs.Partition(1, los, his), cs.Partition(1, los[keep], his[keep])


@pytest.mark.parametrize("family,eps", MPMATH_CASES)
def test_newton_root_matches_mpmath(family, eps):
    part = cs.partition(family, eps, 10)
    delta, residual, _ = _solve_delta(part, _domain_length(family))
    assert abs(delta - _mpmath_root(part, _domain_length(family))) < 1e-13
    assert residual < 1e-10


@pytest.mark.parametrize("eps", TENT_EPS)
def test_newton_root_tent_moran(eps):
    # depth 6: deeper tent endpoints cancel in the cell lengths, which
    # moves the root of the binary64 partition itself (1.6e-14 at depth
    # 10 for eps = 1, where it still matches its own mpmath root)
    delta, _, _ = _solve_delta(cs.partition(cs.Tent(), eps, 6), 2.0)
    assert abs(delta - math.log(2.0) / math.log(2.0 + eps)) < 1e-14


@pytest.mark.parametrize("family", TILINGS)
def test_tiling_root_is_exactly_one(family):
    for depth in (6, 10, 14):
        part = cs.partition(family, 0.0, depth)
        assert _solve_delta(part, _domain_length(family))[0] == 1.0
    est = cs.hd_estimate(family, 0.0, 14)
    assert est.delta == 1.0 and est.bracket == (1.0, 1.0)


def test_zero_length_cell_adds_nothing():
    with_zero, without = _zero_cell_partitions()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta, residual, _ = _solve_delta(with_zero, 2.0)
    assert math.isfinite(delta) and residual < 1e-10
    assert delta == _solve_delta(without, 2.0)[0]


def test_newton_iterations_bounded():
    roots = [_solve_delta(cs.partition(f, e, 10), _domain_length(f))
             for f, e in MPMATH_CASES]
    roots += [_solve_delta(cs.partition(cs.Tent(), e, 6), 2.0) for e in TENT_EPS]
    roots += [_solve_delta(cs.partition(f, 0.0, d), _domain_length(f))
              for f in TILINGS for d in (6, 10, 14)]
    roots += [_solve_delta(p, 2.0) for p in _zero_cell_partitions()]
    assert all(1 <= root[2] <= 12 for root in roots)
    # the estimate reports the steps of its deepest root
    est = cs.hd_estimate(cs.Quadratic(), 0.3, 10)
    assert est.iterations == _solve_delta(cs.partition(cs.Quadratic(), 0.3, 10),
                                          2.0)[2]


def test_newton_root_raises_above_tolerance():
    with pytest.raises(ConvergenceError):
        _solve_delta(cs.partition(cs.Quadratic(), 0.3, 8), 2.0, tol=0.0)


def test_newton_root_raises_when_every_cell_has_length_zero():
    part = cs.Partition(1, np.zeros(4), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="every level-1 cell"):
            _solve_delta(part, 2.0)


#: (family, eps) whose roots at depths 6-16 are checked against the fsum residual
RESIDUAL_CASES = [(cs.Quadratic(), 0.1), (cs.GammaPower(3.0), 0.1),
                  (cs.Tent(), 0.5), (cs.Figure6(-0.03), 0.0)]


@pytest.mark.parametrize("family,eps", RESIDUAL_CASES)
def test_root_residual_matches_the_compensated_sum(family, eps):
    levels = cs.partition_levels(family, eps, 16)
    dlen = _domain_length(family)
    for depth in range(6, 17):
        delta, residual, _ = _solve_delta(levels[depth], dlen)
        reference = abs(cs.pressure_sum(levels[depth], delta, dlen) - 1.0)
        assert abs(residual - reference) < 1e-14


def test_root_residual_with_a_zero_cell_matches_the_compensated_sum():
    for part in _zero_cell_partitions():
        delta, residual, _ = _solve_delta(part, 2.0)
        assert abs(residual - abs(cs.pressure_sum(part, delta) - 1.0)) < 1e-14


def test_roots_do_not_call_the_compensated_sum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pressure_sum on the root's path")

    monkeypatch.setattr("cantorscale.dimension.pressure_sum", refuse)
    est = cs.hd_estimate(cs.Quadratic(), 0.1, 10)
    assert est.residual < 1e-10
    rows, _slope = cs.hd_curve(cs.Quadratic(), [0.01, 0.1], 10)
    assert len(rows) == 2


def _ratio_root(levels, depth, domain_length, tol=1e-13):
    """Bisection root of sum_{depth} r^delta = sum_{depth-1} r^delta.

    The ratio of consecutive pressure sums cancels their common
    distortion constant, so this root converges geometrically in depth.
    """
    log_n = np.log(levels[depth].lengths / domain_length)
    log_m = np.log(levels[depth - 1].lengths / domain_length)
    lo, hi = 0.0, 1.0       # the difference is > 0 at 0 and < 0 at 1
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.exp(mid * log_n).sum() > np.exp(mid * log_m).sum():
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND dimension.py hd_estimate bracket: the depth-n root converges "
    "like 1/n and its (depth-1, depth) bracket misses the limit "
    "(ROADMAP item 2)"))
@pytest.mark.parametrize("eps", [1e-3, 0.05, 0.1])
def test_hd_estimate_bracket_contains_the_ratio_root(eps):
    levels = cs.partition_levels(cs.Quadratic(), eps, 16)
    root = _ratio_root(levels, 16, 2.0)
    lo, hi = cs.hd_estimate(cs.Quadratic(), eps, 16).bracket
    assert lo <= root <= hi


def test_hd_curve_tent_closed_form():
    grid = [0.1, 0.3, 0.5, 1.0]
    rows, _slope = cs.hd_curve(cs.Tent(), grid, 14)
    for eps, est in zip(grid, rows):
        assert est.delta == pytest.approx(
            math.log(2.0) / math.log(2.0 + eps), abs=1e-6)


def test_hd_decreasing_in_eps():
    grid = [0.01, 0.05, 0.1, 0.3, 0.5]
    rows, _slope = cs.hd_curve(cs.Quadratic(), grid, 12)
    deltas = [e.delta for e in rows]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_dimension_defect_upper_bound():
    # delta(eps) <= 1 - C eps^{1/gamma} with C fitted at the smallest eps
    for family in (cs.Quadratic(), cs.GammaPower(3.0)):
        grid = [0.001, 0.003, 0.01, 0.03, 0.1]
        rows, _slope = cs.hd_curve(family, grid, 12)
        deltas = [e.delta for e in rows]
        c_fit = (1.0 - deltas[0]) / grid[0] ** (1.0 / family.gamma)
        for eps, d in zip(grid, deltas):
            assert d <= 1.0 - 0.9 * c_fit * eps ** (1.0 / family.gamma)


def test_cross_depth_stability():
    a = cs.hd_estimate(cs.Quadratic(), 0.2, 12).delta
    b = cs.hd_estimate(cs.Quadratic(), 0.2, 15).delta
    assert abs(a - b) < 2e-3


def test_delta0_identity():
    for eps in (0.01, 0.1, 0.3):
        for c6 in (0.1, 0.5):
            d0 = cs.delta0(eps, c6)
            lhs = 2.0 * ((1.0 - c6 * math.sqrt(eps)) / 2.0) ** d0
            assert lhs == pytest.approx(1.0, abs=1e-12)
            assert d0 < 1.0


def test_delta0_limit():
    assert cs.delta0(0.0, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_delta0_refuses_negative_eps():
    with pytest.raises(cs.DomainError, match="eps >= 0"):
        cs.delta0(-1e-3, 0.5)


@pytest.mark.parametrize("grid", [[0.1], [0.1, 0.1]])
def test_hd_curve_needs_two_distinct_eps(grid):
    with pytest.raises(cs.DomainError, match="two distinct eps"):
        cs.hd_curve(cs.Quadratic(), grid, 8)


def test_zero_run_examples():
    assert cs.zero_run_count(2) == 4
    assert cs.zero_run_count(4) == 13
    # the doubling recursion 2*N_{n-1} - 1 would give 25 at n = 5
    assert cs.zero_run_count(5) == 24
    assert cs.zero_run_count(5) != 2 * cs.zero_run_count(4) - 1


def test_zero_run_matches_bruteforce():
    for n in range(1, 15):
        assert cs.zero_run_count(n) == cs.zero_run_count_bruteforce(n)


def test_zero_run_direct_enumeration():
    # strings of length 6 whose longest zero-run is shorter than 3
    count = 0
    for bits in itertools.product((0, 1), repeat=6):
        runs = [len(list(g)) for b, g in itertools.groupby(bits) if b == 0]
        count += not runs or max(runs) < 3
    assert cs.zero_run_count(6) == count
