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
                (cs.Figure6(0.03), 0.0), (cs.AsymQuadratic(-0.45), 0.3),
                (cs.Tent(), 0.3), (cs.AsymQuadratic(0.0), 0.2)]
TENT_EPS = (0.1, 0.5, 1.0)
#: presets whose eps = 0 cylinders tile the domain
TILINGS = (cs.Quadratic(), cs.Figure6(0.03), cs.Tent(), cs.AsymQuadratic(0.0))


def _mpmath_root(part):
    """The pressure root of the binary64 cell lengths at 30 digits."""
    with mpmath.workdps(30):
        log_r = [mpmath.log(mpmath.mpf(x) / 2)
                 for x in part.lengths.tolist()]
        return mpmath.findroot(
            lambda d: mpmath.fsum(mpmath.exp(d * lr) for lr in log_r) - 1, 0.5)


def _zero_cell_partitions():
    """Four cells, one of zero length, and the same cells without it."""
    los = np.asarray([-1.0, -0.25, 0.25, 0.5])
    his = np.asarray([-0.5, 0.0, 0.25, 1.0])
    keep = his > los
    return cs.Partition(1, los, his), cs.Partition(1, los[keep], his[keep])


def _mirrored_zero_cell_partitions():
    """Six cells, the right three the left ones reflected about 0 (so the
    halves have equal lengths), two of zero length; and the four others."""
    left_los = np.asarray([-1.0, -0.5, -0.25])
    left_his = np.asarray([-0.5, -0.5, 0.0])
    los = np.concatenate([left_los, -left_his])
    his = np.concatenate([left_his, -left_los])
    keep = his > los
    return (cs.Partition(2, los, his, mirrored=True),
            cs.Partition(1, los[keep], his[keep]))


def _full_level_solve(part):
    """Reference: the Newton iteration of ``_solve_delta`` with its sums
    over every cell of the level, each step in fresh arrays."""
    rel = part.lengths / 2.0
    log_r = np.log(rel[rel > 0.0])
    delta = 1.0
    for iterations in range(1, 61):
        powers = np.exp(delta * log_r)
        s = powers.sum()
        step = math.log(s) * s / (powers @ log_r)
        delta = max(delta - step, 0.0)
        if abs(step) <= 1e-15:
            break
    residual = abs(float(np.exp(delta * log_r).sum()) - 1.0)
    return float(delta), residual, iterations


#: mirrored (family, eps): each level's right half repeats its left
MIRRORED = [(cs.Quadratic(), 0.1), (cs.GammaPower(3.0), 0.2), (cs.Tent(), 0.3),
            (cs.Figure6(0.03), 0.0), (cs.AsymQuadratic(0.0), 0.2)]


@pytest.mark.parametrize("family,eps", MIRRORED)
def test_half_level_root_matches_the_full_level_root(family, eps):
    for level in cs.partition_levels(family, eps, 16)[8:]:
        assert level.mirrored
        delta, residual, _ = _solve_delta(level)
        full, full_residual, _ = _full_level_solve(level)
        assert abs(delta - full) <= 2 * np.spacing(full)
        assert residual < 1e-10 and full_residual < 1e-10


def test_an_unmirrored_level_takes_the_full_level_root_bit_for_bit():
    family, eps = cs.AsymQuadratic(-0.45), 0.3
    for level in cs.partition_levels(family, eps, 16)[8:]:
        assert not level.mirrored
        assert _solve_delta(level) == _full_level_solve(level)


@pytest.mark.parametrize("family,eps", MPMATH_CASES)
def test_newton_root_matches_mpmath(family, eps):
    part = cs.partition(family, eps, 10)
    delta, residual, _ = _solve_delta(part)
    assert abs(delta - _mpmath_root(part)) < 1e-13
    assert residual < 1e-10


@pytest.mark.parametrize("eps", TENT_EPS)
def test_newton_root_tent_moran(eps):
    # depth 6: deeper tent endpoints cancel in the cell lengths, which
    # moves the root of the binary64 partition itself (1.6e-14 at depth
    # 10 for eps = 1, where it still matches its own mpmath root)
    delta, _, _ = _solve_delta(cs.partition(cs.Tent(), eps, 6))
    assert abs(delta - math.log(2.0) / math.log(2.0 + eps)) < 1e-14


@pytest.mark.parametrize("family", TILINGS)
def test_tiling_root_is_exactly_one(family):
    for depth in (6, 10, 14):
        part = cs.partition(family, 0.0, depth)
        assert _solve_delta(part)[0] == 1.0
    est = cs.hd_estimate(family, 0.0, 14)
    assert est.delta == 1.0 and est.bracket == (1.0, 1.0)


def test_zero_length_cell_adds_nothing():
    plain, mirrored = _zero_cell_partitions(), _mirrored_zero_cell_partitions()
    assert not plain[0].mirrored and mirrored[0].mirrored
    for with_zero, without in (plain, mirrored):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta, residual, _ = _solve_delta(with_zero)
        assert math.isfinite(delta) and residual < 1e-10
        assert delta == _solve_delta(without)[0]


def test_newton_iterations_bounded():
    roots = [_solve_delta(cs.partition(f, e, 10)) for f, e in MPMATH_CASES]
    roots += [_solve_delta(cs.partition(cs.Tent(), e, 6)) for e in TENT_EPS]
    roots += [_solve_delta(cs.partition(f, 0.0, d))
              for f in TILINGS for d in (6, 10, 14)]
    roots += [_solve_delta(p) for p in _zero_cell_partitions()]
    assert all(1 <= root[2] <= 12 for root in roots)
    # the estimate reports the steps of its deepest root
    est = cs.hd_estimate(cs.Quadratic(), 0.3, 10)
    assert est.iterations == _solve_delta(
        cs.partition(cs.Quadratic(), 0.3, 10))[2]


def test_newton_root_raises_above_tolerance():
    with pytest.raises(ConvergenceError):
        _solve_delta(cs.partition(cs.Quadratic(), 0.3, 8), tol=0.0)


def test_newton_root_raises_when_every_cell_has_length_zero():
    part = cs.Partition(1, np.zeros(4), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="every level-1 cell"):
            _solve_delta(part)


#: (family, eps) whose roots at depths 6-16 are checked against the fsum residual
RESIDUAL_CASES = [(cs.Quadratic(), 0.1), (cs.GammaPower(3.0), 0.1),
                  (cs.Tent(), 0.5), (cs.Figure6(-0.03), 0.0)]


@pytest.mark.parametrize("family,eps", RESIDUAL_CASES)
def test_root_residual_matches_the_compensated_sum(family, eps):
    levels = cs.partition_levels(family, eps, 16)
    for depth in range(6, 17):
        delta, residual, _ = _solve_delta(levels[depth])
        reference = abs(cs.pressure_sum(levels[depth], delta) - 1.0)
        assert abs(residual - reference) < 1e-14


def test_root_residual_with_a_zero_cell_matches_the_compensated_sum():
    for part in _zero_cell_partitions():
        delta, residual, _ = _solve_delta(part)
        assert abs(residual - abs(cs.pressure_sum(part, delta) - 1.0)) < 1e-14


def test_roots_do_not_call_the_compensated_sum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pressure_sum on the root's path")

    monkeypatch.setattr("cantorscale.dimension.pressure_sum", refuse)
    est = cs.hd_estimate(cs.Quadratic(), 0.1, 10)
    assert est.residual < 1e-10
    rows, _slope = cs.hd_curve(cs.Quadratic(), [0.01, 0.1], 10)
    assert len(rows) == 2


def _ratio_root(levels, depth, tol=1e-13):
    """Bisection root of sum_{depth} r^delta = sum_{depth-1} r^delta.

    The ratio of consecutive pressure sums cancels their common
    distortion constant, so this root converges geometrically in depth.
    """
    log_n = np.log(levels[depth].lengths / 2.0)
    log_m = np.log(levels[depth - 1].lengths / 2.0)
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
    root = _ratio_root(levels, 16)
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


_Q = cs.Quadratic()


@pytest.mark.parametrize("call,error,message", [
    (lambda: cs.Word(()), ValueError, "length must be >= 1"),
    (lambda: cs.Word((2,)), ValueError, "bits must be 0 or 1"),
    (lambda: cs.partition_levels(_Q, 0.1, -1), ValueError, "depth must be >= 0"),
    (lambda: cs.decay_rate(_Q, 0.1, 3), ValueError, "n_max must be >= 4"),
    (lambda: cs.pressure_sum(cs.partition(_Q, 0.1, 3), 2.5), cs.DomainError,
     r"delta must lie in \[0, 2\]"),
    (lambda: cs.hd_estimate(_Q, 0.1, 5), cs.DomainError, "depth >= 6"),
    (lambda: cs.hd_curve(_Q, [0.0, 0.1], 8), cs.DomainError, "positive eps"),
    (lambda: cs.delta0(0.5, 10.0), cs.DomainError, r"C6 \* sqrt\(eps\) < 1"),
    (lambda: cs.zero_run_count(0), cs.DomainError, "overflow guard"),
    (lambda: cs.zero_run_count(63), cs.DomainError, "overflow guard"),
    (lambda: cs.zero_run_count_bruteforce(21), cs.DomainError, "n = 20"),
    (lambda: cs.AsymQuadratic(1.0), cs.ParameterRangeError, r"\|beta\| < 1"),
    (lambda: cs.family_from_spec({"params": {}}), cs.ParameterRangeError,
     "missing key 'kind'"),
    (lambda: cs.asymptotic_gap_fit(_Q, [0.0, 0.1]), cs.DomainError,
     "positive eps"),
    (lambda: cs.scale_at(_Q, 0.1, cs.DualPoint((1,), "truncated"), 10),
     cs.DomainError, "fewer than 2 coordinates"),
    (lambda: cs.DualPoint((1,), (2,)), ValueError, "bad periodic tail"),
    (lambda: cs.DualPoint((), "bogus"), ValueError, "bad tail descriptor"),
    (lambda: cs.parse_dual_point("x|1."), ValueError, "bad tail 'x'"),
], ids=["word-empty", "word-bit-2", "levels-depth", "decay-n_max",
        "pressure-delta", "hd-depth", "hd_curve-eps", "delta0-t", "zero-run-0",
        "zero-run-63", "zero-run-brute-21", "asym-beta-1", "spec-no-kind",
        "gap-fit-eps", "scale-one-coordinate", "dual-tail-bit",
        "dual-tail-kind", "parse-tail"])
def test_an_argument_outside_its_domain_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
