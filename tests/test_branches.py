"""Inverse branches, cylinders, partitions and the decay diagnostic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorscale as cs
from cantorscale.branches import _decay_fit


def test_inverse_branch_examples():
    q = cs.Quadratic()
    assert q.inverse_branch(0.0, 0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert q.inverse_branch(0.0, 0, -1.0) == pytest.approx(-1.0, abs=1e-12)
    assert q.inverse_branch(0.5, 1, 0.0) == pytest.approx(
        math.sqrt(1.5 / 2.5), abs=1e-12)


@pytest.mark.parametrize("family,eps", [
    (cs.Quadratic(), 0.3),
    (cs.GammaPower(3.0), 0.2),
    (cs.Tent(), 0.7),
    (cs.Figure6(-0.02), 0.0),
    (cs.AsymQuadratic(0.4), 0.1),
])
def test_inverse_branch_round_trip(family, eps):
    ys = np.linspace(-1.0, 1.0, 101)
    for side in (0, 1):
        xs = np.asarray([family.inverse_branch(eps, side, float(y)) for y in ys])
        if side == 0:
            assert np.all(xs <= 1e-12) and np.all(xs >= -1.0 - 1e-12)
        else:
            assert np.all(xs >= -1e-12) and np.all(xs <= 1.0 + 1e-12)
        back = np.asarray(family.eval(eps, np.clip(xs, -1.0, 1.0)))
        assert np.max(np.abs(back - ys)) < 1e-10


def test_cylinder_examples():
    t = cs.Tent()
    c = cs.cylinder(t, 0.0, cs.Word((0,)))
    assert (c.lo, c.hi) == pytest.approx((-1.0, 0.0), abs=1e-12)
    assert c.word.parity == 1
    c = cs.cylinder(t, 1.0, cs.Word((0,)))
    assert (c.lo, c.hi) == pytest.approx((-1.0, -1.0 / 3.0), abs=1e-12)
    q = cs.Quadratic()
    c = cs.cylinder(q, 0.0, cs.Word((0, 0)))
    assert (c.lo, c.hi) == pytest.approx((-1.0, -1.0 / math.sqrt(2)), abs=1e-12)


def test_orientation_is_one_bit_parity():
    q = cs.Quadratic()
    assert cs.cylinder(q, 0.2, cs.Word((0, 1, 1))).word.parity == 1
    assert cs.cylinder(q, 0.2, cs.Word((1, 0, 0))).word.parity == -1


def test_partition_examples():
    t = cs.Tent()
    p0 = cs.partition(t, 0.0, 0)
    cells = sorted(zip(p0.los, p0.his))
    assert cells[0] == pytest.approx((-1.0, 0.0), abs=1e-12)
    assert cells[1] == pytest.approx((0.0, 1.0), abs=1e-12)
    assert p0.lambda_n == pytest.approx(1.0, abs=1e-12)

    p5 = cs.partition(t, 0.0, 5)
    assert len(p5) == 64
    assert np.max(np.abs(p5.lengths - 0.03125)) < 1e-12

    q = cs.Quadratic()
    p10 = cs.partition(q, 0.0, 10)
    assert p10.lambda_n == pytest.approx((math.pi / 2) * 2.0 ** -10, rel=1e-3)


def test_partition_budget():
    with pytest.raises(cs.BudgetExceededError):
        cs.partition(cs.Tent(), 0.0, 23)


def _decay_rate(family, eps, n_max):
    return _decay_fit(cs.partition_levels(family, eps, n_max))


def test_decay_rate_examples():
    C, lam, resid, expo = _decay_rate(cs.Tent(), 0.0, 10)
    assert lam == pytest.approx(0.5, abs=1e-10)
    assert expo
    _, lam, _, _ = _decay_rate(cs.Tent(), 1.0, 10)
    assert lam == pytest.approx(1.0 / 3.0, abs=1e-10)
    _, lam, _, _ = _decay_rate(cs.Quadratic(), 0.0, 10)
    assert lam == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("family,eps,tol", [
    # closed-form branches: 1e-12; the numerically inverted quartic keeps a
    # small slack because absolute root error is amplified through the
    # critical point when the two children share an endpoint (eps = 0)
    (cs.Quadratic(), 0.0, 1e-12),
    (cs.Quadratic(), 0.5, 1e-12),
    (cs.GammaPower(3.0), 0.3, 1e-12),
    (cs.Tent(), 1.0, 1e-12),
    (cs.Figure6(0.02), 0.0, 2e-8),
])
def test_nesting_disjointness_additivity(family, eps, tol):
    levels = cs.partition_levels(family, eps, 12)
    for k in range(1, 13):
        parent, child = levels[k - 1], levels[k]
        p_lo, p_hi = parent.los, parent.his
        c_lo0, c_hi0 = child.los[0::2], child.his[0::2]
        c_lo1, c_hi1 = child.los[1::2], child.his[1::2]
        # nesting with endpoint containment
        for lo, hi in ((c_lo0, c_hi0), (c_lo1, c_hi1)):
            assert np.all(lo >= p_lo - tol)
            assert np.all(hi <= p_hi + tol)
        # disjoint interiors and length additivity through the gap
        left_hi = np.minimum(c_hi0, c_hi1)
        right_lo = np.maximum(c_lo0, c_lo1)
        gap = right_lo - left_hi
        assert np.all(gap >= -tol)
        total = (c_hi0 - c_lo0) + (c_hi1 - c_lo1) + np.maximum(gap, 0.0)
        assert np.max(np.abs(total - (p_hi - p_lo))) < tol


def test_orientation_law_child_order():
    # the 0-child is the left child exactly when the word has even 1-parity
    family, eps = cs.Quadratic(), 0.3
    levels = cs.partition_levels(family, eps, 8)
    for k in range(1, 9):
        parent, child = levels[k - 1], levels[k]
        for j in range(len(parent)):
            parity = sum(parent.word(j).bits) % 2
            zero_is_left = child.los[2 * j] < child.los[2 * j + 1]
            assert zero_is_left == (parity == 0)


@pytest.mark.parametrize("family", [cs.Quadratic(), cs.Tent(), cs.GammaPower(3.0)])
def test_code_conjugacy(family):
    # f(x(a)) = x(sigma a), checked at eps = 1 where cylinders at depth 20
    # are far smaller than the 1e-8 tolerance
    eps = 1.0
    rng = np.random.default_rng(11)
    for _ in range(100):
        code = cs.Code(tuple(rng.integers(0, 2, size=25)), "truncated")
        x, bound = cs.point_from_code(family, eps, code, 20)
        x_shift, bound2 = cs.point_from_code(family, eps, code.shift(), 20)
        assert bound < 1e-9 and bound2 < 1e-9
        assert abs(float(family.eval(eps, x)) - x_shift) < 1e-8


def test_refinement_consistency():
    family, eps = cs.Quadratic(), 0.2
    level = cs.partition_levels(family, eps, 8)[8]
    prefix = (0, 1)
    for suffix_index in range(2 ** 7):
        bits = prefix + tuple((suffix_index >> (6 - k)) & 1 for k in range(7))
        direct = cs.cylinder(family, eps, cs.Word(bits))
        index = int("".join(map(str, bits)), 2)
        assert level.los[index] == pytest.approx(direct.lo, abs=1e-12)
        assert level.his[index] == pytest.approx(direct.hi, abs=1e-12)


KERNEL_CASES = [
    (cs.Quadratic(), 0.0),
    (cs.GammaPower(3.0), 0.2),
    (cs.Tent(), 0.5),
    (cs.Figure6(-0.03), 0.0),
    (cs.AsymQuadratic(0.3), 0.1),
]


@pytest.mark.parametrize("family,eps", KERNEL_CASES)
def test_apply_branches_rows_are_successive_cylinders(family, eps):
    rng = np.random.default_rng(3)
    sides = tuple(int(b) for b in rng.integers(0, 2, size=16))
    rows = cs.apply_branches(family, eps, sides, family.domain)
    assert rows.shape == (17, 2)
    assert tuple(rows[0]) == family.domain
    for k in range(1, 17):
        # the first k sides, innermost first, make the word read backwards
        cyl = cs.cylinder(family, eps, cs.Word(sides[:k][::-1]))
        assert (min(rows[k]), max(rows[k])) == (cyl.lo, cyl.hi)


def test_apply_branches_shapes():
    q = cs.Quadratic()
    assert cs.apply_branches(q, 0.2, (), 0.3).tolist() == [0.3]
    assert cs.apply_branches(q, 0.2, (1, 0), 0.3).shape == (3,)
    rows = cs.apply_branches(q, 0.2, (1, 0), np.zeros((2, 3)))
    assert rows.shape == (3, 2, 3)
    assert np.all(rows[2] == q.inverse_branch(0.2, 0, q.inverse_branch(0.2, 1, 0.0)))


@pytest.mark.parametrize("family,eps", KERNEL_CASES)
def test_apply_branches_keeps_children_nested(family, eps):
    # carry I_w and its two children I_w0, I_w1 down random words
    c0, c1 = (cs.cylinder(family, eps, cs.Word((b,))) for b in (0, 1))
    points = [*family.domain, c0.lo, c0.hi, c1.lo, c1.hi]
    rng = np.random.default_rng(8)
    tol = 1e-12
    for _ in range(20):
        sides = tuple(int(b) for b in rng.integers(0, 2, size=14))
        ends = cs.apply_branches(family, eps, sides, points).reshape(-1, 3, 2)
        lo, hi = ends.min(axis=2), ends.max(axis=2)
        assert np.all(lo[:, 1:] >= lo[:, :1] - tol)
        assert np.all(hi[:, 1:] <= hi[:, :1] + tol)
        gap = np.maximum(lo[:, 1], lo[:, 2]) - np.minimum(hi[:, 1], hi[:, 2])
        assert np.all(gap >= -tol)
        length = hi - lo
        total = length[:, 1] + length[:, 2] + np.maximum(gap, 0.0)
        assert np.max(np.abs(total - length[:, 0])) < tol


PRESETS = [cs.Quadratic(), cs.GammaPower(1.5), cs.Tent(), cs.Figure6(-0.03),
           cs.AsymQuadratic(0.3)]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(family=st.sampled_from(PRESETS), data=st.data(),
       steps=st.integers(1, 20), n=st.integers(1, 6))
def test_apply_branches_per_point_sides_match_the_columns(family, data, steps, n):
    lo, hi = family.param_range
    eps = data.draw(st.floats(lo, hi), label="eps")
    sides = np.asarray(data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=steps, max_size=steps), label="sides"))
    dlo, dhi = family.domain
    points = np.asarray(data.draw(st.lists(
        st.lists(st.floats(dlo, dhi), min_size=2, max_size=2),
        min_size=n, max_size=n), label="points"))
    rows = cs.apply_branches(family, eps, sides, points)
    assert rows.shape == (steps + 1, n, 2)
    for i in range(n):
        column = cs.apply_branches(family, eps, tuple(sides[:, i].tolist()),
                                   points[i])
        assert np.array_equal(rows[:, i], column)


def _checked_chain(family, eps, sides, points):
    """Reference: ``apply_branches`` with a checked ``inverse_branch`` at
    every step and per-point sides split by boolean masks."""
    rows = [np.asarray(points, dtype=float)]
    for side in sides:
        row = rows[-1]
        if np.ndim(side) == 0:
            rows.append(np.asarray(family.inverse_branch(eps, side, row)))
            continue
        side = np.broadcast_to(np.reshape(side, (-1,) + (1,) * (row.ndim - 1)),
                               row.shape)
        step = np.empty_like(row)
        for s in (0, 1):
            step[side == s] = family.inverse_branch(eps, s, row[side == s])
        rows.append(step)
    return np.stack(rows)


def _two_sided_chain(family, eps, sides, points):
    """Reference: a per-point chain that computes both branches at every step
    and takes each point's side from them."""
    rows = [np.asarray(points, dtype=float)]
    for side in np.asarray(sides, dtype=bool):
        g0, g1 = (family.inverse_branch(eps, s, rows[-1]) for s in (0, 1))
        rows.append(np.where(side[:, None], g1, g0))
    return np.stack(rows)


@pytest.mark.parametrize("family", [
    cs.Quadratic(), cs.GammaPower(1.5), cs.Tent(), cs.Figure6(-0.03),
    cs.AsymQuadratic(0.0)],
    ids=["quadratic", "gamma1.5", "tent", "figure6", "asym0"])
def test_a_mirrored_per_point_chain_is_the_two_sided_one_bit_for_bit(family):
    assert family._mirrored
    rng = np.random.default_rng(17)
    # the domain ends and the critical point, whose images carry signed zeros
    # at eps = 0, then random points
    starts = np.concatenate([[[-1.0, 1.0], [0.0, -0.0], [1.0, 0.0]],
                             rng.uniform(-1.0, 1.0, (37, 2))])
    for eps in sorted({0.0, *family.param_range, 0.2 * family.param_range[1]}):
        sides = rng.integers(0, 2, (25, len(starts)))
        got = cs.apply_branches(family, eps, sides, starts)
        want = _two_sided_chain(family, eps, sides, starts)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _checked_levels(family, eps, n):
    """Reference: ``partition_levels`` with a checked ``inverse_branch``."""
    los, his = np.asarray([family.domain[0]]), np.asarray([family.domain[1]])
    inverse = family.inverse_branch
    for _ in range(n + 1):
        los, his = (np.concatenate([inverse(eps, 0, los), inverse(eps, 1, his)]),
                    np.concatenate([inverse(eps, 0, his), inverse(eps, 1, los)]))
        yield los, his


_preset_params = st.one_of(
    st.tuples(st.just("quadratic"), st.just({})),
    st.tuples(st.just("tent"), st.just({})),
    st.tuples(st.just("gamma_power"), st.fixed_dictionaries(
        {"gamma": st.floats(1.05, 5.0)})),
    st.tuples(st.just("figure6"), st.fixed_dictionaries(
        {"c": st.floats(-0.06, 0.06)})),
    st.tuples(st.just("asym_quadratic"), st.fixed_dictionaries(
        {"beta": st.just(0.0) | st.floats(-0.9, 0.9)})))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(preset=_preset_params, data=st.data(), steps=st.integers(1, 25),
       n=st.integers(1, 6), depth=st.integers(0, 10))
def test_unchecked_steps_match_the_checked_kernel(preset, data, steps, n, depth):
    family = cs.make_family(preset[0], **preset[1])
    lo, hi = family.param_range
    eps = data.draw(st.floats(lo, hi), label="eps")
    sides = np.asarray(data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=steps, max_size=steps), label="sides"))
    dlo, dhi = family.domain
    points = np.asarray(data.draw(st.lists(
        st.lists(st.floats(dlo, dhi), min_size=2, max_size=2),
        min_size=n, max_size=n), label="points"))
    assert np.array_equal(cs.apply_branches(family, eps, sides, points),
                          _checked_chain(family, eps, sides, points))
    column = tuple(sides[:, 0].tolist())
    assert np.array_equal(cs.apply_branches(family, eps, column, points),
                          _checked_chain(family, eps, column, points))
    # the bits, not ==, so that the sign of a zero endpoint counts
    for level, (los, his) in zip(cs.partition_levels(family, eps, depth),
                                 _checked_levels(family, eps, depth),
                                 strict=True):
        assert level.mirrored == family._mirrored
        assert np.array_equal(level.los.view(np.uint64), los.view(np.uint64))
        assert np.array_equal(level.his.view(np.uint64), his.view(np.uint64))


@pytest.mark.parametrize("family,eps", [
    (cs.Quadratic(), 0.0), (cs.Quadratic(), 0.3), (cs.Tent(), 1.0),
    (cs.GammaPower(1.5), 0.2), (cs.GammaPower(3.0), 0.0),
    (cs.Figure6(-0.03), 0.0), (cs.Figure6(0.05), 0.0),
    (cs.AsymQuadratic(0.0), 0.0), (cs.AsymQuadratic(0.0), 0.2),
    (cs.AsymQuadratic(0.3), 0.0), (cs.AsymQuadratic(0.3), 0.2)])
def test_a_family_is_mirrored_when_its_checked_levels_mirror_bit_for_bit(
        family, eps):
    # cell 2^n + i of the four-call reference against cell i negated
    mirror = True
    for los, his in _checked_levels(family, eps, 8):
        h = los.size // 2
        mirror &= (np.array_equal(los[h:].view(np.uint64),
                                  (-his[:h]).view(np.uint64))
                   and np.array_equal(his[h:].view(np.uint64),
                                      (-los[:h]).view(np.uint64)))
    assert family._mirrored == mirror


def test_a_chain_checks_only_its_first_step(monkeypatch):
    calls = []
    inverse = cs.MapFamily.inverse_branch

    def counted(self, *args):
        calls.append(1)
        return inverse(self, *args)

    monkeypatch.setattr(cs.MapFamily, "inverse_branch", counted)
    q, rng = cs.Quadratic(), np.random.default_rng(4)
    cs.apply_branches(q, 0.2, tuple(rng.integers(0, 2, 30).tolist()), q.domain)
    assert len(calls) == 1
    calls.clear()
    cs.apply_branches(q, 0.2, rng.integers(0, 2, (30, 5)), np.zeros((5, 2)))
    assert len(calls) <= 2
    calls.clear()
    cs.partition_levels(q, 0.2, 10)
    assert calls == []


_ENTRY_CALLS = {
    "apply_branches": lambda fam, eps, x: cs.apply_branches(
        fam, eps, (0, 1, 1), [x, 0.5]),
    "apply_branches-2d": lambda fam, eps, x: cs.apply_branches(
        fam, eps, [[0, 1], [1, 1], [0, 0]], [x, 0.5]),
    # the distortion-check command's suite, which draws its own points
    "distortion_check": lambda fam, eps, x: cs.distortion_suite(fam, eps, 10),
    "cylinder": lambda fam, eps, x: cs.cylinder(fam, eps, cs.Word((0, 1, 1))),
    "partition_levels": lambda fam, eps, x: cs.partition_levels(fam, eps, 4),
    "scale_at": lambda fam, eps, x: cs.scale_at(
        fam, eps, cs.parse_dual_point("0^inf|1."), 10),
    "tilde_scaling": lambda fam, eps, x: cs.tilde_scaling(
        fam, eps, cs.parse_dual_point("0^inf|1."), 10),
    "tilde_eval": lambda fam, eps, x: cs.tilde_eval(fam, eps, x),
}


@pytest.mark.parametrize("name", _ENTRY_CALLS)
@pytest.mark.parametrize("eps", [-0.1, 1.0 + 1e-9, 1.5])
def test_a_chain_checks_eps_at_its_entry(name, eps):
    with pytest.raises(cs.ParameterRangeError):
        _ENTRY_CALLS[name](cs.Quadratic(), eps, 0.25)


@pytest.mark.parametrize("name", ["apply_branches", "apply_branches-2d"])
@pytest.mark.parametrize("x", [-1.5, 1.0 + 1e-9])
def test_a_chain_checks_its_start_points_at_its_entry(name, x):
    with pytest.raises(cs.DomainError):
        _ENTRY_CALLS[name](cs.Quadratic(), 0.2, x)


@pytest.mark.parametrize("sides,message", [
    ((0, 1, 1, 2), "side must be 0 or 1, got 2"),
    ([[0, 1], [1, 1], [0, 2]], "sides must be 0 or 1")])
def test_a_bad_side_at_a_later_step_is_refused(sides, message):
    # the unchecked steps take any side other than 0 for side 1
    with pytest.raises(ValueError, match=message):
        cs.apply_branches(cs.Quadratic(), 0.2, sides, [0.1, 0.2])


def test_apply_branches_per_point_sides_are_checked():
    q = cs.Quadratic()
    with pytest.raises(ValueError, match="sides must be 0 or 1"):
        cs.apply_branches(q, 0.2, [[0, 2]], [0.1, 0.2])
    # a row of one side is the plain step
    assert np.array_equal(cs.apply_branches(q, 0.2, [[1, 1]], [0.1, 0.2]),
                          cs.apply_branches(q, 0.2, [1], [0.1, 0.2]))


@pytest.mark.parametrize("family,eps", KERNEL_CASES + [
    (cs.Quadratic(), 0.3), (cs.GammaPower(1.5), 0.2), (cs.Tent(), 1.0),
    (cs.Figure6(0.02), 0.0), (cs.AsymQuadratic(-0.45), 0.5)])
def test_invariant_suite_passes_on_every_word(family, eps):
    assert cs.invariant_suite(family, eps) == {
        "endpoints": {"checks": 3, "passed": True},
        "nesting_additivity": {"checks": 511, "passed": True},
        "shift_conjugacy": {"checks": 1022, "passed": True}}


class _SkewedQuadratic(cs.Quadratic):
    """The quadratic with a map that no longer matches its inverse branches."""

    def _eval_raw(self, eps, x):
        return super()._eval_raw(eps, x) * (1.0 - 1e-3 * np.asarray(x))


def _into(out, x):
    """What an ``_inverse`` returns: ``x`` written to ``out``."""
    out[...] = x
    return out


class _OverlappingQuadratic(cs.Quadratic):
    """Branch images [-1, 0.01] and [-0.01, 1]: children overlap, hull intact."""

    def _inverse(self, eps, side, y, out):
        x = super()._inverse(eps, side, y, np.empty_like(out))
        return _into(out, x + 0.01 * (1.0 + x) if side == 0
                     else x - 0.01 * (1.0 - x))


class _ShrunkQuadratic(cs.Quadratic):
    """Branch images inside (-1, 1): the children no longer reach the ends."""

    def _inverse(self, eps, side, y, out):
        return _into(out, 0.99 * super()._inverse(eps, side, y, np.empty_like(out)))


@pytest.mark.parametrize("broken,eps,suite", [
    (_SkewedQuadratic(), 0.3, "shift_conjugacy"),
    (_OverlappingQuadratic(), 0.0, "nesting_additivity"),
    (_ShrunkQuadratic(), 0.3, "nesting_additivity")])
def test_invariant_suite_sees_a_broken_family(broken, eps, suite):
    assert not cs.invariant_suite(broken, eps)[suite]["passed"]
    # the refinement writes through ``out=``: the broken branches reach it
    for level, (los, his) in zip(cs.partition_levels(broken, eps, 8),
                                 _checked_levels(broken, eps, 8), strict=True):
        assert np.array_equal(level.los, los) and np.array_equal(level.his, his)


def test_word_rendering_and_index_round_trip():
    w = cs.Word((0, 1, 1, 0))
    assert str(w) == "0110"
    p = cs.partition(cs.Tent(), 0.5, 3)
    for j in range(len(p)):
        bits = p.word(j).bits
        assert int("".join(map(str, bits)), 2) == j


def test_word_index_range_is_that_of_the_endpoint_arrays():
    p = cs.partition(cs.Quadratic(), 0.0, 2)
    n = len(p)
    assert n == 8
    for j in (-n, -1, 0, n - 1):
        assert p.word(j) == p.word(j % n)
    assert str(p.word(-1)) == "111" and str(p.word(-n)) == "000"
    for j in (n, n + 3, -n - 1, -2 * n):
        with pytest.raises(IndexError):
            p.word(j)
        with pytest.raises(IndexError):
            p.los[j]
