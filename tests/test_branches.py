"""Inverse branches, cylinders, partitions and the decay diagnostic."""

import math

import numpy as np
import pytest

import cantorscale as cs


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
    assert c.orientation == 1
    c = cs.cylinder(t, 1.0, cs.Word((0,)))
    assert (c.lo, c.hi) == pytest.approx((-1.0, -1.0 / 3.0), abs=1e-12)
    q = cs.Quadratic()
    c = cs.cylinder(q, 0.0, cs.Word((0, 0)))
    assert (c.lo, c.hi) == pytest.approx((-1.0, -1.0 / math.sqrt(2)), abs=1e-12)


def test_orientation_is_one_bit_parity():
    q = cs.Quadratic()
    assert cs.cylinder(q, 0.2, cs.Word((0, 1, 1))).orientation == 1
    assert cs.cylinder(q, 0.2, cs.Word((1, 0, 0))).orientation == -1


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


def test_decay_rate_examples():
    C, lam, resid, expo = cs.decay_rate(cs.Tent(), 0.0, 10)
    assert lam == pytest.approx(0.5, abs=1e-10)
    assert expo
    _, lam, _, _ = cs.decay_rate(cs.Tent(), 1.0, 10)
    assert lam == pytest.approx(1.0 / 3.0, abs=1e-10)
    _, lam, _, _ = cs.decay_rate(cs.Quadratic(), 0.0, 10)
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


def test_word_rendering_and_index_round_trip():
    w = cs.Word((0, 1, 1, 0))
    assert str(w) == "0110"
    p = cs.partition(cs.Tent(), 0.5, 3)
    for j in range(len(p)):
        bits = p.word(j).bits
        assert int("".join(map(str, bits)), 2) == j
