"""Scaling-function estimation, jumps, gamma recovery and asymmetry."""

import math

import numpy as np
import pytest

import cantorscale as cs
from cantorscale import scaling
from cantorscale.branches import _decay_fit
from cantorscale.scaling import _CHAIN_BLOCK, LENGTH_FLOOR


def test_tent_scaling_is_exactly_one_third():
    t = cs.Tent()
    for a in (cs.DualPoint((), (1, 0)), cs.DualPoint((), "zeros"),
              cs.DualPoint((1, 1, 0), "zeros")):
        est = cs.scale_at(t, 1.0, a, 15)
        # exact in theory; the endpoint chain leaves ~1e-10 of cancellation
        assert np.max(np.abs(np.asarray(est.approximant_sequence) - 1 / 3)) < 1e-9
        assert est.value == pytest.approx(1 / 3, abs=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND scaling.py scale_at on chains that reach LENGTH_FLOOR: the last "
    "ratios above the floor carry rounding above their error_bound "
    "(ROADMAP item 3)"))
def test_tent_one_third_lies_within_the_error_bound_at_the_floor():
    est = cs.scale_at(cs.Tent(), 1.0, cs.DualPoint((), (1, 0)), 22)
    assert abs(est.value - 1 / 3) <= est.error_bound


def test_request_past_the_floor_keeps_the_last_reliable_ratio():
    # the depth-23 child cylinder is shorter than LENGTH_FLOOR, so a deeper
    # request must stop at depth 22 and keep that ratio
    a = cs.DualPoint((), (1, 0))
    deep = cs.scale_at(cs.Tent(), 1.0, a, 25)
    at_floor = cs.scale_at(cs.Tent(), 1.0, a, 22)
    assert deep.effective_depth == at_floor.effective_depth == 22
    assert deep.value == at_floor.value
    assert deep.approximant_sequence == at_floor.approximant_sequence


def test_convergence_test_compares_deltas_one_period_apart():
    # the deltas of a period-3 tail swing within each period while they
    # fall tenfold per period; the last three are increasing
    est = cs.scale_at(cs.AsymQuadratic(0.358), 0.0,
                      cs.parse_dual_point("(010)^inf|00."), 22)
    deltas = np.abs(np.diff(est.approximant_sequence))
    assert deltas[-3] < deltas[-2] < deltas[-1]
    assert est.converged


def test_quadratic_b_point_is_half():
    q = cs.Quadratic()
    est = cs.scale_at(q, 0.0, cs.DualPoint((), (1, 0)), 25)
    assert est.value == pytest.approx(0.5, abs=1e-3)
    assert est.converged


def test_quadratic_zeros_point_is_quarter():
    q = cs.Quadratic()
    est = cs.scale_at(q, 0.0, cs.DualPoint((), "zeros"), 25)
    assert est.value == pytest.approx(0.25, abs=1e-3)


def test_estimate_invariants():
    q = cs.Quadratic()
    est = cs.scale_at(q, 0.3, cs.DualPoint((), (1, 1, 0)), 18)
    assert all(0.0 < s < 1.0 for s in est.approximant_sequence)
    assert abs(est.value - est.approximant_sequence[-1]) <= est.error_bound


def _graph_rows(s):
    """``(x, word, s)`` rows rebuilt from ``scaling_graph``'s x-ordered array."""
    n_bits = s.size.bit_length() - 1
    return [(k / s.size, format(k, f"0{n_bits}b")[::-1], v)
            for k, v in enumerate(s.tolist())]


def test_scaling_graph_rows():
    rows = _graph_rows(cs.scaling_graph(cs.Tent(), 1.0, 6))
    assert len(rows) == 2 ** 7
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)
    assert all(s == pytest.approx(1 / 3, abs=1e-12) for _, _, s in rows)


def test_scaling_graph_additivity_quadratic():
    # s(w0) + s(w1) + |G_w|/|I_w| = 1 at every word
    for family, eps in ((cs.Quadratic(), 0.5), (cs.GammaPower(3.0), 0.2)):
        rows = _graph_rows(cs.scaling_graph(family, eps, 8))
        by_word = {w: s for _, w, s in rows}
        for _, w, _ in rows:
            parent = w[:-1]
            rec = cs.gap(family, eps, cs.Word(tuple(int(b) for b in parent)))
            assert by_word[parent + "0"] + by_word[parent + "1"] == (
                pytest.approx(1.0 - rec.gap_ratio, abs=1e-12))


def test_monotone_refinement_delta_decay():
    q = cs.Quadratic()
    _, lam_fit, _, _ = _decay_fit(cs.partition_levels(q, 0.3, 10))
    est = cs.scale_at(q, 0.3, cs.DualPoint((), (1, 1, 0)), 20)
    deltas = np.abs(np.diff(np.asarray(est.approximant_sequence)))
    ns = np.arange(len(deltas))
    mask = deltas > 1e-14
    slope = np.polyfit(ns[mask], np.log(deltas[mask]), 1)[0]
    assert math.exp(slope) <= lam_fit + 0.1


def test_scaling_convergence_examples():
    q = cs.Quadratic()
    pts = [cs.DualPoint((), (1, 0))]
    rows = cs.scaling_convergence(q, [0.1], pts, 12)
    assert rows[0][1] == 0.0

    t = cs.Tent()
    grid = [0.1, 0.3, 0.6]
    rows = cs.scaling_convergence(t, grid, pts, 12)
    for eps, dist in rows:
        assert dist == pytest.approx(abs(1 / (2 + eps) - 1 / 2.1), abs=1e-12)


def test_scaling_convergence_needs_a_sample_point():
    with pytest.raises(cs.DomainError, match="sample point"):
        cs.scaling_convergence(cs.Quadratic(), [0.1, 0.2], [], 12)


def test_jump_at_zeros_point():
    ja = cs.jump_at(cs.Quadratic(), cs.DualPoint((), "zeros"), 25)
    assert ja.value == pytest.approx(0.25, abs=1e-3)
    assert ja.one_sided_limits[0] == pytest.approx(0.5, abs=1e-3)
    assert ja.one_sided_limits[1] == pytest.approx(0.5, abs=1e-3)
    assert ja.converged
    # the jump: point value differs from the approach limit
    assert abs(ja.one_sided_limits[0] - ja.value) > 0.1
    assert ja.tau1 >= ja.tau2 > 0


def test_jump_at_tent_degenerate():
    ja = cs.jump_at(cs.Tent(), cs.DualPoint((0, 1), "zeros"), 22)
    assert ja.one_sided_limits[0] == pytest.approx(ja.value, abs=1e-9)
    assert ja.one_sided_limits[1] == pytest.approx(ja.value, abs=1e-9)


def test_jump_limits_match_direct_estimates():
    # two independent estimators of the same limit at (0_inf 1 0.)
    q = cs.Quadratic()
    ja = cs.jump_at(q, cs.DualPoint((0, 1), "zeros"), 22)
    n = 15
    for j in (0, 1):
        word = (j, 1) + (0,) * n + (1, 0)
        pt = cs.DualPoint(tuple(reversed(word)), "truncated")
        direct = cs.scale_at(q, 0.0, pt, len(word) - 1).value
        assert min(abs(direct - ja.one_sided_limits[0]),
                   abs(direct - ja.one_sided_limits[1])) < 1e-2


def test_jump_at_merges_explicit_trailing_zeros_into_the_tail():
    q = cs.Quadratic()
    assert (cs.jump_at(q, cs.DualPoint((1, 0, 0), "zeros"), 25)
            == cs.jump_at(q, cs.DualPoint((1,), "zeros"), 25))


def test_jump_requires_a_point():
    with pytest.raises(cs.DomainError):
        cs.jump_at(cs.Quadratic(), cs.DualPoint((), (1, 0)), 20)
    with pytest.raises(cs.DomainError):
        cs.jump_at(cs.Quadratic(), cs.DualPoint((1, 0), "truncated"), 20)


def test_gamma_recover():
    g, degenerate = cs.gamma_recover(cs.Quadratic(), 25)
    assert not degenerate
    assert g == pytest.approx(2.0, abs=0.05)
    g, degenerate = cs.gamma_recover(cs.GammaPower(3.0), 25)
    assert not degenerate
    assert g == pytest.approx(3.0, abs=0.1)
    g, degenerate = cs.gamma_recover(cs.Tent(), 25)
    assert degenerate and g == 1.0


def test_asymmetry():
    v, conv = cs.asymmetry(cs.Quadratic(), 16)
    assert conv and v == pytest.approx(1.0, abs=1e-6)
    # numeric roots amplify toward the fixed point, so stay at depth 10
    v, conv = cs.asymmetry(cs.Figure6(0.02), 10)
    assert v == pytest.approx(1.0, abs=1e-5)
    # regression fixture for the asymmetric per-side family
    v, conv = cs.asymmetry(cs.AsymQuadratic(0.5), 18)
    assert conv
    assert v == pytest.approx(0.5773504850887842, abs=1e-9)
    assert abs(v - 1.0) > 0.1
    # depth 0, or a negative depth, reads one ratio |I_01| / |I_11|, which
    # has nothing to agree with
    for depth in (0, -3):
        assert cs.asymmetry(cs.AsymQuadratic(0.3), depth) == (
            0.8625721134438878, False)


def _count_inverse_calls(family):
    """Wrap ``family.inverse_branch``; the returned list grows by one per call."""
    calls = []
    inverse = family.inverse_branch

    def counted(*args):
        calls.append(1)
        return inverse(*args)

    family.inverse_branch = counted
    return calls


@pytest.mark.parametrize("chain", [
    lambda fam, depth: cs.scale_at(
        fam, 0.0, cs.parse_dual_point("0^inf|1."), depth).approximant_sequence,
    lambda fam, depth: cs.jump_at(fam, cs.parse_dual_point("0^inf|10."), depth),
    lambda fam, depth: cs.asymmetry(fam, depth),
], ids=["scale_at", "jump_at", "asymmetry"])
def test_chain_cost_follows_the_depth_reached(chain):
    # the quadratic chains reach LENGTH_FLOOR before depth 25
    results, calls = [], []
    for depth in (25, 100_000):
        family = cs.Quadratic()
        counter = _count_inverse_calls(family)
        results.append(chain(family, depth))
        calls.append(len(counter))
    assert results[0] == results[1]
    assert calls[1] <= calls[0] + _CHAIN_BLOCK


def _scaling_graph_words(family, eps, depth):
    """Reference: ``scaling_graph`` sorted by ``argsort`` with one ``Word`` per row."""
    levels = cs.partition_levels(family, eps, depth)
    child = levels[depth]
    n_bits = depth + 1
    child_len = child.lengths
    parent_len = (levels[depth - 1].lengths if depth >= 1
                  else np.asarray([family.domain[1] - family.domain[0]]))
    s = child_len / parent_len[np.arange(len(child)) >> 1]
    idx = np.arange(len(child), dtype=np.int64)
    rev = np.zeros_like(idx)
    v = idx.copy()
    for _ in range(n_bits):
        rev = (rev << 1) | (v & 1)
        v >>= 1
    x = rev / float(1 << n_bits)
    return [(float(x[i]), str(child.word(int(i))), float(s[i]))
            for i in np.argsort(x, kind="stable")]


@pytest.mark.parametrize("family,eps", [
    (cs.Quadratic(), 0.0), (cs.Quadratic(), 0.3), (cs.Tent(), 1.0),
    (cs.GammaPower(3.0), 0.2), (cs.AsymQuadratic(0.3), 0.0),
    (cs.Figure6(-0.03), 0.0),
], ids=["quadratic-0", "quadratic-0.3", "tent", "gamma3", "asym", "figure6"])
@pytest.mark.parametrize("depth", [0, 1, 4, 9])
def test_scaling_graph_matches_the_word_loop(family, eps, depth):
    assert (_graph_rows(cs.scaling_graph(family, eps, depth))
            == _scaling_graph_words(family, eps, depth))


def test_scale_at_reads_coordinates_as_far_as_the_chain_reaches(monkeypatch):
    # the coordinates are read one chain block at a time, not all `depth`
    # of them up front
    calls = []
    coord = cs.DualPoint.coord

    def counted(self, k):
        calls.append(k)
        return coord(self, k)

    monkeypatch.setattr(cs.DualPoint, "coord", counted)
    est = cs.scale_at(cs.Quadratic(), 0.0, cs.parse_dual_point("0^inf|1."),
                      100_000)
    assert len(calls) <= est.effective_depth + 2 * _CHAIN_BLOCK


@pytest.mark.parametrize("text", ["0^inf|.", "0^inf|10.", "0^inf|110."])
def test_jump_at_reads_no_cylinder_below_the_floor(text):
    # the chain stops before the first I_{0_n w} shorter than LENGTH_FLOOR,
    # as scale_at stops before the first short child
    ja = cs.jump_at(cs.Quadratic(), cs.parse_dual_point(text), 100)
    assert min(ja.b_n) >= LENGTH_FLOOR
    assert len(ja.b_n) > 15


def test_asymmetry_reads_no_cylinder_below_the_floor(monkeypatch):
    # asymmetry maps the chain I_{0_n} through branch 1 first: record the
    # intervals that call receives
    seen = []
    apply = scaling.apply_branches

    def recorded(family, eps, sides, points):
        if tuple(sides) == (1,) and not seen:
            seen.append(np.asarray(points))
        return apply(family, eps, sides, points)

    monkeypatch.setattr(scaling, "apply_branches", recorded)
    value, converged = cs.asymmetry(cs.AsymQuadratic(-0.6), 100)
    (zeros,) = seen
    assert len(zeros) > 10
    assert np.min(np.abs(zeros[:, 1] - zeros[:, 0])) >= LENGTH_FLOOR
    assert converged and value == pytest.approx(2.0, abs=1e-9)
