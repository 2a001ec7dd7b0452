"""Scaling-function estimation, jumps, gamma recovery and asymmetry."""

import math

import numpy as np
import pytest

import cantorscale as cs
from cantorscale.scaling import _CHAIN_BLOCK


def test_tent_scaling_is_exactly_one_third():
    t = cs.Tent()
    for a in (cs.DualPoint((), (1, 0)), cs.DualPoint((), "zeros"),
              cs.DualPoint((1, 1, 0), "zeros")):
        est = cs.scale_at(t, 1.0, a, 15)
        # exact in theory; the endpoint chain leaves ~1e-10 of cancellation
        assert np.max(np.abs(np.asarray(est.approximant_sequence) - 1 / 3)) < 1e-9
        assert est.value == pytest.approx(1 / 3, abs=1e-9)


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


def test_additivity_identity():
    # s(w0) + s(w1) + |G_w|/|I_w| = 1 at every word
    for family, eps in ((cs.Quadratic(), 0.5), (cs.GammaPower(3.0), 0.2)):
        summary = cs.gap_geometry(family, eps, 8, include_table=True)
        for rec in summary.records:
            assert rec.gap_ratio + sum(rec.child_ratios) == pytest.approx(
                1.0, abs=1e-12)


def test_scaling_graph_rows():
    rows = cs.scaling_graph(cs.Tent(), 1.0, 6)
    assert len(rows) == 2 ** 7
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)
    assert all(s == pytest.approx(1 / 3, abs=1e-12) for _, _, s in rows)


def test_scaling_graph_additivity_quadratic():
    rows = cs.scaling_graph(cs.Quadratic(), 0.5, 8)
    by_word = {w: s for _, w, s in rows}
    for _, w, _ in rows:
        parent = w[:-1]
        rec = cs.gap(cs.Quadratic(), 0.5, cs.Word(tuple(int(b) for b in parent)))
        assert by_word[parent + "0"] + by_word[parent + "1"] == pytest.approx(
            1.0 - rec.gap_ratio, abs=1e-12)


def test_monotone_refinement_delta_decay():
    q = cs.Quadratic()
    _, lam_fit, _, _ = cs.decay_rate(q, 0.3, 10)
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


def test_holder_fit():
    degenerate = cs.holder_fit(cs.Tent(), 0.5, 10, 12)
    assert degenerate.degenerate and degenerate.C == 0.0

    fit = cs.holder_fit(cs.Quadratic(), 0.5, 25, 14, seed=1)
    assert not fit.degenerate
    assert 0.0 < fit.lam < 1.0

    fit0 = cs.holder_fit(cs.Quadratic(), 0.0, 25, 14, seed=1)
    assert 0.0 < fit0.lam < 1.0


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
