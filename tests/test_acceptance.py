"""Headline acceptance checks, one per verified asymptotic law.

Each test prints a single PASS/FAIL line so the suite doubles as a
report: ``pytest tests/test_acceptance.py -s``.
"""

import itertools
import json
import math

import numpy as np
import pytest

import cantorscale as cs
from cantorscale.cli import main as cli_main


@pytest.fixture
def report(capfd):
    """One visible pass/fail line per criterion, then the assertion."""
    def _report(name: str, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
        assert ok, f"{name}: {detail}"
    return _report


def b_points(count: int):
    """Dual points with eventually-zero digits and a bounded nonzero head."""
    pts = []
    for length in range(1, 7):
        for head in itertools.product((0, 1), repeat=length):
            if head[0] == 0:
                continue  # canonical form: drop leading zeros of the head
            pts.append(cs.DualPoint((), head))
            if len(pts) == count:
                return pts
    raise AssertionError("not enough sample points")


def test_01_tent_conjugacy(report):
    q = cs.Quadratic()
    ys = np.linspace(-1.0, 1.0, 1000)
    err = float(np.max(np.abs(np.asarray(cs.tilde_eval(q, 0.0, ys))
                              - (1.0 - 2.0 * np.abs(ys)))))
    report("tent conjugacy", err <= 1e-8, f"max error {err:.2e} over 1000 pts")


def test_02_scaling_values_and_jump(report):
    q = cs.Quadratic()
    worst = 0.0
    for a in b_points(50):
        worst = max(worst, abs(cs.scale_at(q, 0.0, a, 25).value - 0.5))
    a_star = cs.DualPoint((), "zeros")
    s0 = cs.scale_at(q, 0.0, a_star, 25).value
    jump = cs.jump_at(q, a_star, 25)
    jump_size = max(abs(lim - jump.value) for lim in jump.one_sided_limits)
    ok = worst <= 1e-3 and abs(s0 - 0.25) <= 1e-3 and jump_size > 1e-3
    report("scaling values and jump", ok,
           f"worst |s-1/2|={worst:.2e}, s(0^inf)={s0:.6f}, "
           f"jump size={jump_size:.6f}")


def test_03_leading_gap_law(report):
    grid = np.logspace(-4, -1, 8)
    fit_q = cs.asymptotic_gap_fit(cs.Quadratic(), grid)
    fit_3 = cs.asymptotic_gap_fit(cs.GammaPower(3.0), grid)
    band_q = fit_q.band[1] / fit_q.band[0]
    band_3 = fit_3.band[1] / fit_3.band[0]
    ok = (abs(fit_q.slope - 0.5) <= 0.02
          and abs(fit_3.slope - 1.0 / 3.0) <= 0.02
          and band_q < 3.0 and band_3 < 3.0)
    report("leading gap law", ok,
           f"slopes {fit_q.slope:.4f}/{fit_3.slope:.4f}, "
           f"bands {band_q:.2f}/{band_3:.2f}")


def test_04_dimension_defect_exponent(report):
    grid = np.logspace(-3, -1, 10)
    _, slope = cs.hd_curve(cs.Quadratic(), grid, 16)
    ok = abs(slope - 0.5) <= 0.05
    report("dimension defect exponent", ok, f"slope {slope:.4f}")


def test_05_moran_oracle(report):
    d1 = cs.hd_estimate(cs.Tent(), 1.0, 14).delta
    d0 = cs.hd_estimate(cs.Tent(), 0.0, 14).delta
    ok = (abs(d1 - math.log(2.0) / math.log(3.0)) <= 1e-6
          and abs(d0 - 1.0) <= 1e-9)
    report("Moran oracle", ok, f"delta(1)={d1:.8f}, delta(0)={d0:.10f}")


def test_06_gamma_recovery(report):
    g2, deg2 = cs.gamma_recover(cs.Quadratic(), 25)
    g3, deg3 = cs.gamma_recover(cs.GammaPower(3.0), 25)
    ok = (not deg2 and not deg3
          and abs(g2 - 2.0) <= 0.05 and abs(g3 - 3.0) <= 0.1)
    report("gamma recovery", ok, f"gamma {g2:.4f} (quadratic), {g3:.4f} (cubic)")


def test_07_smooth_metric_invariance(report):
    worst = 0.0
    for family in (cs.Quadratic(), cs.Figure6(-0.05), cs.Figure6(0.02)):
        pts = b_points(50)
        for a in pts:
            sf = cs.scale_at(family, 0.0, a, 25).value
            st = cs.tilde_scaling(family, 0.0, a, 25).value
            worst = max(worst, abs(sf - st))
    report("smooth metric invariance", worst <= 1e-3,
           f"worst |s_f - s_ftilde| = {worst:.2e}")


def test_08_distortion_bounds(report):
    total = passed = 0
    worst = math.inf
    for eps in (0.05, 0.2, 0.5):
        p, t, w, _ = cs.distortion_suite(cs.Quadratic(), eps, 3334,
                                         max_word_len=15, seed=42)
        total += t
        passed += p
        worst = min(worst, w)
    ok = total >= 10_000 and passed == total
    report("distortion bounds", ok,
           f"{passed}/{total} samples, worst margin {worst:.4f}")


def cylinder_levels(family, eps, depth):
    """Endpoints of every cylinder I_w, |w| <= depth, indexed MSB-first.

    Matches the word-at-a-time construction: branches are applied
    innermost-first, so appending a bit refines an existing chain and the
    additivity identity cancels shared rounding.
    """
    dlo, dhi = family.domain
    levels = []
    for length in range(1, depth + 1):
        count = 2 ** length
        a = np.full(count, float(dlo))
        b = np.full(count, float(dhi))
        for k in range(length - 1, -1, -1):
            bit = (np.arange(count) >> (length - 1 - k)) & 1
            a = np.where(bit == 0, family.inverse_branch(eps, 0, a),
                         family.inverse_branch(eps, 1, a))
            b = np.where(bit == 0, family.inverse_branch(eps, 0, b),
                         family.inverse_branch(eps, 1, b))
        levels.append((np.minimum(a, b), np.maximum(a, b)))
    return levels


def zero_run_count_bruteforce(n: int) -> int:
    """Strings of length n with no run of three zeros, by enumerating all
    2^n of them."""
    strings = np.arange(1 << n)
    run = np.zeros(strings.size, dtype=np.int8)      # trailing zero run
    longest = np.zeros_like(run)
    for k in range(n):
        run = np.where((strings >> k) & 1, 0, run + 1)
        np.maximum(longest, run, out=longest)
    return int(np.count_nonzero(longest < 3))


def test_09_exact_identities(report):
    worst_add = 0.0
    for family, eps in ((cs.Quadratic(), 0.0), (cs.Quadratic(), 0.3),
                        (cs.Tent(), 0.5), (cs.GammaPower(3.0), 0.1),
                        (cs.Figure6(0.02), 0.0), (cs.AsymQuadratic(0.4), 0.2)):
        levels = cylinder_levels(family, eps, 11)
        dlo, dhi = family.domain
        for n in range(0, 11):
            if n == 0:
                par_lo = np.asarray([float(dlo)])
                par_hi = np.asarray([float(dhi)])
            else:
                par_lo, par_hi = levels[n - 1]
            ch_lo, ch_hi = levels[n]
            l0 = ch_hi[0::2] - ch_lo[0::2]
            l1 = ch_hi[1::2] - ch_lo[1::2]
            gap_len = np.maximum(np.maximum(ch_lo[0::2], ch_lo[1::2])
                                 - np.minimum(ch_hi[0::2], ch_hi[1::2]), 0.0)
            err = np.abs((l0 + l1 + gap_len) / (par_hi - par_lo) - 1.0)
            worst_add = max(worst_add, float(np.max(err)))
    worst_d0 = 0.0
    for eps in (0.0, 0.01, 0.25):
        d0 = cs.delta0(eps, 0.5)
        worst_d0 = max(worst_d0, abs(
            2.0 * ((1.0 - 0.5 * math.sqrt(eps)) / 2.0) ** d0 - 1.0))
    runs_ok = all(cs.zero_run_count(n) == zero_run_count_bruteforce(n)
                  for n in range(1, 21))
    discrepancy = (cs.zero_run_count(5) == 24
                   and 2 * cs.zero_run_count(4) - 1 == 25)
    ok = (worst_add <= 1e-12 and worst_d0 <= 1e-12 and runs_ok and discrepancy)
    report("exact identities", ok,
           f"additivity {worst_add:.1e}, delta0 {worst_d0:.1e}, "
           f"runs ok={runs_ok}, n=5 count 24 vs naive doubling 25")


def test_10_scaling_function_continuity_in_eps(report):
    rng = np.random.default_rng(7)
    pts = [cs.DualPoint(tuple(int(b) for b in rng.integers(0, 2, size=14)),
                        "truncated") for _ in range(20)]
    grid = [0.1, 0.105, 0.11, 0.12, 0.15, 0.2]
    rows = cs.scaling_convergence(cs.Quadratic(), grid, pts, 13)
    dists = [d for eps, d in rows if eps != 0.1]
    ok = all(a < b for a, b in zip(dists, dists[1:]))
    report("scaling continuity in eps", ok,
           "sup distances " + ", ".join(f"{d:.4f}" for d in dists))


def test_11_scaling_graph_reproduction(report, tmp_path):
    rows_per_file = {}
    near_half = None
    ok = True
    for c in (-0.05, -0.02, 0.0, 0.02):
        cfg = tmp_path / f"cfg_{c}.json"
        cfg.write_text(json.dumps({
            "command": "scaling-graph", "depth": 12, "epsilon": 0.0,
            "family": {"kind": "figure6", "c": c},
            "output": f"graph_c{c}"}))
        rc = cli_main(["--config", str(cfg), "--out", str(tmp_path)])
        ok &= rc == 0
        lines = (tmp_path / f"graph_c{c}.csv").read_text().strip().splitlines()
        vals = [float(line.split(",")[2]) for line in lines[1:]]
        rows_per_file[c] = len(vals)
        ok &= len(vals) == 2 ** 13
        ok &= all(0.0 < s < 1.0 for s in vals)
        if c == 0.0:
            near_half = sum(abs(s - 0.5) <= 0.02 for s in vals) / len(vals)
    ok &= near_half is not None and near_half >= 0.95
    report("scaling graph reproduction", ok,
           f"rows {sorted(set(rows_per_file.values()))}, "
           f"c=0 fraction near 1/2: {near_half:.3f}")
