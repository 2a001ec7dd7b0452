"""The workloads: seeded inputs, the operations and their checks.

Every operation drives cantorscale through its public API or through the
CLI entry point ``cantorscale.cli.main``, called in-process.  A check
compares the output with a computation from ``oracles`` (made apart from
the program) or with a property the method must have; it returns a list
of failure messages, empty when the output is right.

The seed picks the inputs (dual points, family parameters, eps grids,
sampling seeds) but not their number or depth, so every seed does the
same amount of work to within the spread of the solvers' iteration
counts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import cantorscale as cs
import cantorscale.cli as cs_cli

SCALING_DEPTH = 25        # API depth for scaling functions
CLI_SCALING_DEPTH = 22    # the CLI refuses depth > 22 for every command


def _oracles():
    import oracles  # mpmath and scipy.special: kept out of the timed set-up
    return oracles


@dataclass
class Op:
    """One API experiment: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class CliOp:
    """One CLI config: run through ``cantorscale.cli.main`` in-process."""

    name: str
    config: dict
    check: Callable[[Path], list]      # artifact directory -> failures
    config_path: Path | None = None
    digest: str | None = field(default=None, repr=False)


def _fail(ok: bool, message: str) -> list:
    return [] if ok else [message]


# -- inputs ------------------------------------------------------------------


def fixed_b_points(count: int):
    """Periodic-tail B points (head)^inf|. with a leading 1, shortest first."""
    pts = []
    length = 1
    while len(pts) < count:
        for m in range(1 << (length - 1), 1 << length):
            head = tuple((m >> (length - 1 - j)) & 1 for j in range(length))
            pts.append(cs.DualPoint((), head))
            if len(pts) == count:
                break
        length += 1
    return pts


def random_truncated(rng, count: int, length: int = SCALING_DEPTH + 1):
    return [cs.DualPoint(tuple(int(b) for b in rng.integers(0, 2, length)),
                         "truncated") for _ in range(count)]


def random_periodic(rng, count: int):
    """B points: a 0..3 bit head and a 1..2 bit period holding a 1.

    Periods stay at 2 or less because ``scale_at``'s convergence test
    (last three deltas non-decreasing) misfires on the periodic pattern
    of longer periods, and the CLI then exits 2 on converged points.
    """
    pts = []
    while len(pts) < count:
        period = tuple(int(b) for b in rng.integers(0, 2, int(rng.integers(1, 3))))
        if not any(period):
            continue
        head = tuple(int(b) for b in rng.integers(0, 2, int(rng.integers(0, 4))))
        pts.append(cs.DualPoint(head, period))
    return pts


def n_max(point, depth: int) -> int:
    avail = point.available
    return depth if avail is None else min(depth, avail - 1)


def bits_of(point, n: int) -> tuple:
    return tuple(point.coord(k) for k in range(n + 1))


def log_grid(rng, lo_exp: float, hi_exp: float, count: int, jitter: float):
    """``count`` log-spaced values with a seeded jitter of each exponent."""
    exps = np.linspace(lo_exp, hi_exp, count) + rng.uniform(-jitter, jitter,
                                                            count)
    return [float(v) for v in 10.0 ** exps]


# -- shared checks -----------------------------------------------------------

_MP_CACHE: dict = {}


def mp_sequence(spec, eps, bits, gamma=None):
    key = (spec, eps, bits, gamma)
    if key not in _MP_CACHE:
        _MP_CACHE[key] = _oracles().mp_scaling_sequence(spec, eps, bits, gamma)
    return _MP_CACHE[key]


ULP = 2.0 ** -52
QUAD_H_ERROR = 2e-12    # cantorscale.metric integrates h to 1e-12 (times b)


def length_rounding(interval, gamma, eps) -> float:
    """Error a binary64 chain can make in an interval's length.

    Each endpoint carries a few ulps of its magnitude; under the metric
    change that error is magnified by h' (unbounded at +-1, which are
    exact in both chains), and a quadrature-based h adds its tolerance.
    """
    ends = (interval.lo, interval.hi)
    if gamma is None:
        return 4 * ULP * sum(abs(x) for x in ends)
    o = _oracles()
    err = sum(4 * ULP * abs(x) * o.h_prime(gamma, eps, x)
              for x in ends if abs(x) != 1.0)
    return err + (4 * ULP if gamma == 2.0 else 2 * QUAD_H_ERROR)


def check_estimate(est, spec, eps, depth, gamma=None, label="") -> list:
    """A scaling estimate against the high-precision chain.

    The chain is compared at the estimate's own ``effective_depth``.  The
    tolerance is 1e-6 (1e-4 for an estimate that stopped at the length
    floor) plus the relative rounding error a binary64 chain makes in
    |J| and in |K|, which grows as the intervals shrink.
    """
    top = n_max(est.dual_point, depth)
    k = est.effective_depth
    if not 1 <= k <= top:
        return [f"{label}: effective_depth {k} outside [1, {top}]"]
    step = mp_sequence(spec, eps, bits_of(est.dual_point, top), gamma)[k]
    tol = ((1e-6 if k == top else 1e-4)
           + step.ratio * sum(length_rounding(iv, gamma, eps) / iv.length
                              for iv in (step.j, step.k)))
    err = abs(est.value - step.ratio)
    return _fail(err <= tol and len(est.approximant_sequence) == k + 1,
                 f"{label}: |s - s_mp| = {err:.3g} > {tol:.3g} at depth {k}")


def check_jump_values(value, limits, exact, label) -> list:
    out = _fail(abs(value - exact) <= 1e-3,
                f"{label}: s0 {value} vs exact {float(exact)}")
    out += _fail(all(abs(v - 0.5) <= 1e-3 for v in limits),
                 f"{label}: one-sided limits {limits} not 1/2")
    return out


def additivity_and_endpoints(levels, ref_levels, label) -> list:
    """|I_w0| + |I_w1| + |G_w| = |I_w| at every level; endpoints vs oracle."""
    worst_add = worst_end = 0.0
    par_lo, par_hi = np.asarray([-1.0]), np.asarray([1.0])
    for part, (r_lo, r_hi) in zip(levels, ref_levels):
        lo, hi = part.los, part.his
        l0 = hi[0::2] - lo[0::2]
        l1 = hi[1::2] - lo[1::2]
        gap = np.maximum(np.maximum(lo[0::2], lo[1::2])
                         - np.minimum(hi[0::2], hi[1::2]), 0.0)
        worst_add = max(worst_add, float(np.max(
            np.abs((l0 + l1 + gap) / (par_hi - par_lo) - 1.0))))
        worst_end = max(worst_end, float(np.max(np.abs(lo - r_lo))),
                        float(np.max(np.abs(hi - r_hi))))
        par_lo, par_hi = lo, hi
    out = _fail(len(levels) == len(ref_levels), f"{label}: level count")
    out += _fail(worst_add <= 1e-12, f"{label}: additivity {worst_add:.3g}")
    out += _fail(worst_end <= 1e-11, f"{label}: endpoints off {worst_end:.3g}")
    return out


def pressure_residual(los, his, delta) -> float:
    """|sum (|I_w| / 2)^delta - 1|, summed with math.fsum."""
    return abs(math.fsum((((his - los) / 2.0) ** delta).tolist()) - 1.0)


def read_csv(path: Path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path: Path):
    return json.loads(path.read_text())


# -- workload: deep-partition ------------------------------------------------

HD_DEPTH = 16
INVERSE_TOL = 1e-13     # absolute x tolerance of the numeric inverse branch
PARTITION_DEPTH = 14
CLI_PARTITION_DEPTH = 15


def deep_partition(seed: int):
    rng = np.random.default_rng([seed, 2])
    q, tent, g3 = cs.Quadratic(), cs.Tent(), cs.GammaPower(3.0)
    hd_grid = log_grid(rng, -3.0, -1.0, 3, 0.2)
    eps_tent = float(rng.uniform(0.05, 1.0))
    gap_grid = log_grid(rng, -4.0, -1.0, 5, 0.15)
    c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.05))
    beta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5))
    eps_aq = float(rng.uniform(0.05, 0.5))
    codes = [cs.Code(tuple(int(b) for b in rng.integers(0, 2, 16)), "truncated")
             for _ in range(2)]
    api: list[Op] = []
    _levels: dict = {}

    def ref_levels(spec, eps, depth):
        key = (spec, eps, depth)
        if key not in _levels:
            _levels[key] = _oracles().partition_levels(spec, eps, depth)
        return _levels[key]

    def check_curve(res):
        ests, slope = res
        out = _fail(abs(slope - 0.5) <= 0.05, f"defect slope {slope}")
        for est in ests:
            lo, hi = ref_levels(("quadratic", None), est.epsilon, HD_DEPTH)[-1]
            r = pressure_residual(lo, hi, est.delta)
            out += _fail(r <= 1e-9 and 0.0 < est.delta < 1.0
                         and est.bracket[0] <= est.delta <= est.bracket[1],
                         f"hd_curve eps={est.epsilon}: delta {est.delta}, "
                         f"pressure residual {r:.3g}")
        return out + _fail(len(ests) == len(hd_grid), "hd_curve points")

    api.append(Op("hd_curve/quadratic",
                  lambda: cs.hd_curve(q, hd_grid, HD_DEPTH), check_curve))
    api.append(Op(
        "hd_estimate/tent", lambda: cs.hd_estimate(tent, eps_tent, HD_DEPTH),
        lambda est: _fail(
            abs(est.delta - _oracles().moran_dimension(eps_tent)) <= 1e-9,
            f"tent delta {est.delta} vs Moran {eps_tent}")))

    for family, gamma in ((q, 2.0), (g3, 3.0)):
        def check_fit(fit, gamma=gamma):
            band = fit.band[1] / fit.band[0]
            return _fail(abs(fit.slope - 1.0 / gamma) <= 0.02 and band < 3.0,
                         f"gap slope {fit.slope} (1/{gamma}), band {band}")
        api.append(Op(f"asymptotic_gap_fit/{family.kind}",
                      lambda family=family: cs.asymptotic_gap_fit(
                          family, gap_grid, depth=8), check_fit))

    def partition_run(family, eps):
        levels = cs.partition_levels(family, eps, PARTITION_DEPTH)
        deepest = levels[-1]
        return levels, (family.eval(eps, deepest.los),
                        family.eval(eps, deepest.his))

    def partition_check(res, spec, eps):
        levels, (f_lo, f_hi) = res
        out = additivity_and_endpoints(
            levels, ref_levels(spec, eps, PARTITION_DEPTH),
            f"partition {spec} eps={eps}")
        # f maps I_{b w} onto I_w, reversing it when b = 1
        prev = levels[-2]
        half = len(prev)
        lo_ref = np.concatenate([prev.los, prev.his])
        hi_ref = np.concatenate([prev.his, prev.los])
        err = max(float(np.max(np.abs(f_lo - lo_ref))),
                  float(np.max(np.abs(f_hi - hi_ref))))
        return out + _fail(len(f_lo) == 2 * half and err <= 1e-12,
                           f"partition {spec}: f(I_bw) != I_w by {err:.3g}")

    for family, spec, eps in ((cs.Figure6(c), ("figure6", c), 0.0),
                              (cs.AsymQuadratic(beta),
                               ("asym_quadratic", beta), eps_aq)):
        api.append(Op(
            f"partition_levels/{family.kind}",
            lambda family=family, eps=eps: partition_run(family, eps),
            lambda res, spec=spec, eps=eps: partition_check(res, spec, eps)))

    def tent_partition():
        levels = cs.partition_levels(q, 0.0, HD_DEPTH)
        m = cs.MetricChange(2.0, 0.0)
        return [m.h(p.his) - m.h(p.los) for p in levels]

    def check_tent_partition(lengths):
        # h conjugates q_0 to the slope-2 tent map: level n is dyadic
        worst = max(float(np.max(np.abs(ln * 2.0 ** n - 1.0)))
                    for n, ln in enumerate(lengths))
        return _fail(len(lengths) == HD_DEPTH + 1 and worst <= 1e-6,
                     f"h-lengths of the quadratic partition off by {worst:.3g}")

    api.append(Op("tent_conjugacy/partition", tent_partition,
                  check_tent_partition))

    f6 = cs.Figure6(c)
    for i, code in enumerate(codes):
        def check_code(res, code=code):
            x, bound = res
            bits = [code.coord(k) for k in range(PARTITION_DEPTH + 1)]
            lo, hi = ref_levels(("figure6", c), 0.0, PARTITION_DEPTH)[-1]
            index = int("".join(map(str, bits)), 2)
            mid, half = 0.5 * (lo[index] + hi[index]), 0.5 * (hi[index] - lo[index])
            return _fail(abs(x - mid) <= 1e-11 and abs(bound - half) <= 1e-11,
                         f"point_from_code {code}: {x} vs {mid}")
        api.append(Op(f"point_from_code/figure6/{i}",
                      lambda code=code: cs.point_from_code(
                          f6, 0.0, code, PARTITION_DEPTH), check_code))

    cli: list[CliOp] = []
    eps_part = float(rng.uniform(0.0, 0.5))
    c_graph = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.05))
    curve_grid = log_grid(rng, -3.0, -1.0, 3, 0.2)

    def check_partition(out_dir):
        header, rows = read_csv(out_dir / "partition.csv")
        n_bits = CLI_PARTITION_DEPTH + 1
        if header != ["word", "lo", "hi", "length", "orientation"] or \
                len(rows) != 2 ** n_bits:
            return [f"partition csv: header {header}, {len(rows)} rows"]
        words = np.asarray([int(r[0], 2) for r in rows])
        lo = np.asarray([float(r[1]) for r in rows])
        hi = np.asarray([float(r[2]) for r in rows])
        length = np.asarray([float(r[3]) for r in rows])
        orient = np.asarray([int(r[4]) for r in rows])
        parity = np.asarray([1 - 2 * (r[0].count("1") % 2) for r in rows])
        r_lo, r_hi = ref_levels(("quadratic", None), eps_part,
                                CLI_PARTITION_DEPTH)[-1]
        err = max(float(np.max(np.abs(lo - r_lo))), float(np.max(np.abs(hi - r_hi))))
        return (_fail(all(len(r[0]) == n_bits for r in rows)
                      and np.array_equal(words, np.arange(2 ** n_bits)),
                      "partition csv: words out of order")
                + _fail(np.array_equal(orient, parity),
                        "partition csv: orientation is not word parity")
                + _fail(np.array_equal(length, hi - lo) and bool(np.all(lo < hi)),
                        "partition csv: length != hi - lo")
                + _fail(err <= 1e-12, f"partition csv: endpoints off {err:.3g}"))

    cli.append(CliOp("partition", {
        "command": "partition", "family": {"kind": "quadratic"},
        "depth": CLI_PARTITION_DEPTH, "epsilon": eps_part,
        "output": "partition"}, check_partition))

    def check_graph(out_dir, depth=12):
        header, rows = read_csv(out_dir / "scaling_graph.csv")
        n_bits = depth + 1
        if header != ["x_coord", "word", "s"] or len(rows) != 2 ** n_bits:
            return [f"scaling-graph csv: header {header}, {len(rows)} rows"]
        x = np.asarray([float(r[0]) for r in rows])
        s = np.asarray([float(r[2]) for r in rows])
        index = np.asarray([int(r[1], 2) for r in rows])
        # i0 is the innermost (rightmost) bit and the most significant of x
        rev = np.asarray([int(r[1][::-1], 2) for r in rows]) / 2.0 ** n_bits
        levels = ref_levels(("figure6", c_graph), 0.0, depth)
        child = levels[depth][1] - levels[depth][0]
        parent = levels[depth - 1][1] - levels[depth - 1][0]
        s_ref = child[index] / parent[index >> 1]
        # both chains place endpoints to the solver's 1e-13, which limits
        # the relative accuracy of the shortest cells
        tol = 1e-9 + s_ref * 2 * INVERSE_TOL * (1 / child[index]
                                                 + 1 / parent[index >> 1])
        err = float(np.max(np.abs(s - s_ref) / tol))
        return (_fail(bool(np.all((s > 0.0) & (s < 1.0))),
                      "scaling-graph value outside (0, 1)")
                + _fail(np.array_equal(x, rev) and bool(np.all(np.diff(x) > 0)),
                        "scaling-graph abscissa is not the reversed word")
                + _fail(err <= 1.0, f"scaling-graph s off by {err:.3g} x tol"))

    cli.append(CliOp("scaling-graph", {
        "command": "scaling-graph", "depth": 12, "epsilon": 0.0,
        "family": {"kind": "figure6", "params": {"c": c_graph}},
        "output": "scaling_graph"}, check_graph))

    def check_curve_cli(out_dir, depth=14):
        header, rows = read_csv(out_dir / "dimension_curve.csv")
        fit = read_json(out_dir / "dimension_curve_fit.json")
        out = _fail(header == ["epsilon", "delta", "bracket_lo", "bracket_hi"]
                    and len(rows) == len(curve_grid),
                    f"dimension-curve csv: {header}, {len(rows)} rows")
        for row in rows:
            eps, delta = float(row[0]), float(row[1])
            lo, hi = ref_levels(("quadratic", None), eps, depth)[-1]
            r = pressure_residual(lo, hi, delta)
            out += _fail(r <= 1e-9 and 0.0 < delta < 1.0,
                         f"dimension-curve eps={eps}: residual {r:.3g}")
        return out + _fail(abs(fit["slope"] - 0.5) <= 0.05
                           and fit["depth"] == depth,
                           f"dimension-curve slope {fit['slope']}")

    cli.append(CliOp("dimension-curve", {
        "command": "dimension-curve", "family": {"kind": "quadratic"},
        "depth": 14, "epsilon_grid": curve_grid,
        "output": "dimension_curve"}, check_curve_cli))

    def check_gap_cli(out_dir):
        data = read_json(out_dir / "gap_fit.json")
        band = data["band"][1] / data["band"][0]
        # leading gap of |x|^3: the children are [-1, -t] and [t, 1]
        ratio_err = max(abs(row["leading_gap_ratio"]
                            - (row["epsilon"] / (2.0 + row["epsilon"])) ** (1 / 3))
                        for row in data["rows"])
        return (_fail(abs(data["slope"] - 1.0 / 3.0) <= 0.02 and band < 3.0,
                      f"gap-fit slope {data['slope']}, band {band}")
                + _fail(len(data["rows"]) == len(gap_grid) and ratio_err <= 1e-12,
                        f"gap-fit leading ratios off {ratio_err:.3g}"))

    cli.append(CliOp("gap-fit", {
        "command": "gap-fit", "depth": 8, "epsilon_grid": gap_grid,
        "family": {"kind": "gamma_power", "params": {"gamma": 3.0}},
        "output": "gap_fit"}, check_gap_cli))
    return api, cli


# -- workload: orbit-distortion ----------------------------------------------

DISTORTION_SAMPLES = 200


def orbit_distortion(seed: int):
    rng = np.random.default_rng([seed, 3])
    q = cs.Quadratic()
    sample_seeds = [int(s) for s in rng.integers(0, 2 ** 31, 7)]
    # Two operations dominate their part of a round: the AsymQuadratic
    # suite (~50 ms per sample, 15 samples) in api_s and the Figure6
    # `invariants` config (3-5 s) in cli_s.  Their cost follows their random
    # word lengths and, for the numeric Figure6 inverse, c, which would move
    # api_s by +-15% and cli_s by +-10% from seed to seed.  Their inputs are
    # fixed instead.
    sample_seeds[5] = 20260
    api: list[Op] = []

    def check_suite(res):
        n_pass, n_total, worst, _ = res
        return _fail(n_pass == n_total and n_total > 0 and worst > 1.0,
                     f"distortion {n_pass}/{n_total}, worst margin {worst}")

    suites = [(q, eps, DISTORTION_SAMPLES) for eps in (0.05, 0.2, 0.5)]
    suites += [(cs.GammaPower(3.0), 0.2, 100), (cs.GammaPower(1.5), 0.2, 100),
               (cs.AsymQuadratic(0.3), 0.2, 15)]
    for (family, eps, n), s in zip(suites, sample_seeds):
        api.append(Op(
            f"distortion_suite/{family.kind}({family.extra})/{eps}",
            lambda family=family, eps=eps, n=n, s=s: cs.distortion_suite(
                family, eps, n, max_word_len=15, seed=s), check_suite))

    eps_c = float(rng.uniform(0.05, 0.5))

    def check_constants(k):
        spec = ("quadratic", None)
        lv = _oracles().partition_levels(spec, eps_c, 1)[1]
        c1 = 2.0 * math.sqrt(eps_c * (2.0 + eps_c))   # |q'| at the inner ends
        C1 = min(lv[1][0] - lv[0][0], lv[1][2] - lv[0][2])
        values = [k.c1, k.K1, k.c2, k.K2, k.c3, k.K3, k.C1, k.A, k.B, k.C,
                  k.C2_sum, k.C3_sum, k.D, k.E]
        return (_fail(abs(k.c1 / c1 - 1.0) <= 1e-12, f"c1 {k.c1} vs {c1}")
                + _fail(abs(k.C1 - C1) <= 1e-14, f"C1 {k.C1} vs {C1}")
                + _fail(all(math.isfinite(v) and v >= 0.0 for v in values)
                        and not k.degenerate, f"constants {k}"))

    api.append(Op("estimate_constants/quadratic",
                  lambda: cs.estimate_constants(q, eps_c), check_constants))

    for gamma in (1.5, 3.0):
        for eps in (0.0, 0.1):
            xs = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 38)])
            ys = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 38)])

            def run(gamma=gamma, eps=eps, xs=xs, ys=ys):
                m = cs.MetricChange(gamma, eps)
                hx = m.h(xs)
                return m.b, hx, m.h_inv(ys), m.h_inv(hx)

            def check(res, gamma=gamma, eps=eps, xs=xs, ys=ys):
                o = _oracles()
                b, hx, hinv, back = res
                e_b = abs(b - o.b_const(gamma, eps))
                e_h = float(np.max(np.abs(hx - o.h(gamma, eps, xs))))
                e_i = float(np.max(np.abs(hinv - o.h_inv(gamma, eps, ys))))
                e_r = float(np.max(np.abs(back - xs)))
                return _fail(e_b <= 1e-12 and e_h <= 1e-12 and e_i <= 1e-10
                             and e_r <= 1e-10,
                             f"metric gamma={gamma} eps={eps}: b {e_b:.3g}, "
                             f"h {e_h:.3g}, h_inv {e_i:.3g}, round trip {e_r:.3g}")
            api.append(Op(f"metric/{gamma}/{eps}", run, check))

    ys_tent = rng.uniform(-1.0, 1.0, 1000)
    api.append(Op(
        "tilde_eval/tent_conjugacy",
        lambda: cs.tilde_eval(q, 0.0, ys_tent),
        lambda v: _fail(float(np.max(np.abs(
            np.asarray(v) - (1.0 - 2.0 * np.abs(ys_tent))))) <= 1e-8,
            "tilde_eval is not the tent map")))

    point = random_periodic(rng, 1)[0]
    # under h the quadratic is the tent map: the chain's ratios are all 1/2
    api.append(Op(
        "tilde_scaling/quadratic", lambda: cs.tilde_scaling(q, 0.0, point, 14),
        lambda est: check_estimate(est, ("quadratic", None), 0.0, 14,
                                   gamma=2.0, label=f"tilde quadratic {point}")))

    eps_d = float(rng.uniform(0.01, 0.5))

    def lower_model():
        ratio = cs.gap(q, eps_d, None).gap_ratio
        c6 = ratio / math.sqrt(eps_d)
        return ratio, c6, cs.delta0(eps_d, c6)

    api.append(Op("delta0/leading_gap", lower_model, lambda r: _fail(
        abs(r[0] - math.sqrt(eps_d / (2.0 + eps_d))) <= 1e-12
        and abs(2.0 * ((1.0 - r[1] * math.sqrt(eps_d)) / 2.0) ** r[2] - 1.0)
        <= 1e-12, f"leading gap {r[0]}, delta0 {r[2]}")))

    cli: list[CliOp] = []

    def check_metric_cli(gamma, eps):
        def check(out_dir):
            data = read_json(out_dir / "metric_check.json")
            e_b = abs(data["b"] - _oracles().b_const(gamma, eps))
            out = _fail(e_b <= 1e-12 and data["round_trip_max_error"] <= 1e-10,
                        f"metric-check b off {e_b:.3g}, round trip "
                        f"{data['round_trip_max_error']}")
            if gamma == 2.0:
                out += _fail(data["tent_conjugacy_max_error"] <= 1e-8,
                             "metric-check tent conjugacy")
            return out
        return check

    for gamma, eps in ((3.0, 0.0), (1.5, 0.1), (2.0, 0.0)):
        family = ({"kind": "quadratic"} if gamma == 2.0 else
                  {"kind": "gamma_power", "params": {"gamma": gamma}})
        cli.append(CliOp(f"metric-check-{gamma}-{eps}", {
            "command": "metric-check", "family": family, "epsilon": eps,
            "output": "metric_check"}, check_metric_cli(gamma, eps)))

    def check_distortion_cli(out_dir):
        data = read_json(out_dir / "distortion_check.json")
        return _fail(data["passed"] == data["samples"] == DISTORTION_SAMPLES
                     and data["worst_margin"] > 1.0,
                     f"distortion-check {data}")

    cli.append(CliOp("distortion-check", {
        "command": "distortion-check", "family": {"kind": "quadratic"},
        "epsilon": float(rng.uniform(0.05, 0.5)), "depth": 15,
        "samples": DISTORTION_SAMPLES, "seed": sample_seeds[6],
        "output": "distortion_check"}, check_distortion_cli))

    def check_invariants(out_dir):
        data = read_json(out_dir / "invariants.json")
        failed = [k for k, v in data.items() if not v["passed"]]
        return _fail(set(data) == {"endpoints", "nesting_additivity",
                                   "shift_conjugacy"} and not failed,
                     f"invariants failed: {failed}")

    # one invariants suite (3-5 s) keeps rounds short enough to repeat;
    # AsymQuadratic's numeric inverse is driven by its distortion suite
    cli.append(CliOp("invariants-figure6", {
        "command": "invariants",
        "family": {"kind": "figure6", "params": {"c": FIGURE6_C}},
        "epsilon": 0.0, "seed": 20261, "output": "invariants"},
        check_invariants))

    scaling_api, scaling_cli = scaling_slice(rng)
    return api + scaling_api, cli + scaling_cli


FIGURE6_C = -0.03
ASYM_BETA = 0.3


def scaling_slice(rng):
    """Scaling functions on the boundary of hyperbolicity (eps = 0).

    A small share of an ``orbit-distortion`` round: about 40 scalar chains
    at depth 25.  A quadratic chain costs about 2 ms whatever its point;
    the numeric Figure6 and AsymQuadratic chains cost 0.2-0.3 s each and
    follow their inputs, so those run at fixed inputs.
    """
    q, g3 = cs.Quadratic(), cs.GammaPower(3.0)
    qspec = ("quadratic", None)
    fixed = fixed_b_points(8)
    api: list[Op] = []

    def scale_op(point, exact=None):
        def check(est):
            out = check_estimate(est, qspec, 0.0, SCALING_DEPTH,
                                 label=f"quadratic {point}")
            if exact is not None:
                out += _fail(abs(est.value - exact[0]) <= exact[1],
                             f"{point}: s = {est.value} not {exact[0]}")
            return out
        return Op(f"scale_at/quadratic/{point}",
                  lambda: cs.scale_at(q, 0.0, point, SCALING_DEPTH), check)

    for point in fixed:
        api.append(scale_op(point, (0.5, 1e-5)))
    for point in random_truncated(rng, 8):
        api.append(scale_op(point))
    api.append(scale_op(cs.DualPoint((), "zeros"), (0.25, 1e-3)))

    for point in fixed[:2] + random_truncated(rng, 2):
        api.append(Op(
            f"tilde_scaling/gamma_power(3)/{point}",
            lambda point=point: cs.tilde_scaling(g3, 0.0, point, SCALING_DEPTH),
            lambda est, point=point: check_estimate(
                est, ("gamma_power", 3.0), 0.0, SCALING_DEPTH, gamma=3.0,
                label=f"gamma_power(3) tilde {point}")))

    f6, f6_point = cs.Figure6(FIGURE6_C), fixed[1]

    def check_invariance(res):
        est, tilde = res
        spec = ("figure6", FIGURE6_C)
        out = check_estimate(est, spec, 0.0, SCALING_DEPTH,
                             label=f"figure6 {f6_point}")
        out += check_estimate(tilde, spec, 0.0, SCALING_DEPTH, gamma=2.0,
                              label=f"figure6 tilde {f6_point}")
        diff = abs(est.value - tilde.value)
        return out + _fail(diff <= 1e-3, f"|s_f - s_ftilde| = {diff:.3g}")

    api.append(Op(
        f"invariance/figure6/{f6_point}",
        lambda: (cs.scale_at(f6, 0.0, f6_point, SCALING_DEPTH),
                 cs.tilde_scaling(f6, 0.0, f6_point, SCALING_DEPTH)),
        check_invariance))
    api.append(Op(
        "asymmetry/asym_quadratic",
        lambda: cs.asymmetry(cs.AsymQuadratic(ASYM_BETA), SCALING_DEPTH),
        lambda res: _fail(abs(res[0] - _oracles().asymmetry(ASYM_BETA)) <= 1e-3,
                          f"asymmetry({ASYM_BETA}) = {res[0]}")))

    def jump_op(text):
        def check(jump):
            return check_jump_values(jump.value, jump.one_sided_limits,
                                     _oracles().quadratic_a_value(text),
                                     f"jump_at {text}")
        return Op(f"jump_at/quadratic/{text}", lambda: cs.jump_at(
            q, cs.parse_dual_point(text), SCALING_DEPTH), check)

    api += [jump_op("0^inf|."), jump_op("0^inf|10.")]
    for family, gamma, tol in ((q, 2.0, 0.05), (g3, 3.0, 0.1)):
        api.append(Op(
            f"gamma_recover/{family.kind}",
            lambda family=family: cs.gamma_recover(family, SCALING_DEPTH),
            lambda res, gamma=gamma, tol=tol: _fail(
                not res[1] and abs(res[0] - gamma) <= tol,
                f"gamma_recover {res} vs {gamma}")))

    cli_point = random_periodic(rng, 1)[0]

    def check_point_cli(out_dir):
        data = read_json(out_dir / "scaling_point.json")
        est = SimpleNamespace(dual_point=cli_point, value=data["value"],
                              effective_depth=data["effective_depth"],
                              approximant_sequence=data["approximants"])
        return (check_estimate(est, qspec, 0.0, CLI_SCALING_DEPTH,
                               label=f"cli {cli_point}")
                + _fail(abs(data["value"] - 0.5) <= 1e-5 and data["converged"]
                        and data["dual_point"] == str(cli_point),
                        f"cli {cli_point}: {data}"))

    def check_jump_cli(out_dir):
        fields = {}
        for line in (out_dir / "jump_report.txt").read_text().splitlines():
            k, v = line.split(":", 1)
            fields[k.strip()] = v.strip()
        limits = (float(fields["one-sided #1"]), float(fields["one-sided #2"]))
        return (check_jump_values(float(fields["s0 (direct)"]), limits,
                                  _oracles().quadratic_a_value("0^inf|10."),
                                  "cli jump-report")
                + _fail(fields["converged"] == "True", "jump not converged"))

    cli = [
        CliOp("scaling-point", {
            "command": "scaling-point", "family": {"kind": "quadratic"},
            "depth": CLI_SCALING_DEPTH, "epsilon": 0.0,
            "dual_point": str(cli_point), "output": "scaling_point"},
            check_point_cli),
        CliOp("jump-report", {
            "command": "jump-report", "family": {"kind": "quadratic"},
            "depth": CLI_SCALING_DEPTH, "dual_point": "0^inf|10.",
            "output": "jump_report"}, check_jump_cli),
    ]
    return api, cli


WORKLOADS = {
    "deep-partition": deep_partition,
    "orbit-distortion": orbit_distortion,
}


def run_cli(op: CliOp, out_dir: Path) -> tuple[int, str]:
    """``cantorscale.cli.main`` on the op's config; returns (exit code, output)."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        rc = cs_cli.main(["--config", str(op.config_path), "--out", str(out_dir)])
    return rc, buf.getvalue()
