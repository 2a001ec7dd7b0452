"""Experiment runner: JSON config in, deterministic CSV/JSON artifacts out.

Usage::

    cantorscale --config experiment.json --out results/

The config is a single JSON document::

    {
      "command": "scaling-graph",
      "family": {"kind": "figure6", "params": {"c": 0.0}},
      "depth": 12,
      "epsilon": 0.0,            // or "epsilon_grid": [...]
      "seed": 7,
      "output": "run1"           // optional artifact name prefix
    }

Exit status: 0 success, 1 validation failure, 2 numerical non-convergence.
Numbers are written with Python's shortest round-trip decimal rendering,
so a fixed config and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import branches, dimension, geometry, scaling
from .errors import CantorScaleError, ConvergenceError
from .families import family_from_spec
from .symbolic import DualPoint, parse_dual_point

COMMANDS = ("partition", "scaling-graph", "scaling-point", "gap-fit",
            "dimension-curve", "metric-check", "distortion-check",
            "jump-report", "invariants")
CONFIG_KEYS = ("command", "family", "depth", "epsilon", "epsilon_grid",
               "seed", "samples", "dual_point", "output")
#: the chain commands stop at the length floor, which binary64 cylinders
#: reach by depth ~40, so a deeper config asks for nothing more
MAX_DEPTH = 1000


class ConfigError(CantorScaleError, ValueError):
    pass


def _fmt(x) -> str:
    """Shortest round-trip decimal of a binary64 value."""
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True)
                    + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Stream ``rows`` as comma-joined lines ended by CRLF, as ``csv.writer``
    writes them; no cell written here needs quoting."""
    with path.open("w", newline="") as fh:
        fh.writelines(",".join([_fmt(v) if isinstance(v, float) else str(v)
                                for v in row]) + "\r\n"
                      for row in chain([header], rows))


class Experiment:
    """Validated config plus the dispatch table."""

    def __init__(self, cfg: dict, out_dir: Path):
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(cfg) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config key(s) {unknown}; "
                              f"expected some of {CONFIG_KEYS}")
        self.command = cfg.get("command")
        if self.command not in COMMANDS:
            raise ConfigError(f"bad or missing key 'command': {self.command!r}; "
                              f"expected one of {COMMANDS}")
        if "family" not in cfg:
            raise ConfigError("missing key 'family'")
        try:
            self.family = family_from_spec(cfg["family"])
        except CantorScaleError as exc:
            raise ConfigError(f"key 'family': {exc}") from exc
        self.depth = int(cfg.get("depth", 10))
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"key 'depth': {self.depth} outside [0, {MAX_DEPTH}]")
        self.eps = float(cfg.get("epsilon", 0.0))
        grid = cfg.get("epsilon_grid")
        self.eps_grid = None if grid is None else [float(e) for e in grid]
        if self.eps_grid is not None and self.eps_grid != sorted(self.eps_grid):
            raise ConfigError("key 'epsilon_grid': grid must be sorted ascending")
        self.seed = int(cfg.get("seed", 0))
        self.dual_point_text = cfg.get("dual_point")
        self.n_samples = int(cfg.get("samples", 1000))
        prefix = cfg.get("output", self.command.replace("-", "_"))
        self.out_dir = out_dir
        self.prefix = str(prefix)

    def path(self, suffix: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / f"{self.prefix}{suffix}"

    def dual_point(self) -> DualPoint:
        if not self.dual_point_text:
            raise ConfigError("missing key 'dual_point'")
        try:
            return parse_dual_point(self.dual_point_text)
        except ValueError as exc:
            raise ConfigError(f"key 'dual_point': {exc}") from exc

    def grid(self) -> list[float]:
        if not self.eps_grid:
            raise ConfigError("missing key 'epsilon_grid'")
        return self.eps_grid

    # -- commands ---------------------------------------------------------

    def run(self) -> str:
        return getattr(self, "cmd_" + self.command.replace("-", "_"))()

    def cmd_partition(self) -> str:
        part = branches.partition(self.family, self.eps, self.depth)
        width = part.word_length
        rows = ((format(i, f"0{width}b"), lo, hi, length,
                 -1 if i.bit_count() % 2 else 1)
                for i, (lo, hi, length) in enumerate(zip(
                    part.los.tolist(), part.his.tolist(), part.lengths.tolist())))
        _write_csv(self.path(".csv"), ["word", "lo", "hi", "length",
                                       "orientation"], rows)
        return (f"partition depth={self.depth} cells={len(part)} "
                f"lambda_n={part.lambda_n:.6g}")

    def cmd_scaling_graph(self) -> str:
        rows = scaling.scaling_graph(self.family, self.eps, self.depth)
        _write_csv(self.path(".csv"), ["x_coord", "word", "s"], rows)
        vals = [s for _, _, s in rows]
        return (f"scaling-graph depth={self.depth} rows={len(rows)} "
                f"s_range=[{min(vals):.4f},{max(vals):.4f}]")

    def cmd_scaling_point(self) -> str:
        est = scaling.scale_at(self.family, self.eps, self.dual_point(),
                               self.depth)
        _write_json(self.path(".json"), {
            "dual_point": str(est.dual_point),
            "depth": est.depth,
            "effective_depth": est.effective_depth,
            "value": est.value,
            "error_bound": est.error_bound,
            "converged": est.converged,
            "approximants": est.approximant_sequence,
        })
        if not est.converged:
            raise ConvergenceError("scaling approximants did not converge")
        return f"scaling-point value={est.value:.8f} +- {est.error_bound:.2e}"

    def cmd_gap_fit(self) -> str:
        fit = geometry.asymptotic_gap_fit(self.family, self.grid(),
                                          depth=min(self.depth, 8))
        _write_json(self.path(".json"), {
            "slope": fit.slope,
            "slope_max": fit.slope_max,
            "slope_min": fit.slope_min,
            "band": list(fit.band),
            "rows": [{"epsilon": e, "leading_gap_ratio": r}
                     for e, r in zip(fit.eps, fit.leading_ratios)],
        })
        return f"gap-fit slope={fit.slope:.4f} band={fit.band}"

    def cmd_dimension_curve(self) -> str:
        ests, slope = dimension.hd_curve(self.family, self.grid(), self.depth)
        _write_csv(self.path(".csv"),
                   ["epsilon", "delta", "bracket_lo", "bracket_hi"],
                   [(e.epsilon, e.delta, e.bracket[0], e.bracket[1])
                    for e in ests])
        _write_json(self.path("_fit.json"), {"slope": slope,
                                             "depth": self.depth})
        return f"dimension-curve slope={slope:.4f} points={len(ests)}"

    def cmd_metric_check(self) -> str:
        from .metric import MetricChange, tilde_eval
        m = MetricChange(self.family.gamma, self.eps)
        xs = np.linspace(-1.0, 1.0, 201)
        round_trip = float(np.max(np.abs(m.h_inv(np.asarray(m.h(xs))) - xs)))
        payload = {"gamma": self.family.gamma, "epsilon": self.eps,
                   "b": m.b, "round_trip_max_error": round_trip}
        if self.family.kind == "quadratic" and self.eps == 0.0:
            ys = np.linspace(-1.0, 1.0, 201)
            conj = np.max(np.abs(np.asarray(tilde_eval(self.family, 0.0, ys,
                                                       metric=m))
                                 - (1.0 - 2.0 * np.abs(ys))))
            payload["tent_conjugacy_max_error"] = float(conj)
        _write_json(self.path(".json"), payload)
        if round_trip > 1e-10:
            raise ConvergenceError("metric round trip exceeded 1e-10")
        return f"metric-check round_trip={round_trip:.2e}"

    def cmd_distortion_check(self) -> str:
        n_pass, n_total, worst, _ = geometry.distortion_suite(
            self.family, self.eps, self.n_samples,
            max_word_len=min(self.depth, 15), seed=self.seed)
        _write_json(self.path(".json"), {
            "epsilon": self.eps, "samples": n_total, "passed": n_pass,
            "worst_margin": worst})
        if n_pass != n_total:
            raise ConvergenceError(
                f"distortion bound failed on {n_total - n_pass} samples")
        return f"distortion-check passed={n_pass}/{n_total} margin={worst:.3g}"

    def cmd_jump_report(self) -> str:
        analysis = scaling.jump_at(self.family, self.dual_point(), self.depth)
        lines = [
            f"dual point   : {self.dual_point_text}",
            f"tau1         : {_fmt(analysis.tau1)}",
            f"tau2         : {_fmt(analysis.tau2)}",
            f"s0 (direct)  : {_fmt(analysis.value)}",
            f"one-sided #1 : {_fmt(analysis.one_sided_limits[0])}",
            f"one-sided #2 : {_fmt(analysis.one_sided_limits[1])}",
            f"converged    : {analysis.converged}",
        ]
        self.path(".txt").write_text("\n".join(lines) + "\n")
        if not analysis.converged:
            raise ConvergenceError("jump sequences not Cauchy at this depth")
        return (f"jump-report s0={analysis.value:.6f} "
                f"limits={analysis.one_sided_limits}")

    def cmd_invariants(self) -> str:
        results = run_invariant_suite(self.family, self.eps, self.seed)
        _write_json(self.path(".json"), results)
        failed = [k for k, v in results.items() if not v["passed"]]
        if failed:
            raise ConvergenceError(f"invariant suites failed: {failed}")
        return ("invariants passed=" +
                f"{sum(v['checks'] for v in results.values())} checks in "
                f"{len(results)} suites")


def run_invariant_suite(family, eps: float, seed: int) -> dict:
    """Seeded property suites: endpoints, nesting, additivity, conjugacy."""
    from .branches import Word, cylinder
    rng = np.random.default_rng(seed)
    results = {}

    dlo, dhi = family.domain
    xs = np.linspace(dlo, dhi, 1001)
    vals = np.asarray(family.eval(eps, xs))
    end_err = max(abs(float(vals[0]) - dlo), abs(float(vals[-1]) - dlo))
    top = family.critical_value(eps) - (dhi + eps * (dhi - dlo) / 2.0)
    results["endpoints"] = {"checks": 3,
                            "passed": bool(end_err < 1e-10 and abs(top) < 1e-9)}

    nest_ok, checks = True, 0
    for _ in range(50):
        length = int(rng.integers(1, 9))
        w = Word(tuple(int(b) for b in rng.integers(0, 2, size=length)))
        parent = cylinder(family, eps, w)
        c0 = cylinder(family, eps, w.append(0))
        c1 = cylinder(family, eps, w.append(1))
        tol = 1e-10
        nest_ok &= (c0.lo >= parent.lo - tol and c0.hi <= parent.hi + tol
                    and c1.lo >= parent.lo - tol and c1.hi <= parent.hi + tol)
        gap_len = parent.length - c0.length - c1.length
        nest_ok &= gap_len >= -1e-10
        checks += 1
    results["nesting_additivity"] = {"checks": checks, "passed": bool(nest_ok)}

    conj_ok = True
    from .symbolic import Code, point_from_code
    for _ in range(25):
        coords = tuple(int(b) for b in rng.integers(0, 2, size=14))
        code = Code(coords, "truncated")
        x, _ = point_from_code(family, eps, code, 12)
        fx = float(family.eval(eps, x))
        x_shift, bound = point_from_code(family, eps, code.shift(), 11)
        conj_ok &= abs(fx - x_shift) <= max(1e-6, 50 * bound)
    results["shift_conjugacy"] = {"checks": 25, "passed": bool(conj_ok)}

    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cantorscale",
        description="Cantor-set geometry experiments for unimodal map families")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="artifact output directory")
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        experiment = Experiment(cfg, Path(args.out))
        summary = experiment.run()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2
    except CantorScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(summary)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
