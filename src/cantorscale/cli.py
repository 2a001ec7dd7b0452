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

Every key is checked when the config is read, whether the command reads it
or not; ``samples`` lies in [1, 100000], and the key a command needs
(``dual_point``, or a non-empty ``epsilon_grid``) must be given.  metric-check
refuses Tent, as the conjugate-map functions do.

Exit status: 0 success, 1 validation failure, 2 numerical non-convergence.
Numbers are written with Python's shortest round-trip decimal rendering,
so a fixed config and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import branches, dimension, geometry, scaling
from .errors import CantorScaleError, ConvergenceError
from .families import family_from_spec
from .metric import _metric_for, tilde_eval
from .symbolic import parse_dual_point

COMMANDS = ("partition", "scaling-graph", "scaling-point", "gap-fit",
            "dimension-curve", "metric-check", "distortion-check",
            "jump-report", "invariants")
CONFIG_KEYS = ("command", "family", "depth", "epsilon", "epsilon_grid",
               "seed", "samples", "dual_point", "output")
#: the key each command needs that has no default
REQUIRED_KEYS = {"scaling-point": "dual_point", "jump-report": "dual_point",
                 "gap-fit": "epsilon_grid", "dimension-curve": "epsilon_grid"}
#: the chain commands stop at the length floor, which binary64 cylinders
#: reach by depth ~40, so a deeper config asks for nothing more
MAX_DEPTH = 1000
#: distortion-check holds about 1.2 kB a sample: this caps it near 120 MB
MAX_SAMPLES = 100_000
#: rows of the partition and scaling-graph CSVs formatted per write; a
#: mirrored partition formats this many left-half rows and derives
#: as many mirrored ones per write, so memory holds one chunk whatever the
#: depth
CSV_CHUNK_ROWS = 4096


class ConfigError(CantorScaleError, ValueError):
    pass


def _fmt(x) -> str:
    """Shortest round-trip decimal of a binary64 value."""
    return repr(float(x))


def _write_json(path: Path, payload: dict) -> None:
    # numpy scalars are written as the Python numbers they hold; NaN and inf
    # are not JSON, so a field that holds one fails the run, by name
    for key, value in payload.items():
        try:
            json.dumps(value, allow_nan=False, default=lambda obj: obj.item())
        except ValueError:
            raise ConvergenceError(f"field {key!r} is not finite") from None
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=lambda obj: obj.item()) + "\n")


def _csv_lines(columns) -> str:
    """Equally long columns of cell strings as comma-joined lines ended by
    CRLF, as ``csv.writer`` writes them; no cell written here needs
    quoting."""
    return "\r\n".join([*map(",".join, zip(*columns)), ""])


def _write_csv(path: Path, header: list[str], chunks) -> None:
    """Write ``header``, then each chunk of columns as ``_csv_lines``.  Each
    chunk is written at once, so a file streamed in chunks is never held in
    memory."""
    with path.open("w", newline="") as fh:
        fh.write(_csv_lines([[name] for name in header]))  # one row
        for columns in chunks:
            fh.write(_csv_lines(columns))


def _negated(cells: list[str]) -> list[str]:
    """``repr(-x)`` from ``repr(x)`` for finite ``x``, ±0.0 included: the
    leading ``-`` toggled."""
    return [c[1:] if c[0] == "-" else "-" + c for c in cells]


def _integer(key: str, value) -> int:
    """A JSON integer; ``3.7`` or ``true`` is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")
    return value


def _real(key: str, value) -> float:
    """A finite JSON number as a float; ``true``, ``"0.1"`` or ``NaN`` is
    refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}")
    return float(value)


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
        self.depth = _integer("depth", cfg.get("depth", 10))
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"key 'depth': {self.depth} outside [0, {MAX_DEPTH}]")
        check = self.family.check_param
        self.eps = check(_real("epsilon", cfg.get("epsilon", 0.0)))
        grid = cfg.get("epsilon_grid")
        if grid is not None and not isinstance(grid, list):
            raise ConfigError(f"key 'epsilon_grid': expected a list, got {grid!r}")
        self.eps_grid = [check(_real("epsilon_grid", e)) for e in grid or ()]
        if any(b <= a for a, b in zip(self.eps_grid, self.eps_grid[1:])):
            raise ConfigError("key 'epsilon_grid': grid must be strictly increasing")
        self.seed = _integer("seed", cfg.get("seed", 0))
        if self.seed < 0:
            raise ConfigError(f"key 'seed': expected a non-negative integer, "
                              f"got {self.seed}")
        self.n_samples = _integer("samples", cfg.get("samples", 1000))
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ConfigError(f"key 'samples': {self.n_samples} outside "
                              f"[1, {MAX_SAMPLES}]")
        self.dual_point_text = text = cfg.get("dual_point")
        if text is not None and not isinstance(text, str):
            raise ConfigError(f"key 'dual_point': expected a string, got {text!r}")
        try:
            self.dual_point = None if text is None else parse_dual_point(text)
        except ValueError as exc:
            raise ConfigError(f"key 'dual_point': {exc}") from exc
        required = REQUIRED_KEYS.get(self.command)
        if required is not None and not cfg.get(required):
            raise ConfigError(f"missing key {required!r}")
        self.prefix = cfg.get("output", self.command.replace("-", "_"))
        # a plain file name, so that the artifacts stay inside out_dir
        if (not isinstance(self.prefix, str) or self.prefix in ("", ".", "..")
                or Path(self.prefix).name != self.prefix):
            raise ConfigError("key 'output': expected a plain file name, "
                              f"got {self.prefix!r}")
        self.out_dir = out_dir

    def path(self, suffix: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / f"{self.prefix}{suffix}"

    # -- commands ---------------------------------------------------------

    def run(self) -> str:
        return getattr(self, "cmd_" + self.command.replace("-", "_"))()

    def cmd_partition(self) -> str:
        part = branches.partition(self.family, self.eps, self.depth)
        los, his, lengths = part.los, part.his, part.lengths
        n, word_fmt = len(part), f"0{part.word_length}b"
        # odd[i] is the parity of the bits of i (Thue-Morse), built by doubling
        odd = np.zeros(1, dtype=bool)
        while odd.size < n:
            odd = np.concatenate([odd, ~odd])
        header = ["word", "lo", "hi", "length", "orientation"]
        path = self.path(".csv")

        def chunks(spill):
            # the cells of rows [0, n), or of the left half with its mirror
            # spilled (cell n/2 + i has lo -hi_i, hi -lo_i, length_i and the
            # other orientation), one chunk of rows at a time
            stop = n if spill is None else n // 2
            for start in range(0, stop, CSV_CHUNK_ROWS):
                c = slice(start, min(start + CSV_CHUNK_ROWS, stop))
                words = [format(i, word_fmt) for i in range(n)[c]]
                lo, hi, length = ([*map(repr, col[c].tolist())]
                                  for col in (los, his, lengths))
                sign = odd[c].tolist()
                yield words, lo, hi, length, [("1", "-1")[o] for o in sign]
                if spill is not None:
                    spill.write(_csv_lines((
                        ["1" + w[1:] for w in words], _negated(hi),
                        _negated(lo), length, [("-1", "1")[o] for o in sign])))

        if not part.mirrored:
            _write_csv(path, header, chunks(None))
        else:
            # the right half follows the whole left half, so it waits on
            # disk, never in memory
            with tempfile.TemporaryFile("w+", newline="",
                                        dir=self.out_dir) as spill:
                _write_csv(path, header, chunks(spill))
                spill.seek(0)
                with path.open("a", newline="") as fh:
                    shutil.copyfileobj(spill, fh)
        return (f"partition depth={self.depth} cells={len(part)} "
                f"lambda_n={part.lambda_n:.6g}")

    def cmd_scaling_graph(self) -> str:
        s = scaling.scaling_graph(self.family, self.eps, self.depth)
        n, word_fmt = s.size, f"0{self.depth + 1}b"

        def chunks():
            # row k is x = k / n, whose word is k's bits reversed
            for start in range(0, n, CSV_CHUNK_ROWS):
                rows = range(start, min(start + CSV_CHUNK_ROWS, n))
                yield ([repr(k / n) for k in rows],
                       [format(k, word_fmt)[::-1] for k in rows],
                       [*map(repr, s[rows.start:rows.stop].tolist())])

        _write_csv(self.path(".csv"), ["x_coord", "word", "s"], chunks())
        return (f"scaling-graph depth={self.depth} rows={n} "
                f"s_range=[{s.min():.4f},{s.max():.4f}]")

    def cmd_scaling_point(self) -> str:
        est = scaling.scale_at(self.family, self.eps, self.dual_point,
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
        fit = geometry.asymptotic_gap_fit(self.family, self.eps_grid,
                                          depth=min(self.depth, 8))
        _write_json(self.path(".json"), {
            "slope": fit.slope,
            "slope_max": fit.slope_max,
            "slope_min": fit.slope_min,
            "band": list(fit.band),
            "depth": min(self.depth, 8),
            "rows": [{"epsilon": e, "leading_gap_ratio": r}
                     for e, r in zip(fit.eps, fit.leading_ratios)],
        })
        return f"gap-fit slope={fit.slope:.4f} band={fit.band}"

    def cmd_dimension_curve(self) -> str:
        ests, slope = dimension.hd_curve(self.family, self.eps_grid, self.depth)
        columns = zip(*[(e.epsilon, e.delta, *e.bracket) for e in ests])
        _write_csv(self.path(".csv"),
                   ["epsilon", "delta", "bracket_lo", "bracket_hi"],
                   [[map(_fmt, col) for col in columns]])
        _write_json(self.path("_fit.json"), {"slope": slope,
                                             "depth": self.depth})
        return f"dimension-curve slope={slope:.4f} points={len(ests)}"

    def cmd_metric_check(self) -> str:
        m = _metric_for(self.family, self.eps)
        xs = np.linspace(-1.0, 1.0, 201)
        round_trip = float(np.max(np.abs(m.h_inv(np.asarray(m.h(xs))) - xs)))
        payload = {"gamma": self.family.gamma, "epsilon": self.eps,
                   "b": m.b, "round_trip_max_error": round_trip}
        if self.family.kind == "quadratic" and self.eps == 0.0:
            ys = np.linspace(-1.0, 1.0, 201)
            conj = np.max(np.abs(np.asarray(tilde_eval(self.family, 0.0, ys))
                                 - (1.0 - 2.0 * np.abs(ys))))
            payload["tent_conjugacy_max_error"] = float(conj)
        _write_json(self.path(".json"), payload)
        if round_trip > 1e-10:
            raise ConvergenceError("metric round trip exceeded 1e-10")
        return f"metric-check round_trip={round_trip:.2e}"

    def cmd_distortion_check(self) -> str:
        if self.depth < 1:
            raise ConfigError("key 'depth': distortion-check needs at least 1")
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
        analysis = scaling.jump_at(self.family, self.dual_point, self.depth)
        # tau divides by c_n, which is 0 where the cell touches the left end
        tau1, tau2 = (_fmt(t) if math.isfinite(t) else "undefined"
                      for t in (analysis.tau1, analysis.tau2))
        lines = [
            f"dual point   : {self.dual_point_text}",
            f"tau1         : {tau1}",
            f"tau2         : {tau2}",
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
        results = branches.invariant_suite(self.family, self.eps)
        _write_json(self.path(".json"), results)
        failed = [k for k, v in results.items() if not v["passed"]]
        if failed:
            raise ConvergenceError(f"invariant suites failed: {failed}")
        return ("invariants passed=" +
                f"{sum(v['checks'] for v in results.values())} checks in "
                f"{len(results)} suites")


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
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2
    except (CantorScaleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(summary)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
