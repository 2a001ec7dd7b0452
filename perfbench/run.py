#!/usr/bin/env python3
"""Oracle-checked benchmark of cantorscale: one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload deep-partition --seed 1 --seconds 35 --trace 0

It builds the workload's inputs from ``--seed``, then runs whole rounds of
the same operations until ``--seconds`` have passed.  A round is the
workload's API experiments followed by its CLI configs (run through
``cantorscale.cli.main`` in-process).  Each operation is checked against
an independent computation; it fails on an exception, a non-zero CLI exit
or a failed check.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are end to end (``setup_s``, ``api_s``, ``cli_s``, ``peak_rss_mb``), the
first and last measured in fresh child processes; with
``--trace 1`` the run wraps every layer from outside and reports the
per-layer counts and self times instead.  Results, span traces and the
first round's CLI artifacts are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one thread per process, fixed before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("deep-partition", "orbit-distortion")
SETUP_PROBES = 7
READY = "perfbench-setup-done"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import cantorscale from this checkout's ``src``, never elsewhere."""
    if not (SRC / "cantorscale" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cantorscale sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import cantorscale
    if Path(cantorscale.__file__).resolve().parent != SRC / "cantorscale":
        sys.exit(f"perfbench: imported {cantorscale.__file__}, not {SRC}")
    return cantorscale


def build(workload: str, seed: int, run_dir: Path):
    """Generate the workload's inputs and write its CLI configs."""
    import workloads
    api, cli = workloads.WORKLOADS[workload](seed)
    (run_dir / "configs").mkdir(parents=True, exist_ok=True)
    for op in cli:
        op.config_path = run_dir / "configs" / f"{op.name}.json"
        op.config_path.write_text(json.dumps(op.config, sort_keys=True))
    return api, cli


def probe(args) -> None:
    """Child process: the set-up a fresh process pays before its first call.

    With ``--probe rss`` it then runs one round of the operations without
    their checks and prints its own peak resident memory in MB, so that
    the figure is the program's and not the reference computations'.
    """
    run_dir = OUT / "runs" / f"probe-{os.getpid()}"
    import_program()
    api, cli = build(args.workload, args.seed, run_dir)
    print(READY, flush=True)
    if args.probe == "rss":
        import workloads
        for op in api:
            with contextlib.suppress(Exception):  # the timed run counts it
                op.run()
        for op in cli:
            out_dir = run_dir / "round" / op.name
            out_dir.mkdir(parents=True)
            with contextlib.suppress(Exception):
                workloads.run_cli(op, out_dir)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              flush=True)
    shutil.rmtree(run_dir, ignore_errors=True)


def run_probe(args, kind: str) -> tuple[float, list[str]]:
    """Spawn a probe; return the seconds until it was set up and its output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--probe", kind]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().strip()
        elapsed = perf_counter() - start
        rest = child.stdout.read().split()
        rc = child.wait(timeout=170)
    if line != READY or rc != 0:
        sys.exit(f"perfbench: {kind} probe failed (exit {rc})")
    return elapsed, rest


def measure_setup(args) -> float:
    """Median wall time from spawning a fresh interpreter to the end of set-up."""
    return statistics.median(run_probe(args, "setup")[0]
                             for _ in range(SETUP_PROBES))


def measure_peak_rss(args) -> float:
    """Peak resident memory (MB) of a fresh process that runs one round."""
    return float(run_probe(args, "rss")[1][-1])


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def checked(check, arg) -> list:
    try:
        return check(arg)
    except Exception:  # a check that crashes is a failed check
        return ["check raised:\n" + traceback.format_exc()]


class Runner:
    """Runs rounds of one workload and keeps per-round figures."""

    def __init__(self, api, cli, run_dir: Path, tracer=None):
        self.api, self.cli = api, cli
        self.run_dir = run_dir
        self.tracer = tracer
        self.rounds: list[dict] = []
        self.failures: list[str] = []
        self.op_seconds: dict[str, list[float]] = {}

    def _timed(self, name, fn):
        tracer = self.tracer
        if tracer is not None:
            span = tracer.open("op." + name)
            tracer.active = True
        result, error = None, None
        start = perf_counter()
        try:
            result = fn()
        except Exception:  # the operation failed; record it and go on
            error = traceback.format_exc()
        dt = perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.close(span)
        self.op_seconds.setdefault(name, []).append(dt)
        return result, error, dt

    def round(self) -> None:
        k = len(self.rounds)
        tracer = self.tracer
        first_span = len(tracer.spans) if tracer else 0
        counts_before = tracer.counts.copy() if tracer else None
        api_s = cli_s = 0.0
        failed = 0
        for op in self.api:
            result, error, dt = self._timed(op.name, op.run)
            api_s += dt
            msgs = [error] if error else checked(op.check, result)
            failed += self._record(k, op.name, msgs)
        round_dir = self.run_dir / f"round-{k}"
        import workloads
        for op in self.cli:
            out_dir = round_dir / op.name
            out_dir.mkdir(parents=True)
            res, error, dt = self._timed(op.name,
                                         lambda: workloads.run_cli(op, out_dir))
            cli_s += dt
            if error:
                msgs = [error]
            elif res[0] != 0:
                msgs = [f"exit {res[0]}: {res[1]}"]
            elif op.digest is None:
                msgs = checked(op.check, out_dir)
                if not msgs:
                    op.digest = digest(out_dir)
            else:
                msgs = ([] if digest(out_dir) == op.digest
                        else ["artifacts differ from the first round"])
            failed += self._record(k, op.name, msgs)
        info = {"api_s": api_s, "cli_s": cli_s, "failed": failed}
        if tracer:
            info["self_s"] = tracer.self_times(first_span, len(tracer.spans))
            info["counts"] = dict(tracer.counts - counts_before)
            info["spans"] = len(tracer.spans) - first_span
        self.rounds.append(info)
        if k == 0:
            keep = OUT / "artifacts" / self.run_dir.name.split("-seed")[0]
            shutil.rmtree(keep, ignore_errors=True)
            keep.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(round_dir), str(keep))
        else:
            shutil.rmtree(round_dir)

    def _record(self, k, name, msgs) -> int:
        if msgs:
            self.failures.append(f"round {k} {name}: " + "; ".join(msgs))
        return int(bool(msgs))


def per_layer(rounds) -> tuple[dict, bool]:
    """Per-layer metrics: counts of one round, median self time per round."""
    from tracing import COUNT_METRICS, TIME_METRICS
    counts = [r["counts"] for r in rounds]
    steady = all(c == counts[0] for c in counts)
    metrics = {}
    for name in COUNT_METRICS:
        metrics[name] = {"value": counts[0].get(name, 0), "unit": "count"}
    for name in TIME_METRICS:
        metrics[name] = {"value": statistics.median(r["self_s"][name]
                                                    for r in rounds),
                         "unit": "s"}
    metrics["trace.api_s"] = {"value": statistics.median(
        r["api_s"] for r in rounds), "unit": "s"}
    metrics["trace.cli_s"] = {"value": statistics.median(
        r["cli_s"] for r in rounds), "unit": "s"}
    metrics["trace.spans"] = {"value": rounds[0]["spans"], "unit": "count"}
    return metrics, steady


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    if not (SRC / "cantorscale" / "__init__.py").is_file():
        print(f"perfbench: no cantorscale sources at {SRC}", file=sys.stderr)
        return 2
    if not args.trace:
        setup_s = measure_setup(args)
        peak_rss_mb = measure_peak_rss(args)

    package = import_program()
    name = f"{args.workload}-seed{args.seed}"
    run_dir = OUT / "runs" / f"{name}-{os.getpid()}"
    api, cli = build(args.workload, args.seed, run_dir)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(package)

    runner = Runner(api, cli, run_dir, tracer)
    start = perf_counter()
    while not runner.rounds or perf_counter() - start < args.seconds:
        runner.round()
    elapsed = perf_counter() - start
    shutil.rmtree(run_dir, ignore_errors=True)

    rounds = runner.rounds
    attempted = len(rounds) * (len(api) + len(cli))
    failed = sum(r["failed"] for r in rounds)
    correct = failed == 0
    if args.trace:
        tracer.uninstall()
        metrics, steady = per_layer(rounds)
        correct = correct and steady
        if not steady:
            runner.failures.append("per-layer counts differ between rounds")
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{name}.csv.gz")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "api_s": {"value": statistics.median(r["api_s"] for r in rounds),
                      "unit": "s"},
            "cli_s": {"value": statistics.median(r["cli_s"] for r in rounds),
                      "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=elapsed, rounds=rounds, failures=runner.failures,
                  api_ops=len(api), cli_ops=len(cli),
                  op_seconds=runner.op_seconds)
    (OUT / "results" / f"{name}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for line in runner.failures:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
