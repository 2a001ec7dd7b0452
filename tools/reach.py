"""List the functions under ``src/`` that no command, law or workload reaches.

    python3 tools/reach.py

One process traces, with ``sys.settrace``, every Python call while it runs:

- the API operations and CLI configs of both ``perfbench/workloads.py``
  workloads at seeds 1-3, without their checks (as the benchmark's memory
  probe runs them), with the artifacts in a temporary directory;
- ``tests/test_acceptance.py``, through ``pytest.main``;
- a CLI sweep: each of the 9 commands on 6 preset families at (eps,
  depth) = (0, 6) and (0.2, 12), 108 configs, whatever their exit status.

It then prints each function or method defined under ``src/`` whose code
never ran, as ``path:line qualname``: the functions that the rule "a name
goes when no CLI command, acceptance law or benchmark workload reaches it"
applies to.  pytest prints its own summary of the acceptance run.  The
tool reruns the acceptance tests, so it stays out of the test suite.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEEDS = (1, 2, 3)
SPECS = ({"kind": "quadratic"}, {"kind": "gamma_power", "gamma": 3.0},
         {"kind": "gamma_power", "gamma": 1.5}, {"kind": "tent"},
         {"kind": "figure6", "c": -0.03},
         {"kind": "asym_quadratic", "beta": 0.3})
EPS_DEPTHS = ((0.0, 6), (0.2, 12))
#: what the commands that need a key with no default are given
EXTRA_KEYS = {"dual_point": "0^inf|10.", "epsilon_grid": [0.05, 0.1, 0.2]}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> qualname, for every function
    under ``src/``; a decorated function's code starts at its decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path), "")
    return found


def run_workloads(tmp: Path) -> None:
    import workloads
    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            run_dir = tmp / f"{name}-{seed}"
            (run_dir / "configs").mkdir(parents=True)
            api, cli = build(seed)
            for op in api:
                with contextlib.suppress(Exception):
                    op.run()
            for op in cli:
                op.config_path = run_dir / "configs" / f"{op.name}.json"
                op.config_path.write_text(json.dumps(op.config, sort_keys=True))
                with contextlib.suppress(Exception):
                    workloads.run_cli(op, run_dir / op.name)


def run_cli_sweep(tmp: Path) -> None:
    from cantorscale import cli
    tmp.mkdir()
    for command in cli.COMMANDS:
        for k, spec in enumerate(SPECS):
            for eps, depth in EPS_DEPTHS:
                config = {"command": command, "family": spec,
                          "epsilon": eps, "depth": depth}
                key = cli.REQUIRED_KEYS.get(command)
                if key is not None:
                    config[key] = EXTRA_KEYS[key]
                out = tmp / f"{command}-{k}-{depth}"
                path = tmp / f"{command}-{k}-{depth}.json"
                path.write_text(json.dumps(config))
                buf = io.StringIO()   # the commands' output is not read
                with (contextlib.redirect_stdout(buf),
                      contextlib.redirect_stderr(buf)):
                    cli.main(["--config", str(path), "--out", str(out)])


def main() -> int:
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    reached = set()

    def trace(frame, event, arg):
        code = frame.f_code
        reached.add((code.co_filename, code.co_firstlineno))

    sys.settrace(trace)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_workloads(Path(tmp) / "workloads")
            run_cli_sweep(Path(tmp) / "sweep")
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests" / "test_acceptance.py")])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"reach: tests/test_acceptance.py exited {status}",
              file=sys.stderr)
    functions = defined_functions()
    missed = sorted(key for key in functions if key not in reached)
    print(f"{len(missed)} of {len(functions)} functions under src/ "
          "are not reached:")
    for path, line in missed:
        print(f"{Path(path).relative_to(SRC)}:{line} {functions[path, line]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
