"""Run a fixed list of textual mutations of the package against its tests.

    python3 tools/mutants.py [NAME ...]

Each mutation replaces one text of one module, in a fresh temporary copy
of ``src/``, and runs that module's test file (``tests/test_<module>.py``)
on the copy; ``NAME`` restricts the run to the named mutations.  A
mutation is ``killed`` when a test fails, ``survived`` when all pass and
``error`` when pytest could not run the tests or timed out.  A survivor
names a change that the module's tests cannot see.  Each mutant costs a
run of its test file (seconds to tens of seconds), so the list stays out
of the test suite; ``tests/test_mutants.py`` only checks that every
original text still occurs exactly once.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "cantorscale"
#: seconds after which a mutant's test run counts as an error
TIMEOUT = 900

#: (name, module, original text, mutated text)
MUTATIONS = [
    ("length-floor", "scaling",
     "LENGTH_FLOOR = 1e-11", "LENGTH_FLOOR = 1e-9"),
    ("asymmetry-one-ratio", "scaling",
     "converged = (len(tail) >= 2", "converged = (len(tail) >= 1"),
    ("metric-terms", "metric", "_TERMS = 56", "_TERMS = 44"),
    ("metric-nodes", "metric", "_NODES = 513", "_NODES = 65"),
    ("constant-samples", "geometry",
     "CONSTANT_SAMPLES = 80", "CONSTANT_SAMPLES = 20"),
    ("k1-gamma-factor", "geometry",
     "g * (g - 1.0) * (2.0 + eps)", "g * (2.0 + eps)"),
    ("k3-near-end", "geometry",
     "max(-a_pt, d_pt)", "min(-a_pt, d_pt)"),
    ("gap-parent-is-the-level", "geometry",
     "parent_len = parent.lengths", "parent_len = level.lengths[0::2]"),
    ("residual-tol", "dimension",
     "_RESIDUAL_TOL = 1e-10", "_RESIDUAL_TOL = 1e-7"),
    ("power-clamp-abs", "families",
     "np.maximum(t, 0.0, out=t)", "np.abs(t, out=t)"),
    ("power-clamp-dropped", "families",
     "        np.maximum(t, 0.0, out=t)\n", ""),
    ("quartic-clamp-abs", "families",
     "np.maximum(np.subtract(crit, y, out=out), 0.0, out=out)",
     "np.abs(np.subtract(crit, y, out=out), out=out)"),
    ("quartic-clamp-dropped", "families",
     "np.maximum(np.subtract(crit, y, out=out), 0.0, out=out)",
     "np.subtract(crit, y, out=out)"),
    ("quartic-endpoint-dropped", "families",
     "        np.copyto(c, dhi, where=np.equal(y, dlo))\n", ""),
    ("per-point-merge-flipped", "branches",
     "where=side)", "where=~side)"),
    ("per-point-signs-flipped", "branches",
     "np.where(sides, 1.0, -1.0)", "np.where(sides, -1.0, 1.0)"),
    ("dual-point-extra-dots", "symbolic",
     ' or "." in suffix_txt[:-1]', ""),
    ("mirror-keeps-signs", "cli",
     'hi_sign ^ ord("-"), hi, lo_sign ^ ord("-"), lo,',
     "hi_sign, hi, lo_sign, lo,"),
    ("fused-cells-offset", "cli",
     "for part in (signs, bodies)]",
     "for part in (signs, np.roll(bodies, n, axis=0))]"),
    ("json-encode-allows-nan", "cli",
     "sort_keys=True, allow_nan=False", "sort_keys=True, allow_nan=True"),
]


def module_path(src: Path, module: str) -> Path:
    return src / PACKAGE / f"{module}.py"


def run_mutant(module: str, original: str, mutated: str) -> tuple[str, float]:
    """``(result, seconds)`` of the module's tests on a mutated copy of src/."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = module_path(src, module)
        text = path.read_text()
        if text.count(original) != 1:
            return "stale", 0.0
        path.write_text(text.replace(original, mutated))
        # the copy goes ahead of the repository's src/, which pyproject puts
        # on the path; no bytecode, so no stale .pyc can hide the mutation
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x",
               "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
               str(ROOT / "tests" / f"test_{module}.py")]
        start = time.perf_counter()
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
        except subprocess.TimeoutExpired:
            code = None
        seconds = time.perf_counter() - start
    return {0: "survived", 1: "killed"}.get(code, "error"), seconds


def main(argv: list[str]) -> int:
    names = set(argv[1:])
    unknown = names - {m[0] for m in MUTATIONS}
    if unknown:
        print(f"unknown mutation(s) {sorted(unknown)}", file=sys.stderr)
        return 2
    print(f"{'mutation':<26} {'module':<10} {'result':<9} seconds")
    survivors = 0
    for name, module, original, mutated in MUTATIONS:
        if names and name not in names:
            continue
        result, seconds = run_mutant(module, original, mutated)
        survivors += result == "survived"
        print(f"{name:<26} {module:<10} {result:<9} {seconds:.1f}", flush=True)
    print(f"survivors {survivors}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
