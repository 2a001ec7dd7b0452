"""``tools/size_report.py``: its static counts against the imported package."""

import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import cantorscale

TOOL = Path(__file__).resolve().parent.parent / "tools" / "size_report.py"
SRC = Path(cantorscale.__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("size_report", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_root_names_match_the_imported_package():
    # a fresh interpreter: a test that imports cantorscale.cli binds ``cli``
    count = subprocess.run(
        [sys.executable, "-c", "import cantorscale; print(sum("
         "not n.startswith('_') for n in dir(cantorscale)))"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, check=True).stdout
    assert _tool().root_names(SRC / "cantorscale") == int(count)


def test_defaulted_params_match_the_signatures_of_a_module():
    # geometry defines functions only at its top level, where inspect sees
    # each signature that the tool's ast walk counts
    module = cantorscale.geometry
    want = sum(p.default is not inspect.Parameter.empty
               for obj in vars(module).values()
               if inspect.isfunction(obj) and obj.__module__ == module.__name__
               for p in inspect.signature(obj).parameters.values())
    assert want > 0
    assert _tool().defaulted_params([Path(module.__file__)]) == want
