"""``tools/mutants.py``: its mutation list still matches the package."""

import importlib.util
from pathlib import Path

import pytest

import cantorscale

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
SRC = Path(cantorscale.__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _tool()
MUTATIONS = MUTANTS.MUTATIONS


@pytest.mark.parametrize("name,module,original,mutated", MUTATIONS,
                         ids=[m[0] for m in MUTATIONS])
def test_each_mutation_applies_to_exactly_one_place(name, module, original,
                                                    mutated):
    # a mutation whose text was edited away would run the unmutated code
    texts = [p.read_text() for p in (SRC / "cantorscale").glob("*.py")]
    assert sum(t.count(original) for t in texts) == 1
    assert original in MUTANTS.module_path(SRC, module).read_text()
    assert mutated != original
    assert (TOOL.parent.parent / "tests" / f"test_{module}.py").exists()


def test_mutation_names_are_unique():
    assert len({m[0] for m in MUTATIONS}) == len(MUTATIONS)
